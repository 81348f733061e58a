"""Benchmark of covert-setcover: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py                      # every workload, each in its own process
    python3 perfbench/run.py --workload pg-planted --seed 3 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout the script sits in;
without it the script exits with code 2 and prints no result.

A run is a single-process closed loop: one caller, no threads, the next
trial starts when the previous one ends. The workload seed derives the
trial seeds. Trials run for ``--seconds``, and always at least the first
``trial_prefix`` (workloads.json): the digest, ``queries_p50`` and
``cover_size_p50`` are taken over those, so they repeat exactly for a seed.

Times are calibrated. A fixed job that does not use the library (see
``Reference``) is timed before every trial and after the last one; a
trial's time is its wall time scaled by ``REFERENCE_S`` over the mean of the
two reference times around it. On a shared machine the speed of the cores
changes by up to 2x for tens of seconds at a time, and this scaling cancels
most of that. Span times in traced runs are scaled the same way. Raw wall times are kept in
the details file.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs untraced trials, then the same trial seeds traced, and
reports the per-layer metrics; the traced digest must equal the untraced
one. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (every trial
time, the digest, the span table and, for traced runs, the spans) go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("pg-planted", "epsnet-planted", "greedy-sparse", "discover-er")
TAIL_BEYOND = 10
# What the reference job takes on an unloaded 2-core x86-64 VM with CPython
# 3.11; calibrated times are seconds at that speed.
REFERENCE_S = 0.025


def die(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    """Import covert_setcover from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "covert_setcover", "__init__.py")):
        die(f"no library source at {SRC}", 2)
    sys.path.insert(0, SRC)
    import covert_setcover

    if os.path.dirname(os.path.dirname(os.path.abspath(covert_setcover.__file__))) != SRC:
        die(f"covert_setcover was imported from {covert_setcover.__file__}, not {SRC}", 2)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Reference:
    """A fixed job that does not touch the library, timed to calibrate trial times.

    It does what the oracles mostly do, sorting small frozensets into tuples
    and intersecting them with a large set, so it slows down with the
    machine the way the trials do.
    """

    def __init__(self):
        rng = random.Random(0)
        self._pool = [frozenset(rng.sample(range(1 << 16), 16)) for _ in range(5000)]
        self._order = list(range(len(self._pool))) * 2
        rng.shuffle(self._order)
        self._probe = frozenset(range(0, 1 << 16, 3))

    def time(self) -> float:
        pool, probe, acc = self._pool, self._probe, 0
        t0 = perf_counter()
        for i in self._order:
            members = pool[i]
            acc += len(tuple(sorted(members)))
            if i & 3 == 0:
                acc += len(members & probe)
        return perf_counter() - t0


def speed_factor(ref_before: float, ref_after: float) -> float:
    """What wall seconds are multiplied by to give calibrated seconds."""
    return REFERENCE_S * 2.0 / (ref_before + ref_after)


class Trials:
    """Times and outcomes of consecutive trials, in trial-seed order."""

    def __init__(self):
        self.times: list[float] = []  # calibrated
        self.wall: list[float] = []
        self.factors: list[float] = []
        self.ids: list[int] = []  # tracer trial ids
        self.outcomes: list = []


class Runner:
    def __init__(self, name: str, size: str, seed: int):
        import workloads

        spec = workloads.load_spec()
        self.wl = workloads.WORKLOADS[name]
        self.params = spec["workloads"][name]["sizes"][size]
        self.prefix = spec["workloads"][name]["trial_prefix"]
        self._rng = random.Random(seed)
        self.seeds: list[int] = []
        self.setup_reps = spec["setup_reps"]
        self.setup_batch_seconds = spec["setup_batch_seconds"]
        self.workloads = workloads
        self.reference = Reference()
        self.trial_id = 0
        self.first_error: str | None = None

    def seed(self, i: int) -> int:
        """Trial ``i``'s rng seed, derived from the workload seed."""
        while len(self.seeds) <= i:
            self.seeds.append(self._rng.getrandbits(32))
        return self.seeds[i]

    def setup(self, lib, reps: int = 1, batch_seconds: float = 0.0):
        """Set up in ``reps`` batches, each repeated until ``batch_seconds`` are spent.

        Returns the last state, and per batch the calibrated mean set-up time
        and its speed factor.
        """
        times, factors, state = [], [], None
        ref_before = self.reference.time()
        for _ in range(reps):
            count, spent = 0, 0.0
            state = None
            gc.collect()
            while count == 0 or spent < batch_seconds:
                state = None
                t0 = perf_counter()
                try:
                    state = self.wl.setup(lib, self.params)
                except self.workloads.SetupError as exc:
                    die(f"set-up error: {exc}", 3)
                spent += perf_counter() - t0
                count += 1
            ref_after = self.reference.time()
            factors.append(speed_factor(ref_before, ref_after))
            times.append(spent / count * factors[-1])
            ref_before = ref_after
        return state, times, factors

    def trials(self, lib, state, seconds: float, tracer=None) -> Trials:
        """Closed loop over the trial seeds until ``seconds`` have passed and the prefix is done."""
        done = Trials()
        # Set-up garbage is collected and the instance is then hidden from the
        # cyclic collector. Otherwise whether a trial pays a full pass over the
        # whole instance (longer than a pg-planted trial) depends on the
        # allocation history of earlier trials, not on the trial's own work.
        gc.collect()
        gc.freeze()
        start = perf_counter()
        ref_before = self.reference.time()
        while len(done.times) < self.prefix or perf_counter() - start < seconds:
            seed = self.seed(len(done.times))
            done.ids.append(self.trial_id)
            if tracer is not None:
                tracer.trial = self.trial_id
            self.trial_id += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    raw, valid = self.wl.trial(lib, self.params, state, seed)
                else:
                    raw, valid = tracer.call("trial", self.wl.trial, (lib, self.params, state, seed))
                t1 = perf_counter()
                outcome = self.wl.outcome(self.params, state, raw, valid)
            except Exception as exc:  # a failed trial is counted, never fatal
                t1 = perf_counter()
                if self.first_error is None:
                    self.first_error = traceback.format_exc()
                outcome = self.workloads.Outcome(
                    ok=False,
                    reason=f"{type(exc).__name__}: {exc}",
                    queries=0,
                    cover_size=0,
                    record={"error": type(exc).__name__},
                )
            raw = None
            ref_after = self.reference.time()
            done.factors.append(speed_factor(ref_before, ref_after))
            done.wall.append(t1 - t0)
            done.times.append((t1 - t0) * done.factors[-1])
            done.outcomes.append(outcome)
            ref_before = ref_after
        gc.unfreeze()
        if tracer is not None:
            tracer.trial = -1
        return done

    def digest(self, done: Trials) -> str:
        return self.workloads.digest([o.record for o in done.outcomes[: self.prefix]])


def end_to_end(setup_times, done: Trials, prefix: int) -> tuple[dict, dict]:
    tail_s, tail_pct = tail(done.times)
    head = done.outcomes[:prefix]
    values = {
        "setup_s": statistics.median(setup_times),
        "trial_s_p50": statistics.median(done.times),
        "trial_s_tail": tail_s,
        "trials_per_s": len(done.times) / sum(done.times),
        "queries_p50": statistics.median(o.queries for o in head),
        "cover_size_p50": statistics.median(o.cover_size for o in head),
        "valid_fraction": sum(o.ok for o in done.outcomes) / len(done.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    trials = f"{len(done.times)} trials"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-up batches",
        "trial_s_p50": f"{trials}; raw wall median {statistics.median(done.wall):.6g} s",
        "trial_s_tail": f"p{tail_pct:.1f} of {trials}",
        "trials_per_s": trials,
        "queries_p50": f"first {prefix} trials",
        "cover_size_p50": f"first {prefix} trials",
        "valid_fraction": trials,
    }
    return values, notes


def declared_metrics(section: str) -> dict[str, str]:
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure_untraced(runner: Runner, args, details: dict):
    import workloads

    lib = workloads.Lib()
    state, setup_times, _ = runner.setup(lib, runner.setup_reps, runner.setup_batch_seconds)
    done = runner.trials(lib, state, args.seconds)
    values, notes = end_to_end(setup_times, done, runner.prefix)
    details.update(setup_times=setup_times, trial_times=done.times, wall_trial_times=done.wall)
    return "end_to_end", values, notes, done.outcomes, {"untraced": runner.digest(done)}


def measure_traced(runner: Runner, args, details: dict):
    """Untraced trials, then the same trial seeds traced, half of ``--seconds`` each."""
    import tracing
    import workloads

    plain = workloads.Lib()
    state, _, _ = runner.setup(plain)
    untraced = runner.trials(plain, state, args.seconds / 2)
    state = None
    tracer = tracing.Tracer()
    with tracing.Installed(tracer) as installed:
        lib = workloads.Lib(tracer)
        state, _, setup_factors = runner.setup(lib)
        traced = runner.trials(lib, state, args.seconds / 2, tracer)
    counts: dict = {}
    for o in traced.outcomes:
        for key, n in o.counts.items():
            counts[key] = counts.get(key, 0) + n
    scale = dict(zip(traced.ids, traced.factors))
    scale[-1] = setup_factors[0]
    table = tracing.SpanTable(tracer.spans, scale)
    values = tracing.layer_metrics(table, len(traced.times), counts)
    values["trace.overhead_ratio"] = statistics.median(traced.times) / statistics.median(
        untraced.times
    )
    values["trace.absent_wrappers"] = len(installed.absent)
    notes = {
        "trace.overhead_ratio": f"{len(traced.times)} traced, {len(untraced.times)} untraced trials"
    }
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-{args.size}-spans.jsonl")
    tracer.dump(spans_path)
    details.update(
        untraced_trial_times=untraced.times,
        traced_trial_times=traced.times,
        absent=installed.absent,
        spans=table.rows(),
        spans_file=os.path.relpath(spans_path, ROOT),
    )
    digests = {"untraced": runner.digest(untraced), "traced": runner.digest(traced)}
    return "per_layer", values, notes, untraced.outcomes + traced.outcomes, digests


def run_workload(args) -> int:
    import_library()
    runner = Runner(args.workload, args.size, args.seed)
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "params": runner.params,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    measure = measure_traced if args.trace else measure_untraced
    section, values, notes, outcomes, digests = measure(runner, args, details)
    details["trial_seeds"] = runner.seeds

    units = declared_metrics(section)
    if set(units) != set(values):
        die(f"computed {section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}", 4)
    failures = [o.reason for o in outcomes if not o.ok]
    digests_agree = len(set(digests.values())) == 1
    correct = not failures and digests_agree

    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {values[name]:.6g} {units[name]}{note}")
    for label, d in digests.items():
        print(f"  digest {label:9s} {d}  (first {runner.prefix} trials)")
    if args.trace:
        print(f"  absent wrappers: {', '.join(details['absent']) or 'none'}")
        if not digests_agree:
            print("  the traced digest differs from the untraced one: tracing changed the outputs")
    if failures:
        print(f"  {len(failures)} failed trials; first: {failures[0]}")
    if runner.first_error:
        print(runner.first_error, file=sys.stderr)

    details.update(
        metrics=values,
        notes=notes,
        digests=digests,
        attempted=len(outcomes),
        failures=failures[:20],
    )
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1)
    print(f"  details {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so one's memory never counts against another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with code {proc.returncode}", proc.returncode or 1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the small sizes the benchmark's self-test uses")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
