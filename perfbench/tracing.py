"""Span tracing for the traced benchmark run, from the benchmark's own files.

Nothing inside the library is edited. Spans come from three places:

- timing subclasses of the two oracles, passed to the algorithms in place
  of the plain ones;
- timing wrappers installed over module-level names of the library for the
  length of the traced run only (see ``WRAPPED``), so the algorithms' own
  internal calls are timed without touching their code;
- the benchmark's direct calls into the library (generators, algorithm
  entry points, verification), made through the same tracer.

A span is ``[name, start, end, parent, trial, note]``. ``parent`` is the
index of the enclosing span (-1 at the top), ``trial`` the trial id (-1 for
set-up), ``note`` a small count taken at the boundary, such as the length
of a query answer. Spans are kept in memory and written out when the run
ends; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

from covert_setcover import CovertOracle, LayeredGraphOracle

# Module-level names replaced by timing wrappers for the traced run. A name a
# refactor removed is reported as absent; the run goes on without its span.
WRAPPED = {
    "pseudo_greedy": (
        "draw_round_sample",
        "shortlist_sets",
        "sequential_filter",
        "base_case_explicit",
        "build_set_system",
        "greedy_cover",
    ),
    "epsnet": ("sample_weighted_net", "find_uncovered", "reweight_on_miss"),
    "discovery": (
        "hitting_set_H",
        "certified_pairs",
        "layered_answer",
        "draw_round_sample",
        "build_set_system",
        "greedy_cover",
    ),
    # gen_set_system builds its instance through this name.
    "generators": ("build_set_system",),
}


def _first_len(args, result):
    return len(result[0])


def _second_arg_len(args, result):
    return len(args[1])


def _is_none(args, result):
    return result is None


def _length(args, result):
    return len(result)


def _query_note(args, result):
    return (args[0], len(result))


def _arg_note(args, result):
    return args[0]


# Counts taken at a wrapped boundary, keyed by the wrapped function's span name.
NOTES = {
    "pseudo_greedy.shortlist_sets": _first_len,  # sets shortlisted
    "pseudo_greedy.sequential_filter": _first_len,  # sets accepted
    "pseudo_greedy.base_case_explicit": _second_arg_len,  # residue size
    "epsnet.find_uncovered": _is_none,  # candidate covered everything
    "graphs.certified_pairs": _length,  # pairs certified
}


def span_name(fn) -> str:
    """Layer-qualified name of a library function, e.g. ``setsystem.greedy_cover``."""
    module = getattr(fn, "__module__", None) or "unknown"
    return f"{module.rsplit('.', 1)[-1]}.{getattr(fn, '__name__', repr(fn))}"


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = -1
        self._stack = [-1]

    def call(self, name, fn, args, kwargs=None, note=None):
        rec = [name, 0.0, 0.0, self._stack[-1], self.trial, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if note is not None:
            try:
                rec[5] = note(args, result)
            except (IndexError, TypeError):
                # A refactor changed the signature or return shape: keep the
                # span and drop the count.
                rec[5] = None
        return result

    def wrap(self, fn):
        """``fn`` with every call recorded as a span named by ``span_name``."""
        name = span_name(fn)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return wrapper

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "trial", "note"]}))
            fh.write("\n")
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")


class TracedCovertOracle(CovertOracle):
    """A ``CovertOracle`` whose queries are recorded as spans."""

    def __init__(self, hidden, tracer: Tracer):
        super().__init__(hidden)
        self._tracer = tracer

    def hitting_query(self, e):
        return self._tracer.call(
            "oracle.hitting_query", super().hitting_query, (e,), note=_query_note
        )

    def set_query(self, s):
        return self._tracer.call(
            "oracle.set_query", super().set_query, (s,), note=_query_note
        )


class TracedLayeredGraphOracle(LayeredGraphOracle):
    """A ``LayeredGraphOracle`` whose queries are recorded as spans."""

    def __init__(self, hidden, tracer: Tracer):
        super().__init__(hidden)
        self._tracer = tracer

    def layered_query(self, v):
        return self._tracer.call(
            "oracle.layered_query", super().layered_query, (v,), note=_arg_note
        )


class Installed:
    """Timing wrappers over the ``WRAPPED`` names, removed on exit."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def __enter__(self):
        for mod_name, names in WRAPPED.items():
            try:
                module = importlib.import_module(f"covert_setcover.{mod_name}")
            except ModuleNotFoundError:
                self.absent.extend(f"{mod_name}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{name}")
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._tracer.wrap(fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False


class SpanTable:
    """Per-name totals over the spans, split into set-up and trial spans.

    ``scale`` maps a trial id (-1 for set-up) to the factor its span
    durations are multiplied by.
    """

    def __init__(self, spans: list[list], scale: dict[int, float]):
        duration = [(rec[2] - rec[1]) * scale.get(rec[4], 1.0) for rec in spans]
        child_time = [0.0] * len(spans)
        for idx, rec in enumerate(spans):
            if rec[3] >= 0:
                child_time[rec[3]] += duration[idx]
        self.setup: dict[str, dict] = defaultdict(_zero_row)
        self.trial: dict[str, dict] = defaultdict(_zero_row)
        # Notes of trial spans by name, each with the name of its parent span.
        self.notes: dict[str, list] = defaultdict(list)
        self._args: dict[tuple[str, int], set] = defaultdict(set)
        for idx, rec in enumerate(spans):
            name, _, _, parent, trial, note = rec
            row = (self.setup if trial < 0 else self.trial)[name]
            row["calls"] += 1
            row["s"] += duration[idx]
            row["self_s"] += duration[idx] - child_time[idx]
            if note is not None and trial >= 0:
                self.notes[name].append((spans[parent][0] if parent >= 0 else None, note))
                if name.startswith("oracle."):
                    self._args[(name, trial)].add(note[0] if isinstance(note, tuple) else note)

    def distinct(self, name: str) -> int:
        """Distinct arguments of ``name`` summed over trials."""
        return sum(len(args) for (n, _), args in self._args.items() if n == name)

    def rows(self) -> dict:
        return {"setup": dict(self.setup), "trial": dict(self.trial)}


def _zero_row():
    return {"calls": 0, "s": 0.0, "self_s": 0.0}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, n_trials: int, counts: dict) -> dict:
    """Per-layer values from the spans of one traced run, which sets up once.

    ``counts`` sums the per-trial counts the workload took from its results.
    Times and counts are per traced trial (per set-up for set-up spans); a
    layer the workload does not exercise reads 0.
    """
    tr, su = table.trial, table.setup

    def trial(name, key):
        return tr[name][key] / n_trials if name in tr else 0.0

    def setup(name):
        return su[name]["s"] if name in su else 0.0

    def note_sum(name, parent=None, pick=lambda n: n):
        return sum(pick(n) for p, n in table.notes.get(name, ()) if parent in (None, p))

    v = {
        "generators.gen_set_system.s": setup("generators.gen_set_system"),
        "generators.gen_graph.s": setup("generators.gen_graph"),
        "setsystem.build_set_system.setup_s": setup("setsystem.build_set_system"),
        "setsystem.build_set_system.s": trial("setsystem.build_set_system", "s"),
        "setsystem.greedy_cover.calls": trial("setsystem.greedy_cover", "calls"),
        "setsystem.greedy_cover.s": trial("setsystem.greedy_cover", "s"),
        "setsystem.verify_cover.s": trial("setsystem.verify_cover", "s"),
    }
    for kind in ("hitting", "set"):
        name = f"oracle.{kind}_query"
        calls = tr[name]["calls"] if name in tr else 0
        v[f"{name}.calls"] = calls / n_trials
        v[f"{name}.s"] = trial(name, "s")
        v[f"{name}.distinct_ratio"] = _ratio(table.distinct(name), calls)
        v[f"{name}.answer_len_mean"] = _ratio(note_sum(name, pick=lambda n: n[1]), calls)
    layered = tr["oracle.layered_query"]["calls"] if "oracle.layered_query" in tr else 0
    v["oracle.layered_query.calls"] = layered / n_trials
    v["oracle.layered_query.self_s"] = trial("oracle.layered_query", "self_s")
    v["oracle.layered_query.distinct_ratio"] = _ratio(table.distinct("oracle.layered_query"), layered)

    v["pseudo_greedy.draw_round_sample.s"] = trial("pseudo_greedy.draw_round_sample", "s")
    v["pseudo_greedy.shortlist_sets.self_s"] = trial("pseudo_greedy.shortlist_sets", "self_s")
    v["pseudo_greedy.tally_adds"] = (
        note_sum("oracle.hitting_query", "pseudo_greedy.shortlist_sets", lambda n: n[1]) / n_trials
    )
    v["pseudo_greedy.sequential_filter.self_s"] = trial("pseudo_greedy.sequential_filter", "self_s")
    v["pseudo_greedy.accept_ratio"] = _ratio(
        note_sum("pseudo_greedy.sequential_filter"), note_sum("pseudo_greedy.shortlist_sets")
    )
    v["pseudo_greedy.base_case_explicit.self_s"] = trial("pseudo_greedy.base_case_explicit", "self_s")
    v["pseudo_greedy.base_case_residue"] = note_sum("pseudo_greedy.base_case_explicit") / n_trials
    v["pseudo_greedy.rounds"] = counts.get("pseudo_greedy.rounds", 0) / n_trials
    v["pseudo_greedy.run_pseudo_greedy.self_s"] = trial("pseudo_greedy.run_pseudo_greedy", "self_s")

    tests = tr["epsnet.find_uncovered"]["calls"] if "epsnet.find_uncovered" in tr else 0
    v["epsnet.sample_weighted_net.s"] = trial("epsnet.sample_weighted_net", "s")
    v["epsnet.find_uncovered.s"] = trial("epsnet.find_uncovered", "s")
    v["epsnet.reweight_on_miss.self_s"] = trial("epsnet.reweight_on_miss", "self_s")
    v["epsnet.iterations"] = tests / n_trials
    v["epsnet.guesses"] = counts.get("epsnet.guesses", 0) / n_trials
    v["epsnet.success_ratio"] = _ratio(note_sum("epsnet.find_uncovered"), tests)
    v["epsnet.run_weighted_epsilon_net.self_s"] = trial("epsnet.run_weighted_epsilon_net", "self_s")

    v["graphs.layered_answer.calls"] = trial("graphs.layered_answer", "calls")
    v["graphs.layered_answer.s"] = trial("graphs.layered_answer", "s")
    v["graphs.certified_pairs.calls"] = trial("graphs.certified_pairs", "calls")
    v["graphs.certified_pairs.s"] = trial("graphs.certified_pairs", "s")
    v["graphs.certify_new_ratio"] = _ratio(
        counts.get("discovery.pairs_resolved", 0), note_sum("graphs.certified_pairs")
    )

    v["discovery.hitting_set_H.self_s"] = trial("discovery.hitting_set_H", "self_s")
    v["discovery.probes"] = trial("discovery.hitting_set_H", "calls")
    v["discovery.rounds"] = counts.get("discovery.rounds", 0) / n_trials
    v["discovery.base_case_fraction"] = _ratio(
        counts.get("discovery.base_case_layered", 0), counts.get("discovery.layered", 0)
    )
    v["discovery.run_network_discovery.self_s"] = trial("discovery.run_network_discovery", "self_s")
    return v
