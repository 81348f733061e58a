"""Self-test of the benchmark, on the small ("smoke") size of every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json keeps to its format; that every workload runs
with tracing off and on, prints exactly the declared metrics and passes its
own checks; that a seed gives the same digest and exact counts twice and
with tracing; that the default command runs every workload; that a wrapped
name that no longer exists is reported as absent; and that the benchmark
refuses to run where the library's source is missing. Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_benchmark_json(bench: dict) -> None:
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the six keys")
    check(1 <= len(bench["paths"]) <= 16 and all(
        PATH.match(p) and ".." not in p.split("/") and not p.startswith("/") for p in bench["paths"]),
        "paths are relative and well formed")
    check(all(isinstance(c, str) and len(c) <= 200 for c in bench["command"])
          and len(bench["command"]) <= 32, "command is a short list of strings")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(2 <= len(bench["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in bench["workloads"]), "workloads: 2 to 8, each a name and a one-line why")
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in e2e),
        "end_to_end: 1 to 16 metrics with bounds in (0, 0.25]")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in e2e),
          "setup_s is an end-to-end metric")
    check(1 <= len(layers) <= 128 and all(set(m) == {"name", "unit", "better"} for m in layers),
          "per_layer: 1 to 128 metrics without bounds")
    names = [x["name"] for x in bench["workloads"] + e2e + layers]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "names are well formed and used once")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in e2e + layers),
          "units and directions are well formed")
    check(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def run(cwd: str, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def details(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-smoke-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def check_workload(workload: str, bench: dict) -> None:
    declared = {s: {m["name"]: m["unit"] for m in bench[s]} for s in ("end_to_end", "per_layer")}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                          "--trace", str(trace), "--size", "smoke")
        check(code == 0 and bool(lines), f"{workload} trace {trace}: exits 0")
        if code != 0 or not lines:
            continue
        result = json.loads(lines[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{workload} trace {trace}: result line has the four keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload} trace {trace}: correct, no failed trials")
        metrics = result["metrics"]
        check({k: v["unit"] for k, v in metrics.items()} == declared[section],
              f"{workload} trace {trace}: prints every {section} metric with its unit")
        if trace == 0:
            check(all(v["value"] > 0 for v in metrics.values()),
                  f"{workload}: every end-to-end metric is above 0")
    first = details(workload, 5, 0)
    traced = details(workload, 5, 1)
    check(traced["absent"] == [], f"{workload}: no wrapped name is absent")
    check(traced["digests"]["traced"] == traced["digests"]["untraced"] == first["digests"]["untraced"],
          f"{workload}: the traced run reproduces the untraced digest")
    code, lines = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                      "--size", "smoke")
    again = details(workload, 5, 0)
    check(code == 0 and again["digests"] == first["digests"]
          and all(again["metrics"][k] == first["metrics"][k] for k in ("queries_p50", "cover_size_p50")),
          f"{workload}: a second run with the same seed repeats the digest and the counts")


def check_all_workloads(bench: dict) -> None:
    code, lines = run(ROOT, "--seconds", "0.2", "--size", "smoke")
    result = json.loads(lines[-1]) if code == 0 and lines else {}
    expected = {f"{w['name']}/{m['name']}" for w in bench["workloads"] for m in bench["end_to_end"]}
    check(result.get("correct") is True and set(result.get("metrics", ())) == expected,
          "without --workload every workload runs, each in its own process")


def check_absent_names() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing

    saved = dict(tracing.WRAPPED)
    tracing.WRAPPED["pseudo_greedy"] = saved["pseudo_greedy"] + ("no_such_name",)
    tracing.WRAPPED["no_such_module"] = ("anything",)
    try:
        with tracing.Installed(tracing.Tracer()) as installed:
            absent = list(installed.absent)
    finally:
        tracing.WRAPPED.clear()
        tracing.WRAPPED.update(saved)
    check(absent == ["pseudo_greedy.no_such_name", "no_such_module.anything"],
          "wrapped names that no longer exist are reported as absent")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    code, lines = run(bare, "--workload", "discover-er", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the library's source the benchmark exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_benchmark_json(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        check_workload(workload, bench)
    check_all_workloads(bench)
    check_absent_names()
    check_bare_directory()
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
