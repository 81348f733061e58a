"""Kept mutants: each one is a small fault that named tests must catch.

Usage, from the root of a checkout:

    python3 tests/mutants.py

A mutant is one exact text in one module of the package and its
replacement. The text must occur in the module exactly once, so a refactor
that moves it must update the entry. The runner copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory (pytest's ``pythonpath =
["src"]`` would otherwise import the checkout's own code) and checks there
that pytest imports the copy. It first runs every listed test on the
unmutated copy; they must all pass. Then, one mutant at a time, it applies
the replacement, runs the mutant's tests under a timeout and restores the
module. A mutant is killed when each of its tests fails, or when the run
times out, since some faults make a loop endless. The exit status is 1 if
any mutant survives, any text is not found exactly once, or the unmutated
copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60
PG = "tests/test_pseudo_greedy.py::"


class Mutant(NamedTuple):
    name: str
    module: str  # a module of covert_setcover, e.g. "pseudo_greedy"
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids; a parametrized function stands for all its cases


MUTANTS = (
    Mutant(
        "filter-keeps-every-shortlisted-set", "pseudo_greedy",
        "        if accepted and sum(_held(answers, s)) < threshold:\n            continue\n",
        "",
        (PG + "TestSequentialFilter::test_contained_set_discarded",
         PG + "TestSequentialFilter::test_exact_residual_counting_with_full_sample",
         PG + "TestFilterMatchesEagerReference::test_covert_oracle_answers"),
    ),
    Mutant(
        "filter-picks-not-accepted", "pseudo_greedy",
        "            for s in picks:\n                accept(s)\n",
        "",
        (PG + "TestSequentialFilter::test_accept_returning_none",
         PG + "TestRun::test_ledger_reconstructs_from_trace"),
    ),
    Mutant(
        "base-case-picks-accepted", "pseudo_greedy",
        "                picks = base_case_explicit(*tally)\n",
        "                picks = base_case_explicit(*tally)\n"
        "                for s in picks:\n                    accept(s)\n",
        (PG + "TestSequentialFilter::test_accept_returning_none",
         PG + "TestEarlyFinish::test_the_ledger_reconstructs_from_the_trace"),
    ),
    Mutant(
        "scale-entry-takes-the-ordinary-cut", "pseudo_greedy",
        "math.inf if base_case else threshold",
        "threshold",
        (PG + "TestBaseCaseEntries::test_the_scale_entry_shortlists_nothing_at_the_threshold",),
    ),
    Mutant(
        "base-case-recounts-its-answers", "pseudo_greedy",
        "    picks: list[int] = []\n    if (",
        "    picks: list[int] = []\n    counts = Counter(chain.from_iterable(answers))\n    if (",
        (PG + "TestBaseCaseEntries::test_each_entry_hands_its_round_tally_over",),
    ),
    Mutant(
        "lazy-picks-after-a-failed-type-pass", "pseudo_greedy",
        "all(type(a) is tuple for a in answers)\n"
        "            and _INT_ONLY.issuperset(map(type, chain.from_iterable(answers)))\n"
        "            and min(counts",
        "min(counts",
        (PG + "TestLazyBaseCase::test_matches_the_whole_rebuild",),
    ),
    Mutant(
        "lazy-pick-without-its-exact-count", "pseudo_greedy",
        "            if sum(held) < top:\n                break\n",
        "",
        (PG + "TestLazyBaseCase::test_matches_the_whole_rebuild",
         PG + "TestLazyBaseCase::test_a_stale_tally_rebuilds_only_the_uncovered_answers"),
    ),
    Mutant(
        "full-sample-end-ignores-a-shrunk-residue", "pseudo_greedy",
        "len(sample) == n_i == len(remaining())",
        "len(sample) == n_i",
        ("tests/test_golden_trace.py::test_discovery_er_grid",),
    ),
    Mutant(
        "discovery-buys-every-ask", "discovery",
        "        answer = known.get(v)\n",
        "        answer = None\n",
        ("tests/test_discovery.py::TestDiscovery::test_answer_table_changes_only_the_bill",),
    ),
    Mutant(
        "weighted-net-rounds-draws-up", "epsnet",
        "keys = map(math.floor,",
        "keys = map(math.ceil,",
        ("tests/test_epsnet.py::TestNetSampling::test_matches_random_choices",),
    ),
    Mutant(
        "greedy-repeats-a-pick-that-covers-nothing", "setsystem",
        "            if not new:\n"
        "                raise ValueError(\"element_to_sets is not the inverse of sets\")\n",
        "",
        ("tests/test_setsystem.py::TestGreedy::test_wrong_inverse_index_raises_instead_of_looping",),
    ),
    Mutant(
        "trial-count-unchecked", "cli",
        "    require_count(\"trials\", args.trials)\n",
        "",
        ("tests/test_cli.py::TestSizeCap::test_trial_count[setcover-trials-0]",
         "tests/test_cli.py::TestSizeCap::test_trial_count[discover-trials-negative]"),
    ),
    Mutant(
        "seeds-admit-an-int-subclass", "harness",
        "all(type(s) is int for s in self.seeds)",
        "all(isinstance(s, int) and not isinstance(s, bool) for s in self.seeds)",
        ("tests/test_harness.py::TestRunExperiment::test_config_field_of_wrong_type"
         "[seeds-int-subclass]",),
    ),
)

# Run with the other tests on the unmutated copy: pytest must import the copy's package.
COPY_CHECK = "test_mutants_import_the_copy.py"
COPY_CHECK_SOURCE = '''from pathlib import Path

import covert_setcover


def test_the_copy_is_imported():
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(covert_setcover.__file__).resolve().parents[1] == src
'''


def run_tests(copy: Path, tests, timeout: float):
    """(pytest's exit code or None on timeout, the ids reported failed or in error)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a mutated module is never read from a stale .pyc
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, set()
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    return done.returncode, failed


def caught(test: str, failed: set) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / "tests" / COPY_CHECK).write_text(COPY_CHECK_SOURCE)
        bad = False
        for m in MUTANTS:
            found = (copy / "src" / "covert_setcover" / f"{m.module}.py").read_text().count(m.text)
            if found != 1:
                print(f"{m.name}: its text occurs {found} times in {m.module}, not once")
                bad = True
        if bad:
            return 1
        listed = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = run_tests(copy, [f"tests/{COPY_CHECK}", *listed], TIMEOUT_S * 2)
        if code != 0:
            print(f"the unmutated copy fails (exit {code}): {sorted(failed)}")
            return 1
        survivors = []
        for m in MUTANTS:
            path = copy / "src" / "covert_setcover" / f"{m.module}.py"
            original = path.read_text()
            path.write_text(original.replace(m.text, m.replacement))
            start = time.perf_counter()
            try:
                code, failed = run_tests(copy, m.tests, TIMEOUT_S)
            finally:
                path.write_text(original)
            passed = [] if code is None else [t for t in m.tests if not caught(t, failed)]
            outcome = "timed out" if code is None else "survived" if passed else "killed"
            print(f"{outcome:9} {m.name} ({time.perf_counter() - start:.1f} s)")
            for test in passed:
                print(f"          still passes: {test}")
            if passed:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
