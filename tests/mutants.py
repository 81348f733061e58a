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
SS = "tests/test_setsystem.py::"
EN = "tests/test_epsnet.py::"


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
        "filter-stops-at-the-threshold", "pseudo_greedy",
        "        if len(sample) < threshold:\n",
        "        if len(sample) <= threshold:\n",
        (PG + "TestSequentialFilter::test_disjoint_sets_both_accepted",
         PG + "TestSequentialFilter::test_contained_set_discarded",
         PG + "TestFilterMatchesEagerReference::test_covert_oracle_answers",
         PG + "TestFilterMatchesEagerReference::test_discovery_hitting_sets"),
    ),
    Mutant(
        "filter-keeps-claimed-answers", "pseudo_greedy",
        "        answers = list(compress(answers, unheld))\n",
        "",
        (PG + "TestSequentialFilter::test_disjoint_sets_both_accepted",
         PG + "TestSequentialFilter::test_contained_set_discarded",
         PG + "TestSequentialFilter::test_exact_residual_counting_with_full_sample",
         PG + "TestSequentialFilter::test_accept_returning_none",
         PG + "TestFilterMatchesEagerReference::test_covert_oracle_answers",
         PG + "TestFilterMatchesEagerReference::test_discovery_hitting_sets",
         "tests/test_golden_trace.py::test_discovery_er_60_benchmark_instance",
         "tests/test_golden_trace.py::test_discovery_er_grid"),
    ),
    Mutant(
        "held-counts-the-next-set-too", "pseudo_greedy",
        "map(bisect_right, answers, repeat(s))",
        "map(bisect_right, answers, repeat(s + 1))",
        (PG + "TestSequentialFilter::test_disjoint_sets_both_accepted",
         PG + "TestSequentialFilter::test_contained_set_discarded",
         PG + "TestSequentialFilter::test_exact_residual_counting_with_full_sample",
         PG + "TestSequentialFilter::test_accept_returning_none",
         PG + "TestFilterMatchesEagerReference::test_covert_oracle_answers",
         PG + "TestFilterMatchesEagerReference::test_discovery_hitting_sets",
         PG + "TestRun::test_full_information_rounds_match_reference",
         "tests/test_acceptance.py::test_criterion_5_full_sample_degeneracy",
         "tests/test_golden_trace.py::test_discovery_er_60_benchmark_instance",
         "tests/test_golden_trace.py::test_discovery_er_grid",
         "tests/test_golden_trace.py::test_discovery_statuses_order_er_100"),
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
        "    picks: list[int] = []\n    while answers:\n",
        "    picks: list[int] = []\n    counts = Counter(chain.from_iterable(answers))\n"
        "    while answers:\n",
        (PG + "TestBaseCaseEntries::test_each_entry_hands_its_round_tally_over",),
    ),
    Mutant(
        "lazy-pick-without-its-exact-count", "pseudo_greedy",
        "        if sum(held) < top:\n",
        "        if False:\n",
        (PG + "TestLazyBaseCase::test_matches_the_whole_rebuild",
         PG + "TestLazyBaseCase::test_a_stale_tally_rebuilds_only_the_uncovered_answers"),
    ),
    Mutant(
        "full-sample-end-ignores-a-shrunk-residue", "pseudo_greedy",
        "len(sample) == n_i == len(uncovered)",
        "len(sample) == n_i",
        (PG + "TestEarlyFinish::test_a_residue_shrunk_by_a_probe_does_not_end_the_run",
         "tests/test_golden_trace.py::test_discovery_er_grid"),
    ),
    Mutant(
        "base-case-never-lazy", "pseudo_greedy",
        "        if sum(held) < top:\n",
        "        if True:\n",
        (PG + "TestLazyBaseCase::test_a_residue_that_never_goes_stale_builds_nothing",),
    ),
    Mutant(
        "discovery-buys-every-ask", "discovery",
        "        answer = known.get(v)\n",
        "        answer = None\n",
        ("tests/test_discovery.py::TestDiscovery::test_answer_table_changes_only_the_bill",),
    ),
    Mutant(
        "discovery-residue-never-shrinks", "discovery",
        "            unresolved[:] = filterfalse(certified.__contains__, unresolved)\n",
        "",
        ("tests/test_discovery.py::TestDiscovery"
         "::test_learned_vertex_reads_only_unresolved_pairs",),
    ),
    Mutant(
        "discovery-drops-non-edges", "discovery",
        "            statuses.update(certified)\n",
        "            statuses.update((p, e) for p, e in certified.items() if e)\n",
        ("tests/test_harness.py::TestRunExperiment"
         "::test_discover_trial_is_valid_only_with_every_pair_resolved",),
    ),
    Mutant(
        "verification-pair-cap-after-the-bfs", "discovery",
        '    require_size(f"the number of vertex pairs of {n} vertices", n * (n - 1) // 2)\n',
        "",
        ("tests/test_discovery.py::TestOfflineVerification"
         "::test_too_many_pairs_are_refused_before_any_bfs",),
    ),
    Mutant(
        "differing-drops-the-high-planes", "graphs",
        "        if high != other_high:\n            flags |= high ^ other_high\n",
        "",
        ("tests/test_discovery.py::TestHittingSet::test_matches_the_distance_rule",
         "tests/test_graphs.py::TestDiffering::test_matches_the_level_rule"),
    ),
    Mutant(
        "planes-read-the-low-bytes-twice", "graphs",
        "int.from_bytes(data[1::2], \"big\")",
        "int.from_bytes(data[::2], \"big\")",
        ("tests/test_discovery.py::TestHittingSet::test_matches_the_distance_rule",
         "tests/test_graphs.py::TestDiffering::test_matches_the_level_rule"),
    ),
    Mutant(
        "planes-let-bad-levels-through", "graphs",
        "        try:\n            levels = array(\"H\", self.dist)\n"
        "        except (TypeError, OverflowError):\n"
        "            raise ValueError(\"a layered answer's levels must be ints in [0, 65535]\")"
        " from None\n",
        "        levels = array(\"H\", self.dist)\n",
        ("tests/test_graphs.py::TestDiffering::test_levels_outside_the_range_are_refused",),
    ),
    Mutant(
        "weighted-net-rounds-draws-up", "epsnet",
        "keys = map(math.floor,",
        "keys = map(math.ceil,",
        ("tests/test_epsnet.py::TestNetSampling::test_matches_random_choices",),
    ),
    Mutant(
        "window-bisects-left", "epsnet",  # bisect_left, for a row of ints
        "bisect_right(row, hi, start)",
        "bisect_right(row, hi - 1, start)",
        (EN + "TestFindUncovered::test_gap_at_window_edges",
         EN + "TestFindUncovered::test_matches_union_and_scan"),
    ),
    Mutant(
        "window-end-uncapped", "epsnet",
        "lo, hi = hi, min(4 * hi, universe_size)",
        "lo, hi = hi, 4 * hi",
        (EN + "TestFindUncovered::test_gap_at_window_edges",
         EN + "TestFindUncovered::test_matches_union_and_scan"),
    ),
    Mutant(
        "first-window-wide", "epsnet",
        "_FIRST_WINDOW = 64\n",
        "_FIRST_WINDOW = 1024\n",
        (EN + "TestFindUncovered::test_reads_stop_at_the_gap_window",),
    ),
    Mutant(
        "reweight-never-doubles", "epsnet",
        "weights[s - 1] *= 2",
        "weights[s - 1] += 0",
        (EN + "TestWeights::test_doubling", EN + "TestWeights::test_reweight_on_miss"),
    ),
    Mutant(
        "greedy-skips-its-decrements", "setsystem",
        "            for e in new:\n"
        "                for t in containing[e - 1]:\n"
        "                    counts[t] -= 1\n",
        "",
        (SS + "TestGreedy::test_matches_naive_recount",
         SS + "TestGreedy::test_harmonic_bound_property",
         "tests/test_golden_trace.py::test_greedy_cover_sparse_1024_picks"),
    ),
    Mutant(
        "greedy-ignores-theta", "setsystem",
        "bar = ceil(theta * n_max)",
        "bar = n_max",
        (SS + "TestGreedy::test_matches_naive_recount",
         "tests/test_golden_trace.py::test_greedy_cover_sparse_1024_picks"),
    ),
    Mutant(
        "build-keeps-unsorted-rows", "setsystem",
        "tuple(sorted(set(row)))",
        "tuple(set(row))",
        (SS + "TestBuild::test_sets_stored_sorted_without_duplicates",
         SS + "TestBuild::test_matches_naive_build"),
    ),
    Mutant(
        "build-skips-the-type-pass", "setsystem",
        "if _INT_ONLY.issuperset(map(type, row)):",
        "if True:",
        (SS + "TestBuild::test_bad_elements_match_naive_build",
         SS + "TestBuild::test_bad_element_outcome_matches_naive_build"),
    ),
    Mutant(
        "greedy-repeats-a-pick-that-covers-nothing", "setsystem",
        "            if not new:\n"
        "                raise ValueError(\"element_to_sets is not the inverse of sets\")\n",
        "",
        ("tests/test_setsystem.py::TestGreedy::test_wrong_inverse_index_raises_instead_of_looping",),
    ),
    Mutant(
        "build-admits-any-number-of-sets", "setsystem",
        '    require_size("the number of sets", n_rows)\n',
        "",
        (SS + "TestBuild::test_too_many_sets_are_refused",),
    ),
    Mutant(
        "shortlist-skips-at-the-sample-size", "pseudo_greedy",
        "    if threshold > len(sample):\n",
        "    if threshold >= len(sample):\n",
        (PG + "TestShortlist::test_no_scan_past_the_sample_size",
         PG + "TestShortlist::test_matches_naive_tally"),
    ),
    Mutant(
        "marked-phase-keeps-the-old-counts", "oracle",
        "        self._phase = label\n        self._counts = {}\n",
        "        self._phase = label\n",
        ("tests/test_oracle.py::TestLedger::test_phases_sum_to_total",
         "tests/test_oracle.py::TestLedger::test_returning_to_a_label_counts_into_its_entry",
         "tests/test_oracle.py::TestLedger::test_a_marked_phase_enters_only_at_its_first_charge"),
    ),
    Mutant(
        "phase-bill-aliases-the-ledger", "oracle",
        "return dict(self.phase_counts.get(label) or dict.fromkeys(KINDS, 0))",
        "return self.phase_counts.get(label) or dict.fromkeys(KINDS, 0)",
        ("tests/test_oracle.py::TestLedger::test_phase_is_a_detached_copy",),
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
