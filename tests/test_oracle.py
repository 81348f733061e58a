import io
import json
import random

import pytest

from covert_setcover.oracle import CovertOracle, QueryLedger
from covert_setcover.pseudo_greedy import run_pseudo_greedy
from covert_setcover.setsystem import build_set_system

from strategies import random_system


@pytest.fixture
def small_oracle():
    return CovertOracle(build_set_system([[1, 2], [2, 3]], 3))


class TestAnswers:
    def test_hitting_query(self, small_oracle):
        assert small_oracle.hitting_query(2) == (1, 2)
        assert small_oracle.ledger.hitting_queries == 1

    def test_hitting_single(self, small_oracle):
        assert small_oracle.hitting_query(1) == (1,)
        assert small_oracle.ledger.hitting_queries == 1

    def test_element_in_no_set_is_legal(self):
        oracle = CovertOracle(build_set_system([[2]], 2))
        assert oracle.hitting_query(1) == ()

    def test_set_query(self, small_oracle):
        assert small_oracle.set_query(1) == (1, 2)

    def test_repeat_charges_again(self, small_oracle):
        first = small_oracle.set_query(2)
        second = small_oracle.set_query(2)
        assert first == second == (2, 3)
        assert small_oracle.ledger.set_queries == 2

    def test_empty_hidden_set(self):
        oracle = CovertOracle(build_set_system([[1], []], 1))
        assert oracle.set_query(2) == ()

    def test_out_of_range(self, small_oracle):
        with pytest.raises(ValueError):
            small_oracle.hitting_query(4)
        with pytest.raises(ValueError):
            small_oracle.set_query(0)

    def test_free_knowledge(self, small_oracle):
        assert small_oracle.n_elements == 3
        assert small_oracle.n_sets == 2
        assert small_oracle.ledger.total == 0

    def test_duality_sweep(self):
        rng = random.Random(17)
        for _ in range(15):
            system, _ = random_system(rng, max_n=10, max_m=8, coverable=False)
            oracle = CovertOracle(system)
            for e in range(1, system.universe_size + 1):
                containing = oracle.hitting_query(e)
                for s in range(1, system.n_sets + 1):
                    assert (s in containing) == (e in oracle.set_query(s))


class TestLedger:
    def test_fresh_counts_zero(self, small_oracle):
        snap = small_oracle.ledger_snapshot()
        assert snap.total == 0
        assert (snap.hitting_queries, snap.set_queries, snap.layered_queries) == (0, 0, 0)

    def test_total_identity(self, small_oracle):
        small_oracle.hitting_query(1)
        small_oracle.set_query(1)
        assert small_oracle.ledger.total == 2

    def test_metering_exactness(self):
        system, _ = random_system(random.Random(2))
        oracle = CovertOracle(system)
        rng = random.Random(9)
        calls = 0
        for _ in range(50):
            if rng.random() < 0.5:
                oracle.hitting_query(rng.randint(1, system.universe_size))
            else:
                oracle.set_query(rng.randint(1, system.n_sets))
            calls += 1
        assert oracle.ledger.total == calls

    def test_snapshot_is_detached(self, small_oracle):
        snap = small_oracle.ledger_snapshot()
        small_oracle.hitting_query(1)
        assert snap.total == 0
        assert small_oracle.ledger.total == 1

    def test_phases_sum_to_total(self, small_oracle):
        small_oracle.hitting_query(1)
        small_oracle.mark_phase("round-3")
        small_oracle.hitting_query(2)
        small_oracle.set_query(1)
        ledger = small_oracle.ledger
        by_phase = sum(sum(counts.values()) for counts in ledger.phase_counts.values())
        assert by_phase == ledger.total == 3
        assert ledger.phase_counts["round-3"] == {"hitting": 1, "set": 1, "layered": 0}

    def test_delta_since(self, small_oracle):
        before = small_oracle.ledger_snapshot()
        small_oracle.hitting_query(1)
        small_oracle.set_query(1)
        assert small_oracle.ledger.delta_since(before) == {
            "hitting": 1,
            "set": 1,
            "layered": 0,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            QueryLedger().record("bogus", "init")


class TestQueryLog:
    def test_log_lines(self):
        stream = io.StringIO()
        oracle = CovertOracle(build_set_system([[1, 2], [2, 3]], 3), log_stream=stream)
        oracle.mark_phase("probe")
        oracle.hitting_query(2)
        oracle.set_query(1)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines == [
            {"kind": "hit", "arg": 2, "answer": [1, 2], "phase": "probe"},
            {"kind": "set", "arg": 1, "answer": [1, 2], "phase": "probe"},
        ]

    def test_covert_run_uses_only_logged_answers(self):
        # Every set the algorithm picks must have shown up in a hitting
        # answer: the run cannot know indices it was never told about.
        rng = random.Random(77)
        for _ in range(10):
            system, _ = random_system(rng, max_n=14, max_m=10)
            stream = io.StringIO()
            oracle = CovertOracle(system, log_stream=stream)
            result = run_pseudo_greedy(oracle, alpha=8.0, rng_seed=rng.randint(0, 999))
            seen_in_hits = set()
            for line in stream.getvalue().splitlines():
                entry = json.loads(line)
                if entry["kind"] == "hit":
                    seen_in_hits.update(entry["answer"])
            assert set(result.cover.set_indices) <= seen_in_hits
