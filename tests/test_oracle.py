import hashlib
import io
import json
import random
from collections import Counter

import pytest

from covert_setcover.discovery import LayeredGraphOracle, run_network_discovery
from covert_setcover.epsnet import run_weighted_epsilon_net
from covert_setcover.generators import gen_graph, gen_set_system
from covert_setcover.graphs import layered_answer
from covert_setcover.oracle import KINDS, CovertOracle, QueryLedger
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

    @pytest.mark.parametrize("query", ["hitting_query", "set_query"])
    @pytest.mark.parametrize("arg", [True, 1.0, 2.0, "1", None])
    def test_non_integer_rejected_uncharged_and_unlogged(self, query, arg):
        # True and 2.0 compare equal to in-range integers; neither may be answered.
        stream = io.StringIO()
        oracle = CovertOracle(build_set_system([[1, 2], [2, 3]], 3), log_stream=stream)
        with pytest.raises(ValueError, match="not an integer"):
            getattr(oracle, query)(arg)
        assert oracle.ledger.total == 0
        assert stream.getvalue() == ""

    # One index rule for every query and for layered_answer: an int in [1, n],
    # with one message whichever way the argument fails. Vertices 1 and 2 are
    # answered before the oracle exists, so True and 2.0 would find a warm
    # table entry if the check came after the lookup.
    @pytest.mark.parametrize("name, what, n", [
        ("hitting_query", "element", 3), ("set_query", "set index", 2),
        ("layered_query", "vertex", 4), ("layered_answer", "vertex", 4),
    ])
    @pytest.mark.parametrize("arg", [0, "n + 1", True, 2.0, "1", None],
                             ids=["zero", "past-n", "bool", "float", "str", "none"])
    def test_index_rule_is_one_message_and_charges_nothing(self, name, what, n, arg):
        value = n + 1 if arg == "n + 1" else arg
        graph, logs = gen_graph("path", n=4), (io.StringIO(), io.StringIO())
        for v in (1, 2):
            layered_answer(graph, v)
        covert = CovertOracle(build_set_system([[1, 2], [2, 3]], 3), log_stream=logs[0])
        layered = LayeredGraphOracle(graph, log_stream=logs[1])
        query = {"hitting_query": covert.hitting_query, "set_query": covert.set_query,
                 "layered_query": layered.layered_query,
                 "layered_answer": lambda v: layered_answer(graph, v)}[name]
        with pytest.raises(ValueError) as info:
            query(value)
        assert str(info.value) == f"{what} {value!r} outside [1, {n}] or is not an integer"
        assert covert.ledger == layered.ledger == QueryLedger()
        assert [log.getvalue() for log in logs] == ["", ""]

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


class TestStoredAnswers:
    """An answer is the hidden system's stored tuple: no sort and no copy."""

    def test_answers_are_the_stored_tuples(self):
        system, _ = random_system(random.Random(5))
        oracle = CovertOracle(system)
        for e in range(1, system.universe_size + 1):
            assert oracle.hitting_query(e) is system.element_to_sets[e - 1]
        for s in range(1, system.n_sets + 1):
            assert oracle.set_query(s) is system.sets[s - 1]

    def test_planted_512_query_log(self):
        # Pins every answer, in order, of a pseudo-greedy and an epsnet run.
        system, _ = gen_set_system("planted-cover", n=512, m=512, seed=1, k=4)
        stream = io.StringIO()
        run_pseudo_greedy(CovertOracle(system, log_stream=stream), alpha=8.0, rng_seed=1)
        run_weighted_epsilon_net(CovertOracle(system, log_stream=stream), alpha_net=2.0, rng_seed=1)
        digest = hashlib.sha256(stream.getvalue().encode()).hexdigest()
        assert digest == "e8ba2ceb0e33a7f96841f1bbb11464f4f26458fc11088d7816192af24494a30e"


class TestSetBits:
    """``set_bits`` is a set query answered by the hidden system's packing of the set."""

    def test_charges_and_logs_one_set_query(self):
        system = build_set_system([[1, 2], [2, 3]], 3)
        logs = io.StringIO(), io.StringIO()
        by_tuple, by_bits = (CovertOracle(system, log_stream=log) for log in logs)
        for oracle in (by_tuple, by_bits):
            oracle.mark_phase("probe")
        assert by_tuple.set_query(2) == (2, 3)
        assert by_bits.set_bits(2) == 0b1100
        assert by_bits.ledger == by_tuple.ledger
        assert by_bits.ledger.counts == {"hitting": 0, "set": 1, "layered": 0}
        assert logs[1].getvalue() == logs[0].getvalue() != ""

    @pytest.mark.parametrize("arg", [0, 3, True, 2.0, "1", None])
    def test_bad_index_is_refused_before_any_charge_or_packing(self, arg):
        system = build_set_system([[1, 2], [2, 3]], 3)
        stream = io.StringIO()
        oracle = CovertOracle(system, log_stream=stream)
        with pytest.raises(ValueError) as info:
            oracle.set_bits(arg)
        assert str(info.value) == f"set index {arg!r} outside [1, 2] or is not an integer"
        assert oracle.ledger == QueryLedger()
        assert stream.getvalue() == ""
        assert system._bits == {}

    def test_oracles_over_one_system_share_each_packed_set(self):
        # Past bit 256 every packed set is a fresh int object unless it is shared.
        system, _ = gen_set_system("planted-cover", n=512, m=64, seed=1, k=4)
        first, second = CovertOracle(system), CovertOracle(system)
        for s in range(1, system.n_sets + 1):
            assert first.set_bits(s) is second.set_bits(s) is system.bits(s)


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
        # Phases keep first-query order; each phase's kinds keep KINDS order.
        assert list(ledger.phase_counts) == ["init", "round-3"]
        assert [list(counts) for counts in ledger.phase_counts.values()] == [list(KINDS)] * 2

    def test_phase_is_a_detached_copy(self, small_oracle):
        ledger = small_oracle.ledger
        small_oracle.mark_phase("round-0")
        assert ledger.phase("round-0") == {"hitting": 0, "set": 0, "layered": 0}
        assert ledger.phase_counts == {}  # reading a phase that charged nothing adds none
        small_oracle.hitting_query(1)
        small_oracle.set_query(1)
        bill = ledger.phase("round-0")
        assert bill == {"hitting": 1, "set": 1, "layered": 0}
        assert list(bill) == list(KINDS)
        small_oracle.hitting_query(2)
        assert bill == {"hitting": 1, "set": 1, "layered": 0}
        assert ledger.phase("round-0") == {"hitting": 2, "set": 1, "layered": 0}

    def test_unknown_kind_rejected(self):
        ledger = QueryLedger()
        with pytest.raises(ValueError):
            ledger.record("bogus", "init")
        assert ledger.phase_counts == {}

    def test_record_returns_the_live_phase_counts(self):
        ledger = QueryLedger()
        live = ledger.record("set", "round-0")
        assert live is ledger.phase_counts["round-0"]
        assert live == {"hitting": 0, "set": 1, "layered": 0}

    def test_a_marked_phase_enters_only_at_its_first_charge(self, small_oracle):
        ledger = small_oracle.ledger
        small_oracle.hitting_query(1)
        init = {"init": {"hitting": 1, "set": 0, "layered": 0}}
        small_oracle.mark_phase("round-0")
        with pytest.raises(ValueError):
            small_oracle.hitting_query(4)
        small_oracle.mark_phase("round-1")
        assert ledger.phase_counts == init
        small_oracle.set_query(1)
        with pytest.raises(ValueError):
            small_oracle.set_query(3)
        assert ledger.phase_counts == {**init, "round-1": {"hitting": 0, "set": 1, "layered": 0}}

    def test_returning_to_a_label_counts_into_its_entry(self, small_oracle):
        for label, query in [("a", "hitting_query"), ("b", "set_query"), ("a", "hitting_query"),
                             ("a", "set_query"), ("b", "hitting_query")]:
            small_oracle.mark_phase(label)
            getattr(small_oracle, query)(1)
        assert small_oracle.ledger.phase_counts == {
            "a": {"hitting": 2, "set": 1, "layered": 0},
            "b": {"hitting": 1, "set": 1, "layered": 0},
        }

    @pytest.mark.parametrize("charged_before", [0, 1], ids=["phase-start", "mid-phase"])
    def test_unknown_kind_charged_raises_and_changes_nothing(self, charged_before):
        stream = io.StringIO()
        oracle = CovertOracle(build_set_system([[1, 2], [2, 3]], 3), log_stream=stream)
        for _ in range(charged_before):
            oracle.hitting_query(1)
        before, log = oracle.ledger_snapshot(), stream.getvalue()
        with pytest.raises(ValueError, match="unknown query kind 'bogus'"):
            oracle._charge("bogus", 1, ())
        assert oracle.ledger == before
        assert stream.getvalue() == log


class TestQueryLog:
    def test_log_lines(self):
        stream = io.StringIO()
        oracle = CovertOracle(build_set_system([[1, 2], [2, 3]], 3), log_stream=stream)
        oracle.mark_phase("probe")
        oracle.hitting_query(2)
        oracle.set_query(1)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines == [
            {"kind": "hitting", "arg": 2, "answer": [1, 2], "phase": "probe"},
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
                if entry["kind"] == "hitting":
                    seen_in_hits.update(entry["answer"])
            assert set(result.cover.set_indices) <= seen_in_hits

    @pytest.mark.parametrize("algorithm", ["pseudo-greedy", "epsnet", "discover"])
    def test_log_kinds_are_the_ledger_kinds(self, algorithm):
        # The log names each query as the ledger counts it, one line per charged query.
        stream = io.StringIO()
        if algorithm == "discover":
            graph = gen_graph("er-connected", n=16, p=0.25, seed=1)
            oracle = LayeredGraphOracle(graph, log_stream=stream)
            ledger = run_network_discovery(oracle, alpha=2.0, rng_seed=1).ledger
        else:
            system, _ = gen_set_system("planted-cover", n=128, m=32, seed=1, k=4)
            run = run_pseudo_greedy if algorithm == "pseudo-greedy" else run_weighted_epsilon_net
            ledger = run(CovertOracle(system, log_stream=stream), rng_seed=0).ledger
        kinds = Counter(json.loads(line)["kind"] for line in stream.getvalue().splitlines())
        assert set(kinds) <= set(KINDS)
        assert {kind: kinds[kind] for kind in KINDS} == ledger.counts
        assert ledger.total > 0
