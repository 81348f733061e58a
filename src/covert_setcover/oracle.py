"""Query-metered access to a hidden instance.

The oracle is the only path by which a covert algorithm may learn the
instance: its size is free knowledge, everything else costs exactly one
ledger increment per call. Repeated identical queries are charged again;
callers that want caching must build their own. :class:`MeteredOracle` holds
the metering; :class:`CovertOracle` answers set-system queries and
``discovery.LayeredGraphOracle`` answers layered graph queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Sequence

from .errors import require_index, require_instance
from .setsystem import SetSystem

KINDS = ("hitting", "set", "layered")


@dataclass
class QueryLedger:
    """Query counts by phase, then by kind in ``KINDS`` order; every total is a sum.

    A phase enters ``phase_counts``, the one stored table, at its first charged query,
    through :meth:`record`; an oracle counts the rest of the phase into the dict it returns.
    """

    phase_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        return {kind: sum(p[kind] for p in self.phase_counts.values()) for kind in KINDS}

    @property
    def hitting_queries(self) -> int:
        return self.counts["hitting"]

    @property
    def set_queries(self) -> int:
        return self.counts["set"]

    @property
    def layered_queries(self) -> int:
        return self.counts["layered"]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def record(self, kind: str, phase: str) -> dict[str, int]:
        """Count one query of ``kind`` in ``phase``, entering the phase if it is new.

        Returns the phase's stored counts, not a copy. An unknown kind raises
        ``ValueError`` and changes nothing.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown query kind {kind!r}")
        per_phase = self.phase_counts.get(phase)
        if per_phase is None:
            per_phase = self.phase_counts[phase] = dict.fromkeys(KINDS, 0)
        per_phase[kind] += 1
        return per_phase

    def phase(self, label: str) -> dict[str, int]:
        """A copy of one phase's counts; every kind is 0 for a phase that charged nothing."""
        return dict(self.phase_counts.get(label) or dict.fromkeys(KINDS, 0))

    def snapshot(self) -> "QueryLedger":
        """Value copy, detached from future updates."""
        return QueryLedger({k: dict(v) for k, v in self.phase_counts.items()})

    def to_json_dict(self) -> dict:
        return {
            **{f"{kind}_queries": count for kind, count in self.counts.items()},
            "total": self.total,
            "phases": {k: dict(v) for k, v in sorted(self.phase_counts.items())},
        }


class MeteredOracle:
    """Ledger, phase label and query log shared by every query oracle.

    A subclass validates a query's argument and computes its answer first,
    then calls :meth:`_charge`, so a rejected query costs nothing and leaves
    no log line. ``log_stream``, when given, receives one JSON line per
    charged query: {"kind": ..., "arg": id, "answer": [...], "phase": label}.
    A run's bill is its oracle's whole ledger, so each run takes a fresh oracle.
    The current phase's ledger entry is cached from its first charged query,
    which enters it, until the next :meth:`mark_phase`, which drops it; a
    phase that charges nothing never enters the ledger. A hidden instance
    that is not a ``hidden_type`` raises ``ValueError``, as does a log stream
    with no ``write``.
    """

    hidden_type: type = object

    def __init__(self, hidden, log_stream: IO[str] | None = None):
        if not isinstance(hidden, self.hidden_type):
            raise ValueError(f"{type(self).__name__} cannot hide a {type(hidden).__name__}")
        if log_stream is not None and not callable(getattr(log_stream, "write", None)):
            raise ValueError(f"log_stream must have a write method, got {log_stream!r}")
        self._hidden = hidden
        self.ledger = QueryLedger()
        self._phase = "init"
        self._counts: dict[str, int] = {}  # the cached entry of _phase, empty until it charges
        self._log = log_stream

    def mark_phase(self, label: str) -> None:
        """Attribute subsequent query counts to ``label``, which must be a str.

        Any other label raises ``ValueError``: it would key the ledger's
        per-phase counts and be written to the log. The cached counts of the
        previous phase are dropped.
        """
        require_instance("phase label", label, str)
        self._phase = label
        self._counts = {}

    def ledger_snapshot(self) -> QueryLedger:
        return self.ledger.snapshot()

    def _charge(self, kind: str, arg: int, answer: Sequence[int]) -> None:
        """Count one query of ``kind`` and log it under the same kind.

        Every charged query passes through here: the first since :meth:`mark_phase`
        through :meth:`QueryLedger.record`, whose dict is cached, each later one as
        one increment of it. An unknown kind is never in the dict, so it reaches
        ``record`` and its ``ValueError``.
        """
        counts = self._counts
        if kind in counts:
            counts[kind] += 1
        else:
            self._counts = self.ledger.record(kind, self._phase)
        if self._log is not None:
            self._log.write(
                json.dumps({"kind": kind, "arg": arg, "answer": list(answer), "phase": self._phase})
                + "\n"
            )


class CovertOracle(MeteredOracle):
    """Answers hitting-set and set-content queries about a hidden set system.

    Algorithms should treat the hidden system as unreachable except through
    :meth:`hitting_query` and :meth:`set_query`; tests audit that covert
    runs only ever use set indices that appeared in some logged answer.
    Queries are logged with kind "hitting" or "set". An answer is the hidden
    system's stored increasing tuple itself, returned with no sort or copy;
    the round engine of :mod:`.pseudo_greedy` relies on that and checks none.
    """

    hidden_type = SetSystem

    @property
    def n_elements(self) -> int:
        """Universe size; free knowledge, not charged."""
        return self._hidden.universe_size

    @property
    def n_sets(self) -> int:
        """Family size; free knowledge, not charged."""
        return self._hidden.n_sets

    def hitting_query(self, e: int) -> tuple[int, ...]:
        """All set indices containing element ``e``. Charges one hitting query."""
        hidden = self._hidden
        if type(e) is not int or not 1 <= e <= hidden.universe_size:
            require_index("element", e, hidden.universe_size)
        answer = hidden.element_to_sets[e - 1]
        self._charge("hitting", e, answer)
        return answer

    def set_query(self, s: int) -> tuple[int, ...]:
        """All elements of set ``s``. Charges one set query."""
        sets = self._hidden.sets
        if type(s) is not int or not 1 <= s <= len(sets):
            require_index("set index", s, len(sets))
        answer = sets[s - 1]
        self._charge("set", s, answer)
        return answer
