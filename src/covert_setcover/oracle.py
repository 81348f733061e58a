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

from .setsystem import SetSystem

KINDS = ("hitting", "set", "layered")


@dataclass
class QueryLedger:
    """Monotone query counts keyed by kind (``KINDS``) plus a per-phase breakdown."""

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    phase_counts: dict[str, dict[str, int]] = field(default_factory=dict)

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

    def record(self, kind: str, phase: str) -> None:
        if kind not in self.counts:
            raise ValueError(f"unknown query kind {kind!r}")
        self.counts[kind] += 1
        per_phase = self.phase_counts.get(phase)
        if per_phase is None:
            per_phase = self.phase_counts[phase] = dict.fromkeys(KINDS, 0)
        per_phase[kind] += 1

    def snapshot(self) -> "QueryLedger":
        """Value copy, detached from future updates."""
        return QueryLedger(
            counts=dict(self.counts),
            phase_counts={k: dict(v) for k, v in self.phase_counts.items()},
        )

    def delta_since(self, earlier: "QueryLedger") -> dict[str, int]:
        return {kind: self.counts[kind] - earlier.counts[kind] for kind in KINDS}

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
    A hidden instance that is not a ``hidden_type`` raises ``ValueError``.
    """

    hidden_type: type = object

    def __init__(self, hidden, log_stream: IO[str] | None = None):
        if not isinstance(hidden, self.hidden_type):
            raise ValueError(f"{type(self).__name__} cannot hide a {type(hidden).__name__}")
        self._hidden = hidden
        self.ledger = QueryLedger()
        self._phase = "init"
        self._log = log_stream

    def mark_phase(self, label: str) -> None:
        """Attribute subsequent query counts to ``label``."""
        self._phase = label

    def ledger_snapshot(self) -> QueryLedger:
        return self.ledger.snapshot()

    def _charge(self, kind: str, log_kind: str, arg: int, answer: Sequence[int]) -> None:
        """Count one query of ``kind`` and log it as ``log_kind``."""
        self.ledger.record(kind, self._phase)
        if self._log is not None:
            self._log.write(
                json.dumps(
                    {"kind": log_kind, "arg": arg, "answer": list(answer), "phase": self._phase}
                )
                + "\n"
            )


class CovertOracle(MeteredOracle):
    """Answers hitting-set and set-content queries about a hidden set system.

    Algorithms should treat the hidden system as unreachable except through
    :meth:`hitting_query` and :meth:`set_query`; tests audit that covert
    runs only ever use set indices that appeared in some logged answer.
    Queries are logged with kind "hit" or "set". An answer is the hidden
    system's stored increasing tuple itself, returned with no sort or copy.
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
        if type(e) is not int:
            # True == 1 and 2.0 == 2 pass the range check, so test the type first.
            raise ValueError(f"element {e!r} is not an integer")
        if not 1 <= e <= self._hidden.universe_size:
            raise ValueError(
                f"element {e} outside [1, {self._hidden.universe_size}]"
            )
        answer = self._hidden.element_to_sets[e - 1]
        self._charge("hitting", "hit", e, answer)
        return answer

    def set_query(self, s: int) -> tuple[int, ...]:
        """All elements of set ``s``. Charges one set query."""
        if type(s) is not int:
            raise ValueError(f"set index {s!r} is not an integer")
        if not 1 <= s <= self._hidden.n_sets:
            raise ValueError(f"set index {s} outside [1, {self._hidden.n_sets}]")
        answer = self._hidden.sets[s - 1]
        self._charge("set", "set", s, answer)
        return answer
