"""Result and trace records shared by the covert cover algorithms."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .oracle import QueryLedger
from .setsystem import Cover


@dataclass(frozen=True)
class RoundState:
    """One sampling round of the covert greedy simulation.

    ``s_i`` is the scale min(n'/2^i, n_i); ``sample`` the drawn uncovered
    elements; ``shortlist`` and ``chosen`` are in canonical index order, and
    each set in ``chosen`` was accepted (one set query) after the round's
    probes. A base-case round records an empty sample/shortlist and the
    final picks, which are not accepted. Its s_i may exceed alpha*log2(N)
    when it sampled the whole residue and shortlisted nothing (see
    :func:`.pseudo_greedy.sampled_greedy`).
    """

    i: int
    n_i: int
    s_i: float
    sample: tuple[int, ...]
    shortlist: tuple[int, ...]
    chosen: tuple[int, ...]
    ledger_delta: dict[str, int]
    base_case: bool = False

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "n_i": self.n_i,
            "s_i": self.s_i,
            "sample_size": len(self.sample),
            "shortlist": list(self.shortlist),
            "chosen": list(self.chosen),
            "ledger_delta": dict(self.ledger_delta),
            "base_case": self.base_case,
        }


@dataclass(frozen=True)
class GuessTrace:
    """One doubling guess of the reweighting baseline."""

    k: int
    net_size: int
    iterations: int
    iteration_cap: int
    succeeded: bool
    ledger_delta: dict[str, int]

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class CoverResult:
    """Outcome of a covert cover run: the cover, its trace, and the bill.

    Validity is not self-verified during the run (Monte Carlo); the harness
    checks the cover against the hidden instance after the fact. ``failed``
    is set only when the run itself detected an uncoverable instance, with
    ``uncovered_element`` as the witness.
    """

    cover: Cover
    rounds: list = field(default_factory=list)
    ledger: QueryLedger = field(default_factory=QueryLedger)
    failed: bool = False
    uncovered_element: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "cover": list(self.cover.set_indices),
            "cover_size": len(self.cover),
            "rounds": [r.to_json_dict() for r in self.rounds],
            "ledger": self.ledger.to_json_dict(),
            "failed": self.failed,
            "uncovered_element": self.uncovered_element,
        }
