"""Covert set cover behind query oracles, plus layered-graph network discovery."""

from .discovery import (
    DiscoveryResult,
    LayeredGraphOracle,
    competitive_ratio,
    hitting_set_H,
    offline_verification,
    run_network_discovery,
)
from .epsnet import run_weighted_epsilon_net
from .errors import (
    BruteForceCapExceededError,
    CovertSetCoverError,
    InvalidCoverError,
    UncoverableInstanceError,
)
from .graphs import Graph, LayeredAnswer, certified_pairs, layered_answer
from .oracle import CovertOracle, QueryLedger
from .pseudo_greedy import run_pseudo_greedy
from .results import CoverResult, RoundState
from .setsystem import (
    Cover,
    SetSystem,
    brute_force_min_cover,
    build_set_system,
    greedy_cover,
    verify_cover,
)

__all__ = [
    "BruteForceCapExceededError",
    "Cover",
    "CoverResult",
    "CovertOracle",
    "CovertSetCoverError",
    "DiscoveryResult",
    "Graph",
    "InvalidCoverError",
    "LayeredAnswer",
    "LayeredGraphOracle",
    "QueryLedger",
    "RoundState",
    "SetSystem",
    "UncoverableInstanceError",
    "brute_force_min_cover",
    "build_set_system",
    "certified_pairs",
    "competitive_ratio",
    "greedy_cover",
    "hitting_set_H",
    "layered_answer",
    "offline_verification",
    "run_network_discovery",
    "run_pseudo_greedy",
    "run_weighted_epsilon_net",
    "verify_cover",
]
