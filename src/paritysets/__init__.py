"""Set-based parity game solving.

Progress measures driven entirely by vertex-set operations, with a
linear-space encoding of the rank family, the classic recursive solver,
and a dominion-accelerated big-step variant, all over one counted
set-operation interface (bit masks or BDDs).
"""

from __future__ import annotations

from .game import (
    DanglingEdge,
    GameError,
    NotClosed,
    ParityGame,
    Player,
    PriorityOutOfRange,
    VertexWithoutSuccessor,
    build_game,
    normalize_priorities,
    subgame,
    swap_roles_increment,
)
from .sets import OpCounters, SetSpace, UniverseMismatch, VertexSet
from .ranks import TOP, RankDomain
from .explicit import (
    ExplicitResult,
    best_rank,
    enumerate_dominions_bruteforce,
    is_dominion,
    lift_rank,
    solve_explicit_pm,
)
from .measure import (
    DirectFamilyState,
    DominionRun,
    InvariantViolation,
    LinearSpaceState,
    PreconditionViolated,
    dominion,
    solve_pm_symbolic,
    symbolic_parity_dominion,
)
from .zielonka import (
    AttractorResult,
    RecursionDepthExceeded,
    attractor,
    classic_parity,
    is_trap,
)
from .bigstep import (
    Fixed,
    GammaPolicy,
    SqrtPolicy,
    beta,
    choose_h,
    gamma,
    symbolic_big_step,
)
from .strategy import (
    IncompleteStrategy,
    Strategy,
    StrategyLeavesW,
    extract_attractor_strategies,
    extract_strategy_from_pm,
    verify_strategy,
)
from .pgsolver import ParseError, emit_pgsolver, emit_solution, parse_pgsolver, parse_solution
from .generate import gen_random
from .report import SolveReport

__version__ = "0.1.0"

__all__ = [
    "AttractorResult",
    "DanglingEdge",
    "DirectFamilyState",
    "DominionRun",
    "ExplicitResult",
    "Fixed",
    "GameError",
    "GammaPolicy",
    "IncompleteStrategy",
    "InvariantViolation",
    "LinearSpaceState",
    "NotClosed",
    "OpCounters",
    "ParityGame",
    "ParseError",
    "Player",
    "PreconditionViolated",
    "PriorityOutOfRange",
    "RankDomain",
    "RecursionDepthExceeded",
    "SetSpace",
    "SolveReport",
    "SqrtPolicy",
    "Strategy",
    "StrategyLeavesW",
    "TOP",
    "UniverseMismatch",
    "VertexSet",
    "VertexWithoutSuccessor",
    "attractor",
    "best_rank",
    "beta",
    "build_game",
    "choose_h",
    "classic_parity",
    "dominion",
    "emit_pgsolver",
    "emit_solution",
    "enumerate_dominions_bruteforce",
    "extract_attractor_strategies",
    "extract_strategy_from_pm",
    "gamma",
    "gen_random",
    "is_dominion",
    "is_trap",
    "lift_rank",
    "normalize_priorities",
    "parse_pgsolver",
    "parse_solution",
    "solve_explicit_pm",
    "solve_pm_symbolic",
    "subgame",
    "swap_roles_increment",
    "symbolic_big_step",
    "symbolic_parity_dominion",
    "verify_strategy",
]
