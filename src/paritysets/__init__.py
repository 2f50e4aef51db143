"""Set-based parity game solving.

Progress measures driven entirely by vertex-set operations, with a
linear-space encoding of the rank family, the classic recursive solver,
and a dominion-accelerated big-step variant, all over one counted
set-operation interface (bit masks or BDDs).

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562), so a program, the
command line included, loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "game": ("DanglingEdge", "GameError", "NotClosed", "ParityGame", "Player",
             "PriorityOutOfRange", "VertexWithoutSuccessor", "build_game",
             "normalize_priorities", "subgame", "swap_roles_increment"),
    "sets": ("OpCounters", "SetSpace", "UniverseMismatch", "VertexSet"),
    "ranks": ("TOP", "RankDomain"),
    "explicit": ("ExplicitResult", "best_rank", "lift_rank", "solve_explicit_pm"),
    "measure": ("DirectFamilyState", "InvariantViolation", "LinearSpaceState",
                "PreconditionViolated", "dominion", "solve_pm_symbolic",
                "symbolic_parity_dominion"),
    "zielonka": ("AttractorResult", "RecursionDepthExceeded", "attractor", "classic_parity"),
    "bigstep": ("Fixed", "GammaPolicy", "SqrtPolicy", "beta", "choose_h", "gamma",
                "symbolic_big_step"),
    "strategy": ("IncompleteStrategy", "Strategy", "StrategyLeavesW",
                 "extract_attractor_strategies", "extract_strategy_from_pm",
                 "verify_strategy"),
    "pgsolver": ("ParseError", "emit_pgsolver", "emit_solution", "parse_pgsolver",
                 "parse_solution"),
    "generate": ("gen_random",),
    "report": ("SolveReport",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("." + module, __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
