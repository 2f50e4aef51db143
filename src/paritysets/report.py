"""Solver run summary shared by all algorithms and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolveReport:
    winning_even: object
    winning_odd: object
    counters: object
    algorithm: str
    wall_time: float
    game: object
    strategy_even: object = None
    strategy_odd: object = None
    diagnostics: dict = field(default_factory=dict)
