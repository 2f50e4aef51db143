"""Solver run summary shared by all algorithms and the CLI."""

from __future__ import annotations


class SolveReport:
    def __init__(self, winning_even, winning_odd, counters, algorithm: str,
                 wall_time: float, game, strategy_even=None, strategy_odd=None,
                 diagnostics: dict | None = None):
        self.winning_even = winning_even
        self.winning_odd = winning_odd
        self.counters = counters
        self.algorithm = algorithm
        self.wall_time = wall_time
        self.game = game
        self.strategy_even = strategy_even
        self.strategy_odd = strategy_odd
        self.diagnostics = {} if diagnostics is None else diagnostics
