"""PGSolver-style text formats for games and solutions.

Game files: an optional `parity <max id>;` header, then one line per vertex,
`<id> <priority> <owner> <succ>,<succ>,... ["name"];` with owner 0 for the
even player and 1 for the odd player. No id may exceed the header's maximum.
Vertices that occur only as successors, or only through the header's range,
are an error unless self-loop repair is requested, in which case they are
declared with a self loop (and declared-but-empty successor lists are
repaired the same way).

Solution files: `paritysol <max id>;` then `<id> <winner> [<choice>];` per
vertex, the choice column present where the winner's strategy is defined.
"""

from __future__ import annotations

import re

from .game import ParityGame, Player, build_game
from .report import SolveReport


class ParseError(Exception):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


_VERTEX = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])((?:\s+\d+(?:\s*,\s*\d+)*)?)\s*(?:\"([^\"]*)\")?\s*;$"
)
_HEADER = re.compile(r"^parity\s+(\d+)\s*;$")
_SOL_HEADER = re.compile(r"^paritysol\s+(\d+)\s*;$")
_SOL_LINE = re.compile(r"^(\d+)\s+([01])(?:\s+(\d+))?\s*;$")


def parse_pgsolver(text: str, add_self_loops: bool = False) -> ParityGame:
    rows: dict[int, tuple[int, int, list[int], str | None]] = {}
    max_id = -1
    header_max = header_line = None
    named: dict[int, int] = {}  # id -> first vertex line naming it
    lines = text.splitlines()
    start = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            start = lineno
            continue
        m = _HEADER.match(line)
        if m is None:
            break
        max_id = header_max = int(m.group(1))
        header_line = start = lineno
        break
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        m = _VERTEX.match(line)
        if m is None:
            raise ParseError(lineno, f"malformed vertex line: {raw.strip()!r}")
        vid = int(m.group(1))
        priority = int(m.group(2))
        owner = int(m.group(3))
        succ_text = m.group(4).strip()
        succs = [int(s) for s in succ_text.replace(",", " ").split()] if succ_text else []
        if not succs and not add_self_loops:
            raise ParseError(lineno, f"vertex {vid} has an empty successor list")
        if vid in rows:
            raise ParseError(lineno, f"vertex {vid} declared twice")
        for w in (vid, *succs):
            if header_max is not None and w > header_max:
                raise ParseError(lineno, f"vertex {w} exceeds the header maximum {header_max}")
            named.setdefault(w, lineno)
        rows[vid] = (priority, owner, succs, m.group(5))
        max_id = max(max_id, vid, *(succs or [vid]))
    if not rows:
        raise ParseError(1, "no vertices")
    n = max_id + 1
    owners = [1] * n
    priorities = [0] * n
    successor_lists: list[list[int]] = [[] for _ in range(n)]
    names: list[str | None] = [None] * n
    for vid, (priority, owner, succs, name) in rows.items():
        owners[vid] = owner
        priorities[vid] = priority
        successor_lists[vid] = succs
        names[vid] = name
    for v in range(n):
        if not successor_lists[v]:
            if not add_self_loops:
                # Blame the first vertex line naming v; failing that, the
                # header whose range holds v, or the line naming the largest id.
                line = named.get(v, header_line or named.get(max_id))
                raise ParseError(line, f"vertex {v} is used but never declared")
            successor_lists[v] = [v]
    has_names = any(name for name in names)
    return build_game(owners, priorities, successor_lists, names if has_names else None)


def emit_pgsolver(game: ParityGame) -> str:
    lines = [f"parity {game.vertex_count - 1};"]
    for v in range(game.vertex_count):
        succ = ",".join(str(w) for w in game.successors[v])
        name = ""
        if game.names is not None and game.names[v]:
            name = f' "{game.names[v]}"'
        lines.append(f"{v} {game.priority[v]} {int(game.owner[v])} {succ}{name};")
    return "\n".join(lines) + "\n"


def emit_solution(report: SolveReport, form: str = "text") -> str:
    """Render a solve result; `text` is the solution format, `structured` a
    key:value dump including the operation counters."""
    if form == "text":
        n = report.game.vertex_count
        lines = [f"paritysol {n - 1};"]
        for v in range(n):
            winner = 0 if report.winning_even.contains(v) else 1
            strategy = report.strategy_even if winner == 0 else report.strategy_odd
            pick = ""
            if strategy is not None and v in strategy.choice:
                pick = f" {strategy.choice[v]}"
            lines.append(f"{v} {winner}{pick};")
        return "\n".join(lines) + "\n"
    if form == "structured":
        c = report.counters
        rows = [
            ("algorithm", report.algorithm),
            ("vertices", report.game.vertex_count),
            ("priorities", report.game.priority_count),
            ("winning_even", " ".join(map(str, report.winning_even.ids()))),
            ("winning_odd", " ".join(map(str, report.winning_odd.ids()))),
            ("wall_time_ms", f"{report.wall_time * 1000.0:.3f}"),
            ("unions", c.unions),
            ("intersections", c.intersections),
            ("differences", c.differences),
            ("containment_tests", c.containment_tests),
            ("equality_tests", c.equality_tests),
            ("basic_ops", c.basic_total),
            ("pre_ops", c.pre_ops),
            ("cpre_ops", c.cpre_ops),
            ("peak_live_sets", c.peak_live_sets),
        ]
        return "\n".join(f"{k}: {v}" for k, v in rows) + "\n"
    raise ValueError(f"unknown form {form!r}")


def parse_solution(text: str) -> dict[int, tuple[int, int | None]]:
    """Winner and optional strategy choice per vertex id."""
    out: dict[int, tuple[int, int | None]] = {}
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_header:
            m = _SOL_HEADER.match(line)
            if m is not None:
                seen_header = True
                continue
        m = _SOL_LINE.match(line)
        if m is None:
            raise ParseError(lineno, f"malformed solution line: {raw.strip()!r}")
        vid = int(m.group(1))
        if vid in out:
            raise ParseError(lineno, f"vertex {vid} listed twice")
        pick = int(m.group(3)) if m.group(3) is not None else None
        out[vid] = (int(m.group(2)), pick)
    if not out:
        raise ParseError(1, "no solution entries")
    return out
