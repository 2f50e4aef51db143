"""PGSolver-style text formats for games and solutions.

Game files: an optional `parity <max id>;` header on the first non-blank
line, then one line per vertex, `<id> <priority> <owner> <succ>,<succ>,...
["name"];` with owner 0 for the even player and 1 for the odd player. No id
may exceed the header's maximum.
Vertices that occur only as successors, or only through the header's range,
are an error unless self-loop repair is requested, in which case they are
declared with a self loop (and declared-but-empty successor lists are
repaired the same way). A repaired game may not have more vertices than the
text has characters, so a short file cannot ask for a huge game.

Solution files: an optional `paritysol <max id>;` header, placed the same
way, then `<id> <winner> [<choice>];` per vertex, the choice column present
where the winner's strategy is defined.
No id, chosen successors included, may exceed the header's maximum.
"""

from __future__ import annotations

import re

from .game import ParityGame, build_game
from .report import SolveReport


class ParseError(Exception):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


# ASCII only: \d and \s would otherwise take any Unicode digit or space.
_VERTEX = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])((?:\s+\d+(?:\s*,\s*\d+)*)?)\s*(?:\"([^\"]*)\")?\s*;$", re.ASCII
)
_HEADER = re.compile(r"^parity\s+(\d+)\s*;$", re.ASCII)
_SOL_HEADER = re.compile(r"^paritysol\s+(\d+)\s*;$", re.ASCII)
_SOL_LINE = re.compile(r"^(\d+)\s+([01])(?:\s+(\d+))?\s*;$", re.ASCII)
# The patterns take ASCII digits only, so int() refuses one of them only past
# the interpreter's limit on the digits of a literal.
_TOO_LONG = "a number has too many digits"


def _header(lines: list[str], pattern: re.Pattern) -> tuple[int | None, int]:
    """The header's maximum id and line number if the first non-blank line
    is a header, else (None, 0)."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            m = pattern.match(line)
            if m is None:
                return None, 0
            try:
                return int(m.group(1)), lineno
            except ValueError:
                raise ParseError(lineno, _TOO_LONG) from None
    return None, 0


def _entries(lines: list[str], header_line: int, pattern: re.Pattern, noun: str):
    """(line number, match) for each non-blank line after the header;
    ParseError, naming a malformed `noun` line, on the first `pattern` misses."""
    match = pattern.match
    for lineno, raw in enumerate(lines[header_line:], start=header_line + 1):
        line = raw.strip()
        if line:
            m = match(line)
            if m is None:
                raise ParseError(lineno, f"malformed {noun} line: {line!r}")
            yield lineno, m


def _first_naming(lines: list[str], header_line: int, u: int) -> int | None:
    """The first vertex line naming id u, as a vertex or a successor."""
    for lineno, m in _entries(lines, header_line, _VERTEX, "vertex"):
        if int(m[1]) == u or m[4] and u in map(int, m[4].split(",")):
            return lineno
    return None


def parse_pgsolver(text: str, add_self_loops: bool = False) -> ParityGame:
    rows: dict[int, tuple[int, int, list[int], str | None]] = {}
    lines = text.splitlines()
    header_max, header_line = _header(lines, _HEADER)
    max_id = -1 if header_max is None else header_max
    for lineno, m in _entries(lines, header_line, _VERTEX, "vertex"):
        vid, priority, owner, succ_text, name = m.groups()
        try:
            vid, priority = int(vid), int(priority)
            # int() skips the spaces around each comma-separated id.
            succs = list(map(int, succ_text.split(","))) if succ_text else []
        except ValueError:
            raise ParseError(lineno, _TOO_LONG) from None
        if not succs and not add_self_loops:
            raise ParseError(lineno, f"vertex {vid} has an empty successor list")
        if vid in rows:
            raise ParseError(lineno, f"vertex {vid} declared twice")
        top = max(vid, *succs) if succs else vid
        if top > max_id:
            if header_max is not None:
                w = next(w for w in (vid, *succs) if w > header_max)
                raise ParseError(lineno, f"vertex {w} exceeds the header maximum {header_max}")
            max_id = top
        rows[vid] = (priority, int(owner), succs, name)
    if not rows:
        raise ParseError(1, "no vertices")
    n = max_id + 1
    if n > len(rows) and not add_self_loops:
        # Some id below n is undeclared, and the smallest is at most len(rows),
        # so it is found before any per-vertex list is built. Blame the first
        # vertex line naming it; failing that, the header whose range holds
        # it, or the line naming the largest id. Only the errors need to know
        # where ids were first named, so only they scan the lines again.
        v = next(v for v in range(len(rows) + 1) if v not in rows)
        line = (_first_naming(lines, header_line, v) or header_line
                or _first_naming(lines, header_line, max_id))
        raise ParseError(line, f"vertex {v} is used but never declared")
    if n > len(text):
        # Self-loop repair would build the game from the header's range or
        # the largest id alone; blame whichever set n.
        line = header_line or _first_naming(lines, header_line, max_id)
        raise ParseError(line, f"repair would build {n} vertices from {len(text)} characters")
    # An undeclared vertex (self-loop repair) is odd-owned with priority 0.
    blank = (0, 1, [], None)
    priorities, owners, successor_lists, names = zip(*[rows.get(v, blank) for v in range(n)])
    if add_self_loops:
        successor_lists = [succs or [v] for v, succs in enumerate(successor_lists)]
    return build_game(owners, priorities, successor_lists, names if any(names) else None)


def emit_pgsolver(game: ParityGame) -> str:
    """The game file text; ValueError for a name the format cannot quote (one
    holding `"` or a line break)."""
    lines = [f"parity {game.vertex_count - 1};"]
    for v in range(game.vertex_count):
        succ = ",".join(str(w) for w in game.successors[v])
        name = ""
        if game.names is not None and game.names[v]:
            name = game.names[v]
            if '"' in name or name.splitlines() != [name]:
                raise ValueError(f"vertex {v}: name {name!r} holds a quote or a line break")
            name = f' "{name}"'
        lines.append(f"{v} {game.priority[v]} {int(game.owner[v])} {succ}{name};")
    return "\n".join(lines) + "\n"


def emit_solution(report: SolveReport, form: str = "text") -> str:
    """Render a solve result; `text` is the solution format, `structured` a
    key:value dump including the operation counters."""
    if form == "text":
        n = report.game.vertex_count
        winners = [1] * n
        for v in report.winning_even.ids():
            winners[v] = 0
        choices = [s.choice if s is not None else {}
                   for s in (report.strategy_even, report.strategy_odd)]
        lines = [f"paritysol {n - 1};"]
        for v, winner in enumerate(winners):
            pick = choices[winner].get(v)
            lines.append(f"{v} {winner};" if pick is None else f"{v} {winner} {pick};")
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
    lines = text.splitlines()
    header_max, header_line = _header(lines, _SOL_HEADER)
    for lineno, m in _entries(lines, header_line, _SOL_LINE, "solution"):
        try:
            vid = int(m.group(1))
            pick = int(m.group(3)) if m.group(3) is not None else None
        except ValueError:
            raise ParseError(lineno, _TOO_LONG) from None
        if vid in out:
            raise ParseError(lineno, f"vertex {vid} listed twice")
        for w in (vid, pick):
            if header_max is not None and w is not None and w > header_max:
                raise ParseError(lineno, f"vertex {w} exceeds the header maximum {header_max}")
        out[vid] = (int(m.group(2)), pick)
    if not out:
        raise ParseError(1, "no solution entries")
    return out
