"""Line-by-line references for the game and solution loaders.

`parse_pgsolver` and `parse_solution` here read a file one line at a time:
strip, match, convert, check, in line order, so each error is raised at the
line where it is first seen. The library scans the whole body with one
pattern, converts each column at once and checks in bulk, and reads line by
line only to name the line of an error. Both must build equal games and
solutions and raise `ParseError`s with equal `line` and `reason`.
"""

from __future__ import annotations

import re

from paritysets.game import ParityGame, build_game
from paritysets.pgsolver import ParseError


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
