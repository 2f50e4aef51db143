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

Game files load column-wise. The lines are stripped, the header is read,
and one pattern scans the lines after it in one pass; its rows become
columns, one per field, and the row tuples are freed. The scan reads a
successor list flat, as digits, commas and blanks ending in a digit; a line
it takes that the strict vertex pattern refuses fails the conversion. Each
column is then converted whole: ids with one `map(int, ...)`, priorities
and owners with one conversion per distinct text, and all successor lists
with one `json.loads` of their texts joined into a JSON array of arrays.
JSON refuses a leading zero, which int() reads, so a file holding one (or a
number past the digit limit) has its lists converted again by mapping int()
over each split text. Every per-line check is made in bulk: fewer matches
than non-blank lines, a number past the interpreter's digit limit, an
empty successor list, an id declared twice, an id over the header's
maximum. When one fails, the lines are read again one at a time with the
strict pattern, only to raise the first error in line order, with the same
message and line number as a line-by-line reader. Lines out of id order,
and ids left to self-loop repair, are placed by one index over the columns.

Solution files, which only `verify` reads, are read one strict line at a
time.
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat

from .game import ParityGame, Player, build_game
from .report import SolveReport


class ParseError(Exception):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


# ASCII only: \d and \s would otherwise take any Unicode digit or space.
# The game scan runs once over the stripped lines after the header,
# joined by "\n". Only [ \t] and [^"\n] match inside a line, so a match is
# one whole line, and on one stripped line they match what \s and [^"]
# would. A vertex name is captured with its quotes, so a missing name ("")
# stays apart from an empty one ('""').
def _vertex_pattern(successors: str) -> re.Pattern:
    return re.compile(
        r'^(\d+)[ \t]+(\d+)[ \t]+([01])((?:[ \t]+' + successors + r')?)[ \t]*'
        r'("[^"\n]*")?[ \t]*;$',
        re.ASCII | re.MULTILINE,
    )


_VERTEX = _vertex_pattern(r"\d+(?:[ \t]*,[ \t]*\d+)*")
# The scan's pattern reads a successor list flat, as any run of digits,
# commas, spaces and tabs ending in a digit: one character-class loop for
# the regex engine, not a nested repeat. It matches every line _VERTEX
# matches, with the same groups; a line only it matches has a list piece that
# is blank or holds a space between digits, which the conversion refuses.
_VERTEX_SCAN = _vertex_pattern(r"[\d, \t]*\d")
_HEADER = re.compile(r"^parity\s+(\d+)\s*;$", re.ASCII)
_SOL_HEADER = re.compile(r"^paritysol\s+(\d+)\s*;$", re.ASCII)
_SOL_LINE = re.compile(r"^(\d+)[ \t]+([01])(?:[ \t]+(\d+))?[ \t]*;$", re.ASCII)
# The patterns take ASCII digits only, so int() refuses one of them only past
# the interpreter's limit on the digits of a literal.
_TOO_LONG = "a number has too many digits"
_OWNERS = {"0": Player.EVEN, "1": Player.ODD}


def _header(lines: list[str], pattern: re.Pattern) -> tuple[int | None, int]:
    """The header's maximum id and line number if the first non-blank line
    is a header, else (None, 0)."""
    for lineno, line in enumerate(lines, start=1):
        if line:
            m = pattern.match(line)
            if m is None:
                return None, 0
            try:
                return int(m.group(1)), lineno
            except ValueError:
                raise ParseError(lineno, _TOO_LONG) from None
    return None, 0


def _scan(text: str):
    """The stripped lines, the header's maximum id and line number, and the
    fields of the vertex lines after the header as columns, one tuple per
    group ([] for no vertex); None for the columns when some non-blank line
    there is no vertex line. The row tuples are freed before this returns."""
    lines = list(map(str.strip, text.splitlines()))
    header_max, header_line = _header(lines, _HEADER)
    body = lines[header_line:]
    columns = list(zip(*_VERTEX_SCAN.findall("\n".join(body))))
    if len(columns[0] if columns else ()) != len(body) - body.count(""):
        columns = None
    return lines, header_max, header_line, columns


def _entries(lines: list[str], header_line: int, pattern: re.Pattern, noun: str):
    """(line number, match) for each non-blank line after the header;
    ParseError, naming a malformed `noun` line, on the first `pattern` misses."""
    match = pattern.match
    for lineno, line in enumerate(lines[header_line:], start=header_line + 1):
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


def _vertex_columns(columns, header_max: int | None, add_self_loops: bool):
    """The vertex columns converted: ids, priorities, owners, successor
    tuples and quoted names, in line order, plus the largest id named. None
    when some line fails a check of its own: a number past the digit limit,
    an empty successor list that is not to be repaired, an id declared
    before, or an id over the header's maximum. `columns` is emptied, so
    each text column is freed once it is converted."""
    ids, priorities, owners, successor_texts, names = columns
    columns.clear()
    if add_self_loops:  # an empty list is repaired with a self loop
        successor_texts = [succs or vid for succs, vid in zip(successor_texts, ids)]
    elif not all(successor_texts):
        return None
    try:
        ids = list(map(int, ids))
        # Priorities repeat: one int() per distinct text.
        priority_of = {p: int(p) for p in set(priorities)}
        try:
            # One JSON array of arrays: JSON skips the spaces and tabs around
            # each comma-separated id, as int() does.
            successor_lists = json.loads("[[" + "],[".join(successor_texts) + "]]")
        except ValueError:  # a leading zero, which int() reads; too many digits, which it refuses
            successor_lists = map(map, repeat(int), map(str.split, successor_texts, repeat(",")))
        successor_lists = list(map(tuple, successor_lists))
    except ValueError:
        return None
    if len(set(ids)) < len(ids):
        return None
    top = max(max(ids), max(chain.from_iterable(successor_lists)))
    if header_max is not None and top > header_max:
        return None
    return (ids, list(map(priority_of.__getitem__, priorities)),
            list(map(_OWNERS.__getitem__, owners)), successor_lists, names, top)


def _raise_first_bad_vertex_line(lines, header_line, header_max, add_self_loops):
    """Raise the ParseError of the first vertex line, in line order, that
    fails a check of its own; the bulk checks have seen that one does."""
    declared = set()
    for lineno, m in _entries(lines, header_line, _VERTEX, "vertex"):
        try:
            vid = int(m[1])
            int(m[2])
            succs = list(map(int, m[4].split(","))) if m[4] else []
        except ValueError:
            raise ParseError(lineno, _TOO_LONG) from None
        if not succs and not add_self_loops:
            raise ParseError(lineno, f"vertex {vid} has an empty successor list")
        if vid in declared:
            raise ParseError(lineno, f"vertex {vid} declared twice")
        declared.add(vid)
        for w in (vid, *succs):
            if header_max is not None and w > header_max:
                raise ParseError(lineno, f"vertex {w} exceeds the header maximum {header_max}")


def parse_pgsolver(text: str, add_self_loops: bool = False) -> ParityGame:
    lines, header_max, header_line, columns = _scan(text)
    if columns == []:
        raise ParseError(1, "no vertices")
    if columns is not None:
        columns = _vertex_columns(columns, header_max, add_self_loops)
    if columns is None:
        _raise_first_bad_vertex_line(lines, header_line, header_max, add_self_loops)
    ids, priorities, owners, successor_lists, names, top = columns
    n = (top if header_max is None else header_max) + 1
    m = len(ids)
    if n > m and not add_self_loops:
        # Some id below n is undeclared, and the smallest is at most m, so
        # it is found before any list of n entries is built. Blame the first
        # vertex line naming it; failing that, the header whose range holds
        # it, or the line naming the largest id. Only the errors need to know
        # where ids were first named, so only they scan the lines again.
        declared = set(ids)
        v = next(v for v in range(m + 1) if v not in declared)
        line = (_first_naming(lines, header_line, v) or header_line
                or _first_naming(lines, header_line, n - 1))
        raise ParseError(line, f"vertex {v} is used but never declared")
    if n > len(text):
        # Self-loop repair would build the game from the header's range or
        # the largest id alone; blame whichever set n.
        line = header_line or _first_naming(lines, header_line, n - 1)
        raise ParseError(line, f"repair would build {n} vertices from {len(text)} characters")
    if ids != list(range(n)):
        # Lines out of id order, or ids left to self-loop repair: row m is a
        # blank, an odd-owned vertex of priority 0 with no successor or name.
        row_of = dict(zip(ids, range(m)))
        index = list(map(row_of.get, range(n), repeat(m)))
        priorities, owners, successor_lists, names = (
            list(map([*column, blank].__getitem__, index))
            for column, blank in zip((priorities, owners, successor_lists, names),
                                     (0, Player.ODD, (), "")))
    if n > m:  # self-loop repair of the ids no line declares
        successor_lists = [succs or (v,) for v, succs in enumerate(successor_lists)]
    # A name is its quoted text; a file with no nonempty name has none.
    names = [name[1:-1] if name else None for name in names]
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
    lines = list(map(str.strip, text.splitlines()))
    header_max, header_line = _header(lines, _SOL_HEADER)
    out: dict[int, tuple[int, int | None]] = {}
    for lineno, m in _entries(lines, header_line, _SOL_LINE, "solution"):
        try:
            vid = int(m[1])
            pick = int(m[3]) if m[3] is not None else None
        except ValueError:
            raise ParseError(lineno, _TOO_LONG) from None
        if vid in out:
            raise ParseError(lineno, f"vertex {vid} listed twice")
        for w in (vid, pick):
            if header_max is not None and w is not None and w > header_max:
                raise ParseError(lineno, f"vertex {w} exceeds the header maximum {header_max}")
        out[vid] = (int(m[2]), pick)
    if not out:
        raise ParseError(1, "no solution entries")
    return out
