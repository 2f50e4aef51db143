"""Reading and writing the PGSolver game and solution dialects."""

from __future__ import annotations

import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritysets import Player, build_game, gen_random, pgsolver
from paritysets.pgsolver import (
    ParseError,
    emit_pgsolver,
    emit_solution,
    parse_pgsolver,
    parse_solution,
)
from paritysets.bigstep import symbolic_big_step
from paritysets.measure import solve_pm_symbolic
from paritysets.zielonka import classic_parity

import reference_pgsolver as reference
from conftest import corpus


SAMPLE_TEXT = (
    'parity 7;\n'
    '0 1 0 1 "a";\n'
    '1 0 1 0,3 "b";\n'
    '2 1 0 1,3 "c";\n'
    '3 0 0 5 "d";\n'
    '4 3 1 3 "e";\n'
    '5 4 1 6 "f";\n'
    '6 2 0 4 "g";\n'
    '7 1 0 2,6 "h";\n'
)

SAMPLE_SOLUTION = (
    'paritysol 7;\n'
    '0 1;\n'
    '1 1 0;\n'
    '2 0 3;\n'
    '3 0 5;\n'
    '4 0;\n'
    '5 0;\n'
    '6 0 4;\n'
    '7 0 2;\n'
)


def test_emit_text_is_stable(sample_game):
    assert emit_pgsolver(sample_game) == SAMPLE_TEXT


def test_round_trip_preserves_everything(sample_game):
    back = parse_pgsolver(emit_pgsolver(sample_game))
    assert back.owner == sample_game.owner
    assert back.priority == sample_game.priority
    assert back.successors == sample_game.successors
    assert back.names == tuple("abcdefgh")


def test_round_trip_on_random_games():
    games = [*corpus(30, seed0=1700), *(gen_random(n, 5, 1, 3, n) for n in (300, 2048))]
    for g in games:
        back = parse_pgsolver(emit_pgsolver(g))
        assert back == g
        assert back.names is None


# Every character str.splitlines breaks at; a name holding one cannot be quoted.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
NAMES = st.text(
    st.one_of(st.sampled_from(" ;,"), st.characters(exclude_characters='"' + LINE_BREAKS,
                                                      exclude_categories=("Cs",))),
    min_size=1, max_size=6,
)


@st.composite
def named_games(draw):
    n = draw(st.integers(1, 8))
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    priorities = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    succs = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
             for _ in range(n)]
    names = draw(st.lists(st.none() | NAMES, min_size=n, max_size=n))
    return build_game(owners, priorities, succs, names)


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(named_games())
@example(build_game([0, 1], [0, 1], [[1], [0]], ["a;b", "two words"]))
@example(build_game([0], [3], [[0]], [" ; "]))
def test_round_trip_keeps_names(g):
    back = parse_pgsolver(emit_pgsolver(g))
    assert (back.owner, back.priority, back.successors) == (g.owner, g.priority, g.successors)
    unnamed = (None,) * g.vertex_count
    assert (back.names or unnamed) == (g.names or unnamed)


def test_emit_rejects_names_it_cannot_quote():
    for bad in ('say "hi"', "two\nlines", "cr\r", "sep\u2028"):
        g = build_game([0, 1], [0, 1], [[1], [0]], ["fine", bad])
        with pytest.raises(ValueError, match="vertex 1"):
            emit_pgsolver(g)


def test_header_is_optional():
    g = parse_pgsolver("0 3 0 1;\n1 0 1 0;\n")
    assert g.vertex_count == 2
    assert g.priority == (3, 0)
    assert g.owner == (Player.EVEN, Player.ODD)


def test_files_without_vertices_fail_at_line_one():
    for text in ("", "\n  \n\t\n", "parity 3;\n"):
        with pytest.raises(ParseError) as err:
            parse_pgsolver(text)
        assert (err.value.line, err.value.reason) == (1, "no vertices"), text


def test_spacing_and_blank_lines_are_tolerated():
    g = parse_pgsolver("\nparity 1;\n\n0 2 1   1 , 0 ;\n1 0 0 0;\n")
    assert g.successors == ((1, 0), (0,))
    assert g.owner[0] is Player.ODD


def test_malformed_line_reports_its_number():
    with pytest.raises(ParseError) as err:
        parse_pgsolver("parity 1;\n0 1 0 1;\nowner 1 goes here;\n")
    assert err.value.line == 3
    assert "malformed vertex line" in err.value.reason


def test_space_separated_successors_are_malformed():
    with pytest.raises(ParseError, match="malformed"):
        parse_pgsolver("0 1 0 1 0;\n1 0 1 0;\n")


def test_empty_successor_list_rejected_by_default():
    with pytest.raises(ParseError) as err:
        parse_pgsolver("parity 0;\n0 1 0 ;\n")
    assert str(err.value) == "line 2: vertex 0 has an empty successor list"


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError, match="declared twice"):
        parse_pgsolver("0 1 0 1;\n1 0 1 0;\n0 2 1 1;\n")


def test_undeclared_target_rejected():
    with pytest.raises(ParseError) as err:
        parse_pgsolver("0 1 0 1;\n")
    assert err.value.line == 1
    assert "never declared" in err.value.reason
    with pytest.raises(ParseError, match="no vertices"):
        parse_pgsolver("parity 3;\n")
    for text, where in [
        # reported at the first line naming the vertex as a successor
        ("parity 3;\n0 1 0 1;\n1 0 1 0,3;\n2 2 0 3,1;\n", "line 3: vertex 3"),
        # only the header's range holds it: the header line
        ("\nparity 2;\n0 1 0 1;\n1 0 1 0;\n", "line 2: vertex 2"),
        # a gap below the largest id: where that id was first named
        ("0 1 0 0;\n2 0 1 2;\n", "line 2: vertex 1"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_pgsolver(text)
        assert str(err.value) == f"{where} is used but never declared"


def test_undeclared_vertices_rejected_before_per_vertex_lists():
    # a huge id with nothing declared below it: the smallest undeclared id
    # is known from the rows alone, so no list of 2,000,001 entries is built
    for text in ("0 0 0 2000000;\n", "parity 2000000;\n0 0 0 0;\n"):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_pgsolver(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == "line 1: vertex 1 is used but never declared"
        assert peak < 1_000_000


def test_ids_above_the_header_maximum_rejected():
    with pytest.raises(ParseError) as err:
        parse_pgsolver("parity 1;\n0 1 0 1;\n1 0 1 0;\n3 2 0 0;\n")
    assert str(err.value) == "line 4: vertex 3 exceeds the header maximum 1"
    with pytest.raises(ParseError) as err:
        parse_pgsolver("parity 1;\n0 1 0 1,2;\n1 0 1 0;\n")
    assert str(err.value) == "line 2: vertex 2 exceeds the header maximum 1"


def test_only_ascii_digits_and_spaces_count():
    # \d and \s would take an Arabic-Indic zero, a fullwidth one or a
    # non-breaking space
    for text in ("\u0660 0 0 0;\n", "0 0 0 \uff10;\n", "0\u00a00 0 0;\n", "0 0\u20030 0;\n",
                 "parity \u0660;\n0 0 0 0;\n"):
        with pytest.raises(ParseError) as err:
            parse_pgsolver(text)
        assert err.value.line == 1
        assert err.value.reason.startswith("malformed vertex line")
    for text in ("\u0660 1;\n", "0\u00a01;\n", "0 1 \u0661;\n"):
        with pytest.raises(ParseError) as err:
            parse_solution(text)
        assert (err.value.line, err.value.reason[:23]) == (1, "malformed solution line")


def test_patterns_compile_on_the_oldest_supported_python():
    # Possessive quantifiers (x++, x*+, x?+) and atomic groups need Python
    # 3.11; on 3.10, re.compile refuses them and the package cannot import.
    patterns = [v for v in vars(pgsolver).values() if isinstance(v, re.Pattern)]
    assert patterns
    for pattern in patterns:
        assert not re.search(r"[+*?}]\+|\(\?>", pattern.pattern), pattern.pattern


# The interpreter refuses integer literals past a digit limit; 0 means none.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter reads any number of digits")
def test_numbers_past_the_digit_limit_are_parse_errors():
    big = "1" * (_DIGIT_LIMIT + 1)
    for text, line in [
        (f"{big} 0 0 0;\n", 1),                 # a vertex id
        (f"0 {big} 0 0;\n", 1),                 # a priority
        (f"0 0 0 {big};\n", 1),                 # a successor
        (f"0 0 0 1;\n1 0 1 0, {big};\n", 2),    # a later successor in a list
        (f"parity {big};\n0 0 0 0;\n", 1),     # the header
        (f"\n\nparity {big};\n0 0 0 0;\n", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_pgsolver(text)
        assert str(err.value) == f"line {line}: a number has too many digits"
    for text, line in [(f"{big} 0;\n", 1), (f"0 1;\n1 0 {big};\n", 2),
                       (f"paritysol {big};\n0 0;\n", 1)]:
        with pytest.raises(ParseError) as err:
            parse_solution(text)
        assert str(err.value) == f"line {line}: a number has too many digits"
    # one digit fewer still reads, and fails only as an unknown vertex
    with pytest.raises(ParseError, match="exceeds the header maximum 0"):
        parse_pgsolver(f"parity 0;\n0 0 0 {big[1:]};\n")


def test_zero_padded_ids_load_like_unpadded_ones():
    # JSON refuses a leading zero, which int() reads: such a file takes the
    # per-list conversion
    padded = parse_pgsolver("0 1 0 01, 002;\n001 0 1 0;\n2 2 0 2;\n")
    assert padded == parse_pgsolver("0 1 0 1, 2;\n1 0 1 0;\n2 2 0 2;\n")
    assert padded.successors == ((1, 2), (0,), (2,))
    # repair fills an empty list with the id's own text
    assert parse_pgsolver("0 1 0 01;\n01 0 1;\n", True).successors == ((1,), (1,))


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter reads any number of digits")
def test_too_many_digits_after_a_padded_line_fail_at_their_line():
    big = "1" * (_DIGIT_LIMIT + 1)
    with pytest.raises(ParseError) as err:
        parse_pgsolver(f"parity 2;\n0 1 0 01, 002;\n1 0 1 0;\n2 2 0 2,{big};\n")
    assert str(err.value) == "line 4: a number has too many digits"


def test_lines_only_a_flat_successor_pattern_takes_are_malformed():
    for bad in ("0 1 0 1,2 3;", "0 1 0 1,,2;", "0 1 0 1\t2;"):
        with pytest.raises(ParseError) as err:
            parse_pgsolver(f"parity 3;\n1 0 1 0;\n{bad}\n2 2 0 3;\n3 1 1 1;\n")
        assert str(err.value) == f"line 3: malformed vertex line: {bad!r}"


def _long_file(last: str, header: int | None = None, skip: int | None = None) -> str:
    """A 2048-line game file: the header if given, a cycle through the
    vertices 0, 1, ... (leaving out `skip`) up to the line before the last,
    then `last`."""
    lines = [] if header is None else [f"parity {header};"]
    v = 0
    while len(lines) < 2047:
        if v != skip:
            nxt = v + 1 if v + 1 != skip else v + 2
            lines.append(f"{v} {v % 5} {v % 2} {nxt};")
        v += 1
    lines.append(last)
    return "\n".join(lines) + "\n"


def test_errors_on_the_last_line_of_a_long_file():
    # the first line naming the undeclared vertex is the last one
    text = _long_file("2047 1 0 5,0;", header=2047, skip=5)
    assert len(text.splitlines()) == 2048
    with pytest.raises(ParseError) as err:
        parse_pgsolver(text)
    assert str(err.value) == "line 2048: vertex 5 is used but never declared"
    # without that line only the header's range holds it
    with pytest.raises(ParseError) as err:
        parse_pgsolver(_long_file("2047 1 0 0;", header=2047, skip=5))
    assert str(err.value) == "line 1: vertex 5 is used but never declared"
    # a successor over the header maximum
    with pytest.raises(ParseError) as err:
        parse_pgsolver(_long_file("2046 1 0 0,2047,9;", header=2046))
    assert str(err.value) == "line 2048: vertex 2047 exceeds the header maximum 2046"
    # no header: the last line names the largest id, and the gap below it
    with pytest.raises(ParseError) as err:
        parse_pgsolver(_long_file("2047 0 1 4000;"))
    assert str(err.value) == "line 2048: vertex 2048 is used but never declared"
    # errors of the last line alone, which the bulk checks find without a
    # line number: the line pass must name line 2,048
    last_line_errors = [
        ("2047 1 0 x;", "malformed vertex line: '2047 1 0 x;'"),
        ("2047 1 0 ;", "vertex 2047 has an empty successor list"),
        ("3 1 0 0;", "vertex 3 declared twice"),
    ]
    if _DIGIT_LIMIT:
        big = "9" * (_DIGIT_LIMIT + 1)
        last_line_errors.append((f"2047 1 0 0,{big};", "a number has too many digits"))
    for last, reason in last_line_errors:
        text = _long_file(last)
        assert len(text.splitlines()) == 2048
        with pytest.raises(ParseError) as err:
            parse_pgsolver(text)
        assert (err.value.line, err.value.reason) == (2048, reason)


def test_hand_made_lines_load_like_built_games():
    # duplicate edges, lines out of order, names, spacing
    g = parse_pgsolver('parity 4;\n3 2 1 0,0,3 ;\n0 4 0 1,1 "zero";\n1 0 1 3, 0,3 "one";\n'
                       '2 1 0 2;\n\n4 3 1 4 , 4,0;\n')
    assert g == build_game([0, 1, 0, 1, 1], [4, 0, 1, 2, 3],
                           [[1], [3, 0], [2], [0, 3], [4, 0]],
                           ["zero", "one", None, None, None])
    # self-loop repair: an empty list and two undeclared ids
    g = parse_pgsolver("1 3 0 ;\n0 0 1 4,2,4;\n", add_self_loops=True)
    assert g == build_game([1, 0, 1, 1, 1], [0, 3, 0, 0, 0],
                           [[4, 2], [1], [2], [3], [4]])
    assert g.names is None


def _solution_by_lookups(report) -> str:
    """The solution text, asking the winning set about one vertex at a time."""
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


def test_solution_text_matches_per_vertex_lookups():
    for i, g in enumerate(corpus(24, seed0=2200)):
        solve = (classic_parity, solve_pm_symbolic, symbolic_big_step)[i % 3]
        for strategies in (False, True):
            for backend in ("bits", "bdd"):
                rep = solve(g, strategies=strategies, backend=backend)
                assert emit_solution(rep) == _solution_by_lookups(rep)
    rep = classic_parity(gen_random(2048, 5, 1, 3, 3), strategies=True)
    assert emit_solution(rep) == _solution_by_lookups(rep)


def test_self_loop_repair():
    g = parse_pgsolver("parity 3;\n0 1 0 ;\n1 0 1 0,3;\n", add_self_loops=True)
    assert g.successors[0] == (0,)  # empty list became a loop
    assert g.successors[2] == (2,)  # never declared, headed size
    assert g.successors[3] == (3,)
    assert g.priority[2] == 0 and g.owner[2] is Player.ODD


@pytest.mark.parametrize("text, line", [
    ("parity 200000;\n0 0 0 0;\n", 1),                 # the header's range
    ("0 0 0 1000000;\n", 1),                            # the largest id
    ("0 0 0 0;\n1 0 0 1000000;\n2 0 0 2;\n", 2),
])
def test_self_loop_repair_is_bounded_by_the_text(text, line):
    # Either game would have more vertices than the text has characters;
    # the error comes before any per-vertex list is built.
    started = time.perf_counter()
    with pytest.raises(ParseError, match="repair would build") as err:
        parse_pgsolver(text, add_self_loops=True)
    assert time.perf_counter() - started < 0.1
    assert err.value.line == line


def test_solution_text_is_stable(sample_game):
    rep = classic_parity(sample_game, strategies=True)
    assert emit_solution(rep) == SAMPLE_SOLUTION


def test_solution_round_trip(sample_game):
    rep = classic_parity(sample_game, strategies=True)
    parsed = parse_solution(emit_solution(rep))
    assert parsed == {
        0: (1, None),
        1: (1, 0),
        2: (0, 3),
        3: (0, 5),
        4: (0, None),
        5: (0, None),
        6: (0, 4),
        7: (0, 2),
    }
    # winners survive without strategies too
    bare = parse_solution(emit_solution(classic_parity(sample_game)))
    assert all(pick is None for _w, pick in bare.values())
    assert {v: w for v, (w, _p) in bare.items()} == {v: w for v, (w, _p) in parsed.items()}


def test_structured_solution_keys(sample_game):
    rep = classic_parity(sample_game)
    rows = dict(
        line.split(": ", 1) for line in emit_solution(rep, form="structured").splitlines()
    )
    assert list(rows) == [
        "algorithm",
        "vertices",
        "priorities",
        "winning_even",
        "winning_odd",
        "wall_time_ms",
        "unions",
        "intersections",
        "differences",
        "containment_tests",
        "equality_tests",
        "basic_ops",
        "pre_ops",
        "cpre_ops",
        "peak_live_sets",
    ]
    assert rows["algorithm"] == "zielonka"
    assert rows["vertices"] == "8"
    assert sorted(map(int, rows["winning_even"].split())) == [2, 3, 4, 5, 6, 7]
    assert int(rows["cpre_ops"]) == 11
    with pytest.raises(ValueError):
        emit_solution(rep, form="yaml")


def test_solution_parse_errors():
    with pytest.raises(ParseError, match="malformed solution line"):
        parse_solution("paritysol 1;\n0 2;\n")
    with pytest.raises(ParseError, match="listed twice"):
        parse_solution("0 1;\n0 0;\n")
    with pytest.raises(ParseError, match="no solution entries"):
        parse_solution("paritysol 3;\n")
    with pytest.raises(ParseError, match="no solution entries") as err:
        parse_solution("")
    assert err.value.line == 1
    # a header counts only on the first non-blank line
    with pytest.raises(ParseError, match="malformed solution line") as err:
        parse_solution("5 1;\nparitysol 3;\n0 0;\n")
    assert err.value.line == 2
    # header is optional here as well
    assert parse_solution("0 1;\n") == {0: (1, None)}


# -- the bulk loader against the line-by-line reference ------------------------

SPACES = st.sampled_from([" ", "\t", "  ", " \t "])
GAPS = st.sampled_from(["", " ", "\t"])
COMMAS = st.sampled_from([",", " ,", ", ", "\t,  "])
# Whatever str.strip takes off a line's ends, a non-breaking space included.
ENDS = st.sampled_from(["", " ", "\t", "\xa0"])
BLANKS = st.sampled_from(["", "  ", "\t", "\xa0"])


def _render(header: str | None, entries: list[tuple[int | None, str]]) -> str:
    lines = [line for _, line in entries]
    return "\n".join(lines if header is None else [header, *lines]) + "\n"


@st.composite
def game_files(draw, repair: bool = False):
    """A valid game file as (header line or None, [(vertex id or None for a
    blank line, line)]): lines in any order, blank lines, tabs and spaces
    around commas, names absent, empty, a space or anything quotable,
    duplicate edges, in some files ids and successors padded with zeros
    (`007`). With `repair`, some ids are left undeclared and some successor
    lists empty, and the header may name ids beyond the lines."""
    n = draw(st.integers(1, 10))
    pads = st.sampled_from(["", "0", "00"] if draw(st.booleans()) else [""])

    def text(u: int) -> str:
        return draw(pads) + str(u)

    if repair:
        declared = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    else:
        declared = list(range(n))
    entries = []
    top = max(declared)
    for v in declared:
        succs = draw(st.lists(st.integers(0, n - 1), min_size=0 if repair else 1, max_size=4))
        top = max(top, *succs, 0)
        name = draw(st.none() | st.sampled_from(["", " "]) | NAMES)
        priority, owner = draw(st.integers(0, 120)), draw(st.integers(0, 1))
        line = f"{text(v)}{draw(SPACES)}{priority}{draw(SPACES)}{owner}"
        if succs:
            line += draw(SPACES) + draw(COMMAS).join(map(text, succs))
        if name is not None:
            line += f'{draw(GAPS)}"{name}"'
        entries.append((v, f"{draw(ENDS)}{line}{draw(GAPS)};{draw(ENDS)}"))
    entries = draw(st.permutations(entries))
    for at in draw(st.lists(st.integers(0, len(entries)), max_size=3)):
        entries.insert(at, (None, draw(BLANKS)))
    header = None
    if draw(st.booleans()):
        header = f"parity{draw(SPACES)}{top + (draw(st.integers(0, 3)) if repair else 0)};"
    return header, entries


def _outcome(parse, text, *args):
    """What a parser makes of a text: its result, or its error's line and reason."""
    try:
        return parse(text, *args)
    except ParseError as err:
        return err.line, err.reason


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(game_files(), st.booleans())
def test_bulk_loading_matches_the_line_reference(file, repair):
    text = _render(*file)
    expected = reference.parse_pgsolver(text, repair)
    assert parse_pgsolver(text, repair) == expected


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(game_files(repair=True))
def test_bulk_repair_matches_the_line_reference(file):
    text = _render(*file)
    expected = reference.parse_pgsolver(text, True)
    assert parse_pgsolver(text, True) == expected


CORRUPTIONS = ("mangle", "digits", "twice", "over the header", "undeclared", "empty",
               "no-break space")


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(game_files(), st.sampled_from(CORRUPTIONS), st.data())
def test_bulk_errors_match_the_line_reference(file, corruption, data):
    """One line of a valid file broken; both loaders must raise the same
    error at the same line (a random mangle may leave the file valid, and
    then both must load the same game)."""
    header, entries = file
    entries = list(entries)
    at = data.draw(st.sampled_from([i for i, (v, _) in enumerate(entries) if v is not None]))
    v, line = entries[at]
    n = sum(u is not None for u, _ in entries)
    if corruption == "mangle":
        j = data.draw(st.integers(0, len(line) - 1))
        line = line[:j] + data.draw(st.sampled_from('x;,"0 \t\u0660')) + line[j + 1:]
    elif corruption == "digits" and _DIGIT_LIMIT:
        big = "1" * (_DIGIT_LIMIT + 1)
        line = data.draw(st.sampled_from([f"{big} 0 0 0;", f"{v} {big} 0 0;",
                                          f"{v} 0 0 0,{big};"]))
    elif corruption == "twice":
        entries.insert(data.draw(st.integers(0, len(entries))), (v, line))
    elif corruption == "over the header":
        header = header or f"parity {n - 1};"
        line = f"{v} 0 1 0,{n};"
    elif corruption == "undeclared":
        header = None
        line = f"{v} 0 1 {n + data.draw(st.integers(0, 2))};"
    elif corruption == "empty":
        line = f"{v} 0 1 ;"
    else:  # a non-breaking space, or the digit run where the interpreter has no limit
        line = line.strip().replace(" ", "\xa0", 1).replace("\t", "\xa0", 1)
    entries[at] = (v, line)
    text = _render(header, entries)
    expected = _outcome(reference.parse_pgsolver, text)
    if corruption != "mangle":
        assert isinstance(expected, tuple)
    assert _outcome(parse_pgsolver, text) == expected


@st.composite
def solution_files(draw):
    """A solution file: entries in any order, blank lines, spacing, choices
    present or not, optionally a header; with luck one line broken."""
    n = draw(st.integers(1, 8))
    lines = []
    for v in range(n):
        pick = draw(st.none() | st.integers(0, n - 1))
        tail = "" if pick is None else f"{draw(SPACES)}{pick}"
        lines.append(f"{draw(ENDS)}{v}{draw(SPACES)}{draw(st.integers(0, 1))}{tail}{draw(GAPS)};")
    lines = draw(st.permutations(lines))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, draw(BLANKS))
    if draw(st.booleans()):
        lines.insert(0, f"paritysol {n - 1 + draw(st.integers(-1, 1))};")
    broken = draw(st.sampled_from(["none", "mangle", "twice", "digits"]))
    at = draw(st.integers(0, len(lines) - 1))
    if broken == "mangle":
        j = draw(st.integers(0, max(len(lines[at]) - 1, 0)))
        lines[at] = lines[at][:j] + draw(st.sampled_from("x;2 \xa0")) + lines[at][j + 1:]
    elif broken == "twice":
        lines.insert(at, lines[at])
    elif broken == "digits" and _DIGIT_LIMIT:
        lines[at] = f"0 1 {'7' * (_DIGIT_LIMIT + 1)};"
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(solution_files())
def test_solution_loading_matches_the_line_reference(text):
    assert _outcome(parse_solution, text) == _outcome(reference.parse_solution, text)
