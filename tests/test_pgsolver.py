"""Reading and writing the PGSolver game and solution dialects."""

from __future__ import annotations

import pytest

from paritysets import Player, build_game
from paritysets.pgsolver import (
    ParseError,
    emit_pgsolver,
    emit_solution,
    parse_pgsolver,
    parse_solution,
)
from paritysets.zielonka import classic_parity

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
    for g in corpus(30, seed0=1700):
        back = parse_pgsolver(emit_pgsolver(g))
        assert back.owner == g.owner
        assert back.priority == g.priority
        assert back.successors == g.successors
        assert back.names is None


def test_header_is_optional():
    g = parse_pgsolver("0 3 0 1;\n1 0 1 0;\n")
    assert g.vertex_count == 2
    assert g.priority == (3, 0)
    assert g.owner == (Player.EVEN, Player.ODD)


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


def test_ids_above_the_header_maximum_rejected():
    with pytest.raises(ParseError) as err:
        parse_pgsolver("parity 1;\n0 1 0 1;\n1 0 1 0;\n3 2 0 0;\n")
    assert str(err.value) == "line 4: vertex 3 exceeds the header maximum 1"
    with pytest.raises(ParseError) as err:
        parse_pgsolver("parity 1;\n0 1 0 1,2;\n1 0 1 0;\n")
    assert str(err.value) == "line 2: vertex 2 exceeds the header maximum 1"


def test_self_loop_repair():
    g = parse_pgsolver("parity 3;\n0 1 0 ;\n1 0 1 0,3;\n", add_self_loops=True)
    assert g.successors[0] == (0,)  # empty list became a loop
    assert g.successors[2] == (2,)  # never declared, headed size
    assert g.successors[3] == (3,)
    assert g.priority[2] == 0 and g.owner[2] is Player.ODD


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
    # header is optional here as well
    assert parse_solution("0 1;\n") == {0: (1, None)}
