"""End-to-end checks of the command line front end."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from paritysets.cli import main
from paritysets.pgsolver import emit_pgsolver

from conftest import corpus, ladder


SOLUTION_WITH_PICKS = (
    "paritysol 7;\n0 1;\n1 1 0;\n2 0 3;\n3 0 5;\n4 0;\n5 0;\n6 0 4;\n7 0 2;\n"
)


@pytest.fixture
def game_file(tmp_path, sample_game):
    path = tmp_path / "ex1.gm"
    path.write_text(emit_pgsolver(sample_game))
    return str(path)


def test_solve_prints_winners(game_file, capsys):
    assert main(["solve", game_file]) == 0
    out = capsys.readouterr().out
    assert out == "paritysol 7;\n0 1;\n1 1;\n2 0;\n3 0;\n4 0;\n5 0;\n6 0;\n7 0;\n"


def test_solve_with_strategies_and_each_algorithm(game_file, capsys):
    for algo in ("zielonka", "pm", "bigstep"):
        assert main(["solve", game_file, "--algo", algo, "--strategies"]) == 0
        assert capsys.readouterr().out == SOLUTION_WITH_PICKS


def test_solve_policy_and_backend_flags(game_file, capsys):
    assert main(["solve", game_file, "--algo", "bigstep", "--policy", "gamma",
                 "--backend", "bdd", "--check-invariants"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("paritysol 7;\n0 1;\n1 1;\n2 0;")
    assert main(["solve", game_file, "--algo", "bigstep", "--policy", "fixed:2"]) == 0
    capsys.readouterr()


def test_stats_reports_counters(game_file, capsys):
    assert main(["stats", game_file, "--algo", "pm"]) == 0
    rows = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert rows["file"] == game_file
    assert rows["algorithm"] == "pm"
    assert rows["vertices"] == "8"
    assert rows["priorities"] == "5"
    assert rows["winning_even"] == "2 3 4 5 6 7"
    assert rows["winning_odd"] == "0 1"
    assert rows["cpre_ops"] == "35"
    assert rows["basic_ops"] == "471"
    assert rows["peak_live_sets"] == "22"
    assert float(rows["wall_time_ms"]) >= 0.0


def test_dominion_output(game_file, capsys):
    assert main(["dominion", game_file, "--player", "even", "--h", "1"]) == 0
    assert capsys.readouterr().out == "2 3 4 5 6 7\n"
    assert main(["dominion", game_file, "--player", "odd", "--h", "1"]) == 0
    assert capsys.readouterr().out == "0 1\n"
    assert main(["dominion", game_file, "--player", "even", "--h", "0"]) == 0
    assert capsys.readouterr().out == "\n"


def test_verify_accepts_correct_solutions(game_file, tmp_path, capsys):
    sol = tmp_path / "ex1.sol"
    sol.write_text(SOLUTION_WITH_PICKS)
    assert main(["verify", game_file, str(sol)]) == 0
    assert capsys.readouterr().out == "verify: ok\n"


def test_verify_rejects_tampered_solutions(game_file, tmp_path, capsys):
    sol = tmp_path / "bad.sol"
    sol.write_text(SOLUTION_WITH_PICKS.replace("2 0 3;", "2 1 3;"))
    assert main(["verify", game_file, str(sol)]) == 1
    err = capsys.readouterr().err
    assert "vertex 2: claimed winner 1, solved 0" in err


def test_verify_rejects_losing_strategies(game_file, tmp_path, capsys):
    # swap h's pick to the nonexistent edge and to a losing region exit
    sol = tmp_path / "bad2.sol"
    sol.write_text(SOLUTION_WITH_PICKS.replace("3 0 5;", "3 0 4;"))
    assert main(["verify", game_file, str(sol)]) == 1
    assert "strategy edge 3->4 does not exist" in capsys.readouterr().err


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.gm"
    bad.write_text("parity 1;\n0 1 0 ;\n1 0 1 0;\n")
    assert main(["solve", str(bad)]) == 2
    assert "line 2: vertex 0 has an empty successor list" in capsys.readouterr().err
    assert main(["solve", str(bad), "--add-self-loops"]) == 0
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.gm")]) == 2
    assert capsys.readouterr().err != ""


def test_no_inputs_exit_2(capsys):
    assert main(["solve"]) == 2
    assert capsys.readouterr().err == "no input files\n"


def test_glob_selects_files(tmp_path, capsys):
    for i, g in enumerate(corpus(3, seed0=1800)):
        (tmp_path / f"g{i}.gm").write_text(emit_pgsolver(g))
    assert main(["solve", "--glob", str(tmp_path / "*.gm")]) == 0
    out = capsys.readouterr().out
    # one header per file when more than one is solved
    assert out.count("# ") == 3
    assert out.count("paritysol") == 3
    for i in range(3):
        assert f"# {tmp_path / f'g{i}.gm'}" in out


def test_single_file_has_no_header(game_file, capsys):
    assert main(["solve", game_file]) == 0
    assert "#" not in capsys.readouterr().out


def test_gen_is_deterministic(capsys):
    assert main(["gen", "--n", "5", "--c", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "5", "--c", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert first == (
        "parity 4;\n0 2 1 0,2,3;\n1 0 1 0,3,4;\n2 1 1 0,3,4;\n3 2 0 1;\n4 1 0 0;\n"
    )
    assert main(["gen", "--n", "5", "--c", "3", "--seed", "10"]) == 0
    assert capsys.readouterr().out != first


def test_gen_writes_files_and_they_solve(tmp_path, capsys):
    out = tmp_path / "made.gm"
    assert main(["gen", "--n", "6", "--c", "4", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out), "--algo", "bigstep"]) == 0
    assert capsys.readouterr().out.startswith("paritysol 5;")


def test_trace_environment_variable(game_file):
    env = dict(os.environ, PARITY_TRACE="1")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    for algo, expected in [
        ("pm", {
            0: "pm-trace iter=1 rank=(1, 0) added=4 next=(2, 0) rollback=False",
            3: "pm-trace iter=4 rank=(0, 1) added=4 next=(1, 0) rollback=True",
            11: "pm-trace iter=12 rank=TOP added=2 next=None rollback=False",
        }),
        # big-step streams its one dominion run: role-swapped, three counters
        ("bigstep", {
            0: "pm-trace iter=1 rank=(1, 0, 0) added=2 next=(2, 0, 0) rollback=False",
            20: "pm-trace iter=21 rank=TOP added=0 next=None rollback=False",
        }),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "paritysets.cli", "solve", game_file, "--algo", algo],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        lines = [l for l in proc.stderr.splitlines() if l.startswith("pm-trace ")]
        assert len(lines) == max(expected) + 1
        for i, line in expected.items():
            assert lines[i] == line
    # and without the variable the run is quiet
    env.pop("PARITY_TRACE")
    quiet = subprocess.run(
        [sys.executable, "-m", "paritysets.cli", "solve", game_file, "--algo", "pm"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert quiet.returncode == 0
    assert "pm-trace" not in quiet.stderr


def test_too_many_priorities_exit_two(tmp_path, capsys):
    path = tmp_path / "ladder.gm"
    path.write_text(emit_pgsolver(ladder(1200)))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 1200 priorities nest deeper")
