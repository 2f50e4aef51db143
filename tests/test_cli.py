"""End-to-end checks of the command line front end."""

from __future__ import annotations

import gc
import os
import re
import shutil
import subprocess
import sys

import pytest

import paritysets
from paritysets import cli
from paritysets.cli import main
from paritysets.pgsolver import emit_pgsolver
from paritysets.zielonka import RecursionDepthExceeded

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
    with pytest.raises(SystemExit) as exc:
        main(["solve", game_file, "--algo", "bigstep", "--policy", "fixed:-1"])
    assert exc.value.code == 2
    assert "h >= 0" in capsys.readouterr().err
    for text, message in (("fixed:abc", "fixed policy needs an integer h, got 'abc'"),
                          ("fixed:", "fixed policy needs an integer h, got ''"),
                          ("bogus", "argument --policy: unknown policy 'bogus'")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", game_file, "--algo", "bigstep", "--policy", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "_parse_policy" not in err


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
    assert rows["basic_ops"] == "181"
    assert rows["peak_live_sets"] == "24"
    assert float(rows["wall_time_ms"]) >= 0.0


def test_dominion_output(game_file, capsys):
    assert main(["dominion", game_file, "--player", "even", "--h", "1"]) == 0
    assert capsys.readouterr().out == "2 3 4 5 6 7\n"
    assert main(["dominion", game_file, "--player", "odd", "--h", "1"]) == 0
    assert capsys.readouterr().out == "0 1\n"
    assert main(["dominion", game_file, "--player", "even", "--h", "0"]) == 0
    assert capsys.readouterr().out == "\n"


def test_verify_accepts_correct_solutions(game_file, tmp_path, capsys):
    # with both sides' picks, and with only Even's: a side without picks
    # claims its winners only
    for text in (SOLUTION_WITH_PICKS, SOLUTION_WITH_PICKS.replace("1 1 0;", "1 1;")):
        sol = tmp_path / "ex1.sol"
        sol.write_text(text)
        assert main(["verify", game_file, str(sol)]) == 0
        assert capsys.readouterr().out == "verify: ok\n"


def test_verify_rejects_tampered_solutions(game_file, tmp_path, capsys):
    headerless = SOLUTION_WITH_PICKS.replace("paritysol 7;\n", "")
    for text, code, message in [
        (SOLUTION_WITH_PICKS.replace("2 0 3;", "2 1 3;"), 1,
         "vertex 2: claimed winner 1, solved 0"),
        (SOLUTION_WITH_PICKS.replace("0 1;\n", ""), 1, "vertex 0 missing from the solution"),
        # an id the game lacks is reported, not an interpreter error
        (headerless + "99 0;\n", 1, "vertex 99 is not in the game"),
        # with a header, ids above its maximum fail to parse at their line
        (SOLUTION_WITH_PICKS + "99 0;\n", 2,
         "error: line 10: vertex 99 exceeds the header maximum 7"),
        (SOLUTION_WITH_PICKS.replace("2 0 3;", "2 0 99;"), 2,
         "error: line 4: vertex 99 exceeds the header maximum 7"),
    ]:
        sol = tmp_path / "bad.sol"
        sol.write_text(text)
        assert main(["verify", game_file, str(sol)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()


def test_verify_rejects_losing_strategies(game_file, tmp_path, capsys):
    leaving = SOLUTION_WITH_PICKS.replace("2 0 3;", "2 0 1;")
    for text, message in [
        # d's pick along an edge that does not exist
        (SOLUTION_WITH_PICKS.replace("3 0 5;", "3 0 4;"),
         "vertex 3: strategy edge 3->4 does not exist"),
        # c's pick leaves the claimed region
        (leaving, "claimed strategy for EVEN: strategy sends vertex 2 outside the claimed region"),
        # once a side picks anywhere, every vertex it owns in its region needs a pick
        (leaving.replace("3 0 5;", "3 0;"), "vertex 3: no strategy pick for EVEN"),
        (SOLUTION_WITH_PICKS.replace("7 0 2;", "7 0;"), "vertex 7: no strategy pick for EVEN"),
        # a pick where the claimed winner does not move: e is odd's, a is even's
        (SOLUTION_WITH_PICKS.replace("4 0;", "4 0 3;"), "vertex 4: pick where EVEN does not move"),
        (SOLUTION_WITH_PICKS.replace("0 1;", "0 1 1;"), "vertex 0: pick where ODD does not move"),
    ]:
        sol = tmp_path / "bad2.sol"
        sol.write_text(text)
        assert main(["verify", game_file, str(sol)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()


def test_usage_errors_exit_2_with_one_line(game_file, capsys):
    for argv, message in [
        (["dominion", game_file, "--player", "even", "--h", "-1"],
         "error: --h must be a natural number"),
        (["gen", "--n", "0", "--c", "3"], "error: need at least one vertex"),
        (["gen", "--n", "5", "--c", "0"], "error: need at least one priority"),
        (["gen", "--n", "5", "--c", "3", "--min-deg", "0"],
         "error: need 1 <= min_deg <= max_deg"),
        (["gen", "--n", "5", "--c", "3", "--min-deg", "3", "--max-deg", "2"],
         "error: need 1 <= min_deg <= max_deg"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.gm"
    bad.write_text("parity 1;\n0 1 0 ;\n1 0 1 0;\n")
    assert main(["solve", str(bad)]) == 2
    assert "line 2: vertex 0 has an empty successor list" in capsys.readouterr().err
    assert main(["solve", str(bad), "--add-self-loops"]) == 0
    capsys.readouterr()


def test_numbers_past_the_digit_limit_exit_2(game_file, tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads any number of digits")
    big = "1" * (limit + 1)
    bad = tmp_path / "huge.gm"
    bad.write_text(f"0 0 0 {big};\n")
    assert main(["solve", str(bad)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 1: a number has too many digits\n")
    sol = tmp_path / "huge.sol"
    sol.write_text(SOLUTION_WITH_PICKS.replace("2 0 3;", f"2 0 {big};"))
    assert main(["verify", game_file, str(sol)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 4: a number has too many digits\n")


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
    # Out-degrees are capped at n at both ends of their range.
    assert main(["gen", "--n", "2", "--c", "3", "--min-deg", "3", "--max-deg", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split()[3] for line in captured.out.splitlines()[1:]] == ["0,1;", "0,1;"]


def test_gen_writes_files_and_they_solve(tmp_path, capsys):
    out = tmp_path / "made.gm"
    assert main(["gen", "--n", "6", "--c", "4", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out), "--algo", "bigstep"]) == 0
    assert capsys.readouterr().out.startswith("paritysol 5;")


def test_trace_environment_variable(game_file):
    env = dict(os.environ, PARITY_TRACE="1")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    for flags, expected in [
        (["--algo", "pm"], {
            0: "pm-trace iter=1 rank=(1, 0) added=4 next=(2, 0) rollback=False",
            3: "pm-trace iter=4 rank=(0, 1) added=4 next=(1, 0) rollback=True",
            11: "pm-trace iter=12 rank=TOP added=2 next=None rollback=False",
        }),
        # with strategies, pm also streams its role-swapped odd-player run,
        # which covers only the odd region {0, 1}: one counter, two iterations
        (["--algo", "pm", "--strategies"], {
            0: "pm-trace iter=1 rank=(1, 0) added=4 next=(2, 0) rollback=False",
            11: "pm-trace iter=12 rank=TOP added=2 next=None rollback=False",
            12: "pm-trace iter=1 rank=(1,) added=1 next=TOP rollback=False",
            13: "pm-trace iter=2 rank=TOP added=0 next=None rollback=False",
        }),
        # big-step streams its one dominion run: role-swapped, three counters
        (["--algo", "bigstep"], {
            0: "pm-trace iter=1 rank=(1, 0, 0) added=2 next=(2, 0, 0) rollback=False",
            20: "pm-trace iter=21 rank=TOP added=0 next=None rollback=False",
        }),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "paritysets.cli", "solve", game_file, *flags],
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


def test_many_priorities_solve_and_a_depth_error_exits_two(tmp_path, capsys, monkeypatch):
    # 1200 nested priorities, more than Python's default stack of 1000
    # frames, solve: the recursion runs on an explicit stack.
    path = tmp_path / "ladder.gm"
    path.write_text(emit_pgsolver(ladder(1200)))
    assert main(["solve", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "paritysol 1199;"
    assert [line.split()[1] for line in lines[1:]] == ["0;"] * 1200

    # The depth guard's error, were it raised, is one error line and exit 2.
    def too_deep(*args, **kwargs):
        raise RecursionDepthExceeded("recursion exceeded 3 levels")

    monkeypatch.setattr(cli, "classic_parity", too_deep)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: recursion exceeded 3 levels\n"


def _output(argv, capsys, fresh: bool):
    """Exit status (2 for a usage error), stdout and stderr of one main()
    call, the timing row left out; `fresh` builds the parser anew first."""
    if fresh:
        cli._parser.cache_clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = "".join(l for l in captured.out.splitlines(True) if not l.startswith("wall_time_ms"))
    return code, out, captured.err


def test_cached_parser_leaks_nothing_between_calls(game_file, capsys):
    calls = [
        ["solve", game_file, "--algo", "bigstep", "--policy", "fixed:2"],
        ["solve", game_file],
        ["stats", game_file],
        ["solve", game_file, "--algo", "nope"],
        ["solve", game_file],
    ]
    want = [_output(argv, capsys, fresh=True) for argv in calls]
    assert want[3][0] == 2 and "invalid choice" in want[3][2]
    assert want[1][1] == "paritysol 7;\n0 1;\n1 1;\n2 0;\n3 0;\n4 0;\n5 0;\n6 0;\n7 0;\n"
    assert [_output(argv, capsys, fresh=False) for argv in calls] == want
    assert cli._parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    code = "import paritysets.cli as c; print(c._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "0\n"


def test_huge_priorities_solve(tmp_path, capsys):
    # normalization takes one step per distinct priority, not per unit of it
    path = tmp_path / "huge.gm"
    path.write_text(f"0 {10**12} 0 1;\n1 {10**12 + 1} 1 0;\n2 {10**12 + 4} 0 2,0;\n")
    for algo in ("zielonka", "pm", "bigstep"):
        assert main(["solve", str(path), "--algo", algo, "--strategies"]) == 0
        assert capsys.readouterr().out == "paritysol 2;\n0 1;\n1 1 0;\n2 0 2;\n"


def test_main_pauses_the_collector_and_restores_it(game_file, capsys, monkeypatch):
    seen = []
    run = cli._run

    def watched(game, args):
        seen.append(gc.isenabled())
        return run(game, args)

    monkeypatch.setattr(cli, "_run", watched)
    assert gc.isenabled()
    gc.collect()
    assert main(["solve", game_file]) == 0
    assert gc.isenabled()
    # The solve's set space, a cycle with its pinned sets, went before main returned.
    assert gc.collect() == 0
    assert main(["solve", "missing.gm"]) == 2
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(["solve", game_file]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]
    capsys.readouterr()


def _oldest_supported_python():
    """(interpreter, environment) of the oldest Python that `pyproject.toml`
    supports, or None when no such interpreter starts."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as f:
        major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', f.read()).groups()
    exe = shutil.which(f"python{major}.{minor}")
    if exe is None:
        return None
    # pyenv's shims run the installed version this names by prefix; other
    # interpreters ignore it. Only the package's own sources go on the path,
    # not this interpreter's library directories.
    src = os.path.dirname(os.path.dirname(os.path.abspath(paritysets.__file__)))
    env = dict(os.environ, PYENV_VERSION=f"{major}.{minor}", PYTHONPATH=src)
    probe = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                           capture_output=True, text=True, env=env)
    if probe.returncode or probe.stdout.split() != [major, minor]:
        return None
    return exe, env


def test_solves_alike_on_the_oldest_supported_python(game_file):
    oldest = _oldest_supported_python()
    if oldest is None:
        pytest.skip("no interpreter of the oldest supported Python starts")
    exe, env = oldest
    for algo in ("zielonka", "pm", "bigstep"):
        argv = ["-m", "paritysets.cli", "solve", game_file, "--algo", algo]
        got, want = (subprocess.run([python, *argv], capture_output=True, text=True, env=env)
                     for python in (exe, sys.executable))
        assert got.returncode == 0, got.stderr
        assert (got.stdout, got.stderr) == (want.stdout, want.stderr)
