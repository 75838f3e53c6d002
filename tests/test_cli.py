import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import maxleaf
from maxleaf import parse_digraph, write_digraph
from maxleaf.cli import main
from conftest import cycle, double_cycle

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, monkeypatch, argv, stdin: str = ""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trips(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["gen", "--family", "cycle", "--n", "5"])
    assert code == 0 and err == ""
    d = parse_digraph(out)
    assert d == cycle(5)
    assert write_digraph(d) == out


def test_solve_cycle_file(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c5.dig"
    p.write_text(write_digraph(cycle(5)))
    code, out, err = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "2", str(p)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is False and payload["value"] == 1
    assert payload["witness"] is None
    # reruns are byte-identical
    code2, out2, _ = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "2", str(p)]
    )
    assert out2 == out


def test_solve_from_stdin_pipe(capsys, monkeypatch):
    text = write_digraph(double_cycle(4))
    code, out, _ = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "2"], stdin=text
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["witness"]["leaves"] >= 2


def test_solve_dmlot_switch(capsys, monkeypatch):
    text = "p dig 6 4\na 1 2\na 1 3\na 1 4\na 5 6\n"
    code, out, _ = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlot", "--k", "3"], stdin=text
    )
    assert json.loads(out)["answer"] is True
    code2, out2, _ = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "3"], stdin=text
    )
    assert json.loads(out2)["answer"] is False


def test_decompose_then_validate(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c5.dig"
    p.write_text(write_digraph(cycle(5)))
    code, out, _ = run_cli(capsys, monkeypatch, ["decompose", "--k", "2", str(p)])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"]["type"] == "path-decomposition"
    code2, out2, _ = run_cli(
        capsys, monkeypatch, ["validate", "--against", str(p)], stdin=out
    )
    assert code2 == 0
    verdict = json.loads(out2)
    assert verdict["valid"] is True and verdict["kind"] == "path-decomposition"


def test_validate_wrong_host_still_exits_zero(tmp_path, capsys, monkeypatch):
    star = tmp_path / "star.dig"
    star.write_text("p dig 4 3\na 1 2\na 1 3\na 1 4\n")
    code, out, _ = run_cli(capsys, monkeypatch, ["decompose", "--k", "3", str(star)])
    assert json.loads(out)["outcome"]["type"] == "out-tree"
    other = tmp_path / "c4.dig"
    other.write_text(write_digraph(cycle(4)))
    code2, out2, _ = run_cli(
        capsys, monkeypatch, ["validate", "--against", str(other)], stdin=out
    )
    assert code2 == 0
    verdict = json.loads(out2)
    assert verdict["valid"] is False and verdict["errors"]


def test_decompose_dot_written_only_for_witness(tmp_path, capsys, monkeypatch):
    star = tmp_path / "star.dig"
    star.write_text("p dig 5 4\na 1 2\na 1 3\na 1 4\na 1 5\n")
    dot = tmp_path / "w.dot"
    code, out, _ = run_cli(
        capsys, monkeypatch, ["decompose", "--k", "3", "--dot", str(dot), str(star)]
    )
    assert code == 0
    assert dot.read_text().startswith("digraph out_tree {")
    c = tmp_path / "c5.dig"
    c.write_text(write_digraph(cycle(5)))
    dot2 = tmp_path / "no.dot"
    code2, _, _ = run_cli(
        capsys, monkeypatch, ["decompose", "--k", "2", "--dot", str(dot2), str(c)]
    )
    assert code2 == 0
    assert not dot2.exists()


def test_oracle_command(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c5.dig"
    p.write_text(write_digraph(cycle(5)))
    code, out, _ = run_cli(capsys, monkeypatch, ["oracle", str(p)])
    assert code == 0
    payload = json.loads(out)
    assert payload["spanning"]["value"] == 1
    assert payload["subtree"]["value"] == 1
    code2, _, err = run_cli(capsys, monkeypatch, ["oracle", "--max-n", "4", str(p)])
    assert code2 == 2
    assert json.loads(err)["error"] == "input"


def test_usage_errors_exit_one(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["decompose", "--k", "1"], stdin="")
    assert code == 1
    assert json.loads(err)["error"] == "usage"
    code2, _, err2 = run_cli(capsys, monkeypatch, ["solve", "--k", "2"])
    assert code2 == 1 and json.loads(err2)["error"] == "usage"
    code3, _, err3 = run_cli(capsys, monkeypatch, ["gen", "--family", "nope", "--n", "3"])
    assert code3 == 1
    code4, _, err4 = run_cli(capsys, monkeypatch, ["gen", "--family", "cycle", "--n", "1"])
    assert code4 == 1 and json.loads(err4)["error"] == "usage"
    code5, _, err5 = run_cli(capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "0"])
    assert code5 == 1


def test_solve_rejects_bad_budgets_as_usage(capsys, monkeypatch):
    text = write_digraph(cycle(5))
    solve = ["solve", "--problem", "dmlob", "--k", "2"]
    for flag, value in (("--budget-dp", "0"), ("--budget-bnb", "-1")):
        code, out, err = run_cli(capsys, monkeypatch, solve + [flag, value], stdin=text)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "usage"
    code, out, _ = run_cli(
        capsys, monkeypatch, solve + ["--budget-dp", "1", "--budget-bnb", "0"], stdin=text
    )
    assert code == 0 and json.loads(out)["value"] == 1


def test_input_errors_exit_two(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "2", "/no/such/file"]
    )
    assert code == 2 and json.loads(err)["error"] == "input"
    code2, _, err2 = run_cli(
        capsys, monkeypatch, ["solve", "--problem", "dmlob", "--k", "2"], stdin="junk\n"
    )
    assert code2 == 2 and "line 1" in json.loads(err2)["message"]
    # decompose on a digraph with no out-branching is an input problem
    code3, _, err3 = run_cli(
        capsys,
        monkeypatch,
        ["decompose", "--k", "2"],
        stdin="p dig 4 2\na 1 3\na 2 3\n",
    )
    assert code3 == 2
    assert "source strong components" in json.loads(err3)["message"]
    # bad JSON artifact for validate
    against = tmp_path / "c3.dig"
    against.write_text(write_digraph(cycle(3)))
    code4, _, err4 = run_cli(
        capsys, monkeypatch, ["validate", "--against", str(against)], stdin="{not json"
    )
    assert code4 == 2


def test_check_bounds_csv(capsys, monkeypatch):
    argv = [
        "check-bounds",
        "--family",
        "tournament-random",
        "--n",
        "7",
        "--seeds",
        "1:6",
    ]
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("instance_id,family,n,seed")
    assert len(lines) == 7
    assert all(",true," in ln for ln in lines[1:])
    code2, out2, _ = run_cli(capsys, monkeypatch, argv)
    assert out2 == out


def test_check_bounds_seed_syntax_error(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        monkeypatch,
        ["check-bounds", "--family", "cycle", "--n", "4", "--seeds", "5:2"],
    )
    assert code == 1 and json.loads(err)["error"] == "usage"


def test_out_flag_writes_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.dig"
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["gen", "--family", "out-star", "--n", "4", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert parse_digraph(target.read_text()).out_degree(0) == 3


def test_multiple_inputs_keep_argument_order(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.dig"
    b = tmp_path / "b.dig"
    a.write_text(write_digraph(cycle(4)))
    b.write_text(write_digraph(double_cycle(4)))
    argv = ["solve", "--problem", "dmlob", "--k", "2", str(a), str(b)]
    code, out, _ = run_cli(capsys, monkeypatch, argv)
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [ln["answer"] for ln in lines] == [False, True]


def _declared_entry_point(script: str = "maxleaf") -> str:
    """Return the ``module:function`` that pyproject.toml declares for ``script``."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: scan the [project.scripts] table
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, _, value = line.partition("=")
                scripts[key.strip().strip("\"'")] = value.strip().strip("\"'")
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    return scripts[script]


def test_console_script_pipe():
    # Start the declared entry point the way pip's generated wrapper does, so
    # the pipe runs without an install; an installed script is run as well.
    module, _, function = _declared_entry_point().partition(":")
    entry = f"import sys; from {module} import {function}; sys.exit({function}())"
    commands = [[sys.executable, "-c", entry]]
    installed = shutil.which("maxleaf")
    if installed:
        commands.append([installed])
    # The child imports the same maxleaf as this process, whatever the cwd.
    env = dict(os.environ)
    src = str(Path(maxleaf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for command in commands:
        gen = subprocess.run(
            command + ["gen", "--family", "double-cycle", "--n", "4"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert gen.returncode == 0, (command, gen.stderr)
        solve = subprocess.run(
            command + ["solve", "--problem", "dmlob", "--k", "2"],
            input=gen.stdout,
            capture_output=True,
            text=True,
            env=env,
        )
        assert solve.returncode == 0, (command, solve.stderr)
        assert json.loads(solve.stdout)["answer"] is True


def test_console_script_dmlob_outside_family_is_quiet_and_spanning():
    # 0->1, 1->2, 2->1, 0->3, 1->3 (0-indexed): no arc enters vertex 2 from
    # outside its strong component {1, 2}, so in_L_sufficient is false.
    module, _, function = _declared_entry_point().partition(":")
    entry = f"import sys; from {module} import {function}; sys.exit({function}())"
    env = dict(os.environ)
    src = str(Path(maxleaf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    solve = subprocess.run(
        [sys.executable, "-c", entry, "solve", "--problem", "dmlob", "--k", "2"],
        input="p dig 4 5\na 1 2\na 2 3\na 3 2\na 1 4\na 2 4\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert solve.returncode == 0 and solve.stderr == ""
    witness = json.loads(solve.stdout)["witness"]
    covered = {witness["root"], *map(int, witness["parent"])}
    assert covered == {1, 2, 3, 4}
