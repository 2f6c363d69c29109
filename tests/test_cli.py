import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symchar import character_table, load_table, mn_char
from symchar.characters import table_cache_path
from symchar.cli import (
    EXIT_BRUTE_FORCE_LIMIT,
    EXIT_INVALID_INPUT,
    EXIT_IO_FAILURE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SYMCHAR_CACHE", raising=False)


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "cache")


def test_chartable_csv(cache, capsys):
    code = main(["--cache-dir", cache, "chartable", "3", "--format", "csv"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == ",3,2.1,1.1.1\n3,1,1,1\n2.1,-1,0,2\n1.1.1,1,-1,1\n"


def test_chartable_pretty(cache, capsys):
    code = main(["--cache-dir", cache, "chartable", "3"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["3", "2.1", "1.1.1"]
    assert lines[1].split() == ["3", "1", "1", "1"]
    assert lines[2].split() == ["2.1", "-1", "0", "2"]
    assert lines[3].split() == ["1.1.1", "1", "-1", "1"]


def test_chartable_json(cache, capsys):
    code = main(["--cache-dir", cache, "chartable", "4", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "1"
    assert payload["n"] == "4"
    assert payload["order"][0] == ["4"]
    assert payload["order"][-1] == ["1", "1", "1", "1"]
    # every leaf is a decimal string, never a JSON number
    assert all(isinstance(v, str) for row in payload["values"] for v in row)
    assert payload["values"][0] == ["1", "1", "1", "1", "1"]


def test_chartable_out_file_round_trips(cache, tmp_path, capsys):
    target = tmp_path / "t5.json"
    code = main(["--cache-dir", cache, "chartable", "5", "--format", "json", "--out", str(target)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert load_table(target) == character_table(5)


def test_chartable_cache_round_trip_is_byte_stable(cache, capsys):
    main(["--cache-dir", cache, "chartable", "6", "--format", "json"])
    first = capsys.readouterr().out
    assert table_cache_path(cache, 6).exists()
    # second run serves the table from the cache file
    main(["--cache-dir", cache, "chartable", "6", "--format", "json"])
    assert capsys.readouterr().out == first


def test_chartable_corrupt_cache_is_loud(cache, capsys):
    path = table_cache_path(cache, 3)
    path.parent.mkdir(parents=True)
    path.write_text("{this is not json", encoding="utf-8")
    code = main(["--cache-dir", cache, "chartable", "3"])
    assert code == EXIT_IO_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_chartable_out_to_missing_dir_is_io_failure(cache, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "t.json"
    code = main(["--cache-dir", cache, "chartable", "3", "--out", str(target)])
    assert code == EXIT_IO_FAILURE
    assert "error:" in capsys.readouterr().err


def test_cache_dir_env_var(cache, tmp_path, monkeypatch, capsys):
    envdir = tmp_path / "from-env"
    monkeypatch.setenv("SYMCHAR_CACHE", str(envdir))
    assert main(["chartable", "3"]) == EXIT_OK
    capsys.readouterr()
    assert table_cache_path(envdir, 3).exists()
    # an explicit flag wins over the environment
    assert main(["--cache-dir", cache, "chartable", "4"]) == EXIT_OK
    capsys.readouterr()
    assert table_cache_path(cache, 4).exists()
    assert not table_cache_path(envdir, 4).exists()


def test_cache_dir_default_is_cwd_local(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["chartable", "3"]) == EXIT_OK
    capsys.readouterr()
    assert table_cache_path(tmp_path / ".symchar-cache", 3).exists()


def test_chartable_cache_of_another_n_is_io_failure(cache, capsys):
    assert main(["--cache-dir", cache, "chartable", "8"]) == EXIT_OK
    capsys.readouterr()
    table_cache_path(cache, 9).write_bytes(table_cache_path(cache, 8).read_bytes())
    assert main(["--cache-dir", cache, "chartable", "9"]) == EXIT_IO_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=8" in captured.err


def test_chartable_failed_out_write_keeps_the_old_file(cache, tmp_path, monkeypatch, capsys):
    target = tmp_path / "t.csv"
    assert main(["--cache-dir", cache, "chartable", "3", "--format", "csv", "--out", str(target)]) == EXIT_OK
    before = target.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    assert main(["--cache-dir", cache, "chartable", "4", "--format", "csv", "--out", str(target)]) == EXIT_IO_FAILURE
    assert "interrupted" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "t.csv"]


def test_removed_options_are_usage_errors(cache):
    for argv in (
        ["--cache-dir", cache, "--workers", "2", "chartable", "3"],
        ["--cache-dir", cache, "vanishing-pairs", "7", "--no-prune"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _run_module(module, cache, cwd):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "SYMCHAR_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, "--cache-dir", cache, "chartable", "3", "--format", "csv"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_module_entry_point_runs_the_command(cache, tmp_path):
    done = _run_module("symchar.cli", cache, tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == ",3,2.1,1.1.1\n3,1,1,1\n2.1,-1,0,2\n1.1.1,1,-1,1\n"


def test_package_entry_point_runs_the_command(cache, tmp_path):
    done = _run_module("symchar", cache, tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == ",3,2.1,1.1.1\n3,1,1,1\n2.1,-1,0,2\n1.1.1,1,-1,1\n"


def test_chartable_rejects_nonpositive_n():
    with pytest.raises(SystemExit) as exc:
        main(["chartable", "0"])
    assert exc.value.code == 2


def test_eval_mn(cache, capsys):
    code = main(["--cache-dir", cache, "eval", "--lambda", "6,1", "--mu", "7"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "-1\n"


def test_eval_accepts_power_sugar(cache, capsys):
    code = main(["--cache-dir", cache, "eval", "--lambda", "6,1", "--mu", "5,1^2"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "1\n"


def test_eval_class_with_a_thousand_parts(cache, capsys):
    # one MN step per part of mu: far deeper than Python's recursion limit
    code = main(["--cache-dir", cache, "eval", "--lambda", "2,1^1100", "--mu", "1^1102"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "1101\n"


def test_eval_methods_agree(cache, capsys):
    for lam, mu in (("6,1", "4,2,1"), ("5,2", "3,2,1,1"), ("4,2,1", "3,2,2")):
        values = []
        for method in ("mn", "formula"):
            code = main(["--cache-dir", cache, "eval", "--lambda", lam, "--mu", mu, "--method", method])
            assert code == EXIT_OK
            values.append(capsys.readouterr().out)
        assert values[0] == values[1]


def test_eval_recursion_hook_and_two_row(cache, capsys):
    code = main(["--cache-dir", cache, "eval", "--lambda", "4,1,1", "--mu", "3,2,1", "--method", "recursion"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"{mn_char((4, 1, 1), (3, 2, 1))}\n"
    code = main(["--cache-dir", cache, "eval", "--lambda", "4,2", "--mu", "2,2,1,1", "--method", "recursion"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"{mn_char((4, 2), (2, 2, 1, 1))}\n"


def test_eval_rejections(cache, capsys):
    # lambda and mu of different sizes
    assert main(["--cache-dir", cache, "eval", "--lambda", "6,1", "--mu", "6"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    # malformed partition text
    assert main(["--cache-dir", cache, "eval", "--lambda", "x", "--mu", "3"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    # no closed form covers three equal rows
    assert (
        main(["--cache-dir", cache, "eval", "--lambda", "2,2,2", "--mu", "6", "--method", "formula"])
        == EXIT_INVALID_INPUT
    )
    capsys.readouterr()
    # recursion needs a hook or a two-row shape
    assert (
        main(["--cache-dir", cache, "eval", "--lambda", "2,2,2", "--mu", "6", "--method", "recursion"])
        == EXIT_INVALID_INPUT
    )
    assert "error:" in capsys.readouterr().err


def test_vanishing_pairs_json_n7(cache, capsys):
    code = main(["--cache-dir", cache, "vanishing-pairs", "7", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "n": "7",
        "k_value": "2",
        "pairs": [[["7"], ["6", "1"]]],
        "matches_theorem": True,
        "vacuous": False,
    }


def test_vanishing_pairs_json_vacuous(cache, capsys):
    main(["--cache-dir", cache, "vanishing-pairs", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["vacuous"] is True
    assert payload["matches_theorem"] is None
    assert payload["k_value"] == "1"
    assert payload["pairs"] == [[["2"], ["2"]], [["2"], ["1", "1"]], [["1", "1"], ["1", "1"]]]


def test_vanishing_pairs_csv(cache, capsys):
    main(["--cache-dir", cache, "vanishing-pairs", "7", "--format", "csv"])
    assert capsys.readouterr().out == "mu,nu\n7,6.1\n"


def test_vanishing_pairs_pretty(cache, capsys):
    main(["--cache-dir", cache, "vanishing-pairs", "3"])
    out = capsys.readouterr().out
    assert "k_value: 1" in out
    assert "[degenerate]" in out
    assert "matches theorem: n/a" in out
    main(["--cache-dir", cache, "vanishing-pairs", "8"])
    out = capsys.readouterr().out
    assert "(8) (7,1)" in out
    assert "matches theorem: yes" in out


def test_structure_constant(cache, capsys):
    code = main(["--cache-dir", cache, "structure-constant", "--mu", "2,1", "--nu", "2,1", "--gamma", "1,1,1"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "3\n"


def test_structure_constant_verify(cache, capsys):
    code = main(
        ["--cache-dir", cache, "structure-constant", "--mu", "3", "--nu", "2,1", "--gamma", "2,1", "--verify"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "2\n2\n"


def test_structure_constant_verify_respects_limit(cache, capsys):
    argv = [
        "--cache-dir", cache, "--brute-force-limit", "5",
        "structure-constant", "--mu", "6", "--nu", "6", "--gamma", "5,1", "--verify",
    ]
    assert main(argv) == EXIT_BRUTE_FORCE_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    # without --verify the exact formula still answers at any n
    assert main(argv[:-1]) == EXIT_OK
    assert capsys.readouterr().out.strip().isdigit()


def test_structure_constant_mismatch_exit_code(cache, capsys, monkeypatch):
    import symchar.cli as cli_module

    monkeypatch.setattr(cli_module, "structure_constant_bruteforce", lambda *a, **k: 10**9)
    code = main(
        ["--cache-dir", cache, "structure-constant", "--mu", "3", "--nu", "2,1", "--gamma", "2,1", "--verify"]
    )
    assert code == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == "2\n1000000000\n"
    assert "mismatch" in captured.err


def test_structure_constant_size_mismatch(cache, capsys):
    code = main(["--cache-dir", cache, "structure-constant", "--mu", "3", "--nu", "2,1", "--gamma", "2,2"])
    assert code == EXIT_INVALID_INPUT
    assert "error:" in capsys.readouterr().err


def test_verify_theorem(cache, capsys):
    code = main(["--cache-dir", cache, "verify", "--suite", "theorem", "--n-min", "7", "--n-max", "8"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS theorem n=7" in out
    assert "PASS theorem n=8" in out


def test_verify_theorem_skips_small_n(cache, capsys):
    code = main(["--cache-dir", cache, "verify", "--suite", "theorem", "--n-min", "5", "--n-max", "7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "SKIP theorem n=5" in out
    assert "SKIP theorem n=6" in out
    assert "PASS theorem n=7" in out


def test_verify_orthogonality(cache, capsys):
    code = main(["--cache-dir", cache, "verify", "--suite", "orthogonality", "--n-min", "3", "--n-max", "6"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS orthogonality") == 4
    assert "FAIL" not in out


def test_verify_formulas(cache, capsys):
    code = main(["--cache-dir", cache, "verify", "--suite", "formulas", "--n-min", "3", "--n-max", "8"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.count("PASS formulas") == 6


def test_verify_structure(cache, capsys):
    code = main(["--cache-dir", cache, "verify", "--suite", "structure", "--n-min", "3", "--n-max", "5"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.count("PASS structure") == 3


def test_verify_structure_skips_beyond_limit(cache, capsys):
    code = main(
        ["--cache-dir", cache, "--brute-force-limit", "5", "verify", "--suite", "structure", "--n-min", "5", "--n-max", "6"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS structure n=5" in out
    assert "SKIP structure n=6" in out


def test_verify_rejects_bad_range(cache, capsys):
    assert main(["--cache-dir", cache, "verify", "--n-min", "9", "--n-max", "7"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    assert main(["--cache-dir", cache, "verify", "--n-min", "2", "--n-max", "5"]) == EXIT_INVALID_INPUT
    assert "error:" in capsys.readouterr().err
