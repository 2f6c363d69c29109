import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import pretty_table_oracle
from symchar import CharTable, character_table, load_table, mn_char, save_table
from symchar.characters import table_cache_path, table_from_json
from symchar.cli import (
    EXIT_BRUTE_FORCE_LIMIT,
    EXIT_INVALID_INPUT,
    EXIT_IO_FAILURE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _render_table_pretty,
    main,
)
from symchar.formulas import NearHookShape


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
    assert capsys.readouterr().out == (
        "        3  2.1  1.1.1\n"
        "3       1    1      1\n"
        "2.1    -1    0      2\n"
        "1.1.1   1   -1      1\n"
    )


def test_chartable_pretty_matches_the_format_string_layout(cache, capsys, table_for):
    # cold: the table just built; warm: the table the cache decoder returned;
    # n = 20 has columns six digits wide and negative
    for n in [*range(1, 13), 20]:
        expected = pretty_table_oracle(table_for(n).order, table_for(n).values)
        for run in ("cold", "warm"):
            assert main(["--cache-dir", cache, "chartable", str(n)]) == EXIT_OK
            assert capsys.readouterr().out == expected, (n, run)


@pytest.mark.parametrize(
    "values",
    [
        # column (3) is widest at its min, -16, not at its max, 9
        ((9, 1, 1), (-16, 0, 2), (1, -1, 1)),
        # column (1,1,1) is narrower than its label in every row
        ((1, 1, 1), (-1, 0, 2), (12345, -1, 1)),
    ],
    ids=["negative-widest", "label-widest"],
)
def test_chartable_pretty_column_widths(values):
    table = CharTable(n=3, order=((3,), (2, 1), (1, 1, 1)), values=values)
    assert _render_table_pretty(table) == pretty_table_oracle(table.order, table.values)


def test_chartable_json(cache, capsys):
    code = main(["--cache-dir", cache, "chartable", "4", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "2"
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
    assert table_from_json(target.read_text(encoding="utf-8")) == character_table(5)


def test_chartable_cache_round_trip_is_byte_stable(cache, capsys):
    main(["--cache-dir", cache, "chartable", "6", "--format", "json"])
    first = capsys.readouterr().out
    assert table_cache_path(cache, 6).exists()
    # second run serves the table from the cache file
    main(["--cache-dir", cache, "chartable", "6", "--format", "json"])
    assert capsys.readouterr().out == first


def test_chartable_json_encodes_the_table_once(cache, capsys, monkeypatch):
    # on a cache miss only stdout is JSON: the cache file holds the int64 rows
    import symchar.characters as characters_module
    import symchar.cli as cli_module

    calls = []
    encode = characters_module.table_to_json

    def counted(table):
        calls.append(table.n)
        return encode(table)

    for module in (characters_module, cli_module):
        monkeypatch.setattr(module, "table_to_json", counted, raising=False)
    assert main(["--cache-dir", cache, "chartable", "6", "--format", "json"]) == EXIT_OK
    assert calls == [6]
    out = capsys.readouterr().out
    assert out == encode(character_table(6))
    assert load_table(table_cache_path(cache, 6)) == character_table(6)
    # on a hit the loaded table is encoded once, to the same bytes
    calls.clear()
    assert main(["--cache-dir", cache, "chartable", "6", "--format", "json"]) == EXIT_OK
    assert calls == [6]
    assert capsys.readouterr().out == out


def test_chartable_corrupt_cache_is_loud(cache, capsys):
    path = table_cache_path(cache, 3)
    path.parent.mkdir(parents=True)
    path.write_text("{this is not json", encoding="utf-8")
    code = main(["--cache-dir", cache, "chartable", "3"])
    assert code == EXIT_IO_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def _tampered_s5(path: Path) -> bytes:
    # chi_(4,1)((5)) rewritten from -1 to 7 in the int64 body, digest kept
    save_table(character_table(5), path)
    data = path.read_bytes()
    offset = 16 + 8 * 7  # past the header, at row 1, column 0
    return data[:offset] + (7).to_bytes(8, "little", signed=True) + data[offset + 8 :]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b"[" * 200_000, None],
    ids=["not-utf8", "deeply-nested", "tampered"],
)
def test_unreadable_cache_file_is_io_failure(cache, capsys, content):
    path = table_cache_path(cache, 5)
    path.parent.mkdir(parents=True)
    path.write_bytes(_tampered_s5(path) if content is None else content)
    for argv in (["chartable", "5"], ["vanishing-pairs", "5", "--format", "csv"]):
        assert main(["--cache-dir", cache, *argv]) == EXIT_IO_FAILURE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


def test_chartable_out_to_missing_dir_is_io_failure(cache, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "t.json"
    code = main(["--cache-dir", cache, "chartable", "3", "--out", str(target)])
    assert code == EXIT_IO_FAILURE
    assert "error:" in capsys.readouterr().err


def test_out_write_errors_name_the_requested_path(cache, tmp_path, capsys):
    # a missing directory fails at the temporary file, a directory at the rename
    for target in (tmp_path / "missing_dir" / "t.txt", tmp_path / "cache"):
        assert main(["--cache-dir", cache, "chartable", "3", "--out", str(target)]) == EXIT_IO_FAILURE
        err = capsys.readouterr().err
        assert repr(str(target)) in err, err
        assert ".tmp" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [table_cache_path(cache, 3).name]


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


def _run_python(args, cwd):
    """A fresh interpreter that imports symchar from this checkout's src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "SYMCHAR_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def _run_module(module, cache, cwd):
    return _run_python(
        ["-m", module, "--cache-dir", cache, "chartable", "3", "--format", "csv"], cwd
    )


def test_module_entry_point_runs_the_command(cache, tmp_path):
    done = _run_module("symchar.cli", cache, tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == ",3,2.1,1.1.1\n3,1,1,1\n2.1,-1,0,2\n1.1.1,1,-1,1\n"


def test_package_entry_point_runs_the_command(cache, tmp_path):
    done = _run_module("symchar", cache, tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == ",3,2.1,1.1.1\n3,1,1,1\n2.1,-1,0,2\n1.1.1,1,-1,1\n"


# --- start-up: each request imports only the modules its command uses ------

# Runs main(argv) in the interpreter, then prints, as its last line, the
# exit code, the loaded symchar.* modules, whether hashlib is loaded, and
# whether the import of symchar.cli and main loaded dataclasses.
_FOOTPRINT = """
import json, sys
had_dataclasses = "dataclasses" in sys.modules
from symchar.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:  # --help
    code = e.code
added_dataclasses = "dataclasses" in sys.modules and not had_dataclasses
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("symchar.")), "hashlib" in sys.modules,
                  added_dataclasses]))
"""

_FORMULAS = ["symchar.cli", "symchar.formulas", "symchar.partitions"]
_TABLE = ["symchar.characters", "symchar.cli", "symchar.partitions"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--help"], ["symchar.cli", "symchar.partitions"]),
        (["eval", "--lambda", "6,1", "--mu", "4,3", "--method", "formula"], _FORMULAS),
        (["eval", "--lambda", "6,1", "--mu", "4,3", "--method", "recursion"], _FORMULAS),
        (["eval", "--lambda", "6,1", "--mu", "4,3", "--method", "mn"], _TABLE),
        (["chartable", "3"], _TABLE),
        (["vanishing-pairs", "7"], [*_TABLE, "symchar.vanishing"]),
        (
            ["structure-constant", "--mu", "3", "--nu", "2,1", "--gamma", "2,1", "--verify"],
            ["symchar.characters", "symchar.class_algebra", "symchar.cli", "symchar.partitions",
             "symchar.vanishing"],
        ),
        (
            ["verify", "--n-min", "3", "--n-max", "3"],
            ["symchar.characters", "symchar.class_algebra", "symchar.cli", "symchar.formulas",
             "symchar.partitions", "symchar.vanishing"],
        ),
    ],
    ids=[
        "help", "eval-formula", "eval-recursion", "eval-mn", "chartable", "vanishing-pairs",
        "structure-constant", "verify",
    ],
)
def test_request_imports_only_its_modules(cache, tmp_path, argv, modules):
    done = _run_python(["-c", _FOOTPRINT, "--cache-dir", cache, *argv], tmp_path)
    code, loaded, hashlib_loaded, added_dataclasses = json.loads(done.stdout.splitlines()[-1])
    assert code == EXIT_OK, done.stderr
    assert loaded == modules
    assert not added_dataclasses  # it imports inspect: 10-15 ms of start-up
    if argv[0] in ("--help", "eval"):
        assert not hashlib_loaded


def test_table_requests_never_import_json(tmp_path):
    # a cold build and save, then a warm load: the cache holds no JSON
    script = (
        "import sys; from symchar.characters import character_table\n"
        "cold = character_table(5, cache_dir=sys.argv[1])\n"
        "assert character_table(5, cache_dir=sys.argv[1]) == cold\n"
        "print('json' in sys.modules)"
    )
    done = _run_python(["-c", script, str(tmp_path / "cache")], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["chartable_v3_5.bin"]


def test_import_symchar_loads_no_submodule(tmp_path):
    script = 'import sys, symchar; print([m for m in sys.modules if m.startswith("symchar.")])'
    done = _run_python(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_package_exports_are_the_submodule_objects():
    import importlib

    import symchar

    modules = [
        importlib.import_module(f"symchar.{name}")
        for name in ("characters", "class_algebra", "formulas", "partitions", "vanishing")
    ]
    namespace = {}
    exec("from symchar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(symchar.__all__)
    for name in symchar.__all__:
        owners = [vars(module)[name] for module in modules if name in vars(module)]
        assert owners and all(obj is namespace[name] for obj in owners), name
    assert not hasattr(symchar, "no_such_name")


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


def test_eval_refuses_a_partition_past_the_size_budget(cache, capsys):
    # refused while parsing, before "1^99999999" becomes a 10^8-tuple
    code = main(["--cache-dir", cache, "eval", "--lambda", "1^99999999", "--mu", "99999999"])
    assert code == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size budget" in captured.err


def test_eval_methods_agree(cache, capsys):
    # the last four are the smallest n of their shapes; in 1,1 and 2,2 the
    # first row equals the tail
    cases = (
        ("6,1", "4,2,1"), ("5,2", "3,2,1,1"), ("4,2,1", "3,2,2"),
        ("1,1", "2"), ("2,2", "3,1"), ("2,1,1", "4"), ("1,1,1,1,1", "3,2"),
    )
    for lam, mu in cases:
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
    # no closed form covers three equal rows, nor a shape with no tail
    for lam, mu in (("2,2,2", "6"), ("3", "2,1")):
        assert (
            main(["--cache-dir", cache, "eval", "--lambda", lam, "--mu", mu, "--method", "formula"])
            == EXIT_INVALID_INPUT
        )
        assert "no closed-form shape matches" in capsys.readouterr().err
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
    # refused before the table of S_6 was built or written
    assert not Path(cache).exists() or not any(Path(cache).iterdir())
    # without --verify the exact formula still answers at any n
    assert main(argv[:-1]) == EXIT_OK
    assert capsys.readouterr().out.strip().isdigit()
    # refused before the cache is read: an unreadable file for S_6 is not an I/O failure
    table_cache_path(cache, 6).write_text("{this is not json", encoding="utf-8")
    assert main(argv) == EXIT_BRUTE_FORCE_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_structure_constant_mismatch_exit_code(cache, capsys, monkeypatch):
    # the CLI imports the function from class_algebra when the command runs
    import symchar.class_algebra as class_algebra_module

    monkeypatch.setattr(class_algebra_module, "structure_constant_bruteforce", lambda *a, **k: 10**9)
    code = main(
        ["--cache-dir", cache, "structure-constant", "--mu", "3", "--nu", "2,1", "--gamma", "2,1", "--verify"]
    )
    assert code == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == "2\n1000000000\n"
    assert "mismatch" in captured.err


def test_structure_constant_on_an_inconsistent_cached_table_fails_the_check(cache, capsys):
    # a cached S_3 table whose row (2,1) reads -1,0,4: it decodes, but the
    # degree 4 does not divide 3!, so the character sum refuses it
    table = character_table(3)
    values = (table.values[0], (-1, 0, 4), table.values[2])
    save_table(table._replace(values=values), table_cache_path(cache, 3))
    argv = ["--cache-dir", cache, "structure-constant", "--mu", "3", "--nu", "3", "--gamma", "3"]
    assert main(argv) == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "does not divide" in captured.err
    # with --verify the count comes first; the table then fails before anything is printed
    assert main([*argv, "--verify"]) == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    # an undecodable cache file stays an I/O failure, not a failed check
    table_cache_path(cache, 3).write_text("{this is not json", encoding="utf-8")
    assert main(argv) == EXIT_IO_FAILURE
    assert capsys.readouterr().err.startswith("error:")


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


def _verify_lines(out: str) -> list[str]:
    return [re.sub(r" \(\d+\.\d\ds\)$", "", line) for line in out.splitlines()]


def test_verify_transcript_is_pinned(cache, capsys):
    argv = ["--cache-dir", cache, "--brute-force-limit", "7"]
    code = main([*argv, "verify", "--suite", "all", "--n-min", "5", "--n-max", "8"])
    assert code == EXIT_OK
    assert _verify_lines(capsys.readouterr().out) == [
        "SKIP theorem n=5 (theorem range is n > 6)",
        "SKIP theorem n=6 (theorem range is n > 6)",
        "PASS theorem n=7",
        "PASS theorem n=8",
        *(f"PASS orthogonality n={n}" for n in range(5, 9)),
        *(f"PASS formulas n={n}" for n in range(5, 9)),
        *(f"PASS structure n={n}" for n in range(5, 8)),
        "SKIP structure n=8 (beyond brute-force limit 7)",
    ]


def test_verify_skips_table_suites_beyond_the_table_limit(cache, capsys, monkeypatch):
    # the CLI reads the limit from characters when it runs
    import symchar.characters as characters_module

    monkeypatch.setattr(characters_module, "MAX_TABLE_N", 7)
    argv = ["--cache-dir", cache, "--brute-force-limit", "9"]
    code = main([*argv, "verify", "--suite", "all", "--n-min", "7", "--n-max", "8"])
    assert code == EXIT_OK
    assert _verify_lines(capsys.readouterr().out) == [
        "PASS theorem n=7",
        "SKIP theorem n=8 (beyond table limit 7)",
        "PASS orthogonality n=7",
        "SKIP orthogonality n=8 (beyond table limit 7)",
        "PASS formulas n=7",
        "PASS formulas n=8",
        "PASS structure n=7",
        "SKIP structure n=8 (beyond table limit 7)",
    ]


def test_verify_reports_every_check_a_damaged_table_fails(cache, capsys):
    # chi_(6,1)((7)) is -1; saved as 0, so the file's digest matches
    table = character_table(7)
    values = [list(row) for row in table.values]
    values[table.index((6, 1))][table.index((7,))] = 0
    save_table(table._replace(values=tuple(map(tuple, values))), table_cache_path(cache, 7))
    code = main(["--cache-dir", cache, "verify", "--suite", "all", "--n-min", "7", "--n-max", "7"])
    assert code == EXIT_VERIFY_FAILED
    # the other classes on which chi_(6,1) is non-zero, and the hook rows below (7)
    columns = [(5, 2), (5, 1, 1), (4, 3), (4, 1, 1, 1), (3, 2, 2), (3, 2, 1, 1), (3, 1, 1, 1, 1)]
    columns += [(2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1), (1,) * 7]
    hooks = [(6, 1), (5, 1, 1), (4, 1, 1, 1), (3, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1), (1,) * 7]
    assert _verify_lines(capsys.readouterr().out) == [
        "PASS theorem n=7",
        "FAIL orthogonality n=7",
        "     column orthogonality fails at ((7,), (7,))",
        "     row orthogonality fails at ((7,), (6, 1))",
        *(f"     column orthogonality fails at ((7,), {mu})" for mu in columns),
        *(f"     row orthogonality fails at ((6, 1), {lam})" for lam in hooks),
        "PASS formulas n=7",
        "FAIL structure n=7",
        "     raised RuntimeError: structure constant for ((2, 2, 1, 1, 1), (7,), (4, 3)) came out "
        "-127008000/(7!)^2; character table is internally inconsistent",
    ]


@pytest.mark.parametrize(
    "route, wrong_at, suite, n, problem",
    [
        ("formulas.near_hook_value", (NearHookShape.R21, (8,)), "formulas", 8, "R21 at mu=(8,): formula 1 != mn 0"),
        ("formulas.hook_char_recursive", (1, (8,)), "formulas", 8, "hook k=1 at mu=(8,): recursion 0 != mn -1"),
        (
            "class_algebra.structure_constant_bruteforce",
            ((2, 2), (2, 2), (1, 1, 1, 1)),
            "structure",
            4,
            "((2, 2), (2, 2), (1, 1, 1, 1)): formula 3 != enumeration 4",
        ),
    ],
    ids=["near-hook", "hook-recursion", "brute-force"],
)
def test_verify_reports_a_wrong_route(cache, capsys, monkeypatch, route, wrong_at, suite, n, problem):
    # the route answers one more than it should at one input, and right elsewhere
    import importlib

    module_name, name = route.split(".")
    module = importlib.import_module(f"symchar.{module_name}")
    right = getattr(module, name)

    def off_by_one(*args, **kwargs):
        return right(*args, **kwargs) + (args == wrong_at)

    monkeypatch.setattr(module, name, off_by_one)
    argv = ["--cache-dir", cache, "verify", "--suite", suite, "--n-min", str(n), "--n-max", str(n)]
    assert main(argv) == EXIT_VERIFY_FAILED
    assert _verify_lines(capsys.readouterr().out) == [f"FAIL {suite} n={n}", f"     {problem}"]


def test_verify_reports_running_out_of_memory_as_an_error(cache, capsys, monkeypatch):
    # a resource failure is no wrong answer: no FAIL line, one error line
    import symchar.formulas as formulas_module

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(formulas_module, "near_hook_value", out_of_memory)
    argv = ["--cache-dir", cache, "verify", "--suite", "formulas", "--n-min", "5", "--n-max", "5"]
    assert main(argv) == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unexpected MemoryError()"]


def test_table_commands_refuse_past_the_table_limit(cache, capsys, monkeypatch):
    import symchar.characters as characters_module

    def no_build(n):
        raise AssertionError(f"the table of S_{n} was built")

    monkeypatch.setattr(characters_module, "_table_values", no_build)
    for argv in (["vanishing-pairs", "40"], ["chartable", "40", "--format", "json"]):
        assert main(["--cache-dir", cache, *argv]) == EXIT_INVALID_INPUT, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "table limit" in captured.err
    assert not Path(cache).exists()


def test_verify_rejects_bad_range(cache, capsys):
    assert main(["--cache-dir", cache, "verify", "--n-min", "9", "--n-max", "7"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    assert main(["--cache-dir", cache, "verify", "--n-min", "2", "--n-max", "5"]) == EXIT_INVALID_INPUT
    assert "error:" in capsys.readouterr().err


def test_verify_refuses_n_max_past_the_size_budget(cache, capsys, monkeypatch):
    # no suite to run: a range that slipped through would exit 0 having done nothing
    import symchar.cli as cli_module
    from symchar.partitions import MAX_PARTITION_SIZE

    monkeypatch.setattr(cli_module, "_SUITES", ())
    argv = ["--cache-dir", cache, "verify", "--suite", "theorem", "--n-min", "3", "--n-max"]
    for n_max in (MAX_PARTITION_SIZE + 1, 1_000_000_000):
        assert main([*argv, str(n_max)]) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "size budget" in captured.err
    assert main([*argv, str(MAX_PARTITION_SIZE)]) == EXIT_OK
    assert not Path(cache).exists()


@pytest.mark.parametrize(
    "error, module, function, argv",
    [
        (KeyError("k"), "characters", "mn_char", ["eval", "--lambda", "2,1", "--mu", "3"]),
        (TypeError("t"), "characters", "character_table", ["chartable", "3"]),
        (IndexError("i"), "vanishing", "find_covering_pairs", ["vanishing-pairs", "7"]),
        (
            MemoryError(),
            "class_algebra",
            "structure_constant",
            ["structure-constant", "--mu", "3", "--nu", "2,1", "--gamma", "2,1"],
        ),
    ],
    ids=["KeyError", "TypeError", "IndexError", "MemoryError"],
)
def test_unexpected_exception_is_one_error_line(cache, capsys, monkeypatch, error, module, function, argv):
    import importlib

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(importlib.import_module(f"symchar.{module}"), function, broken)
    assert main(["--cache-dir", cache, *argv]) == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
