import ast
import re
import shlex
from pathlib import Path

from symchar.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _first_block(heading: str, language: str) -> str:
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # "Library quick start": run the block, then check every line whose
    # comment is a Python literal against the value of its expression
    namespace = {}
    block = _first_block("## Library quick start", "python")
    exec(block, namespace)
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        assert eval(code, namespace) == want, line
        stated.append(want)
    assert stated == [-1, (((8,), (7, 1)),), (((100,), (99, 1)),)]
    # "Command line": every symchar line exits 0
    lines = [
        line.partition("#")[0]
        for line in _first_block("## Command line", "sh").splitlines()
        if line.startswith("symchar ")
    ]
    assert len(lines) == 10
    for line in lines:
        argv = ["--cache-dir", str(tmp_path / "cache"), *shlex.split(line)[1:]]
        assert main(argv) == 0, line
