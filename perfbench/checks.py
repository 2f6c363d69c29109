"""Output checks for the symchar CLI, written without importing symchar.

Each check takes a request's standard output and returns None when the
answer is right, else a one-line reason.  Tables are compared by a SHA-256
of the decoded value matrix, never by bytes, so a change of cache or output
schema does not read as a wrong table.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from functools import lru_cache
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order: (n) first, (1^n) last."""
    out: list[Partition] = []
    stack: list[tuple[int, int, Partition]] = [(n, n, ())]
    while stack:
        remaining, cap, prefix = stack.pop()
        if remaining == 0:
            out.append(prefix)
            continue
        # pushed smallest part first, so the largest is popped first
        for part in range(1, min(cap, remaining) + 1):
            stack.append((remaining - part, part, prefix + (part,)))
    return tuple(out)


def matrix_digest(values: list[list[int]]) -> str:
    text = "\n".join(",".join(str(v) for v in row) for row in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@lru_cache(maxsize=None)
def reference_digests() -> dict[int, str]:
    tables = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["tables"]
    return {int(n): entry["sha256"] for n, entry in tables.items()}


def invariant_problem(
    n: int, rows: list[Partition], cols: list[Partition], values: list[list[int]]
) -> str | None:
    """Canonical order, trivial and sign rows, and squared degrees summing to n!."""
    order = list(partitions(n))
    if rows != order or cols != order:
        return f"n={n}: row or column order differs from the canonical enumeration"
    if len(values) != len(order) or any(len(row) != len(order) for row in values):
        return f"n={n}: table is not {len(order)} x {len(order)}"
    if any(v != 1 for v in values[0]):
        return f"n={n}: first row is not the trivial character"
    sign = [(-1) ** (n - len(mu)) for mu in order]
    if values[-1] != sign:
        return f"n={n}: last row is not the sign character"
    if sum(row[-1] ** 2 for row in values) != math.factorial(n):
        return f"n={n}: squared degrees do not sum to n!"
    return None


def table_problem(
    n: int, rows: list[Partition], cols: list[Partition], values: list[list[int]]
) -> str | None:
    """The invariants, then the digest recorded in reference.json."""
    problem = invariant_problem(n, rows, cols, values)
    if problem:
        return problem
    want = reference_digests().get(n)
    if want is None:
        return f"n={n}: no reference digest recorded"
    if matrix_digest(values) != want:
        return f"n={n}: value matrix differs from the reference table"
    return None


def _parse_dotted(label: str) -> Partition:
    return tuple(int(part) for part in label.split("."))


def check_json_table(n: int, out: bytes) -> str | None:
    try:
        payload = json.loads(out)
        order = [tuple(int(p) for p in mu) for mu in payload["order"]]
        values = [[int(v) for v in row] for row in payload["values"]]
    except (ValueError, KeyError, TypeError) as e:
        return f"n={n}: JSON table does not decode: {e}"
    return table_problem(n, order, order, values)


def check_csv_table(n: int, out: bytes) -> str | None:
    try:
        lines = out.decode("ascii").splitlines()
        header = lines[0].split(",")
        cols = [_parse_dotted(c) for c in header[1:]]
        rows, values = [], []
        for line in lines[1:]:
            label, *cells = line.split(",")
            rows.append(_parse_dotted(label))
            values.append([int(c) for c in cells])
    except (ValueError, IndexError, UnicodeDecodeError) as e:
        return f"n={n}: CSV table does not decode: {e}"
    if header[0] != "":
        return f"n={n}: CSV header does not start with an empty cell"
    return table_problem(n, rows, cols, values)


def check_pretty_table(n: int, out: bytes) -> str | None:
    try:
        lines = out.decode("ascii").splitlines()
        cols = [_parse_dotted(c) for c in lines[0].split()]
        rows, values = [], []
        for line in lines[1:]:
            label, *cells = line.split()
            rows.append(_parse_dotted(label))
            values.append([int(c) for c in cells])
    except (ValueError, IndexError, UnicodeDecodeError) as e:
        return f"n={n}: pretty table does not decode: {e}"
    return table_problem(n, rows, cols, values)


def check_pairs_json(n: int, out: bytes) -> str | None:
    """Only `pairs` and `matches_theorem` are read; other fields may change."""
    try:
        payload = json.loads(out)
        pairs = [[[int(p) for p in mu] for mu in pair] for pair in payload["pairs"]]
        matches = payload["matches_theorem"]
    except (ValueError, KeyError, TypeError) as e:
        return f"n={n}: pairs JSON does not decode: {e}"
    if pairs != [[[n], [n - 1, 1]]]:
        return f"n={n}: covering pairs {pairs} are not exactly [({n}), ({n - 1},1)]"
    if matches is not True:
        return f"n={n}: matches_theorem is {matches!r}"
    return None


_VERIFY_LINE = re.compile(r"(PASS|SKIP) (theorem|orthogonality|formulas|structure) n=(\d+) \(.*\)")


def check_verify(n_min: int, n_max: int, out: bytes) -> str | None:
    """Every line PASS or SKIP, and exactly one line per suite and n."""
    try:
        lines = out.decode("ascii").splitlines()
    except UnicodeDecodeError as e:
        return f"verify output is not ASCII: {e}"
    seen = set()
    for line in lines:
        match = _VERIFY_LINE.fullmatch(line)
        if match is None:
            return f"verify line is not PASS or SKIP: {line!r}"
        seen.add((match.group(2), int(match.group(3))))
    want = {
        (suite, n)
        for suite in ("theorem", "orthogonality", "formulas", "structure")
        for n in range(n_min, n_max + 1)
    }
    if seen != want or len(lines) != len(want):
        return f"verify printed {len(lines)} lines, expected one per suite and n ({len(want)})"
    return None


def read_integer(out: bytes) -> int | None:
    text = out.decode("ascii", "replace").strip()
    return int(text) if re.fullmatch(r"-?\d+", text) else None


def check_structure_verify(out: bytes) -> str | None:
    lines = out.decode("ascii", "replace").split()
    if len(lines) != 2 or not all(re.fullmatch(r"\d+", x) for x in lines):
        return f"structure-constant --verify printed {lines!r}, expected two numbers"
    if lines[0] != lines[1]:
        return f"character sum {lines[0]} != enumeration {lines[1]}"
    return None
