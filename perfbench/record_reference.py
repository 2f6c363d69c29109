"""Record the reference digests of the tables the benchmark checks.

    python3 perfbench/record_reference.py --commit <id>

Builds each table the benchmark checks (the cold-table sizes) from the checkout's src/, cross-checks every hook,
two-row and near-hook row against the independent routes in
symchar.formulas, checks the structural invariants, and only then writes
the SHA-256 of its value matrix to perfbench/reference.json.  Run it once,
on a commit whose tables are trusted; the benchmark only reads the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_PATH, invariant_problem, matrix_digest, partitions  # noqa: E402
from run import ColdTable  # noqa: E402
from symchar.characters import character_table  # noqa: E402
from symchar.formulas import (  # noqa: E402
    NearHookShape,
    hook_char_recursive,
    near_hook_value,
    shape_partition,
    two_row_char_recursive,
)


def cross_check(n: int, values: list[list[int]]) -> int:
    """Compare every formula route with its table row; returns the routes checked."""
    order = partitions(n)
    index = {lam: i for i, lam in enumerate(order)}
    routes = []
    for k in range(n):
        routes.append(((n - k,) + (1,) * k, lambda mu, k=k: hook_char_recursive(k, mu)))
    for k in range(1, n // 2 + 1):
        routes.append(((n - k, k), lambda mu, k=k: two_row_char_recursive(k, mu)))
    for shape in NearHookShape:
        try:
            lam = shape_partition(shape, n)
        except ValueError:
            continue
        routes.append((lam, lambda mu, shape=shape: near_hook_value(shape, mu)))
    for lam, route in routes:
        if values[index[lam]] != [route(mu) for mu in order]:
            raise SystemExit(f"n={n}: row {lam} disagrees with its formula route")
    return len(routes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the tables come from")
    args = parser.parse_args()
    tables = {}
    for n in ColdTable.sizes:
        table = character_table(n)
        values = [list(row) for row in table.values]
        order = list(table.order)
        problem = invariant_problem(n, order, order, values)
        if problem:
            raise SystemExit(problem)
        checked = cross_check(n, values)
        tables[str(n)] = {
            "p": len(values),
            "sha256": matrix_digest(values),
            "formula_routes_checked": checked,
        }
        print(f"n={n}: {checked} formula routes agree with the table", file=sys.stderr)
    payload = {
        "commit": args.commit,
        "digest": "sha256 of the rows joined by newlines, values by commas, as decimal ASCII",
        "tables": tables,
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
