"""Batch command-line interface.

Subcommands: chartable, eval, vanishing-pairs, structure-constant, verify.
Each _cmd_* reads the parsed arguments and calls the library; main resolves
the cache directory (--cache-dir, $SYMCHAR_CACHE, ./.symchar-cache) first.
Standard output carries only the requested payload; diagnostics go to stderr.
Exit codes: 0 success, 1 verification mismatch or failed checks, 2 invalid
input (including a table past characters.MAX_TABLE_N, or a sweep step past
partitions.MAX_MN_SHAPES), 3 I/O failure, 4 brute-force verification
requested beyond the configured limit.  A size or a part is ASCII digits
only (partitions.parse_positive_int).

vanishing-pairs builds, reads and writes no table: vanishing.covering_pairs
answers every n up to partitions.MAX_PARTITION_SIZE, past the table limit too.
Every n <= 512 is answered; 24 values in 513..2000 hold a column past
partitions.MAX_MN_SHAPES and exit 2.

Any other Exception a command raises (a KeyError, an ArithmeticError, a
MemoryError, ...) is a fault in symchar: exit 1 with one error line.

JSON output renders every integer as a decimal string so arbitrarily large
character values survive consumers that parse numbers as doubles.  Every
writer turns a value into text by str(): the json and csv table writers
print the table's row_lines(), the pretty writer one `%` format per row.
Each chartable writer is one generator of lines, and each line goes to
stdout, or through characters.write_atomic to the --out file, as it is made:
no request holds the whole text.

Each process is one request, and every module it imports is compiled anew
when no bytecode cache is written, so library names are imported inside the
command or check that uses them: `--help` loads only partitions (for the
brute-force default), `eval --method formula` only partitions and formulas,
`vanishing-pairs` only partitions, characters and vanishing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .characters import CharTable
    from .partitions import Partition
    from .vanishing import CoveringPairReport

__all__ = ["main", "run"]

DEFAULT_CACHE_DIR = "./.symchar-cache"
CACHE_ENV_VAR = "SYMCHAR_CACHE"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_IO_FAILURE = 3
EXIT_BRUTE_FORCE_LIMIT = 4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _positive_int(text: str) -> int:
    from .partitions import parse_positive_int

    try:
        return parse_positive_int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _dots(partitions: tuple[Partition, ...]) -> list[str]:
    """Comma-free partition renderings for tabular headers: (6, 1) -> '6.1'."""
    from .partitions import format_partition

    return [format_partition(p, sep=".") for p in partitions]


def _build_parser() -> argparse.ArgumentParser:
    from .partitions import BRUTE_FORCE_DEFAULT_LIMIT

    parser = argparse.ArgumentParser(
        prog="symchar",
        description="Exact symmetric-group character computations.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"character-table cache directory (default {DEFAULT_CACHE_DIR}, "
        f"or ${CACHE_ENV_VAR} when set)",
    )
    parser.add_argument(
        "--brute-force-limit",
        type=_positive_int,
        default=BRUTE_FORCE_DEFAULT_LIMIT,
        help="largest n allowed for brute-force verification (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("chartable", help="emit the full character table of S_n")
    p_table.add_argument("n", type=_positive_int)
    p_table.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_table.add_argument("--out", default=None, help="write to this path instead of stdout")
    p_table.set_defaults(run=_cmd_chartable)

    p_eval = sub.add_parser("eval", help="evaluate one character value")
    p_eval.add_argument("--lambda", dest="lam", required=True, help="character label, e.g. 6,1")
    p_eval.add_argument("--mu", required=True, help="class cycle type, e.g. 7 or 5,1^2")
    p_eval.add_argument("--method", choices=("mn", "formula", "recursion"), default="mn")
    p_eval.set_defaults(run=_cmd_eval)

    p_pairs = sub.add_parser("vanishing-pairs", help="covering pairs of classes for S_n")
    p_pairs.add_argument("n", type=_positive_int)
    p_pairs.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_pairs.set_defaults(run=_cmd_vanishing_pairs)

    p_sc = sub.add_parser("structure-constant", help="class-algebra structure constant")
    p_sc.add_argument("--mu", required=True)
    p_sc.add_argument("--nu", required=True)
    p_sc.add_argument("--gamma", required=True)
    p_sc.add_argument(
        "--verify",
        action="store_true",
        help="also count by brute-force enumeration and compare",
    )
    p_sc.set_defaults(run=_cmd_structure_constant)

    p_verify = sub.add_parser("verify", help="run self-check suites over a range of n")
    p_verify.add_argument(
        "--suite",
        choices=("theorem", "orthogonality", "formulas", "structure", "all"),
        default="all",
    )
    p_verify.add_argument("--n-min", type=_positive_int, default=3)
    p_verify.add_argument("--n-max", type=_positive_int, default=8)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


# --- chartable -------------------------------------------------------------


def _table_csv_lines(table: CharTable) -> Iterator[str]:
    labels = _dots(table.order)
    yield ",".join(["", *labels]) + "\n"
    for label, text in zip(labels, table.row_lines()):
        yield f"{label},{text}\n"


def _table_pretty_lines(table: CharTable) -> Iterator[str]:
    labels = _dots(table.order)
    # a column's longest entry is its label, its max or its min (the most negative)
    widths = [
        max(len(label), len(str(max(column))), len(str(min(column))))
        for label, column in zip(labels, zip(*table.values))
    ]
    # labels left-aligned, values right-aligned, two spaces between columns
    line = "  ".join([f"%-{max(map(len, labels))}s", *(f"%{width}s" for width in widths)]) + "\n"
    yield line % ("", *labels)
    for label, row in zip(labels, table.values):
        yield line % (label, *row)


def _cmd_chartable(args: argparse.Namespace) -> int:
    from .characters import character_table, table_json_lines, write_atomic

    writers = {"json": table_json_lines, "csv": _table_csv_lines, "pretty": _table_pretty_lines}
    table = character_table(args.n, cache_dir=args.cache_dir)
    lines = writers[args.format](table)
    if args.out is not None:
        write_atomic(args.out, map(str.encode, lines))
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


# --- eval ------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    from .partitions import as_classes, is_hook, parse_partition

    lam, mu = as_classes(parse_partition(args.lam), parse_partition(args.mu))
    n = sum(lam)
    # each method imports only its own route
    if args.method == "mn":
        from .characters import mn_char

        value = mn_char(lam, mu)
    elif args.method == "formula":
        from .formulas import NearHookShape, near_hook_value

        try:
            # a shape's value is its tail below the first row
            shape = NearHookShape(lam[1:])
        except ValueError:
            raise ValueError(f"no closed-form shape matches {lam} at n={n}") from None
        value = near_hook_value(shape, mu)
    else:
        from .formulas import hook_char_recursive, two_row_char_recursive

        if is_hook(lam):
            value = hook_char_recursive(len(lam) - 1, mu)
        elif len(lam) == 2:
            value = two_row_char_recursive(lam[1], mu)
        else:
            raise ValueError(f"no recursion applies to {lam}: need a hook or two-row shape")
    print(value)
    return EXIT_OK


# --- vanishing-pairs -------------------------------------------------------


def _pairs_json(report: CoveringPairReport) -> str:
    import json

    payload = {
        "n": str(report.n),
        "k_value": None if report.k_value is None else str(report.k_value),
        "pairs": [
            [[str(part) for part in mu], [str(part) for part in nu]]
            for mu, nu in report.pairs
        ],
        "matches_theorem": report.matches_theorem,
        "vacuous": report.vacuous,
    }
    return json.dumps(payload, indent=2) + "\n"


def _pairs_csv(report: CoveringPairReport) -> str:
    lines = ["mu,nu"]
    for mu, nu in report.pairs:
        lines.append(",".join(_dots((mu, nu))))
    return "\n".join(lines) + "\n"


def _pairs_pretty(report: CoveringPairReport) -> str:
    from .partitions import format_partition

    lines = [
        f"n: {report.n}",
        f"k_value: {'none' if report.k_value is None else report.k_value}",
        f"vacuous: {'yes' if report.vacuous else 'no'}",
        f"covering pairs ({len(report.pairs)}):",
    ]
    for mu, nu in report.pairs:
        mark = "  [degenerate]" if mu == nu else ""
        lines.append(f"  ({format_partition(mu)}) ({format_partition(nu)}){mark}")
    if report.matches_theorem is None:
        lines.append("matches theorem: n/a (theorem range is n > 6)")
    else:
        lines.append(f"matches theorem: {'yes' if report.matches_theorem else 'no'}")
    return "\n".join(lines) + "\n"


_PAIRS_RENDERERS = {"json": _pairs_json, "csv": _pairs_csv, "pretty": _pairs_pretty}


def _cmd_vanishing_pairs(args: argparse.Namespace) -> int:
    from .vanishing import covering_pairs

    sys.stdout.write(_PAIRS_RENDERERS[args.format](covering_pairs(args.n)))
    return EXIT_OK


# --- structure-constant ----------------------------------------------------


def _cmd_structure_constant(args: argparse.Namespace) -> int:
    from .characters import character_table
    from .class_algebra import (
        BruteForceLimitError,
        structure_constant,
        structure_constant_bruteforce,
    )
    from .partitions import as_classes, parse_partition

    mu, nu, gamma = as_classes(*map(parse_partition, (args.mu, args.nu, args.gamma)))
    # a refusal past the brute-force limit reads no cache file, and one past
    # the table limit (character_table's) comes before anything is counted
    if args.verify:
        BruteForceLimitError.check(sum(mu), args.brute_force_limit)
    value = structure_constant(mu, nu, gamma, character_table(sum(mu), cache_dir=args.cache_dir))
    if not args.verify:
        print(value)
        return EXIT_OK
    counted = structure_constant_bruteforce(mu, nu, gamma, limit=args.brute_force_limit)
    print(value, counted, sep="\n")
    if value != counted:
        _log(f"mismatch: character formula gave {value}, enumeration gave {counted}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# --- verify ----------------------------------------------------------------


def _run_check(name: str, fn) -> bool:
    """Print PASS or FAIL with the problems found; True when the check passed."""
    import time

    start = time.perf_counter()
    try:
        problems = fn()
    except MemoryError:  # a resource failure, not a wrong answer: main reports it
        raise
    except Exception as e:  # a crashed check is a failed check
        problems = [f"raised {type(e).__name__}: {e}"]
    elapsed = time.perf_counter() - start
    print(f"{'FAIL' if problems else 'PASS'} {name} ({elapsed:.2f}s)")
    for line in problems:
        print(f"     {line}")
    return not problems


def _check_theorem(n: int, args: argparse.Namespace) -> list[str]:
    from .characters import MAX_TABLE_N
    from .vanishing import covering_pairs

    swept = covering_pairs(n)
    if n > MAX_TABLE_N:
        return swept.diagnostics()
    from .characters import character_table
    from .vanishing import find_covering_pairs

    scanned = find_covering_pairs(character_table(n, cache_dir=args.cache_dir))
    problems = scanned.diagnostics()
    if scanned != swept:
        problems.append(f"the table scan found {scanned.pairs}, the column sweep {swept.pairs}")
    return problems


def _check_orthogonality(n: int, args: argparse.Namespace) -> list[str]:
    from operator import mul

    from .characters import character_table
    from .partitions import centralizer_order, class_size

    table = character_table(n, cache_dir=args.cache_dir)
    order = table.order
    values = table.values
    sizes = [class_size(mu) for mu in order]
    group_order = sum(sizes)
    scaled = [tuple(map(mul, sizes, row)) for row in values]
    columns = tuple(zip(*values))
    problems = []
    for a, (mu, scaled_row, column) in enumerate(zip(order, scaled, columns)):
        # the first pair is (mu, mu), every later one off the diagonal
        row_norm, column_norm = group_order, centralizer_order(mu)
        for nu, row, other in zip(order[a:], values[a:], columns[a:]):
            if sum(map(mul, scaled_row, row)) != row_norm:
                problems.append(f"row orthogonality fails at ({mu}, {nu})")
            if sum(map(mul, column, other)) != column_norm:
                problems.append(f"column orthogonality fails at ({mu}, {nu})")
            row_norm = column_norm = 0
    return problems


def _check_formulas(n: int, args: argparse.Namespace) -> list[str]:
    from .characters import mn_char
    from .formulas import (
        NearHookShape,
        hook_char_recursive,
        near_hook_value,
        shape_partition,
        two_row_char_recursive,
    )
    from .partitions import partitions_of

    problems = []
    classes = partitions_of(n)
    for shape in NearHookShape:
        try:
            lam = shape_partition(shape, n)
        except ValueError:
            continue
        for mu in classes:
            got = near_hook_value(shape, mu)
            want = mn_char(lam, mu)
            if got != want:
                problems.append(f"{shape.name} at mu={mu}: formula {got} != mn {want}")
    for mu in classes:
        for k in range(n):
            got = hook_char_recursive(k, mu)
            want = mn_char((n - k,) + (1,) * k, mu)
            if got != want:
                problems.append(f"hook k={k} at mu={mu}: recursion {got} != mn {want}")
        for k in range(n // 2 + 1):
            got = two_row_char_recursive(k, mu)
            want = mn_char((n - k, k) if k else (n,), mu)
            if got != want:
                problems.append(f"two-row k={k} at mu={mu}: recursion {got} != mn {want}")
    return problems


def _check_structure(n: int, args: argparse.Namespace) -> list[str]:
    from .characters import character_table
    from .class_algebra import (
        deterministic_triples,
        structure_constant,
        structure_constant_bruteforce,
    )
    from .partitions import partitions_of

    table = character_table(n, cache_dir=args.cache_dir)
    classes = partitions_of(n)
    if n <= 6:
        triples = [
            (mu, nu, gamma) for mu in classes for nu in classes for gamma in classes
        ]
    else:
        triples = deterministic_triples(n)
    problems = []
    for mu, nu, gamma in triples:
        expected = structure_constant(mu, nu, gamma, table)
        counted = structure_constant_bruteforce(mu, nu, gamma, limit=args.brute_force_limit)
        if expected != counted:
            problems.append(
                f"({mu}, {nu}, {gamma}): formula {expected} != enumeration {counted}"
            )
    return problems


# (suite, check) in output order
_SUITES = (
    ("theorem", _check_theorem),
    ("orthogonality", _check_orthogonality),
    ("formulas", _check_formulas),
    ("structure", _check_structure),
)


def _skip_reason(suite: str, n: int, args: argparse.Namespace) -> str | None:
    """Why suite does not run at n, or None: its own rule first, then the table limit.

    The theorem suite runs at every n > 6: it sweeps columns at any n, and
    up to characters.MAX_TABLE_N it also scans the table.  Every other suite
    reads a table or compares with mn_char on every class of n, so none runs
    past MAX_TABLE_N.
    """
    from .characters import MAX_TABLE_N

    if suite == "theorem":
        return "theorem range is n > 6" if n <= 6 else None
    if suite == "structure" and n > args.brute_force_limit:
        return f"beyond brute-force limit {args.brute_force_limit}"
    return f"beyond table limit {MAX_TABLE_N}" if n > MAX_TABLE_N else None


def _cmd_verify(args: argparse.Namespace) -> int:
    from .partitions import MAX_PARTITION_SIZE

    if args.n_min < 3 or args.n_min > args.n_max:
        raise ValueError(f"need 3 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    if args.n_max > MAX_PARTITION_SIZE:
        raise ValueError(f"n-max {args.n_max} is past the size budget {MAX_PARTITION_SIZE}")
    passed = True
    for suite, check in _SUITES:
        if args.suite not in (suite, "all"):
            continue
        for n in range(args.n_min, args.n_max + 1):
            reason = _skip_reason(suite, n, args)
            if reason is None:
                passed &= _run_check(f"{suite} n={n}", lambda: check(n, args))
            else:
                print(f"SKIP {suite} n={n} ({reason})")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# --- entry point -----------------------------------------------------------


def _exit_code(error: Exception) -> int:
    """The exit code of an OSError, RuntimeError or ValueError from a command."""
    # an error class can be raised only once its module has loaded, so the
    # classes are looked up among the loaded modules: the error path imports
    # nothing the command did not
    characters = sys.modules.get(f"{__package__}.characters")
    class_algebra = sys.modules.get(f"{__package__}.class_algebra")
    if class_algebra and isinstance(error, class_algebra.BruteForceLimitError):
        return EXIT_BRUTE_FORCE_LIMIT
    if isinstance(error, OSError) or (
        characters and isinstance(error, characters.CharTableCacheError)
    ):
        return EXIT_IO_FAILURE
    if isinstance(error, ValueError):
        return EXIT_INVALID_INPUT
    # any other RuntimeError: a failed consistency check on a loaded table
    # (structure_constant, or the two linear-row criteria of
    # vanishing._nonlinear_rows) or between covering_pairs' two sweeps
    return EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR
    try:
        return args.run(args)
    except (OSError, RuntimeError, ValueError) as e:
        _log(f"error: {e}")
        return _exit_code(e)
    except Exception as e:
        # a fault in symchar, not in the request: one line, never a success
        _log(f"error: unexpected {e!r}")
        return EXIT_VERIFY_FAILED


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
