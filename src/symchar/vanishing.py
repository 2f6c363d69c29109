"""Classify pairs of conjugacy classes on which all non-linear characters die.

A pair of classes {mu, nu} (mu = nu allowed) "covers" S_n when every
irreducible character apart from the trivial and sign characters vanishes on
mu or on nu.  find_covering_pairs enumerates all covering pairs from a
character table; for n > 6 the expected answer is exactly {(n), (n-1,1)},
which verify_main_theorem checks and reports on.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import CharTable
from .partitions import Partition

__all__ = [
    "CoveringPairReport",
    "TheoremCheck",
    "vanishing_set",
    "covers_all_nonlinear",
    "find_covering_pairs",
    "k_of_sn",
    "verify_main_theorem",
]

Pair = tuple[Partition, Partition]


class CoveringPairReport(NamedTuple):
    """Outcome of a covering-pair search over all classes of S_n.

    pairs lists each covering pair once, (mu, nu) with mu at or before nu in
    the canonical partition order, sorted by that order.  k_value is the
    least size of covering set found: 1 when a single class already covers,
    else 2 when any pair covers, else None.  matches_theorem is None outside
    the theorem's range n > 6.  vacuous flags n <= 2, where there are no
    non-linear characters and every pair covers trivially.
    """

    n: int
    pairs: tuple[Pair, ...]
    k_value: int | None
    matches_theorem: bool | None
    vacuous: bool = False

    def degenerate_pairs(self) -> tuple[Pair, ...]:
        """The pairs with mu = nu (a single class covering on its own)."""
        return tuple((mu, nu) for mu, nu in self.pairs if mu == nu)


class TheoremCheck(NamedTuple):
    """Comparison of the computed covering pairs against {(n), (n-1,1)}."""

    n: int
    ok: bool
    expected: Pair
    extra_pairs: tuple[Pair, ...]
    missing_pairs: tuple[Pair, ...]

    def diagnostics(self) -> list[str]:
        lines = []
        for pair in self.extra_pairs:
            lines.append(f"unexpected covering pair: {pair[0]} , {pair[1]}")
        for pair in self.missing_pairs:
            lines.append(f"expected covering pair not found: {pair[0]} , {pair[1]}")
        return lines


def _nonlinear_rows(table: CharTable) -> list[int]:
    """Row indices of characters of degree > 1, cross-checked two ways.

    A character is linear exactly when its label is (n) or (1^n), and exactly
    when its degree is 1.  Both criteria are evaluated and must agree; any
    disagreement means the table is corrupt, which is worth a loud stop.
    """
    n = table.n
    named_linear = {(n,), (1,) * n}
    rows = []
    for i, lam in enumerate(table.order):
        by_name = lam in named_linear
        by_degree = table.values[i][-1] == 1
        if by_name != by_degree:
            raise RuntimeError(
                f"linear-character criteria disagree at row {lam}: "
                f"named={by_name}, degree={table.values[i][-1]}"
            )
        if not by_name:
            rows.append(i)
    return rows


def vanishing_set(lam: Partition, table: CharTable) -> frozenset[Partition]:
    """All classes mu with chi_lam(w_mu) = 0."""
    row = table.values[table.index(lam)]
    return frozenset(mu for mu, value in zip(table.order, row) if value == 0)


def covers_all_nonlinear(mu: Partition, nu: Partition, table: CharTable) -> bool:
    """True when every non-linear character vanishes on mu or on nu."""
    i_mu = table.index(mu)
    i_nu = table.index(nu)
    for i in _nonlinear_rows(table):
        row = table.values[i]
        if row[i_mu] != 0 and row[i_nu] != 0:
            return False
    return True


# bytes 0 and 1 to the digits "0" and "1", for int(..., 2)
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _column_masks(rows: list[tuple[int, ...]], width: int) -> list[int]:
    """One int per column, with a bit set for each of rows that is non-zero there.

    A pair of columns covers the rows exactly when their masks share no bit.
    Each mask is built in C-level passes: the column's truth values as bytes,
    read as a binary numeral.
    """
    if not rows:
        return [0] * width
    return [int(bytes(map(bool, column)).translate(_BINARY_DIGITS), 2) for column in zip(*rows)]


def find_covering_pairs(n: int, table: CharTable) -> CoveringPairReport:
    """Search all unordered pairs of classes of S_n for covering pairs."""
    if table.n != n:
        raise ValueError(f"table is for n={table.n}, not n={n}")
    order = table.order
    nonlinear = _nonlinear_rows(table)
    masks = _column_masks([table.values[i] for i in nonlinear], len(order))
    pairs: list[Pair] = []
    for a, mask in enumerate(masks):
        pairs.extend((order[a], order[b]) for b in range(a, len(order)) if not mask & masks[b])

    # a single class covers exactly when it covers paired with itself
    if any(mu == nu for mu, nu in pairs):
        k_value: int | None = 1
    elif pairs:
        k_value = 2
    else:
        k_value = None
    return CoveringPairReport(
        n=n,
        pairs=tuple(pairs),
        k_value=k_value,
        matches_theorem=pairs == [((n,), (n - 1, 1))] if n > 6 else None,
        vacuous=not nonlinear,
    )


def k_of_sn(n: int, table: CharTable) -> int:
    """Least number of classes needed to kill all non-linear characters.

    Defined for n >= 3.  Returns 1 when one class suffices (n = 3 only, via
    the class (2,1)), otherwise 2 when some pair covers; anything else raises
    because no S_n with n >= 3 should ever get there.
    """
    if n < 3:
        raise ValueError(f"k_of_sn is defined for n >= 3, got {n}")
    k_value = find_covering_pairs(n, table).k_value
    if k_value is None:
        raise RuntimeError(f"no covering pair of classes exists for n={n}; this contradicts theory")
    return k_value


def verify_main_theorem(n: int, table: CharTable) -> TheoremCheck:
    """Check that the covering pairs of S_n are exactly {(n), (n-1,1)}.

    Only meaningful for n > 6; smaller n raises (run find_covering_pairs
    directly to inspect the pairs there).
    """
    if n <= 6:
        raise ValueError(f"the covering-pair theorem applies for n > 6, got {n}")
    report = find_covering_pairs(n, table)
    expected: Pair = ((n,), (n - 1, 1))
    extra = tuple(pair for pair in report.pairs if pair != expected)
    missing = () if expected in report.pairs else (expected,)
    return TheoremCheck(
        n=n,
        ok=not extra and not missing,
        expected=expected,
        extra_pairs=extra,
        missing_pairs=missing,
    )
