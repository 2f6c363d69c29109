"""Classify pairs of conjugacy classes on which all non-linear characters die.

A pair of classes {mu, nu} (mu = nu allowed) "covers" S_n when every
irreducible character apart from the trivial and sign characters vanishes on
mu or on nu.  find_covering_pairs(table) scans every pair of columns once
and returns a CoveringPairReport of (n, pairs); every other answer (the least
size of covering set, the match against the theorem's {(n), (n-1,1)} for
n > 6, and the diagnostics naming the pairs that break it) is read off those
pairs.  covers_all_nonlinear applies the scan's rule to one pair alone, and
predicted_coefficient gives the structure constant that the rule forces on
a covering pair: only the linear rows are left in the character sum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characters import CharTable
from .partitions import Partition, as_classes, class_size, sign_value

__all__ = [
    "CoveringPairReport",
    "covers_all_nonlinear",
    "find_covering_pairs",
    "predicted_coefficient",
]

Pair = tuple[Partition, Partition]


class CoveringPairReport(NamedTuple):
    """Outcome of a covering-pair search over all classes of S_n.

    pairs lists each covering pair once, (mu, nu) with mu at or before nu in
    the canonical partition order, sorted by that order.  Every other answer
    is a property read off n and pairs.
    """

    n: int
    pairs: tuple[Pair, ...]

    @property
    def k_value(self) -> int | None:
        """Least size of covering set: 1, 2, or None when no pair covers."""
        # a single class covers exactly when it covers paired with itself
        return 1 if any(mu == nu for mu, nu in self.pairs) else 2 if self.pairs else None

    @property
    def vacuous(self) -> bool:
        """n <= 2: no non-linear characters, so every pair covers trivially."""
        return self.n <= 2

    @property
    def matches_theorem(self) -> bool | None:
        """Whether pairs is exactly {(n), (n-1,1)}; None outside the range n > 6."""
        return self.pairs == (((self.n,), (self.n - 1, 1)),) if self.n > 6 else None

    def diagnostics(self) -> list[str]:
        """One line per pair that breaks the theorem for n > 6; smaller n raises."""
        n = self.n
        if n <= 6:
            raise ValueError(f"the covering-pair theorem applies for n > 6, got {n}")
        expected: Pair = ((n,), (n - 1, 1))
        extra = [pair for pair in self.pairs if pair != expected]
        lines = [f"unexpected covering pair: {mu} , {nu}" for mu, nu in extra]
        if expected not in self.pairs:
            lines.append(f"expected covering pair not found: {expected[0]} , {expected[1]}")
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


def covers_all_nonlinear(mu: Partition, nu: Partition, table: CharTable) -> bool:
    """True when every non-linear character vanishes on mu or on nu.

    The pair scan's rule, on the masks of these two columns alone.
    """
    i, j = table.index(mu), table.index(nu)
    rows = [(table.values[r][i], table.values[r][j]) for r in _nonlinear_rows(table)]
    mask_mu, mask_nu = _column_masks(rows, 2)
    return not mask_mu & mask_nu


def predicted_coefficient(
    mu: Partition, nu: Partition, gamma: Partition, table: CharTable
) -> int | None:
    """Structure constant predicted when (mu, nu) covers all non-linear rows.

    When every non-linear character vanishes on mu or on nu, only the linear
    rows survive the character sum, which collapses to
        |C_mu| |C_nu| (1 + sign(mu) sign(nu) sign(gamma)) / n!
    for n >= 2, and to |C_mu| |C_nu| / n! at n = 1, whose one row is both the
    trivial and the sign row: the structure constant of every covering pair.
    Returns None when the covering hypothesis fails, since the collapse is
    then unjustified; a collapse that is not an integer means an inconsistent
    table and raises RuntimeError.
    """
    n = table.n
    mu, nu, gamma = as_classes(mu, nu, gamma, n=n)
    if not covers_all_nonlinear(mu, nu, table):
        return None
    linear = 1 if n == 1 else 1 + sign_value(mu) * sign_value(nu) * sign_value(gamma)
    coeff, rem = divmod(class_size(mu) * class_size(nu) * linear, math.factorial(n))
    if rem:
        raise RuntimeError(f"predicted coefficient for ({mu}, {nu}, {gamma}) is not integral")
    return coeff


def find_covering_pairs(table: CharTable) -> CoveringPairReport:
    """Search all unordered pairs of classes of S_n for covering pairs."""
    order = table.order
    masks = _column_masks([table.values[i] for i in _nonlinear_rows(table)], len(order))
    pairs: list[Pair] = []
    for a, mask in enumerate(masks):
        pairs.extend((order[a], order[b]) for b in range(a, len(order)) if not mask & masks[b])
    return CoveringPairReport(n=table.n, pairs=tuple(pairs))
