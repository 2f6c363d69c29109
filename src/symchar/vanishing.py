"""Classify pairs of conjugacy classes on which all non-linear characters die.

A pair of classes {mu, nu} (mu = nu allowed) "covers" S_n when every
irreducible character apart from the trivial and sign characters vanishes on
mu or on nu.  Two routes find every covering pair, and both return a
CoveringPairReport of (n, pairs); every other answer (the least size of
covering set, the match against the theorem's {(n), (n-1,1)} for n > 6, and
the diagnostics naming the pairs that break it) is read off those pairs.

find_covering_pairs(table) scans every pair of columns of a character table
once.  covering_pairs(n) reads no table, at any n up to the size budget: a
pair (mu, nu), mu first, covers exactly when nu's value is 0 at every
non-linear shape of mu's column, swept upward by the Murnaghan-Nakayama
rule, with nu evaluated at those shapes by characters' independent downward
sweep.  From n = 4 up, a lemma (see covering_pairs) prunes the pairs to the
opposite-sign pairs of the few classes with z | n(n - 1).

covers_all_nonlinear applies the scan's rule to one pair alone, and
predicted_coefficient gives the structure constant that the rule forces on
a covering pair: only the linear rows are left in the character sum.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .partitions import (
    MAX_MN_SHAPES,
    MAX_PARTITION_SIZE,
    Partition,
    as_classes,
    as_int,
    class_size,
    sign_value,
)

if TYPE_CHECKING:
    from .characters import CharTable

__all__ = [
    "CoveringPairReport",
    "covering_pairs",
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

    The pair scan's rule on these two columns alone: no non-linear row (as
    _nonlinear_rows cross-checks them) is non-zero at both.
    """
    i, j = table.index(mu), table.index(nu)
    return not any(table.values[r][i] and table.values[r][j] for r in _nonlinear_rows(table))


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


# --- covering pairs from class sizes and a few columns ----------------------


def _candidates(n: int) -> Iterator[Partition]:
    """The classes of n whose centralizer order divides n(n - 1), in canonical order.

    A depth-first walk over parts, largest first.  A part k added to a class
    that already holds m - 1 parts k multiplies z by k * m, so z only grows
    along a branch, and the walk leaves a branch as soon as z stops dividing
    n(n - 1).
    """
    bound = n * (n - 1)

    def walk(prefix: Partition, remaining: int, z: int, run: int) -> Iterator[Partition]:
        # run: how many parts of prefix equal its last part
        if remaining == 0:
            yield prefix
            return
        last = prefix[-1] if prefix else remaining
        for k in range(min(last, remaining), 0, -1):
            m = run + 1 if prefix and k == last else 1
            if bound % (z * k * m) == 0:
                yield from walk(prefix + (k,), remaining - k, z * k * m, m)

    return walk((), n, 1, 0)


def _column(mu: Partition, n: int) -> dict[int, int]:
    """chi_lam(mu) for every lam of n with a non-zero value, keyed by lam's n-bead mask.

    lam's bead i sits at lam[i] + n - 1 - i (lam padded with zeros to n
    parts).  The Murnaghan-Nakayama rule run upward: start at the empty shape,
    the lowest n beads, and for each part k of mu add a k-strip to every
    shape reached, moving a bead b to a free position b + k with the sign of
    the parity of the beads strictly between them.  Zero counts are dropped
    after each step, and a step that reaches more than MAX_MN_SHAPES shapes
    (zero counts included) raises ValueError.  The parts go smallest first:
    the column is the same in any order, but the shapes of the small parts
    are few and sit low, so the early steps stay narrow.
    """
    counts = {(1 << n) - 1: 1}
    for k in reversed(mu):
        between = (1 << (k - 1)) - 1
        reached: dict[int, int] = {}
        get = reached.get
        for mask, count in counts.items():
            movable = mask & ~(mask >> k)  # beads b with b + k free
            while movable:
                bit = movable & -movable
                movable ^= bit
                moved = mask ^ bit ^ (bit << k)
                if ((mask >> bit.bit_length()) & between).bit_count() & 1:
                    reached[moved] = get(moved, 0) - count
                else:
                    reached[moved] = get(moved, 0) + count
            # checked as the step grows: a refused step stops just past the bound
            if len(reached) > MAX_MN_SHAPES:
                raise ValueError(
                    f"the column of {mu} at n={n}: a step of the sweep holds {len(reached)} "
                    f"shapes, past the bound MAX_MN_SHAPES = {MAX_MN_SHAPES}"
                )
        counts = {mask: count for mask, count in reached.items() if count}
    return counts


def covering_pairs(n: int) -> CoveringPairReport:
    """The covering pairs of S_n for 1 <= n <= MAX_PARTITION_SIZE, with no character table.

    A pair (mu, nu), mu at or before nu in the canonical order, covers
    exactly when chi_lam(nu) = 0 at every non-linear shape lam of mu's column
    (_column).  nu, with the smaller first part and usually the wider column,
    is never swept: characters._mn_beads evaluates it at mu's shapes, and the
    first non-zero value rejects the pair once _mn_beads confirms mu's swept
    value there.  mu runs over the classes with z | n(n - 1) (_candidates),
    every class below n = 4, and nu over mu and the later candidates; from
    n = 4 up, over the later ones of the opposite sign only, by this lemma.

    Lemma: for n >= 4, if {mu, nu} covers, then sign(mu) != sign(nu), and both
    z_mu and z_nu (centralizer_order) divide n(n - 1).  Proof: when only the
    two linear rows are left in Frobenius' character sum, the structure
    constant is a = |C_mu| |C_nu| (1 + sign(mu) sign(nu) sign(gamma)) / n!.
    For a fixed x in C_mu, the number of y in C_nu with xy in C_gamma is
    |C_gamma| a / |C_mu|, an integer, so |C_gamma| |C_nu| (1 + sign(mu)
    sign(nu) sign(gamma)) / n! is one; so is the same with mu and nu swapped,
    since class sums commute.  gamma = (1^n) with sign(mu) = sign(nu) would
    make 2 / z_nu an integer, impossible for n >= 4, where every z is at
    least 3.  gamma = (2, 1^(n-2)) is odd, so the factor is 2 and
    n(n - 1) / z_nu must be an integer.

    Each candidate's values at (n) and (1^n), 1 and its sign, are checked by
    the downward sweep, and each swept column's by the upward one, so a
    sweep that gives 0 everywhere raises.  Pairs come in the order of
    find_covering_pairs.  An n outside 1..MAX_PARTITION_SIZE raises
    ValueError before any work, as does a sweep step past MAX_MN_SHAPES.
    """
    as_int(n, "the n of a column sweep", low=1, high=MAX_PARTITION_SIZE)
    from .characters import _beta_to_partition, _mn_beads  # the downward sweep

    trivial = ((1 << (n - 1)) - 1) | (1 << (2 * n - 1))  # (n): one bead at 2n - 1
    sign = ((1 << n) - 1) << 1  # (1^n): every bead one above the empty shape
    classes = list(_candidates(n))
    for nu in classes:
        linear = _mn_beads(trivial, n, nu), _mn_beads(sign, n, nu)
        if linear != (1, sign_value(nu)):
            raise RuntimeError(
                f"the Murnaghan-Nakayama sweep of {nu} at n={n} gives {linear} at (n) and "
                f"(1^n), not (1, {sign_value(nu)})"
            )
    pairs: list[Pair] = []
    for a, mu in enumerate(classes):
        # the lemma's sign rule, from n = 4 up, also leaves mu itself out
        partners = [nu for nu in classes[a:] if n < 4 or sign_value(nu) != sign_value(mu)]
        if not partners:
            continue
        column = _column(mu, n)
        linear = column.get(trivial), column.get(sign)
        if linear != (1, sign_value(mu)):
            raise RuntimeError(
                f"the column sweep of {mu} at n={n} gives {linear} at (n) and (1^n), "
                f"not (1, {sign_value(mu)})"
            )
        del column[trivial]
        column.pop(sign, None)  # the same shape as (n) at n = 1
        for nu in partners:
            witness = next((mask for mask in column if _mn_beads(mask, n, nu)), None)
            if witness is None:
                pairs.append((mu, nu))
                continue
            downward = _mn_beads(witness, n, mu)
            if downward != column[witness]:
                lam = _beta_to_partition([b for b in range(2 * n - 1, -1, -1) if witness >> b & 1])
                raise RuntimeError(
                    f"chi_{lam}({mu}) at n={n}: the column sweep gives {column[witness]}, "
                    f"the Murnaghan-Nakayama sweep {downward}"
                )
    return CoveringPairReport(n=n, pairs=tuple(pairs))
