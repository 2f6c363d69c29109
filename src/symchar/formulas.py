"""Closed forms and recursions for characters of near-hook shapes.

Eight families of shapes differing from a single row by a small tail admit
character values that are polynomials in the cycle-type multiplicities
m_1, ..., m_4.  near_hook_value evaluates those polynomials exactly over the
integers; every division is checked to be exact so a transcription error
cannot round silently.

induced_value gives the value at w_mu of the character induced from the
trivial or sign character of a two-block Young subgroup S_{n-k} x S_k: the
coefficient of t^k in prod_i (1 + s_i t^{mu_i}).  The two recursions built
on that polynomial (hook shapes (n-k, 1^k) and two-row shapes (n-k, k))
provide an evaluation route independent of the closed forms.
"""

from __future__ import annotations

from enum import Enum
from operator import add, sub

from .partitions import Partition, multiplicities

__all__ = [
    "NearHookShape",
    "shape_partition",
    "near_hook_value",
    "induced_value",
    "hook_char_recursive",
    "two_row_char_recursive",
]


class NearHookShape(Enum):
    """Tag for a near-hook family; the value is the tail below the first row."""

    R1 = (1,)
    R2 = (2,)
    R11 = (1, 1)
    R3 = (3,)
    R21 = (2, 1)
    R111 = (1, 1, 1)
    R211 = (2, 1, 1)
    R1111 = (1, 1, 1, 1)


def shape_partition(shape: NearHookShape, n: int) -> Partition:
    """Instantiate the shape at size n, e.g. (R21, 9) -> (6, 2, 1).

    Valid only when the first row n - |tail| keeps the sequence weakly
    decreasing; anything else raises rather than silently evaluating a
    polynomial outside its range.
    """
    tail = shape.value
    first = n - sum(tail)
    if first < tail[0]:
        raise ValueError(f"shape {shape.name} is not a partition at n={n}")
    return (first, *tail)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-exact division {num}/{den} in a character formula")
    return q


def near_hook_value(shape: NearHookShape, mu: Partition) -> int:
    """Character value of the shape instantiated at n = |mu| on class mu."""
    n = sum(mu)
    shape_partition(shape, n)  # validity check; raises when out of range
    m = multiplicities(mu)
    m1 = m.get(1, 0)
    m2 = m.get(2, 0)
    m3 = m.get(3, 0)
    m4 = m.get(4, 0)
    if shape is NearHookShape.R1:
        return m1 - 1
    if shape is NearHookShape.R2:
        return _exact_div(m1 * (m1 - 3), 2) + m2
    if shape is NearHookShape.R11:
        return _exact_div((m1 - 1) * (m1 - 2), 2) - m2
    if shape is NearHookShape.R3:
        return _exact_div(m1 * (m1 - 1) * (m1 - 5), 6) + m2 * (m1 - 1) + m3
    if shape is NearHookShape.R21:
        return _exact_div(m1 * (m1 - 2) * (m1 - 4), 3) - m3
    if shape is NearHookShape.R111:
        return _exact_div((m1 - 1) * (m1 - 2) * (m1 - 3), 6) - (m1 - 1) * m2 + m3
    if shape is NearHookShape.R211:
        return (
            _exact_div(m1 * (m1 - 2) * (m1 - 3) * (m1 - 5), 8)
            - _exact_div(m2 * m1 * (m1 - 3), 2)
            - _exact_div(m2 * (m2 - 1), 2)
            + m4
        )
    if shape is NearHookShape.R1111:
        return (
            _exact_div((m1 - 1) * (m1 - 2) * (m1 - 3) * (m1 - 4), 24)
            - _exact_div((m1 - 1) * (m1 - 2) * m2, 2)
            + (m1 - 1) * m3
            + _exact_div(m2 * (m2 - 1), 2)
            - m4
        )
    raise ValueError(f"unknown shape {shape!r}")


def _induced_polynomial(inner: str, mu: Partition) -> list[int]:
    """Coefficients 0..n of prod_i (1 + s_i t^{mu_i}), s_i as in induced_value."""
    acc = [1] + [0] * sum(mu)
    for part in mu:
        # times (1 + s t^part) in one C-level pass; an even cycle is an odd permutation
        op = sub if inner == "sign" and part % 2 == 0 else add
        acc = [*acc[:part], *map(op, acc[part:], acc)]
    return acc


def induced_value(k: int, inner: str, mu: Partition) -> int:
    """Value at w_mu of the character induced to S_n from S_{n-k} x S_k.

    inner selects the character of the S_k factor: "trivial" or "sign" (the
    S_{n-k} factor always carries trivial).  The value is the coefficient of
    t^k in prod_i (1 + s_i t^{mu_i}): each selection of cycles of mu with
    total length k counts the inner character on them, a factor s_i = 1 per
    selected cycle under trivial and s_i = (-1)^(mu_i - 1) under sign.

    With inner="trivial" this is the permutation character counting k-subsets
    fixed by w_mu; with k=n and inner="sign" it degenerates to sign_value(mu).
    """
    n = sum(mu)
    if not 1 <= k <= n:
        raise ValueError(f"induced_value needs 1 <= k <= {n}, got k={k}")
    if inner not in ("trivial", "sign"):
        raise ValueError(f"inner must be 'trivial' or 'sign', got {inner!r}")
    return _induced_polynomial(inner, mu)[k]


def hook_char_recursive(k: int, mu: Partition) -> int:
    """Character of the hook (n-k, 1^k) at w_mu, for 0 <= k <= n-1.

    Recursion: chi_{(n-k,1^k)} = induced(k, sign) - chi_{(n-k+1,1^(k-1))},
    unwound iteratively from the trivial character at k=0.
    """
    n = sum(mu)
    if not 0 <= k <= n - 1:
        raise ValueError(f"hook tail length must satisfy 0 <= k <= {n - 1}, got {k}")
    induced = _induced_polynomial("sign", mu)
    value = 1
    for j in range(1, k + 1):
        value = induced[j] - value
    return value


def two_row_char_recursive(k: int, mu: Partition) -> int:
    """Character of the two-row shape (n-k, k) at w_mu, for 0 <= 2k <= n.

    Recursion: chi_{(n-k,k)} = induced(k, trivial) - sum_{j<k} chi_{(n-j,j)}.
    """
    n = sum(mu)
    if k < 0 or 2 * k > n:
        raise ValueError(f"second row must satisfy 0 <= k <= {n}/2, got {k}")
    induced = _induced_polynomial("trivial", mu)
    value = total = 1  # total: the sum of the chi_{(n-j,j)} so far
    for j in range(1, k + 1):
        value = induced[j] - total
        total += value
    return value
