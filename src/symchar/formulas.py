"""Closed forms and recursions for characters of near-hook shapes.

Eight families of shapes differing from a single row by a small tail admit
character values that are polynomials in the cycle-type multiplicities
m_1, ..., m_4.  near_hook_value evaluates those polynomials exactly over the
integers; every division is checked to be exact so a transcription error
cannot round silently.

_induced_polynomial(inner, mu) gives the value at w_mu of the character
induced from S_{n-k} x S_k, trivial on S_{n-k} and inner (trivial or sign)
on S_k, for every k at once: the coefficients of prod_i (1 + s_i t^{mu_i}).
The two recursions, for hook shapes (n-k, 1^k) and two-row shapes (n-k, k),
read one such polynomial per call and are an evaluation route independent
of the closed forms.  The two-row one is Young's rule: for 2k <= n the
trivial character induced from S_{n-k} x S_k is the sum of chi_{(n-j,j)}
over j <= k, so chi_{(n-k,k)} is the difference of the coefficients of t^k
and t^(k-1).
"""

from __future__ import annotations

from enum import Enum
from operator import add, sub

from .partitions import Partition, as_int, as_partition, multiplicities

__all__ = [
    "NearHookShape",
    "shape_partition",
    "near_hook_value",
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

    Valid only when n is an int at which the first row n - |tail| keeps the
    sequence weakly decreasing, n >= |tail| + tail[0]; anything else raises
    ValueError rather than silently evaluating a polynomial outside its
    range.  A shape that is not a NearHookShape raises ValueError too.
    """
    if not isinstance(shape, NearHookShape):
        raise ValueError(f"unknown shape {shape!r}")
    tail = shape.value
    n = as_int(n, f"the n of shape {shape.name}", low=sum(tail) + tail[0])
    return (n - sum(tail), *tail)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-exact division {num}/{den} in a character formula")
    return q


def near_hook_value(shape: NearHookShape, mu: Partition) -> int:
    """Character value of the shape instantiated at n = |mu| on class mu."""
    mu = as_partition(mu)
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
    # shape_partition admitted only NearHookShapes, so this is R1111
    return (
        _exact_div((m1 - 1) * (m1 - 2) * (m1 - 3) * (m1 - 4), 24)
        - _exact_div((m1 - 1) * (m1 - 2) * m2, 2)
        + (m1 - 1) * m3
        + _exact_div(m2 * (m2 - 1), 2)
        - m4
    )


def _induced_polynomial(inner: str, mu: Partition) -> list[int]:
    """Coefficients 0..n of prod_i (1 + s_i t^{mu_i}) over the parts mu_i of mu.

    s_i is 1 under inner="trivial" and (-1)^(mu_i - 1) under inner="sign".
    """
    acc = [1] + [0] * sum(mu)
    for part in mu:
        # times (1 + s t^part) in one C-level pass; an even cycle is an odd permutation
        op = sub if inner == "sign" and part % 2 == 0 else add
        acc = [*acc[:part], *map(op, acc[part:], acc)]
    return acc


def hook_char_recursive(k: int, mu: Partition) -> int:
    """Character of the hook (n-k, 1^k) at w_mu, for 0 <= k <= n-1.

    Recursion: chi_{(n-k,1^k)} = induced(k, sign) - chi_{(n-k+1,1^(k-1))},
    unwound iteratively from the trivial character at k=0.
    """
    mu = as_partition(mu)
    as_int(k, "hook tail length k", high=sum(mu) - 1)
    induced = _induced_polynomial("sign", mu)
    value = 1
    for j in range(1, k + 1):
        value = induced[j] - value
    return value


def two_row_char_recursive(k: int, mu: Partition) -> int:
    """Character of the two-row shape (n-k, k) at w_mu, for 0 <= 2k <= n.

    Young's rule: for 2k <= n the character induced from the trivial
    character of S_{n-k} x S_k is sum_{j<=k} chi_{(n-j,j)}.  So
    chi_{(n-k,k)} = induced(k, trivial) - induced(k-1, trivial), two
    coefficients of the one polynomial, and the trivial character at k=0.
    """
    mu = as_partition(mu)
    as_int(k, "second row k", high=sum(mu) // 2)
    induced = _induced_polynomial("trivial", mu)
    return induced[k] - induced[k - 1] if k else 1
