"""Structure constants of the class algebra of S_n, two independent ways.

The coefficient of the class sum of gamma in the product of the class sums
of mu and nu counts pairs (x, y) in C_mu x C_nu with x*y = g for any fixed
g in C_gamma.  structure_constant computes it from character data with exact
integer arithmetic; structure_constant_bruteforce counts the pairs directly
by enumerating C_mu.  The two never share code, so each checks the other.

Permutations are tuples of images on {0, ..., n-1}; composition is
(a * b)(t) = a[b[t]].  Cycle types are label-independent, so the 0-based
convention does not affect any count.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from .characters import CharTable
from .partitions import Partition, class_size, merge_parts, partitions_of, sign_value
from .vanishing import covers_all_nonlinear

__all__ = [
    "Perm",
    "BruteForceLimitError",
    "cycle_type",
    "compose",
    "inverse",
    "class_representative",
    "conjugacy_class",
    "structure_constant",
    "structure_constant_bruteforce",
    "predicted_coefficient",
    "merge_lemma_check",
    "deterministic_triples",
]

Perm = tuple[int, ...]

BRUTE_FORCE_DEFAULT_LIMIT = 8


class BruteForceLimitError(ValueError):
    """Raised when a brute-force enumeration is requested beyond its limit."""


def cycle_type(perm: Perm) -> Partition:
    """Cycle type of a permutation given as a tuple of images, as a partition."""
    seen = [False] * len(perm)
    lengths: list[int] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b acting as a(b(t))."""
    return tuple(a[b[t]] for t in range(len(b)))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for t, image in enumerate(a):
        out[image] = t
    return tuple(out)


def class_representative(gamma: Partition) -> Perm:
    """Fixed representative of the class with cycle type gamma.

    Cycles are laid out largest first and filled with consecutive points, so
    gamma = (3, 2, 1) on 6 points gives the permutation (0 1 2)(3 4)(5).
    """
    images = list(range(sum(gamma)))
    start = 0
    for part in gamma:
        for offset in range(part):
            images[start + offset] = start + (offset + 1) % part
        start += part
    return tuple(images)


@lru_cache(maxsize=None)
def _classes_by_type(n: int) -> dict[Partition, tuple[Perm, ...]]:
    # One full sweep of S_n, bucketed by cycle type; n! tuples stay cached.
    buckets: dict[Partition, list[Perm]] = {}
    for perm in itertools.permutations(range(n)):
        buckets.setdefault(cycle_type(perm), []).append(perm)
    return {t: tuple(perms) for t, perms in buckets.items()}


def conjugacy_class(mu: Partition, *, limit: int = BRUTE_FORCE_DEFAULT_LIMIT) -> tuple[Perm, ...]:
    """All permutations of cycle type mu.  Cost grows like n!, hence the limit."""
    n = sum(mu)
    if n > limit:
        raise BruteForceLimitError(f"class enumeration at n={n} exceeds limit {limit}")
    return _classes_by_type(n)[tuple(mu)]


def structure_constant(mu: Partition, nu: Partition, gamma: Partition, table: CharTable) -> int:
    """Class-algebra coefficient a_{mu,nu}^gamma from character data.

    Exact integer evaluation of
        (|C_mu| |C_nu| / n!) * sum_lam chi(mu) chi(nu) chi(gamma) / chi(1)
    as |C_mu| |C_nu| * S / (n!)^2 with S = sum_lam chi(mu) chi(nu) chi(gamma)
    * (n! / chi(1)), each degree dividing n!.  The result is asserted to be a
    non-negative integer; a violation (or a degree not dividing n!) means the
    character table itself is inconsistent and raises RuntimeError.
    """
    n = table.n
    if sum(mu) != n or sum(nu) != n or sum(gamma) != n:
        raise ValueError(f"classes must all partition {n}: {mu}, {nu}, {gamma}")
    i_mu, i_nu, i_g = table.index(tuple(mu)), table.index(tuple(nu)), table.index(tuple(gamma))
    group_order = math.factorial(n)
    total = 0
    for row in table.values:
        cofactor, rem = divmod(group_order, row[-1])
        if rem:
            raise RuntimeError(
                f"degree {row[-1]} does not divide {n}!; character table is internally inconsistent"
            )
        total += row[i_mu] * row[i_nu] * row[i_g] * cofactor
    scaled = class_size(mu) * class_size(nu) * total
    coeff, rem = divmod(scaled, group_order * group_order)
    if rem or coeff < 0:
        raise RuntimeError(
            f"structure constant for ({mu}, {nu}, {gamma}) came out {scaled}/({n}!)^2; "
            "character table is internally inconsistent"
        )
    return coeff


def structure_constant_bruteforce(
    mu: Partition,
    nu: Partition,
    gamma: Partition,
    *,
    limit: int = BRUTE_FORCE_DEFAULT_LIMIT,
    representative: Perm | None = None,
) -> int:
    """Count pairs (x, y) in C_mu x C_nu with x*y = g by direct enumeration.

    g defaults to class_representative(gamma); passing another member of the
    class must give the same count.  Enumerates x over C_mu and tests the
    cycle type of x^{-1} * g, so the cost is |C_mu| permutation products
    (order n! in the worst case; refuse beyond `limit`).
    """
    n = sum(mu)
    if sum(nu) != n or sum(gamma) != n:
        raise ValueError(f"classes must all partition the same n: {mu}, {nu}, {gamma}")
    if n > limit:
        raise BruteForceLimitError(f"brute force at n={n} exceeds limit {limit}")
    g = class_representative(tuple(gamma)) if representative is None else tuple(representative)
    if cycle_type(g) != tuple(gamma):
        raise ValueError(f"representative {g} does not have cycle type {gamma}")
    nu = tuple(nu)
    count = 0
    for x in conjugacy_class(tuple(mu), limit=limit):
        if cycle_type(compose(inverse(x), g)) == nu:
            count += 1
    return count


def predicted_coefficient(
    mu: Partition, nu: Partition, gamma: Partition, table: CharTable
) -> int | None:
    """Structure constant predicted when (mu, nu) covers all non-linear rows.

    When every non-linear character vanishes on mu or on nu, only the trivial
    and sign rows survive the character sum, which collapses to
        2 |C_mu| |C_nu| / n!   when gamma is an odd class,
        0                      when gamma is even.
    Returns None when the covering hypothesis fails, since the collapse is
    then unjustified.

    The two-term collapse also uses sign(mu) * sign(nu) = -1, which every
    covering pair with n > 6 satisfies.  The one degenerate covering pair
    with equal signs, mu = nu = (2,1) at n = 3, falls outside the prediction:
    there the returned value is not the true structure constant.
    """
    n = table.n
    if sum(mu) != n or sum(nu) != n or sum(gamma) != n:
        raise ValueError(f"classes must all partition {n}: {mu}, {nu}, {gamma}")
    if not covers_all_nonlinear(tuple(mu), tuple(nu), table):
        return None
    if sign_value(gamma) == 1:
        return 0
    doubled = 2 * class_size(mu) * class_size(nu)
    coeff, rem = divmod(doubled, math.factorial(n))
    if rem:
        raise RuntimeError(
            f"predicted coefficient 2|C_mu||C_nu|/{n}! is not integral for ({mu}, {nu})"
        )
    return coeff


def deterministic_triples(
    n: int, count: int, seed: int = 7919
) -> tuple[tuple[Partition, Partition, Partition], ...]:
    """Reproducible sample of class triples of S_n for spot verification.

    The same (n, count, seed) always yields the same triples, so verification
    runs are comparable across machines and sessions.
    """
    rng = random.Random(seed * 1_000_003 + n)
    classes = partitions_of(n)
    return tuple(
        (rng.choice(classes), rng.choice(classes), rng.choice(classes)) for _ in range(count)
    )


def merge_lemma_check(mu: Partition, nu: Partition) -> bool:
    """True when nu arises from mu by replacing two parts with their sum.

    That is: some parts a, b of mu merge into a part a+b of nu while the
    remaining parts agree as multisets.  This is the combinatorial relation
    forced between two classes whose product hits the transposition class.
    """
    if sum(mu) != sum(nu):
        raise ValueError(f"size mismatch: |{mu}| != |{nu}|")
    mu = tuple(mu)
    nu = tuple(sorted(nu, reverse=True))
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            if merge_parts(mu, i, j) == nu:
                return True
    return False
