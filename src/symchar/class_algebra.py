"""Structure constants of the class algebra of S_n, two independent ways.

The coefficient of the class sum of gamma in the product of the class sums
of mu and nu counts pairs (x, y) in C_mu x C_nu with x*y = g for any fixed
g in C_gamma.  structure_constant computes it from character data with exact
integer arithmetic; structure_constant_bruteforce counts the pairs directly
by enumerating the smallest of C_mu, C_nu and C_gamma, each built member by
member without sweeping S_n, and walking the cycles of one product per
member only until the first cycle that the wanted cycle type has no room
for.  The two never share code, so each checks the other.

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
from .partitions import (
    BRUTE_FORCE_DEFAULT_LIMIT,
    Partition,
    as_partition,
    class_size,
    merge_parts,
    partitions_of,
    sign_value,
)
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


class BruteForceLimitError(ValueError):
    """Raised when a brute-force enumeration is requested beyond its limit."""


def cycle_type(perm: Perm) -> Partition:
    """Cycle type of a permutation given as a tuple of images, as a partition.

    Raises ValueError unless perm is a permutation of range(len(perm)).
    """
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"{perm} is not a permutation of range({len(perm)})")
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
    return tuple(map(a.__getitem__, b))


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
def _class_members(mu: Partition) -> tuple[Perm, ...]:
    # mu is in descending order.  The cycle through the smallest unplaced
    # point is placed next, written from that point; its other points come
    # from itertools.permutations.  A permutation fixes each such choice
    # uniquely, so each member of C_mu is built exactly once.  images is the
    # identity on every point no cycle is placed on, so once only parts of 1
    # are left it is a member as it stands.
    images = list(range(sum(mu)))
    members: list[Perm] = []

    def place(free: tuple[int, ...], parts: tuple[int, ...]) -> None:
        if not parts or parts[0] == 1:  # only fixed points are left
            members.append(tuple(images))
            return
        first, others = free[0], free[1:]
        for i, length in enumerate(parts):
            if i and parts[i - 1] == length:
                continue  # equal parts give the same cycles
            rest_parts = parts[:i] + parts[i + 1 :]
            last = not rest_parts or rest_parts[0] == 1
            for tail in itertools.permutations(others, length - 1):
                point = first
                for nxt in tail:
                    images[point] = nxt
                    point = nxt
                images[point] = first
                if last:
                    members.append(tuple(images))
                else:
                    placed = set(tail)
                    place(tuple(t for t in others if t not in placed), rest_parts)
                for t in tail:
                    images[t] = t
        images[first] = first

    place(tuple(images), tuple(mu))
    return tuple(members)


def conjugacy_class(mu: Partition, *, limit: int = BRUTE_FORCE_DEFAULT_LIMIT) -> tuple[Perm, ...]:
    """All permutations of cycle type mu, each once; the cost is |C_mu|, hence the limit."""
    n = sum(mu)
    if n > limit:
        raise BruteForceLimitError(f"class enumeration at n={n} exceeds limit {limit}")
    return _class_members(as_partition(mu))


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
    i_mu, i_nu, i_g = table.index(mu), table.index(nu), table.index(gamma)
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

    Class sums commute ((x, y) -> (y, y^-1 x y) maps the solutions of x*y = g
    one-to-one to those of y*x' = g), so mu and nu are swapped when C_nu is
    the smaller class.  Then the smaller of C_mu and C_gamma is enumerated,
    one cycle walk per member, so the cost is min(|C_mu|, |C_nu|, |C_gamma|)
    walks, refused beyond `limit`:

    - C_mu, for g = `representative` (any member of C_gamma must give the
      same count) or class_representative(gamma): w = x^{-1} runs over C_mu,
      which is closed under inversion, and w is counted when w * g has cycle
      type nu.  class_size only picks this route.
    - C_gamma, when no representative is passed and |C_gamma| < |C_mu|.
      Summing the count over all g in C_gamma, and using that it is the same
      for every x in C_mu, gives
          |C_gamma| * a = |C_mu| * #{z in C_gamma : x0^{-1} z in C_nu}
      with x0 = class_representative(mu).  |C_gamma| is the number of
      members enumerated and |C_mu| is class_size(mu), the one class size
      that enters a count; a division that leaves a remainder raises
      RuntimeError.
    """
    mu, nu, gamma = as_partition(mu), as_partition(nu), as_partition(gamma)
    n = sum(mu)
    if sum(nu) != n or sum(gamma) != n:
        raise ValueError(f"classes must all partition the same n: {mu}, {nu}, {gamma}")
    if n > limit:
        raise BruteForceLimitError(f"brute force at n={n} exceeds limit {limit}")
    if class_size(nu) < class_size(mu):
        mu, nu = nu, mu
    if representative is None and class_size(gamma) < class_size(mu):
        members = conjugacy_class(gamma, limit=limit)
        # x0^{-1} z is conjugate to z x0^{-1}, the product _count_products walks
        hits = _count_products(members, inverse(class_representative(mu)), nu)
        count, rem = divmod(class_size(mu) * hits, len(members))
        if rem:
            raise RuntimeError(
                f"|C_mu| * {hits} is not a multiple of |C_gamma| = {len(members)} "
                f"for ({mu}, {nu}, {gamma}); the class enumeration is inconsistent"
            )
        return count
    g = class_representative(gamma) if representative is None else tuple(representative)
    if cycle_type(g) != gamma:
        raise ValueError(f"representative {g} is not a permutation of cycle type {gamma}")
    return _count_products(conjugacy_class(mu, limit=limit), g, nu)


def _count_products(members: tuple[Perm, ...], g: Perm, target: Partition) -> int:
    """Number of w in members for which w * g has cycle type target.

    The cycles of w * g are followed in place (t -> w[g[t]]), each from its
    smallest point, against a count of the parts of target per length.  A w
    is dropped at the first cycle whose length has no part left, and counted
    only when every cycle has used up one part: since the lengths add up to
    n = sum(target), all parts are then used, each exactly once.  The cycle
    through 0 is checked first, before anything is allocated, as most
    members fail there; a member that passes walks it again.
    """
    n = len(g)
    if not n:
        return len(members)  # the empty permutation, whose product has type ()
    parts_left = [0] * (n + 1)
    for part in target:
        parts_left[part] += 1
    points = range(n)
    count = 0
    for w in members:
        t = w[g[0]]
        length = 1
        while t:
            t = w[g[t]]
            length += 1
        if not parts_left[length]:
            continue
        left = parts_left.copy()
        seen = [False] * n
        for start in points:
            if seen[start]:
                continue
            t = w[g[start]]
            length = 1
            while t != start:
                seen[t] = True
                t = w[g[t]]
                length += 1
            if not left[length]:
                break
            left[length] -= 1
        else:
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
    if not covers_all_nonlinear(mu, nu, table):
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
