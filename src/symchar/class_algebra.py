"""Structure constants of the class algebra of S_n, two independent ways.

The coefficient of the class sum of gamma in the product of the class sums
of mu and nu counts pairs (x, y) in C_mu x C_nu with x*y = g for any fixed
g in C_gamma.  structure_constant computes it from character data with exact
integer arithmetic; structure_constant_bruteforce counts directly, by one
route: it walks the smallest of C_mu, C_nu and C_gamma against the
class_representative of another class, each class built member by member
without sweeping S_n, and follows the cycles of one product per member only
until the first cycle that the wanted cycle type has no room for.  The two
never share code, so each checks the other.  (The coefficient that a
covering pair forces is vanishing.predicted_coefficient, beside the pair
rule it reads.)  Every function here that takes two or three classes reads
them through partitions.as_classes: a part that is not a positive int, or
classes that do not all partition one n (the table's n, where a table is
given), raise ValueError before anything is counted.

A class is enumerated once per process and kept as one bytes object: its
members one after another, n bytes each, byte k of a member being its image
of k.  One bytes.translate forms the product of a representative with every
member of a class, and each product is walked as a tuple of ints.  An image
takes one byte, so enumeration stops at 256 points with BruteForceLimitError,
raised before any member is built.  conjugacy_class decodes the bytes into
tuples on each call.

Permutations are tuples of images on {0, ..., n-1}; composition is
(a * b)(t) = a[b[t]].  Cycle types are label-independent, so the 0-based
convention does not affect any count.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from functools import lru_cache

from .characters import CharTable
from .partitions import (
    BRUTE_FORCE_DEFAULT_LIMIT,
    Partition,
    as_classes,
    as_partition,
    class_size,
    partitions_of,
)

__all__ = [
    "Perm",
    "BruteForceLimitError",
    "class_representative",
    "conjugacy_class",
    "structure_constant",
    "structure_constant_bruteforce",
    "merge_lemma_check",
    "deterministic_triples",
]

Perm = tuple[int, ...]

_MAX_POINTS = 256  # a class is stored with one byte per image


class BruteForceLimitError(ValueError):
    """Raised when a brute-force enumeration is requested beyond its limit."""

    @classmethod
    def check(cls, n: int, limit: int) -> None:
        """Refuse a class of S_n past limit, or past 256 points whatever the limit."""
        if n > limit:
            raise cls(f"brute force at n={n} exceeds limit {limit}")
        if n > _MAX_POINTS:
            raise cls(f"brute force at n={n} exceeds {_MAX_POINTS} points: each image is one byte")


def class_representative(gamma: Partition) -> Perm:
    """Fixed representative of the class with cycle type gamma.

    Cycles are laid out largest first and filled with consecutive points, so
    gamma = (3, 2, 1) on 6 points gives the permutation (0 1 2)(3 4)(5).
    """
    gamma = as_partition(gamma)
    images = list(range(sum(gamma)))
    start = 0
    for part in gamma:
        for offset in range(part):
            images[start + offset] = start + (offset + 1) % part
        start += part
    return tuple(images)


@lru_cache(maxsize=None)
def _class_members(mu: Partition) -> bytes:
    # The members of C_mu, n bytes each: byte k of a member is its image of
    # k.  mu is in descending order.  The cycle through the smallest unplaced
    # point is placed next, written from that point; its other points come
    # from itertools.permutations.  A permutation fixes each such choice
    # uniquely, so each member of C_mu is built exactly once.  images is the
    # identity on every point no cycle is placed on, so once only parts of 1
    # are left it is a member as it stands.  Callers refuse n > 256 first.
    images = bytearray(range(sum(mu)))
    members = bytearray()

    def place(free: tuple[int, ...], parts: tuple[int, ...]) -> None:
        if not parts or parts[0] == 1:  # only fixed points are left
            members.extend(images)
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
                    members.extend(images)
                else:
                    placed = set(tail)
                    place(tuple(t for t in others if t not in placed), rest_parts)
                for t in tail:
                    images[t] = t
        images[first] = first

    place(tuple(images), tuple(mu))
    # place refers to itself, and that cycle would keep members' buffer, as
    # large as the class, alive until a full garbage collection
    del place
    return bytes(members)


def conjugacy_class(mu: Partition, *, limit: int = BRUTE_FORCE_DEFAULT_LIMIT) -> tuple[Perm, ...]:
    """All permutations of cycle type mu, each once; the cost is |C_mu|, hence the limit.

    The tuples are decoded from the class's bytes on each call, in the order
    the members were built.
    """
    mu = as_partition(mu)
    n = sum(mu)
    BruteForceLimitError.check(n, limit)
    if not n:
        return ((),)  # S_0 is the one empty permutation
    return tuple(zip(*[iter(_class_members(mu))] * n))


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
    mu, nu, gamma = as_classes(mu, nu, gamma, n=n)
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
    mu: Partition, nu: Partition, gamma: Partition, *, limit: int = BRUTE_FORCE_DEFAULT_LIMIT
) -> int:
    """Count pairs (x, y) in C_mu x C_nu with x*y = g by direct enumeration.

    Class sums commute ((x, y) -> (y, y^-1 x y) maps the solutions of x*y = g
    one-to-one to those of y*x' = g), so mu and nu are swapped when C_nu is
    the smaller class.  Summing the count over all g in C_gamma and over all
    x in C_mu, and using that conjugation moves every member of a class onto
    every other, gives for the count a
        |C_gamma| * a = |C_mu| * #{z in C_gamma : y0 * z in C_nu}
                      = |C_gamma| * #{w in C_mu : g0 * w in C_nu}
    for any y0 in C_mu (taken as x^-1: a class is closed under inversion) and
    any g0 in C_gamma.  So the smaller of C_mu and C_gamma is enumerated
    against the class_representative of the other, one cycle walk per member,
    and the count is |C_mu| * hits / (members walked).  The cost is
    min(|C_mu|, |C_nu|, |C_gamma|) walks, refused beyond `limit` and beyond
    256 points.  |C_mu| is class_size(mu), the one class size that enters a
    count; a division that leaves a remainder means the enumeration missed or
    repeated a member, and raises RuntimeError.
    """
    mu, nu, gamma = as_classes(mu, nu, gamma)
    n = sum(mu)
    BruteForceLimitError.check(n, limit)
    if not n:
        return 1  # S_0: the empty permutation alone, its own class and product
    if class_size(nu) < class_size(mu):
        mu, nu = nu, mu
    walked, fixed = (gamma, mu) if class_size(gamma) < class_size(mu) else (mu, gamma)
    members = _class_members(walked)
    hits = _count_products(members, class_representative(fixed), nu)
    size = len(members) // n
    count, rem = divmod(class_size(mu) * hits, size)
    if rem:
        raise RuntimeError(
            f"|C_mu| * {hits} is not a multiple of the {size} members of C_{walked} "
            f"for ({mu}, {nu}, {gamma}); the class enumeration is inconsistent"
        )
    return count


def _count_products(members: bytes, g: Perm, target: Partition) -> int:
    """Number of members w for which g * w has cycle type target.

    members holds n = len(g) bytes per member, as _class_members returns
    them.  One bytes.translate forms g * w for every member at once; g * w is
    conjugate to w * g, so either has the cycle type that counts.  The cycles
    of each product p are followed (t -> p[t]), each from its smallest point,
    against a count of the parts of target per length.  A product is dropped
    at the first cycle whose length has no part left, and counted only when
    every cycle has used up one part: since the lengths add up to
    n = sum(target), all parts are then used, each exactly once.  The cycle
    through 0 is checked first, before anything is allocated, as most
    products fail there; a product that passes walks it again.
    """
    n = len(g)
    products = members.translate(bytes(g) + bytes(range(n, 256)))
    parts_left = [0] * (n + 1)
    for part in target:
        parts_left[part] += 1
    points = range(n)
    count = 0
    for p in zip(*[iter(products)] * n):
        t = p[0]
        length = 1
        while t:
            t = p[t]
            length += 1
        if not parts_left[length]:
            continue
        left = parts_left.copy()
        seen = [False] * n
        for start in points:
            if seen[start]:
                continue
            t = p[start]
            length = 1
            while t != start:
                seen[t] = True
                t = p[t]
                length += 1
            if not left[length]:
                break
            left[length] -= 1
        else:
            count += 1
    return count


def deterministic_triples(n: int) -> tuple[tuple[Partition, Partition, Partition], ...]:
    """Reproducible sample of 100 class triples of S_n for spot verification.

    The same n always yields the same triples, so verification runs are
    comparable across machines and sessions.  Each triple draws its three
    classes in turn, so a prefix of the sample is a smaller sample.
    """
    classes = partitions_of(n)  # refuses an n that is not an int >= 0
    rng = random.Random(7919 * 1_000_003 + n)
    return tuple(
        (rng.choice(classes), rng.choice(classes), rng.choice(classes)) for _ in range(100)
    )


def merge_lemma_check(mu: Partition, nu: Partition) -> bool:
    """True when nu arises from mu by replacing two parts with their sum.

    That is: some parts a, b of mu merge into a part a+b of nu while the
    remaining parts agree as multisets.  This is the combinatorial relation
    forced between two classes whose product hits the transposition class.
    mu and nu must partition one n (see partitions.as_classes).  As the
    sizes agree, it holds when mu has two parts that nu lacks and nu
    one part that mu lacks, counted with multiplicity.
    """
    mu, nu = as_classes(mu, nu)
    lost, gained = Counter(mu) - Counter(nu), Counter(nu) - Counter(mu)
    return lost.total() == 2 and gained.total() == 1
