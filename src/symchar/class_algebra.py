"""Structure constants of the class algebra of S_n, two independent ways.

The coefficient of the class sum of gamma in the product of the class sums
of mu and nu counts pairs (x, y) in C_mu x C_nu with x*y = g for any fixed
g in C_gamma.  structure_constant computes it from character data with exact
integer arithmetic; structure_constant_bruteforce counts directly, by one
route: it walks the smallest of C_mu, C_nu and C_gamma against the
class_representative of another class, each class built without sweeping
S_n, and follows the cycles of one product per member only until the first
cycle that the wanted cycle type has no room for.  The two never share
code, so each checks the other.  (The coefficient that a covering pair
forces is vanishing.predicted_coefficient, beside the pair rule it reads.)
Every function here that takes two or three classes reads them through
partitions.as_classes: a part that is not a positive int, or classes that
do not all partition one n (the table's n, where a table is given), raise
ValueError before anything is counted.

A class is enumerated once per process and kept as one bytes object: its
members one after another, n bytes each, byte k of a member being its image
of k.  It is built a block of members at a time, never a member at a time:
a block of members that share their cycle through 0 is conjugated as a
whole, by one bytes.translate for the images and strided slice assignments
for the points, to give the block with that cycle on other points.
One bytes.translate forms the product of a representative with every
member of a class, and each product is walked as a tuple of ints.  An image
takes one byte, so enumeration stops at 256 points with BruteForceLimitError,
raised before any member is built.  conjugacy_class decodes the bytes into
tuples on each call.  Class sizes are computed once per class and process.

Permutations are tuples of images on {0, ..., n-1}; composition is
(a * b)(t) = a[b[t]].  Cycle types are label-independent, so the 0-based
convention does not affect any count.
"""

from __future__ import annotations

import math
import random
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


# class_size(mu) for a canonical mu, once per class: a brute-force count
# reads up to five sizes and a character sum two
_class_size = lru_cache(maxsize=None)(class_size)


@lru_cache(maxsize=None)
def _class_members(mu: Partition) -> bytes:
    # The members of C_mu, n bytes each: byte k of a member is its image of
    # k.  Built once per process by _enumerate_class; callers refuse n > 256
    # first.
    return _enumerate_class(mu)


def _enumerate_class(mu: Partition) -> bytes:
    # mu is in descending order.  The members come in blocks, one per
    # distinct part L of mu, largest first: the members whose cycle through
    # 0 has length L.  Within a block they are ordered by the points of that
    # cycle as written from 0 (lexicographically), then by the rest of the
    # member as C_(mu - L) orders it on the remaining points in their order.
    # That is the order in which the cycle through the smallest unplaced
    # point, placed one member at a time, would write them.
    #
    # A block starts as the members that take the cycle (0 1 ... L-1) and put
    # a member of C_(mu - L) on L..n-1.  Then the cycle's points are freed
    # last first: for d = L-1 down to 1, the block becomes its conjugates by
    # sigma_t for t = d..n-1, one after another, where sigma_t sends d to t,
    # moves d+1..t down by one and fixes every other point.  sigma_t keeps
    # every other point in order, so each block stays in order, and each
    # choice of the cycle's points comes once, so each member of C_mu is
    # built exactly once.  Conjugating
    # a whole block is one bytes.translate for its images and a strided
    # slice assignment per moved point, never a loop over members.  This
    # recurses through itself, not the cached _class_members, so a class is
    # only ever cached whole.
    n = sum(mu)
    if not mu or mu[0] == 1:
        return bytes(range(n))  # the identity, alone in its class
    blocks = []
    for i, length in enumerate(mu):
        if i and mu[i - 1] == length:
            continue  # equal parts give the same cycles
        rest = _enumerate_class(mu[:i] + mu[i + 1 :])
        count = len(rest) // (n - length) if n > length else 1
        block = bytearray(n * count)
        for k in range(length):
            block[k::n] = bytes([(k + 1) % length]) * count
        shifted = rest.translate(bytes(range(length, 256)) + bytes(length))
        for k in range(length, n):
            block[k::n] = shifted[k - length :: n - length]
        block = bytes(block)
        for d in range(length - 1, 0, -1):
            block = b"".join([_conjugate_block(block, n, d, t) for t in range(d, n)])
        blocks.append(block)
    return b"".join(blocks)


def _conjugate_block(block: bytes, n: int, d: int, t: int) -> bytes:
    # sigma_t * w * sigma_t^-1 for every member w of block, sigma_t as in
    # _enumerate_class: its images are sigma_t of w's, and its image of
    # sigma_t(k) is the one that w had at k
    if t == d:
        return block  # sigma_t is the identity
    sigma = bytes(range(d)) + bytes([t]) + bytes(range(d, t)) + bytes(range(t + 1, 256))
    images = block.translate(sigma)
    moved = bytearray(images)
    moved[t::n] = images[d::n]
    for k in range(d + 1, t + 1):
        moved[k - 1 :: n] = images[k::n]
    return bytes(moved)


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
    i_mu, i_nu, i_g = map(table.order.index, (mu, nu, gamma))  # as_classes checked each
    group_order = math.factorial(n)
    total = 0
    for row in table.values:
        cofactor, rem = divmod(group_order, row[-1])
        if rem:
            raise RuntimeError(
                f"degree {row[-1]} does not divide {n}!; character table is internally inconsistent"
            )
        total += row[i_mu] * row[i_nu] * row[i_g] * cofactor
    scaled = _class_size(mu) * _class_size(nu) * total
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
    if _class_size(nu) < _class_size(mu):
        mu, nu = nu, mu
    walked, fixed = (gamma, mu) if _class_size(gamma) < _class_size(mu) else (mu, gamma)
    members = _class_members(walked)
    hits = _count_products(members, class_representative(fixed), nu)
    size = len(members) // n
    count, rem = divmod(_class_size(mu) * hits, size)
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

