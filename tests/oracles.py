"""Independent oracles the test suite checks the package against.

Everything here is recomputed from first principles with its own small
implementations (fixed-point counts over explicitly enumerated permutations,
pentagonal-number recurrence, hook products computed inline), so agreement
with the package is meaningful.  Nothing imports the package's computation
paths; only plain tuples cross the boundary.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Callable

# --- partition counting ------------------------------------------------------


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    table = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table[n]


# --- permutation basics (local copies on purpose) ----------------------------


def perm_cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        t, length = start, 0
        while t not in seen:
            seen.add(t)
            t = perm[t]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def perm_sign_by_inversions(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def rep_of_type(mu: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation with cycle type mu: consecutive points per cycle."""
    images = list(range(sum(mu)))
    start = 0
    for part in mu:
        for off in range(part):
            images[start + off] = start + (off + 1) % part
        start += part
    return tuple(images)


def class_members_by_cycles(mu: tuple[int, ...]) -> bytes:
    """The members of C_mu, n bytes each (byte k is the image of k), placed cycle by cycle.

    mu is in descending order.  The cycle through the smallest unplaced
    point is placed next, written from that point; its other points come
    from itertools.permutations.  A permutation fixes each such choice
    uniquely, so each member is built exactly once.  images is the identity
    on every point no cycle is placed on, so once only parts of 1 are left
    it is a member as it stands.  This is the package's enumerator before it
    conjugated whole blocks of members, kept verbatim.
    """
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
    return bytes(members)


# --- degrees by hook products -------------------------------------------------


def degree_by_hooks(p: tuple[int, ...]) -> int:
    n = sum(p)
    prod = 1
    for r, row_len in enumerate(p):
        for c in range(1, row_len + 1):
            arm = row_len - c
            leg = sum(1 for rr in range(r + 1, len(p)) if p[rr] >= c)
            prod *= arm + leg + 1
    return math.factorial(n) // prod


# --- small character tables from permutation actions --------------------------
#
# For n = 3, 4, 5 every irreducible character can be produced from explicit
# permutation actions: fixed points on {0..n-1}, fixed 2-subsets, fixed
# perfect matchings (n=4), exterior square of the standard character, and
# sign twists.  The construction is self-checked by full first orthogonality
# over all n! group elements before anything is returned.


def _fix_points(g: tuple[int, ...]) -> int:
    return sum(1 for i, image in enumerate(g) if i == image)


def _fix_2subsets(g: tuple[int, ...]) -> int:
    n = len(g)
    return sum(
        1 for s in itertools.combinations(range(n), 2) if {g[s[0]], g[s[1]]} == set(s)
    )


def _fix_matchings4(g: tuple[int, ...]) -> int:
    matchings = [
        (frozenset({0, 1}), frozenset({2, 3})),
        (frozenset({0, 2}), frozenset({1, 3})),
        (frozenset({0, 3}), frozenset({1, 2})),
    ]
    count = 0
    for a, b in matchings:
        ga = frozenset(g[x] for x in a)
        gb = frozenset(g[x] for x in b)
        if {ga, gb} == {a, b}:
            count += 1
    return count


def _square(g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[g[i]] for i in range(len(g)))


def _class_functions(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Irreducible characters of S_n (n in 3..5) as {label: {class: value}}."""
    group = list(itertools.permutations(range(n)))

    def std(g):  # the (n-1)-dimensional standard character
        return _fix_points(g) - 1

    def sgn(g):
        return perm_sign_by_inversions(g)

    chars: dict[tuple[int, ...], Callable] = {}
    if n == 3:
        chars[(3,)] = lambda g: 1
        chars[(2, 1)] = std
        chars[(1, 1, 1)] = sgn
    elif n == 4:
        chars[(4,)] = lambda g: 1
        chars[(3, 1)] = std
        chars[(2, 2)] = lambda g: _fix_matchings4(g) - 1
        chars[(2, 1, 1)] = lambda g: std(g) * sgn(g)
        chars[(1, 1, 1, 1)] = sgn
    elif n == 5:
        chars[(5,)] = lambda g: 1
        chars[(4, 1)] = std
        chars[(3, 2)] = lambda g: _fix_2subsets(g) - _fix_points(g)
        chars[(3, 1, 1)] = lambda g: (std(g) ** 2 - std(_square(g))) // 2
        chars[(2, 2, 1)] = lambda g: (_fix_2subsets(g) - _fix_points(g)) * sgn(g)
        chars[(2, 1, 1, 1)] = lambda g: std(g) * sgn(g)
        chars[(1, 1, 1, 1, 1)] = sgn
    else:
        raise ValueError(f"oracle tables cover n in 3..5 only, got {n}")

    # first orthogonality over the whole group: the construction checks itself
    labels = list(chars)
    for i, a in enumerate(labels):
        for b in labels[i:]:
            total = sum(chars[a](g) * chars[b](g) for g in group)
            expected = math.factorial(n) if a == b else 0
            assert total == expected, f"oracle characters fail orthogonality at ({a}, {b})"

    values: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {
        label: {} for label in labels
    }
    for g in group:
        cls = perm_cycle_type(g)
        for label in labels:
            v = chars[label](g)
            prior = values[label].setdefault(cls, v)
            assert prior == v, f"oracle character {label} not constant on class {cls}"
    return values


def character_table_oracle(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    return _class_functions(n)


# --- induced characters by explicit subset enumeration ------------------------


def induced_oracle(k: int, inner: str, mu: tuple[int, ...]) -> int:
    """Value of (trivial_{S_{n-k}} x inner_{S_k}) induced to S_n at w_mu.

    Counted directly: sum over the k-subsets S of {0..n-1} fixed setwise by a
    representative permutation g of class mu, of inner evaluated on g
    restricted to S.  Independent of any multiplicity combinatorics.
    """
    n = sum(mu)
    g = rep_of_type(mu)
    total = 0
    for subset in itertools.combinations(range(n), k):
        image = tuple(sorted(g[x] for x in subset))
        if image != subset:
            continue
        if inner == "trivial":
            total += 1
        else:
            pos = {x: i for i, x in enumerate(subset)}
            restricted = tuple(pos[g[x]] for x in subset)
            total += perm_sign_by_inversions(restricted)
    return total


# --- induced characters by a binomial DP over cycle multiplicities -----------
#
# The package's induced-character value before it read the coefficients of
# one product polynomial, kept verbatim apart from the local multiplicity count.


def induced_binomial_oracle(k: int, inner: str, mu: tuple[int, ...]) -> int:
    """induced_oracle's value, counted by choosing how many cycles of each length."""
    # Signed DP over distinct cycle lengths: acc[t] accumulates the weighted
    # count of selections of total length t.  A selected cycle of length i
    # contributes (-1)^(i-1) under the sign inner character.
    acc = [0] * (k + 1)
    acc[0] = 1
    for value, count in collections.Counter(mu).items():
        per_cycle = 1 if inner == "trivial" else (-1 if value % 2 == 0 else 1)
        nxt = acc[:]
        for chosen in range(1, count + 1):
            weight = math.comb(count, chosen) * per_cycle**chosen
            step = value * chosen
            for total in range(0, k + 1 - step):
                if acc[total]:
                    nxt[total + step] += acc[total] * weight
        acc = nxt
    return acc[k]


# --- the merge relation by its positional definition ---------------------------


def merged_by_position(mu: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """Whether nu is mu with the parts at two positions replaced by their sum.

    Both are taken in descending order; every pair of positions is tried.
    """
    for i, j in itertools.combinations(range(len(mu)), 2):
        rest = [part for k, part in enumerate(mu) if k not in (i, j)]
        if tuple(sorted([*rest, mu[i] + mu[j]], reverse=True)) == nu:
            return True
    return False


def merge_lemma_check(mu: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """True when nu arises from mu by replacing two parts with their sum.

    That is: some parts a, b of mu merge into a part a+b of nu while the
    remaining parts agree as multisets.  This is the combinatorial relation
    forced between two classes whose product hits the transposition class.
    Parts may come in any order; a part that is not a positive int, or mu
    and nu of different sizes, raise ValueError.  As the sizes agree, it
    holds when mu has two parts that nu lacks and nu one part that mu lacks,
    counted with multiplicity.
    """
    for part in (*mu, *nu):
        if type(part) is not int or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {part!r}")
    if sum(mu) != sum(nu):
        raise ValueError(f"{mu} and {nu} do not partition one n")
    parts_of_mu, parts_of_nu = collections.Counter(mu), collections.Counter(nu)
    lost, gained = parts_of_mu - parts_of_nu, parts_of_nu - parts_of_mu
    return lost.total() == 2 and gained.total() == 1


# --- covering pairs by a direct per-row scan ----------------------------------


def covering_pairs_oracle(
    labels: tuple[tuple[int, ...], ...], rows: tuple[tuple[int, ...], ...]
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered pairs of classes on which every non-linear character vanishes.

    labels names both the rows (characters) and the columns (classes) of the
    square table rows.  A row is non-linear when its value at the identity
    class (1^n) exceeds 1.  Starting from every pair (i <= j) of columns, each
    non-linear row in turn removes the pairs it is non-zero on at both ends.
    Pairs are returned as (labels[i], labels[j]) with i <= j.
    """
    n = sum(labels[0])
    identity = labels.index((1,) * n)
    m = len(labels)
    alive = {(i, j) for i in range(m) for j in range(i, m)}
    for row in rows:
        if row[identity] == 1:
            continue
        zeros = {c for c, value in enumerate(row) if value == 0}
        alive = {(i, j) for i, j in alive if i in zeros or j in zeros}
    return {(labels[i], labels[j]) for i, j in alive}


# --- covering pairs from the class algebra alone -----------------------------


def covering_pairs_by_class_algebra(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The covering pairs of S_n, read off class multiplication with no character value.

    Fix g of cycle type mu.  {mu, nu} covers exactly when, for every class
    gamma, the number of y in C_nu with g*y in C_gamma equals
    |C_nu| |C_gamma| (1 + sgn mu sgn nu sgn gamma) / n!, the count that the
    linear characters alone give (for n = 1, whose one character is both
    linear ones, |C_nu| |C_gamma| / n!).  "Only if" is Frobenius' character
    sum; "if" holds because the characters, as functions of gamma, are
    linearly independent.  One tally of (type of y, type of g*y) over all of
    S_n per class mu gives every nu's counts at once.  Pairs (mu, nu) have mu
    at or before nu in the canonical order, descending lexicographic.
    """
    group = list(itertools.permutations(range(n)))
    types = [perm_cycle_type(y) for y in group]
    sizes = collections.Counter(types)
    classes = sorted(sizes, reverse=True)

    def sign(mu: tuple[int, ...]) -> int:
        return -1 if (n - len(mu)) % 2 else 1

    pairs = []
    for a, mu in enumerate(classes):
        g = rep_of_type(mu)
        tally = collections.Counter(
            (kind, perm_cycle_type(tuple(g[image] for image in y))) for y, kind in zip(group, types)
        )
        for nu in classes[a:]:
            linear = [1 if n == 1 else 1 + sign(mu) * sign(nu) * sign(gamma) for gamma in classes]
            if all(
                tally[nu, gamma] * math.factorial(n) == sizes[nu] * sizes[gamma] * factor
                for gamma, factor in zip(classes, linear)
            ):
                pairs.append((mu, nu))
    return tuple(pairs)


# --- structure constants by convolution of indicator functions ----------------


def structure_constant_oracle(
    mu: tuple[int, ...], nu: tuple[int, ...], gamma: tuple[int, ...]
) -> int:
    """Count pairs (x, y) with x in C_mu, y in C_nu, x*y = g, via y = x^{-1}g.

    Same counting problem as the package's brute force, but recomputed here
    with local permutation helpers and composition written out the other way
    (enumerate y and test x = g * y^{-1}), so even the loop shape differs.
    """
    n = sum(mu)
    g = rep_of_type(gamma)
    count = 0
    for y in itertools.permutations(range(n)):
        if perm_cycle_type(y) != tuple(nu):
            continue
        y_inv = [0] * n
        for t, image in enumerate(y):
            y_inv[image] = t
        x = tuple(g[y_inv[t]] for t in range(n))
        if perm_cycle_type(x) == tuple(mu):
            count += 1
    return count


# --- the csv and pretty table layouts -----------------------------------------


def csv_table_oracle(
    labels: tuple[tuple[int, ...], ...], rows: tuple[tuple[object, ...], ...]
) -> str:
    """The `chartable --format csv` layout by the standard library's csv writer.

    A header of the labels (parts joined by '.') after one empty cell, then
    one line per row, its label first; no cell needs quoting.
    """
    import csv
    import io

    dotted = [".".join(map(str, p)) for p in labels]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["", *dotted])
    writer.writerows([label, *row] for label, row in zip(dotted, rows))
    return buffer.getvalue()




def pretty_table_oracle(
    labels: tuple[tuple[int, ...], ...], rows: tuple[tuple[int, ...], ...]
) -> str:
    """The `chartable` pretty layout, built the straightforward way.

    Every cell is turned into text, each column is as wide as its widest
    cell (header included), and each line goes through one str.format with a
    field per column: labels (parts joined by '.') left-aligned, values
    right-aligned, two spaces between columns, trailing blanks stripped.
    """
    dotted = [".".join(map(str, p)) for p in labels]
    lines = [["", *dotted]]
    lines += [[label, *map(str, row)] for label, row in zip(dotted, rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    fmt = "  ".join([f"{{:<{widths[0]}}}", *(f"{{:>{w}}}" for w in widths[1:])])
    return "".join([fmt.format(*line).rstrip() + "\n" for line in lines])


# --- table columns by pushing border strips over beta masks -------------------
#
# The column build the package used before its strip matrices, kept verbatim:
# each term of a {beta mask: coefficient} expansion is pushed one strip at a
# time, and every column is scattered into rows through a mask -> row map.


def _beta_mask(lam: tuple[int, ...], n: int) -> int:
    # lam's beta-set with n beads, bead i at lam[i] + n - 1 - i, as a bitmask.
    mask = 0
    for i in range(n):
        mask |= 1 << ((lam[i] if i < len(lam) else 0) + n - 1 - i)
    return mask


def bead_masks_oracle(shapes: tuple[tuple[int, ...], ...], n: int) -> list[int]:
    """The n-bead beta masks of shapes, in their order, each set a bead at a time."""
    return [_beta_mask(lam, n) for lam in shapes]


def _add_strips(coeffs: dict[int, int], k: int) -> dict[int, int]:
    """Multiply a Schur expansion {beta mask: coefficient} by the power sum p_k.

    Adding a border strip of length k moves a bead b to the free position
    b + k.  The strip's height is one more than the number of beads strictly
    between b and b + k, so that count's parity is the sign.
    """
    out: dict[int, int] = {}
    get = out.get
    between = (1 << (k - 1)) - 1
    for mask, c in coeffs.items():
        movable = mask & ~(mask >> k)  # beads b with b + k free
        while movable:
            bit = movable & -movable
            movable ^= bit
            moved = mask ^ bit ^ (bit << k)
            if ((mask >> bit.bit_length()) & between).bit_count() & 1:
                out[moved] = get(moved, 0) - c
            else:
                out[moved] = get(moved, 0) + c
    return out


def column_push_oracle(
    n: int, order: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """The rows of the character table of S_n, rows and columns in `order`."""
    # Column mu holds the Schur coefficients of p_mu.  The depth-first walk
    # over ascending prefixes of the classes keeps one expansion per level of
    # the current path alive; a leaf's expansion is its column.
    row_of = {_beta_mask(lam, n): i for i, lam in enumerate(order)}
    col_of = {mu: j for j, mu in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    prefix: list[int] = []  # parts added so far, ascending

    def walk(coeffs: dict[int, int], last: int, rest: int) -> None:
        if rest == 0:
            j = col_of[tuple(reversed(prefix))]
            for mask, value in coeffs.items():
                rows[row_of[mask]][j] = value
            return
        # the parts still to add are all >= k, so k must be rest or fit twice
        for k in [*range(last, rest // 2 + 1), rest]:
            prefix.append(k)
            walk(_add_strips(coeffs, k), k, rest - k)
            prefix.pop()

    walk({(1 << n) - 1: 1}, 1, n)
    return tuple(map(tuple, rows))
