"""Integer partitions and the combinatorial statistics attached to them.

A partition is represented as a tuple of positive ints in weakly decreasing
order, e.g. (5, 3, 1, 1).  The empty tuple () is the unique partition of 0 and
is a legitimate value everywhere below; it matters as the base case of the
character recursions.

Partitions of n double as labels for the conjugacy classes of the symmetric
group S_n (cycle types) and for its irreducible characters, so this module is
the shared vocabulary for everything else in the package.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "DominanceResult",
    "as_partition",
    "partitions_of",
    "iter_partitions",
    "multiplicities",
    "from_multiplicities",
    "centralizer_order",
    "class_size",
    "sign_value",
    "dominance_compare",
    "is_hook",
    "merge_parts",
    "conjugate",
    "parse_partition",
    "format_partition",
]

Partition = tuple[int, ...]

# Largest n that parse_partition accepts.  The partitions the package can do
# anything with are far smaller (a full table stops at
# characters.MAX_TABLE_N = 28; `symchar eval --lambda 2,1^1998 --mu 1^2000`
# takes 0.13 s and `--lambda 1000,1000` about 2 s), and the budget is checked
# before a "1^k" is expanded, so no text can make the parser build a huge
# tuple.
MAX_PARTITION_SIZE = 2000

# Largest n for which class_algebra enumerates conjugacy classes by brute
# force unless told otherwise.  It lives here, beside the other size budget,
# so that the CLI can show it in --help without loading the class algebra.
BRUTE_FORCE_DEFAULT_LIMIT = 9


class DominanceResult(Enum):
    """Outcome of comparing two partitions of the same n in dominance order."""

    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of positive ints into canonical descending form.

    Raises ValueError if any entry is not a positive integer.  A tuple that
    is already canonical comes back as itself, so a memo keyed by the result
    holds the caller's tuple, not a copy.
    """
    out = tuple(sorted(parts, reverse=True))
    for p in out:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
    return parts if type(parts) is tuple and parts == out else out


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, descending lexicographically: (n) first, (1^n) last.

    This ordering is the canonical row/column order used by character tables,
    so it must never change.
    """
    return tuple(iter_partitions(n))


def iter_partitions(n: int) -> Iterator[Partition]:
    """The partitions of n in the order of partitions_of(n), generated lazily.

    A caller that needs only a prefix (say, to compare a list of unknown
    length against the canonical order) stops early instead of building all
    p(n) of them.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    return _descending(n, n)


def _descending(remaining: int, cap: int) -> Iterator[Partition]:
    if remaining == 0:
        yield ()
        return
    for part in range(min(cap, remaining), 0, -1):
        for rest in _descending(remaining - part, part):
            yield (part,) + rest


def multiplicities(p: Partition) -> dict[int, int]:
    """Map each part value i to its multiplicity m_i; absent parts are omitted."""
    return dict(Counter(p))


def from_multiplicities(m: dict[int, int]) -> Partition:
    """Inverse of multiplicities(): rebuild the canonical descending tuple."""
    parts: list[int] = []
    for value, count in m.items():
        if value < 1 or count < 0:
            raise ValueError(f"invalid multiplicity entry {value}: {count}")
        parts.extend([value] * count)
    return tuple(sorted(parts, reverse=True))


def centralizer_order(p: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type p.

    Equals prod_i i^(m_i) * m_i! over the multiplicities m_i of p.  Together
    with class_size this satisfies centralizer_order(p) * class_size(p) = n!.
    """
    z = 1
    for value, count in Counter(p).items():
        z *= value**count * math.factorial(count)
    return z


def class_size(p: Partition) -> int:
    """Number of permutations in S_n with cycle type p (n = sum of parts)."""
    return math.factorial(sum(p)) // centralizer_order(p)


def sign_value(p: Partition) -> int:
    """Sign of any permutation of cycle type p: (-1)^(n - number of parts)."""
    return 1 if (sum(p) - len(p)) % 2 == 0 else -1


def dominance_compare(p: Partition, q: Partition) -> DominanceResult:
    """Compare partitions of the same n in dominance (majorization) order.

    p dominates q when every prefix sum of p is >= the corresponding prefix
    sum of q (shorter partition padded with zeros).  Returns GREATER when p
    strictly dominates q, LESS when q strictly dominates p, EQUAL when they
    coincide, INCOMPARABLE otherwise.
    """
    if sum(p) != sum(q):
        raise ValueError(f"dominance undefined across sizes: |{p}| != |{q}|")
    if p == q:
        return DominanceResult.EQUAL
    p_ge_q = True
    q_ge_p = True
    acc_p = acc_q = 0
    for i in range(max(len(p), len(q))):
        acc_p += p[i] if i < len(p) else 0
        acc_q += q[i] if i < len(q) else 0
        if acc_p < acc_q:
            p_ge_q = False
        elif acc_p > acc_q:
            q_ge_p = False
    if p_ge_q:
        return DominanceResult.GREATER
    if q_ge_p:
        return DominanceResult.LESS
    return DominanceResult.INCOMPARABLE


def is_hook(p: Partition) -> bool:
    """True when p has the shape (a, 1, 1, ..., 1), i.e. second part <= 1."""
    return len(p) <= 1 or p[1] <= 1


def merge_parts(p: Partition, i: int, j: int) -> Partition:
    """Replace the parts at positions i and j (0-based) by their sum.

    merge_parts((3, 2, 1), 1, 2) == (3, 3); merge_parts((1, 1), 0, 1) == (2,).
    The result is re-sorted into canonical descending order.
    """
    if i == j:
        raise ValueError("merge_parts needs two distinct part positions")
    if not (0 <= i < len(p)) or not (0 <= j < len(p)):
        raise ValueError(f"part index out of range for {p}: ({i}, {j})")
    rest = [x for k, x in enumerate(p) if k != i and k != j]
    rest.append(p[i] + p[j])
    return tuple(sorted(rest, reverse=True))


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram of p.  An involution: conjugate twice is id."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= k) for k in range(1, p[0] + 1))


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition as used on the command line.

    Accepts positive integers in any order, plus the single documented
    shorthand "1^k" for k trailing ones (e.g. "5,1^3" -> (5, 1, 1, 1)).
    Any other exponent notation is rejected.  The result is sorted descending.
    A partition of more than MAX_PARTITION_SIZE is rejected before any "1^k"
    is expanded.
    """
    parts: list[int] = []
    total = 0
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty token in partition text: {text!r}")
        if "^" in token:
            base_text, _, exp_text = token.partition("^")
            if base_text.strip() != "1":
                raise ValueError(
                    f"exponent shorthand is only supported for ones ('1^k'), got {token!r}"
                )
            part, copies = 1, _parse_positive_int(exp_text.strip(), text)
        else:
            part, copies = _parse_positive_int(token, text), 1
        total += part * copies
        if total > MAX_PARTITION_SIZE:
            raise ValueError(
                f"partition text {text!r} sums past the size budget {MAX_PARTITION_SIZE}"
            )
        parts.extend([part] * copies)
    return tuple(sorted(parts, reverse=True))


def _parse_positive_int(token: str, context: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"non-integer part {token!r} in partition text {context!r}") from None
    if value < 1:
        raise ValueError(f"parts must be positive, got {value} in {context!r}")
    return value


def format_partition(p: Partition, sep: str = ",") -> str:
    """Render a partition as parts joined by sep, largest first: (6, 1) -> "6,1"."""
    return sep.join(str(part) for part in p)
