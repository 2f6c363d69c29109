"""Integer partitions and the combinatorial statistics attached to them.

A partition is represented as a tuple of positive ints in weakly decreasing
order, e.g. (5, 3, 1, 1).  The empty tuple () is the unique partition of 0 and
is a legitimate value everywhere below; it matters as the base case of the
character recursions.

Every module reads its input through three rules kept here, so each is
decided once: as_int for a size or an index (an int, never a bool, in
range), as_partition for a label (positive int parts in any order, each
checked before they are sorted), and as_classes for labels that must all
partition one n.  A value that breaks a rule raises ValueError.

Partitions of n double as labels for the conjugacy classes of the symmetric
group S_n (cycle types) and for its irreducible characters, so this module is
the shared vocabulary for everything else in the package.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "as_int",
    "as_partition",
    "as_classes",
    "partitions_of",
    "iter_partitions",
    "multiplicities",
    "centralizer_order",
    "class_size",
    "sign_value",
    "is_hook",
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


def as_int(value: int, what: str, low: int = 0, high: int | None = None) -> int:
    """value if it is an int (not a bool) in low..high (high None: no bound); else ValueError."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be an int {bound}, got {value!r}")
    return value


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of positive ints into canonical descending form.

    The iterable is read once and each entry checked before any is sorted, so
    one that is not a positive int, or a label that is not iterable, raises
    ValueError, never TypeError.  A canonical tuple comes back as itself: a
    memo keyed by it holds no copy.
    """
    try:
        given = parts if type(parts) is tuple else tuple(parts)
    except TypeError:
        raise ValueError(f"partitions are iterables of positive integers, got {parts!r}") from None
    for p in given:
        if type(p) is not int or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
    out = tuple(sorted(given, reverse=True))
    return given if given == out else out


def as_classes(*labels: Iterable[int], n: int | None = None) -> tuple[Partition, ...]:
    """The labels through as_partition, refused unless all partition one n (n, if given).

    Every label is read before any size is summed, so a bad part is refused first.
    """
    classes = tuple(map(as_partition, labels))
    sizes = {sum(p) for p in classes}
    if len(sizes) > 1 or (n is not None and sizes != {n}):
        where = "the same n" if n is None else n
        raise ValueError(f"labels must all partition {where}: {', '.join(map(str, classes))}")
    return classes


@lru_cache(maxsize=None, typed=True)  # typed: True never reads the entry of 1
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
    p(n) of them.  An n that is not an int >= 0 raises ValueError at once.
    """
    return _descending(as_int(n, "the n to partition"), n)


def _descending(remaining: int, cap: int) -> Iterator[Partition]:
    if remaining == 0:
        yield ()
        return
    for part in range(min(cap, remaining), 0, -1):
        for rest in _descending(remaining - part, part):
            yield (part,) + rest


def multiplicities(p: Partition) -> dict[int, int]:
    """Map each part value i to its multiplicity m_i; absent parts are omitted."""
    return dict(Counter(as_partition(p)))


def centralizer_order(p: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type p.

    Equals prod_i i^(m_i) * m_i! over the multiplicities m_i of p.  Together
    with class_size this satisfies centralizer_order(p) * class_size(p) = n!.
    """
    z = 1
    for value, count in Counter(as_partition(p)).items():
        z *= value**count * math.factorial(count)
    return z


def class_size(p: Partition) -> int:
    """Number of permutations in S_n with cycle type p (n = sum of parts)."""
    p = as_partition(p)
    return math.factorial(sum(p)) // centralizer_order(p)


def sign_value(p: Partition) -> int:
    """Sign of any permutation of cycle type p: (-1)^(n - number of parts)."""
    p = as_partition(p)
    return 1 if (sum(p) - len(p)) % 2 == 0 else -1


def is_hook(p: Partition) -> bool:
    """True when p has the shape (a, 1, 1, ..., 1), i.e. second part <= 1."""
    p = as_partition(p)
    return len(p) <= 1 or p[1] <= 1


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram of p.  An involution: conjugate twice is id."""
    p = as_partition(p)
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
