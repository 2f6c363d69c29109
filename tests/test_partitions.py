import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    merge_lemma_check,
    merged_by_position,
    partition_count,
    perm_sign_by_inversions,
    rep_of_type,
)
from symchar import (
    centralizer_order,
    class_size,
    conjugate,
    format_partition,
    is_hook,
    multiplicities,
    parse_partition,
    partitions_of,
    sign_value,
)
from symchar.partitions import MAX_PARTITION_SIZE, as_classes, as_int, as_partition


def test_canonical_order_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(2) == ((2,), (1, 1))
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_order_is_descending_lex_with_fixed_endpoints():
    for n in range(1, 12):
        seq = partitions_of(n)
        assert seq[0] == (n,)
        assert seq[-1] == (1,) * n
        for a, b in zip(seq, seq[1:]):
            assert a > b  # tuple comparison is exactly descending lex here


def test_counts_match_pentagonal_recurrence():
    for n in range(0, 26):
        assert len(partitions_of(n)) == partition_count(n)


def test_partition_count_seven_is_fifteen():
    assert len(partitions_of(7)) == 15


def test_all_entries_are_valid_partitions():
    for n in range(0, 12):
        for p in partitions_of(n):
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            assert all(part >= 1 for part in p)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_multiplicities_round_trip():
    assert multiplicities((5, 3, 3, 1)) == {5: 1, 3: 2, 1: 1}
    assert multiplicities(()) == {}
    for n in range(0, 11):
        for p in partitions_of(n):
            parts = [value for value, count in multiplicities(p).items() for _ in range(count)]
            assert tuple(sorted(parts, reverse=True)) == p


def test_centralizer_and_class_size():
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3
    assert centralizer_order((1, 1, 1)) == 6
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((2, 1, 1)) == 6
    for n in range(1, 15):
        for p in partitions_of(n):
            assert centralizer_order(p) * class_size(p) == math.factorial(n)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 15):
        assert sum(class_size(p) for p in partitions_of(n)) == math.factorial(n)


def test_sign_matches_inversion_parity_of_actual_permutations():
    for n in range(1, 7):
        for p in partitions_of(n):
            assert sign_value(p) == perm_sign_by_inversions(rep_of_type(p))


def test_sign_examples():
    assert sign_value((2, 1, 1, 1, 1, 1)) == -1  # a transposition in S_7
    for n in range(2, 10):
        assert sign_value((n,)) == (-1) ** (n - 1)
        assert sign_value((1,) * n) == 1


def test_is_hook():
    assert is_hook((7,))
    assert is_hook((4, 1, 1))
    assert is_hook((1, 1, 1, 1))
    assert not is_hook((2, 2))
    assert not is_hook((5, 3, 1))
    for n in range(1, 11):
        assert sum(1 for p in partitions_of(n) if is_hook(p)) == n


def test_merge_parts_examples():
    # (p, i, j, q): q is p with the parts at positions i and j replaced by
    # their sum; merge_lemma_check sees each merge from the two classes alone
    examples = [
        ((3, 2, 1), 1, 2, (3, 3)),
        ((5, 4, 2), 0, 2, (7, 4)),
        ((1, 1), 0, 1, (2,)),
        ((2, 2, 2), 2, 0, (4, 2)),
    ]
    for p, i, j, q in examples:
        rest = [part for k, part in enumerate(p) if k not in (i, j)]
        assert tuple(sorted([*rest, p[i] + p[j]], reverse=True)) == q
        assert merged_by_position(p, q)
        assert merge_lemma_check(p, q)
        assert not merge_lemma_check(q, p)


@pytest.mark.parametrize(
    "call, expected",
    [
        # parts in any order give the answer for the canonical partition
        (lambda: conjugate((1, 2)), (2, 1)),
        (lambda: is_hook((1, 2)), True),
        (lambda: centralizer_order((1, 2)), 2),
        (lambda: class_size((1, 3, 2)), 120),
        (lambda: sign_value((1, 2)), -1),
        (lambda: multiplicities((1, 2, 1)), {2: 1, 1: 2}),
        (lambda: merge_lemma_check((1, 1, 2), (2, 2)), True),
        # a part that is not a positive int names no class of S_n
        (lambda: conjugate((2, 0)), ValueError),
        (lambda: is_hook((1, 0)), ValueError),
        (lambda: centralizer_order((2, 0)), ValueError),
        (lambda: class_size((2, 0)), ValueError),
        (lambda: sign_value((2, -1)), ValueError),
        (lambda: multiplicities((1.5,)), ValueError),
        (lambda: merge_lemma_check((2, 0), (2,)), ValueError),
    ],
    ids=[
        f"{kind}-{name}"
        for kind in ("unsorted", "bad")
        for name in (
            "conjugate", "hook", "centralizer", "class-size",
            "sign", "multiplicities", "merge-lemma",
        )
    ],
)
def test_helpers_read_the_class_through_as_partition(call, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="positive integers"):
            call()
    else:
        assert call() == expected


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for n in range(0, 13):
        for p in partitions_of(n):
            q = conjugate(p)
            assert sum(q) == n
            assert conjugate(q) == p
    for n in range(1, 9):
        assert conjugate((n,)) == (1,) * n


def test_parse_partition():
    assert parse_partition("7") == (7,)
    assert parse_partition("6,1") == (6, 1)
    assert parse_partition("1,6") == (6, 1)
    assert parse_partition("5,1^3") == (5, 1, 1, 1)
    assert parse_partition("1^2,3") == (3, 1, 1)
    assert parse_partition(" 4 , 2 ") == (4, 2)
    assert parse_partition("1^1") == (1,)


@pytest.mark.parametrize(
    "bad",
    ["", "2^3", "0", "-2", "x", "3,,1", "1^0", "1^-1", "1^", "^2", "2.5",
     "+3", "1_0", "\u0663", "\uff13,1", "1^+2"],
)
def test_parse_partition_rejects(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


def test_parse_partition_size_budget():
    top = MAX_PARTITION_SIZE
    assert parse_partition(f"1^{top}") == (1,) * top
    assert parse_partition(f"{top - 3},1^3") == (top - 3, 1, 1, 1)
    assert parse_partition(str(top)) == (top,)
    for text in (f"1^{top + 1}", f"{top + 1}", f"{top},1", f"1^{top // 2},1^{top // 2 + 1}"):
        with pytest.raises(ValueError, match="size budget"):
            parse_partition(text)


def test_parse_partition_refuses_before_expanding():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size budget"):
            parse_partition("1^99999999")
        with pytest.raises(ValueError, match="size budget"):
            parse_partition("5,1^99999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a 10^8-element list would be 800 MB


@given(st.lists(st.integers(1, 50), min_size=1, max_size=40))
def test_parse_format_round_trip_property(parts):
    # () formats as "", which is not partition text; 40 * 50 is within budget
    p = tuple(sorted(parts, reverse=True))
    assert parse_partition(format_partition(p)) == p


def test_format_partition():
    assert format_partition((6, 1)) == "6,1"
    assert format_partition((6, 1), sep=".") == "6.1"
    assert format_partition(()) == ""
    for n in range(1, 9):
        for p in partitions_of(n):
            assert parse_partition(format_partition(p)) == p


def test_as_partition():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    assert as_partition(iter([1, 3, 2])) == (3, 2, 1)  # read once, then sorted
    canonical = (3, 2, 1)
    assert as_partition(canonical) is canonical  # a memo keyed by it holds no copy
    with pytest.raises(ValueError):
        as_partition([3, 0])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_as_int():
    assert as_int(0, "n") == 0
    assert as_int(5, "k", low=1, high=5) == 5
    refused = [(True, 0, None), (2.0, 0, None), ("2", 0, None), (-1, 0, None), (6, 1, 5)]
    for value, low, high in refused:
        with pytest.raises(ValueError, match=r"^k must be an int "):
            as_int(value, "k", low, high)


def test_as_classes():
    assert as_classes([1, 2], (3,)) == ((2, 1), (3,))
    assert as_classes((2, 2), n=4) == ((2, 2),)
    with pytest.raises(ValueError, match="must all partition the same n"):
        as_classes((3,), (2, 1), (1, 1))
    with pytest.raises(ValueError, match="must all partition 5"):
        as_classes((3,), (2, 1), n=5)
    # the parts are read before any size is compared
    with pytest.raises(ValueError, match="positive integers"):
        as_classes((3,), (1, 0.5, 0.5, 1))
