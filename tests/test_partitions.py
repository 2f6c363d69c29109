import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import partition_count, perm_sign_by_inversions, rep_of_type
from symchar import (
    DominanceResult,
    centralizer_order,
    class_size,
    conjugate,
    dominance_compare,
    format_partition,
    is_hook,
    merge_parts,
    multiplicities,
    parse_partition,
    partitions_of,
    sign_value,
)
from symchar.partitions import MAX_PARTITION_SIZE, as_partition, from_multiplicities


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
            assert from_multiplicities(multiplicities(p)) == p


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


def test_dominance_examples():
    assert dominance_compare((4, 1, 1), (3, 3)) is DominanceResult.INCOMPARABLE
    assert dominance_compare((3, 3), (4, 1, 1)) is DominanceResult.INCOMPARABLE
    assert dominance_compare((4, 2), (3, 3)) is DominanceResult.GREATER
    assert dominance_compare((3, 3), (4, 2)) is DominanceResult.LESS
    assert dominance_compare((2, 2), (2, 2)) is DominanceResult.EQUAL
    assert dominance_compare((6,), (1,) * 6) is DominanceResult.GREATER


def test_dominance_size_mismatch_rejected():
    with pytest.raises(ValueError):
        dominance_compare((3,), (2, 2))


def test_dominance_is_a_partial_order():
    R = DominanceResult
    for n in (5, 6):
        ps = partitions_of(n)
        rel = {(p, q): dominance_compare(p, q) for p in ps for q in ps}
        for p in ps:
            assert rel[(p, p)] is R.EQUAL
        flipped = {R.LESS: R.GREATER, R.GREATER: R.LESS, R.EQUAL: R.EQUAL,
                   R.INCOMPARABLE: R.INCOMPARABLE}
        for (p, q), r in rel.items():
            assert rel[(q, p)] is flipped[r]
        for p in ps:  # transitivity
            for q in ps:
                if rel[(p, q)] is not R.GREATER:
                    continue
                for s in ps:
                    if rel[(q, s)] is R.GREATER:
                        assert rel[(p, s)] is R.GREATER, (p, q, s)


def test_dominance_reversed_by_conjugation():
    R = DominanceResult
    swap = {R.LESS: R.GREATER, R.GREATER: R.LESS, R.EQUAL: R.EQUAL,
            R.INCOMPARABLE: R.INCOMPARABLE}
    for n in range(1, 9):
        ps = partitions_of(n)
        for p in ps:
            for q in ps:
                assert dominance_compare(conjugate(p), conjugate(q)) is swap[
                    dominance_compare(p, q)
                ]


def test_is_hook():
    assert is_hook((7,))
    assert is_hook((4, 1, 1))
    assert is_hook((1, 1, 1, 1))
    assert not is_hook((2, 2))
    assert not is_hook((5, 3, 1))
    for n in range(1, 11):
        assert sum(1 for p in partitions_of(n) if is_hook(p)) == n


def test_merge_parts_examples():
    assert merge_parts((3, 2, 1), 1, 2) == (3, 3)
    assert merge_parts((5, 4, 2), 0, 2) == (7, 4)
    assert merge_parts((1, 1), 0, 1) == (2,)
    assert merge_parts((2, 2, 2), 2, 0) == (4, 2)


def test_merge_parts_preserves_total():
    for n in range(2, 9):
        for p in partitions_of(n):
            for i in range(len(p)):
                for j in range(len(p)):
                    if i == j:
                        continue
                    merged = merge_parts(p, i, j)
                    assert sum(merged) == n
                    assert len(merged) == len(p) - 1


def test_merge_parts_rejects_bad_indices():
    with pytest.raises(ValueError):
        merge_parts((3, 2), 0, 0)
    with pytest.raises(ValueError):
        merge_parts((3, 2), 0, 2)
    with pytest.raises(ValueError):
        merge_parts((3, 2), -1, 1)


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
    "bad", ["", "2^3", "0", "-2", "x", "3,,1", "1^0", "1^-1", "1^", "^2", "2.5"]
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
    canonical = (3, 2, 1)
    assert as_partition(canonical) is canonical  # a memo keyed by it holds no copy
    with pytest.raises(ValueError):
        as_partition([3, 0])
    with pytest.raises(ValueError):
        as_partition([2, -1])
