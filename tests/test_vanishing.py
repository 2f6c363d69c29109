import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import character_table_oracle, covering_pairs_oracle
from symchar import (
    CharTable,
    character_table,
    covers_all_nonlinear,
    find_covering_pairs,
    k_of_sn,
    mn_char,
    partitions_of,
    sign_value,
    vanishing_set,
    verify_main_theorem,
)


def test_vanishing_set_examples(table_for):
    t3 = table_for(3)
    assert vanishing_set((2, 1), t3) == {(2, 1)}
    assert vanishing_set((3,), t3) == set()
    assert vanishing_set((1, 1, 1), t3) == set()
    t4 = table_for(4)
    assert vanishing_set((2, 2), t4) == {(4,), (2, 1, 1)}
    assert vanishing_set((3, 1), t4) == {(3, 1)}
    assert vanishing_set((2, 1, 1), t4) == {(3, 1)}
    assert vanishing_set((1, 3), t4) == {(3, 1)}  # parts in any order


def test_vanishing_set_rejects_unknown_row(table_for):
    with pytest.raises(ValueError):
        vanishing_set((2, 2), table_for(3))


def test_every_nonlinear_character_vanishes_somewhere(table_for):
    for n in range(3, 13):
        t = table_for(n)
        for lam in partitions_of(n):
            if lam in ((n,), (1,) * n):
                continue
            assert vanishing_set(lam, t), lam


def test_covers_all_nonlinear_known_cases(table_for):
    t7 = table_for(7)
    assert covers_all_nonlinear((7,), (6, 1), t7)
    assert covers_all_nonlinear((7,), (1, 6), t7)  # parts in any order
    assert not covers_all_nonlinear((7,), (5, 2), t7)
    # the witness row behind that failure: (6,1) misses both classes
    assert mn_char((6, 1), (7,)) == -1
    assert mn_char((6, 1), (5, 2)) == -1


def test_find_covering_pairs_n3(table_for):
    report = find_covering_pairs(3, table_for(3))
    assert report.pairs == (
        ((3,), (2, 1)),
        ((2, 1), (2, 1)),
        ((2, 1), (1, 1, 1)),
    )
    assert report.k_value == 1
    assert report.matches_theorem is None
    assert not report.vacuous
    assert report.degenerate_pairs() == (((2, 1), (2, 1)),)


def test_find_covering_pairs_n4(table_for):
    report = find_covering_pairs(4, table_for(4))
    assert report.pairs == (
        ((4,), (3, 1)),
        ((3, 1), (2, 1, 1)),
    )
    assert report.k_value == 2
    assert report.degenerate_pairs() == ()


def test_find_covering_pairs_small_n_vacuous(table_for):
    # no non-linear characters at all, so every pair covers
    report1 = find_covering_pairs(1, table_for(1))
    assert report1.vacuous
    assert report1.matches_theorem is None
    assert report1.k_value == 1
    assert report1.pairs == (((1,), (1,)),)

    report2 = find_covering_pairs(2, table_for(2))
    assert report2.vacuous
    assert report2.k_value == 1
    assert report2.pairs == (
        ((2,), (2,)),
        ((2,), (1, 1)),
        ((1, 1), (1, 1)),
    )


def test_theorem_range_has_unique_pair(table_for):
    for n in range(7, 13):
        report = find_covering_pairs(n, table_for(n))
        assert report.pairs == (((n,), (n - 1, 1)),)
        assert report.k_value == 2
        assert report.matches_theorem is True
        assert report.degenerate_pairs() == ()
        assert not report.vacuous


def _as_set(report):
    assert len(set(report.pairs)) == len(report.pairs)
    return set(report.pairs)


def test_covering_pairs_match_oracle_on_oracle_tables():
    # tables built from permutation actions, with no package code involved
    for n in range(3, 6):
        oracle = character_table_oracle(n)
        order = partitions_of(n)
        values = tuple(tuple(oracle[lam][mu] for mu in order) for lam in order)
        report = find_covering_pairs(n, CharTable(n=n, order=order, values=values))
        assert _as_set(report) == covering_pairs_oracle(order, values), n


def test_covering_pairs_match_oracle_on_package_tables(table_for):
    # n = 1, 2 have no non-linear rows: every pair covers
    for n in (1, 2, *range(6, 13)):
        t = table_for(n)
        labels = tuple(tuple(lam) for lam in t.order)
        rows = tuple(tuple(row) for row in t.values)
        assert _as_set(find_covering_pairs(n, t)) == covering_pairs_oracle(labels, rows), n


@settings(deadline=None)
@given(st.integers(3, 6), st.data())
def test_covering_pairs_match_oracle_on_random_zero_patterns(n, data):
    # real tables for n > 6 have a single covering pair; zeroing random values
    # of the non-linear rows (degrees kept) gives the scan many pairs to find
    t = character_table(n)
    width = len(t.order)
    values = [t.values[0]]
    for row in t.values[1:-1]:
        zeroed = data.draw(st.lists(st.booleans(), min_size=width - 1, max_size=width - 1))
        values.append(tuple(0 if z else v for z, v in zip(zeroed, row)) + row[-1:])
    values = tuple(values) + t.values[-1:]
    report = find_covering_pairs(n, CharTable(n=n, order=t.order, values=values))
    assert _as_set(report) == covering_pairs_oracle(t.order, values)


def test_covering_pairs_have_odd_parity_product(table_for):
    for n in range(4, 13):
        report = find_covering_pairs(n, table_for(n))
        assert report.pairs
        for mu, nu in report.pairs:
            assert sign_value(mu) * sign_value(nu) == -1


def test_no_single_class_covers_beyond_n3(table_for):
    for n in range(4, 13):
        t = table_for(n)
        for mu in partitions_of(n):
            assert not covers_all_nonlinear(mu, mu, t), (n, mu)


def test_k_of_sn(table_for):
    assert k_of_sn(3, table_for(3)) == 1
    for n in range(4, 13):
        assert k_of_sn(n, table_for(n)) == 2
    with pytest.raises(ValueError):
        k_of_sn(2, table_for(2))


def test_verify_main_theorem(table_for):
    for n in range(7, 13):
        check = verify_main_theorem(n, table_for(n))
        assert check.ok
        assert check.expected == ((n,), (n - 1, 1))
        assert check.extra_pairs == ()
        assert check.missing_pairs == ()
        assert check.diagnostics() == []
    with pytest.raises(ValueError):
        verify_main_theorem(6, table_for(6))


def test_theorem_check_diagnostics_name_the_pairs():
    from symchar.vanishing import TheoremCheck

    check = TheoremCheck(
        n=7,
        ok=False,
        expected=((7,), (6, 1)),
        extra_pairs=(((5, 2), (4, 3)),),
        missing_pairs=(((7,), (6, 1)),),
    )
    lines = check.diagnostics()
    assert len(lines) == 2
    assert "(5, 2)" in lines[0]
    assert "(7,)" in lines[1]


def test_report_table_mismatch(table_for):
    with pytest.raises(ValueError):
        find_covering_pairs(5, table_for(4))
