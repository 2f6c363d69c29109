import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import character_table_oracle, covering_pairs_oracle
from symchar import (
    CharTable,
    CoveringPairReport,
    character_table,
    covers_all_nonlinear,
    find_covering_pairs,
    mn_char,
    partitions_of,
    sign_value,
)


def _zero_set(lam, table):
    """The classes on which chi_lam vanishes, read off its row."""
    row = table.values[table.index(lam)]
    return {mu for mu, value in zip(table.order, row) if value == 0}


def test_zero_sets_of_small_rows(table_for):
    t3 = table_for(3)
    assert _zero_set((2, 1), t3) == {(2, 1)}
    assert _zero_set((3,), t3) == set()
    assert _zero_set((1, 1, 1), t3) == set()
    t4 = table_for(4)
    assert _zero_set((2, 2), t4) == {(4,), (2, 1, 1)}
    assert _zero_set((3, 1), t4) == {(3, 1)}
    assert _zero_set((2, 1, 1), t4) == {(3, 1)}
    assert _zero_set((1, 3), t4) == {(3, 1)}  # parts in any order


def test_every_nonlinear_character_vanishes_somewhere(table_for):
    for n in range(3, 13):
        t = table_for(n)
        for lam, row in zip(t.order, t.values):
            if lam in ((n,), (1,) * n):
                continue
            assert 0 in row, lam


def test_covers_all_nonlinear_known_cases(table_for):
    t7 = table_for(7)
    assert covers_all_nonlinear((7,), (6, 1), t7)
    assert covers_all_nonlinear((7,), (1, 6), t7)  # parts in any order
    assert not covers_all_nonlinear((7,), (5, 2), t7)
    # the witness row behind that failure: (6,1) misses both classes
    assert mn_char((6, 1), (7,)) == -1
    assert mn_char((6, 1), (5, 2)) == -1


def test_find_covering_pairs_n3(table_for):
    report = find_covering_pairs(table_for(3))
    assert report.pairs == (
        ((3,), (2, 1)),
        ((2, 1), (2, 1)),
        ((2, 1), (1, 1, 1)),
    )
    assert report.k_value == 1
    assert report.matches_theorem is None
    assert not report.vacuous


def test_find_covering_pairs_n4(table_for):
    report = find_covering_pairs(table_for(4))
    assert report.pairs == (
        ((4,), (3, 1)),
        ((3, 1), (2, 1, 1)),
    )
    assert report.k_value == 2


def test_find_covering_pairs_small_n_vacuous(table_for):
    # no non-linear characters at all, so every pair covers
    report1 = find_covering_pairs(table_for(1))
    assert report1.vacuous
    assert report1.matches_theorem is None
    assert report1.k_value == 1
    assert report1.pairs == (((1,), (1,)),)

    report2 = find_covering_pairs(table_for(2))
    assert report2.vacuous
    assert report2.k_value == 1
    assert report2.pairs == (
        ((2,), (2,)),
        ((2,), (1, 1)),
        ((1, 1), (1, 1)),
    )


def test_theorem_range_has_unique_pair(table_for):
    for n in range(7, 13):
        report = find_covering_pairs(table_for(n))
        assert report.pairs == (((n,), (n - 1, 1)),)
        assert report.k_value == 2
        assert report.matches_theorem is True
        assert not report.vacuous


def _assert_one_cover_rule(t, pairs):
    # covers_all_nonlinear holds for exactly the pairs the scan found
    for a, mu in enumerate(t.order):
        for nu in t.order[a:]:
            assert covers_all_nonlinear(mu, nu, t) == ((mu, nu) in pairs), (t.n, mu, nu)


def _as_set(report):
    assert len(set(report.pairs)) == len(report.pairs)
    return set(report.pairs)


def test_covering_pairs_match_oracle_on_oracle_tables():
    # tables built from permutation actions, with no package code involved
    for n in range(3, 6):
        oracle = character_table_oracle(n)
        order = partitions_of(n)
        values = tuple(tuple(oracle[lam][mu] for mu in order) for lam in order)
        report = find_covering_pairs(CharTable(n=n, values=values))
        assert _as_set(report) == covering_pairs_oracle(order, values), n


def test_covering_pairs_match_oracle_on_package_tables(table_for):
    # n = 1, 2 have no non-linear rows: every pair covers
    for n in (1, 2, *range(6, 13)):
        t = table_for(n)
        labels = tuple(tuple(lam) for lam in t.order)
        rows = tuple(tuple(row) for row in t.values)
        assert _as_set(find_covering_pairs(t)) == covering_pairs_oracle(labels, rows), n


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
    table = CharTable(n=n, values=values)
    report = find_covering_pairs(table)
    assert _as_set(report) == covering_pairs_oracle(t.order, values)
    _assert_one_cover_rule(table, set(report.pairs))


def test_covering_pairs_have_odd_parity_product(table_for):
    for n in range(4, 13):
        report = find_covering_pairs(table_for(n))
        assert report.pairs
        for mu, nu in report.pairs:
            assert sign_value(mu) * sign_value(nu) == -1


def test_no_single_class_covers_beyond_n3(table_for):
    for n in range(4, 13):
        t = table_for(n)
        for mu in partitions_of(n):
            assert not covers_all_nonlinear(mu, mu, t), (n, mu)


def test_k_of_sn(table_for):
    assert find_covering_pairs(table_for(3)).k_value == 1
    for n in range(4, 13):
        assert find_covering_pairs(table_for(n)).k_value == 2


def test_theorem_diagnostics(table_for):
    for n in range(7, 13):
        assert find_covering_pairs(table_for(n)).diagnostics() == []
    with pytest.raises(ValueError, match="n > 6, got 6"):
        find_covering_pairs(table_for(6)).diagnostics()


def test_theorem_diagnostics_name_the_pairs():
    report = CoveringPairReport(n=7, pairs=(((5, 2), (4, 3)),))
    assert report.matches_theorem is False
    assert report.diagnostics() == [
        "unexpected covering pair: (5, 2) , (4, 3)",
        "expected covering pair not found: (7,) , (6, 1)",
    ]


def test_report_holds_only_n_and_pairs():
    assert CoveringPairReport._fields == ("n", "pairs")
    # every other answer follows from the pairs alone
    report = CoveringPairReport(n=7, pairs=(((7,), (6, 1)), ((3, 3, 1), (3, 3, 1))))
    assert report.k_value == 1
    assert not report.vacuous
    assert report.diagnostics() == ["unexpected covering pair: (3, 3, 1) , (3, 3, 1)"]
    assert CoveringPairReport(n=8, pairs=()).k_value is None


def test_one_cover_rule(table_for):
    for n in range(1, 10):
        t = table_for(n)
        _assert_one_cover_rule(t, set(find_covering_pairs(t).pairs))
