import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _beta_mask,
    character_table_oracle,
    covering_pairs_by_class_algebra,
    covering_pairs_oracle,
)
from symchar import (
    CharTable,
    CoveringPairReport,
    centralizer_order,
    character_table,
    covering_pairs,
    covers_all_nonlinear,
    find_covering_pairs,
    mn_char,
    partitions_of,
    sign_value,
)
from symchar.partitions import MAX_PARTITION_SIZE, iter_partitions
from symchar.vanishing import _candidates, _column


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


# --- covering_pairs: class sizes and a few swept columns, no table -----------


def test_covering_pairs_equal_the_table_scan(table_for):
    # table_for keeps what it builds for the session: 23 and 24 are dropped
    for n in range(1, 25):
        table = table_for(n) if n <= 22 else character_table(n)
        assert covering_pairs(n) == find_covering_pairs(table), n


def test_covering_pairs_past_the_table_are_the_theorem_pair():
    for n in range(25, 61):
        assert covering_pairs(n).pairs == (((n,), (n - 1, 1)),), n


def test_candidates_are_the_classes_whose_centralizer_divides_n_n_minus_1():
    for n in range(1, 41):
        plain = tuple(mu for mu in iter_partitions(n) if n * (n - 1) % centralizer_order(mu) == 0)
        assert tuple(_candidates(n)) == plain, n


def test_swept_columns_equal_the_table_columns(table_for):
    for n in range(1, 21):
        t = table_for(n)
        masks = [_beta_mask(lam, n) for lam in t.order]
        for mu, column in zip(t.order, zip(*t.values)):
            assert _column(mu, n) == {m: v for m, v in zip(masks, column) if v}, (n, mu)


def test_covering_pairs_refuses_outside_its_range():
    # past the size budget nothing is swept
    for n in (0, True, 4.0, MAX_PARTITION_SIZE + 1):
        with pytest.raises(ValueError, match="the n of a column sweep must be an int in 1.."):
            covering_pairs(n)


@pytest.mark.parametrize("n, rejected", [(9, 14), (16, 44), (28, 31)], ids=["9", "16", "28"])
def test_a_rejected_pair_is_rechecked_by_the_downward_sweep(monkeypatch, n, rejected):
    import symchar.characters as characters_module

    # each rejected candidate pair reads two non-zero values at its witness
    # shape: the later class's, which rejects it, and the earlier class's,
    # which confirms the column sweep; a pair that covers reads only zeros
    linear = {((1 << (n - 1)) - 1) | (1 << (2 * n - 1)), ((1 << n) - 1) << 1}
    calls = []
    right = characters_module._mn_beads

    def recorded(mask, r, mu):
        value = right(mask, r, mu)
        calls.append((mask, value))
        return value

    monkeypatch.setattr(characters_module, "_mn_beads", recorded)
    assert covering_pairs(n).pairs == (((n,), (n - 1, 1)),)
    witnesses = [mask for mask, value in calls if value and mask not in linear]
    assert len(witnesses) == 2 * rejected
    assert witnesses[::2] == witnesses[1::2]
    monkeypatch.setattr(characters_module, "_mn_beads", lambda mask, r, mu: 0)
    with pytest.raises(RuntimeError, match=rf"sweep of \({n},\) at n={n} gives \(0, 0\) at \(n\)"):
        covering_pairs(n)
    # one off at every non-linear shape: the first shape of (n)'s column is
    # then a witness whose two values disagree
    monkeypatch.setattr(
        characters_module, "_mn_beads", lambda mask, r, mu: right(mask, r, mu) + (mask not in linear)
    )
    lam, value = (2,) + (1,) * (n - 2), (-1) ** n  # a hook of leg n - 2 at the n-cycle
    with pytest.raises(RuntimeError) as refused:
        covering_pairs(n)
    assert str(refused.value) == (
        f"chi_{lam}(({n},)) at n={n}: the column sweep gives {value}, "
        f"the Murnaghan-Nakayama sweep {value + 1}"
    )


def test_a_wide_later_class_is_never_swept():
    # at n = 1404 the candidate (1098, 299, 6, 1) is the later class of each
    # of its pairs, and its column is past MAX_MN_SHAPES
    assert covering_pairs(1404).pairs == (((1404,), (1403, 1)),)


def test_the_linear_values_of_every_swept_column_are_checked(monkeypatch):
    import symchar.vanishing as vanishing_module

    def sign_flipped(mu, n):
        column = _column(mu, n)
        column[((1 << n) - 1) << 1] *= -1  # chi_(1^n)(mu), the sign of mu
        return column

    monkeypatch.setattr(vanishing_module, "_column", sign_flipped)
    with pytest.raises(RuntimeError, match=r"the column sweep of \(7,\) at n=7 gives \(1, -1\)"):
        covering_pairs(7)


def test_class_algebra_finds_the_same_pairs_and_the_lemma_holds(table_for):
    # the oracle reads no character value and shares no code with symchar
    for n in range(1, 8):
        pairs = covering_pairs_by_class_algebra(n)
        assert pairs == find_covering_pairs(table_for(n)).pairs, n
        assert pairs == covering_pairs(n).pairs, n
        if n >= 4:
            for mu, nu in pairs:
                assert sign_value(mu) != sign_value(nu), (n, mu, nu)
                assert n * (n - 1) % centralizer_order(mu) == 0, (n, mu)
                assert n * (n - 1) % centralizer_order(nu) == 0, (n, nu)
