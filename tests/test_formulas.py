import pytest

from oracles import degree_by_hooks, induced_binomial_oracle, induced_oracle
from symchar import (
    NearHookShape,
    hook_char_recursive,
    induced_value,
    mn_char,
    near_hook_value,
    partitions_of,
    shape_partition,
    sign_value,
    two_row_char_recursive,
)

# minimal n at which each shape instantiates to a weakly decreasing sequence
MIN_N = {
    NearHookShape.R1: 2,
    NearHookShape.R2: 4,
    NearHookShape.R11: 3,
    NearHookShape.R3: 6,
    NearHookShape.R21: 5,
    NearHookShape.R111: 4,
    NearHookShape.R211: 6,
    NearHookShape.R1111: 5,
}


def test_shape_partition_examples():
    assert shape_partition(NearHookShape.R1, 7) == (6, 1)
    assert shape_partition(NearHookShape.R2, 9) == (7, 2)
    assert shape_partition(NearHookShape.R11, 9) == (7, 1, 1)
    assert shape_partition(NearHookShape.R3, 9) == (6, 3)
    assert shape_partition(NearHookShape.R21, 9) == (6, 2, 1)
    assert shape_partition(NearHookShape.R111, 9) == (6, 1, 1, 1)
    assert shape_partition(NearHookShape.R211, 9) == (5, 2, 1, 1)
    assert shape_partition(NearHookShape.R1111, 9) == (5, 1, 1, 1, 1)


def test_shape_partition_below_minimum_raises():
    for shape, n_min in MIN_N.items():
        assert sum(shape_partition(shape, n_min)) == n_min
        with pytest.raises(ValueError):
            shape_partition(shape, n_min - 1)


def test_near_hook_value_rejects_out_of_range():
    with pytest.raises(ValueError):
        near_hook_value(NearHookShape.R3, (3, 2))  # n=5 < 6


def test_first_formula_spot_values():
    # chi_(n-1,1) is (number of fixed points) - 1
    assert near_hook_value(NearHookShape.R1, (7,)) == -1
    assert near_hook_value(NearHookShape.R1, (1,) * 7) == 6
    assert near_hook_value(NearHookShape.R1, (5, 1, 1)) == 1


def test_formula_degrees_match_hook_products():
    # at the identity class the polynomials must produce the degree
    for n in range(9, 15):
        identity = (1,) * n
        for shape in NearHookShape:
            lam = shape_partition(shape, n)
            assert near_hook_value(shape, identity) == degree_by_hooks(lam)


def test_formulas_agree_with_mn_everywhere_valid():
    # full agreement sweep from each shape's minimal n upward; this is what
    # justifies using weak decrease as the validity rule
    for n in range(2, 13):
        for shape in NearHookShape:
            if n < MIN_N[shape]:
                continue
            lam = shape_partition(shape, n)
            for mu in partitions_of(n):
                assert near_hook_value(shape, mu) == mn_char(lam, mu), (shape, n, mu)


def test_induced_value_examples():
    assert induced_value(2, "trivial", (2, 1, 1)) == 2
    for n in range(1, 9):
        for mu in partitions_of(n):
            m1 = sum(1 for part in mu if part == 1)
            assert induced_value(1, "trivial", mu) == m1
            assert induced_value(n, "trivial", mu) == 1
            assert induced_value(n, "sign", mu) == sign_value(mu)


def test_induced_value_matches_subset_enumeration_oracle():
    for n in range(1, 8):
        for mu in partitions_of(n):
            for k in range(1, n + 1):
                for inner in ("trivial", "sign"):
                    assert induced_value(k, inner, mu) == induced_oracle(k, inner, mu), (
                        k,
                        inner,
                        mu,
                    )


def test_induced_value_matches_the_binomial_dp_through_n_16():
    for n in range(1, 17):
        for mu in partitions_of(n):
            for inner in ("trivial", "sign"):
                for k in range(1, n + 1):
                    want = induced_binomial_oracle(k, inner, mu)
                    assert induced_value(k, inner, mu) == want, (k, inner, mu)


def test_each_recursion_call_builds_one_polynomial(monkeypatch):
    import symchar.formulas as formulas

    built = []
    real = formulas._induced_polynomial

    def counted(inner, mu):
        built.append(inner)
        return real(inner, mu)

    monkeypatch.setattr(formulas, "_induced_polynomial", counted)
    mu = (4, 3, 2, 2, 1, 1)
    assert hook_char_recursive(10, mu) == mn_char((3,) + (1,) * 10, mu)
    assert built == ["sign"]
    built.clear()
    assert two_row_char_recursive(6, mu) == mn_char((7, 6), mu)
    assert built == ["trivial"]


def test_induced_value_rejects_bad_arguments():
    with pytest.raises(ValueError):
        induced_value(0, "trivial", (3, 1))
    with pytest.raises(ValueError):
        induced_value(5, "trivial", (3, 1))
    with pytest.raises(ValueError):
        induced_value(2, "alternating", (3, 1))


def test_hook_recursion_spot_values():
    for n in range(2, 10):
        assert hook_char_recursive(1, (n,)) == -1  # chi_(n-1,1) at the n-cycle
        assert hook_char_recursive(0, (n,)) == 1
    mu = (5, 3, 2, 1)
    assert hook_char_recursive(4, mu) == mn_char((7, 1, 1, 1, 1), mu)


def test_hook_recursion_agrees_with_mn():
    for n in range(1, 12):
        for mu in partitions_of(n):
            for k in range(n):
                lam = (n - k,) + (1,) * k
                assert hook_char_recursive(k, mu) == mn_char(lam, mu), (k, mu)


def test_two_row_recursion_spot_values():
    mu = (5, 3, 2, 1)
    assert two_row_char_recursive(5, mu) == mn_char((6, 5), mu)
    for n in range(4, 13):
        assert two_row_char_recursive(2, (1,) * n) == n * (n - 3) // 2


def test_two_row_recursion_agrees_with_mn():
    for n in range(1, 12):
        for mu in partitions_of(n):
            for k in range(n // 2 + 1):
                lam = (n - k, k) if k else (n,)
                assert two_row_char_recursive(k, mu) == mn_char(lam, mu), (k, mu)


def test_recursion_ranges_rejected():
    with pytest.raises(ValueError):
        hook_char_recursive(7, (4, 3))  # k must stay below n
    with pytest.raises(ValueError):
        hook_char_recursive(-1, (4, 3))
    with pytest.raises(ValueError):
        two_row_char_recursive(4, (4, 3))  # 2k > n
    with pytest.raises(ValueError):
        two_row_char_recursive(-1, (4, 3))


# The following witnesses pin down the character values that drive the
# covering-pair classification at the sizes where concrete numbers are known.


def test_two_row_values_on_mixed_witness():
    mu = (5, 3, 2, 1)  # m1=m2=m3=m5=1, m4=0
    assert two_row_char_recursive(4, mu) == -1
    assert two_row_char_recursive(5, mu) == 1
    nu = (5, 5, 1)  # the same classes after merging 3+2
    assert two_row_char_recursive(4, nu) == 0
    assert two_row_char_recursive(5, nu) == 2


def test_near_hook_values_separate_merged_pairs():
    # each line: a pair (mu, nu) related by merging two parts, the shape that
    # refuses to vanish on both, and its two values
    cases = [
        ((4, 3, 3, 1), (6, 4, 1), NearHookShape.R2, -1, -1),
        ((4, 4, 2, 1), (6, 4, 1), NearHookShape.R21, 1, 1),
        ((6, 2, 2, 1), (6, 4, 1), NearHookShape.R2, 1, -1),
        ((4, 3, 2, 1, 1), (5, 3, 2, 1), NearHookShape.R11, -1, -1),
        ((5, 3, 2, 1, 1), (5, 3, 3, 1), NearHookShape.R3, 1, 2),
        ((7, 2, 2, 1), (7, 3, 2), NearHookShape.R2, 1, 1),
        ((7, 2, 1, 1, 1), (7, 2, 2, 1), NearHookShape.R2, 1, 1),
    ]
    for mu, nu, shape, v_mu, v_nu in cases:
        assert sum(mu) == sum(nu)
        assert near_hook_value(shape, mu) == v_mu, (shape, mu)
        assert near_hook_value(shape, nu) == v_nu, (shape, nu)
        assert v_mu != 0 and v_nu != 0


def test_deep_two_row_witnesses():
    # with a single fixed point, no 2s or 3s, chi_(n-4,2,2) refuses to vanish
    # on both classes of a merge-related pair built from a 4 and a 1
    assert mn_char((9, 2, 2), (6, 4, 2, 1)) == -1
    assert mn_char((9, 2, 2), (6, 5, 2)) == -1
    assert mn_char((8, 2, 2), (6, 3, 2, 1)) != 0
    assert mn_char((8, 2, 2), (6, 4, 2)) != 0
    # a part equal to 5 with everything between 1 and 5 absent is seen by the
    # two-row character with second row 5
    assert two_row_char_recursive(5, (6, 5, 1)) == 1
