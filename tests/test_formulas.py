import pytest

from oracles import degree_by_hooks, induced_binomial_oracle, induced_oracle
from symchar import (
    NearHookShape,
    character_table,
    class_representative,
    class_size,
    conjugacy_class,
    deterministic_triples,
    hook_char_recursive,
    mn_char,
    near_hook_value,
    partitions_of,
    predicted_coefficient,
    shape_partition,
    sign_value,
    structure_constant,
    structure_constant_bruteforce,
    two_row_char_recursive,
)
from symchar.formulas import _exact_div, _induced_polynomial
from symchar.partitions import as_partition

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
    # the induced characters' values are the coefficients of one polynomial
    assert _induced_polynomial("trivial", (2, 1, 1))[2] == 2
    for n in range(1, 9):
        for mu in partitions_of(n):
            m1 = sum(1 for part in mu if part == 1)
            trivial = _induced_polynomial("trivial", mu)
            assert len(trivial) == n + 1 and trivial[0] == 1
            assert trivial[1] == m1
            assert trivial[n] == 1
            assert _induced_polynomial("sign", mu)[n] == sign_value(mu)


def test_induced_value_matches_subset_enumeration_oracle():
    for n in range(1, 8):
        for mu in partitions_of(n):
            for k in range(1, n + 1):
                for inner in ("trivial", "sign"):
                    got = _induced_polynomial(inner, mu)[k]
                    assert got == induced_oracle(k, inner, mu), (k, inner, mu)


def test_induced_value_matches_the_binomial_dp_through_n_16():
    for n in range(1, 17):
        for mu in partitions_of(n):
            for inner in ("trivial", "sign"):
                coefficients = _induced_polynomial(inner, mu)
                for k in range(1, n + 1):
                    want = induced_binomial_oracle(k, inner, mu)
                    assert coefficients[k] == want, (k, inner, mu)


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


@pytest.mark.parametrize(
    "call",
    [
        # as in mn_char, a part that is not a positive int is refused; a
        # route that answered here would answer for no class of S_n
        lambda: two_row_char_recursive(1, (1, 1, 0)),
        lambda: hook_char_recursive(1, (1, 1, 0)),
        lambda: near_hook_value(NearHookShape.R1, (1.5, 1.5)),
        lambda: conjugacy_class((0,)),
        lambda: class_representative((2, -1)),
        # each part of all three classes is read before any size is summed
        lambda: structure_constant(("x",), (3,), (3,), character_table(3)),
        lambda: structure_constant((3,), (2.5, 0.5), (3,), character_table(3)),
        lambda: predicted_coefficient(("x",), (3,), (3,), character_table(3)),
        lambda: predicted_coefficient((3,), (3,), (2.5, 0.5), character_table(3)),
        lambda: structure_constant_bruteforce(("x",), (3,), (3,)),
        lambda: structure_constant_bruteforce((3,), (2.5, 0.5), (3,)),
        # a good part beside a bad one: every part is read before any is sorted
        lambda: as_partition((2, "x")),
        lambda: as_partition((2, None)),
        lambda: mn_char((2, "x"), (3,)),
        lambda: mn_char((3,), (2, None)),
        lambda: structure_constant((2, "x"), (3,), (3,), character_table(3)),
        lambda: structure_constant((3,), (3,), (2, None), character_table(3)),
        # a label that is not iterable at all
        lambda: as_partition(5),
        lambda: mn_char(5, (5,)),
        lambda: character_table(3).index(3),
        lambda: class_size(None),
        lambda: sign_value(None),
    ],
    ids=[
        "two-row", "hook", "near-hook", "conjugacy-class", "representative",
        "structure-constant-str", "structure-constant-float", "predicted-str",
        "predicted-float", "bruteforce-str", "bruteforce-float",
        "as-partition-mixed-str", "as-partition-mixed-none", "mn-mixed-str",
        "mn-mixed-none", "structure-constant-mixed-str", "structure-constant-mixed-none",
        "as-partition-int", "mn-int", "index-int", "class-size-none", "sign-none",
    ],
)
def test_library_calls_refuse_non_partitions(call):
    with pytest.raises(ValueError, match="positive integers"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: character_table(True),
        lambda: character_table(3.0),
        lambda: shape_partition(NearHookShape.R1, 3.5),
        lambda: hook_char_recursive(1.0, (2, 1)),
        lambda: two_row_char_recursive(True, (2, 1)),
        lambda: partitions_of(3.0),
        # True == 1, so an untyped cache would answer from the entry of 1
        lambda: (partitions_of(1), partitions_of(True)),
        lambda: deterministic_triples(2.0),
    ],
    ids=[
        "table-bool", "table-float", "shape-float", "hook-float", "two-row-bool",
        "partitions-float", "partitions-bool", "triples-float",
    ],
)
def test_library_calls_refuse_a_non_int_size(call):
    with pytest.raises(ValueError, match=r"\ban int\b"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: shape_partition((2,), 4),
        lambda: near_hook_value((2,), (3, 1)),
        lambda: near_hook_value("R2", (3, 1)),
    ],
    ids=["shape-partition-tail", "near-hook-tail", "near-hook-name"],
)
def test_library_calls_refuse_unknown_shapes(call):
    # only a NearHookShape names a family; a bare tail or a name is refused
    with pytest.raises(ValueError, match="unknown shape"):
        call()


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError, match="non-exact division 7/2"):
        _exact_div(7, 2)


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
