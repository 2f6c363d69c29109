import math
from dataclasses import replace

import pytest

from oracles import structure_constant_oracle
from symchar import (
    BruteForceLimitError,
    class_representative,
    class_size,
    conjugacy_class,
    cycle_type,
    deterministic_triples,
    merge_lemma_check,
    partitions_of,
    predicted_coefficient,
    sign_value,
    structure_constant,
    structure_constant_bruteforce,
)
from symchar.class_algebra import compose, inverse


def test_cycle_type_basics():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)
    assert cycle_type(()) == ()


def test_class_representative_round_trip():
    for n in range(1, 8):
        for mu in partitions_of(n):
            rep = class_representative(mu)
            assert cycle_type(rep) == mu
    assert class_representative((3, 2, 1)) == (1, 2, 0, 4, 3, 5)


def test_compose_and_inverse():
    for mu in partitions_of(6):
        x = class_representative(mu)
        assert compose(x, inverse(x)) == tuple(range(6))
        assert compose(inverse(x), x) == tuple(range(6))
        assert cycle_type(inverse(x)) == mu  # classes are self-inverse


def test_conjugacy_class_sizes():
    for n in range(1, 8):
        for mu in partitions_of(n):
            members = conjugacy_class(mu)
            assert len(members) == class_size(mu)
            assert all(cycle_type(x) == mu for x in members)


def test_conjugacy_class_limit():
    with pytest.raises(BruteForceLimitError):
        conjugacy_class((9,), limit=8)
    with pytest.raises(BruteForceLimitError):
        conjugacy_class((4,), limit=3)


def test_structure_constant_examples(table_for):
    t3 = table_for(3)
    assert structure_constant((3,), (2, 1), (2, 1), t3) == 2
    assert structure_constant((3,), (2, 1), (3,), t3) == 0
    assert structure_constant((2, 1), (2, 1), (1, 1, 1), t3) == 3
    t4 = table_for(4)
    assert structure_constant((2, 1, 1), (2, 1, 1), (1, 1, 1, 1), t4) == 6


def _doctored(table, i, j, value):
    values = [list(row) for row in table.values]
    values[i][j] = value
    return replace(table, values=tuple(map(tuple, values)))


def test_structure_constant_rejects_an_inconsistent_table(table_for):
    t3 = table_for(3)
    # chi_(2,1)((3)) = 1 instead of -1: the character sum gives 60 / (3!)^2
    with pytest.raises(RuntimeError, match="inconsistent"):
        structure_constant((3,), (3,), (3,), _doctored(t3, 1, 0, 1))
    # a degree of 4 does not divide 3!
    with pytest.raises(RuntimeError, match="does not divide"):
        structure_constant((3,), (3,), (3,), _doctored(t3, 1, 2, 4))


def test_structure_constant_rejects_size_mismatch(table_for):
    with pytest.raises(ValueError):
        structure_constant((3,), (2, 1), (2, 2), table_for(3))
    with pytest.raises(ValueError):
        structure_constant((4,), (2, 1), (3,), table_for(3))


def test_identity_class_acts_as_unit(table_for):
    for n in range(1, 7):
        t = table_for(n)
        e = (1,) * n
        for mu in partitions_of(n):
            for gamma in partitions_of(n):
                expected = 1 if mu == gamma else 0
                assert structure_constant(mu, e, gamma, t) == expected
            assert structure_constant(mu, mu, e, t) == class_size(mu)


def test_structure_constant_symmetric_in_mu_nu(table_for):
    for n in range(2, 7):
        t = table_for(n)
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                for gamma in classes:
                    assert structure_constant(mu, nu, gamma, t) == structure_constant(
                        nu, mu, gamma, t
                    )


def test_parity_conservation(table_for):
    # an odd*even product never lands on an even class, and so on
    for n in range(2, 7):
        t = table_for(n)
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                for gamma in classes:
                    if sign_value(mu) * sign_value(nu) != sign_value(gamma):
                        assert structure_constant(mu, nu, gamma, t) == 0


def test_bruteforce_matches_character_formula_exhaustively(table_for):
    for n in range(1, 6):
        t = table_for(n)
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                for gamma in classes:
                    assert structure_constant(mu, nu, gamma, t) == (
                        structure_constant_bruteforce(mu, nu, gamma)
                    ), (mu, nu, gamma)


def test_bruteforce_matches_independent_convolution_oracle():
    # the oracle enumerates y and reconstructs x; the package enumerates x
    for n in range(2, 6):
        for mu, nu, gamma in deterministic_triples(n, 10):
            assert structure_constant_bruteforce(mu, nu, gamma) == (
                structure_constant_oracle(mu, nu, gamma)
            )


def test_bruteforce_independent_of_representative():
    # any member of C_gamma gives the same count (here: a conjugate of the
    # canonical representative by an n-cycle)
    for n in (4, 5, 6):
        rot = tuple((i + 1) % n for i in range(n))
        for mu, nu, gamma in deterministic_triples(n, 8):
            g = class_representative(gamma)
            conjugated = compose(rot, compose(g, inverse(rot)))
            assert cycle_type(conjugated) == gamma
            assert structure_constant_bruteforce(mu, nu, gamma) == (
                structure_constant_bruteforce(mu, nu, gamma, representative=conjugated)
            )


def test_bruteforce_rejects_bad_inputs():
    with pytest.raises(BruteForceLimitError):
        structure_constant_bruteforce((9,), (9,), (9,), limit=8)
    with pytest.raises(ValueError):
        structure_constant_bruteforce((3,), (2, 1), (2, 2))
    with pytest.raises(ValueError):
        structure_constant_bruteforce((3,), (3,), (3,), representative=(0, 1, 2))


def test_deterministic_triples_are_deterministic():
    a = deterministic_triples(7, 25)
    b = deterministic_triples(7, 25)
    assert a == b
    assert len(a) == 25
    assert all(sum(p) == 7 for triple in a for p in triple)
    assert deterministic_triples(7, 25, seed=1) != a


def test_predicted_coefficient_examples(table_for):
    t7 = table_for(7)
    transposition = (2, 1, 1, 1, 1, 1)
    value = predicted_coefficient((7,), (6, 1), transposition, t7)
    assert value == 2 * class_size((7,)) * class_size((6, 1)) // math.factorial(7)
    assert value == 240
    assert predicted_coefficient((7,), (6, 1), (3, 1, 1, 1, 1), t7) == 0  # even class
    assert predicted_coefficient((5, 2), (6, 1), transposition, t7) is None


def test_predicted_coefficient_matches_structure_constant_on_covering_pair(table_for):
    t7 = table_for(7)
    for gamma in partitions_of(7):
        predicted = predicted_coefficient((7,), (6, 1), gamma, t7)
        assert predicted == structure_constant((7,), (6, 1), gamma, t7)


def test_merge_lemma_check_examples():
    assert merge_lemma_check((3, 2, 1), (3, 3))
    assert merge_lemma_check((6, 1), (7,))
    assert merge_lemma_check((2, 2, 1), (4, 1))
    assert not merge_lemma_check((4, 4), (5, 3))
    assert not merge_lemma_check((3, 3), (3, 2, 1))  # splitting, not merging
    assert not merge_lemma_check((4, 2), (4, 2))
    with pytest.raises(ValueError):
        merge_lemma_check((3, 2), (3, 3))


def test_merge_related_pairs_with_positive_transposition_coefficient(table_for):
    # whenever the product of two distinct classes hits the transposition
    # class, one of them is a merge of the other
    for n in range(3, 8):
        t = table_for(n)
        transposition = (2,) + (1,) * (n - 2)
        classes = partitions_of(n)
        hits = 0
        for mu in classes:
            for nu in classes:
                if structure_constant(mu, nu, transposition, t) > 0 and mu != nu:
                    assert merge_lemma_check(mu, nu) or merge_lemma_check(nu, mu), (mu, nu)
                    hits += 1
        assert hits > 0
