import itertools
import math

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
    # not permutations: a repeated image, or an image outside range(n)
    for bad in ((1, 1, 0), (0, 0), (0, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            cycle_type(bad)


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
    # each class is built directly, each member once, and the classes
    # together are exactly S_n
    for n in range(1, 8):
        union = set()
        for mu in partitions_of(n):
            members = conjugacy_class(mu)
            assert len(set(members)) == len(members) == class_size(mu)
            assert all(cycle_type(x) == mu for x in members)
            union.update(members)
        assert union == set(itertools.permutations(range(n)))
    # the brute force over C_gamma multiplies by class_size(mu), so that size
    # must be the number of members built at every n up to the default limit
    for n in (8, 9):
        for mu in partitions_of(n):
            assert len(conjugacy_class(mu, limit=9)) == class_size(mu), mu


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
    # the parts of a class may come in any order, as in the brute force
    assert structure_constant((1, 2), (2, 1), (1, 1, 1), t3) == 3
    assert structure_constant((1, 1, 2), (1, 2, 1), (1, 1, 1, 1), t4) == 6
    assert structure_constant((1, 3), (2, 2), (1, 3), t4) == structure_constant(
        (3, 1), (2, 2), (3, 1), t4
    )
    t7 = table_for(7)
    assert predicted_coefficient((1, 6), (7,), (1, 2, 1, 1, 1, 1), t7) == (
        predicted_coefficient((6, 1), (7,), (2, 1, 1, 1, 1, 1), t7)
    )


def _doctored(table, i, j, value):
    values = [list(row) for row in table.values]
    values[i][j] = value
    return table._replace(values=tuple(map(tuple, values)))


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
    # S_0 is the one empty permutation, its own class and product
    assert conjugacy_class(()) == ((),)
    assert structure_constant_bruteforce((), (), ()) == 1


def test_bruteforce_symmetric_in_mu_nu():
    # the count enumerates the smaller class, so swapping mu and nu changes
    # which class is walked but never the answer
    for n in range(1, 6):
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                for gamma in classes:
                    assert structure_constant_bruteforce(mu, nu, gamma) == (
                        structure_constant_bruteforce(nu, mu, gamma)
                    ), (mu, nu, gamma)


def test_bruteforce_accepts_parts_in_any_order():
    # the parts of a class may come in any order; an unsorted nu used to
    # match no cycle type and count 0
    assert structure_constant_bruteforce((2, 1), (1, 2), (1, 1, 1)) == 3
    assert structure_constant_bruteforce((1, 3), (3, 1), (1, 1, 1, 1)) == class_size((3, 1))
    assert structure_constant_bruteforce((3, 1), (2, 2), (1, 3)) == (
        structure_constant_bruteforce((3, 1), (2, 2), (3, 1))
    )
    assert set(conjugacy_class((1, 2, 1))) == set(conjugacy_class((2, 1, 1)))


def test_bruteforce_matches_independent_convolution_oracle():
    # the oracle enumerates y over all of S_n and reconstructs x; the package
    # builds the smaller class directly
    for n in range(2, 7):
        for mu, nu, gamma in deterministic_triples(n, 10):
            assert structure_constant_bruteforce(mu, nu, gamma) == (
                structure_constant_oracle(mu, nu, gamma)
            )


def _gamma_is_smallest(mu, nu, gamma):
    return class_size(gamma) < min(class_size(mu), class_size(nu))


def test_bruteforce_independent_of_representative():
    # any member of C_gamma gives the same count (here: a conjugate of the
    # canonical representative by an n-cycle); a passed representative always
    # fixes g, so where C_gamma is the smallest class this also compares the
    # count over C_gamma with the count for one fixed g
    for n in (4, 5, 6):
        rot = tuple((i + 1) % n for i in range(n))
        classes = partitions_of(n)
        smallest_gamma = [
            (mu, nu, gamma)
            for mu in classes
            for nu in classes
            for gamma in classes
            if _gamma_is_smallest(mu, nu, gamma)
        ]
        for mu, nu, gamma in deterministic_triples(n, 8) + tuple(smallest_gamma[::5]):
            g = class_representative(gamma)
            conjugated = compose(rot, compose(g, inverse(rot)))
            assert cycle_type(conjugated) == gamma
            default = structure_constant_bruteforce(mu, nu, gamma)
            assert default == structure_constant_bruteforce(mu, nu, gamma, representative=g)
            assert default == (
                structure_constant_bruteforce(mu, nu, gamma, representative=conjugated)
            )


def test_bruteforce_over_the_smallest_class_gamma(table_for):
    # every triple that takes the C_gamma route, against the convolution
    # oracle over all of S_n and against the character sum
    checked = 0
    for n in range(1, 7):
        t = table_for(n)
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                for gamma in classes:
                    if not _gamma_is_smallest(mu, nu, gamma):
                        continue
                    counted = structure_constant_bruteforce(mu, nu, gamma)
                    assert counted == structure_constant_oracle(mu, nu, gamma), (mu, nu, gamma)
                    assert counted == structure_constant(mu, nu, gamma, t), (mu, nu, gamma)
                    checked += 1
    assert checked == 5 + 27 + 86 + 345  # none at n = 1, 2; then n = 3..6


def test_bruteforce_over_gamma_checks_the_division(monkeypatch):
    # a class enumeration that missed a member: 24 * 9 hits over 19 members
    # of C_(3,1,1) leaves a remainder, which must not be rounded away
    import symchar.class_algebra as class_algebra

    full = class_algebra.conjugacy_class
    monkeypatch.setattr(class_algebra, "conjugacy_class", lambda mu, **kw: full(mu, **kw)[:-1])
    with pytest.raises(RuntimeError, match="not a multiple"):
        structure_constant_bruteforce((5,), (5,), (3, 1, 1))


def test_bruteforce_rejects_bad_inputs():
    with pytest.raises(BruteForceLimitError):
        structure_constant_bruteforce((9,), (9,), (9,), limit=8)
    with pytest.raises(ValueError):
        structure_constant_bruteforce((3,), (2, 1), (2, 2))
    with pytest.raises(ValueError):
        structure_constant_bruteforce((3,), (3,), (3,), representative=(0, 1, 2))
    # not a permutation, though its functional graph has the cycle type
    # (2, 1); a cycle walk through it need not come back to its start
    with pytest.raises(ValueError):
        structure_constant_bruteforce((2, 1), (2, 1), (2, 1), representative=(1, 1, 0))


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
