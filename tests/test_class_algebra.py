import gc
import hashlib
import itertools
import math

import pytest

from oracles import (
    class_members_by_cycles,
    merge_lemma_check,
    merged_by_position,
    perm_cycle_type,
    structure_constant_oracle,
)
from symchar import (
    BruteForceLimitError,
    class_representative,
    class_size,
    conjugacy_class,
    covers_all_nonlinear,
    deterministic_triples,
    find_covering_pairs,
    partitions_of,
    predicted_coefficient,
    sign_value,
    structure_constant,
    structure_constant_bruteforce,
)
from symchar.class_algebra import _class_members, _count_products


def test_class_representative_round_trip():
    for n in range(1, 8):
        for mu in partitions_of(n):
            rep = class_representative(mu)
            assert perm_cycle_type(rep) == mu
    assert class_representative((3, 2, 1)) == (1, 2, 0, 4, 3, 5)


def test_compose_and_inverse():
    for mu in partitions_of(6):
        x = class_representative(mu)
        y = [0] * 6
        for t, image in enumerate(x):
            y[image] = t
        # (a * b)(t) = a[b[t]]
        assert tuple(x[t] for t in y) == tuple(range(6))
        assert tuple(y[t] for t in x) == tuple(range(6))
        assert perm_cycle_type(y) == mu  # classes are self-inverse


def test_conjugacy_class_sizes():
    # each class is built directly, each member once, and the classes
    # together are exactly S_n
    for n in range(1, 8):
        union = set()
        for mu in partitions_of(n):
            members = conjugacy_class(mu)
            assert len(set(members)) == len(members) == class_size(mu)
            assert all(perm_cycle_type(x) == mu for x in members)
            union.update(members)
        assert union == set(itertools.permutations(range(n)))
    # the brute force divides by the number of members it walked, so that
    # must be the class size at every n up to the default limit
    for n in (8, 9):
        for mu in partitions_of(n):
            assert len(conjugacy_class(mu, limit=9)) == class_size(mu), mu
            # kept as one bytes object, one byte per image
            members = _class_members(mu)
            assert type(members) is bytes and len(members) == n * class_size(mu), mu


def test_class_enumeration_leaves_no_cyclic_garbage():
    # the buffer the members are built in is freed as the enumeration
    # returns, not at some later full collection
    gc.collect()
    gc.disable()
    try:
        _class_members.__wrapped__((3, 2, 1))  # past the cache
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_conjugacy_class_member_order():
    # every member of every class of S_n, n <= 8, in the order built; the
    # digest was taken when the classes were still tuples of tuples
    digest = hashlib.sha256()
    for n in range(9):
        for mu in partitions_of(n):
            for x in conjugacy_class(mu):
                digest.update(bytes(x))
    assert digest.hexdigest() == (
        "b1da3b55fe0b30fd18f4a03f570f11b6457586d4628aa2a51de0afa435ec315e"
    )


def test_class_members_match_the_cycle_by_cycle_oracle():
    # the same bytes in the same member order as placing one cycle at a
    # time, for every class of S_n, n <= 9, and for classes past the default
    # limit with fixed points and repeated parts (built past the cache)
    for n in range(10):
        for mu in partitions_of(n):
            assert _class_members(mu) == class_members_by_cycles(mu), mu
    for mu in ((3, 3, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1, 1, 1), (4, 2, 2, 1, 1), (3, 3, 2, 2)):
        assert _class_members.__wrapped__(mu) == class_members_by_cycles(mu), mu


def test_conjugacy_class_limit():
    with pytest.raises(BruteForceLimitError):
        conjugacy_class((9,), limit=8)
    with pytest.raises(BruteForceLimitError):
        conjugacy_class((4,), limit=3)


def test_class_enumeration_stops_at_256_points(monkeypatch):
    # an image is one byte, so past 256 points no member is built: the
    # refusal names the width instead of letting a bytes error escape
    import symchar.class_algebra as class_algebra

    # an enumeration that started would fail at once instead of running on
    def enumerate_class(mu):
        raise AssertionError(f"C_{mu} was enumerated")

    monkeypatch.setattr(class_algebra, "_enumerate_class", enumerate_class)
    for call in (
        lambda: conjugacy_class((257,), limit=300),
        lambda: structure_constant_bruteforce((257,), (257,), (257,), limit=300),  # over C_mu
        lambda: structure_constant_bruteforce((257,), (257,), (1,) * 257, limit=300),  # over C_gamma
    ):
        with pytest.raises(BruteForceLimitError, match="256 points.*one byte"):
            call()


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
        for mu, nu, gamma in deterministic_triples(n)[:10]:
            assert structure_constant_bruteforce(mu, nu, gamma) == (
                structure_constant_oracle(mu, nu, gamma)
            )


def _gamma_is_smallest(mu, nu, gamma):
    return class_size(gamma) < min(class_size(mu), class_size(nu))


def test_bruteforce_independent_of_representative():
    # any member of C_gamma gives the same count over C_mu as the brute
    # force, whichever class it walks (here: the canonical representative
    # and its conjugate by an n-cycle), also where C_gamma is the smallest
    for n in (4, 5, 6):
        rot = tuple((i + 1) % n for i in range(n))
        back = tuple((i - 1) % n for i in range(n))
        classes = partitions_of(n)
        smallest_gamma = [
            (mu, nu, gamma)
            for mu in classes
            for nu in classes
            for gamma in classes
            if _gamma_is_smallest(mu, nu, gamma)
        ]
        for mu, nu, gamma in deterministic_triples(n)[:8] + tuple(smallest_gamma[::5]):
            g = class_representative(gamma)
            conjugated = tuple(rot[g[back[t]]] for t in range(n))
            assert perm_cycle_type(conjugated) == gamma
            counted = structure_constant_bruteforce(mu, nu, gamma)
            for rep in (g, conjugated):
                assert _count_products(_class_members(mu), rep, nu) == counted, (mu, nu, gamma)


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
    # a class enumeration that missed a member leaves a remainder, which must
    # not be rounded away, whichever class is walked
    import symchar.class_algebra as class_algebra

    full = class_algebra._class_members
    monkeypatch.setattr(class_algebra, "_class_members", lambda mu: full(mu)[: -sum(mu)])
    # over C_gamma: 24 * 10 hits over 19 members of C_(3,1,1)
    with pytest.raises(RuntimeError, match="not a multiple"):
        structure_constant_bruteforce((5,), (5,), (3, 1, 1))
    # over C_mu: 10 * 3 hits over 9 members of C_(2,1,1,1)
    with pytest.raises(RuntimeError, match="not a multiple"):
        structure_constant_bruteforce((2, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1))


def test_truncated_classes_do_not_stay_cached(monkeypatch):
    # the sabotage above replaces the cached enumeration; once it is undone,
    # every class it handed out is whole again, as the cache never held a
    # truncated one
    import symchar.class_algebra as class_algebra

    full = class_algebra._class_members
    touched = []

    def truncated(mu):
        touched.append(mu)
        return full(mu)[: -sum(mu)]

    monkeypatch.setattr(class_algebra, "_class_members", truncated)
    with pytest.raises(RuntimeError, match="not a multiple"):
        structure_constant_bruteforce((5,), (5,), (3, 1, 1))
    with pytest.raises(RuntimeError, match="not a multiple"):
        structure_constant_bruteforce((2, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1))
    monkeypatch.undo()
    assert touched == [(3, 1, 1), (2, 1, 1, 1)]
    for mu in touched:
        assert len(class_algebra._class_members(mu)) == sum(mu) * class_size(mu), mu


def test_bruteforce_rejects_bad_inputs():
    with pytest.raises(BruteForceLimitError):
        structure_constant_bruteforce((9,), (9,), (9,), limit=8)
    with pytest.raises(ValueError):
        structure_constant_bruteforce((3,), (2, 1), (2, 2))


def test_deterministic_triples_are_deterministic():
    a = deterministic_triples(7)
    b = deterministic_triples(7)
    assert a == b
    assert len(a) == 100
    assert all(sum(p) == 7 for triple in a for p in triple)
    # the sample verify checks, pinned for n = 1..24
    digest = hashlib.sha256()
    for n in range(1, 25):
        digest.update(repr(deterministic_triples(n)).encode())
    assert digest.hexdigest() == (
        "19cc563b7b4f6bc44ecdaf80f74caf28f3d3480c28fbdf32a3311a78859be5cb"
    )


def test_predicted_coefficient_examples(table_for):
    t7 = table_for(7)
    transposition = (2, 1, 1, 1, 1, 1)
    value = predicted_coefficient((7,), (6, 1), transposition, t7)
    assert value == 2 * class_size((7,)) * class_size((6, 1)) // math.factorial(7)
    assert value == 240
    assert predicted_coefficient((7,), (6, 1), (3, 1, 1, 1, 1), t7) == 0  # even class
    assert predicted_coefficient((5, 2), (6, 1), transposition, t7) is None


def _with_entry(table, lam, mu, value):
    rows = [list(row) for row in table.values]
    rows[table.index(lam)][table.index(mu)] = value
    return table._replace(values=tuple(map(tuple, rows)))


def test_predicted_coefficient_refuses_what_it_cannot_predict(table_for):
    t4 = table_for(4)
    with pytest.raises(ValueError, match="must all partition 4"):
        predicted_coefficient((3,), (2, 1), (3,), t4)
    # chi_(2,2) set to 0 at (3,1) makes ((3,1), (3,1)) a covering pair of the
    # damaged table, and at the even class (1^4) 2*8*8/4! is not an integer
    damaged = _with_entry(t4, (2, 2), (3, 1), 0)
    assert covers_all_nonlinear((3, 1), (3, 1), damaged)
    with pytest.raises(RuntimeError, match="not integral"):
        predicted_coefficient((3, 1), (3, 1), (1, 1, 1, 1), damaged)


def test_predicted_coefficient_matches_structure_constant_on_covering_pair(table_for):
    t7 = table_for(7)
    for gamma in partitions_of(7):
        predicted = predicted_coefficient((7,), (6, 1), gamma, t7)
        assert predicted == structure_constant((7,), (6, 1), gamma, t7)


def test_predicted_coefficient_is_exact_on_every_covering_pair(table_for):
    # below n = 7 the covering pairs include ones of equal signs, such as
    # ((2,), (2,)) and ((2,1), (2,1)), and at n = 1 the one linear row is
    # both the trivial and the sign row
    for n in range(1, 9):
        table = table_for(n)
        for mu, nu in find_covering_pairs(table).pairs:
            for gamma in partitions_of(n):
                want = structure_constant(mu, nu, gamma, table)
                assert predicted_coefficient(mu, nu, gamma, table) == want, (mu, nu, gamma)


def test_merge_lemma_check_examples():
    assert merge_lemma_check((3, 2, 1), (3, 3))
    assert merge_lemma_check((6, 1), (7,))
    assert merge_lemma_check((2, 2, 1), (4, 1))
    assert not merge_lemma_check((4, 4), (5, 3))
    assert not merge_lemma_check((3, 3), (3, 2, 1))  # splitting, not merging
    assert not merge_lemma_check((4, 2), (4, 2))
    assert merge_lemma_check((5, 4, 2), (7, 4))
    assert merge_lemma_check((1, 1), (2,))
    assert merge_lemma_check((2, 2, 2), (4, 2))
    with pytest.raises(ValueError):
        merge_lemma_check((3, 2), (3, 3))


def test_merge_lemma_check_matches_the_positional_definition():
    for n in range(1, 11):
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                assert merge_lemma_check(mu, nu) == merged_by_position(mu, nu), (mu, nu)


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
