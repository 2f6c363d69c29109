"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every check is exact (integer equality); the only tolerances anywhere
are the wall-clock budgets, asserted where stated.
"""

import sys
import time
from contextlib import contextmanager
from math import comb

from oracles import merge_lemma_check
from symchar import (
    centralizer_order,
    character_table,
    class_size,
    covers_all_nonlinear,
    deterministic_triples,
    find_covering_pairs,
    hook_char_recursive,
    is_hook,
    mn_char,
    near_hook_value,
    partitions_of,
    predicted_coefficient,
    shape_partition,
    structure_constant,
    structure_constant_bruteforce,
    two_row_char_recursive,
)
from symchar.characters import mn_memo_size, reset_mn_memo
from symchar.cli import main
from symchar.formulas import NearHookShape


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}", file=sys.stdout, flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s)", file=sys.stdout, flush=True)


def test_01_unique_covering_pair_for_n_7_to_22(table_for):
    with criterion("covering pairs for n=7..22 are exactly ((n),(n-1,1))"):
        start = time.perf_counter()
        for n in range(7, 23):
            report = find_covering_pairs(table_for(n))
            assert report.pairs == (((n,), (n - 1, 1)),), (n, report.pairs)
            assert report.matches_theorem is True
        assert time.perf_counter() - start < 120


def test_02_two_classes_needed_for_n_7_to_12(table_for):
    with criterion("k(S_n) = 2 for n=7..12: no single class covers, a pair does"):
        for n in range(7, 13):
            t = table_for(n)
            assert find_covering_pairs(t).k_value == 2
            for mu in partitions_of(n):
                assert not covers_all_nonlinear(mu, mu, t), (n, mu)


def test_03_orthogonality_exact_through_n_12(table_for):
    with criterion("row and column orthogonality exact for n=1..12"):
        for n in range(1, 13):
            t = table_for(n)
            classes = t.order
            sizes = [class_size(mu) for mu in classes]
            group_order = sum(sizes)
            m = len(classes)
            for a in range(m):
                for b in range(a, m):
                    row = sum(sizes[c] * t.values[a][c] * t.values[b][c] for c in range(m))
                    assert row == (group_order if a == b else 0), (n, a, b)
                    col = sum(t.values[r][a] * t.values[r][b] for r in range(m))
                    assert col == (centralizer_order(classes[a]) if a == b else 0), (n, a, b)
        t3 = table_for(3)
        i = t3.index((2, 1))
        assert sum(row[i] ** 2 for row in t3.values) == centralizer_order((2, 1)) == 2


def test_04_hook_vanishing_for_n_7_to_14():
    with criterion("n=7..14: chi vanishes on the n-cycle iff non-hook; hooks die on (n-1,1)"):
        for n in range(7, 15):
            full = (n,)
            near = (n - 1, 1)
            for lam in partitions_of(n):
                on_full_cycle = mn_char(lam, full)
                if is_hook(lam):
                    assert on_full_cycle != 0, (n, lam)
                    if lam not in ((n,), (1,) * n):
                        assert mn_char(lam, near) == 0, (n, lam)
                else:
                    assert on_full_cycle == 0, (n, lam)


def test_05_closed_forms_match_mn_for_n_9_to_14():
    with criterion("all eight closed forms equal MN on every class for n=9..14"):
        start = time.perf_counter()
        for n in range(9, 15):
            classes = partitions_of(n)
            for shape in NearHookShape:
                lam = shape_partition(shape, n)
                for mu in classes:
                    assert near_hook_value(shape, mu) == mn_char(lam, mu), (shape, n, mu)
        assert time.perf_counter() - start < 60


def test_06_recursions_match_mn_through_n_13():
    with criterion("hook and two-row recursions equal MN for all valid k, n=1..13"):
        for n in range(1, 14):
            classes = partitions_of(n)
            for mu in classes:
                for k in range(n):
                    lam = (n - k,) + (1,) * k
                    assert hook_char_recursive(k, mu) == mn_char(lam, mu), (n, k, mu)
                for k in range(n // 2 + 1):
                    lam = (n - k, k) if k else (n,)
                    assert two_row_char_recursive(k, mu) == mn_char(lam, mu), (n, k, mu)


def test_07_structure_constants_agree_with_enumeration_through_n_9(table_for):
    with criterion("structure constants equal brute-force counts: all n<=6, 100 each n=7..9"):
        start = time.perf_counter()
        for n in range(1, 7):
            t = table_for(n)
            classes = partitions_of(n)
            for mu in classes:
                for nu in classes:
                    for gamma in classes:
                        assert structure_constant(mu, nu, gamma, t) == (
                            structure_constant_bruteforce(mu, nu, gamma)
                        ), (mu, nu, gamma)
        for n in (7, 8, 9):
            t = table_for(n)
            triples = deterministic_triples(n)
            assert len(triples) == 100
            for mu, nu, gamma in triples:
                assert structure_constant(mu, nu, gamma, t) == (
                    structure_constant_bruteforce(mu, nu, gamma, limit=9)
                ), (mu, nu, gamma)
        assert time.perf_counter() - start < 300


def test_08_covering_pair_coefficients_collapse(table_for):
    with criterion("covering pairs at n=7..10 predict every structure constant"):
        for n in range(7, 11):
            t = table_for(n)
            report = find_covering_pairs(t)
            assert report.pairs
            for mu, nu in report.pairs:
                for gamma in partitions_of(n):
                    predicted = predicted_coefficient(mu, nu, gamma, t)
                    assert predicted is not None
                    assert predicted == structure_constant(mu, nu, gamma, t), (n, mu, nu, gamma)


def test_09_transposition_coefficient_forces_merge(table_for):
    with criterion("n<=9: positive transposition coefficient forces the merge relation"):
        for n in range(2, 10):
            t = table_for(n)
            transposition = (2,) + (1,) * (n - 2)
            classes = partitions_of(n)
            for i, mu in enumerate(classes):
                for nu in classes[i + 1 :]:
                    if structure_constant(mu, nu, transposition, t) > 0:
                        assert merge_lemma_check(mu, nu) or merge_lemma_check(nu, mu), (mu, nu)


def test_10_table_14_cold_build_time():
    with criterion("character_table(14) cold < 60s"):
        reset_mn_memo()
        start = time.perf_counter()
        table = character_table(14)
        assert time.perf_counter() - start < 60
        assert len(table.order) == 135


def test_11_recursions_at_the_size_budget(capsys):
    with criterion("hook and two-row recursions at n=2000 < 60s"):
        start = time.perf_counter()
        identity = (1,) * 2000
        assert hook_char_recursive(1998, identity) == 1999
        assert two_row_char_recursive(1000, identity) == comb(2000, 1000) // 1001
        code = main(["eval", "--lambda", "2,1^1998", "--mu", "1^2000", "--method", "recursion"])
        assert (code, capsys.readouterr().out) == (0, "1999\n")
        assert time.perf_counter() - start < 60


def test_12_mn_char_at_the_size_budget(capsys):
    with criterion("mn_char at n=2000 < 60s"):
        start = time.perf_counter()
        reset_mn_memo()
        identity = (1,) * 2000
        assert mn_char((2,) + (1,) * 1998, identity) == 1999
        assert mn_char((1000, 1000), identity) == comb(2000, 1000) // 1001
        code = main(["eval", "--lambda", "2,1^1998", "--mu", "1^2000"])
        assert (code, capsys.readouterr().out) == (0, "1999\n")
        assert mn_memo_size() == 2
        assert time.perf_counter() - start < 60
