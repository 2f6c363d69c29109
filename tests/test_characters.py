import math
import os

import pytest

from oracles import character_table_oracle, degree_by_hooks
from symchar import (
    CharTableCacheError,
    RimHookRemoval,
    border_strip_removals,
    centralizer_order,
    character_table,
    class_size,
    conjugate,
    degree,
    hook_length,
    is_hook,
    load_table,
    mn_char,
    partitions_of,
    save_table,
    sign_value,
)
from symchar.characters import (
    SCHEMA_VERSION,
    mn_memo_size,
    reset_mn_memo,
    table_cache_path,
    table_from_json,
    table_to_json,
)

# Frozen expected tables, rows and columns in canonical order (n) ... (1^n).
# Recomputed by tests/oracles.py from explicit permutation actions, and
# written out here so a regression is visible in the diff, not just in a
# recomputation.
S3_TABLE = [
    [1, 1, 1],  # trivial
    [-1, 0, 2],  # standard
    [1, -1, 1],  # sign
]
S4_TABLE = [
    [1, 1, 1, 1, 1],
    [-1, 0, -1, 1, 3],
    [0, -1, 2, 0, 2],
    [1, 0, -1, -1, 3],
    [-1, 1, 1, -1, 1],
]


def test_hook_length_examples():
    assert hook_length((3, 2), 1, 1) == 4
    assert hook_length((2, 2), 2, 2) == 1
    assert hook_length((4, 2, 1), 1, 1) == 6
    with pytest.raises(ValueError):
        hook_length((3, 2), 2, 3)
    with pytest.raises(ValueError):
        hook_length((3, 2), 3, 1)


def test_hook_length_multiset_gives_degree():
    # n! divided by the product of all hook lengths is the degree; this ties
    # hook_length to mn_char through two unrelated computations.
    for n in range(1, 9):
        for p in partitions_of(n):
            prod = 1
            for r in range(1, len(p) + 1):
                for c in range(1, p[r - 1] + 1):
                    prod *= hook_length(p, r, c)
            assert math.factorial(n) // prod == degree(p)


def test_border_strip_removals_frozen_examples():
    assert border_strip_removals((2, 2), 2) == (
        RimHookRemoval(remaining=(1, 1), height=2, sign=-1),
        RimHookRemoval(remaining=(2,), height=1, sign=1),
    )
    assert border_strip_removals((3,), 3) == (
        RimHookRemoval(remaining=(), height=1, sign=1),
    )
    assert border_strip_removals((3, 2), 2) == (
        RimHookRemoval(remaining=(3,), height=1, sign=1),
    )
    assert border_strip_removals((3, 2), 4) == (
        RimHookRemoval(remaining=(1,), height=2, sign=-1),
    )
    assert border_strip_removals((2, 2), 3) == (
        RimHookRemoval(remaining=(1,), height=2, sign=-1),
    )
    # the full diagram is not itself a border strip (it has a 2x2 block)
    assert border_strip_removals((2, 2), 4) == ()


def test_border_strip_removals_match_hook_lengths():
    # one removal per cell whose hook length equals the strip length
    for n in range(1, 10):
        for p in partitions_of(n):
            for length in range(1, n + 1):
                cells = sum(
                    1
                    for r in range(1, len(p) + 1)
                    for c in range(1, p[r - 1] + 1)
                    if hook_length(p, r, c) == length
                )
                removals = border_strip_removals(p, length)
                assert len(removals) == cells
                for rem in removals:
                    assert sum(rem.remaining) == n - length
                    assert rem.sign == (-1) ** (rem.height - 1)


def test_mn_char_base_and_errors():
    assert mn_char((), ()) == 1
    assert mn_char((1,), (1,)) == 1
    with pytest.raises(ValueError):
        mn_char((2,), (1,))


def test_s3_table_matches_oracle_and_frozen_values():
    oracle = character_table_oracle(3)
    t = character_table(3)
    assert t.order == ((3,), (2, 1), (1, 1, 1))
    for i, lam in enumerate(t.order):
        for j, mu in enumerate(t.order):
            assert t.values[i][j] == S3_TABLE[i][j]
            assert t.values[i][j] == oracle[lam][mu]
    # the labelled spot values, independent of row/column conventions
    assert mn_char((2, 1), (3,)) == -1
    assert mn_char((2, 1), (2, 1)) == 0
    assert mn_char((2, 1), (1, 1, 1)) == 2


def test_s4_table_matches_oracle_and_frozen_values():
    oracle = character_table_oracle(4)
    t = character_table(4)
    for i, lam in enumerate(t.order):
        for j, mu in enumerate(t.order):
            assert t.values[i][j] == S4_TABLE[i][j]
            assert t.values[i][j] == oracle[lam][mu]
    assert mn_char((2, 2), (2, 2)) == 2


def test_s5_table_matches_oracle():
    oracle = character_table_oracle(5)
    t = character_table(5)
    for lam in t.order:
        for mu in t.order:
            assert t.value(lam, mu) == oracle[lam][mu], (lam, mu)


def test_trivial_and_sign_rows():
    for n in range(1, 11):
        t = character_table(n)
        assert t.values[0] == (1,) * len(t.order)
        assert t.values[-1] == tuple(sign_value(mu) for mu in t.order)


def test_sign_character_is_mn_of_column_partition():
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert mn_char((1,) * n, mu) == sign_value(mu)


def test_degrees_match_hook_product_oracle():
    for n in range(1, 11):
        for p in partitions_of(n):
            assert degree(p) == degree_by_hooks(p)
    assert degree((6, 1)) == 6
    assert degree((1,) * 7) == 1
    assert degree((7,)) == 1


def test_degree_bounds_and_positivity():
    for n in range(1, 11):
        t = character_table(n)
        for i, lam in enumerate(t.order):
            d = t.values[i][-1]
            assert d >= 1
            assert all(abs(v) <= d for v in t.values[i])


def test_full_cycle_column_supported_on_hooks():
    # chi_lam((n)) is (-1)^k on the hook (n-k, 1^k) and 0 off hooks
    for n in range(2, 13):
        t = character_table(n)
        col = t.index((n,))
        for i, lam in enumerate(t.order):
            v = t.values[i][col]
            if is_hook(lam):
                assert v == (-1) ** (len(lam) - 1)
            else:
                assert v == 0
    t7 = character_table(7)
    col = [t7.value(lam, (7,)) for lam in t7.order]
    assert sum(1 for v in col if v != 0) == 7


def test_orthogonality_exact_small():
    for n in range(1, 9):
        t = character_table(n)
        k = len(t.order)
        sizes = [class_size(mu) for mu in t.order]
        for a in range(k):
            for b in range(a, k):
                row = sum(sizes[c] * t.values[a][c] * t.values[b][c] for c in range(k))
                assert row == (math.factorial(n) if a == b else 0)
                col = sum(t.values[r][a] * t.values[r][b] for r in range(k))
                assert col == (centralizer_order(t.order[a]) if a == b else 0)


def test_conjugate_symmetry():
    for n in range(1, 11):
        t = character_table(n)
        for lam in t.order:
            for j, mu in enumerate(t.order):
                assert t.value(conjugate(lam), mu) == sign_value(mu) * t.value(lam, mu)


def test_memo_reuse_and_reset():
    reset_mn_memo()
    assert mn_memo_size() == 0
    mn_char((4, 2), (2, 2, 1, 1))
    grown = mn_memo_size()
    assert grown > 0
    mn_char((4, 2), (2, 2, 1, 1))
    assert mn_memo_size() == grown  # second call is pure lookup
    reset_mn_memo()
    assert mn_memo_size() == 0


def test_column_build_matches_mn_char_entry_by_entry():
    # the column-wise table build and the row-wise MN recursion share no code
    for n in range(1, 13):
        t = character_table(n)
        for i, lam in enumerate(t.order):
            for j, mu in enumerate(t.order):
                assert t.values[i][j] == mn_char(lam, mu), (n, lam, mu)


def test_table_build_leaves_mn_memo_untouched():
    reset_mn_memo()
    character_table(10)
    assert mn_memo_size() == 0
    mn_char((4, 2), (2, 2, 1, 1))
    grown = mn_memo_size()
    character_table(11)
    assert mn_memo_size() == grown


def test_table_lookup_helpers():
    t = character_table(5)
    assert t.degree((3, 2)) == 5
    assert t.value((4, 1), (5,)) == -1
    with pytest.raises(ValueError):
        t.index((6,))


def test_json_round_trip_and_determinism(tmp_path):
    t = character_table(6)
    text = table_to_json(t)
    assert table_from_json(text) == t
    assert table_to_json(table_from_json(text)) == text  # byte-stable
    path = tmp_path / "cache" / f"chartable_v{SCHEMA_VERSION}_6.json"
    save_table(t, path)
    assert load_table(path) == t
    assert path.read_text() == text


def test_character_table_disk_cache_round_trip(tmp_path):
    t_cold = character_table(5, cache_dir=tmp_path)
    path = table_cache_path(tmp_path, 5)
    assert path.exists()
    t_warm = character_table(5, cache_dir=tmp_path)
    assert t_warm == t_cold
    assert table_to_json(t_warm) == table_to_json(t_cold)


def test_corrupt_cache_fails_loudly(tmp_path):
    path = table_cache_path(tmp_path, 4)
    path.parent.mkdir(parents=True, exist_ok=True)

    path.write_text("{ not json")
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)

    good = table_to_json(character_table(4))
    path.write_text(good.replace('"schema_version": "1"', '"schema_version": "2"'))
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)

    path.write_text(good.replace('"n": "4"', '"n": "5"'))
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)

    # non-canonical decimal strings are rejected too
    path.write_text(good.replace('"1"', '"01"', 1))
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)


def test_cache_file_of_another_n_fails_loudly(tmp_path):
    character_table(8, cache_dir=tmp_path)
    # a valid file under the wrong name: it holds S_8, the request is for S_9
    table_cache_path(tmp_path, 9).write_bytes(table_cache_path(tmp_path, 8).read_bytes())
    with pytest.raises(CharTableCacheError, match="n=8"):
        character_table(9, cache_dir=tmp_path)


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = table_cache_path(tmp_path, 4)
    save_table(character_table(4), path)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_table(character_table(5), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_missing_cache_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_table(tmp_path / "nope.json")


def test_schema_mismatch_recomputes_instead_of_migrating(tmp_path):
    # files for other schema versions live under other names and are ignored
    v0 = tmp_path / "chartable_v0_4.json"
    v0.parent.mkdir(parents=True, exist_ok=True)
    v0.write_text("{}")
    t = character_table(4, cache_dir=tmp_path)  # ignores v0, computes fresh
    assert t == character_table(4)
    assert table_cache_path(tmp_path, 4).exists()


def test_invalid_table_sizes_rejected():
    with pytest.raises(ValueError):
        character_table(0)
