import hashlib
import json
import math
import os
import random
import re
import struct
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import bead_masks_oracle, character_table_oracle, column_push_oracle, degree_by_hooks
from symchar import (
    CharTable,
    CharTableCacheError,
    RimHookRemoval,
    border_strip_removals,
    centralizer_order,
    character_table,
    class_size,
    conjugate,
    is_hook,
    load_table,
    mn_char,
    partitions_of,
    save_table,
    sign_value,
)
from symchar.characters import (
    MAX_TABLE_N,
    SCHEMA_VERSION,
    _add_strips,
    _bead_levels,
    _bias,
    _part_counts,
    _table_values,
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


def test_hook_length_multiset_gives_degree():
    # n! divided by the product of all hook lengths is the degree; this ties
    # the hook lengths to mn_char through two unrelated computations.
    for n in range(1, 9):
        for p in partitions_of(n):
            prod = 1
            # the hook of cell (r, c), 0-based: its arm, its leg and itself
            for r in range(len(p)):
                for c in range(p[r]):
                    prod *= p[r] - c + sum(1 for below in p[r + 1 :] if below > c)
            assert math.factorial(n) // prod == mn_char(p, (1,) * n)


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
    with pytest.raises(ValueError, match="strip length must be positive"):
        border_strip_removals((2, 2), 0)
    # p is read through as_partition, and the length must be an int
    assert border_strip_removals((1, 2), 1) == (
        RimHookRemoval(remaining=(1, 1), height=1, sign=1),
        RimHookRemoval(remaining=(2,), height=1, sign=1),
    )
    with pytest.raises(ValueError, match="strip length must be positive and an int"):
        border_strip_removals((2, 1), 1.5)
    with pytest.raises(ValueError, match="positive integers"):
        border_strip_removals((2, -1), 1)


def test_border_strip_removals_match_hook_lengths():
    # one removal per cell whose hook length equals the strip length
    for n in range(1, 10):
        for p in partitions_of(n):
            # the hook of cell (r, c), 0-based: its arm, its leg and itself
            hooks = [
                p[r] - c + sum(1 for below in p[r + 1 :] if below > c)
                for r in range(len(p))
                for c in range(p[r])
            ]
            for length in range(1, n + 1):
                cells = hooks.count(length)
                removals = border_strip_removals(p, length)
                assert len(removals) == cells
                for rem in removals:
                    assert sum(rem.remaining) == n - length
                    assert rem.sign == (-1) ** (rem.height - 1)


def test_mn_char_base_and_errors():
    assert mn_char((), ()) == 1
    assert mn_char((1,), (1,)) == 1
    assert mn_char((1, 2), (3,)) == -1  # parts in any order, like (2, 1)
    with pytest.raises(ValueError):
        mn_char((2,), (1,))
    with pytest.raises(ValueError):
        mn_char((2, -1, 2), (3,))


def test_mn_char_peels_its_first_part_like_border_strip_removals():
    # the Murnaghan-Nakayama identity on the first part of mu ties the
    # sweep's bead arithmetic to the beta-list removals
    for n in range(1, 11):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                peeled = sum(
                    r.sign * mn_char(r.remaining, mu[1:]) for r in border_strip_removals(lam, mu[0])
                )
                assert mn_char(lam, mu) == peeled, (lam, mu)


def test_mn_char_needs_no_table_build_and_no_border_strip_removals(monkeypatch):
    import symchar.characters as characters_module

    table = character_table(8)
    build = ("_part_counts", "_bead_levels", "_add_strips", "_table_values")
    for name in (*build, "border_strip_removals"):

        def refuse(*args, name=name):
            raise AssertionError(f"mn_char called {name}")

        monkeypatch.setattr(characters_module, name, refuse)
    reset_mn_memo()
    for lam in table.order:
        for mu in table.order:
            assert mn_char(lam, mu) == table.value(lam, mu), (lam, mu)


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


def test_order_is_derived_from_n(tmp_path):
    # order is no field, so a built, loaded or decoded table is labelled canonically
    assert CharTable._fields == ("n", "values")
    built = character_table(5)
    save_table(built, tmp_path / "t.bin")
    for table in (built, load_table(tmp_path / "t.bin"), table_from_json(table_to_json(built))):
        assert table == built
        assert table.order is partitions_of(5)


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
            assert mn_char(p, (1,) * n) == degree_by_hooks(p)
    assert mn_char((6, 1), (1,) * 7) == 6
    assert mn_char((1,) * 7, (1,) * 7) == 1
    assert mn_char((7,), (1,) * 7) == 1


def test_mn_sweep_refuses_a_step_past_its_width_bound(monkeypatch):
    import symchar.characters as characters

    # the staircase (4, 3, 2, 1) over (1^10) peaks at 7 shapes in one step
    monkeypatch.setattr(characters, "_MN_MEMO", {})
    monkeypatch.setattr(characters, "MAX_MN_SHAPES", 7)
    assert mn_char((4, 3, 2, 1), (1,) * 10) == 768
    characters._MN_MEMO.clear()
    monkeypatch.setattr(characters, "MAX_MN_SHAPES", 6)
    with pytest.raises(ValueError, match="holds 7 shapes, past the bound MAX_MN_SHAPES = 6"):
        mn_char((4, 3, 2, 1), (1,) * 10)


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


@settings(deadline=None)
@given(st.integers(1, 16), st.data())
def test_conjugate_symmetry_property(n, data):
    # chi_lambda'(mu) = sign(mu) * chi_lambda(mu), by MN and by the column build
    classes = partitions_of(n)
    lam = data.draw(st.sampled_from(classes), label="lambda")
    mu = data.draw(st.sampled_from(classes), label="mu")
    expected = sign_value(mu) * mn_char(lam, mu)
    assert mn_char(conjugate(lam), mu) == expected
    table = character_table(n)
    assert table.value(conjugate(lam), mu) == sign_value(mu) * table.value(lam, mu) == expected


def test_memo_reuse_and_reset():
    reset_mn_memo()
    assert mn_memo_size() == 0
    mn_char((4, 2), (2, 2, 1, 1))
    assert mn_memo_size() == 1  # one entry per distinct call, none per sub-state
    mn_char((4, 2), (2, 2, 1, 1))
    mn_char((2, 4), (1, 2, 1, 2))
    assert mn_memo_size() == 1  # repeats, in any part order, are pure lookups
    reset_mn_memo()
    assert mn_memo_size() == 0


def test_column_build_matches_mn_char_entry_by_entry():
    # the column-wise table build and the row-wise MN recursion share no code
    for n in range(1, 13):
        t = character_table(n)
        for i, lam in enumerate(t.order):
            for j, mu in enumerate(t.order):
                assert t.values[i][j] == mn_char(lam, mu), (n, lam, mu)


def test_column_build_matches_the_push_build(table_for):
    # past the exhaustive mn_char check, against the build the strip matrices replaced
    for n in range(13, 21):
        assert table_for(n).values == column_push_oracle(n, partitions_of(n)), n


def test_table_24_matches_mn_char_at_seeded_entries(table_for):
    # past the oracles' reach: 300 seeded entries against the single-value route
    start = time.perf_counter()
    table = table_for(24)
    rng = random.Random(2024)
    for _ in range(300):
        lam, mu = rng.choice(table.order), rng.choice(table.order)
        assert table.value(lam, mu) == mn_char(lam, mu), (lam, mu)
    assert time.perf_counter() - start < 60


def test_build_refuses_values_past_the_slot_width_before_any_work(monkeypatch):
    import symchar.characters as characters_module

    # |chi| <= sqrt(n!) < 2^63 holds through n = 33, so n = 34 is the first refused
    assert math.factorial(33) < 1 << 126 <= math.factorial(34)

    def no_levels(n, *args):
        raise AssertionError(f"the levels of S_{n} were built")

    for name in ("_part_counts", "_bead_levels"):
        monkeypatch.setattr(characters_module, name, no_levels)
    with pytest.raises(ValueError, match="64-bit slot"):
        _table_values(34)


def test_build_levels_are_the_bead_masks_of_the_canonical_partitions():
    # each level is made from the levels below it; the oracle sets every
    # bead of every partition of m directly
    for n in range(1, 21):
        levels = _bead_levels(n, _part_counts(n))
        assert len(levels) == n + 1, n
        for m, level in enumerate(levels):
            assert level == bead_masks_oracle(partitions_of(m), n), (n, m)


def test_strip_steps_match_border_strip_removals():
    # every (m, k) step of a build for n <= 12: level m + k's slots for the
    # classes with largest part k come from level m, and a build takes the
    # step when a class of n, its parts added in ascending order, reaches m
    # just before a part k.  Source row i is one-hot at slot i, so each
    # yielded row reads off its removals: distinct removals leave distinct
    # shapes, and no removal can hide behind another.  A signed step (the
    # last level's) yields the same sums with the bias flipped off.
    for n in range(1, 13):
        levels = _bead_levels(n, _part_counts(n))
        steps = set()
        for mu in partitions_of(n):
            m = 0
            for k in reversed(mu):
                steps.add((m, k))
                m += k
        for m, k in steps:
            shapes = partitions_of(m)
            p = len(shapes)
            one_hot = [_bias(p) + (1 << 64 * i) for i in range(p)]
            targets = partitions_of(m + k)
            for signed, code in ((False, "Q"), (True, "q")):
                rows = list(_add_strips(one_hot, levels[m], 0, p, levels[m + k], k, signed))
                assert len(rows) == len(targets), (n, m, k)
                for lam, row in zip(targets, rows):
                    slots = struct.unpack(f"<{p}{code}", row)
                    if not signed:
                        slots = [v - (1 << 63) for v in slots]
                    got = [(shapes[i], v) for i, v in enumerate(slots) if v]
                    expected = [(x.remaining, x.sign) for x in border_strip_removals(lam, k)]
                    assert sorted(got) == sorted(expected), (n, m, k, lam, signed)


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
    assert t.value((3, 2), (1,) * 5) == 5
    assert t.value((4, 1), (5,)) == -1
    # a label may list its parts in any order; a part that is not positive is refused
    assert t.value((1, 4), (5,)) == -1
    assert t.index((1, 2, 2)) == t.index((2, 2, 1))
    with pytest.raises(ValueError):
        t.index((6,))
    with pytest.raises(ValueError):
        t.index((5, 0))


def _cache_bytes(n: int, version: int, values, tag: bytes = b"SYMCHART") -> bytes:
    # the cache file layout, written out independently of the library
    header = struct.pack("<8sII", tag, version, n)
    body = b"".join(struct.pack(f"<{len(row)}q", *row) for row in values)
    return header + body + hashlib.sha256(header + body).digest()


def test_json_round_trip_and_determinism(tmp_path):
    t = character_table(6)
    text = table_to_json(t)
    assert table_from_json(text) == t
    assert table_to_json(table_from_json(text)) == text  # byte-stable
    # the cache file: a header, the int64 rows and their SHA-256, byte-stable
    # whether the rows come from a build or are packed from a table
    path = tmp_path / "cache" / "t6.bin"
    save_table(t, path)
    assert load_table(path) == t
    assert path.read_bytes() == _cache_bytes(6, 3, t.values)
    assert character_table(6, cache_dir=tmp_path) == t
    assert table_cache_path(tmp_path, 6).read_bytes() == path.read_bytes()
    save_table(load_table(path), path)
    assert path.read_bytes() == _cache_bytes(6, 3, t.values)


def _decimal_lines(table: CharTable) -> tuple[str, ...]:
    return tuple(",".join(map(str, row)) for row in table.values)


def test_row_text_is_the_decimal_lines_of_values(tmp_path):
    assert tuple(character_table(1).row_lines()) == ("1",)
    assert tuple(character_table(2).row_lines()) == ("1,1", "-1,1")
    for n in range(1, 13):
        built = character_table(n)
        assert not hasattr(built, "__dict__")
        assert tuple(built.row_lines()) == _decimal_lines(built), n
        path = tmp_path / f"t{n}.bin"
        save_table(built, path)
        loaded = load_table(path)
        # a cache file holds no text: the loaded table makes its lines from its values
        assert not hasattr(loaded, "__dict__"), n
        assert tuple(loaded.row_lines()) == _decimal_lines(loaded), n
        assert loaded == built
        decoded = table_from_json(table_to_json(built))
        assert not hasattr(decoded, "__dict__"), n
        assert tuple(decoded.row_lines()) == _decimal_lines(built), n


def test_replaced_values_get_fresh_row_text(tmp_path):
    path = tmp_path / "t5.bin"
    save_table(character_table(5), path)
    for table in (character_table(5), load_table(path)):
        old = tuple(table.row_lines())
        negated = table._replace(values=tuple(tuple(-v for v in row) for row in table.values))
        assert tuple(negated.row_lines()) == _decimal_lines(negated) != old
        assert table_from_json(table_to_json(negated)) == negated


def test_character_table_disk_cache_round_trip(tmp_path):
    t_cold = character_table(5, cache_dir=tmp_path)
    path = table_cache_path(tmp_path, 5)
    assert path.exists()
    t_warm = character_table(5, cache_dir=tmp_path)
    assert t_warm == t_cold
    assert table_to_json(t_warm) == table_to_json(t_cold)


def test_corrupt_cache_fails_loudly(tmp_path):
    # JSON text in the cache file's place, valid or not, is not a cache file
    path = table_cache_path(tmp_path, 4)
    path.parent.mkdir(parents=True, exist_ok=True)

    path.write_text("{ not json")
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)

    good = table_to_json(character_table(4))
    path.write_text(good.replace('"schema_version": "2"', '"schema_version": "3"'))
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)

    path.write_text(good.replace('"n": "4"', '"n": "5"'))
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)

    # non-canonical decimal strings are rejected too
    path.write_text(good.replace('"1"', '"01"', 1))
    with pytest.raises(CharTableCacheError):
        character_table(4, cache_dir=tmp_path)


def test_table_to_json_is_json_dumps_of_the_payload():
    for n in range(1, 15):
        t = character_table(n)
        text = table_to_json(t)
        payload = {
            "schema_version": str(SCHEMA_VERSION),
            "n": str(n),
            "order": [[str(part) for part in p] for p in t.order],
            "values": [[str(v) for v in row] for row in t.values],
            "sha256": json.loads(text)["sha256"],
        }
        assert text == json.dumps(payload, indent=2) + "\n", n
        # the digest covers the canonical payload: one comma-joined line each
        # for the version, n, every order entry and every row of values
        lines = [payload["schema_version"], payload["n"]]
        lines += [",".join(row) for row in payload["order"] + payload["values"]]
        canonical = "".join(line + "\n" for line in lines).encode("ascii")
        assert payload["sha256"] == hashlib.sha256(canonical).hexdigest(), n


def _rewritten(text: str, edit) -> str:
    # the file rewritten with one edit to its payload and the old digest kept
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload, indent=2) + "\n"


def _with_value(text: str, row: int, col: int, value: str) -> str:
    return _rewritten(text, lambda payload: payload["values"][row].__setitem__(col, value))


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda good: b"\xff\xfe{", "not valid JSON"),
        (lambda good: b"[" * 200_000, "not valid JSON"),
        # chi_(4,1)((5)) is -1; 7 is still a canonical integer
        (lambda good: _with_value(good, 1, 0, "7").encode(), "sha256 does not match"),
        # a non-canonical value is named, whatever the digest says
        (lambda good: _with_value(good, 1, 0, "-01").encode(), "'-01'"),
        # int() accepts each of these, and str(int(v)) != v refuses it
        (lambda good: _with_value(good, 1, 0, "+1").encode(), re.escape("'+1'")),
        (lambda good: _with_value(good, 1, 0, " 1").encode(), "' 1'"),
        (lambda good: _with_value(good, 1, 0, "1_0").encode(), "'1_0'"),
        (lambda good: _with_value(good, 1, 0, "-0").encode(), "'-0'"),
        # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        (lambda good: _with_value(good, 1, 0, "\u0663").encode(), repr("\u0663")),
        (lambda good: good.replace('"sha256": "', '"sha256": "0').encode(), "sha256 does not match"),
        (lambda good: b"[]", "top level must be an object"),
        (lambda good: _rewritten(good, lambda payload: payload["values"].pop()).encode(), "expected 7 rows"),
        (
            lambda good: _rewritten(good, lambda payload: payload["values"][1].pop()).encode(),
            "ragged row of length 6",
        ),
        (
            lambda good: _rewritten(good, lambda payload: payload["order"].__setitem__(0, "5")).encode(),
            "expected a JSON array of order entry strings",
        ),
        # n and the first order entry both made 200: rejected without
        # enumerating the 4 * 10^12 partitions of 200
        (lambda good: good.replace('"5"', '"200"', 2).encode(), "order is not canonical"),
    ],
    ids=[
        "not-utf8", "deeply-nested", "tampered-value", "non-canonical-value", "plus-sign",
        "leading-space", "underscore", "minus-zero", "non-ascii-digit", "tampered-digest",
        "top-level-array", "missing-row", "ragged-row", "order-entry-string", "large-n",
    ],
)
def test_damaged_cache_file_fails_loudly(damage, match):
    # JSON text is no longer a cache format; its decoder keeps every check
    with pytest.raises(CharTableCacheError, match=match):
        table_from_json(damage(table_to_json(character_table(5))))


def _flip(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1 :]


# S_5: a 16-byte header, 7 rows of 7 int64 values, a 32-byte digest
@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda good: good[:-1], "439 bytes, not 440 for n=5"),
        (lambda good: good + b"\0", "441 bytes, not 440 for n=5"),
        (lambda good: b"SYMCHARX" + good[8:], "not a symchar table"),
        (lambda good: good[:8] + struct.pack("<I", 4) + good[12:], "format version 4 != expected 3"),
        # chi_(4,1)((5)) is -1; its low byte flipped, the old digest kept
        (lambda good: _flip(good, 16 + 8 * 7), "sha256 does not match"),
        (lambda good: _flip(good, len(good) - 1), "sha256 does not match"),
        # refused before the 4 * 10^12 partitions of 200 are listed
        (lambda good: good[:12] + struct.pack("<I", 200) + good[16:], "n=200 is outside 1..28"),
    ],
    ids=[
        "cut-byte", "added-byte", "wrong-tag", "wrong-version", "flipped-value", "flipped-digest",
        "large-n",
    ],
)
def test_damaged_binary_cache_file_fails_loudly(tmp_path, monkeypatch, damage, match):
    import symchar.characters as characters_module

    character_table(5, cache_dir=tmp_path)
    path = table_cache_path(tmp_path, 5)
    good = path.read_bytes()
    assert len(good) == 16 + 8 * 7 * 7 + 32
    path.write_bytes(damage(good))
    if match.startswith("n=200"):

        def no_listing(n):
            raise AssertionError(f"the partitions of {n} were listed")

        monkeypatch.setattr(characters_module, "partitions_of", no_listing)
        monkeypatch.setattr(characters_module, "iter_partitions", no_listing)
    with pytest.raises(CharTableCacheError, match=match) as raised:
        character_table(5, cache_dir=tmp_path)
    assert str(path) in str(raised.value)


@st.composite
def _tables(draw) -> CharTable:
    # any integers in canonical order: the codec must carry values of every size and sign
    n = draw(st.integers(1, 6))
    width = len(partitions_of(n))
    row = st.lists(st.integers(), min_size=width, max_size=width).map(tuple)
    values = draw(st.lists(row, min_size=width, max_size=width).map(tuple))
    return CharTable(n=n, values=values)


@settings(deadline=None)
@given(_tables())
def test_json_round_trip_property(table):
    assert table_from_json(table_to_json(table)) == table


@st.composite
def _int64_tables(draw) -> CharTable:
    # any signed 64-bit values in canonical order: the cache file holds every one
    n = draw(st.integers(1, 6))
    width = len(partitions_of(n))
    int64 = st.integers(-(1 << 63), (1 << 63) - 1)
    row = st.lists(int64, min_size=width, max_size=width).map(tuple)
    values = draw(st.lists(row, min_size=width, max_size=width).map(tuple))
    return CharTable(n=n, values=values)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_int64_tables())
def test_cache_file_round_trip_property(tmp_path, table):
    path = tmp_path / "t.bin"
    save_table(table, path)
    assert load_table(path) == table
    assert path.read_bytes() == _cache_bytes(table.n, 3, table.values)


@pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1, 1.5])
def test_save_refuses_a_value_past_int64_before_any_file(tmp_path, value):
    table = character_table(3)
    values = (table.values[0], (-1, 0, value), table.values[2])
    path = tmp_path / "cache" / "t3.bin"
    with pytest.raises(ValueError, match="row 1, column 2"):
        save_table(table._replace(values=values), path)
    assert list(tmp_path.iterdir()) == []
    # the ends of the range are kept
    for edge in (-(1 << 63), (1 << 63) - 1):
        edged = table._replace(values=(table.values[0], (-1, 0, edge), table.values[2]))
        save_table(edged, path)
        assert load_table(path) == edged


def test_save_refuses_a_table_the_file_cannot_hold(tmp_path):
    table = character_table(3)
    for bad, match in [
        (table._replace(values=table.values[:2]), "needs 3 rows"),
        (table._replace(values=(table.values[0], (1, 1), table.values[2])), "row 1 does not pack"),
        (CharTable(n=29, values=((1,),)), "not S_29"),
    ]:
        with pytest.raises(ValueError, match=match):
            save_table(bad, tmp_path / "t.bin")
    assert list(tmp_path.iterdir()) == []


_JSON_TOKEN = re.compile(r'"[^"]*"|[][{}:,]|-?[0-9]+|true|false|null')
_REPLACEMENTS = [
    "", "[", "]", "{", "}", ",", ":", "null", "true", "0", "7", "[]", "{}", '""',
    '"0"', '"1"', '"-1"', '"2"', '"7"', '"01"', '"-0"', '"+1"', '" 1"', '"1_0"', '"x"',
    '"600"', '"99999999999"', '"' + "9" * 5000 + '"',
    '"schema_version"', '"n"', '"order"', '"values"', '"sha256"',
]  # fmt: skip


@settings(deadline=None)
@given(st.integers(1, 5), st.data())
def test_single_token_mutation_is_a_cache_error(n, data):
    text = table_to_json(character_table(n))
    tokens = list(_JSON_TOKEN.finditer(text))
    token = tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")]
    new = data.draw(
        st.sampled_from(_REPLACEMENTS) | st.sampled_from([t.group() for t in tokens]),
        label="replacement",
    )
    assume(new != token.group())
    with pytest.raises(CharTableCacheError):
        table_from_json(text[: token.start()] + new + text[token.end() :])


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


def test_table_limit_refuses_before_any_cache_read_or_build(tmp_path, monkeypatch):
    import symchar.characters as characters_module

    def no_build(n):
        raise AssertionError(f"the table of S_{n} was built")

    monkeypatch.setattr(characters_module, "_table_values", no_build)
    # an unreadable cache file for that n is never opened
    table_cache_path(tmp_path, MAX_TABLE_N + 1).write_text("{not json", encoding="utf-8")
    for n in (MAX_TABLE_N + 1, 40):
        with pytest.raises(ValueError, match="table limit"):
            character_table(n, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="table limit"):
        character_table(MAX_TABLE_N + 1)
