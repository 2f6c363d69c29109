"""Exact irreducible character values of symmetric groups.

character_table(n) builds the full p(n) x p(n) table a column at a time.
Column mu is the Schur expansion of the power sum p_mu, obtained from the
empty shape by adding border strips of mu's parts in ascending order; shapes
are int bitmask beta-sets, and the trie of ascending prefixes is walked
depth first, so every shared prefix is expanded once and the working memo
lives only as long as the build.  Rows and columns follow the canonical
partition order of partitions_of(n); an optional JSON disk cache holds the
result, and its serialization is byte-for-byte reproducible.

mn_char(lam, mu) is the independent single-value route: the
Murnaghan-Nakayama rule with a fixed strategy (always peel a border strip
whose length is the largest remaining part of mu), memoized in a process-wide
memo that table builds never touch.  The tests check each route against the
other.  All arithmetic is exact over Python ints.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .partitions import Partition, partitions_of, sign_value

__all__ = [
    "RimHookRemoval",
    "CharTable",
    "CharTableCacheError",
    "SCHEMA_VERSION",
    "hook_length",
    "border_strip_removals",
    "mn_char",
    "degree",
    "sign_value",
    "character_table",
    "reset_mn_memo",
    "mn_memo_size",
    "table_cache_path",
    "table_to_json",
    "table_from_json",
    "save_table",
    "load_table",
    "write_text_atomic",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RimHookRemoval:
    """One way to strip a border strip (rim hook) from a Young diagram.

    remaining: the partition left after removal (canonical descending form).
    height:    number of rows the strip occupies.
    sign:      (-1)^(height - 1), the factor this removal contributes.
    """

    remaining: Partition
    height: int
    sign: int


def hook_length(p: Partition, row: int, col: int) -> int:
    """Hook length of the cell (row, col) of p, both 1-based.

    arm + leg + 1, where the arm counts cells to the right in the same row
    and the leg counts cells below in the same column.
    """
    if not (1 <= row <= len(p)) or not (1 <= col <= p[row - 1]):
        raise ValueError(f"cell ({row}, {col}) outside partition {p}")
    arm = p[row - 1] - col
    leg = sum(1 for i in range(row, len(p)) if p[i] >= col)
    return arm + leg + 1


def _beta_set(p: Partition) -> list[int]:
    # First-column hook lengths: strictly decreasing, beta[i] = p[i] + (r-1-i).
    r = len(p)
    return [p[i] + (r - 1 - i) for i in range(r)]


def _beta_to_partition(beta: list[int]) -> Partition:
    # beta must be strictly decreasing and non-negative.
    r = len(beta)
    parts = [beta[i] - (r - 1 - i) for i in range(r)]
    return tuple(part for part in parts if part > 0)


def border_strip_removals(p: Partition, length: int) -> tuple[RimHookRemoval, ...]:
    """All ways to remove a border strip of the given length from p.

    One removal per cell of p whose hook length equals `length`, listed by
    the row of that cell in ascending order.  Removing a strip of length n
    from a partition of n leaves the empty partition; a partition with no
    hook of the given length yields no removals.

    Implemented with beta-sets (first-column hook lengths): strips of length
    L correspond to elements b of the beta-set with b - L >= 0 not in the
    set, and the strip height is one more than the number of beta elements
    strictly between b - L and b.
    """
    if length < 1:
        raise ValueError(f"strip length must be positive, got {length}")
    beta = _beta_set(p)
    present = set(beta)
    removals: list[RimHookRemoval] = []
    for i, b in enumerate(beta):  # ascending i = ascending row of the cell
        target = b - length
        if target < 0 or target in present:
            continue
        crossed = sum(1 for other in beta if target < other < b)
        new_beta = sorted((x if x != b else target for x in beta), reverse=True)
        removals.append(
            RimHookRemoval(
                remaining=_beta_to_partition(new_beta),
                height=crossed + 1,
                sign=-1 if crossed % 2 else 1,
            )
        )
    return tuple(removals)


_MN_MEMO: dict[tuple[Partition, Partition], int] = {}


def mn_char(lam: Partition, mu: Partition) -> int:
    """Character value chi_lam(w_mu) for partitions lam, mu of the same n.

    Murnaghan-Nakayama recursion: peel a border strip whose length is the
    largest remaining part of mu, summing sign * subvalue over all removals.
    The base case is chi of the empty partition at the empty class, which
    is 1.  Values are memoized; the memo persists across calls (grow-only).
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(lam, mu)


def _mn(lam: Partition, mu: Partition) -> int:
    # Depth-first over (shape, suffix of mu) with an explicit stack instead of
    # recursion, so a class with thousands of parts cannot exhaust Python's
    # recursion limit.  key = (shape, suffix) is being evaluated; rest is the
    # suffix left once its first part is peeled.
    if not mu:
        return 1
    key = (lam, mu)
    total = _MN_MEMO.get(key)
    if total is not None:
        return total
    stack: list[tuple] = []
    rest = mu[1:]
    removals = iter(border_strip_removals(lam, mu[0]))
    total = 0
    while True:
        for removal in removals:
            if not rest:
                total += removal.sign
                continue
            sub = (removal.remaining, rest)
            value = _MN_MEMO.get(sub)
            if value is None:
                stack.append((key, rest, removals, total, removal.sign))
                key, total = sub, 0
                removals = iter(border_strip_removals(removal.remaining, rest[0]))
                rest = rest[1:]
                break
            total += removal.sign * value
        else:
            _MN_MEMO[key] = total
            if not stack:
                return total
            key, rest, removals, outer, sign = stack.pop()
            total = outer + sign * total


def reset_mn_memo() -> None:
    """Drop all memoized character values (mainly for cold-start timing)."""
    _MN_MEMO.clear()


def mn_memo_size() -> int:
    return len(_MN_MEMO)


def degree(lam: Partition) -> int:
    """Dimension of the irreducible labelled by lam: its value at (1^n)."""
    return mn_char(lam, (1,) * sum(lam))


@dataclass(frozen=True)
class CharTable:
    """Full character table of S_n with exact integer entries.

    order holds the canonical partition sequence from partitions_of(n); it
    indexes both rows (characters) and columns (classes), so values[0] is the
    trivial character (all ones) and the last row is the sign character.
    """

    n: int
    order: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.order)}

    def index(self, p: Partition) -> int:
        try:
            return self._index[tuple(p)]
        except KeyError:
            raise ValueError(f"{p} is not a partition of {self.n}") from None

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.values[self.index(lam)][self.index(mu)]

    def degree(self, lam: Partition) -> int:
        # identity class (1^n) is the last column in canonical order
        return self.values[self.index(lam)][-1]


def _beta_mask(lam: Partition, n: int) -> int:
    # lam's beta-set with n beads, bead i at lam[i] + n - 1 - i, as a bitmask.
    mask = 0
    for i in range(n):
        mask |= 1 << ((lam[i] if i < len(lam) else 0) + n - 1 - i)
    return mask


def _add_strips(coeffs: dict[int, int], k: int) -> dict[int, int]:
    """Multiply a Schur expansion {beta mask: coefficient} by the power sum p_k.

    Adding a border strip of length k moves a bead b to the free position
    b + k.  The strip's height is one more than the number of beads strictly
    between b and b + k, so that count's parity is the sign.
    """
    out: dict[int, int] = {}
    get = out.get
    between = (1 << (k - 1)) - 1
    for mask, c in coeffs.items():
        movable = mask & ~(mask >> k)  # beads b with b + k free
        while movable:
            bit = movable & -movable
            movable ^= bit
            moved = mask ^ bit ^ (bit << k)
            if ((mask >> bit.bit_length()) & between).bit_count() & 1:
                out[moved] = get(moved, 0) - c
            else:
                out[moved] = get(moved, 0) + c
    return out


def _table_values(n: int, order: tuple[Partition, ...]) -> tuple[tuple[int, ...], ...]:
    # Column mu holds the Schur coefficients of p_mu.  The depth-first walk
    # over ascending prefixes of the classes keeps one expansion per level of
    # the current path alive; a leaf's expansion is its column.
    row_of = {_beta_mask(lam, n): i for i, lam in enumerate(order)}
    col_of = {mu: j for j, mu in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    prefix: list[int] = []  # parts added so far, ascending

    def walk(coeffs: dict[int, int], last: int, rest: int) -> None:
        if rest == 0:
            j = col_of[tuple(reversed(prefix))]
            for mask, value in coeffs.items():
                rows[row_of[mask]][j] = value
            return
        # the parts still to add are all >= k, so k must be rest or fit twice
        for k in [*range(last, rest // 2 + 1), rest]:
            prefix.append(k)
            walk(_add_strips(coeffs, k), k, rest - k)
            prefix.pop()

    walk({(1 << n) - 1: 1}, 1, n)
    return tuple(map(tuple, rows))


def character_table(n: int, *, cache_dir: str | Path | None = None) -> CharTable:
    """Character table of S_n in canonical order.

    With cache_dir set, an existing cache file for this n and schema version
    is loaded (a corrupt file, or one holding the table of another n, raises
    CharTableCacheError rather than being silently recomputed); otherwise the
    table is computed and saved there.
    """
    if n < 1:
        raise ValueError(f"character_table needs n >= 1, got {n}")
    path: Path | None = None
    if cache_dir is not None:
        path = table_cache_path(cache_dir, n)
        if path.exists():
            table = load_table(path)
            if table.n != n:
                raise CharTableCacheError(f"cache file {path} holds n={table.n}, not n={n}")
            return table

    order = partitions_of(n)
    table = CharTable(n=n, order=order, values=_table_values(n, order))
    if path is not None:
        save_table(table, path)
    return table


# ---------------------------------------------------------------------------
# Disk cache.  One JSON file per n; all integers are serialized as decimal
# strings so consumers never hit 53-bit float truncation.  The serializer is
# deterministic, which makes cache files byte-for-byte reproducible.


class CharTableCacheError(RuntimeError):
    """A cache file exists but cannot be trusted: report, never recompute."""


def table_cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"chartable_v{SCHEMA_VERSION}_{n}.json"


def table_to_json(table: CharTable) -> str:
    payload = {
        "schema_version": str(SCHEMA_VERSION),
        "n": str(table.n),
        "order": [[str(part) for part in p] for p in table.order],
        "values": [[str(v) for v in row] for row in table.values],
    }
    return json.dumps(payload, indent=2) + "\n"


def _decode_int(text: object, what: str) -> int:
    if not isinstance(text, str) or str(int(text)) != text:
        raise CharTableCacheError(f"{what} must be a canonical decimal string, got {text!r}")
    return int(text)


def table_from_json(text: str, *, source: str = "<memory>") -> CharTable:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise CharTableCacheError(f"cache file {source} is not valid JSON: {e}") from None
    try:
        if not isinstance(payload, dict):
            raise CharTableCacheError(f"cache file {source}: top level must be an object")
        missing = {"schema_version", "n", "order", "values"} - payload.keys()
        if missing:
            raise CharTableCacheError(f"cache file {source}: missing keys {sorted(missing)}")
        version = _decode_int(payload["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise CharTableCacheError(
                f"cache file {source}: schema_version {version} != expected {SCHEMA_VERSION}"
            )
        n = _decode_int(payload["n"], "n")
        order = tuple(
            tuple(_decode_int(part, "order entry") for part in p) for p in payload["order"]
        )
        if order != partitions_of(n):
            raise CharTableCacheError(f"cache file {source}: order is not canonical for n={n}")
        raw = payload["values"]
        if len(raw) != len(order):
            raise CharTableCacheError(f"cache file {source}: expected {len(order)} rows")
        values = []
        for row in raw:
            if len(row) != len(order):
                raise CharTableCacheError(f"cache file {source}: ragged row of length {len(row)}")
            values.append(tuple(_decode_int(v, "value") for v in row))
        return CharTable(n=n, order=order, values=tuple(values))
    except (TypeError, ValueError) as e:
        raise CharTableCacheError(f"cache file {source} is malformed: {e}") from None


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, sync it, then rename it over path.

    An interrupted write or a crash leaves the old file (or none), never a
    truncated one; on any failure the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_table(table: CharTable, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, table_to_json(table))


def load_table(path: str | Path) -> CharTable:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return table_from_json(text, source=str(path))
