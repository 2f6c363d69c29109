"""Exact irreducible character values of symmetric groups.

character_table(n) builds the full p(n) x p(n) table a level at a time, by
the Murnaghan-Nakayama rule.  Level m holds one row per partition of m,
packed into one Python int with a 64-bit slot per class of m whose parts
are at most n - m (every class at m = n): the classes that can be the
smallest parts of a class of n.  Classes in canonical order are grouped by
largest part k, and a row's group k is the sum, over the k-strip removals
from its shape, of sign * the last slots of the row of level m - k that
the removal leaves: one big-int addition per removal, every slot of the
group at once.  The removals come from the strip matrix of (m - k, k): for
each shape of m, the indices and signs of the shapes left, found with int
bitmask beta-sets.  The rows of level n are unpacked into tuples of ints
as they are made.  Rows and columns follow the canonical partition order
of partitions_of(n); an optional JSON disk cache holds the result, and its
serialization is byte-for-byte reproducible.

Each table turns its rows into decimal text once (CharTable.row_text): the
cache encoder and the CLI's table writers all read those lines, and a table
loaded from a cache file gets them from the decoder, which has already
checked and hashed every line of the file.

mn_char(lam, mu) is the independent single-value route: the
Murnaghan-Nakayama rule with a fixed strategy (always peel a border strip
whose length is the largest remaining part of mu), memoized in a process-wide
memo that table builds never touch.  The tests check each route against the
other.  All arithmetic is exact over Python ints.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, pairwise
from pathlib import Path
from typing import Iterator

from .partitions import Partition, iter_partitions, partitions_of, sign_value

__all__ = [
    "RimHookRemoval",
    "CharTable",
    "CharTableCacheError",
    "MAX_TABLE_N",
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

SCHEMA_VERSION = 2

# Largest n that character_table builds or loads.  The table holds p(n)^2
# Python ints, so memory grows like p(n)^2 however fast the build is: a cold
# `symchar vanishing-pairs 26` takes 1.5 s and 332 MiB of peak RSS, and 28
# takes 3.4 s and 756 MiB (2-vCPU Xeon, Python 3.11.7), while at n = 40
# (p = 37,338) the row slots alone would take over 10 GiB.  Checked before
# any cache read or build, so a refusal costs nothing.  The build's 64-bit
# slots would hold every value through n = 33.
MAX_TABLE_N = 28


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

    @cached_property
    def row_text(self) -> tuple[str, ...]:
        """One line per row of values: its decimal strings joined by commas.

        Not a field, so == never compares it and dataclasses.replace never
        carries it over; table_from_json seeds it with the lines it decoded.
        Every row is formatted by one "%d,...,%d" string built once per table.
        """
        line = ",".join(["%d"] * len(self.order))
        return tuple(map(line.__mod__, self.values))

    @cached_property
    def json_text(self) -> str:
        """table_to_json(self), encoded once and shared by the cache write and any output."""
        return table_to_json(self)

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


def _level(m: int, n: int) -> dict[int, int]:
    """The partitions of m in canonical order, as {n-bead beta mask: index}.

    A partition lam of m <= n has its bead i at lam[i] + n - 1 - i; the beads
    past its last part fill the low n - len(lam) positions.
    """
    return {
        sum(1 << (part + n - 1 - i) for i, part in enumerate(lam)) | ((1 << (n - len(lam))) - 1): j
        for j, lam in enumerate(iter_partitions(m))
    }


def _strip_matrix(
    source: dict[int, int], target: dict[int, int], k: int
) -> tuple[list[int], list[int], list[int]]:
    """The step that adds a border strip of length k, from one level to the next.

    For each shape of target in order, the source index of every shape left
    by removing a k-strip from it, and that removal's sign, as flat lists
    (src, signs) with row r's entries at bounds[r]:bounds[r + 1].  Removing
    a strip moves a bead b to the free position b - k; the strip's height is
    one more than the number of beads strictly between them, so that count's
    parity is the sign.
    """
    src: list[int] = []
    signs: list[int] = []
    bounds = [0]
    between = (1 << (k - 1)) - 1
    for mask in target:
        removable = mask & ~(mask << k) & -(1 << k)  # beads b >= k with b - k free
        while removable:
            bit = removable & -removable
            removable ^= bit
            src.append(source[mask ^ bit ^ (bit >> k)])
            signs.append(-1 if ((mask >> (bit.bit_length() - k)) & between).bit_count() & 1 else 1)
        bounds.append(len(src))
    return src, signs, bounds


# A packed row holds one value per 64-bit slot, slot j at bits 64j..64j+63,
# stored with 2^63 added: every slot then lies in [0, 2^64), so no slot
# borrows from its neighbour and a run of slots is one shift and one
# subtraction away.  A value fits while |chi| <= sqrt(n!) < 2^63.
_SLOT_BIAS = (1 << 63).to_bytes(8, "little")


def _bias(slots: int) -> int:
    """2^63 in each of `slots` 64-bit slots."""
    return int.from_bytes(_SLOT_BIAS * slots, "little")


def _add_strips(
    source: list[int], start: int, size: int, matrix: tuple[list[int], list[int], list[int]]
) -> Iterator[bytes]:
    """Pull slots start .. start + size - 1, the last, of packed source rows through a strip matrix.

    Yields, for each shape of the target level in order, the packed bytes of
    the sum of sign * (those slots of the row left by a removal) over its
    removals: one big-int addition per removal, the slots added in parallel.
    """
    bias = _bias(size)
    terms = [(row >> 64 * start) - bias for row in source]
    terms += [-term for term in terms]
    src, signs, bounds = matrix
    # a removal of sign -1 reads the negated term
    src = [i if sign > 0 else i + len(source) for i, sign in zip(src, signs)]
    nbytes = 8 * size
    for lo, hi in pairwise(bounds):
        yield (sum(map(terms.__getitem__, src[lo:hi])) + bias).to_bytes(nbytes, "little")


def _table_values(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the character table of S_n, rows and columns in canonical order.

    Level m holds one packed row per shape of m, with a slot for each class
    of m whose parts are at most n - m (all classes at m = n).  Canonical
    order sorts classes by largest part, descending, and a class of m with
    largest part k is k added to a class of m - k with parts at most k, which
    are the last slots of level m - k.  So row lam's group of slots for k is
    the sum over the k-strip removals from lam of sign * those slots of the
    row left: the Murnaghan-Nakayama rule, one level at a time.  Level n's
    rows are unpacked as they are assembled, so they are never all packed.
    """
    # |chi|^2 <= n!, so every value fits a signed 64-bit slot while n! < 2^126
    if math.factorial(n) >= 1 << 126:
        raise ValueError(f"the values of S_{n} may not fit a 64-bit slot: n! >= 2^126")
    # fits[j][k]: the number of partitions of j with no part above k
    fits = [[1] * (n + 1)]
    for j in range(1, n + 1):
        counts = [0]
        for k in range(1, n + 1):
            counts.append(counts[-1] + (fits[j - k][k] if k <= j else 0))
        fits.append(counts)
    levels = [_level(m, n) for m in range(n + 1)]

    def rows(m: int) -> Iterator[bytes]:
        # slot groups by largest part k, descending, so a row is their bytes joined
        groups = [
            _add_strips(
                packed[m - k],
                fits[m - k][n - m + k] - fits[m - k][k],
                fits[m - k][k],
                _strip_matrix(levels[m - k], levels[m], k),
            )
            for k in range(min(m, n - m or n), 0, -1)
        ]
        return map(b"".join, zip(*groups))

    packed = [[_bias(1) + 1]]  # the empty shape at the empty class
    for m in range(1, n):
        packed.append([int.from_bytes(row, "little") for row in rows(m)])
    width = len(levels[n])
    bias = _bias(width)
    unpack = struct.Struct(f"<{width}q").unpack
    return tuple(
        unpack((int.from_bytes(row, "little") ^ bias).to_bytes(8 * width, "little"))
        for row in rows(n)
    )


def character_table(n: int, *, cache_dir: str | Path | None = None) -> CharTable:
    """Character table of S_n in canonical order.

    n past MAX_TABLE_N raises ValueError before any cache read or build.
    With cache_dir set, an existing cache file for this n and schema version
    is loaded (a corrupt file, or one holding the table of another n, raises
    CharTableCacheError rather than being silently recomputed); otherwise the
    table is computed and saved there.
    """
    if n < 1:
        raise ValueError(f"character_table needs n >= 1, got {n}")
    if n > MAX_TABLE_N:
        raise ValueError(f"character_table at n={n} is past the table limit {MAX_TABLE_N}")
    path: Path | None = None
    if cache_dir is not None:
        path = table_cache_path(cache_dir, n)
        if path.exists():
            table = load_table(path)
            if table.n != n:
                raise CharTableCacheError(f"cache file {path} holds n={table.n}, not n={n}")
            return table

    order = partitions_of(n)
    table = CharTable(n=n, order=order, values=_table_values(n))
    if path is not None:
        save_table(table, path)
    return table


# ---------------------------------------------------------------------------
# Disk cache.  One JSON file per n; all integers are serialized as decimal
# strings so consumers never hit 53-bit float truncation.  The serializer is
# deterministic, which makes cache files byte-for-byte reproducible, and the
# file carries a SHA-256 of its canonical payload, so a value changed by hand
# is caught even when it is still a canonical integer.


class CharTableCacheError(RuntimeError):
    """A cache file exists but cannot be trusted: report, never recompute."""


def table_cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"chartable_v{SCHEMA_VERSION}_{n}.json"


def _payload_hash(n: int):
    """A SHA-256 fed with the canonical payload's first lines: the schema version and n.

    The caller adds one line per order entry, then one per row of values, each
    its decimal strings joined by commas; every line ends in a newline.
    """
    import hashlib  # here, not at module level: the CLI's start-up never needs it

    return hashlib.sha256(f"{SCHEMA_VERSION}\n{n}\n".encode("ascii"))


def _json_rows(rows: list[str]) -> str:
    # a list of non-empty string lists as json.dumps(indent=2) lays it out one
    # level down; each entry of rows is already '",\n      "'-joined
    return '[\n    [\n      "' + '"\n    ],\n    [\n      "'.join(rows) + '"\n    ]\n  ]'


def table_to_json(table: CharTable) -> str:
    """The cache file's text: json.dumps(payload, indent=2) + "\n", built row by row.

    payload holds schema_version, n, order, values and sha256, in that order,
    every integer a decimal string.  Each row's comma-joined line (for values,
    table.row_text) feeds the digest, and its commas become the JSON cell breaks.
    """
    digest = _payload_hash(table.n)
    blocks = []
    for lines in ([",".join(map(str, p)) for p in table.order], table.row_text):
        for line in lines:
            digest.update((line + "\n").encode("ascii"))
        blocks.append(_json_rows([line.replace(",", '",\n      "') for line in lines]))
    return (
        f'{{\n  "schema_version": "{SCHEMA_VERSION}",\n  "n": "{table.n}",\n'
        f'  "order": {blocks[0]},\n  "values": {blocks[1]},\n'
        f'  "sha256": "{digest.hexdigest()}"\n}}\n'
    )


# The decoders below raise ValueError or TypeError; table_from_json turns
# those into a CharTableCacheError that names the file.


def _decode_int(text: object, what: str) -> int:
    if not isinstance(text, str) or str(int(text)) != text:
        raise ValueError(f"{what} must be a canonical decimal string, got {text!r}")
    return int(text)


# A row of canonical decimal strings, comma-joined: no sign on 0, no leading zeros.
_CANONICAL_LINE = re.compile(r"(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*")


def _decode_row(row: object, what: str, digest) -> tuple[tuple[int, ...], str]:
    """Decode a JSON array of canonical decimal strings and feed its line to digest.

    The row is joined, parsed and matched in C-level passes.  int() rejects
    a comma, so once every value parses the joined line splits back into the
    values, and the pattern checks each of them.  A row that fails is decoded
    again value by value, so the error names the first bad value.  Returns
    the values and the line, which is then ",".join(map(str, values)).
    """
    if type(row) is not list:
        raise TypeError(f"expected a JSON array of {what} strings, got {type(row).__name__}")
    try:
        line = ",".join(row)
        ints = tuple(map(int, row))
    except (TypeError, ValueError):
        line = ""
    if not _CANONICAL_LINE.fullmatch(line):
        ints = tuple(_decode_int(v, what) for v in row)
    digest.update((line + "\n").encode("ascii"))
    return ints, line


def table_from_json(text: str, *, source: str = "<memory>") -> CharTable:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: arrays nested past the interpreter's recursion limit
        raise CharTableCacheError(f"cache file {source} is not valid JSON: {e}") from None
    try:
        if not isinstance(payload, dict):
            raise CharTableCacheError(f"cache file {source}: top level must be an object")
        missing = {"schema_version", "n", "order", "values", "sha256"} - payload.keys()
        if missing:
            raise CharTableCacheError(f"cache file {source}: missing keys {sorted(missing)}")
        version = _decode_int(payload["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise CharTableCacheError(
                f"cache file {source}: schema_version {version} != expected {SCHEMA_VERSION}"
            )
        n = _decode_int(payload["n"], "n")
        digest = _payload_hash(n)
        order = tuple(_decode_row(p, "order entry", digest)[0] for p in payload["order"])
        # compared lazily: a large n in a damaged file must not enumerate p(n) partitions
        if order != tuple(islice(iter_partitions(n), len(order) + 1)):
            raise CharTableCacheError(f"cache file {source}: order is not canonical for n={n}")
        raw = payload["values"]
        if len(raw) != len(order):
            raise CharTableCacheError(f"cache file {source}: expected {len(order)} rows")
        values = []
        lines = []
        for row in raw:
            if len(row) != len(order):
                raise CharTableCacheError(f"cache file {source}: ragged row of length {len(row)}")
            ints, line = _decode_row(row, "value", digest)
            values.append(ints)
            lines.append(line)
        if payload["sha256"] != digest.hexdigest():
            raise CharTableCacheError(
                f"cache file {source}: sha256 does not match its contents (edited or damaged)"
            )
        table = CharTable(n=n, order=order, values=tuple(values))
        # seeded as cached_property would store it: the lines are checked and hashed
        vars(table)["row_text"] = tuple(lines)
        return table
    except (TypeError, ValueError) as e:
        raise CharTableCacheError(f"cache file {source} is malformed: {e}") from None


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, sync it, then rename it over path.

    An interrupted write or a crash leaves the old file (or none), never a
    truncated one; on any failure the temporary file is removed, and an
    OSError with an errno is raised again naming path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.errno is not None:
            # name the file asked for, not the temporary one
            raise OSError(e.errno, e.strerror, str(path)) from e
        raise


def save_table(table: CharTable, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, table.json_text)


def load_table(path: str | Path) -> CharTable:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise CharTableCacheError(f"cache file {path} is not UTF-8 text: {e}") from None
    return table_from_json(text, source=str(path))
