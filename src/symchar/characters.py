"""Exact irreducible character values of symmetric groups.

character_table(n) builds the full p(n) x p(n) table a level at a time, by
the Murnaghan-Nakayama rule.  Level m holds one row per partition of m,
packed into one Python int with a 64-bit slot per class of m whose parts
are at most n - m (every class at m = n): the classes that can be the
smallest parts of a class of n.  Classes in canonical order are grouped by
largest part k, and a row's group k is the sum, over the k-strip removals
from its shape, of sign * the last slots of the row of level m - k that
the removal leaves: one big-int addition per removal, every slot of the
group at once.  Each step finds a shape's removals as it walks its int
bitmask beta-set, and adds or subtracts each term as it finds it.  The rows
of level n are unpacked into tuples of ints as they are made.  Rows and
columns follow the canonical partition order of partitions_of(n).

An optional disk cache holds one binary file per n: a fixed header, the
p(n)^2 values as signed 64-bit little-endian ints, row-major, and a SHA-256
of everything before it.  A cold build packs its rows with struct, and a
warm load is one digest and one struct unpack: no text is parsed.
table_to_json is the `chartable --format json` encoder, and table_from_json
its inverse; the cache never reads or writes JSON.  CharTable.row_text makes
a table's decimal lines each time it is read, and a request reads it at
most once: in the JSON encoder or in the CLI's csv writer.

mn_char(lam, mu) is the independent single-value route: one forward sweep
of the Murnaghan-Nakayama rule over len(lam)-bead masks, peeling the parts
of mu largest first and keeping a signed count for each shape reached.  It
shares no code with the table build, and its process-wide memo holds one
value per distinct call; table builds never touch it.  The tests check each
route against the other.  All arithmetic is exact over Python ints.
"""

from __future__ import annotations

import math
import os
import struct
from itertools import islice
from pathlib import Path
from typing import Iterator, NamedTuple

from .partitions import Partition, as_classes, as_int, as_partition, iter_partitions, partitions_of

__all__ = [
    "RimHookRemoval",
    "CharTable",
    "CharTableCacheError",
    "MAX_TABLE_N",
    "MAX_MN_SHAPES",
    "SCHEMA_VERSION",
    "border_strip_removals",
    "mn_char",
    "character_table",
    "reset_mn_memo",
    "mn_memo_size",
    "table_cache_path",
    "table_to_json",
    "table_from_json",
    "save_table",
    "load_table",
    "write_atomic",
]

SCHEMA_VERSION = 2

# Largest n that character_table builds or loads.  The table holds p(n)^2
# Python ints, so memory grows like p(n)^2 however fast the build is: a cold
# `symchar vanishing-pairs 26` takes 1.4-2.0 s and 172 MiB of peak RSS, and
# 28 takes 3.5-3.8 s and 382 MiB (fresh processes, three runs each, 2-vCPU
# Xeon, Python 3.11.7), while at n = 40 (p = 37,338) the row slots alone
# would take over 10 GiB.
# Checked before any cache read or build, so a refusal costs nothing.  The
# build's 64-bit slots would hold every value through n = 33.
MAX_TABLE_N = 28

# Most shapes one step of mn_char's sweep may hold; a wider step raises
# ValueError.  Over (1^n), fresh processes, 2-vCPU Xeon, Python 3.11.7, two
# runs each: (13, ..., 1) peaks at 96,757 shapes in 10-18 s, (14, ..., 2) at
# 224,573 in 30-56 s, and (14, ..., 1) at 316,429 in 48-85 s, which the bound
# refuses after 8 s.  (1000, 1000) over (1^2000) peaks at 501.
MAX_MN_SHAPES = 250_000


class RimHookRemoval(NamedTuple):
    """One way to strip a border strip (rim hook) from a Young diagram.

    remaining: the partition left after removal (canonical descending form).
    height:    number of rows the strip occupies.
    sign:      (-1)^(height - 1), the factor this removal contributes.
    """

    remaining: Partition
    height: int
    sign: int


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
    hook of the given length yields no removals.  p is read through
    as_partition, and a length that is not a positive int raises ValueError.

    Implemented with beta-sets (first-column hook lengths): strips of length
    L correspond to elements b of the beta-set with b - L >= 0 not in the
    set, and the strip height is one more than the number of beta elements
    strictly between b - L and b.
    """
    if type(length) is not int or length < 1:
        raise ValueError(f"strip length must be positive and an int, got {length!r}")
    beta = _beta_set(as_partition(p))
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

    lam and mu are read through partitions.as_classes: their parts may come
    in any order, and ValueError refuses a part that is not a positive int
    or labels of two sizes.  ValueError also refuses a sweep with a step of
    more than MAX_MN_SHAPES shapes.  Murnaghan-Nakayama rule:
    peel a border strip of each part of mu in turn, largest first, summing
    sign * count over all removals (see _mn).  Each value is memoized once
    per distinct (lam, mu) call; the memo persists across calls (grow-only).
    """
    key = as_classes(lam, mu)
    if key not in _MN_MEMO:
        _MN_MEMO[key] = _mn(*key)
    return _MN_MEMO[key]


def _mn(lam: Partition, mu: Partition) -> int:
    # One forward sweep over bead masks: counts holds each shape reached so
    # far, as its len(lam)-bead mask (bead i of lam at lam[i] + len(lam) - 1
    # - i), with the signed number of ways to reach it.  A k-strip removal
    # moves a bead b to the free position b - k, and its sign is the parity
    # of the beads strictly between them.  The empty shape is the lowest
    # len(lam) beads.
    r = len(lam)
    counts = {sum(1 << (part + r - 1 - i) for i, part in enumerate(lam)): 1}
    for k in mu:
        between = (1 << (k - 1)) - 1
        reached: dict[int, int] = {}
        for mask, count in counts.items():
            removable = mask & ~(mask << k) & -(1 << k)  # beads b >= k with b - k free
            while removable:
                bit = removable & -removable
                removable ^= bit
                left = mask ^ bit ^ (bit >> k)
                odd = ((mask >> (bit.bit_length() - k)) & between).bit_count() & 1
                reached[left] = reached.get(left, 0) + (-count if odd else count)
        counts = reached
        if len(counts) > MAX_MN_SHAPES:
            raise ValueError(
                f"mn_char at n={sum(lam)}: a step of the sweep holds {len(counts)} shapes, "
                f"past the bound MAX_MN_SHAPES = {MAX_MN_SHAPES}"
            )
    return counts.get((1 << r) - 1, 0)


def reset_mn_memo() -> None:
    """Drop all memoized character values (mainly for cold-start timing)."""
    _MN_MEMO.clear()


def mn_memo_size() -> int:
    return len(_MN_MEMO)


class CharTable(NamedTuple):
    """Full character table of S_n with exact integer entries: (n, values).

    order, partitions_of(n), is derived from n and never stored; it indexes
    both rows (characters) and columns (classes), so values[0] is the trivial
    character (all ones) and the last row is the sign character.
    """

    n: int
    values: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> tuple[Partition, ...]:
        """The canonical partitions of n, labels of both rows and columns."""
        return partitions_of(self.n)

    @property
    def row_text(self) -> tuple[str, ...]:
        """One line per row of values: its decimal strings joined by commas."""
        line = ",".join(["%d"] * len(self.order))
        return tuple(map(line.__mod__, self.values))

    def index(self, p: Partition) -> int:
        """Position of the label p in order; its parts may come in any order."""
        key = as_partition(p)  # refuses a part that is not a positive int
        try:
            return self.order.index(key)
        except ValueError:
            raise ValueError(f"{p} is not a partition of {self.n}") from None

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.values[self.index(lam)][self.index(mu)]


def _level(m: int, n: int) -> dict[int, int]:
    """The partitions of m in canonical order, as {n-bead beta mask: index}.

    A partition lam of m <= n has its bead i at lam[i] + n - 1 - i; the beads
    past its last part fill the low n - len(lam) positions.
    """
    return {
        sum(1 << (part + n - 1 - i) for i, part in enumerate(lam)) | ((1 << (n - len(lam))) - 1): j
        for j, lam in enumerate(iter_partitions(m))
    }


# A packed row holds one value per 64-bit slot, slot j at bits 64j..64j+63,
# stored with 2^63 added: every slot then lies in [0, 2^64), so no slot
# borrows from its neighbour and a run of slots is one shift and one
# subtraction away.  A value fits while |chi| <= sqrt(n!) < 2^63.
_SLOT_BIAS = (1 << 63).to_bytes(8, "little")


def _bias(slots: int) -> int:
    """2^63 in each of `slots` 64-bit slots."""
    return int.from_bytes(_SLOT_BIAS * slots, "little")


def _add_strips(
    source_rows: list[int],
    start: int,
    size: int,
    shapes: dict[int, int],
    target: dict[int, int],
    k: int,
) -> Iterator[bytes]:
    """Pull slots start .. start + size - 1, the last, of packed source rows up a k-strip.

    Yields, for each shape of target in order, the packed bytes of the sum of
    sign * (those slots of the source row left by a removal) over its k-strip
    removals: one big-int addition per removal, the slots added in parallel.
    shapes and target are the _level dicts of the source and target levels.
    Removing a strip moves a bead b >= k to the free position b - k; the
    strip's height is one more than the number of beads strictly between
    them, so that count's parity is the sign.
    """
    bias = _bias(size)
    terms = [(row >> 64 * start) - bias for row in source_rows]
    between = (1 << (k - 1)) - 1
    nbytes = 8 * size
    for mask in target:
        total = bias
        removable = mask & ~(mask << k) & -(1 << k)  # beads b >= k with b - k free
        while removable:
            bit = removable & -removable
            removable ^= bit
            term = terms[shapes[mask ^ bit ^ (bit >> k)]]
            if ((mask >> (bit.bit_length() - k)) & between).bit_count() & 1:
                total -= term
            else:
                total += term
        yield total.to_bytes(nbytes, "little")


def _table_values(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the character table of S_n, rows and columns in canonical order.

    Level m holds one packed row per shape of m, with a slot for each class
    of m whose parts are at most n - m (all classes at m = n).  Canonical
    order sorts classes by largest part, descending, and a class of m with
    largest part k is k added to a class of m - k with parts at most k, which
    are the last slots of level m - k.  So row lam's group of slots for k is
    the sum over the k-strip removals from lam of sign * those slots of the
    row left: the Murnaghan-Nakayama rule, one level at a time, each group
    summed by _add_strips as it walks the bead masks of level m.  Level n's
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
                levels[m - k],
                levels[m],
                k,
            )
            for k in range(min(m, n - m or n), 0, -1)
        ]
        return map(b"".join, zip(*groups))

    packed = [[_bias(1) + 1]]  # the empty shape at the empty class
    for m in range(1, n):
        packed.append([int.from_bytes(row, "little") for row in rows(m)])
    width = len(levels[n])
    bias = _bias(width)
    unpack = _row_struct(width).unpack
    return tuple(
        unpack((int.from_bytes(row, "little") ^ bias).to_bytes(8 * width, "little"))
        for row in rows(n)
    )


def _row_struct(width: int) -> struct.Struct:
    """A row of `width` signed 64-bit little-endian ints."""
    return struct.Struct(f"<{width}q")


def character_table(n: int, *, cache_dir: str | Path | None = None) -> CharTable:
    """Character table of S_n in canonical order.

    An n that is not an int of at least 1, or is past MAX_TABLE_N, raises
    ValueError before any cache read or build.
    With cache_dir set, an existing cache file for this n is loaded (a
    corrupt file, or one holding the table of another n, raises
    CharTableCacheError rather than being silently recomputed); otherwise the
    table is computed and saved there.
    """
    if as_int(n, "the n of a character table", low=1) > MAX_TABLE_N:
        raise ValueError(f"character_table at n={n} is past the table limit {MAX_TABLE_N}")
    path: Path | None = None
    if cache_dir is not None:
        path = table_cache_path(cache_dir, n)
        if path.exists():
            table = load_table(path)
            if table.n != n:
                raise CharTableCacheError(f"cache file {path} holds n={table.n}, not n={n}")
            return table

    table = CharTable(n=n, values=_table_values(n))
    if path is not None:
        save_table(table, path)
    return table


# ---------------------------------------------------------------------------
# Disk cache.  One binary file per n, all little-endian:
#   a header: the format tag, the format version (uint32) and n (uint32);
#   the body: p(n)^2 signed 64-bit values, row-major in canonical order;
#   a trailer: the SHA-256 of the header and body.
# Every value fits: a build refuses n! >= 2^126, and |chi| <= sqrt(n!).
# The file is read back only whole and checked: tag, version and n first,
# then its exact length and the digest, so a damaged file or one of another
# program is refused before any value is read.

_CACHE_TAG = b"SYMCHART"
_CACHE_VERSION = 3
_HEADER = struct.Struct("<8sII")
_DIGEST_SIZE = 32
_INT64 = struct.Struct("<q")


class CharTableCacheError(RuntimeError):
    """A cache file exists but cannot be trusted: report, never recompute."""


def table_cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"chartable_v{_CACHE_VERSION}_{n}.bin"


def _sha256(data: bytes):
    import hashlib  # here, not at module level: the CLI's start-up never needs it

    return hashlib.sha256(data)


def _pack_values(table: CharTable) -> bytearray:
    """table.values as a cache file's body; ValueError names any value that does not fit."""
    width = len(table.order)
    if len(table.values) != width:
        raise ValueError(f"a table of {width} classes needs {width} rows, got {len(table.values)}")
    pack = _row_struct(width).pack
    body = bytearray()
    for i, row in enumerate(table.values):
        try:
            body += pack(*row)
        except struct.error as e:
            where = f"row {i}"
            for j, value in enumerate(row):
                try:
                    _INT64.pack(value)
                except struct.error:
                    where = f"row {i}, column {j}"
                    break
            raise ValueError(f"{where} does not pack as signed 64-bit ints: {e}") from None
    return body


def save_table(table: CharTable, path: str | Path) -> None:
    """Write table to path as a cache file, atomically.

    The rows are packed with struct, and ValueError refuses a table that the
    file cannot hold (n past 1..MAX_TABLE_N, a value outside [-2^63, 2^63))
    before any file is made.
    """
    path = Path(path)
    n = table.n
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"a cache file holds a table of S_1 .. S_{MAX_TABLE_N}, not S_{n}")
    body = _pack_values(table)
    header = _HEADER.pack(_CACHE_TAG, _CACHE_VERSION, n)
    digest = _sha256(header)
    digest.update(body)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, header, body, digest.digest())


def load_table(path: str | Path) -> CharTable:
    """The table in a cache file; CharTableCacheError names a file that fails any check."""
    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CharTableCacheError(f"cache file {path} is truncated: {len(header)} bytes")
        tag, version, n = _HEADER.unpack(header)
        if tag != _CACHE_TAG:
            raise CharTableCacheError(f"cache file {path} is not a symchar table: tag {tag!r}")
        if version != _CACHE_VERSION:
            raise CharTableCacheError(
                f"cache file {path}: format version {version} != expected {_CACHE_VERSION}"
            )
        # checked before the partitions of n are listed: n = 200 would be a hang
        if not 1 <= n <= MAX_TABLE_N:
            raise CharTableCacheError(f"cache file {path}: n={n} is outside 1..{MAX_TABLE_N}")
        width = len(partitions_of(n))
        size = 8 * width**2
        body = f.read(size)
        digest = f.read(_DIGEST_SIZE + 1)
        if len(body) != size or len(digest) != _DIGEST_SIZE:
            expected = _HEADER.size + size + _DIGEST_SIZE
            raise CharTableCacheError(
                f"cache file {path} is {os.fstat(f.fileno()).st_size} bytes, "
                f"not {expected} for n={n}"
            )
    hashed = _sha256(header)
    hashed.update(body)
    if hashed.digest() != digest:
        raise CharTableCacheError(
            f"cache file {path}: sha256 does not match its contents (edited or damaged)"
        )
    return CharTable(n=n, values=tuple(_row_struct(width).iter_unpack(body)))


def write_atomic(path: str | Path, *chunks: str | bytes) -> None:
    """Write the chunks to a temporary file beside path, sync it, then rename it over path.

    A str chunk is written as UTF-8, so one writer serves text and bytes.  An
    interrupted write or a crash leaves the old file (or none), never a
    truncated one; on any failure the temporary file is removed, and an
    OSError with an errno is raised again naming path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.errno is not None:
            # name the file asked for, not the temporary one
            raise OSError(e.errno, e.strerror, str(path)) from e
        raise


# ---------------------------------------------------------------------------
# JSON: the `chartable --format json` payload and its inverse.  Every integer
# is a decimal string, so consumers never hit 53-bit float truncation; the
# encoder is deterministic, and the payload carries a SHA-256 of its
# canonical lines, so a value changed by hand is caught even when it is
# still a canonical integer.


def _payload_hash(n: int):
    """A SHA-256 fed with the canonical payload's first lines: the schema version and n.

    The caller adds one line per order entry, then one per row of values, each
    its decimal strings joined by commas; every line ends in a newline.
    """
    return _sha256(f"{SCHEMA_VERSION}\n{n}\n".encode("ascii"))


def _json_rows(rows: list[str]) -> str:
    # a list of non-empty string lists as json.dumps(indent=2) lays it out one
    # level down; each entry of rows is already '",\n      "'-joined
    return '[\n    [\n      "' + '"\n    ],\n    [\n      "'.join(rows) + '"\n    ]\n  ]'


def table_to_json(table: CharTable) -> str:
    """The `chartable --format json` text: json.dumps(payload, indent=2) + "\n", built row by row.

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
# those into a CharTableCacheError that names the bad value.


def _decode_int(text: object, what: str) -> int:
    if not isinstance(text, str) or str(int(text)) != text:
        raise ValueError(f"{what} must be a canonical decimal string, got {text!r}")
    return int(text)


def _decode_row(row: object, what: str, digest) -> tuple[int, ...]:
    """Decode a JSON array of canonical decimal strings and feed its line to digest."""
    if type(row) is not list:
        raise TypeError(f"expected a JSON array of {what} strings, got {type(row).__name__}")
    ints = tuple(_decode_int(v, what) for v in row)
    digest.update((",".join(row) + "\n").encode("ascii"))
    return ints


def table_from_json(text: str | bytes) -> CharTable:
    """The table that table_to_json encoded; CharTableCacheError if text is anything else."""
    import json  # here: only JSON input needs it, never a table build or cache read

    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError: bad JSON, or bytes in no JSON encoding; RecursionError:
        # arrays nested past the interpreter's recursion limit
        raise CharTableCacheError(f"table JSON is not valid JSON: {e}") from None
    try:
        if not isinstance(payload, dict):
            raise CharTableCacheError("table JSON: top level must be an object")
        missing = {"schema_version", "n", "order", "values", "sha256"} - payload.keys()
        if missing:
            raise CharTableCacheError(f"table JSON: missing keys {sorted(missing)}")
        version = _decode_int(payload["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise CharTableCacheError(
                f"table JSON: schema_version {version} != expected {SCHEMA_VERSION}"
            )
        n = _decode_int(payload["n"], "n")
        digest = _payload_hash(n)
        order = tuple(_decode_row(p, "order entry", digest) for p in payload["order"])
        # compared lazily: a large n in damaged text must not enumerate p(n) partitions
        if order != tuple(islice(iter_partitions(n), len(order) + 1)):
            raise CharTableCacheError(f"table JSON: order is not canonical for n={n}")
        raw = payload["values"]
        if len(raw) != len(order):
            raise CharTableCacheError(f"table JSON: expected {len(order)} rows")
        values = []
        for row in raw:
            if len(row) != len(order):
                raise CharTableCacheError(f"table JSON: ragged row of length {len(row)}")
            values.append(_decode_row(row, "value", digest))
        if payload["sha256"] != digest.hexdigest():
            raise CharTableCacheError(
                "table JSON: sha256 does not match its contents (edited or damaged)"
            )
        return CharTable(n=n, values=tuple(values))
    except (TypeError, ValueError) as e:
        raise CharTableCacheError(f"table JSON is malformed: {e}") from None
