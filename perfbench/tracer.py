"""Span recorders installed around symchar's public functions, from outside.

Nothing under src/ is edited.  install() replaces each target function with
a wrapper in every loaded symchar module that holds a reference to it, so a
call through `from .characters import character_table` in the CLI and a call
through the module global inside characters.py are both recorded.

Spans are kept in memory and written once, as JSON, when the request ends:
    [span_id, parent_id, name, start_s, end_s, bytes]
parent_id is None for a top-level span.  bytes is the size of the text or
file a span produced or read, where one applies, else None.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Functions timed with a span.  The layer is the module name after "symchar.".
SPANNED = (
    ("symchar.cli", "main"),
    ("symchar.characters", "character_table"),
    ("symchar.characters", "load_table"),
    ("symchar.characters", "save_table"),
    ("symchar.characters", "table_to_json"),
    ("symchar.characters", "table_from_json"),
    ("symchar.characters", "mn_char"),
    ("symchar.vanishing", "find_covering_pairs"),
    ("symchar.class_algebra", "conjugacy_class"),
    ("symchar.class_algebra", "structure_constant_bruteforce"),
    ("symchar.class_algebra", "structure_constant"),
    ("symchar.formulas", "near_hook_value"),
    ("symchar.formulas", "hook_char_recursive"),
    ("symchar.formulas", "two_row_char_recursive"),
)
# Called hundreds of thousands of times per build: counted, never timed.
COUNTED = (("symchar.characters", "border_strip_removals"),)
# Read once when the request ends.
PROBED = (("symchar.characters", "mn_memo_size"),)


def _key(module: str, attr: str) -> str:
    return f"{module.removeprefix('symchar.')}.{attr}"


def _bytes_of(key: str, args: tuple, result: object) -> int | None:
    if key == "characters.table_to_json":
        return len(result)
    if key == "characters.load_table":
        return os.path.getsize(args[0])
    if key == "characters.save_table":
        return os.path.getsize(args[1])
    return None


class Recorder:
    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.probes: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def spanned(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [span_id, parent, key, time.perf_counter(), None, None]
            self.spans.append(record)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            try:
                record[5] = _bytes_of(key, args, result)
            except (OSError, IndexError, TypeError):
                pass  # a changed signature loses the size, never the call
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def probe(self) -> None:
        for module, attr in PROBED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None:
                self.probes[_key(module, attr)] = fn()

    def dump(self, path: str) -> None:
        payload = {
            "request": self.request_id,
            "spans": self.spans,
            "counts": self.counts,
            "probes": self.probes,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "symchar" or name.startswith("symchar.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(request_id: str) -> Recorder:
    """Import symchar and wrap every target; absent targets go to .missing."""
    import importlib

    import symchar  # noqa: F401  (the package imports all of its modules)

    recorder = Recorder(request_id)
    for targets, make in ((SPANNED, recorder.spanned), (COUNTED, recorder.counted)):
        for module_name, attr in targets:
            key = _key(module_name, attr)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                recorder.missing.append(key)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                recorder.missing.append(key)
                continue
            _rebind(original, make(key, original))
    for module_name, attr in PROBED:
        if not callable(getattr(sys.modules.get(module_name), attr, None)):
            recorder.missing.append(_key(module_name, attr))
    return recorder
