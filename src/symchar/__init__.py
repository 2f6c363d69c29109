"""Exact character theory of symmetric groups at desk scale.

The package computes irreducible character values of S_n three independent
ways (Murnaghan-Nakayama recursion, near-hook closed forms, induced-character
recursions), multiplies conjugacy classes in the class algebra with an
enumeration oracle as a cross-check, and classifies the pairs of classes on
which every non-linear character vanishes.

The names in __all__ are loaded on first use (PEP 562): `import symchar`
imports no submodule, and `symchar.X` imports only the submodule that
defines X and returns that submodule's object.  So a `symchar` command pays
at start-up only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "characters": (
        "CharTable",
        "CharTableCacheError",
        "RimHookRemoval",
        "border_strip_removals",
        "character_table",
        "load_table",
        "mn_char",
        "save_table",
    ),
    "class_algebra": (
        "BruteForceLimitError",
        "class_representative",
        "conjugacy_class",
        "deterministic_triples",
        "merge_lemma_check",
        "structure_constant",
        "structure_constant_bruteforce",
    ),
    "formulas": (
        "NearHookShape",
        "hook_char_recursive",
        "near_hook_value",
        "shape_partition",
        "two_row_char_recursive",
    ),
    "partitions": (
        "Partition",
        "centralizer_order",
        "class_size",
        "conjugate",
        "format_partition",
        "is_hook",
        "multiplicities",
        "parse_partition",
        "partitions_of",
        "sign_value",
    ),
    "vanishing": (
        "CoveringPairReport",
        "covering_pairs",
        "covers_all_nonlinear",
        "find_covering_pairs",
        "predicted_coefficient",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
