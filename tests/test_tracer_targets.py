"""The benchmark's tracer wraps symchar functions by name: every name must stay callable.

A target that is gone leaves its per-layer metric out of a traced run's
result, so a rename or removal here fails a test instead of a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [*tracer.SPANNED, *tracer.COUNTED, *tracer.PROBED]


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda part: part)
def test_every_traced_target_is_an_importable_callable(module, attr):
    imported = importlib.import_module(module)
    # the tracer rebinds module globals only: a name served by __getattr__ is skipped
    assert attr in vars(imported), f"{module}.{attr} is not a module global"
    assert callable(getattr(imported, attr)), f"{module}.{attr}"
