import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from symchar import character_table


@lru_cache(maxsize=None)
def _shared_table(n: int):
    return character_table(n)


@pytest.fixture
def table_for():
    """Character tables built once per session and shared by every test."""
    return _shared_table
