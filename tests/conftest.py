import faulthandler
import os
import sys
from functools import lru_cache
from pathlib import Path

# Write no bytecode beside the sources, here or in the CLI subprocesses: a
# src/symchar/__pycache__ left by a test run would let a later timing of the
# checkout import bytecode where a clean checkout compiles every module.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

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


# Longest one test may run before the whole run stops with a traceback and
# exit code 1: 35 to 40 times the slowest test (1.4-1.8 s on a 2-vCPU Xeon,
# CPython 3.11), so a test that hangs, such as a cycle walk through a broken
# class member, fails the run instead of holding it.
TEST_TIME_LIMIT_S = 60
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # output is not captured yet, so this is the run's own stderr; while a
    # test runs, fd 2 goes to a capture file that the exit would discard
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=item.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
