"""Hypothesis profiles: with ``CI`` set, as GitHub Actions sets it, every
property test draws the same examples on every run; local runs stay random.

qbos keeps three process-wide caches: the prefix memo noise._prefix, the
strategy gate table noise._gate_table and the curve memo game._memoised_curves.
Each test starts with all three empty, so no test's outcome depends on which
tests ran before it in the same process."""

import os

import pytest
from hypothesis import settings

from qbos import game, noise

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def empty_memos():
    noise._prefix.cache_clear()
    noise._gate_table.cache_clear()
    game._memoised_curves.cache_clear()
