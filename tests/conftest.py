"""Hypothesis profiles: with ``CI`` set, as GitHub Actions sets it, every
property test draws the same examples on every run; local runs stay random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
