"""Hypothesis settings: with CI set, every property test draws a fixed
sequence of examples, so a CI failure reproduces locally with ``CI=1``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
