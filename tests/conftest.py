"""Hypothesis settings: with CI set, every property test draws a fixed
sequence of examples, so a CI failure reproduces locally with ``CI=1``.

``--hypothesis-profile=fresh`` draws new examples instead, from the seed
that ``--hypothesis-seed`` gives, at FRESH_SCALE times each property test's
own ``max_examples``; the header of the run shows the settings in force:

    python -m pytest -m hypothesis --hypothesis-profile=fresh --hypothesis-seed=12345 tests
"""

import os

from hypothesis import settings

FRESH_SCALE = 10

settings.register_profile("ci", derandomize=True)
settings.register_profile("fresh", derandomize=False)
if os.environ.get("CI"):
    settings.load_profile("ci")


def _fresh(config) -> bool:
    return config.getoption("--hypothesis-profile", None) == "fresh"


def pytest_collection_modifyitems(config, items):
    # every property test fixes its own max_examples, which a profile cannot
    # raise, so the fresh profile scales the test's settings object itself
    if not _fresh(config):
        return
    for test in {id(item.obj): item.obj for item in items}.values():
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(own, max_examples=own.max_examples * FRESH_SCALE)


def pytest_report_header(config):
    if _fresh(config):
        return f"fresh profile: {settings.default!r}, each property test at {FRESH_SCALE}x its max_examples"
