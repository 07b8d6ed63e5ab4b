"""Test-session setup: a derandomized hypothesis profile for CI.

GitHub Actions sets ``CI``; under it every property test draws the same
examples on every run, and a CI failure reproduces locally with ``CI=1``.
Runs without ``CI`` keep hypothesis's random draws.
"""
import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")
