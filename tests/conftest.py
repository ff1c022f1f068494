"""Test-session settings shared by every module."""

from hypothesis import settings

# Properties run with fixed example sequences and no per-example deadline:
# a failure reproduces on every run, and a slow host cannot fail a test.
settings.register_profile("coles", deadline=None, derandomize=True)
settings.load_profile("coles")
