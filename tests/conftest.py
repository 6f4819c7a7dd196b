"""Test-wide settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run, local or in CI, tests the same inputs.  Each test
keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
