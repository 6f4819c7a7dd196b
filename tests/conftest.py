"""Test-wide settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run, local or in CI, tests the same inputs.  Each test
keeps its own `max_examples`.  The `trace_tables` fixture counts the
work of the one trace-form kernel.
"""

import pytest
from hypothesis import settings

from avgmix import mixing

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def trace_tables(monkeypatch):
    """Every `_TraceTable` that mixing makes while the test runs, in
    order.  Each counts the entries it computes in `computed`
    and the Hankel rows a T in `rows_computed`."""
    made = []

    class Table(mixing._TraceTable):
        computed = 0
        rows_computed = 0

        def __init__(self, tau):
            super().__init__(tau)
            made.append(self)

        def row(self, a):
            self.rows_computed += 1
            return super().row(a)

        def __missing__(self, key):
            self.computed += 1
            return super().__missing__(key)

    monkeypatch.setattr(mixing, "_TraceTable", Table)
    return made
