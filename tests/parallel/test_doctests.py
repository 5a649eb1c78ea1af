"""Run the executable examples embedded in the parallel package's docs."""

from __future__ import annotations

import doctest

import repro.parallel.seeds


def test_seeds_doctests():
    results = doctest.testmod(repro.parallel.seeds)
    assert results.failed == 0
    assert results.attempted >= 3

