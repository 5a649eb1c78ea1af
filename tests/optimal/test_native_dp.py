"""Differential tests: the native DP forward passes against the NumPy ones.

``repro_dp_general`` and ``repro_dp_uniform`` (``kernel.c``) must fill
tables equal entry for entry to :func:`repro.optimal.general._forward_numpy`
and :func:`repro.optimal.uniform._uniform_numpy`.  The kernel is loaded
with ``REPRO_NATIVE`` cleared, so these tests also run in a process that
disables it (the no-toolchain CI leg); they skip only when no C compiler
can build it.  Random demands come from a drawn seed, and hypothesis runs
from a fixed seed, so every failure replays.  Needs hypothesis (installed
in CI); the property tests are skipped when it is absent.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core._native as _native
from repro.errors import OptimizationError
from repro.optimal import general, uniform
from repro.optimal.context import DemandContext
from repro.optimal.wmatrix import uniform_boundary_crossing

try:
    from hypothesis import given, seed, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is installed in CI
    given = None

#: Fixed hypothesis seed: the drawn cases are the same on every run.
HYPOTHESIS_SEED = 20261017


@pytest.fixture(scope="module")
def kernel():
    """The compiled kernel, loaded even where ``REPRO_NATIVE=0`` is set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_NATIVE", raising=False)
        _native._reset_for_tests()
        lib = _native.load_kernel()
        error = _native.build_error()
    # Forget the load so the rest of the suite sees the caller's setting.
    _native._reset_for_tests()
    if lib is None:
        pytest.skip(f"native kernel unavailable: {error}")
    return lib


def general_tables(kernel, demand, k):
    """``(native, numpy)`` length-major tables for one demand and arity."""
    w = DemandContext.from_demand(demand).w
    n = w.shape[0] - 1
    native = general._new_table(n, k)
    general._forward_native(kernel, native, w, k)
    reference = general._new_table(n, k)
    general._forward_numpy(reference, w, k)
    return native, reference


def uniform_tables(kernel, n, k):
    """``[(T, B) native, (T, B) numpy]`` for the uniform DP."""
    w = uniform_boundary_crossing(n)
    native = uniform._new_tables(n, k)
    uniform._uniform_native(kernel, *native, w, k)
    reference = uniform._new_tables(n, k)
    uniform._uniform_numpy(*reference, w, k)
    return native, reference


def random_demand(seed_value, n, hi):
    rng = np.random.default_rng(seed_value)
    d = rng.integers(0, hi + 1, (n, n))
    d[rng.random((n, n)) < 0.4] = 0  # sparse rows and empty segments
    np.fill_diagonal(d, 0)
    return d


def heavy_pair_demand(n):
    """Random small counts plus one pair just inside the magnitude guard."""
    d = random_demand(7, n, 5)
    d[0, n - 1] = (1 << 60) // (2 * n) - 1 - int(d.sum())
    return d


class TestGeneralEdgeCases:
    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_single_node(self, kernel, k):
        native, reference = general_tables(kernel, np.zeros((1, 1)), k)
        assert np.array_equal(native, reference)
        assert native[1, 1, 0] == 0

    def test_all_zero_demand(self, kernel):
        native, reference = general_tables(kernel, np.zeros((9, 9)), 3)
        assert np.array_equal(native, reference)
        assert not native[1:, 1:, 0].any()

    @pytest.mark.parametrize("n, k", [(3, 12), (5, 6), (2, 2)])
    def test_arity_above_n(self, kernel, n, k):
        native, reference = general_tables(kernel, random_demand(n, n, 9), k)
        assert np.array_equal(native, reference)

    @pytest.mark.parametrize("n, k", [(2, 2), (12, 3), (17, 5)])
    def test_heavy_pair_near_the_magnitude_guard(self, kernel, n, k):
        d = heavy_pair_demand(n)
        native, reference = general_tables(kernel, d, k)
        assert np.array_equal(native, reference)
        # The costs really are past float64's exact-integer range.
        assert native[1, n, 0] > 1 << 53


    def test_refuses_a_table_it_would_index_past(self, kernel):
        w = DemandContext.from_demand(random_demand(1, 6, 3)).w
        for table in (np.zeros((3, 7, 6), np.int64), np.zeros((3, 7, 7))):
            with pytest.raises(OptimizationError):
                general._forward_native(kernel, table, w, 3)


class TestUniformEdgeCases:
    @pytest.mark.parametrize("n, k", [(1, 2), (1, 12), (2, 12), (300, 4)])
    def test_tables_match(self, kernel, n, k):
        (t_native, b_native), (t_numpy, b_numpy) = uniform_tables(kernel, n, k)
        assert np.array_equal(t_native, t_numpy)
        assert np.array_equal(b_native, b_numpy)


class TestKernelSwitch:
    """Flipping ``REPRO_NATIVE=0`` changes the path, never the answer."""

    def _both_worlds(self, monkeypatch, compute):
        results = []
        for value in ("1", "0"):
            monkeypatch.setenv("REPRO_NATIVE", value)
            _native._reset_for_tests()
            assert _native.available() == (value == "1")
            results.append(compute())
        _native._reset_for_tests()
        return results

    def test_general_costs_and_trees_agree(self, kernel, monkeypatch):
        d = random_demand(11, 23, 20)

        def compute():
            runs = [general.optimal_static_tree(d, k) for k in (2, 3, 5, 9)]
            return [(r.cost, r.tree.edge_set()) for r in runs]

        with_kernel, without = self._both_worlds(monkeypatch, compute)
        assert with_kernel == without

    def test_uniform_costs_and_trees_agree(self, kernel, monkeypatch):
        def compute():
            runs = [uniform.optimal_uniform_tree(60, k) for k in (2, 4, 11)]
            return [(r.cost, r.tree.edge_set()) for r in runs]

        with_kernel, without = self._both_worlds(monkeypatch, compute)
        assert with_kernel == without


if given is not None:

    @seed(HYPOTHESIS_SEED)
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=2, max_value=12),
        demand_seed=st.integers(min_value=0, max_value=2**32 - 1),
        hi=st.sampled_from([1, 3, 1000, 1 << 40]),
    )
    def test_property_general_tables_match(kernel, n, k, demand_seed, hi):
        d = random_demand(demand_seed, n, hi)
        native, reference = general_tables(kernel, d, k)
        assert np.array_equal(native, reference)

    @seed(HYPOTHESIS_SEED)
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=2, max_value=12),
    )
    def test_property_uniform_tables_match(kernel, n, k):
        (t_native, b_native), (t_numpy, b_numpy) = uniform_tables(kernel, n, k)
        assert np.array_equal(t_native, t_numpy)
        assert np.array_equal(b_native, b_numpy)
