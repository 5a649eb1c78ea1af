"""The DP subsystem's shared demand context and its per-process memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.optimal import (
    DemandContext,
    clear_context_cache,
    context_cache_stats,
    demand_context,
    optimal_static_cost_table,
    optimal_static_tree,
)
from repro.optimal.legacy import legacy_optimal_cost_table
from repro.optimal.wmatrix import boundary_crossing_matrix
from repro.workloads.demand import DemandMatrix


def random_demand(rng, n, hi=6):
    d = rng.integers(0, hi, (n, n))
    np.fill_diagonal(d, 0)
    return d


class TestDemandContext:
    def test_holds_int64_inputs(self, rng):
        d = random_demand(rng, 10)
        ctx = DemandContext.from_demand(d)
        assert ctx.dense.dtype == np.int64
        assert ctx.w.dtype == np.int64
        assert np.array_equal(ctx.w, boundary_crossing_matrix(d))

    def test_accepts_demand_matrix(self, rng):
        d = random_demand(rng, 8)
        ctx = DemandContext.from_demand(DemandMatrix(8, dense=d))
        assert ctx.n == 8 and ctx.total == int(d.sum())

    def test_rejects_non_integral_floats(self):
        d = np.zeros((4, 4))
        d[0, 1] = 1.5
        with pytest.raises(OptimizationError):
            DemandContext.from_demand(d)

    def test_rejects_negative_counts(self):
        d = np.zeros((4, 4), dtype=np.int64)
        d[0, 1] = -3
        with pytest.raises(OptimizationError):
            DemandContext.from_demand(d)

    def test_rejects_overflow_scale_demands(self):
        # 2 * n * total must stay below 2^60 for exact int64 tables.
        d = np.zeros((4, 4), dtype=np.int64)
        d[0, 1] = 1 << 58
        with pytest.raises(OptimizationError):
            DemandContext.from_demand(d)

    def test_guard_survives_int64_wraparound_of_the_total(self):
        # Entries whose int64 sum wraps negative must still be rejected,
        # not sneak past the guard on a wrapped (negative) total.
        d = np.zeros((2, 2), dtype=np.int64)
        d[0, 1] = d[1, 0] = 1 << 62
        with pytest.raises(OptimizationError):
            DemandContext.from_demand(d)

    def test_w_is_read_only_and_survives_a_sweep(self, rng):
        d = random_demand(rng, 12)
        ctx = DemandContext.from_demand(d)
        before = ctx.w.copy()
        with pytest.raises(ValueError):
            ctx.w[0, 1] = 0
        for k in (2, 5):
            optimal_static_tree(d, k, context=ctx)
        assert np.array_equal(ctx.w, before)

    def test_rejects_w_of_the_wrong_shape(self, rng):
        d = random_demand(rng, 6)
        with pytest.raises(OptimizationError):
            DemandContext(d, boundary_crossing_matrix(d)[:, :-1])

    def test_mismatched_context_is_rejected(self, rng):
        ctx = DemandContext.from_demand(random_demand(rng, 8))
        with pytest.raises(OptimizationError):
            optimal_static_cost_table(random_demand(rng, 9), 2, context=ctx)


class TestCrossArityReuse:
    """One context across an arity sweep must equal fresh per-k runs."""

    @pytest.mark.parametrize("ks", [(2, 3, 5, 9), (9, 5, 3, 2), (4, 4, 7, 2)])
    def test_shared_context_matches_fresh_runs(self, rng, ks):
        d = random_demand(rng, 26)
        ctx = DemandContext.from_demand(d)
        for k in ks:
            shared = optimal_static_cost_table(d, k, context=ctx)
            fresh = optimal_static_cost_table(
                d, k, context=DemandContext.from_demand(d)
            )
            assert shared == fresh == int(round(legacy_optimal_cost_table(d, k)))

    def test_reconstruction_agrees_with_seeded_tables(self, rng):
        d = random_demand(rng, 18)
        ctx = DemandContext.from_demand(d)
        optimal_static_cost_table(d, 8, context=ctx)  # an earlier, wider run
        for k in (2, 3, 5):
            seeded = optimal_static_tree(d, k, context=ctx)
            fresh = optimal_static_tree(
                d, k, context=DemandContext.from_demand(d)
            )
            seeded.tree.validate()
            assert seeded.cost == fresh.cost


class TestContextMemo:
    def test_same_content_shares_one_context(self, rng):
        clear_context_cache()
        d = random_demand(rng, 9)
        try:
            first = demand_context(d)
            again = demand_context(d.copy())  # equal content, new object
            assert again is first
            stats = context_cache_stats()
            assert stats == {"hits": 1, "misses": 1, "size": 1}
        finally:
            clear_context_cache()

    def test_distinct_content_distinct_contexts(self, rng):
        clear_context_cache()
        try:
            a = demand_context(random_demand(rng, 9))
            b = demand_context(random_demand(rng, 9))
            assert a is not b
            assert context_cache_stats()["misses"] == 2
        finally:
            clear_context_cache()

    def test_default_calls_share_the_memoized_context(self, rng):
        clear_context_cache()
        d = random_demand(rng, 14)
        try:
            costs = [optimal_static_cost_table(d, k) for k in (2, 4, 6)]
            assert context_cache_stats()["misses"] == 1
            assert costs == sorted(costs, reverse=True)
        finally:
            clear_context_cache()
