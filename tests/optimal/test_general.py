"""Tests for the O(n³k) optimal static tree DP (Theorem 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.distance import total_demand_distance, trace_static_cost
from repro.core.builders import build_balanced_tree, build_complete_tree
from repro.errors import OptimizationError
from repro.optimal.general import optimal_static_cost_table, optimal_static_tree
from repro.optimal.reference import brute_force_optimal_cost, reference_optimal_cost
from repro.workloads.demand import DemandMatrix
from repro.workloads.synthetic import uniform_trace, zipf_trace


def random_demand(rng, n, hi=6):
    d = rng.integers(0, hi, (n, n))
    np.fill_diagonal(d, 0)
    return d


class TestAgainstReferences:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_pure_python_reference(self, n, k, rng):
        d = random_demand(rng, n)
        assert optimal_static_cost_table(d, k) == reference_optimal_cost(d, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_exhaustive_enumeration(self, n, k, rng):
        d = random_demand(rng, n)
        assert optimal_static_cost_table(d, k) == brute_force_optimal_cost(d, k)

    def test_larger_instance_against_reference(self, rng):
        d = random_demand(rng, 12)
        assert optimal_static_cost_table(d, 3) == reference_optimal_cost(d, 3)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_matches_reference_at_medium_n(self, k, rng):
        d = random_demand(rng, 40)
        assert optimal_static_cost_table(d, k) == reference_optimal_cost(d, k)


class TestExactness:
    """The int64 DP must stay exact where float64 accumulation drifts.

    (The randomized property-test variant lives in
    ``test_exactness_property.py`` — it needs hypothesis, which is
    optional.)
    """

    def test_huge_weights_exceed_float64_precision_but_stay_exact(self):
        # One hot pair of weight 2^53 + 1 (not representable in float64):
        # the optimum places it adjacent, so the exact cost is the weight
        # itself — a float64 pipeline would round it down to 2^53.
        n = 5
        big = (1 << 53) + 1
        d = np.zeros((n, n), dtype=np.int64)
        d[0, 4] = big
        cost = optimal_static_cost_table(d, 2)
        assert cost == reference_optimal_cost(d, 2) == big

    def test_cost_attribute_is_a_python_int(self, rng):
        result = optimal_static_tree(DemandMatrix(8, dense=random_demand(rng, 8)), 3)
        assert type(result.cost) is int
        assert type(optimal_static_cost_table(random_demand(rng, 6), 2)) is int


class TestReconstruction:
    @pytest.mark.parametrize("n,k", [(5, 2), (10, 3), (25, 2), (25, 5), (40, 4)])
    def test_tree_cost_equals_dp_value(self, n, k, rng):
        demand = DemandMatrix(n, dense=random_demand(rng, n))
        result = optimal_static_tree(demand, k)
        result.tree.validate()
        assert total_demand_distance(result.tree, demand) == result.cost

    def test_tree_is_routing_based(self, rng):
        demand = DemandMatrix(12, dense=random_demand(rng, 12))
        result = optimal_static_tree(demand, 3)
        assert result.tree.routing_based
        for node in result.tree.iter_nodes():
            assert float(node.nid) in node.routing

    def test_respects_arity(self, rng):
        demand = DemandMatrix(30, dense=random_demand(rng, 30))
        result = optimal_static_tree(demand, 3)
        for node in result.tree.iter_nodes():
            assert node.degree <= 3


class TestOptimality:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_beats_every_static_baseline(self, k, rng):
        trace = zipf_trace(30, 3000, 1.4, seed=8)
        demand = DemandMatrix.from_trace(trace)
        optimal = optimal_static_tree(demand, k)
        for baseline in (build_complete_tree(30, k), build_balanced_tree(30, k)):
            assert optimal.cost <= total_demand_distance(baseline, demand)

    def test_cost_non_increasing_in_k(self, rng):
        d = random_demand(rng, 20)
        costs = [optimal_static_cost_table(d, k) for k in (2, 3, 4, 6)]
        assert costs == sorted(costs, reverse=True)

    def test_hot_pair_placed_adjacent(self):
        d = np.zeros((12, 12), dtype=np.int64)
        d[1, 9] = 500
        d[3, 4] = 1
        result = optimal_static_tree(DemandMatrix(12, dense=d), 3)
        assert result.tree.distance(2, 10) == 1  # ids are 1-based

    def test_uniform_demand_cost_matches_uniform_dp(self):
        from repro.optimal.uniform import optimal_uniform_cost

        n = 18
        d = np.triu(np.ones((n, n), dtype=np.int64), 1)
        for k in (2, 3, 4):
            general = optimal_static_cost_table(d, k)
            assert general == optimal_uniform_cost(n, k)


class TestEdgeCases:
    def test_single_node(self):
        result = optimal_static_tree(DemandMatrix(1, dense=np.zeros((1, 1), dtype=np.int64)), 2)
        assert result.cost == 0 and result.tree.n == 1

    def test_zero_demand(self):
        result = optimal_static_tree(
            DemandMatrix(6, dense=np.zeros((6, 6), dtype=np.int64)), 2
        )
        result.tree.validate()
        assert result.cost == 0

    def test_k_larger_than_n(self, rng):
        d = random_demand(rng, 4)
        result = optimal_static_tree(DemandMatrix(4, dense=d), 8)
        result.tree.validate()
        assert result.cost == optimal_static_cost_table(d, 8)

    def test_invalid_arity(self):
        with pytest.raises(OptimizationError):
            optimal_static_cost_table(np.zeros((3, 3)), 1)

    def test_non_square_demand(self):
        with pytest.raises(OptimizationError):
            optimal_static_cost_table(np.zeros((2, 3)), 2)

    def test_accepts_raw_arrays_and_demand_matrices(self, rng):
        d = random_demand(rng, 8)
        a = optimal_static_cost_table(d, 3)
        b = optimal_static_tree(DemandMatrix(8, dense=d), 3).cost
        assert a == b
