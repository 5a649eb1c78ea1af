"""Simulation cells: registry coverage, worker-side regeneration, equality
with direct (in-process) simulation."""

from __future__ import annotations

import pytest

from repro.analysis.distance import trace_static_cost
from repro.core.builders import build_complete_tree
from repro.core.splaynet import KArySplayNet
from repro.errors import ExperimentError
from repro.net import online_algorithms, static_algorithms
from repro.network.simulator import Simulator
from repro.parallel.pool import parallel_map
from repro.parallel.tasks import materialize_trace, run_simulation_task
from repro.scenarios import ScenarioSpec, run_scenario
from repro.workloads.synthetic import temporal_trace, uniform_trace


class TestMaterializeTrace:
    @pytest.mark.parametrize(
        "workload", ["uniform", "hpc", "projector", "facebook", "temporal-0.5", "zipf-1.2"]
    )
    def test_known_workloads(self, workload):
        trace = materialize_trace(workload, 32, 200, seed=3)
        assert trace.n == 32
        assert trace.m == 200

    def test_deterministic(self):
        a = materialize_trace("temporal-0.75", 20, 100, seed=9)
        b = materialize_trace("temporal-0.75", 20, 100, seed=9)
        assert (a.sources == b.sources).all()
        assert (a.targets == b.targets).all()

    def test_matches_direct_generator(self):
        via_task = materialize_trace("uniform", 16, 50, seed=4)
        direct = uniform_trace(16, 50, 4)
        assert (via_task.sources == direct.sources).all()

    def test_unknown_workload(self):
        with pytest.raises(ExperimentError):
            materialize_trace("quantum", 16, 50, seed=4)


class TestTaskValidation:
    """run_simulation_task takes a ScenarioSpec, which validates itself."""

    def test_unknown_algorithm(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec("uniform", 16, 50, 1, "teleport", 2)

    def test_bad_k(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec("uniform", 16, 50, 1, "kary-splaynet", 1)

    def test_registries_disjoint(self):
        assert not online_algorithms() & static_algorithms()


class TestRunSimulationTask:
    @pytest.mark.parametrize("algorithm", sorted(online_algorithms()))
    def test_online_algorithms_run(self, algorithm):
        spec = ScenarioSpec("temporal-0.5", 24, 300, 7, algorithm, 3)
        routing, _, _ = run_simulation_task(spec)
        assert routing > 0

    @pytest.mark.parametrize("algorithm", sorted(static_algorithms()))
    def test_static_algorithms_run(self, algorithm):
        spec = ScenarioSpec("temporal-0.5", 20, 200, 7, algorithm, 3)
        routing, rotations, links = run_simulation_task(spec)
        assert routing > 0
        assert rotations == 0
        assert links == 0

    def test_online_matches_direct_simulation(self):
        n, m, seed, k = 20, 400, 11, 3
        spec = ScenarioSpec("temporal-0.75", n, m, seed, "kary-splaynet", k)
        routing, rotations, _ = run_simulation_task(spec)
        trace = temporal_trace(n, m, 0.75, seed)
        direct = Simulator().run(KArySplayNet(n, k, initial="complete"), trace)
        assert routing == direct.total_routing
        assert rotations == direct.total_rotations

    def test_static_matches_direct_cost(self):
        n, m, seed, k = 20, 400, 11, 4
        spec = ScenarioSpec("uniform", n, m, seed, "full-tree", k)
        routing, _, _ = run_simulation_task(spec)
        trace = uniform_trace(n, m, seed)
        assert routing == trace_static_cost(build_complete_tree(n, k), trace)

    def test_average_routing(self):
        result = run_scenario(ScenarioSpec("uniform", 16, 100, 2, "full-tree", 2))
        assert result.average_routing == result.total_routing / 100

    def test_tasks_through_process_pool(self):
        specs = [
            ScenarioSpec("uniform", 16, 120, 5, "kary-splaynet", k)
            for k in (2, 3, 4)
        ]
        parallel = parallel_map(run_simulation_task, specs, jobs=2)
        serial = [run_simulation_task(spec) for spec in specs]
        assert parallel == serial
