"""Cross-subsystem integration: mixtures through every SAN, the parallel
pipeline end-to-end, and theory/figure consistency checks."""

from __future__ import annotations

import pytest

from repro.analysis.complexity import complexity_report
from repro.analysis.potential import audit_splaynet_accesses
from repro.analysis.stretch import measure_stretch
from repro.core.builders import build_complete_tree
from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.splaynet import KArySplayNet
from repro.network.lazy import LazyRebuildNetwork
from repro.network.simulator import Simulator, simulate
from repro.network.static import StaticTreeNetwork
from repro.parallel import seed_for_cell
from repro.scenarios import ScenarioSpec, run_specs
from repro.splaynet.splaynet import SplayNet
from repro.workloads.mixtures import (
    elephant_mice_trace,
    markov_modulated_trace,
    phased_trace,
    shuffle_phase_trace,
)
from repro.workloads.synthetic import temporal_trace, uniform_trace


N, M, SEED = 48, 1_500, 11


def _networks(n: int):
    return {
        "kary-3": KArySplayNet(n, 3),
        "centroid-3": CentroidSplayNet(n, 2),
        "splaynet": SplayNet(n),
        "lazy": LazyRebuildNetwork(n, 3, alpha=2_000.0),
        "static": StaticTreeNetwork(build_complete_tree(n, 3)),
    }


class TestMixturesThroughNetworks:
    """Every mixture workload runs through every network design with the
    invariants intact and sane cost accounting."""

    @pytest.mark.parametrize(
        "make_trace",
        [
            lambda: elephant_mice_trace(N, M, seed=SEED),
            lambda: markov_modulated_trace(N, M, seed=SEED),
            lambda: shuffle_phase_trace(N, M, seed=SEED),
            lambda: phased_trace(
                [uniform_trace(N, M // 2, SEED), temporal_trace(N, M // 2, 0.9, SEED)]
            ),
        ],
        ids=["elephant-mice", "markov", "shuffle", "phased"],
    )
    def test_all_networks_serve_mixtures(self, make_trace):
        trace = make_trace()
        sim = Simulator(validate_every=500)
        for name, network in _networks(trace.n).items():
            result = sim.run(network, trace, name=name)
            assert result.total_routing > 0
            assert result.m == trace.m

    def test_elephant_mice_rewards_demand_awareness(self):
        # a SAN should exploit the elephants: beat the oblivious static tree
        trace = elephant_mice_trace(N, 6_000, elephant_share=0.85, seed=3)
        san = simulate(KArySplayNet(N, 2), trace)
        static = simulate(StaticTreeNetwork(build_complete_tree(N, 2)), trace)
        assert san.total_routing < static.total_routing

    def test_markov_locality_helps_san(self):
        # high-locality markov regime: SAN average cost beats the uniform case
        local = markov_modulated_trace(
            N, 6_000, p_local=0.95, stay_local=0.99, stay_mixing=0.5, seed=5
        )
        mixing = uniform_trace(N, 6_000, 5)
        san_local = simulate(KArySplayNet(N, 3), local)
        san_mixing = simulate(KArySplayNet(N, 3), mixing)
        assert san_local.average_routing < san_mixing.average_routing


class TestParallelPipeline:
    def test_sweep_drives_simulation_tasks(self):
        # A sweep is a spec list: one cell per k, each on its own derived
        # seed, bit-identical serially and across worker processes.
        specs = [
            ScenarioSpec(
                "temporal-0.75",
                32,
                500,
                seed_for_cell(7, {"k": k}),
                "kary-splaynet",
                k,
            )
            for k in (2, 3)
        ]
        serial = run_specs(specs, jobs=1, cache=False)
        parallel = run_specs(specs, jobs=2, cache=False)
        assert [r.total_routing for r in serial] == [
            r.total_routing for r in parallel
        ]
        assert all(r.total_routing > 0 for r in serial)

    def test_paper_shape_through_tasks(self):
        # the central k-trend holds through the campaign runner too
        specs = [
            ScenarioSpec("temporal-0.9", 100, 4_000, 42, "kary-splaynet", k)
            for k in (2, 6)
        ]
        costs = {r.spec.k: r.total_routing for r in run_specs(specs, cache=False)}
        assert costs[6] < costs[2]


class TestAnalysisOnLiveNetworks:
    def test_complexity_of_simulated_workload_matches_regime(self):
        trace = temporal_trace(64, 8_000, 0.75, 13)
        report = complexity_report(trace)
        assert report.locality == pytest.approx(0.75, abs=0.08)
        # and the SAN indeed beats the static tree in this regime
        san = simulate(KArySplayNet(64, 2), trace)
        static = simulate(StaticTreeNetwork(build_complete_tree(64, 2)), trace)
        assert san.total_routing < static.total_routing

    def test_access_lemma_holds_after_mixture_warmup(self):
        # warm a network with a mixture trace, then audit accesses
        net = KArySplayNet(N, 3)
        trace = elephant_mice_trace(N, 1_000, seed=2)
        Simulator().run(net, trace)
        audits = audit_splaynet_accesses(net, [1, N // 2, N, 7, 23])
        assert all(a.holds for a in audits)

    def test_stretch_after_mixture_storm(self):
        net = KArySplayNet(N, 3)
        Simulator().run(net, shuffle_phase_trace(N, 2_000, seed=4))
        report = measure_stretch(net.tree, sample=200, seed=5)
        assert report.max_hops <= 2 * N
