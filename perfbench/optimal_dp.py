"""Workload ``optimal-dp``: the offline optimal-tree DPs.

General DP: ``optimal_static_tree`` for k = 2..10 on the ``hpc`` demand at
the paper's Table 1 size (n = 500, m = 10^6), every arity sharing one
``DemandContext``.  Uniform DP: ``optimal_uniform_tree(4000, k)`` for
k = 2..10, sized so the O(n^2 k) path does seconds of work.
"""

from __future__ import annotations

import os
import resource
import time

from repro.analysis.distance import (
    total_demand_distance,
    total_distance_via_potentials,
)
from repro.optimal import general, uniform
from repro.optimal.context import DemandContext
from repro.workloads.datacenter import hpc_trace
from repro.workloads.demand import DemandMatrix

from common import LayerTimer, Phases, environment, median, status_kb

HPC_N = 500
HPC_M = 1_000_000
UNIFORM_N = 4000
ARITIES = tuple(range(2, 11))
SETUP_REPS = 5


def _sweep(demand, context):
    """One arity sweep of each DP.

    Returns both result lists, the wall seconds of each sweep and the CPU
    seconds of both.
    """
    cpu_start = time.process_time()
    start = time.perf_counter()
    general_runs = [
        general.optimal_static_tree(demand, k, context=context)
        for k in ARITIES
    ]
    general_s = time.perf_counter() - start
    start = time.perf_counter()
    uniform_runs = [uniform.optimal_uniform_tree(UNIFORM_N, k) for k in ARITIES]
    uniform_s = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    return general_runs, uniform_runs, general_s, uniform_s, cpu


def _setup(trace):
    """Build the demand matrix and a fresh ``DemandContext`` (timed)."""
    start = time.perf_counter()
    demand = DemandMatrix.from_trace(trace)
    context = DemandContext.from_demand(demand)
    return demand, context, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    phases = Phases()
    hpc = hpc_trace(HPC_N, HPC_M, seed)

    # Each sweep needs its own context: the context carries a cross-arity
    # reuse slot that a finished sweep has already filled.
    builds = [_setup(hpc) for _ in range(SETUP_REPS)]
    setup_s = median([elapsed for _, _, elapsed in builds])
    demand = builds[0][0]
    contexts = [context for _, context, _ in builds]

    def fresh_context():
        return contexts.pop() if contexts else _setup(hpc)[1]

    def exact(general_runs, uniform_runs) -> dict:
        # Every DP cost is re-derived from its tree by an independent
        # evaluator.  Checked on the first sweep only, and the trees are
        # then dropped, so peak memory does not depend on the sweep count.
        return {
            "general_cost_is_tree_distance": all(
                total_demand_distance(run.tree, demand) == run.cost
                for run in general_runs
            ),
            "uniform_cost_is_tree_distance": all(
                total_distance_via_potentials(run.tree) // 2 == run.cost
                for run in uniform_runs
            ),
        }

    def costs(general_runs, uniform_runs) -> list:
        return [[r.cost for r in general_runs], [r.cost for r in uniform_runs]]

    rss_before_kb = status_kb(os.getpid(), "VmRSS")
    sweeps = []  # (costs, general seconds, uniform seconds, CPU seconds)
    checks = {}
    started = time.perf_counter()
    while not sweeps or (not trace and time.perf_counter() - started < seconds):
        general_runs, uniform_runs, general_s, uniform_s, cpu = _sweep(
            demand, fresh_context()
        )
        phases.record("timed", 2 * len(ARITIES), 0)
        if not checks:
            checks = exact(general_runs, uniform_runs)
        sweeps.append(
            (costs(general_runs, uniform_runs), general_s, uniform_s, cpu)
        )
        del general_runs, uniform_runs
    rss_growth_mb = (status_kb(os.getpid(), "VmHWM") - rss_before_kb) / 1024

    layer = {}
    all_costs = [sweep[0] for sweep in sweeps]
    if trace:
        timer = LayerTimer()
        with timer.wrap(
            DemandMatrix, "from_trace", "optimal.demand_s"
        ), timer.wrap(
            DemandContext, "from_demand", "optimal.context_s"
        ), timer.wrap(
            general,
            "optimal_static_tree",
            lambda demand, k, **_: f"optimal.general_s.k{k}",
        ), timer.wrap(
            uniform,
            "optimal_uniform_tree",
            lambda n, k: f"optimal.uniform_s.k{k}",
        ):
            _, context, _ = _setup(hpc)
            general_runs, uniform_runs, _, _, cpu = _sweep(demand, context)
        phases.record("traced", 2 * len(ARITIES), 0)
        all_costs.append(costs(general_runs, uniform_runs))
        layer = dict(timer.seconds)
        layer["optimal.rss_growth_mb"] = rss_growth_mb
        layer["trace.overhead_frac"] = cpu / sweeps[0][3] - 1.0
    checks["sweeps_agree"] = all(c == all_costs[0] for c in all_costs)

    general_times = [sweep[1] for sweep in sweeps]
    uniform_times = [sweep[2] for sweep in sweeps]
    cpu_s = median([sweep[3] for sweep in sweeps])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "dp_general_s": (median(general_times), "s", len(general_times)),
        "dp_uniform_s": (median(uniform_times), "s", len(uniform_times)),
        "cpu_s": (cpu_s, "s", len(sweeps)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "fail_frac": (phases.failed / phases.sent, "ratio", phases.sent),
    }
    return dict(
        env=env,
        phases=phases,
        report=report,
        checks=checks,
        e2e={"setup_s": setup_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb},
        layer=layer,
    )
