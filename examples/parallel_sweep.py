#!/usr/bin/env python
"""Parallel parameter sweep: arity × workload over worker processes.

Sweeps the k-ary SplayNet's routing cost over a (k, workload) grid.  The
grid is a plain list of ``ScenarioSpec`` cells run by ``run_specs`` — the
same runner behind the paper's tables — so every cell regenerates its trace
inside the worker and results are bit-identical for any job count.  Each
workload gets one seed derived from a root seed, so all arities of a
workload serve the same trace.  Prints the paper's central finding: routing
cost falls as k grows, on every workload.

Run:  python examples/parallel_sweep.py [jobs]     (default: cores - 1)
"""

import sys

from repro import bar_chart
from repro.parallel import cpu_jobs, seed_for_cell
from repro.scenarios import ScenarioSpec, run_specs

N = 128
M = 8_000
WORKLOADS = ("uniform", "temporal-0.5", "temporal-0.9", "hpc")
KS = (2, 3, 4, 6, 8)
ROOT_SEED = 2024


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else cpu_jobs()
    specs = [
        ScenarioSpec(
            workload=workload,
            n=N,
            m=M,
            seed=seed_for_cell(ROOT_SEED, {"workload": workload}),
            algorithm="kary-splaynet",
            k=k,
        )
        for workload in WORKLOADS
        for k in KS
    ]
    print(f"sweeping {len(specs)} cells over {jobs} worker process(es)...")
    results = run_specs(specs, jobs=jobs, cache=False)

    for workload in WORKLOADS:
        costs = {
            r.spec.k: r.average_routing
            for r in results
            if r.spec.workload == workload
        }
        print(f"\n{workload}: average routing cost by arity")
        print(bar_chart([(f"k={k}", round(cost, 3)) for k, cost in costs.items()]))
        top = max(KS)
        trend = "falls" if costs[top] < costs[2] else "does NOT fall"
        print(f"  → cost {trend} with k "
              f"({costs[2]:.2f} at k=2 → {costs[top]:.2f} at k={top})")


if __name__ == "__main__":
    main()
