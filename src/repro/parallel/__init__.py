"""Parallel experiment execution substrate.

The paper's evaluation sweeps a grid of (workload, algorithm, k) cells, each
an independent trace-driven simulation.  A campaign is a list of
:class:`~repro.scenarios.spec.ScenarioSpec` cells run by
:func:`repro.scenarios.run_specs`; this package is what that runner stands
on, with three guarantees that matter for reproducible HPC-style
experiment harnesses:

1. **Determinism** — results are bit-identical regardless of the number of
   worker processes or scheduling order.  Outputs are reassembled in
   submission order, and :mod:`repro.parallel.seeds` derives independent
   per-cell seeds from a root seed through a stable hash.
2. **Parameters travel, data does not** — workers receive small picklable
   specs and regenerate traces locally from seeds rather than receiving
   multi-megabyte arrays through the pipe (:mod:`repro.parallel.tasks`).
3. **Graceful degradation** — ``jobs=1`` (the default) executes serially in
   the calling process through the same executor
   (:func:`~repro.parallel.pool.parallel_map_outcomes`), so the parallel
   path never becomes the only tested path.

Typical use::

    from repro.scenarios import ScenarioSpec, run_specs

    specs = [ScenarioSpec("hpc", 128, 8_000, 7, "kary-splaynet", k=k)
             for k in (2, 3, 4)]
    results = run_specs(specs, jobs=4)
"""

from repro.parallel.pool import ParallelConfig, cpu_jobs, parallel_map, parallel_starmap
from repro.parallel.seeds import derive_seed, spawn_seeds, seed_for_cell
from repro.parallel.tasks import (
    clear_trace_cache,
    materialize_trace,
    materialize_trace_cached,
    run_simulation_task,
    trace_cache_stats,
)

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "parallel_starmap",
    "cpu_jobs",
    "derive_seed",
    "spawn_seeds",
    "seed_for_cell",
    "run_simulation_task",
    "materialize_trace",
    "materialize_trace_cached",
    "clear_trace_cache",
    "trace_cache_stats",
]
