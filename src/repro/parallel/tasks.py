"""Worker-side execution of one trace-driven campaign cell.

Every function here is module-level, so it pickles under any
multiprocessing start method.  :func:`run_simulation_task` takes the
cell's :class:`~repro.scenarios.spec.ScenarioSpec` and *regenerates* the
workload inside the worker from ``(workload, n, m, seed)`` — shipping four
scalars instead of a million-row trace array keeps IPC negligible and
makes cells independent of parent-process state.  Regenerated traces are
memoized per worker process (see :func:`materialize_trace_cached`), so the
up-to-27 cells of one paper table materialize their shared trace once per
worker rather than once per cell.

Supported algorithm names are whatever the network construction registry
(:mod:`repro.net.registry`) knows: the built-ins (``kary-splaynet``,
``centroid-splaynet``, ``splaynet``, ``lazy``, ``full-tree``,
``centroid-tree``, ``optimal-tree``, ``optimal-bst``) plus anything added
via :func:`repro.net.register_network` — a registered algorithm is
immediately runnable as a campaign cell, no table edits here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ExperimentError
from repro.net.registry import build_network, require_algorithm
from repro.net.spec import NetworkSpec
from repro.network.simulator import Simulator
from repro.workloads.datacenter import facebook_trace, hpc_trace, projector_trace
from repro.workloads.demand import DemandMatrix
from repro.workloads.synthetic import (
    permutation_trace,
    temporal_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import Trace

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "run_simulation_task",
    "materialize_trace",
    "materialize_trace_cached",
    "materialize_demand_cached",
    "clear_trace_cache",
    "trace_cache_stats",
]


def materialize_trace(workload: str, n: int, m: int, seed: int) -> Trace:
    """Regenerate a workload trace inside a worker process.

    Mirrors :func:`repro.experiments.presets.make_workload` but is driven by
    explicit ``(n, m, seed)`` so tasks stay self-contained.
    """
    if workload == "uniform":
        return uniform_trace(n, m, seed)
    if workload == "hpc":
        return hpc_trace(n, m, seed)
    if workload == "projector":
        return projector_trace(n, m, seed)
    if workload == "facebook":
        return facebook_trace(n, m, seed)
    if workload == "permutation":
        return permutation_trace(n, m, seed)
    if workload.startswith("temporal-"):
        return temporal_trace(n, m, float(workload.split("-", 1)[1]), seed)
    if workload.startswith("zipf-"):
        return zipf_trace(n, m, alpha=float(workload.split("-", 1)[1]), seed=seed)
    raise ExperimentError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# per-worker trace memoization
# ----------------------------------------------------------------------
#: (workload, n, m, seed) → materialized trace, per process.  A paper table
#: fans out up to 27 cells over the *same* trace; without this cache every
#: cell regenerates it from scratch.
_TRACE_CACHE: dict[tuple[str, int, int, int], Trace] = {}
#: Same keys → the trace's demand matrix, shared by the static-optimum
#: cells of a table row (the DP subsystem's "dense demand computed once
#: per (workload, n, seed)" input; see repro.optimal.context for the
#: derived inputs shared below this layer).
_DEMAND_CACHE: dict[tuple[str, int, int, int], DemandMatrix] = {}
#: Keys pre-seeded with caller-provided traces (never auto-evicted: for
#: those, regeneration from coordinates would produce a *different* trace).
_PINNED_KEYS: set[tuple[str, int, int, int]] = set()
#: Bound on distinct auto-cached traces (a full reproduction touches 8
#: workloads; paper scale is ~8 MB per million-request trace).
_TRACE_CACHE_MAX = 16
_trace_cache_hits = 0
_trace_cache_misses = 0


def materialize_trace_cached(workload: str, n: int, m: int, seed: int) -> Trace:
    """Memoized :func:`materialize_trace` (per-process, bounded).

    Traces are immutable once generated, so sharing one instance across
    cells is safe; when the memo would exceed :data:`_TRACE_CACHE_MAX`
    distinct traces the auto-generated entries are dropped — pinned
    entries (:func:`seed_trace_cache`) always survive.
    """
    global _trace_cache_hits, _trace_cache_misses
    key = (workload, n, m, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        _trace_cache_misses += 1
        if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            for stale in [k for k in _TRACE_CACHE if k not in _PINNED_KEYS]:
                del _TRACE_CACHE[stale]
        trace = materialize_trace(workload, n, m, seed)
        _TRACE_CACHE[key] = trace
    else:
        _trace_cache_hits += 1
    return trace


def seed_trace_cache(trace: Trace, workload: str, seed: int) -> tuple[str, int, int, int]:
    """Pre-seed (and pin) the memo with an explicit trace; returns the key.

    Used by :func:`repro.scenarios.run_specs` when a caller hands it a
    pre-built trace instead of workload coordinates.  Pinned entries are
    exempt from eviction until :func:`evict_trace` / :func:`clear_trace_cache`.
    """
    key = (workload, trace.n, trace.m, seed)
    _TRACE_CACHE[key] = trace
    # A demand counted from a previously *generated* trace under these
    # coordinates no longer describes the pinned trace — drop it, or the
    # static-optimum cells would build from the wrong workload.
    _DEMAND_CACHE.pop(key, None)
    _PINNED_KEYS.add(key)
    return key


def evict_trace(key: tuple[str, int, int, int]) -> None:
    """Drop one cache entry (undo of :func:`seed_trace_cache`)."""
    _TRACE_CACHE.pop(key, None)
    _DEMAND_CACHE.pop(key, None)
    _PINNED_KEYS.discard(key)


def clear_trace_cache() -> None:
    """Empty the per-process trace/demand memos and reset the counters."""
    global _trace_cache_hits, _trace_cache_misses
    _TRACE_CACHE.clear()
    _DEMAND_CACHE.clear()
    _PINNED_KEYS.clear()
    _trace_cache_hits = 0
    _trace_cache_misses = 0


def materialize_demand_cached(trace: Trace, spec: "ScenarioSpec") -> DemandMatrix:
    """The demand matrix of a cell's trace, memoized per process.

    Keyed by ``spec.trace_key()`` (the same key as the trace memo, and
    evicted alongside it), so the up-to-9 static-optimum cells of a
    table row count their shared trace into a matrix once.
    """
    key = spec.trace_key()
    demand = _DEMAND_CACHE.get(key)
    if demand is None:
        if len(_DEMAND_CACHE) >= _TRACE_CACHE_MAX:
            for stale in [k for k in _DEMAND_CACHE if k not in _PINNED_KEYS]:
                del _DEMAND_CACHE[stale]
        demand = DemandMatrix.from_trace(trace)
        _DEMAND_CACHE[key] = demand
    return demand


def trace_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of this process's trace memo (for tests)."""
    return {
        "hits": _trace_cache_hits,
        "misses": _trace_cache_misses,
        "size": len(_TRACE_CACHE),
    }


# ----------------------------------------------------------------------
# the cell runner
# ----------------------------------------------------------------------
def run_simulation_task(spec: "ScenarioSpec") -> tuple[int, int, int]:
    """Execute one trace-driven cell; ``(routing, rotations, links)``.

    The trace is regenerated (memoized) from the spec's coordinates and
    the network is built through :func:`repro.net.build_network` on
    ``spec.resolved_engine()``, so ``engine=None`` runs on the flat
    engine.  Static baselines are costed through their precomputed
    distance oracle in one vectorized ``serve_trace`` query (no
    simulation loop); online algorithms run the full trace through the
    simulator.  Demand-aware constructions receive the per-process
    memoized demand matrix (:func:`materialize_demand_cached`), so an
    arity sweep over one workload counts its trace into a matrix once.
    """
    entry = require_algorithm(spec.algorithm)
    trace = materialize_trace_cached(*spec.trace_key())
    network_spec = NetworkSpec(
        algorithm=spec.algorithm,
        n=spec.n,
        k=spec.k,
        engine=spec.resolved_engine(),
        initial=spec.initial,
        params=spec.params,
    )
    if entry.kind == "static":
        demand = (
            materialize_demand_cached(trace, spec) if entry.needs_demand else None
        )
        network = build_network(network_spec, demand=demand)
        cost = network.serve_trace(trace.sources, trace.targets).total_routing
        return int(cost), 0, 0
    run = Simulator().run(build_network(network_spec), trace)
    return run.total_routing, run.total_rotations, run.total_links_changed
