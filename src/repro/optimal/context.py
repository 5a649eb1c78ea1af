"""Shared demand-derived inputs of the optimal-tree DP (the DP subsystem).

A paper table row runs the Theorem 2 DP once per arity on the *same*
demand: the dense demand matrix and the boundary-crossing matrix ``W``
(Claim 16) are identical across those runs.  :class:`DemandContext`
bundles them so they are computed once per demand and shared across every
arity, and :func:`demand_context` memoizes contexts per process keyed on
the demand's content, so independent scenario cells over the same
workload share automatically.  A context is immutable once built (``W``
is a read-only array), so sharing it can never make one run depend on
another.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import OptimizationError
from repro.optimal.wmatrix import boundary_crossing_matrix
from repro.workloads.demand import DemandMatrix

__all__ = [
    "DemandContext",
    "demand_context",
    "clear_context_cache",
    "context_cache_stats",
]

#: Sentinel "infinity" for the exact int64 DP tables.  Chosen so that the
#: sum of two sentinels (the largest sum the forward pass ever forms)
#: stays far below 2^63 and any finite cost stays far below one sentinel.
INT_INF = np.int64(1) << np.int64(61)

#: Finite DP values are bounded by 2 * n * total_demand (at most ``n``
#: disjoint part segments, each crossed by at most twice the total
#: traffic); demands whose bound reaches this threshold are rejected
#: rather than silently overflowing the exact int64 tables.
_EXACT_LIMIT = 1 << 60


def check_kernel_buffer(a: np.ndarray, shape: tuple[int, ...]) -> None:
    """Refuse a DP table or ``W`` the native kernel would misread."""
    if a.shape != shape or a.dtype != np.int64 or not a.flags.c_contiguous:
        raise OptimizationError(
            f"native DP needs a C-contiguous int64 {shape} table, got "
            f"{a.dtype} {a.shape}"
        )


def _as_dense_int64(demand) -> np.ndarray:
    """Validate a demand input and return it as a dense int64 array."""
    if isinstance(demand, DemandMatrix):
        d = demand.dense()
    else:
        d = np.asarray(demand)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise OptimizationError(f"demand must be square, got shape {d.shape}")
    if d.dtype.kind == "f":
        if not np.all(np.isfinite(d)) or np.any(d != np.floor(d)):
            raise OptimizationError(
                "demand must hold integral request counts; got non-integral "
                "float entries (the DP accumulates exact int64 costs)"
            )
        d = d.astype(np.int64)
    elif d.dtype != np.int64:
        d = d.astype(np.int64)
    if np.any(d < 0):
        raise OptimizationError("demand counts must be non-negative")
    return d


def _exact_total(dense: np.ndarray) -> int:
    """``dense.sum()`` without int64 wraparound.

    The magnitude guard must not be defeated by the very overflow it
    exists to reject: when entries are large enough that an int64
    accumulator could wrap (sum bound ``n² · max`` past 2^62), fall back
    to arbitrary-precision Python ints.
    """
    n = dense.shape[0]
    if n == 0:
        return 0
    max_entry = int(dense.max())
    if max_entry and max_entry > (1 << 62) // (n * n):
        return int(sum(int(v) for v in dense.ravel()))
    return int(dense.sum())


class DemandContext:
    """Everything the Theorem 2 forward pass derives from one demand.

    Holds the dense int64 demand and the boundary-crossing matrix ``W``
    (C-contiguous int64, read-only: the native DP reads it in place).
    Build one per demand (directly or via the memoized
    :func:`demand_context`) and pass it to ``optimal_static_cost_table`` /
    ``optimal_static_tree`` for every arity in a sweep.
    """

    __slots__ = ("dense", "w", "total")

    def __init__(self, dense: np.ndarray, w: np.ndarray) -> None:
        self.dense = dense
        # A view: marking it read-only leaves a caller's array writable.
        self.w = np.ascontiguousarray(w, dtype=np.int64).view()
        self.w.setflags(write=False)
        self.total = _exact_total(dense)
        n = dense.shape[0]
        check_kernel_buffer(self.w, (n + 1, n + 1))
        if 2 * n * self.total >= _EXACT_LIMIT:
            raise OptimizationError(
                f"demand too large for the exact int64 DP: bound "
                f"2*{n}*{self.total} exceeds 2^60"
            )

    @classmethod
    def from_demand(cls, demand) -> "DemandContext":
        dense = _as_dense_int64(demand)
        return cls(dense, boundary_crossing_matrix(dense))

    @property
    def n(self) -> int:
        return self.dense.shape[0]


# ----------------------------------------------------------------------
# per-process context memoization
# ----------------------------------------------------------------------
#: content-fingerprint -> context.  A table row's up-to-9 optimal-tree
#: cells all derive from one demand; without this memo each cell rebuilds
#: W.
_CONTEXT_CACHE: dict[str, DemandContext] = {}
#: Contexts are O(n²) ints apiece; a reproduction touches a handful of
#: distinct demands per process.
_CONTEXT_CACHE_MAX = 4
_context_hits = 0
_context_misses = 0


def _fingerprint(dense: np.ndarray) -> str:
    digest = hashlib.sha1(np.ascontiguousarray(dense).tobytes()).hexdigest()
    return f"{dense.shape[0]}:{digest}"


def demand_context(demand) -> DemandContext:
    """Memoized :meth:`DemandContext.from_demand` (per-process, bounded).

    Keyed on the demand's *content*, so every caller computing on the
    same matrix — successive arities of a table row, independent scenario
    cells, direct API use — shares one context.
    """
    global _context_hits, _context_misses
    dense = _as_dense_int64(demand)
    key = _fingerprint(dense)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        _context_misses += 1
        if len(_CONTEXT_CACHE) >= _CONTEXT_CACHE_MAX:
            _CONTEXT_CACHE.clear()
        ctx = DemandContext(dense, boundary_crossing_matrix(dense))
        _CONTEXT_CACHE[key] = ctx
    else:
        _context_hits += 1
    return ctx


def clear_context_cache() -> None:
    """Empty the per-process context memo and reset its counters."""
    global _context_hits, _context_misses
    _CONTEXT_CACHE.clear()
    _context_hits = 0
    _context_misses = 0


def context_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of this process's context memo (for tests)."""
    return {
        "hits": _context_hits,
        "misses": _context_misses,
        "size": len(_CONTEXT_CACHE),
    }
