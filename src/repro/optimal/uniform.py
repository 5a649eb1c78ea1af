"""Theorem 4: the optimal static k-ary search tree for the uniform workload.

Lemma 19 shows segment costs depend only on segment *length* under uniform
demand, so the general DP loses a dimension and runs in O(n²k).  Because the
uniform workload lets us fix the structure first and distribute identifiers
afterwards (Section 3.2), the root split collapses further: a single tree of
length ``L`` is a root plus **any** partition of the remaining ``L - 1``
nodes into at most ``k`` subtrees, i.e. ``T[L] = W[L] + B[k, L-1]`` — the
resulting tree need not be routing-based, exactly as the paper remarks.

Costs are in *unordered-pair* units (the paper's upper-triangular all-ones
demand): each pair ``{u, v}`` contributes ``d(u, v)`` once.

The tables are exact int64 on both paths.  When the native kernel loads
(:func:`repro.core._native.load_kernel`) its ``repro_dp_uniform`` loop
fills them; otherwise (no C toolchain, ``REPRO_NATIVE=0``) the NumPy pass
:func:`_uniform_numpy` does, which is also the kernel's test reference.
The backtrack compares integers exactly, on the visited states only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import _native
from repro.core.builders import Partition, build_from_partitioner
from repro.core.tree import KAryTreeNetwork
from repro.errors import OptimizationError
from repro.optimal.context import INT_INF, check_kernel_buffer
from repro.optimal.wmatrix import uniform_boundary_crossing

__all__ = [
    "UniformOptimalResult",
    "optimal_uniform_cost",
    "optimal_uniform_table",
    "optimal_uniform_tree",
]


@dataclass(frozen=True)
class UniformOptimalResult:
    """An optimal uniform-workload tree and its total distance.

    ``cost`` is Σ_{u<v} d(u, v) — unordered pairs, the paper's convention.
    """

    tree: KAryTreeNetwork
    cost: int


def _new_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T, B)`` initialised: ``B`` infinite except empty forests (cost 0)."""
    t_cost = np.zeros(n + 1, dtype=np.int64)
    b = np.full((k + 1, n + 1), INT_INF, dtype=np.int64)
    b[1:, 0] = 0
    return t_cost, b


def _uniform_numpy(t_cost: np.ndarray, b: np.ndarray, w: np.ndarray, k: int) -> None:
    """Fill ``T`` and ``B`` in place: the reference for ``repro_dp_uniform``."""
    n = t_cost.shape[0] - 1
    for length in range(1, n + 1):
        t_cost[length] = w[length] + b[k, length - 1]
        b[1, length] = t_cost[length]
        for t in range(2, k + 1):
            cand = b[t - 1, length]
            if length >= 2:
                split = (t_cost[1:length] + b[t - 1, length - 1 : 0 : -1]).min()
                cand = min(cand, split)
            b[t, length] = cand


def _uniform_native(
    kernel, t_cost: np.ndarray, b: np.ndarray, w: np.ndarray, k: int
) -> None:
    """Fill ``T`` and ``B`` in place with the kernel's ``repro_dp_uniform``."""
    n = t_cost.shape[0] - 1
    for a, shape in ((t_cost, (n + 1,)), (b, (k + 1, n + 1)), (w, (n + 1,))):
        check_kernel_buffer(a, shape)
    kernel.repro_dp_uniform(
        t_cost.ctypes.data, b.ctypes.data, w.ctypes.data, n, k, int(INT_INF)
    )


def optimal_uniform_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward DP: returns ``(T, B)`` as exact int64 arrays.

    ``T[L]`` is the optimal cost of a single tree on ``L`` nodes (including
    its boundary-crossing term), ``B[t, L]`` the optimal cost of a forest of
    at most ``t`` trees on ``L`` nodes (``INT_INF`` where infeasible, i.e.
    ``t = 0`` and ``L > 0``).  The native kernel's ``repro_dp_uniform``
    fills both when it loads; :func:`_uniform_numpy` otherwise.
    """
    if n < 1:
        raise OptimizationError("need n >= 1")
    if k < 2:
        raise OptimizationError(f"arity k must be >= 2, got {k}")
    w = uniform_boundary_crossing(n)
    t_cost, b = _new_tables(n, k)
    kernel = _native.load_kernel()
    if kernel is None:
        _uniform_numpy(t_cost, b, w, k)
    else:
        _uniform_native(kernel, t_cost, b, w, k)
    return t_cost, b


def optimal_uniform_cost(n: int, k: int) -> int:
    """Optimal Σ_{u<v} d(u, v) over k-ary search trees on ``n`` nodes."""
    t_cost, _ = optimal_uniform_table(n, k)
    return int(t_cost[n])


def _forest_sizes(
    t_cost: np.ndarray, b: np.ndarray, length: int, t: int
) -> tuple[int, ...]:
    """Part sizes of an optimal ≤t-tree forest on ``length`` nodes.

    Walks the visited states only; each one re-derives its first
    minimizing split with exact integer equality.
    """
    parts: list[int] = []
    while length > 0:
        if t <= 1:
            parts.append(length)
            break
        if b[t, length] == b[t - 1, length]:
            t -= 1
            continue
        splits = t_cost[1:length] + b[t - 1, length - 1 : 0 : -1]
        hits = np.flatnonzero(splits == b[t, length])
        if not hits.size:  # pragma: no cover - defensive
            raise OptimizationError(
                f"uniform DP backtrack failed at length {length}, t {t}"
            )
        s = int(hits[0]) + 1
        parts.append(s)
        length -= s
        t -= 1
    return tuple(parts)


def optimal_uniform_tree(n: int, k: int) -> UniformOptimalResult:
    """Materialize an optimal tree by backtracking the O(n²k) DP."""
    t_cost, b = optimal_uniform_table(n, k)
    # Subtrees of equal size share one partition.  A plain dict, not a
    # recursive lru_cache closure: that closure references itself, so the
    # cycle would hold the memo until the cyclic collector runs.
    memo: dict[int, tuple[int, ...]] = {}

    def partitioner(size: int) -> Partition:
        if size == 1:
            return 0, ()
        parts = memo.get(size)
        if parts is None:
            parts = memo[size] = _forest_sizes(t_cost, b, size - 1, k)
        return 0, parts

    tree = build_from_partitioner(n, k, partitioner, validate=True)
    return UniformOptimalResult(tree=tree, cost=int(t_cost[n]))
