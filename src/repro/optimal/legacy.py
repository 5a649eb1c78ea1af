"""The pre-subsystem float64 forward pass, kept as a regression oracle.

This is the optimal-tree DP exactly as it shipped before the DP subsystem
(:mod:`repro.optimal.context` + the int64 forward pass in
:mod:`repro.optimal.general`): float64 tables, one NumPy dispatch per
``(length, s)`` pair, no input sharing across arities.  It is retained as
an **equivalence oracle**: fast enough at medium ``n`` (where the pure
Python transcription in :mod:`repro.optimal.reference` is not) to pin the
rewritten forward pass against the historical one in tests.

Do not use it for new work: it drifts from exact integers once costs pass
2^53 and recomputes the boundary-crossing matrix per call.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import OptimizationError
from repro.optimal.wmatrix import boundary_crossing_matrix
from repro.workloads.demand import DemandMatrix

__all__ = ["legacy_forward", "legacy_optimal_cost_table"]


def _dense_demand(demand) -> np.ndarray:
    if isinstance(demand, DemandMatrix):
        return demand.dense()
    d = np.asarray(demand)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise OptimizationError(f"demand must be square, got shape {d.shape}")
    return d


def legacy_forward(dense: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The historical float64 DP forward pass; returns ``(B, W)``."""
    n = dense.shape[0]
    if k < 2:
        raise OptimizationError(f"arity k must be >= 2, got {k}")
    w = boundary_crossing_matrix(dense).astype(np.float64)
    inf = np.inf
    b = np.full((k + 1, n + 2, n + 1), inf)
    b[1:, :, 0] = 0.0
    t_table = b[1]  # alias: single-tree costs
    a0, a1 = b[2].strides  # strides of one (n+2, n+1) slice
    for length in range(1, n + 1):
        m = n - length + 1
        best = np.full(m, inf)
        for s in range(length):
            left = b[1:k, 0:m, s] if k > 2 else b[1:2, 0:m, s]
            right = b[k - 1 : 0 : -1, s + 1 : s + 1 + m, length - 1 - s]
            cand = (left + right).min(axis=0)
            np.minimum(best, cand, out=best)
        b[1, 0:m, length] = best + w[0:m, length]
        if length >= 2:
            tview = as_strided(
                t_table[:, 1:],
                shape=(length - 1, m),
                strides=(t_table.strides[1], t_table.strides[0]),
            )
            for t in range(2, k + 1):
                prev = b[t - 1]
                bview = as_strided(
                    prev[1:, length - 1 :],
                    shape=(length - 1, m),
                    strides=(a0 - a1, a0),
                )
                cand = (tview + bview).min(axis=0)
                b[t, 0:m, length] = np.minimum(b[t - 1, 0:m, length], cand)
        else:
            for t in range(2, k + 1):
                b[t, 0:m, length] = b[t - 1, 0:m, length]
    return b, w


def legacy_optimal_cost_table(demand, k: int) -> float:
    """The historical cost-only entry point (float64, no sharing)."""
    dense = _dense_demand(demand)
    b, _ = legacy_forward(dense, k)
    return float(b[1, 0, dense.shape[0]])
