"""Theorem 2: the optimal static routing-based k-ary search tree network.

Dynamic programming over identifier segments, exactly as in Appendix A.1:

* ``B[t, i, L]`` — minimum cost of covering the segment of length ``L``
  starting at 0-based position ``i`` with **at most** ``t`` routing-based
  k-ary search trees (the paper's ``dp2``), where each tree's cost includes
  the crossing traffic ``W`` of its own segment (the potential of its
  root-to-parent edge).
* A single tree (``t = 1``) chooses a root ``r = i + s`` whose identifier
  joins the routing array, ``dl`` child trees on ``[i, r)`` and ``k - dl``
  on ``(r, i+L)`` — the routing-based constraint ``dl + dr <= k``.

The forward pass is exact int64 (a ``2^61`` sentinel plays infinity;
:mod:`repro.optimal.context` rejects demands whose costs could reach it).
The table is stored *length-major*, ``b[t, L, i] = B[t, i, L]``: for a
fixed length every operand of the two inner reductions is then a row
contiguous in the start ``i``.  When the native kernel loads
(:func:`repro.core._native.load_kernel`), ``repro_dp_general`` fills the
table in place with the add, the min and the running min over root
splits fused into one pass per operand row.  Otherwise (no C toolchain,
``REPRO_NATIVE=0``) :func:`_forward_numpy` fills the same table with
O(n·k) NumPy dispatches over 2-D views; it is also the reference the
kernel is tested against.  Both keep the paper's O(n³k) arithmetic.
Demand-derived inputs (the dense demand and the boundary-crossing matrix)
live in an immutable :class:`~repro.optimal.context.DemandContext` shared
across every arity of a sweep.  Reconstruction reads the table through a
transposed view, indexed ``B[t, i, L]``, and re-derives the argmins on the
O(n) visited segments only, with exact integer equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core import _native
from repro.core.keyspace import pad_values
from repro.core.node import KAryNode
from repro.core.tree import KAryTreeNetwork
from repro.errors import OptimizationError
from repro.optimal.context import (
    INT_INF,
    DemandContext,
    check_kernel_buffer,
    demand_context,
)

__all__ = ["OptimalTreeResult", "optimal_static_cost_table", "optimal_static_tree"]


@dataclass(frozen=True)
class OptimalTreeResult:
    """An optimal routing-based tree and its total distance."""

    tree: KAryTreeNetwork
    cost: int

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def k(self) -> int:
        return self.tree.k


def _resolve_context(demand, context: Optional[DemandContext]) -> DemandContext:
    """The context to run on; guards explicit contexts against misuse.

    An explicit ``context`` must have been built from this ``demand`` —
    the tables inside it fully determine the answer.  A full content
    comparison would defeat the sharing, so the guard is the cheap
    invariant: matching dimension.
    """
    if context is None:
        return demand_context(demand)
    from repro.workloads.demand import DemandMatrix

    n = (
        demand.n
        if isinstance(demand, DemandMatrix)
        else np.asarray(demand).shape[0]
    )
    if context.n != n:
        raise OptimizationError(
            f"context was built for n={context.n} but the demand covers "
            f"n={n} nodes; pass the context built from this demand"
        )
    return context


def _new_table(n: int, k: int) -> np.ndarray:
    """A zeroed length-major table, ``b[t, L, i] = B[t, i, L]`` for ``t < k``.

    The forward pass writes every entry it later reads: rows ``L >= 1`` of
    planes ``1 .. k - 1`` at the starts that fit (``i + L <= n``).  The
    empty segments (``L = 0``) keep their cost 0.  Plane 0 is never read
    (it keeps ``b[t]`` indexed by ``t``), and ``B[k]`` is left out: a
    single tree spends at least one arity unit on each side, so no
    recurrence reads it.
    """
    return np.zeros((k, n + 1, n + 1), dtype=np.int64)


def _forward_numpy(b: np.ndarray, w: np.ndarray, k: int) -> None:
    """Fill the length-major table ``b`` (from :func:`_new_table`) in place.

    The reference for ``repro_dp_general``.  For each length the two inner
    reductions run over 2-D views whose rows are contiguous in ``i``: plain
    slices for the left operand, a diagonal of the ``(L, i)`` plane that
    ``as_strided`` exposes for the right one.
    """
    n = b.shape[1] - 1
    row, elem = b.strides[1:]  # one length row, one start
    diagonal = (elem - row, elem)  # s -> one row shorter, one start later
    best = np.empty(n, dtype=np.int64)
    sbuf = np.empty((n, n), dtype=np.int64)
    for length in range(1, n + 1):
        m = n - length + 1
        acc = best[:m]
        acc.fill(INT_INF)
        out = sbuf[:length, :m]
        for dl in range(1, k):  # dl left trees, k - dl right
            # left[s, i] = B[dl, i, s]: the left forest on [i, i + s)
            left = b[dl, :length, :m]
            # right[s, i] = B[k - dl, i + s + 1, length - 1 - s]
            right = as_strided(
                b[k - dl, length - 1, 1:], shape=(length, m), strides=diagonal
            )
            np.add(left, right, out=out)
            np.minimum(acc, out.min(axis=0), out=acc)
        np.add(acc, w[:m, length], out=b[1, length, :m])
        if length == 1:
            b[2:, 1, :m] = b[1, 1, :m]
            continue
        # head[s - 1, i] = B[1, i, s]: a first tree of length s ...
        head = b[1, 1:length, :m]
        fout = sbuf[: length - 1, :m]
        for t in range(2, k):
            # ... rest[s - 1, i] = B[t - 1, i + s, length - s] on the rest
            rest = as_strided(
                b[t - 1, length - 1, 1:],
                shape=(length - 1, m),
                strides=diagonal,
            )
            np.add(head, rest, out=fout)
            np.minimum(
                b[t - 1, length, :m], fout.min(axis=0), out=b[t, length, :m]
            )


def _forward_native(kernel, b: np.ndarray, w: np.ndarray, k: int) -> None:
    """Fill ``b`` in place with the kernel's ``repro_dp_general``."""
    n = b.shape[1] - 1
    check_kernel_buffer(b, (k, n + 1, n + 1))
    check_kernel_buffer(w, (n + 1, n + 1))
    if kernel.repro_dp_general(b.ctypes.data, w.ctypes.data, n, k, int(INT_INF)):
        raise MemoryError("repro_dp_general could not allocate its scratch row")


def _forward(ctx: DemandContext, k: int) -> np.ndarray:
    """Run the DP forward pass on a context; returns ``B`` indexed ``[t, i, L]``.

    The table is stored length-major; the returned array is a transposed
    view of it, so reconstruction indexes ``B[t, i, L]`` as the paper does.
    """
    if k < 2:
        raise OptimizationError(f"arity k must be >= 2, got {k}")
    b = _new_table(ctx.n, k)
    kernel = _native.load_kernel()
    if kernel is None:
        _forward_numpy(b, ctx.w, k)
    else:
        _forward_native(kernel, b, ctx.w, k)
    return b.transpose(0, 2, 1)


def optimal_static_cost_table(
    demand, k: int, *, context: Optional[DemandContext] = None
) -> int:
    """Only the optimal total distance (no tree reconstruction).

    ``context`` pins an explicit :class:`DemandContext` **built from this
    demand** (an arity sweep over one demand shares inputs through it);
    by default the per-process memoized context for this demand is used,
    so repeated calls across arities share automatically.
    """
    ctx = _resolve_context(demand, context)
    return int(_forward(ctx, k)[1, 0, ctx.n])


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _single_tree_choice(
    b: np.ndarray, w: np.ndarray, i: int, length: int, k: int
) -> tuple[int, int]:
    """Recover ``(s, dl)`` attaining ``B[1, i, L]``."""
    best_val = int(INT_INF)
    best = (0, 1)
    for s in range(length):
        rest = length - 1 - s
        for dl in range(1, k):
            val = int(b[dl, i, s]) + int(b[k - dl, i + s + 1, rest])
            if val < best_val:
                best_val = val
                best = (s, dl)
    target = int(b[1, i, length]) - int(w[i, length])
    if best_val != target:
        raise OptimizationError(
            f"reconstruction mismatch at segment ({i}, {length}):"
            f" {best_val} != {target}"
        )
    return best


def _partition(
    b: np.ndarray, i: int, length: int, t: int
) -> list[tuple[int, int]]:
    """Split segment ``(i, L)`` into single-tree parts attaining ``B[t, i, L]``."""
    parts: list[tuple[int, int]] = []
    while length > 0:
        if t <= 1:
            parts.append((i, length))
            return parts
        if b[t, i, length] >= b[t - 1, i, length]:
            t -= 1
            continue
        t_table = b[1]
        best_val = int(INT_INF)
        best_s = length
        for s in range(1, length):
            val = int(t_table[i, s]) + int(b[t - 1, i + s, length - s])
            if val < best_val:
                best_val = val
                best_s = s
        if best_s == length:  # pragma: no cover - defensive
            raise OptimizationError("partition backtrack failed")
        parts.append((i, best_s))
        i += best_s
        length -= best_s
        t -= 1
    return parts


def _build_tree(
    b: np.ndarray, w: np.ndarray, i: int, length: int, k: int
) -> KAryNode:
    """Materialize the optimal single tree on segment ``(i, L)``.

    Routing arrays are routing-based: the root's identifier is itself a
    separator, flanked by half-integer boundaries between sibling parts and
    private dyadic pads (see :mod:`repro.core.keyspace`).
    """
    s, dl = _single_tree_choice(b, w, i, length, k)
    root_id = i + s + 1  # identifiers are 1-based
    left_parts = _partition(b, i, s, dl)
    right_parts = _partition(b, i + s + 1, length - 1 - s, k - dl)
    node = KAryNode(root_id, k)

    separators: list[float] = [float(root_id)]
    for parts in (left_parts, right_parts):
        for (pi, plen) in parts[1:]:
            separators.append(pi + 0.5)  # boundary below part start (1-based: pi+1 - 0.5)
    pad_needed = (k - 1) - len(separators)
    separators.extend(pad_values(root_id, pad_needed))
    separators.sort()
    node.routing = separators

    from bisect import bisect_left

    for (pi, plen) in left_parts + right_parts:
        child = _build_tree(b, w, pi, plen, k)
        slot = bisect_left(separators, pi + 1)
        node.attach_child(child, slot)
    node.recompute_range()
    return node


def optimal_static_tree(
    demand, k: int, *, context: Optional[DemandContext] = None
) -> OptimalTreeResult:
    """Theorem 2: optimal static routing-based k-ary search tree network.

    ``demand`` is a :class:`DemandMatrix` or a dense 0-indexed count array.
    Runs in O(n³k) arithmetic (in the native kernel when it loads, else in
    O(n·k) NumPy dispatches) and O(n²k) memory;
    ``context`` (default: the process-memoized one for this demand; an
    explicit one must be built from this demand) shares the
    demand-derived inputs across the arities of a sweep.
    """
    ctx = _resolve_context(demand, context)
    n = ctx.n
    if n < 1:
        raise OptimizationError("demand must cover at least one node")
    b = _forward(ctx, k)
    w = ctx.w
    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 100))
    try:
        root = _build_tree(b, w, 0, n, k)
    finally:
        sys.setrecursionlimit(old_limit)
    tree = KAryTreeNetwork(k, root, validate=True, routing_based=True)
    return OptimalTreeResult(tree=tree, cost=int(b[1, 0, n]))
