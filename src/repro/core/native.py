"""The compiled tree engine: :class:`NativeTree` behind ``engine="native"``.

``NativeTree`` is a :class:`~repro.core.flat.FlatTree` whose serve paths
run in the C kernel of :mod:`repro.core._native` — and, since ABI v2,
whose authoritative state lives in a **resident kernel handle** between
calls.  The state protocol:

* The first kernel serve allocates a handle (``repro_tree_create``) and
  loads the list-backed flat state into it once (``repro_tree_load``).
  While the handle is *resident*, batches (``repro_tree_serve_batch``)
  and single requests (``repro_tree_serve_one``) run against the
  C-owned buffers with zero per-call marshalling — the scalar path costs
  one ctypes call, not an O(n·k) pack/unpack round trip.
* Any consumer of the Python list state — snapshot/copy, signature,
  ``to_tree``, validation, LCA/depth queries, the Python-side rotation
  entry points, cross-engine transfer via :meth:`FlatTree.from_flat` —
  triggers :meth:`_sync_lists` first: one ``repro_tree_sync_out`` copies
  the resident buffers back into the lists (in place, so long-lived
  aliases stay valid) and clears the resident flag.  The next kernel
  serve reloads the handle.  This is the dirty-flag sync the equivalence
  and snapshot suites pin down.

Unsupported configurations (deep-splay ``depth != 2``, arity beyond the
kernel's static scratch, a kernel that failed to load after construction)
sync and delegate to the inherited pure-Python path, which is
structurally identical by the engine-equivalence contract.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core import _native
from repro.core.flat import FlatTree
from repro.core.rotations import BLOCK_POLICIES
from repro.errors import EngineError, RotationError

__all__ = ["NativeTree"]

#: Block-policy encoding shared with kernel.c.
_POLICY_CODES = {"center": 0, "left": 1, "right": 2}

#: ``repro_tree_serve_batch`` / ``repro_tree_serve_one`` status for a
#: non-self request naming an identifier outside ``1..n`` (nothing served).
_STATUS_OUT_OF_RANGE = 2


def _int64_arg(array: np.ndarray):
    """A C-contiguous int64 array as a ``POINTER(c_int64)`` argument.

    ``c_int64.from_buffer`` costs ~0.4 µs against ~2 µs for
    ``array.ctypes.data`` (x86-64, CPython 3.11), which matters on
    one-request batches.  It needs a writable, non-empty buffer;
    read-only and empty arrays take the slower address lookup.
    """
    try:
        return ctypes.c_int64.from_buffer(array)
    except (TypeError, ValueError):
        return ctypes.c_int64.from_address(array.ctypes.data)


def _out_of_range(n: int) -> EngineError:
    return EngineError(
        f"request identifiers must be in 1..{n} for the native kernel"
    )


def _check_range(sources, targets, n: int) -> None:
    """The kernel's all-or-nothing ``1..n`` check, for the Python fallback.

    Only non-self pairs are checked: ``u == v`` serves at cost 0 without
    indexing anything, on every engine.
    """
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    m = min(len(src), len(dst))  # zip() semantics
    su, sv = src[:m], dst[:m]
    bad = ((su < 1) | (su > n) | (sv < 1) | (sv > n)) & (su != sv)
    if bad.any():
        raise _out_of_range(n)


def _check_status(status: int, n: int) -> None:
    if status == _STATUS_OUT_OF_RANGE:
        raise _out_of_range(n)
    if status != 0:  # pragma: no cover - arity guarded by the callers
        raise EngineError(f"native serve kernel failed (status {status})")


class NativeTree(FlatTree):
    """A :class:`FlatTree` served by the C kernel via a resident handle."""

    __slots__ = ("_lib", "_handle", "_resident", "_c_totals")

    prefers_request_arrays = True

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n, k)
        self._lib = None  # the CDLL that owns _handle (survives loader resets)
        self._handle = None
        self._resident = False
        self._c_totals = None

    def __del__(self) -> None:
        try:
            handle, lib = self._handle, self._lib
        except AttributeError:  # pragma: no cover - init never completed
            return
        if handle and lib is not None:
            try:
                lib.repro_tree_destroy(handle)
            except Exception:  # pragma: no cover - interpreter shutdown
                pass
            self._handle = None

    # ------------------------------------------------------------------
    # resident-state protocol
    # ------------------------------------------------------------------
    def _pack(self):
        """Marshal the list-backed state into contiguous buffers (O(n·k))."""
        n, km1 = self.n, self.k - 1
        parent = np.array(self.parent, dtype=np.int64)
        pslot = np.array(self.pslot, dtype=np.int64)
        children = np.array(self.child_rows, dtype=np.int64)
        routing = np.zeros((n + 1, km1), dtype=np.float64)
        if n:
            routing[1:] = self.routing_rows[1:]
        return parent, pslot, children, routing

    def _ensure_resident(self):
        """Make the kernel handle authoritative; returns it (or ``None``).

        Allocates the handle on first use and loads the current list
        state whenever the lists are authoritative (after construction,
        after a sync-out, after Python-side rotations).  ``None`` means
        the kernel cannot own this tree (no kernel, or allocation
        failed) and the caller must take the pure-Python path.
        """
        if self._resident:
            return self._handle
        kernel = _native.load_kernel()
        if kernel is None:
            return None
        if self._handle is None:
            handle = kernel.repro_tree_create(self.n, self.k)
            if not handle:
                return None
            self._lib = kernel
            self._handle = handle
            self._c_totals = (ctypes.c_int64 * 3)()
        parent, pslot, children, routing = self._pack()
        self._lib.repro_tree_load(
            self._handle,
            self.root,
            parent.ctypes.data,
            pslot.ctypes.data,
            children.ctypes.data,
            routing.ctypes.data,
        )
        self._resident = True
        return self._handle

    def _sync_lists(self) -> None:
        """Dirty-flag sync: copy resident kernel state back into the lists.

        No-op unless the handle is authoritative.  Updates the lists *in
        place* so references handed out earlier (e.g. a bound
        ``flat.parent`` in :meth:`KArySplayNet.serve_semi`) observe the
        synced state.  After the sync the lists are authoritative again;
        the next kernel serve reloads the handle.
        """
        if not self._resident:
            return
        n, k, km1 = self.n, self.k, self.k - 1
        parent = np.empty(n + 1, dtype=np.int64)
        pslot = np.empty(n + 1, dtype=np.int64)
        children = np.empty((n + 1, k), dtype=np.int64)
        routing = np.empty((n + 1, km1), dtype=np.float64)
        root_out = np.empty(1, dtype=np.int64)
        self._lib.repro_tree_sync_out(
            self._handle,
            root_out.ctypes.data,
            parent.ctypes.data,
            pslot.ctypes.data,
            children.ctypes.data,
            routing.ctypes.data,
        )
        self.parent[:] = parent.tolist()
        self.pslot[:] = pslot.tolist()
        self.child_rows[:] = children.tolist()
        rows = routing.tolist()
        rows[0] = []
        self.routing_rows[:] = rows
        self.root = int(root_out[0])
        self._resident = False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_one(
        self, u: int, v: int, policy: str = "center", depth: int = 2
    ) -> tuple[int, int, int]:
        """Serve one request through the resident scalar kernel entry.

        The ``Session.serve`` hot path: no batch marshalling, no state
        copies — one ctypes call against the resident handle, which also
        range-checks ``u`` and ``v`` (see :meth:`serve_many`).  Falls back
        to the (equivalent) pure-Python path for deep splay, oversized
        arity, or a missing kernel.
        """
        code = _POLICY_CODES.get(policy)
        if code is None:
            raise RotationError(
                f"unknown block policy {policy!r}; choose from {BLOCK_POLICIES}"
            )
        if depth != 2 or self.k > _native.MAX_NATIVE_K:
            self._sync_lists()
            return super().serve_one(u, v, policy, depth)
        if u == v:
            # Mirrors the engines' self-pair short-circuit, including for
            # out-of-range identifiers (served at cost 0, never indexed).
            return 0, 0, 0
        if self._ensure_resident() is None:
            # The pure-Python path does no range check: make the kernel's.
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise _out_of_range(self.n)
            self._sync_lists()
            return super().serve_one(u, v, policy, depth)
        totals = self._c_totals
        status = self._lib.repro_tree_serve_one(
            self._handle, u, v, code, totals
        )
        if status:
            _check_status(status, self.n)
        self._ranges_dirty = True
        return totals[0], totals[1], totals[2]

    def serve_many(
        self,
        sources,
        targets,
        *,
        policy: str = "center",
        depth: int = 2,
        routing_series=None,
        rotation_series=None,
    ) -> tuple[int, int, int]:
        """Serve a whole request batch in the compiled kernel.

        Same contract as :meth:`FlatTree.serve_many` — scalar cost totals,
        optional preallocated series buffers — and the same results bit
        for bit (pinned by ``tests/test_native_engine.py``).  Only the
        request arrays cross the ctypes boundary; the tree state stays
        resident in the handle.  The kernel checks every non-self pair
        against ``1..n`` before serving any of them (the fallback for a
        missing kernel makes the same check in Python): an out-of-range
        identifier raises :class:`EngineError` and serves nothing.
        """
        if policy not in BLOCK_POLICIES:
            raise RotationError(
                f"unknown block policy {policy!r}; choose from {BLOCK_POLICIES}"
            )
        if (routing_series is None) != (rotation_series is None):
            raise EngineError(
                "routing_series and rotation_series must be provided together"
            )
        # Deep-splay and oversized arities run the (equivalent)
        # pure-Python discipline.
        fallback = depth != 2 or self.k > _native.MAX_NATIVE_K
        if not fallback and self._ensure_resident() is None:
            # A kernel that vanished after construction (or a failed
            # handle allocation) degrades to the pure-Python path, which
            # does no range check of its own: make the kernel's here.
            _check_range(sources, targets, self.n)
            fallback = True
        if fallback:
            self._sync_lists()
            return super().serve_many(
                sources,
                targets,
                policy=policy,
                depth=depth,
                routing_series=routing_series,
                rotation_series=rotation_series,
            )

        src = np.ascontiguousarray(sources, dtype=np.int64)
        dst = np.ascontiguousarray(targets, dtype=np.int64)
        m = min(len(src), len(dst))  # zip() semantics
        record = routing_series is not None
        if record:
            routing_out = np.empty(m, dtype=np.int64)
            rotation_out = np.empty(m, dtype=np.int64)
            routing_arg = _int64_arg(routing_out)
            rotation_arg = _int64_arg(rotation_out)
        else:
            routing_arg = rotation_arg = None

        totals = self._c_totals
        status = self._lib.repro_tree_serve_batch(
            self._handle,
            _int64_arg(src),
            _int64_arg(dst),
            m,
            _POLICY_CODES[policy],
            routing_arg,
            rotation_arg,
            totals,
        )
        if status:
            _check_status(status, self.n)
        self._ranges_dirty = True

        if record:
            routing_series[:m] = (
                routing_out
                if isinstance(routing_series, np.ndarray)
                else routing_out.tolist()
            )
            rotation_series[:m] = (
                rotation_out
                if isinstance(rotation_series, np.ndarray)
                else rotation_out.tolist()
            )
        return totals[0], totals[1], totals[2]

    # ------------------------------------------------------------------
    # list-state consumers: sync the resident handle out first
    # ------------------------------------------------------------------
    def to_tree(self, *, validate: bool = False):
        self._sync_lists()
        return super().to_tree(validate=validate)

    def signature(self):
        self._sync_lists()
        return super().signature()

    def refresh_ranges(self) -> None:
        self._sync_lists()
        super().refresh_ranges()

    def depth(self, nid: int) -> int:
        self._sync_lists()
        return super().depth(nid)

    def lca(self, u: int, v: int) -> tuple[int, int, int]:
        self._sync_lists()
        return super().lca(u, v)

    def semi_splay(self, y: int, policy: str = "center") -> int:
        self._sync_lists()
        return super().semi_splay(y, policy)

    def splay(self, z: int, policy: str = "center") -> int:
        self._sync_lists()
        return super().splay(z, policy)

    def semi_splay_fast(self, y: int, policy: str = "center") -> int:
        self._sync_lists()
        return super().semi_splay_fast(y, policy)

    def splay_fast(self, z: int, policy: str = "center") -> int:
        self._sync_lists()
        return super().splay_fast(z, policy)

    def generalized_splay(self, chain: list[int]) -> int:
        self._sync_lists()
        return super().generalized_splay(chain)

    def splay_until(
        self,
        node: int,
        stop: int,
        *,
        policy: str = "center",
        depth: int = 2,
    ) -> tuple[int, int]:
        self._sync_lists()
        return super().splay_until(node, stop, policy=policy, depth=depth)

    def validate(self) -> None:
        self._sync_lists()
        super().validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NativeTree(n={self.n}, k={self.k}, root={self.root},"
            f" resident={self._resident})"
        )
