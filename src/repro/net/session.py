"""Online serving sessions: the paper's Section 2 model as a first-class API.

A self-adjusting network is a long-lived serving system, not a batch
experiment: requests arrive one by one (or in bursts), the network adjusts,
and costs accumulate over the life of the connection.  :class:`Session`
wraps any network behind exactly that interface:

* :meth:`Session.serve` — one online request, metrics updated in place;
* :meth:`Session.serve_stream` — a request stream (any iterable of
  ``(u, v)`` pairs, or a :class:`~repro.workloads.trace.Trace`), fed
  through the network's batched ``serve_trace`` fast path one chunk at a
  time, so throughput matches offline trace replay while the stream stays
  incremental;
* :attr:`Session.metrics` — running totals (and optional per-request
  series) in the Section 2 cost components;
* :meth:`Session.snapshot` / :meth:`Session.restore` — checkpoint the
  *full* serving state (topology, auxiliary demand counters, policy RNG
  streams, metrics) and rewind to it, identically on either tree engine;
* **auto-checkpointing** — ``open_session(..., checkpoint_every=N)``
  takes a :meth:`Session.snapshot` every ``N`` served requests,
  :meth:`Session.recover` rewinds to the latest one after a fault, and
  :meth:`Session.audit` re-validates every structural and buffer
  invariant — run automatically after **every** restore, so a corrupted
  checkpoint is detected at recovery time, never silently served.

``open_session`` accepts anything :func:`~repro.net.registry.build_network`
accepts, or an already-built network object.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from repro.errors import ExperimentError, ReliabilityError
from repro.net.registry import build_network
from repro.net.spec import NetworkSpec
from repro.network.cost import CostModel, ROUTING_ONLY
from repro.network.protocols import BatchServeResult, ServeResult
from repro.reliability.faults import fire_fault
from repro.workloads.demand import DemandMatrix

__all__ = [
    "LatencyStats",
    "Session",
    "SessionMetrics",
    "SessionSnapshot",
    "open_session",
]

#: Default request chunk for :meth:`Session.serve_stream`: large enough to
#: amortize the batched path's per-call overhead, small enough that
#: metrics stay fresh while a long stream is in flight.  Used when the
#: caller does not pass an explicit ``chunk`` (auto-sizing additionally
#: caps the chunk at ``checkpoint_every`` so auto-checkpoint cadence is
#: never stretched by a large chunk).
DEFAULT_CHUNK = 8192

#: Log2-bucket range of :class:`LatencyStats`: 2**-30 s (~1 ns) up to
#: 2**10 s (~17 min) — any real per-request latency lands inside.
_LAT_MIN_EXP = -30
_LAT_MAX_EXP = 10


class LatencyStats:
    """Constant-memory per-request latency histogram with percentiles.

    Latencies are counted in log2 buckets (factor-2 resolution from
    nanoseconds to minutes), so recording is O(1), memory is a fixed
    ~40-int list regardless of stream length, and histograms from
    different shards merge exactly — the aggregation path of the serve
    farm.  Percentile queries return the geometric midpoint of the
    bucket containing the requested rank: right for dashboards and
    regression tracking (is p99 1 µs or 1 ms?), not for microsecond-exact
    timing claims.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts = [0] * (_LAT_MAX_EXP - _LAT_MIN_EXP + 1)
        self.total = 0

    def record(self, seconds: float, count: int = 1) -> None:
        """Count ``count`` requests observed at ``seconds`` latency each."""
        if count <= 0:
            return
        if seconds > 0.0:
            exp = math.frexp(seconds)[1]  # seconds in [2**(exp-1), 2**exp)
        else:
            exp = _LAT_MIN_EXP
        idx = min(max(exp - _LAT_MIN_EXP, 0), len(self.counts) - 1)
        self.counts[idx] += count
        self.total += count

    def percentile(self, q: float) -> float:
        """Latency (seconds) at quantile ``q`` in [0, 1]; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ExperimentError(f"quantile must be in [0, 1], got {q}")
        if not self.total:
            return 0.0
        rank = q * (self.total - 1)
        acc = 0
        for idx, count in enumerate(self.counts):
            acc += count
            if acc > rank:
                exp = idx + _LAT_MIN_EXP
                # Geometric midpoint of [2**(exp-1), 2**exp).
                return 1.5 * 2.0 ** (exp - 1)
        return 1.5 * 2.0 ** (_LAT_MAX_EXP - 1)  # pragma: no cover

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def merge(self, other: "LatencyStats") -> None:
        """Fold another histogram in (exact — buckets are aligned)."""
        for idx, count in enumerate(other.counts):
            self.counts[idx] += count
        self.total += other.total

    def copy(self) -> "LatencyStats":
        twin = LatencyStats()
        twin.counts = list(self.counts)
        twin.total = self.total
        return twin

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.total,
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyStats(count={self.total}, p50={self.p50:.2e},"
            f" p99={self.p99:.2e})"
        )


@dataclass
class SessionMetrics:
    """Running Section 2 cost totals of one serving session.

    ``requests`` counts served requests; the three totals mirror
    :class:`~repro.network.protocols.ServeResult`.  When the session was
    opened with ``record_series=True``, the per-request routing/rotation
    series accumulate in :attr:`routing_series` / :attr:`rotation_series`
    (Python lists — cheap appends; convert via :meth:`series_arrays`).
    """

    requests: int = 0
    total_routing: int = 0
    total_rotations: int = 0
    total_links_changed: int = 0
    routing_series: Optional[list[int]] = field(default=None, repr=False)
    rotation_series: Optional[list[int]] = field(default=None, repr=False)
    latency: LatencyStats = field(default_factory=LatencyStats, repr=False)

    @property
    def average_routing(self) -> float:
        return self.total_routing / self.requests if self.requests else 0.0

    @property
    def latency_p50(self) -> float:
        """Median observed per-request latency (seconds; see LatencyStats)."""
        return self.latency.p50

    @property
    def latency_p99(self) -> float:
        """Tail (99th percentile) per-request latency in seconds."""
        return self.latency.p99

    @property
    def average_rotations(self) -> float:
        return self.total_rotations / self.requests if self.requests else 0.0

    def total_cost(self, model: CostModel = ROUTING_ONLY) -> float:
        """Total service cost under a :class:`CostModel` (Section 2)."""
        return (
            model.routing_weight * self.total_routing
            + model.rotation_cost * self.total_rotations
            + model.link_cost * self.total_links_changed
        )

    def series_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded series as int64 arrays (empty when not recording)."""
        return (
            np.asarray(self.routing_series or [], dtype=np.int64),
            np.asarray(self.rotation_series or [], dtype=np.int64),
        )

    def copy(self) -> "SessionMetrics":
        return SessionMetrics(
            requests=self.requests,
            total_routing=self.total_routing,
            total_rotations=self.total_rotations,
            total_links_changed=self.total_links_changed,
            routing_series=(
                list(self.routing_series) if self.routing_series is not None else None
            ),
            rotation_series=(
                list(self.rotation_series)
                if self.rotation_series is not None
                else None
            ),
            latency=self.latency.copy(),
        )

    def to_dict(self) -> dict[str, Any]:
        # Deliberately excludes latency: this dict is the *deterministic*
        # metrics view, compared cell for cell across runs by the
        # reliability suites (timing never is deterministic).
        return {
            "requests": self.requests,
            "total_routing": self.total_routing,
            "total_rotations": self.total_rotations,
            "total_links_changed": self.total_links_changed,
        }


@dataclass(frozen=True)
class SessionSnapshot:
    """An opaque checkpoint of a session (network state + metrics)."""

    state: Any = field(repr=False)
    metrics: SessionMetrics = field(repr=False)
    spec: Optional[NetworkSpec] = None


def _pair_chunks(
    pairs: Iterable[tuple[int, int]], chunk: int
) -> Iterator[tuple[list[int], list[int]]]:
    """Slice an arbitrary pair iterable into endpoint-list chunks."""
    iterator = iter(pairs)
    while True:
        block = list(islice(iterator, chunk))
        if not block:
            return
        sources = [int(u) for u, _ in block]
        targets = [int(v) for _, v in block]
        yield sources, targets


class Session:
    """An open online serving session over one network.

    Construct via :func:`open_session`.  The session owns its running
    :class:`SessionMetrics`; the underlying network object is exposed as
    :attr:`network` for inspection (topology export, validation).
    """

    def __init__(
        self,
        network: Any,
        *,
        spec: Optional[NetworkSpec] = None,
        record_series: bool = False,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if not hasattr(network, "serve"):
            raise ExperimentError(
                f"{type(network).__name__} does not expose serve(u, v)"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ExperimentError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.network = network
        self.spec = spec
        self.record_series = record_series
        self.checkpoint_every = checkpoint_every
        self._auto_checkpoint: Optional[SessionSnapshot] = None
        self._since_checkpoint = 0
        self.metrics = SessionMetrics(
            routing_series=[] if record_series else None,
            rotation_series=[] if record_series else None,
        )

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    # -- introspection -------------------------------------------------
    @property
    def n(self) -> int:
        return self.network.n

    def distance(self, u: int, v: int) -> int:
        """Endpoint distance in the current topology (no adjustment)."""
        return self.network.distance(u, v)

    def validate(self) -> None:
        validate = getattr(self.network, "validate", None)
        if validate is not None:
            validate()

    # -- serving -------------------------------------------------------
    def serve(self, u: int, v: int) -> ServeResult:
        """Serve one online request; the session metrics accumulate it."""
        t0 = time.perf_counter()
        result = self.network.serve(u, v)
        metrics = self.metrics
        metrics.latency.record(time.perf_counter() - t0)
        metrics.requests += 1
        metrics.total_routing += result.routing_cost
        metrics.total_rotations += result.rotations
        metrics.total_links_changed += result.links_changed
        if metrics.routing_series is not None:
            metrics.routing_series.append(result.routing_cost)
            metrics.rotation_series.append(result.rotations)
        self._count_toward_checkpoint(1)
        return result

    def _auto_chunk(self) -> int:
        """Chunk size when the caller does not pick one.

        :data:`DEFAULT_CHUNK`, capped at ``checkpoint_every`` so the
        auto-checkpoint cadence the session was opened with is honoured
        chunk by chunk instead of being stretched to chunk granularity.
        """
        chunk = DEFAULT_CHUNK
        if self.checkpoint_every is not None:
            chunk = min(chunk, self.checkpoint_every)
        return max(1, chunk)

    def serve_stream(
        self,
        requests: Union[Iterable[tuple[int, int]], Any],
        targets: Optional[Any] = None,
        *,
        chunk: Optional[int] = None,
    ) -> BatchServeResult:
        """Serve a request stream through the batched fast path, chunkwise.

        ``requests`` may be any iterable of ``(u, v)`` pairs (including a
        generator — the stream is consumed lazily, ``chunk`` requests at a
        time), a :class:`~repro.workloads.trace.Trace`, or parallel
        ``(sources, targets)`` arrays.  Each chunk is fed to the network's
        ``serve_trace`` (networks without one fall back to the scalar
        serve loop), so a session drives the same engine hot path as
        offline trace replay.  ``chunk=None`` (the default) auto-sizes via
        :meth:`_auto_chunk`.  Arrays or a trace that fit in one chunk go
        to ``serve_trace`` as they are, without slicing.  Small explicit
        chunks are fine on every engine: the native engine keeps its tree
        state resident in the kernel handle, so a chunk never marshals
        the tree.  On a resident n = 1024, k = 4 native session a
        one-request call measured ~7 µs against ~3 µs for :meth:`serve`
        (2-vCPU x86-64 host); the difference is Python wrapper cost, not
        the kernel.  Returns the
        accumulated :class:`~repro.network.protocols.BatchServeResult`
        for *this* stream; :attr:`metrics` advances by the same amounts.
        """
        if chunk is None:
            chunk = self._auto_chunk()
        elif chunk < 1:
            raise ExperimentError(f"chunk must be >= 1, got {chunk}")
        if targets is not None:
            sources = np.asarray(requests, dtype=np.int64)
            targets = np.asarray(targets, dtype=np.int64)
            if sources.shape != targets.shape or sources.ndim != 1:
                raise ExperimentError(
                    "serve_stream arrays must be equal-length and 1-D"
                )
        elif hasattr(requests, "sources"):
            sources, targets = requests.sources, requests.targets
        else:
            return self._serve_chunks(_pair_chunks(requests, chunk))
        if 0 < len(sources) <= chunk:
            return self._serve_chunk(sources, targets)
        return self._serve_chunks(
            (sources[i : i + chunk], targets[i : i + chunk])
            for i in range(0, len(sources), chunk)
        )

    def _serve_chunk(self, sources, targets) -> BatchServeResult:
        """Serve one chunk through ``serve_trace``; metrics advance by it."""
        serve_trace = getattr(self.network, "serve_trace", None)
        if serve_trace is None:
            serve_trace = self._fallback_serve_trace
        metrics = self.metrics
        record = metrics.routing_series is not None
        t0 = time.perf_counter()
        batch = serve_trace(sources, targets, record_series=record)
        m = batch.m
        if m:
            # Per-request latency attributed evenly across the chunk —
            # the right granularity for p50/p99 of a batched stream.
            metrics.latency.record((time.perf_counter() - t0) / m, m)
        if record and batch.routing_series is not None:
            metrics.routing_series.extend(batch.routing_series.tolist())
            metrics.rotation_series.extend(batch.rotation_series.tolist())
        # Auto-checkpoint between chunks: metrics must already cover the
        # chunk when the snapshot is cut, so advance them first.
        metrics.requests += m
        metrics.total_routing += batch.total_routing
        metrics.total_rotations += batch.total_rotations
        metrics.total_links_changed += batch.total_links_changed
        self._count_toward_checkpoint(m)
        return batch

    def _serve_chunks(
        self, chunks: Iterable[tuple[Any, Any]]
    ) -> BatchServeResult:
        """Serve chunk after chunk; returns the totals over all of them."""
        record = self.metrics.routing_series is not None
        total_m = total_routing = total_rotations = total_links = 0
        routing_parts: list[np.ndarray] = []
        rotation_parts: list[np.ndarray] = []
        for sources_chunk, targets_chunk in chunks:
            batch = self._serve_chunk(sources_chunk, targets_chunk)
            total_m += batch.m
            total_routing += batch.total_routing
            total_rotations += batch.total_rotations
            total_links += batch.total_links_changed
            if record and batch.routing_series is not None:
                routing_parts.append(batch.routing_series)
                rotation_parts.append(batch.rotation_series)
        return BatchServeResult(
            total_m,
            total_routing,
            total_rotations,
            total_links,
            np.concatenate(routing_parts) if routing_parts else None,
            np.concatenate(rotation_parts) if rotation_parts else None,
        )

    def _fallback_serve_trace(
        self, sources, targets=None, *, record_series: bool = False
    ) -> BatchServeResult:
        """Per-request fallback for networks without ``serve_trace``."""
        from repro.core.engine import batch_serve

        serve = self.network.serve

        def serve_totals(u: int, v: int) -> tuple[int, int, int]:
            result = serve(u, v)
            return result.routing_cost, result.rotations, result.links_changed

        return batch_serve(
            serve_totals, sources, targets, record_series=record_series
        )

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """Checkpoint the full serving state (topology + aux + metrics).

        The snapshot is independent of subsequent serving: restoring it
        reproduces the exact topology (proven engine-identical by
        ``tests/net/test_snapshot.py``) and the exact costs of any request
        sequence replayed after the checkpoint.
        """
        snapshot_state = getattr(self.network, "snapshot_state", None)
        if snapshot_state is None:
            raise ExperimentError(
                f"{type(self.network).__name__} does not support snapshots"
                " (no snapshot_state/restore_state)"
            )
        state = snapshot_state()
        fault = fire_fault("session.snapshot", context=type(state).__name__)
        if fault is not None and fault.mode == "corrupt":
            state = _corrupt_state(state)
        return SessionSnapshot(
            state=state, metrics=self.metrics.copy(), spec=self.spec
        )

    def restore(self, snapshot: SessionSnapshot) -> None:
        """Rewind the session to a :meth:`snapshot` checkpoint.

        Every restore is followed by a full :meth:`audit`, so a snapshot
        corrupted between checkpoint and recovery raises
        :class:`~repro.errors.ReliabilityError` here instead of silently
        serving a broken topology.
        """
        restore_state = getattr(self.network, "restore_state", None)
        if restore_state is None:
            raise ExperimentError(
                f"{type(self.network).__name__} does not support snapshots"
                " (no snapshot_state/restore_state)"
            )
        restore_state(snapshot.state)
        self.metrics = snapshot.metrics.copy()
        self._since_checkpoint = 0
        self.audit()

    def _count_toward_checkpoint(self, served: int) -> None:
        """Advance the auto-checkpoint counter; cut one when due."""
        if self.checkpoint_every is None:
            return
        self._since_checkpoint += served
        if self._since_checkpoint >= self.checkpoint_every:
            self._auto_checkpoint = self.snapshot()
            self._since_checkpoint = 0

    @property
    def last_checkpoint(self) -> Optional[SessionSnapshot]:
        """The most recent auto-checkpoint (``None`` before the first)."""
        return self._auto_checkpoint

    def recover(self) -> SessionSnapshot:
        """Rewind to the latest auto-checkpoint and re-audit everything.

        The crash-recovery entry point for sessions opened with
        ``checkpoint_every``: after an exception mid-stream (or any
        suspicion the in-memory state is bad), ``recover()`` restores the
        last checkpoint — topology, auxiliary state and metrics — runs
        the full :meth:`audit`, and returns the snapshot it recovered to,
        so the caller knows exactly which requests to replay.
        """
        if self._auto_checkpoint is None:
            raise ReliabilityError(
                "no auto-checkpoint to recover to: open the session with"
                " checkpoint_every=N (or restore an explicit snapshot)"
            )
        self.restore(self._auto_checkpoint)
        return self._auto_checkpoint

    def audit(self) -> None:
        """Invariant pass over the live serving state; raises on corruption.

        Three layers, all fatal via
        :class:`~repro.errors.ReliabilityError`:

        * **structural** — the network's own ``validate()`` (for the flat
          and native engines that is the full cross-check against a
          rebuilt object tree, cached subtree ranges included);
        * **buffer consistency** — flat/native array lengths must match
          the declared shape (``n``, ``k``), catching truncated or
          mis-sized state smuggled in through a bad checkpoint;
        * **metrics sanity** — totals non-negative and recorded series
          exactly ``requests`` long.
        """
        try:
            self.validate()
        except Exception as exc:
            raise ReliabilityError(
                f"session audit failed structural validation: {exc}"
            ) from exc
        self._audit_buffers()
        self._audit_metrics()

    def _audit_buffers(self) -> None:
        """Flat/native engines: array shapes must match the topology."""
        flat = getattr(self.network, "_flat", None)
        if flat is None or not hasattr(flat, "parent"):
            return
        n, k = flat.n, flat.k
        expected = {
            "parent": n + 1,
            "pslot": n + 1,
            "child_rows": n + 1,
            "routing_rows": n + 1,
        }
        for name, length in expected.items():
            rows = getattr(flat, name, None)
            if rows is not None and len(rows) != length:
                raise ReliabilityError(
                    f"session audit: {name} has {len(rows)} entries,"
                    f" expected {length} (n={n})"
                )
        for nid in range(1, n + 1):
            if len(flat.child_rows[nid]) != k:
                raise ReliabilityError(
                    f"session audit: node {nid} has"
                    f" {len(flat.child_rows[nid])} child slots, expected {k}"
                )

    def _audit_metrics(self) -> None:
        metrics = self.metrics
        if (
            metrics.requests < 0
            or metrics.total_routing < 0
            or metrics.total_rotations < 0
            or metrics.total_links_changed < 0
        ):
            raise ReliabilityError(
                f"session audit: negative metrics {metrics.to_dict()}"
            )
        if metrics.routing_series is not None and (
            len(metrics.routing_series) != metrics.requests
            or len(metrics.rotation_series) != metrics.requests
        ):
            raise ReliabilityError(
                "session audit: recorded series length"
                f" {len(metrics.routing_series)} does not match"
                f" requests={metrics.requests}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(network={type(self.network).__name__}, n={self.n},"
            f" requests={self.metrics.requests})"
        )


def _corrupt_state(state: Any) -> Any:
    """Deliberately damage a checkpoint state (``session.snapshot`` fault).

    Tree-engine states (anything carrying a ``parent`` array) get one
    self-parenting entry — invisible to shallow use, guaranteed fatal to
    a structural ``validate()``.  States this helper cannot tamper raise
    :class:`FaultInjected` outright instead of pretending.
    """
    from repro.errors import FaultInjected

    parent = getattr(state, "parent", None)
    if parent is not None and getattr(state, "n", 0) >= 1:
        parent[1] = 1
        return state
    raise FaultInjected(
        f"injected snapshot corruption: cannot tamper {type(state).__name__}"
    )


def open_session(
    spec: Union[NetworkSpec, Mapping[str, Any], str, None] = None,
    *,
    network: Optional[Any] = None,
    trace: Optional[Any] = None,
    demand: Optional[DemandMatrix] = None,
    record_series: bool = False,
    checkpoint_every: Optional[int] = None,
    **kwargs: Any,
) -> Session:
    """Open an online serving session.

    Accepts everything :func:`~repro.net.registry.build_network` accepts —
    a :class:`~repro.net.spec.NetworkSpec`, a mapping, an algorithm name
    plus keyword arguments — or a pre-built network object via
    ``network=``.  ``trace``/``demand`` feed demand-aware static
    constructions; ``record_series=True`` accumulates per-request series
    on the session metrics; ``checkpoint_every=N`` auto-snapshots the
    full serving state every ``N`` requests so
    :meth:`Session.recover` can rewind past a crash (each restore is
    audited — see :meth:`Session.audit`).

    >>> session = open_session("kary-splaynet", n=64, k=4, engine="flat")
    >>> session.serve(3, 60).routing_cost  # doctest: +SKIP
    5
    """
    if network is not None:
        if spec is not None or kwargs:
            raise ExperimentError(
                "pass either network= or spec/kwargs to open_session, not both"
            )
        return Session(
            network,
            record_series=record_series,
            checkpoint_every=checkpoint_every,
        )
    from repro.net.registry import coerce_network_spec

    resolved = coerce_network_spec(spec, **kwargs)
    built = build_network(resolved, trace=trace, demand=demand)
    return Session(
        built,
        spec=resolved,
        record_series=record_series,
        checkpoint_every=checkpoint_every,
    )
