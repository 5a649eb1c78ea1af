"""The sharded serve farm: resident native trees across worker processes.

:class:`ServeFarm` scales the single-process serving stack *out*: session
keys are hash-partitioned (:mod:`repro.serving.router`) across worker
processes, each worker owning one shard's sessions — resident
:class:`~repro.core.native.NativeTree` handles behind the
:func:`~repro.net.session.open_session` API (degrading per worker to the
flat engine when the kernel is unavailable, e.g. ``REPRO_NATIVE=0``).
The parent dispatches batched request windows to all owning shards before
collecting any acknowledgement, so shards serve concurrently; aggregate
metrics (cost totals plus a mergeable latency histogram) accumulate
incrementally from the acks.

Fault tolerance:

* every worker batch passes a ``farm.serve`` injection point
  (:func:`~repro.reliability.faults.fire_fault`), so the reliability
  suite can kill a worker deterministically mid-campaign.  Kill-style
  faults need a ledger-backed :class:`~repro.reliability.faults.FaultPlan`
  (exactly as with ``pool.task``) so the respawned worker does not
  re-fire the kill;
* **health supervision** (:mod:`repro.serving.health`): every worker
  beats on a dedicated heartbeat pipe, and a supervisor thread in the
  parent feeds a :class:`~repro.serving.health.HealthMonitor`.  The
  supervisor is the only code that respawns a worker, and heartbeat-pipe
  EOF is its one death signal.  A worker that misses its ``down_after``
  deadline (wedged, not dead) is killed first, so the EOF follows;
* the replacement worker is rebuilt by **journal replay**: the parent
  keeps every acknowledged batch per shard per key and replays them.
  The serve discipline is deterministic, so the rebuilt trees are
  cell-for-cell identical;
* a caller that finds a shard's pipe broken (a dispatch or a query)
  kills that worker, waits on the shard's condition until the supervisor
  has replaced it, then re-sends.  The wait releases the shard lock, so
  a caller blocked on a wedged worker never stalls supervision;
* the respawn budget (``max_respawns``) turns a crash loop into a loud
  :class:`~repro.errors.ReliabilityError` instead of a hang: the shard is
  given up and every later call to it raises at once;
* **warm standby** (``checkpoint_every=N``): workers cut engine-
  transferable :class:`~repro.net.session.SessionSnapshot` checkpoints
  at batch boundaries every ``N`` requests per key and ship them in the
  serve ack; the parent prunes the journal prefix each snapshot covers,
  so a replacement worker restores from the latest snapshots and replays
  **at most ~N requests per key** instead of the whole history.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.errors import ExperimentError, ReliabilityError
from repro.net.session import DEFAULT_CHUNK, LatencyStats
from repro.net.spec import NetworkSpec
from repro.network.protocols import BatchServeResult
from repro.serving.health import (
    DOWN,
    HEALTHY,
    RECOVERING,
    HealthConfig,
    HealthMonitor,
)
from repro.serving.router import ShardRouter

__all__ = ["FarmMetrics", "ServeFarm"]

#: Injection point fired in a worker before serving each dispatched
#: window (see repro.reliability.faults for the catalogue).
FARM_FAULT_POINT = "farm.serve"


@dataclass
class FarmMetrics:
    """Aggregate incremental metrics of a whole farm (all shards)."""

    requests: int = 0
    total_routing: int = 0
    total_rotations: int = 0
    total_links_changed: int = 0
    windows: int = 0
    #: Summed worker-side serve CPU seconds per shard.  ``max`` over
    #: shards is the farm's critical path — the farm's aggregate capacity
    #: (``requests / max``) scales with shard count even when the host
    #: has fewer cores than shards, where wall clock (and worker wall
    #: time, inflated by timesharing) cannot show it.
    busy_seconds: dict[int, float] = field(default_factory=dict, repr=False)
    latency: LatencyStats = field(default_factory=LatencyStats, repr=False)

    @property
    def average_routing(self) -> float:
        return self.total_routing / self.requests if self.requests else 0.0

    @property
    def latency_p50(self) -> float:
        return self.latency.p50

    @property
    def latency_p99(self) -> float:
        return self.latency.p99

    @property
    def critical_path_seconds(self) -> float:
        """The busiest shard's total serve time (0.0 before any batch)."""
        return max(self.busy_seconds.values(), default=0.0)

    def record_batch(
        self,
        shard: int,
        m: int,
        routing: int,
        rotations: int,
        links: int,
        elapsed: float,
        cpu: float,
    ) -> None:
        self.requests += m
        self.total_routing += routing
        self.total_rotations += rotations
        self.total_links_changed += links
        self.windows += 1
        self.busy_seconds[shard] = self.busy_seconds.get(shard, 0.0) + cpu
        if m:
            self.latency.record(elapsed / m, m)

    def to_dict(self) -> dict[str, Any]:
        # Cost fields are deterministic; latency is reported separately
        # (same split as SessionMetrics.to_dict).
        return {
            "requests": self.requests,
            "total_routing": self.total_routing,
            "total_rotations": self.total_rotations,
            "total_links_changed": self.total_links_changed,
        }


def _heartbeat_loop(hb_conn, interval: float, stop) -> None:
    """Worker-side liveness thread: one beat per ``interval`` seconds."""
    seq = 0
    while True:
        try:
            hb_conn.send(("beat", seq))
        except (BrokenPipeError, OSError):  # parent gone
            return
        seq += 1
        if stop.wait(interval):
            return


def _worker_main(
    conn,
    hb_conn,
    spec_data: dict,
    shard_index: int,
    hb_interval: float,
    checkpoint_every: Optional[int],
    parent_ends: tuple = (),
) -> None:
    """One shard's serve loop: sessions owned here, commands via pipe.

    Messages in: ``("serve", batches)`` with ``batches`` a list of
    ``(key, sources, targets)``; ``("restore", [(key, snapshot,
    covered)])``; ``("status",)``; ``("metrics",)``; ``("close",)``.
    Every reply is a tuple whose first element is ``"ok"`` or ``"error"``;
    serve acks carry per-batch detail totals (one ``(m, routing,
    rotations, links)`` 4-tuple per dispatched batch, in order — the
    ingress gateway answers each coalesced client request from exactly
    its own entry), the wall and CPU time spent serving (wall feeds the
    latency histogram, CPU the contention-immune per-shard busy
    accounting), and any warm-standby snapshots cut this window
    (``[(key, SessionSnapshot, covered)]`` with ``covered`` the key's
    total served requests at the cut — always a batch boundary, so the
    parent can prune its journal exactly).

    Liveness is out of band: a daemon thread beats on ``hb_conn`` every
    ``hb_interval`` seconds so a stuck or dead worker is visible to the
    supervisor without touching the command pipe.

    ``parent_ends`` are the farm-side pipe ends a forked worker inherits:
    its own, its heartbeat pipe's and every other shard's.  They are
    closed first, so once the farm process is gone — even by a hard
    exit that never sends ``close`` — ``conn.recv()`` sees EOF and the
    worker exits instead of lingering as an orphan.
    """
    for inherited in parent_ends:
        try:
            inherited.close()
        except OSError:  # pragma: no cover - already closed by the farm
            pass
    # Imports inside the worker: with the spawn start method this module
    # is re-imported fresh, and the kernel loads (or degrades to flat)
    # per process.
    from repro.net.session import open_session
    from repro.reliability.faults import fire_fault, kill_process

    stop_beat = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(hb_conn, hb_interval, stop_beat),
        daemon=True,
        name=f"repro-heartbeat-{shard_index}",
    ).start()

    sessions: dict[Any, Any] = {}
    served_total: dict[Any, int] = {}
    since_snapshot: dict[Any, int] = {}
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "serve":
                _, batches = message
                try:
                    fault = fire_fault(
                        FARM_FAULT_POINT, context=f"shard={shard_index}"
                    )
                    if fault is not None and fault.mode == "kill":
                        kill_process(fault)
                    started = time.perf_counter()
                    cpu_started = time.process_time()
                    details = []
                    snapshots = []
                    for key, sources, targets in batches:
                        session = sessions.get(key)
                        if session is None:
                            session = open_session(spec_data)
                            sessions[key] = session
                        batch = session.serve_stream(sources, targets)
                        details.append(
                            (
                                batch.m,
                                batch.total_routing,
                                batch.total_rotations,
                                batch.total_links_changed,
                            )
                        )
                        if checkpoint_every:
                            total = served_total.get(key, 0) + batch.m
                            served_total[key] = total
                            since = since_snapshot.get(key, 0) + batch.m
                            if since >= checkpoint_every:
                                try:
                                    snapshots.append(
                                        (key, session.snapshot(), total)
                                    )
                                    since = 0
                                except ExperimentError:
                                    # Engine without snapshot support:
                                    # degrade to replay-only recovery.
                                    pass
                            since_snapshot[key] = since
                    cpu = time.process_time() - cpu_started
                    elapsed = time.perf_counter() - started
                    conn.send(("ok", details, elapsed, cpu, snapshots))
                except Exception as exc:  # noqa: BLE001 - relayed to parent
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
            elif command == "restore":
                _, restores = message
                try:
                    for key, snapshot, covered in restores:
                        session = open_session(spec_data)
                        session.restore(snapshot)
                        sessions[key] = session
                        served_total[key] = covered
                        since_snapshot[key] = 0
                    conn.send(("ok", len(restores)))
                except Exception as exc:  # noqa: BLE001 - relayed
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
            elif command == "status":
                from repro.core.engine import native_available

                conn.send(
                    (
                        "ok",
                        {
                            "shard": shard_index,
                            "pid": os.getpid(),
                            "native_available": native_available(),
                            "sessions": {
                                key: getattr(
                                    session.network, "engine", "object"
                                )
                                for key, session in sessions.items()
                            },
                        },
                    )
                )
            elif command == "metrics":
                conn.send(
                    (
                        "ok",
                        {
                            key: session.metrics.to_dict()
                            for key, session in sessions.items()
                        },
                    )
                )
            elif command == "close":
                stop_beat.set()
                conn.send(("ok",))
                return
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown farm command {command!r}"))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent gone
        return


def _farm_context():
    """Start method for farm workers: fork where supported, else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ServeFarm:
    """A shard-routed farm of serving workers (one process per shard).

    >>> farm = ServeFarm("kary-splaynet", n=64, k=4, shards=2)
    >>> farm.serve("user-7", 3, 60)          # doctest: +SKIP
    >>> farm.serve_stream(stream)            # (key, u, v) iterable
    >>> farm.metrics.latency_p99             # aggregate, incremental
    >>> farm.health.states()                 # per-shard health
    >>> farm.close()

    Constructor arguments besides the farm knobs are exactly
    :func:`~repro.net.session.open_session`'s spec inputs — a
    :class:`~repro.net.spec.NetworkSpec`, a mapping, or an algorithm name
    plus keyword arguments.  One session is opened lazily per key in the
    owning worker.  Use as a context manager to guarantee teardown.

    ``health`` configures heartbeat supervision, which is always on (the
    default deadlines are conservative).  ``checkpoint_every=N`` turns on
    warm-standby recovery: replay after a respawn is bounded by the
    checkpoint cadence instead of the full journal.
    """

    def __init__(
        self,
        spec: Union[NetworkSpec, Mapping[str, Any], str, None] = None,
        *,
        shards: int = 2,
        window: int = DEFAULT_CHUNK,
        max_respawns: int = 2,
        health: Optional[HealthConfig] = None,
        checkpoint_every: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        if shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {shards}")
        if window < 1:
            raise ExperimentError(f"window must be >= 1, got {window}")
        if max_respawns < 0:
            raise ExperimentError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ExperimentError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        from repro.net.registry import coerce_network_spec

        self.spec = coerce_network_spec(spec, **kwargs)
        if self.spec.engine is None:
            # Workers own resident native trees unless the spec pins an
            # engine; resolution happens per worker process, so a farm
            # degrades to the flat engine wherever the kernel is
            # unavailable (REPRO_NATIVE=0, no C toolchain).
            self.spec = self.spec.replace(engine="native")
        self._spec_data = self.spec.to_dict()
        self.shards = shards
        self.window = window
        self.max_respawns = max_respawns
        self.checkpoint_every = checkpoint_every
        self.respawns = 0
        self.replayed_requests = 0
        self.shard_recoveries = [0] * shards
        self.router = ShardRouter(shards)
        self.metrics = FarmMetrics()
        self.health_config = health or HealthConfig()
        self.health = HealthMonitor(shards, self.health_config)
        #: Per shard: ``{key: [(sources, targets), ...]}`` — every
        #: acknowledged batch not yet covered by a snapshot, in serve
        #: order (order across keys is immaterial: sessions are
        #: independent per key).
        self._journal: list[dict[Any, list[tuple[list[int], list[int]]]]] = [
            {} for _ in range(shards)
        ]
        #: Per shard: requests covered by the stored snapshot per key.
        self._journal_base: list[dict[Any, int]] = [{} for _ in range(shards)]
        self._snapshots: list[dict[Any, Any]] = [{} for _ in range(shards)]
        self._ctx = _farm_context()
        self._procs: list[Optional[Any]] = [None] * shards
        self._conns: list[Optional[Any]] = [None] * shards
        self._hb_conns: list[Optional[Any]] = [None] * shards
        self._closed = False
        # One condition per shard: its lock serializes everything that
        # touches the shard's pipe + journal (dispatch, introspection,
        # respawn); callers that found the pipe broken wait on it until
        # the supervisor bumps the shard's epoch (a replacement is up)
        # or gives the shard up (``_gave_up`` holds the error message).
        self._conds = [threading.Condition() for _ in range(shards)]
        self._epochs = [0] * shards
        self._gave_up: list[Optional[str]] = [None] * shards
        # Concurrent serve_grouped calls on distinct shards share only
        # the aggregate metrics.
        self._metrics_lock = threading.Lock()
        self._supervisor: Optional[threading.Thread] = None
        self._stop_supervisor = threading.Event()
        try:
            for shard in range(shards):
                self._start_worker(shard)
        except BaseException:
            # A later worker failing to spawn must not leak the earlier
            # ones: close the partial farm before re-raising.
            self.close()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise,
            daemon=True,
            name="repro-farm-supervisor",
        )
        self._supervisor.start()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ServeFarm":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def _start_worker(self, shard: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Dedicated one-way liveness pipe: worker writes, parent reads.
        # EOF on it is the fastest possible death signal.
        hb_parent, hb_child = self._ctx.Pipe(duplex=False)
        parent_ends: tuple = ()
        if self._ctx.get_start_method() == "fork":
            # A forked child inherits every farm-side end open right now;
            # a spawned one inherits none (and must not be sent any).
            parent_ends = tuple(
                end
                for end in (
                    parent_conn,
                    hb_parent,
                    *self._conns,
                    *self._hb_conns,
                )
                if end is not None
            )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                hb_child,
                self._spec_data,
                shard,
                self.health_config.interval,
                self.checkpoint_every,
                parent_ends,
            ),
            daemon=True,
            name=f"repro-serve-shard-{shard}",
        )
        proc.start()
        child_conn.close()
        hb_child.close()
        self._procs[shard] = proc
        self._conns[shard] = parent_conn
        self._hb_conns[shard] = hb_parent

    def close(self) -> None:
        """Shut every worker down and join it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor.set()
        supervisor = self._supervisor
        if (
            supervisor is not None
            and supervisor is not threading.current_thread()
        ):
            supervisor.join(timeout=5.0)
        self._supervisor = None
        for shard in range(self.shards):
            conn = self._conns[shard]
            if conn is None:
                continue
            try:
                conn.send(("close",))
                conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
            self._conns[shard] = None
        for shard in range(self.shards):
            hb = self._hb_conns[shard]
            if hb is not None:
                try:
                    hb.close()
                except OSError:  # pragma: no cover - already gone
                    pass
                self._hb_conns[shard] = None
        for shard in range(self.shards):
            proc = self._procs[shard]
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)
                self._procs[shard] = None

    def _check_open(self) -> None:
        if self._closed:
            raise ExperimentError("serve farm is closed")

    # -- supervision ---------------------------------------------------
    def _supervise(self) -> None:
        """Supervisor thread: the only code that respawns a worker.

        Heartbeat-pipe EOF (the worker process died) is the one death
        signal: the shard is marked ``down`` and respawned at once.
        Silence on a live pipe escalates through ``suspect`` to ``down``
        on the configured deadlines; a ``down`` worker is wedged rather
        than dead, so it is killed *without* taking the shard lock (a
        caller blocked on the wedged pipe may hold it).  That caller then
        sees EOF and waits, releasing the lock, and the heartbeat EOF
        that follows the kill respawns the shard.
        """
        from multiprocessing.connection import wait as _wait

        config = self.health_config
        timeout = min(config.interval, config.suspect_after / 2)
        while not self._stop_supervisor.is_set():
            shard_of = {
                conn: shard
                for shard, conn in enumerate(self._hb_conns)
                if conn is not None
            }
            for conn in _wait(list(shard_of), timeout=timeout):
                if self._stop_supervisor.is_set():
                    return
                shard = shard_of[conn]
                try:
                    conn.recv()
                except (EOFError, OSError):
                    self.health.mark(shard, DOWN)
                    self._respawn(shard, timeout)
                else:
                    self.health.record_beat(shard)
            for shard in self.health.observe():
                self._procs[shard].kill()

    def shard_pids(self) -> list[Optional[int]]:
        """Current worker pid per shard (changes across respawns)."""
        return [
            proc.pid if proc is not None else None for proc in self._procs
        ]

    def health_states(self) -> list[str]:
        """Per-shard health."""
        return self.health.states()

    # -- fault recovery ------------------------------------------------
    def _respawn(self, shard: int, timeout: float) -> None:
        """Replace a dead worker and rebuild its state (supervisor only).

        If a caller still holds the shard lock after ``timeout`` (it is
        waiting on another shard, or has yet to see the EOF), nothing
        happens: the heartbeat pipe stays at EOF, so the next supervision
        pass retries.  A replacement that dies during its rebuild spends
        another respawn, and so does one whose rebuild fails (it holds
        partial state); past ``max_respawns`` the shard is given up.
        Either way every caller waiting on the shard's condition is
        woken.
        """
        cond = self._conds[shard]
        if not cond.acquire(timeout=timeout):
            return
        try:
            while not self._closed:
                self.respawns += 1
                if self.respawns > self.max_respawns:
                    # Stop watching the shard; every call to it now raises.
                    self._gave_up[shard] = (
                        f"serve farm gave up after {self.max_respawns}"
                        f" respawn(s): shard {shard} keeps dying"
                    )
                    self.health.mark(shard, DOWN)
                    self._procs[shard].kill()
                    self._hb_conns[shard].close()
                    self._hb_conns[shard] = None
                    break
                self.health.mark(shard, RECOVERING)
                self._conns[shard].close()
                self._hb_conns[shard].close()
                old_proc = self._procs[shard]
                old_proc.kill()
                old_proc.join(timeout=5.0)
                self._start_worker(shard)
                try:
                    self._rebuild(shard)
                except (EOFError, OSError, ReliabilityError):
                    continue  # the replacement died or failed its rebuild
                self._epochs[shard] += 1
                self.shard_recoveries[shard] += 1
                self.health.mark(shard, HEALTHY)
                break
            cond.notify_all()
        finally:
            cond.release()

    def _rebuild(self, shard: int) -> None:
        """Restore the latest snapshots, then replay the journal suffix.

        Warm standby bounds the replay to ``checkpoint_every`` requests
        per key; without checkpoints the whole journal replays.  Replay
        acks are read here and never aggregated, and a ledger-backed
        fault plan guarantees a fired kill stays fired.
        """
        conn = self._conns[shard]
        restores = [
            (key, snapshot, self._journal_base[shard][key])
            for key, snapshot in self._snapshots[shard].items()
        ]
        if restores:
            conn.send(("restore", restores))
            reply = conn.recv()
            if reply[0] == "error":
                raise ReliabilityError(
                    f"serve farm shard {shard} failed snapshot"
                    f" restore: {reply[1]}"
                )
        for key, entries in self._journal[shard].items():
            if not entries:
                continue
            batches = [(key, sources, targets) for sources, targets in entries]
            conn.send(("serve", batches))
            reply = conn.recv()
            if reply[0] == "error":
                raise ReliabilityError(
                    f"serve farm shard {shard} failed during"
                    f" journal replay: {reply[1]}"
                )
            self.replayed_requests += sum(len(s) for s, _ in entries)

    def _await_respawn(self, shard: int) -> None:
        """Wait for the supervisor to replace ``shard``'s worker.

        The caller holds the shard's condition and found the worker's
        pipe broken.  Killing the worker makes heartbeat EOF certain;
        the wait releases the shard lock so the supervisor can take it.
        Raises the give-up error if the shard is given up instead.
        """
        self._check_open()
        epoch = self._epochs[shard]
        self._procs[shard].kill()
        while not (
            self._epochs[shard] != epoch
            or self._gave_up[shard] is not None
            or self._closed
        ):
            # The timeout only bounds the wait when close() stops the
            # supervisor under a waiter.
            self._conds[shard].wait(self.health_config.interval)
        if self._gave_up[shard] is not None:
            raise ReliabilityError(self._gave_up[shard])
        self._check_open()

    # -- dispatch ------------------------------------------------------
    def _send_serve(self, shard: int, batches) -> None:
        while True:
            try:
                self._conns[shard].send(("serve", batches))
                return
            except OSError:  # BrokenPipeError, or a closed handle
                self._await_respawn(shard)

    def _await_ack(self, shard: int, batches):
        """Collect one serve ack, re-sending to a replacement worker."""
        while True:
            try:
                reply = self._conns[shard].recv()
            except (EOFError, OSError):
                self._await_respawn(shard)
                self._send_serve(shard, batches)
                continue
            if reply[0] == "error":
                raise ReliabilityError(
                    f"serve farm shard {shard} failed: {reply[1]}"
                )
            _, details, elapsed, cpu, snapshots = reply
            return details, elapsed, cpu, snapshots

    def _record_journal(self, shard: int, batches, snapshots) -> None:
        """Append acknowledged batches; prune what snapshots now cover.

        Snapshots are cut at batch boundaries in the worker and the
        parent journals the same batches in the same order, so a
        snapshot covering ``covered`` requests always lands on a prefix
        of whole journal entries (checked, never assumed).
        """
        journal = self._journal[shard]
        for key, sources, targets in batches:
            journal.setdefault(key, []).append((sources, targets))
        for key, snapshot, covered in snapshots:
            base = self._journal_base[shard].get(key, 0)
            need = covered - base
            if need <= 0:
                continue
            entries = journal.get(key)
            if not entries:
                continue
            dropped = 0
            kept = 0
            while kept < len(entries) and dropped < need:
                nxt = len(entries[kept][0])
                if dropped + nxt > need:
                    break  # not a batch boundary: keep the old snapshot
                dropped += nxt
                kept += 1
            if dropped == need:
                del entries[:kept]
                self._journal_base[shard][key] = covered
                self._snapshots[shard][key] = snapshot

    def _collect_shard(self, shard: int, batches):
        """Await one shard's ack and fold it into the aggregate state.

        Returns the per-batch detail list.  Journal updates are per-shard
        (the caller holds the shard lock); the aggregate metrics update
        takes the shared lock.
        """
        details, elapsed, cpu, snapshots = self._await_ack(shard, batches)
        m = sum(d[0] for d in details)
        routing = sum(d[1] for d in details)
        rotations = sum(d[2] for d in details)
        links = sum(d[3] for d in details)
        with self._metrics_lock:
            self.metrics.record_batch(
                shard, m, routing, rotations, links, elapsed, cpu
            )
        self._record_journal(shard, batches, snapshots)
        return details

    def _dispatch(
        self, grouped: Mapping[int, list[tuple[Any, list[int], list[int]]]]
    ) -> tuple[int, int, int, int]:
        """Send one window to all owning shards, then collect the acks.

        All sends complete before the first receive, so shards serve the
        window concurrently; acknowledged batches enter the journal.
        Shard locks are taken in ascending order and each is released as
        its ack arrives, in descending order.  A caller waiting for a
        respawn releases only the lock of the shard it waits on, and
        takes it back while holding lower shards' locks alone, so the
        lock order holds across the wait.
        """
        held: list[int] = []
        totals = [0, 0, 0, 0]
        try:
            for shard in sorted(grouped):
                self._conds[shard].acquire()
                held.append(shard)
                self._send_serve(shard, grouped[shard])
            while held:
                shard = held[-1]
                for m, routing, rotations, links in self._collect_shard(
                    shard, grouped[shard]
                ):
                    totals[0] += m
                    totals[1] += routing
                    totals[2] += rotations
                    totals[3] += links
                self._conds[held.pop()].release()
        finally:
            for shard in held:
                self._conds[shard].release()
        return tuple(totals)  # type: ignore[return-value]

    def serve_grouped(
        self,
        shard: int,
        batches: Sequence[tuple[Any, list[int], list[int]]],
    ) -> list[BatchServeResult]:
        """Dispatch pre-grouped key batches to one shard, detail per batch.

        ``batches`` is a list of ``(key, sources, targets)`` entries, every
        key owned by ``shard`` (validated) — the ingress gateway's dispatch
        primitive: one worker round trip serves the whole coalesced list,
        and the returned :class:`BatchServeResult` per entry carries that
        entry's exact totals, so each client request gets its own answer.

        Thread safety: concurrent calls for *distinct* shards are safe
        (each shard's pipe and journal are guarded by that shard's lock;
        the aggregate metrics are lock-guarded).
        Concurrent calls for the same shard serialize on the shard lock.
        """
        self._check_open()
        batches = [
            (key, [int(u) for u in sources], [int(v) for v in targets])
            for key, sources, targets in batches
        ]
        for key, sources, targets in batches:
            if len(sources) != len(targets):
                raise ExperimentError(
                    "serve_grouped sources and targets must be equal length"
                )
            if self.router.shard_of(key) != shard:
                raise ExperimentError(
                    f"key {key!r} routes to shard"
                    f" {self.router.shard_of(key)}, not {shard}"
                )
        if not batches:
            return []
        with self._conds[shard]:
            self._send_serve(shard, batches)
            details = self._collect_shard(shard, batches)
        return [
            BatchServeResult(m, routing, rotations, links, None, None)
            for m, routing, rotations, links in details
        ]

    # -- serving -------------------------------------------------------
    def serve(self, key: Any, u: int, v: int) -> None:
        """Serve one request for ``key`` on its owning shard (round trip)."""
        self.serve_batch(key, [u], [v])

    def serve_batch(self, key: Any, sources, targets) -> BatchServeResult:
        """Serve one key's request batch on its owning shard."""
        self._check_open()
        sources = [int(u) for u in sources]
        targets = [int(v) for v in targets]
        if len(sources) != len(targets):
            raise ExperimentError(
                "serve_batch sources and targets must be equal length"
            )
        shard = self.router.shard_of(key)
        m, routing, rotations, links = self._dispatch(
            {shard: [(key, sources, targets)]}
        )
        return BatchServeResult(m, routing, rotations, links, None, None)

    def serve_stream(
        self,
        requests: Iterable[tuple[Any, int, int]],
        *,
        window: Optional[int] = None,
    ) -> BatchServeResult:
        """Serve a keyed request stream, ``window`` requests per round.

        ``requests`` is any iterable of ``(key, u, v)``.  Each window is
        hash-split across the owning shards and dispatched to all of them
        before any acknowledgement is awaited — the farm's concurrent hot
        path.  Returns the accumulated totals for this stream;
        :attr:`metrics` advances by the same amounts.
        """
        self._check_open()
        if window is None:
            window = self.window
        elif window < 1:
            raise ExperimentError(f"window must be >= 1, got {window}")
        iterator = iter(requests)
        totals = [0, 0, 0, 0]
        while True:
            block = list(islice(iterator, window))
            if not block:
                break
            m, routing, rotations, links = self._dispatch(
                self.router.split(block)
            )
            totals[0] += m
            totals[1] += routing
            totals[2] += rotations
            totals[3] += links
        return BatchServeResult(
            totals[0], totals[1], totals[2], totals[3], None, None
        )

    # -- introspection -------------------------------------------------
    def _query(self, shard: int, command: str):
        self._check_open()
        with self._conds[shard]:
            while True:
                try:
                    self._conns[shard].send((command,))
                    reply = self._conns[shard].recv()
                    break
                except (EOFError, OSError):
                    self._await_respawn(shard)
        if reply[0] == "error":
            raise ReliabilityError(
                f"serve farm shard {shard} failed {command}: {reply[1]}"
            )
        return reply[1]

    def status(self) -> list[dict[str, Any]]:
        """Per-shard liveness report: pid, kernel availability, engines."""
        return [self._query(shard, "status") for shard in range(self.shards)]

    def session_metrics(self) -> dict[Any, dict[str, Any]]:
        """Authoritative per-key metrics, collected from the workers.

        Deterministic cost dicts (:meth:`SessionMetrics.to_dict`) — the
        cell-for-cell comparison surface of the reliability suite.
        """
        merged: dict[Any, dict[str, Any]] = {}
        for shard in range(self.shards):
            merged.update(self._query(shard, "metrics"))
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServeFarm(shards={self.shards},"
            f" requests={self.metrics.requests},"
            f" respawns={self.respawns}, closed={self._closed})"
        )
