"""The async ingress gateway: a serve farm behind a TCP/UNIX socket.

:class:`IngressServer` is the first layer of this stack that looks like a
real inference gateway.  An asyncio accept loop feeds per-shard
**micro-batching** dispatchers in front of a
:class:`~repro.serving.farm.ServeFarm`; the interesting machinery is what
sits between socket and farm:

* **micro-batching** — requests for one shard arriving within
  ``batch_window`` seconds (up to ``batch_max`` of them) coalesce into a
  single worker round trip (:meth:`ServeFarm.serve_grouped`), amortizing
  the Pipe latency that dominates request-at-a-time dispatch; each
  client request still gets its own exact per-batch answer;
* **backpressure** — every shard has a bounded queue (``queue_depth``).
  A connection whose requests target a full queue is simply *not read*
  until the queue drains (the reader coroutine suspends on ``put``), so
  overload propagates to the client's TCP window instead of growing an
  unbounded server-side buffer;
* **admission control** — at most ``max_inflight`` admitted-but-unanswered
  requests; past that, and for any request whose deadline budget expires
  while it queues, the server answers an explicit ``OVERLOAD`` frame.
  Requests are never silently dropped: every admitted request is either
  served or answered with ``OVERLOAD``/``ERROR``;
* **circuit breakers** — one :class:`~repro.ingress.breaker.CircuitBreaker`
  per shard: consecutive dispatch failures or deadline misses trip it
  open and requests for that shard are shed *immediately* with
  ``OVERLOAD`` (carrying a retry-after hint of the remaining open
  window) instead of queueing doomed work while the farm respawns the
  worker; after ``reset_timeout`` a bounded probe budget tests the
  shard before traffic fully resumes.  Breaker sheds happen before
  admission, so ``admitted == served + overloaded + errors`` holds for
  the post-admission population exactly as before;
* **graceful drain** — on SIGTERM (see :meth:`install_signal_handlers`)
  the server stops accepting, answers everything already queued, closes
  the farm and wakes :meth:`serve_forever` — a clean exit, not a dropped
  stream.

Two fault points wire the gateway into :mod:`repro.reliability.faults`:
``ingress.accept`` (fired per accepted connection — ``error`` drops the
connection before the handshake) and ``ingress.dispatch`` (fired per
shard dispatch — ``error`` answers the whole micro-batch with ``ERROR``;
``kill`` hard-exits the server process mid-flight, the scenario a client
must survive by reconnect-and-retry).
"""

from __future__ import annotations

import asyncio
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ExperimentError, FaultInjected, IngressProtocolError
from repro.ingress import protocol
from repro.ingress.breaker import BreakerConfig, CircuitBreaker
from repro.reliability.faults import fire_fault, kill_process
from repro.serving.farm import ServeFarm

__all__ = [
    "ACCEPT_FAULT_POINT",
    "DISPATCH_FAULT_POINT",
    "IngressServer",
]

#: Fired once per accepted connection, before the handshake.
ACCEPT_FAULT_POINT = "ingress.accept"

#: Fired once per shard micro-batch, before the farm round trip.
DISPATCH_FAULT_POINT = "ingress.dispatch"

#: Sentinel pushed through a shard queue to stop its dispatcher.
_STOP = object()


@dataclass(eq=False)
class _Connection:
    """Per-connection write side: serialized writes, shared by dispatchers."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    closed: bool = False


@dataclass
class _Pending:
    """One admitted serve request waiting in a shard queue."""

    conn: _Connection
    request: protocol.Request
    #: Event-loop clock time at which the request becomes sheddable
    #: (``None`` = no deadline).
    expires_at: Optional[float]


class IngressServer:
    """Serve a :class:`~repro.serving.ServeFarm` over TCP or UNIX sockets.

    >>> farm = ServeFarm("kary-splaynet", n=256, k=4, shards=2)
    >>> server = IngressServer(farm, port=0)          # doctest: +SKIP
    >>> asyncio.run(server.serve_forever())           # doctest: +SKIP

    Construction takes an already-built farm (the server owns it and
    closes it on drain unless ``close_farm=False``).  ``port=0`` binds an
    ephemeral TCP port (the bound address is :attr:`address` after
    :meth:`start`); ``path=`` serves a UNIX socket instead.
    """

    def __init__(
        self,
        farm: ServeFarm,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        batch_window: float = 0.002,
        batch_max: int = 256,
        queue_depth: int = 1024,
        max_inflight: int = 8192,
        default_deadline: Optional[float] = None,
        close_farm: bool = True,
        breaker: Optional[BreakerConfig] = None,
    ) -> None:
        if batch_window < 0:
            raise ExperimentError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if batch_max < 1:
            raise ExperimentError(f"batch_max must be >= 1, got {batch_max}")
        if queue_depth < 1:
            raise ExperimentError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        if max_inflight < 1:
            raise ExperimentError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if default_deadline is not None and default_deadline <= 0:
            raise ExperimentError(
                f"default_deadline must be > 0, got {default_deadline}"
            )
        if path is None and not 0 <= port <= 65535:
            raise ExperimentError(
                f"port must be in 0..65535 (0 = ephemeral), got {port}"
            )
        self.farm = farm
        self.host = host
        self.port = port
        self.path = path
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.queue_depth = queue_depth
        self.max_inflight = max_inflight
        self.default_deadline = default_deadline
        self.close_farm = close_farm
        self.breaker_config = breaker or BreakerConfig()
        #: Per-shard circuit breakers (created in :meth:`start`; touched
        #: only from the event-loop thread).
        self.breakers: list[CircuitBreaker] = []
        #: Ingress-level counters (event-loop thread only).
        self.admitted = 0
        self.served = 0
        self.overloaded = 0
        self.errors = 0
        #: Requests shed by an open breaker (subset of ``overloaded``;
        #: like admission-control sheds, they are never admitted).
        self.breaker_shed = 0
        self.rejected_connections = 0
        self.inflight = 0
        self.address: Optional[Any] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._queues: list[asyncio.Queue] = []
        self._executors: list[ThreadPoolExecutor] = []
        self._dispatchers: list[asyncio.Task] = []
        self._connections: set[_Connection] = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the per-shard dispatchers."""
        if self._server is not None:
            raise ExperimentError("ingress server already started")
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        shards = self.farm.shards
        self.breakers = [
            CircuitBreaker(self.breaker_config) for _ in range(shards)
        ]
        self._queues = [
            asyncio.Queue(maxsize=self.queue_depth) for _ in range(shards)
        ]
        # One single-thread executor per shard keeps each farm pipe
        # driven by exactly one thread at a time (the thread-safety
        # contract of ServeFarm.serve_grouped) while distinct shards
        # serve concurrently.
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"ingress-shard-{shard}"
            )
            for shard in range(shards)
        ]
        self._dispatchers = [
            loop.create_task(self._dispatch_loop(shard))
            for shard in range(shards)
        ]
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.path
            )
            self.address = self.path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
            self.port = sockname[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (call after :meth:`start`)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    async def serve_forever(self) -> None:
        """Start (if needed) and block until a drain completes."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush queues, close the farm.

        Idempotent.  Every request admitted before the drain is answered
        (served, or ``OVERLOAD`` when its deadline lapsed); requests
        arriving on live connections afterwards get an explicit
        ``OVERLOAD`` "draining" response until the sockets close.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # The STOP sentinel queues *behind* everything already admitted,
        # so each dispatcher finishes its backlog first.
        for queue in self._queues:
            await queue.put(_STOP)
        for task in self._dispatchers:
            await task
        for conn in list(self._connections):
            await _close_connection(conn)
        for executor in self._executors:
            executor.shutdown(wait=True)
        if self.close_farm:
            self.farm.close()
        self._stopped.set()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername") or writer.get_extra_info(
            "sockname"
        )
        try:
            fault = fire_fault(ACCEPT_FAULT_POINT, context=f"peer={peer}")
            if fault is not None and fault.mode == "kill":
                kill_process(fault)
        except FaultInjected:
            self.rejected_connections += 1
            writer.close()
            return
        conn = _Connection(writer=writer)
        self._connections.add(conn)
        try:
            payload = await self._read_frame(reader)
            if payload is None:
                return
            protocol.decode_handshake(payload)
            async with conn.lock:
                writer.write(protocol.encode_handshake(shards=self.farm.shards))
                await writer.drain()
            while True:
                payload = await self._read_frame(reader)
                if payload is None:
                    return
                await self._handle_request(
                    conn, protocol.decode_request(payload)
                )
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            IngressProtocolError,
        ):
            # Protocol violations and transport errors end the connection;
            # anything request-scoped was already answered in-line.
            pass
        finally:
            self._connections.discard(conn)
            await _close_connection(conn)

    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> Optional[bytes]:
        """One length-prefixed payload, or ``None`` on a clean EOF."""
        try:
            head = await reader.readexactly(protocol.FRAME_HEADER_SIZE)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        length = protocol.decode_frame_length(head)
        try:
            return await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None

    async def _handle_request(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        if request.op == protocol.OP_PING:
            await self._send(
                conn,
                protocol.encode_response(
                    request.request_id, protocol.STATUS_OK
                ),
            )
            return
        if request.op == protocol.OP_METRICS:
            await self._send(
                conn,
                protocol.encode_response(
                    request.request_id,
                    protocol.STATUS_OK,
                    metrics=self._metrics_snapshot(),
                ),
            )
            return
        # SERVE / SERVE_BATCH.
        if self._draining:
            await self._overload(
                conn, request.request_id, "server is draining"
            )
            return
        if not request.sources:
            await self._send(
                conn,
                protocol.encode_response(
                    request.request_id,
                    protocol.STATUS_OK,
                    totals=(0, 0, 0, 0),
                ),
            )
            return
        if self.inflight >= self.max_inflight:
            await self._overload(
                conn,
                request.request_id,
                f"admission control: {self.inflight} requests in flight"
                f" (cap {self.max_inflight})",
            )
            return
        shard = self.farm.router.shard_of(request.key)
        breaker = self.breakers[shard]
        # Checked after the inflight cap so an allowed half-open probe is
        # always actually queued (its outcome balances the probe budget).
        if not breaker.allow():
            # Shed before admission: queueing at a sick shard converts
            # requests into slow failures; tell the client when to come
            # back instead.
            self.breaker_shed += 1
            await self._overload(
                conn,
                request.request_id,
                f"circuit breaker open for shard {shard}",
                retry_after=breaker.retry_after(),
            )
            return
        deadline = request.deadline or 0.0
        if deadline <= 0.0 and self.default_deadline is not None:
            deadline = self.default_deadline
        expires_at = (
            asyncio.get_running_loop().time() + deadline
            if deadline > 0.0
            else None
        )
        self.inflight += 1
        self.admitted += 1
        # Bounded queue: when the shard is saturated this put() suspends,
        # and with it the connection's read loop — backpressure.
        await self._queues[shard].put(
            _Pending(conn=conn, request=request, expires_at=expires_at)
        )

    async def _overload(
        self,
        conn: _Connection,
        request_id: int,
        message: str,
        *,
        retry_after: float = 0.0,
    ) -> None:
        self.overloaded += 1
        await self._send(
            conn,
            protocol.encode_response(
                request_id,
                protocol.STATUS_OVERLOAD,
                message=message,
                retry_after=retry_after,
            ),
        )

    async def _send(self, conn: _Connection, data: bytes) -> None:
        if conn.closed:
            return
        try:
            async with conn.lock:
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, RuntimeError):
            conn.closed = True

    def _metrics_snapshot(self) -> dict:
        farm_metrics = self.farm.metrics
        shards = self.farm.shards
        pids = self.farm.shard_pids()
        states = self.farm.health_states()
        recoveries = self.farm.shard_recoveries
        shard_rows = []
        for shard in range(shards):
            breaker = (
                self.breakers[shard]
                if shard < len(self.breakers)
                else CircuitBreaker(self.breaker_config)
            )
            shard_rows.append(
                {
                    "shard": shard,
                    "pid": pids[shard] or 0,
                    "health": states[shard],
                    "breaker": breaker.state,
                    "breaker_opens": breaker.opens,
                    "recoveries": recoveries[shard],
                }
            )
        return {
            **farm_metrics.to_dict(),
            "admitted": self.admitted,
            "served": self.served,
            "overloaded": self.overloaded,
            "errors": self.errors,
            "latency_p50_seconds": farm_metrics.latency_p50,
            "latency_p99_seconds": farm_metrics.latency_p99,
            "shards": shard_rows,
        }

    # -- per-shard micro-batching dispatch -----------------------------
    async def _dispatch_loop(self, shard: int) -> None:
        """Coalesce one shard's queue into micro-batches and serve them."""
        loop = asyncio.get_running_loop()
        queue = self._queues[shard]
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _STOP:
                return
            batch = [item]
            window_ends = loop.time() + self.batch_window
            while len(batch) < self.batch_max:
                remaining = window_ends - loop.time()
                if remaining <= 0 and queue.empty():
                    break
                try:
                    nxt = (
                        queue.get_nowait()
                        if remaining <= 0
                        else await asyncio.wait_for(queue.get(), remaining)
                    )
                except (asyncio.TimeoutError, asyncio.QueueEmpty):
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            await self._dispatch_batch(shard, batch)
        # Drain sentinel consumed mid-window: everything already answered.

    async def _dispatch_batch(
        self, shard: int, batch: list[_Pending]
    ) -> None:
        loop = asyncio.get_running_loop()
        breaker = self.breakers[shard]
        now = loop.time()
        live: list[_Pending] = []
        for item in batch:
            if item.expires_at is not None and now > item.expires_at:
                self.inflight -= 1
                # A deadline blown in the queue is the shard being slow:
                # it counts against the breaker like a failure.
                breaker.record_failure()
                await self._overload(
                    item.conn,
                    item.request.request_id,
                    "deadline expired while queued",
                )
            else:
                live.append(item)
        if not live:
            return
        try:
            fault = fire_fault(
                DISPATCH_FAULT_POINT, context=f"shard={shard}"
            )
            if fault is not None and fault.mode == "kill":
                kill_process(fault)
            entries = [
                (
                    item.request.key,
                    list(item.request.sources),
                    list(item.request.targets),
                )
                for item in live
            ]
            results = await loop.run_in_executor(
                self._executors[shard],
                self.farm.serve_grouped,
                shard,
                entries,
            )
        except Exception as exc:  # noqa: BLE001 - answered per request
            for item in live:
                self.inflight -= 1
                self.errors += 1
                breaker.record_failure()
                await self._send(
                    item.conn,
                    protocol.encode_response(
                        item.request.request_id,
                        protocol.STATUS_ERROR,
                        message=f"{type(exc).__name__}: {exc}",
                        retry_after=breaker.retry_after(),
                    ),
                )
            return
        # Invariant (no silent drops): every admitted request lands in
        # exactly one of served / overloaded / errors.
        for item, result in zip(live, results):
            self.inflight -= 1
            self.served += 1
            breaker.record_success()
            await self._send(
                item.conn,
                protocol.encode_response(
                    item.request.request_id,
                    protocol.STATUS_OK,
                    totals=(
                        result.m,
                        result.total_routing,
                        result.total_rotations,
                        result.total_links_changed,
                    ),
                ),
            )


async def _close_connection(conn: _Connection) -> None:
    if conn.closed:
        return
    conn.closed = True
    try:
        conn.writer.close()
        await conn.writer.wait_closed()
    except (ConnectionError, RuntimeError):
        pass
