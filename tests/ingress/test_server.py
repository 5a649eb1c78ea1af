"""The ingress server: exactness, micro-batching, backpressure, shedding.

Two kinds of fixture here:

* a **real farm** over a UNIX socket for end-to-end exactness — socket
  totals must equal clean per-key sessions because the gateway preserves
  per-key request order;
* a **stub farm** (in-process, controllable blocking) for the load
  pins: a full shard queue must stop connection reads (backpressure),
  admission control and expired deadlines must answer ``OVERLOAD``
  (never a silent drop), and drain must answer everything admitted.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import IngressOverload
from repro.ingress import AsyncIngressClient, IngressServer
from repro.net import open_session
from repro.network.protocols import BatchServeResult
from repro.serving import FarmMetrics, ServeFarm, ShardRouter


def keyed_requests(n: int, m: int, keys: int, seed: int = 0):
    import random

    rng = random.Random(seed)
    return [
        (
            f"key-{i % keys}",
            rng.randrange(1, n + 1),
            rng.randrange(1, n + 1),
        )
        for i in range(m)
    ]


def clean_totals(requests, n: int, k: int):
    per_key: dict = {}
    for key, u, v in requests:
        per_key.setdefault(key, ([], []))
        per_key[key][0].append(u)
        per_key[key][1].append(v)
    totals = [0, 0, 0, 0]
    for key, (sources, targets) in per_key.items():
        session = open_session("kary-splaynet", n=n, k=k)
        batch = session.serve_stream(sources, targets)
        totals[0] += batch.m
        totals[1] += batch.total_routing
        totals[2] += batch.total_rotations
        totals[3] += batch.total_links_changed
    return totals


class _StubFarm:
    """Farm-shaped object with a controllable, observable serve path."""

    def __init__(self, shards: int = 1, *, gate: threading.Event = None):
        self.shards = shards
        self.router = ShardRouter(shards)
        self.metrics = FarmMetrics()
        self.gate = gate  # serve_grouped blocks on this when set
        self.calls: list[list] = []
        self.closed = False
        self.shard_recoveries = [0] * shards

    def shard_pids(self):
        return [None] * self.shards

    def health_states(self):
        return ["healthy"] * self.shards

    def serve_grouped(self, shard, batches):
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "stub farm gate never opened"
        self.calls.append(list(batches))
        return [
            BatchServeResult(len(sources), 1, 0, 0, None, None)
            for _key, sources, _targets in batches
        ]

    def close(self):
        self.closed = True


class TestEndToEndExactness:
    def test_socket_totals_equal_clean_sessions(self, tmp_path):
        """Mixed scalar+batch traffic over the socket is exactly the
        clean per-key result — scheduling may reorder across keys, never
        within one."""
        n, k, keys = 32, 2, 5
        requests = keyed_requests(n, 120, keys)

        async def run():
            farm = ServeFarm("kary-splaynet", n=n, k=k, shards=2)
            server = IngressServer(
                farm, path=str(tmp_path / "ingress.sock")
            )
            await server.start()
            try:
                async with AsyncIngressClient(path=server.address) as client:
                    assert client.server_shards == 2
                    assert await client.ping()
                    totals, _latency = await client.serve_stream(
                        requests, concurrency=32
                    )
                    # A batched call on top, mirrored in the oracle below.
                    extra = await client.serve_batch(
                        "key-0", [1, 2, 3], [9, 8, 7]
                    )
                    metrics = await client.metrics()
            finally:
                await server.drain()
            return totals, extra, metrics, server

        totals, extra, metrics, server = asyncio.run(run())
        oracle = clean_totals(
            requests + [("key-0", 1, 9), ("key-0", 2, 8), ("key-0", 3, 7)],
            n,
            k,
        )
        combined = [
            totals.m + extra.m,
            totals.total_routing + extra.total_routing,
            totals.total_rotations + extra.total_rotations,
            totals.total_links_changed + extra.total_links_changed,
        ]
        assert combined == oracle
        assert metrics["requests"] == len(requests) + 3
        assert metrics["overloaded"] == 0
        # Every admitted request was answered; drain closed the farm.
        assert server.served == server.admitted
        assert server.inflight == 0

    def test_micro_batching_coalesces_pipe_round_trips(self, tmp_path):
        """Many concurrent requests on one shard must collapse into far
        fewer farm dispatches than requests — the whole point of the
        gateway's coalescing window."""
        n, m = 16, 60

        async def run():
            farm = ServeFarm("kary-splaynet", n=n, k=2, shards=1)
            server = IngressServer(
                farm,
                path=str(tmp_path / "ingress.sock"),
                batch_window=0.05,
                batch_max=256,
            )
            await server.start()
            try:
                async with AsyncIngressClient(path=server.address) as client:
                    await asyncio.gather(
                        *(
                            client.serve("key-0", 1 + i % n, 1 + (i + 7) % n)
                            for i in range(m)
                        )
                    )
                windows = farm.metrics.windows
            finally:
                await server.drain()
            return windows

        windows = asyncio.run(run())
        # One pipe round trip per dispatched micro-batch; with 60
        # requests in flight and a 50 ms window this must be far below
        # one-round-trip-per-request (the batch-size-1 behaviour).
        assert windows < m / 2, f"{windows} dispatches for {m} requests"


class TestBackpressure:
    def test_full_shard_queue_stops_connection_reads(self):
        """With the dispatcher blocked and queue_depth=1, the server
        must stop *reading* — admissions stall while the client keeps
        sending — then serve everything once the shard unblocks."""
        gate = threading.Event()
        farm = _StubFarm(shards=1, gate=gate)
        sent = 10

        async def run():
            server = IngressServer(
                farm,
                port=0,
                batch_window=0.0,
                batch_max=1,
                queue_depth=1,
            )
            await server.start()
            host, port = server.address
            try:
                async with AsyncIngressClient(host, port) as client:
                    calls = [
                        asyncio.ensure_future(client.serve("k", 1, 2))
                        for _ in range(sent)
                    ]
                    # Give the reader every chance to over-admit.
                    await asyncio.sleep(0.3)
                    stalled_admitted = server.admitted
                    gate.set()
                    results = await asyncio.gather(*calls)
            finally:
                gate.set()
                await server.drain()
            return stalled_admitted, results

        stalled_admitted, results = asyncio.run(run())
        # At most: 1 dispatched (blocked in the executor), 1 queued,
        # 1 suspended in put() — the rest MUST still be unread bytes.
        assert stalled_admitted <= 3, (
            f"server admitted {stalled_admitted}/{sent} requests while its"
            " only shard was saturated — backpressure is not holding"
        )
        assert len(results) == sent
        assert all(r.m == 1 for r in results)

    def test_admission_control_sheds_with_explicit_overload(self):
        """Past max_inflight, requests get OVERLOAD — and the sum of
        served + overloaded equals everything sent: no silent drops."""
        gate = threading.Event()
        farm = _StubFarm(shards=1, gate=gate)
        sent, cap = 6, 2

        async def run():
            server = IngressServer(
                farm,
                port=0,
                batch_window=0.0,
                batch_max=1,
                queue_depth=64,
                max_inflight=cap,
            )
            await server.start()
            host, port = server.address
            try:
                async with AsyncIngressClient(host, port) as client:
                    calls = [
                        asyncio.ensure_future(client.serve("k", 1, 2))
                        for _ in range(sent)
                    ]
                    outcomes = []
                    # Let the shed responses land, then open the gate so
                    # the admitted remainder is served.
                    while len(outcomes) < sent - cap:
                        await asyncio.sleep(0.01)
                        outcomes = [c for c in calls if c.done()]
                    gate.set()
                    results = await asyncio.gather(
                        *calls, return_exceptions=True
                    )
            finally:
                gate.set()
                await server.drain()
            return results, server

        results, server = asyncio.run(run())
        served = [r for r in results if isinstance(r, BatchServeResult)]
        shed = [r for r in results if isinstance(r, IngressOverload)]
        assert len(served) + len(shed) == sent
        assert len(shed) == sent - cap
        assert all("admission control" in str(e) for e in shed)
        assert server.served == len(served)
        assert server.overloaded == len(shed)

    def test_expired_deadline_is_overload_not_late_service(self):
        """A request whose deadline lapses while queued behind a stuck
        shard is answered OVERLOAD when its batch is finally cut."""
        gate = threading.Event()
        farm = _StubFarm(shards=1, gate=gate)

        async def run():
            server = IngressServer(
                farm, port=0, batch_window=0.0, batch_max=1
            )
            await server.start()
            host, port = server.address
            try:
                async with AsyncIngressClient(host, port) as client:
                    blocker = asyncio.ensure_future(
                        client.serve("k", 1, 2)
                    )
                    await asyncio.sleep(0.05)  # let it reach the executor
                    doomed = asyncio.ensure_future(
                        client.serve("k", 3, 4, deadline=0.05)
                    )
                    await asyncio.sleep(0.3)  # deadline lapses in queue
                    gate.set()
                    blocked_result = await blocker
                    with pytest.raises(IngressOverload, match="deadline"):
                        await doomed
            finally:
                gate.set()
                await server.drain()
            return blocked_result, server

        blocked_result, server = asyncio.run(run())
        assert blocked_result.m == 1
        assert server.overloaded == 1
        assert server.served == 1
        # The doomed request never reached the farm.
        assert len(farm.calls) == 1


class TestDrain:
    def test_drain_answers_backlog_then_closes_farm(self):
        """Everything admitted before the drain is served — the STOP
        sentinel queues behind the backlog — and the farm is closed."""
        gate = threading.Event()
        farm = _StubFarm(shards=1, gate=gate)
        sent = 4

        async def run():
            server = IngressServer(
                farm, port=0, batch_window=0.0, batch_max=1, queue_depth=64
            )
            await server.start()
            host, port = server.address
            async with AsyncIngressClient(host, port) as client:
                calls = [
                    asyncio.ensure_future(client.serve("k", 1, 2))
                    for _ in range(sent)
                ]
                await asyncio.sleep(0.1)  # all admitted, none served
                drain = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0.05)
                gate.set()
                results = await asyncio.gather(*calls)
                await drain
            return results

        results = asyncio.run(run())
        assert len(results) == sent
        assert all(r.m == 1 for r in results)
        assert farm.closed
        assert not [c for c in farm.calls if not c]

    def test_drain_is_idempotent_and_reports_stopped(self):
        farm = _StubFarm(shards=2)

        async def run():
            server = IngressServer(farm, port=0)
            await server.start()
            await server.drain()
            await server.drain()  # second call must be a no-op
            return server

        server = asyncio.run(run())
        assert farm.closed

    def test_close_farm_false_leaves_farm_open(self):
        farm = _StubFarm(shards=1)

        async def run():
            server = IngressServer(farm, port=0, close_farm=False)
            await server.start()
            await server.drain()

        asyncio.run(run())
        assert not farm.closed


class TestValidation:
    def test_bad_config_is_rejected(self):
        from repro.errors import ExperimentError

        farm = _StubFarm(shards=1)
        for kwargs in (
            {"batch_window": -0.1},
            {"batch_max": 0},
            {"queue_depth": 0},
            {"max_inflight": 0},
            {"port": 70_000},
            {"port": -1},
        ):
            with pytest.raises(ExperimentError):
                IngressServer(farm, **kwargs)

    def test_tcp_and_unix_are_exclusive_paths(self, tmp_path):
        # path= wins over host/port when given; both forms must bind.
        farm = _StubFarm(shards=1)

        async def run():
            server = IngressServer(
                farm, path=str(tmp_path / "x.sock"), close_farm=False
            )
            await server.start()
            address = server.address
            await server.drain()
            return address

        assert asyncio.run(run()) == str(tmp_path / "x.sock")
