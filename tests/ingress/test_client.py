"""Ingress clients: retry-on-reconnect, failure taxonomy, fault drills.

The reliability pins of the gateway:

* a dropped/refused connection is :class:`IngressConnectionError` — the
  retryable state — and the blocking client's
  :class:`~repro.reliability.retry.RetryPolicy` absorbs it by
  reconnecting (including across a full server restart);
* ``OVERLOAD`` and ``ERROR`` responses raise typed exceptions and are
  never retried automatically;
* the ``ingress.accept`` and ``ingress.dispatch`` fault points produce
  exactly those states on demand — the dispatch ``kill`` drill runs the
  server as a real subprocess and asserts the client lands retryable.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    IngressConnectionError,
    IngressError,
    IngressOverload,
)
from repro.ingress import (
    AsyncIngressClient,
    IngressClient,
    IngressServer,
    default_retry_policy,
)
from repro.reliability.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)
from repro.reliability.retry import RetryPolicy
from repro.serving import ServeFarm

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _serve_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def _spawn_server(*args: str, **env_extra: str) -> tuple:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "-n", "16",
         *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_serve_env(**env_extra),
        text=True,
    )
    line = proc.stdout.readline()
    match = re.match(r"ingress listening on (\S+):(\d+)", line)
    assert match, f"no readiness line, got {line!r}"
    return proc, match.group(1), int(match.group(2))


def _process_alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    if os.path.isdir("/proc/self"):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:  # no procfs: a signal-0 probe
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestBlockingClient:
    def test_round_trip_and_context_manager(self, tmp_path):
        async def run():
            farm = ServeFarm("kary-splaynet", n=16, k=2, shards=1)
            server = IngressServer(farm, path=str(tmp_path / "i.sock"))
            await server.start()

            def blocking():
                with IngressClient(path=server.address) as client:
                    assert client.ping()
                    assert client.server_shards == 1
                    one = client.serve("a", 1, 9)
                    batch = client.serve_batch("a", [2, 3], [8, 7])
                    metrics = client.metrics()
                    return one, batch, metrics

            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, blocking
                )
            finally:
                await server.drain()
            return result

        one, batch, metrics = asyncio.run(run())
        assert one.m == 1
        assert batch.m == 2
        assert metrics["requests"] == 3

    def test_connect_refused_is_retryable_error(self, tmp_path):
        client = IngressClient(
            path=str(tmp_path / "nobody-home.sock"),
            retry=RetryPolicy(retries=0),
        )
        with pytest.raises(IngressConnectionError):
            client.ping()

    def test_requires_exactly_one_endpoint(self):
        with pytest.raises(IngressError, match="exactly one"):
            IngressClient()
        with pytest.raises(IngressError, match="exactly one"):
            IngressClient(port=1234, path="/tmp/x.sock")

    def test_server_error_raises_and_is_not_retried(self, tmp_path):
        """Node id 99 is out of range for n=16 on every engine — the
        farm's error must arrive as IngressError (one attempt; errors
        are not transient)."""
        async def run():
            farm = ServeFarm("kary-splaynet", n=16, k=2, shards=1)
            server = IngressServer(farm, path=str(tmp_path / "i.sock"))
            await server.start()

            def blocking():
                with IngressClient(path=server.address) as client:
                    with pytest.raises(IngressError, match="server error"):
                        client.serve("a", 99, 9)
                    # The connection survives an ERROR response.
                    return client.serve("a", 1, 9)

            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, blocking
                )
            finally:
                await server.drain()
            return result, server.errors

        result, errors = asyncio.run(run())
        assert result.m == 1
        assert errors == 1

    def test_retry_reconnects_across_server_restart(self):
        """Kill the server between calls; the retry policy must
        transparently reconnect to its replacement on the same port."""
        proc_a, host, port = _spawn_server("--shards", "1")
        client = IngressClient(host, port, retry=default_retry_policy())
        try:
            assert client.serve("a", 1, 9).m == 1
            proc_a.send_signal(signal.SIGTERM)
            assert proc_a.wait(timeout=30) == 0

            # Hold the port hostage is racy on a shared box; instead the
            # replacement binds a fresh port and the client re-targets —
            # the retry still exercises close-detect + reconnect.
            proc_b, host_b, port_b = _spawn_server("--shards", "1")
            try:
                client.host, client.port = host_b, port_b
                assert client.serve("a", 2, 8).m == 1
            finally:
                proc_b.send_signal(signal.SIGTERM)
                assert proc_b.wait(timeout=30) == 0
        finally:
            client.close()
            if proc_a.poll() is None:
                proc_a.kill()

    def test_overload_raises_typed_exception(self):
        """A draining server answers OVERLOAD; the client surfaces it as
        IngressOverload, not a retry loop."""
        import repro.ingress.server as server_mod
        from repro.network.protocols import BatchServeResult
        from repro.serving import FarmMetrics, ShardRouter

        class StubFarm:
            shards = 1
            router = ShardRouter(1)
            metrics = FarmMetrics()
            shard_recoveries = [0]

            def shard_pids(self):
                return [None]

            def health_states(self):
                return ["healthy"]

            def serve_grouped(self, shard, batches):
                return [
                    BatchServeResult(len(s), 0, 0, 0, None, None)
                    for _k, s, _t in batches
                ]

            def close(self):
                pass

        async def run():
            server = IngressServer(StubFarm(), port=0, max_inflight=1)
            await server.start()
            host, port = server.address
            server._draining = True  # simulate mid-drain admission

            def blocking():
                with IngressClient(host, port) as client:
                    with pytest.raises(IngressOverload, match="draining"):
                        client.serve("a", 1, 2)

            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, blocking
                )
            finally:
                server._draining = False
                await server.drain()

        asyncio.run(run())
        assert server_mod is not None  # silence unused-import linters


class TestAcceptFault:
    def test_accept_fault_drops_connection_and_retry_absorbs_it(
        self, tmp_path
    ):
        """ingress.accept (error mode, first connection only): the first
        connect dies before the handshake; the client's policy
        reconnects and the second attempt succeeds."""
        plan = FaultPlan(
            specs=(FaultSpec("ingress.accept", mode="error", at=(1,)),)
        )

        async def run():
            farm = ServeFarm("kary-splaynet", n=16, k=2, shards=1)
            server = IngressServer(farm, path=str(tmp_path / "i.sock"))
            await server.start()
            install_fault_plan(plan)

            def blocking():
                client = IngressClient(
                    path=server.address,
                    retry=RetryPolicy(
                        retries=2,
                        base=0.01,
                        retry_on=(IngressConnectionError,),
                    ),
                )
                with client:
                    return client.serve("a", 1, 9)

            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, blocking
                )
            finally:
                clear_fault_plan()
                await server.drain()
            return result, server.rejected_connections

        result, rejected = asyncio.run(run())
        assert result.m == 1
        assert rejected == 1

    def test_accept_fault_without_retry_is_connection_error(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec("ingress.accept", mode="error", at=(1,)),)
        )

        async def run():
            farm = ServeFarm("kary-splaynet", n=16, k=2, shards=1)
            server = IngressServer(farm, path=str(tmp_path / "i.sock"))
            await server.start()
            install_fault_plan(plan)

            def blocking():
                client = IngressClient(
                    path=server.address, retry=RetryPolicy(retries=0)
                )
                with pytest.raises(IngressConnectionError):
                    client.ping()

            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, blocking
                )
            finally:
                clear_fault_plan()
                await server.drain()

        asyncio.run(run())


class TestDispatchFault:
    def test_dispatch_error_is_relayed_as_error_response(self, tmp_path):
        """ingress.dispatch (error mode): the injected micro-batch
        failure is answered to the client as ERROR — and the next
        request on the same connection is served normally."""
        plan = FaultPlan(
            specs=(FaultSpec("ingress.dispatch", mode="error", at=(1,)),)
        )

        async def run():
            farm = ServeFarm("kary-splaynet", n=16, k=2, shards=1)
            server = IngressServer(farm, path=str(tmp_path / "i.sock"))
            await server.start()
            install_fault_plan(plan)

            def blocking():
                with IngressClient(path=server.address) as client:
                    with pytest.raises(
                        IngressError, match="FaultInjected"
                    ):
                        client.serve("a", 1, 9)
                    return client.serve("a", 1, 9)

            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, blocking
                )
            finally:
                clear_fault_plan()
                await server.drain()
            return result, server.errors, server.served

        result, errors, served = asyncio.run(run())
        assert result.m == 1
        assert errors == 1
        assert served == 1

    def test_dispatch_kill_leaves_client_in_retryable_state(self):
        """ingress.dispatch (kill mode) against a real server process:
        the server hard-exits mid-stream, the client sees the dropped
        connection as IngressConnectionError — the state its retry
        policy treats as transient — and a replacement server serves the
        retried request."""
        plan = FaultPlan(
            specs=(FaultSpec("ingress.dispatch", mode="kill", at=(1,)),)
        )
        proc, host, port = _spawn_server(
            "--shards", "1", **{FAULTS_ENV: plan.to_env()}
        )
        client = IngressClient(host, port, retry=RetryPolicy(retries=0))
        worker_pid = None
        try:
            (shard,) = client.metrics()["shards"]
            worker_pid = shard["pid"]
            assert worker_pid and _process_alive(worker_pid)
            with pytest.raises(IngressConnectionError):
                client.serve("a", 1, 9)
            assert proc.wait(timeout=30) == 77  # kill_process exit code
            # The hard exit never told the shard worker to close: it must
            # notice its parent's pipes hit EOF and exit on its own.
            deadline = time.monotonic() + 5.0
            while _process_alive(worker_pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _process_alive(worker_pid), "orphaned shard worker"
            assert default_retry_policy().is_transient(
                IngressConnectionError("downed mid-stream")
            )
            # A replacement server completes the interrupted work.
            proc_b, host_b, port_b = _spawn_server("--shards", "1")
            try:
                client.host, client.port = host_b, port_b
                assert client.serve("a", 1, 9).m == 1
            finally:
                proc_b.send_signal(signal.SIGTERM)
                assert proc_b.wait(timeout=30) == 0
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()
            if worker_pid and _process_alive(worker_pid):
                try:  # never leave an orphan behind a failed assertion
                    os.kill(worker_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestAsyncClient:
    def test_multiplexes_and_fails_pending_on_disconnect(self, tmp_path):
        """Pending multiplexed requests fail with the retryable error
        when the connection drops mid-flight."""
        gate = threading.Event()

        from repro.network.protocols import BatchServeResult
        from repro.serving import FarmMetrics, ShardRouter

        class StubFarm:
            shards = 1
            router = ShardRouter(1)
            metrics = FarmMetrics()
            shard_recoveries = [0]

            def shard_pids(self):
                return [None]

            def health_states(self):
                return ["healthy"]

            def serve_grouped(self, shard, batches):
                assert gate.wait(timeout=30)
                return [
                    BatchServeResult(len(s), 0, 0, 0, None, None)
                    for _k, s, _t in batches
                ]

            def close(self):
                pass

        async def run():
            server = IngressServer(
                StubFarm(), port=0, batch_window=0.0, batch_max=1
            )
            await server.start()
            host, port = server.address
            client = AsyncIngressClient(host, port)
            await client.connect()
            pending = [
                asyncio.ensure_future(client.serve("k", 1, 2))
                for _ in range(3)
            ]
            await asyncio.sleep(0.1)
            await client.close()  # drops the connection under them
            results = await asyncio.gather(*pending, return_exceptions=True)
            gate.set()
            await server.drain()
            return results

        results = asyncio.run(run())
        assert len(results) == 3
        assert all(isinstance(r, IngressConnectionError) for r in results)

    def test_requires_exactly_one_endpoint(self):
        with pytest.raises(IngressError, match="exactly one"):
            AsyncIngressClient()

    def test_serve_stream_with_retry_policy(self, tmp_path):
        """serve_stream's retry path: an accept fault on the first
        connection is absorbed by the async retry loop."""
        plan = FaultPlan(
            specs=(FaultSpec("ingress.accept", mode="error", at=(1,)),)
        )

        async def run():
            farm = ServeFarm("kary-splaynet", n=16, k=2, shards=1)
            server = IngressServer(farm, path=str(tmp_path / "i.sock"))
            await server.start()
            install_fault_plan(plan)
            client = AsyncIngressClient(path=server.address)
            try:
                totals, latency = await client.serve_stream(
                    [("a", 1, 9), ("a", 2, 8), ("b", 3, 7)],
                    concurrency=1,
                    retry=RetryPolicy(
                        retries=2,
                        base=0.01,
                        retry_on=(IngressConnectionError,),
                    ),
                )
            finally:
                await client.close()
                clear_fault_plan()
                await server.drain()
            return totals, latency

        totals, latency = asyncio.run(run())
        assert totals.m == 3
        assert latency.total == 3
