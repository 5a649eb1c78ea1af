"""Workload ``ingress-zipf``: the socket serving path, measured from a client.

A fresh ``python -m repro serve --shards 2 -n 1024 -k 4`` (every other flag
at its default) listens on TCP loopback; all traffic crosses loopback.
This process is the only load generator: one thread, ``min(2, nproc)``
``AsyncIngressClient`` connections, one request per ``serve()`` frame.
64 keys are each pinned to one connection, so per-key order holds end to
end.  Endpoints are Zipf(1.2) over n = 1024 (``zipf_trace``).

A run spawns three fresh servers in turn.  Each gets an untimed warm-up
touching every key and a closed loop with 128 requests in flight per
connection; the last also gets an open loop on a fixed schedule of
2,000 req/s whose latency is timed from each request's due time.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from repro.errors import IngressError
from repro.ingress import AsyncIngressClient
from repro.net.session import open_session
from repro.workloads.synthetic import zipf_trace

from common import (
    HERE,
    ROOT,
    WORK,
    Phases,
    cpu_seconds,
    environment,
    median,
    percentile,
    status_kb,
)

N = 1024
K = 4
SHARDS = 2
KEYS = 64
ALPHA = 1.2
INFLIGHT = 128
OPEN_RATE = 2000.0
WARMUP_PER_KEY = 64
#: Server lifetimes per run; each is spawned fresh and timed.
LIFETIMES = 3
#: ``cpu_s`` is the CPU time the client, gateway and workers spend on
#: this many closed-loop requests.
BLOCK = 10_000
#: Closed-loop requests per second of ``--seconds``, split over the
#: lifetimes.  The closed loop is a fixed count, not a fixed time, so every
#: run grows the replay journal (and with it ``peak_rss_mb``) equally.
CLOSED_PER_SECOND = 5_000
SERVE_FLAGS = ["--shards", str(SHARDS), "-n", str(N), "-k", str(K)]
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One gateway process: spawn, readiness, graceful stop, cleanup."""

    def __init__(self, traced: bool, tag: str) -> None:
        self.traced = traced
        self.trace_path = WORK / "tmp" / f"serve-trace-{tag}.json"
        self.stderr_path = WORK / "tmp" / f"serve-stderr-{tag}.txt"
        self.proc = None
        self.port = None
        self.shard_pids: list[int] = []
        self.drained = ""

    def start(self) -> None:
        if self.traced:
            self.trace_path.unlink(missing_ok=True)
            cmd = [
                sys.executable,
                str(HERE / "serve_traced.py"),
                str(self.trace_path),
                *SERVE_FLAGS,
            ]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *SERVE_FLAGS]
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0, remaining))
            if not ready:
                raise RuntimeError("repro serve printed no readiness line")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited early: {self.stderr_path.read_text()}"
                )
            if line.startswith("ingress listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                return

    def stop(self) -> bool:
        """SIGTERM; true when the server drained and exited with code 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._close_files()
        lines = self.stderr_path.read_text().splitlines()
        self.drained = next((l for l in lines if l.startswith("drained:")), "")
        return code == 0 and bool(self.drained)

    def kill(self) -> None:
        """Last resort on an error path: kill the gateway and its workers."""
        if self.proc is None or self.proc.poll() is not None:
            return
        for pid in self.shard_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.kill()
        self.proc.wait()
        self._close_files()

    def _close_files(self) -> None:
        self.proc.stdout.close()
        self._stderr.close()


class Stream:
    """The seeded request stream, split by connection.

    Request ``i`` uses key ``i % 64``; with the key count a multiple of
    the connection count, connection ``c`` owns exactly the requests
    ``i = c + conns * j`` and sends them in ``j`` order.
    """

    def __init__(
        self, seed: int, closed: int, open_seconds: float, conns: int
    ) -> None:
        total = KEYS * WARMUP_PER_KEY + closed + int(OPEN_RATE * open_seconds)
        trace = zipf_trace(N, total, ALPHA, seed)
        self.sources = trace.sources.tolist()
        self.targets = trace.targets.tolist()
        self.conns = conns
        self.keys = [f"key-{q:02d}" for q in range(KEYS)]
        self.cursor = [0] * conns
        #: Per-key socket totals: requests, routing, rotations, links.
        self.totals = {key: [0, 0, 0, 0] for key in self.keys}
        self.failed: list[int] = []

    def take(self, conn: int) -> int:
        i = conn + self.conns * self.cursor[conn]
        self.cursor[conn] += 1
        return i

    async def send(self, client, i: int) -> bool:
        """Serve request ``i``; false when the server refused or failed it."""
        key = self.keys[i % KEYS]
        try:
            result = await client.serve(key, self.sources[i], self.targets[i])
        except IngressError:
            self.failed.append(i)
            return False
        row = self.totals[key]
        row[0] += result.m
        row[1] += result.total_routing
        row[2] += result.total_rotations
        row[3] += result.total_links_changed
        return True

    def clean_totals(self) -> dict[str, list[int]]:
        """Oracle: a clean ``open_session`` per key over everything sent."""
        failed = set(self.failed)
        sent = [
            i
            for c in range(self.conns)
            for i in range(c, c + self.conns * self.cursor[c], self.conns)
            if i not in failed
        ]
        sent.sort()
        sources = np.asarray(self.sources)
        targets = np.asarray(self.targets)
        index = np.asarray(sent, dtype=np.int64)
        totals = {}
        for q, key in enumerate(self.keys):
            mine = index[index % KEYS == q]
            batch = open_session("kary-splaynet", n=N, k=K).serve_stream(
                sources[mine], targets[mine]
            )
            totals[key] = [
                batch.m,
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            ]
        return totals


async def _closed(stream, clients, phases, phase, count):
    """Closed loop: INFLIGHT outstanding requests per connection.

    Each connection sends ``count`` requests.  Returns the per-request
    latencies.
    """
    latencies: list[float] = []
    sent = [0] * len(clients)

    async def worker(c, client):
        while sent[c] < count:
            sent[c] += 1
            i = stream.take(c)
            start = time.monotonic()
            ok = await stream.send(client, i)
            end = time.monotonic()
            if ok:
                latencies.append(end - start)

    await asyncio.gather(
        *(
            worker(c, client)
            for c, client in enumerate(clients)
            for _ in range(INFLIGHT)
        )
    )
    phases.record(phase, sum(sent), sum(sent) - len(latencies))
    return latencies


async def _open(stream, clients, phases, seconds):
    """Open loop at OPEN_RATE; latency is timed from each due time."""
    conns = len(clients)
    per_conn = int(OPEN_RATE * seconds / conns)
    period = conns / OPEN_RATE
    latencies: list[float] = []
    lateness: list[float] = []
    tasks: list[asyncio.Task] = []

    async def one(client, i, due):
        if await stream.send(client, i):
            latencies.append(time.monotonic() - due)

    async def generator(c, client, start):
        j = 0
        while j < per_conn:
            now = time.monotonic()
            while j < per_conn and start + (j + c / conns) * period <= now:
                due = start + (j + c / conns) * period
                lateness.append(time.monotonic() - due)
                tasks.append(
                    asyncio.ensure_future(one(client, stream.take(c), due))
                )
                j += 1
            if j < per_conn:
                due = start + (j + c / conns) * period
                await asyncio.sleep(max(0.0, due - time.monotonic()))

    start = time.monotonic() + 0.05
    await asyncio.gather(
        *(generator(c, client, start) for c, client in enumerate(clients))
    )
    await asyncio.gather(*tasks)
    phases.record("open", len(tasks), len(tasks) - len(latencies))
    return latencies, lateness


def _layer_from_trace(path: Path, start: float, end: float, requests: int):
    """Wrapper records of the traced gateway, cut to ``[start, end]``."""
    data = json.loads(path.read_text())
    inside = [c for c in data["calls"] if c[1] >= start and c[2] <= end]
    before: dict[int, float] = {}
    after: dict[int, float] = {}
    for shard, _, call_end, _, busy in data["calls"]:
        if call_end < start:
            before[shard] = busy
        if call_end <= end:
            after[shard] = busy
    busy = [after.get(s, 0.0) - before.get(s, 0.0) for s in range(SHARDS)]
    codec = sum(
        seconds
        for bucket, seconds in data["codec"].items()
        if start * 10 <= int(bucket) < end * 10
    )
    grouped_ms = [(c[2] - c[1]) * 1000 for c in inside]
    return {
        "serving.grouped_calls": len(inside),
        "serving.grouped_batch_mean": sum(c[3] for c in inside) / len(inside),
        "serving.grouped_ms_p50": percentile(grouped_ms, 50),
        "serving.grouped_ms_p99": percentile(grouped_ms, 99),
        "serving.busy_us_per_req": sum(busy) / requests * 1e6,
        "serving.shard_busy_skew": max(busy) / (sum(busy) / len(busy)),
        "ingress.codec_us_per_req": codec / requests * 1e6,
    }


async def _lifetime(seed, closed_count, open_seconds, traced, tag):
    """One server: timed set-up, warm-up, closed loop, open loop, stop.

    The server is fresh, so its replay journal and sessions start empty,
    and its per-key totals are checked against clean sessions.
    """
    phases = Phases()
    conns = min(2, os.cpu_count() or 1)
    stream = Stream(seed, closed_count, open_seconds, conns)
    server = Server(traced, tag)
    clients = []
    try:
        # Set-up is timed from spawn until the readiness line and the
        # first answered PING.
        started = time.monotonic()
        server.start()
        clients = [AsyncIngressClient(port=server.port) for _ in range(conns)]
        for client in clients:
            await client.connect()
        await clients[0].ping()
        setup_s = time.monotonic() - started
        phases.record("setup_ping", 1, 0)
        snapshot = await clients[0].metrics()
        server.shard_pids = [row["pid"] for row in snapshot["shards"]]
        gateway = server.proc.pid

        await _closed(
            stream, clients, phases, "warmup", KEYS * WARMUP_PER_KEY // conns
        )

        def cpu():
            return (
                cpu_seconds(os.getpid()),
                cpu_seconds(gateway),
                sum(cpu_seconds(p) for p in server.shard_pids),
            )

        before = await clients[0].metrics()
        cpu0, rss0 = cpu(), status_kb(gateway, "VmRSS")
        start = time.monotonic()
        latencies = await _closed(
            stream, clients, phases, "closed", closed_count // conns
        )
        end = time.monotonic()
        cpu1, rss1 = cpu(), status_kb(gateway, "VmRSS")
        after = await clients[0].metrics()
        served = after["served"] - before["served"]

        open_latencies, lateness = [], []
        if open_seconds:
            open_latencies, lateness = await _open(
                stream, clients, phases, open_seconds
            )

        peak_kb = status_kb(gateway, "VmHWM") + sum(
            status_kb(p, "VmHWM") for p in server.shard_pids
        )
        for client in clients:
            await client.close()
        clients = []
        stopped = server.stop()
        phases.record("stop", 1, 0 if stopped else 1)
    finally:
        for client in clients:
            await client.close()
        server.kill()

    per_req = 1e6 / served
    layer = {
        "client.cpu_us_per_req": (cpu1[0] - cpu0[0]) * per_req,
        "ingress.cpu_us_per_req": (cpu1[1] - cpu0[1]) * per_req,
        "serving.worker_cpu_us_per_req": (cpu1[2] - cpu0[2]) * per_req,
        "ingress.rss_growth_kb_per_kreq": (rss1 - rss0) / (served / 1000),
        "ingress.admitted": after["admitted"] - before["admitted"],
        "ingress.served": served,
        "ingress.overloaded": after["overloaded"] - before["overloaded"],
        "ingress.errors": after["errors"] - before["errors"],
    }
    if lateness:
        layer["gen.late_ms_p99"] = percentile(lateness, 99) * 1000
        layer["gen.late_ms_max"] = max(lateness) * 1000
    if traced:
        layer.update(_layer_from_trace(server.trace_path, start, end, served))
    return {
        "setup_s": setup_s,
        "phases": phases,
        "rps": served / (end - start),
        "cpu_s": sum(cpu1) - sum(cpu0),
        "served": served,
        "latencies": latencies,
        "open_latencies": open_latencies,
        "peak_rss_mb": peak_kb / 1024,
        "checks": {
            "drained_exit_0": stopped,
            "per_key_totals_match": stream.clean_totals() == stream.totals,
        },
        "drained": server.drained,
        "layer": layer,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    closed = int(CLOSED_PER_SECOND * seconds) // LIFETIMES
    if trace:
        # The untraced lifetime gives the /proc-based layer numbers and the
        # base of the tracing overhead; the traced one the wrapper spans.
        base = asyncio.run(_lifetime(seed, closed, seconds / 2, False, "base"))
        traced = asyncio.run(_lifetime(seed, closed, seconds / 2, True, "traced"))
        lives, timed = [base, traced], [base]
        layer = {**traced["layer"], **base["layer"]}
        layer["trace.overhead_frac"] = (
            traced["cpu_s"] / traced["served"] / (base["cpu_s"] / base["served"])
            - 1.0
        )
    else:
        # Several short server lifetimes, each with its own set-up, and
        # medians across them: one unlucky process placement then moves a
        # run's figures less than one long lifetime would.
        lives = timed = [
            asyncio.run(
                _lifetime(
                    seed,
                    closed,
                    seconds / 2 if life == LIFETIMES - 1 else 0,
                    False,
                    f"run-{life}",
                )
            )
            for life in range(LIFETIMES)
        ]
        layer = {}

    phases = Phases()
    checks: dict[str, bool] = {}
    for life in lives:
        for phase, row in life["phases"].rows.items():
            phases.record(phase, row["sent"], row["failed"])
        for name, ok in life["checks"].items():
            checks[name] = checks.get(name, True) and ok

    setup_s = median([life["setup_s"] for life in timed])
    cpu_s = median([life["cpu_s"] / life["served"] * BLOCK for life in timed])
    peak_rss_mb = timed[-1]["peak_rss_mb"]
    lat = [x * 1000 for life in timed for x in life["latencies"]]
    open_lat = [x * 1000 for x in timed[-1]["open_latencies"]]
    report = {
        "setup_s": (setup_s, "s", len(timed)),
        "ingress_rps": (
            median([life["rps"] for life in timed]), "req/s", len(timed)
        ),
        "ingress_p50_ms": (percentile(lat, 50), "ms", len(lat)),
        "ingress_p99_ms": (percentile(lat, 99), "ms", len(lat)),
        "ingress_open_p50_ms": (percentile(open_lat, 50), "ms", len(open_lat)),
        "ingress_open_p99_ms": (percentile(open_lat, 99), "ms", len(open_lat)),
        "cpu_s": (cpu_s, "s", len(timed)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1 + SHARDS),
        "fail_frac": (phases.failed / phases.sent, "ratio", phases.sent),
    }
    return dict(
        env=env,
        phases=phases,
        report=report,
        checks=checks,
        e2e={"setup_s": setup_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb},
        layer=layer,
        notes={
            "transport": "TCP loopback 127.0.0.1",
            "drained": [life["drained"] for life in lives],
        },
    )
