"""Chaos soak harness: seeded fault storms against a live serve process.

The fault-injection drills in :mod:`repro.reliability.faults` prove each
recovery path in isolation.  This module composes them: it boots a real
``repro serve`` process (ingress gateway + sharded farm, exactly what
production runs), drives concurrent client load at it, and — seeded and
reproducibly — storms it for several rounds:

* every round SIGKILLs one shard worker (round-robin, so a full soak
  kills **every** shard at least once) while client lanes keep pumping;
* an injected :class:`~repro.reliability.faults.FaultPlan` (inherited by
  the server via ``REPRO_FAULTS``) fires ``error``-mode faults at the
  ``ingress.accept``, ``ingress.dispatch`` and ``farm.serve`` points at
  seeded invocation indices, exercising the client retry policy, the
  ingress circuit breakers and the farm's journal replay on top of the
  kills.  The plan is ledger-backed so a fired index stays fired across
  worker respawns (a replayed journal must not re-trip old faults);
* a control connection polls the v2 ``METRICS`` response (per-shard pid
  / health / breaker trailer) to time **detection** (the supervisor
  noticing the kill) and **recovery** (the shard healthy again under a
  new pid) from the outside, exactly as an operator would.

Because every layer below is exactly-once (the farm journals and replays
acknowledged batches; lanes resubmit only on *known-not-served* outcomes
— ``OVERLOAD`` responses and injected-fault ``ERROR`` responses, both
answered before any serving happened), the soak can check hard end-state
invariants rather than "it didn't crash":

* client-observed cost totals are cell-for-cell equal to a clean
  single-process oracle run of the same keyed stream;
* no admitted request was dropped: every lane request was eventually
  served, and the server's ``admitted == served + errors`` at drain
  (no deadlines are set, so nothing expires post-admission);
* every shard reports ``healthy`` at drain, and SIGTERM drains to a
  clean exit.

Run via ``repro chaos --seed S --rounds R``; ``--output PATH`` also
writes the report as JSON.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.errors import (
    IngressError,
    IngressOverload,
    ReliabilityError,
)
from repro.reliability.faults import FAULTS_ENV, FaultPlan, FaultSpec

__all__ = ["ChaosConfig", "run_chaos", "write_chaos_record"]

_ALGORITHM = "kary-splaynet"

#: Fault points stormed by default (all ``error`` mode — ``kill`` mode on
#: the ingress points would take the whole gateway down, which is the
#: controller's job to do per-shard via SIGKILL instead).
DEFAULT_FAULT_POINTS = ("ingress.accept", "ingress.dispatch", "farm.serve")


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible soak: workload shape, storm schedule, deadlines.

    ``seed`` pins everything random — the Zipf workload, the fault
    invocation indices — so a failing soak replays identically from its
    printed seed.  ``rounds`` should be >= ``shards`` so the round-robin
    victim selection kills every shard at least once.
    """

    n: int = 128
    k: int = 4
    keys: int = 6
    shards: int = 2
    rounds: int = 2
    requests_per_round: int = 400
    zipf_alpha: float = 1.2
    seed: int = 0
    engine: Optional[str] = None
    batch_window: float = 0.002
    batch_max: int = 64
    health_interval: float = 0.05
    suspect_after: float = 0.2
    down_after: float = 0.6
    checkpoint_every: int = 64
    fault_points: tuple[str, ...] = DEFAULT_FAULT_POINTS
    faults_per_point: int = 2
    recovery_timeout: float = 30.0
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        for name in ("keys", "shards", "rounds", "requests_per_round"):
            if getattr(self, name) < 1:
                raise ReliabilityError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.requests_per_round < self.keys:
            raise ReliabilityError(
                "requests_per_round must be >= keys so every lane has"
                " work each round"
            )
        if self.faults_per_point < 0:
            raise ReliabilityError(
                f"faults_per_point must be >= 0, got {self.faults_per_point}"
            )


# ----------------------------------------------------------------------
# workload + oracle
# ----------------------------------------------------------------------
def _keyed_lanes(config: ChaosConfig) -> dict[str, list[tuple[int, int]]]:
    """Per-key request lanes (the serve discipline is order-dependent
    *per key*, so each lane must stay serial; lanes are independent)."""
    from repro.workloads.synthetic import zipf_trace

    total = config.rounds * config.requests_per_round
    trace = zipf_trace(config.n, total, config.zipf_alpha, config.seed)
    sources = trace.sources.tolist()
    targets = trace.targets.tolist()
    lanes: dict[str, list[tuple[int, int]]] = {
        f"key-{i}": [] for i in range(config.keys)
    }
    for i in range(total):
        lanes[f"key-{i % config.keys}"].append((sources[i], targets[i]))
    return lanes


def _round_slice(pairs: list, rnd: int, rounds: int) -> list:
    """Round ``rnd``'s contiguous slice of one lane (order preserved)."""
    per = len(pairs) // rounds
    start = rnd * per
    end = start + per if rnd < rounds - 1 else len(pairs)
    return pairs[start:end]


def _clean_totals(
    lanes: dict[str, list[tuple[int, int]]], config: ChaosConfig
) -> list[int]:
    """Oracle totals: one fresh in-process session per key, in order."""
    from repro.net.session import open_session

    totals = [0, 0, 0, 0]
    for key in sorted(lanes):
        session = open_session(
            _ALGORITHM, n=config.n, k=config.k, engine=config.engine
        )
        batch = session.serve_stream(
            [u for u, _ in lanes[key]], [v for _, v in lanes[key]]
        )
        totals[0] += batch.m
        totals[1] += batch.total_routing
        totals[2] += batch.total_rotations
        totals[3] += batch.total_links_changed
    return totals


def _storm_plan(config: ChaosConfig, ledger: str) -> FaultPlan:
    """Seeded error-mode fault schedule over the configured points.

    Indices are drawn once from the soak seed; the ledger makes each
    index fire exactly once across *all* server-side processes, so a
    respawned worker replaying its journal cannot re-trip a fault that
    already fired in its predecessor.
    """
    rng = random.Random(config.seed)
    specs = []
    for point in config.fault_points:
        if config.faults_per_point == 0:
            continue
        # Low-ish indices so the faults actually land inside the soak
        # window, but never index 1: let each path warm up cleanly.
        # Accept events are rare (one per client connection), so its
        # indices stay tight; dispatch/serve windows number in the
        # hundreds and can spread out.
        if point == "ingress.accept":
            population = range(2, 2 + 6 * config.faults_per_point)
        else:
            population = range(3, 3 + 30 * config.faults_per_point)
        at = tuple(sorted(rng.sample(population, config.faults_per_point)))
        specs.append(
            FaultSpec(point, mode="error", at=at, detail="chaos storm")
        )
    return FaultPlan(specs=tuple(specs), ledger=ledger)


# ----------------------------------------------------------------------
# the live server under test
# ----------------------------------------------------------------------
def _spawn_server(config: ChaosConfig, plan: FaultPlan) -> tuple:
    """Boot ``repro serve`` with fast health deadlines and the storm plan."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    env[FAULTS_ENV] = plan.to_env()
    args = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--host", config.host,
        "-n", str(config.n),
        "-k", str(config.k),
        "--shards", str(config.shards),
        "--batch-window", str(config.batch_window),
        "--batch-max", str(config.batch_max),
        "--health-interval", str(config.health_interval),
        "--suspect-after", str(config.suspect_after),
        "--down-after", str(config.down_after),
        "--checkpoint-every", str(config.checkpoint_every),
        # Generous budget: every round's kill spends one respawn.
        "--max-respawns", str(config.rounds * 2 + 2),
    ]
    if config.engine:
        args += ["--engine", config.engine]
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.match(r"ingress listening on (\S+):(\d+)", line)
    if not match:
        proc.kill()
        err = proc.stderr.read() if proc.stderr else ""
        raise ReliabilityError(
            f"chaos target failed to start (got {line!r}): {err.strip()}"
        )
    return proc, match.group(1), int(match.group(2))


def _client(config: ChaosConfig, port: int):
    from repro.errors import IngressConnectionError
    from repro.ingress import IngressClient
    from repro.reliability.retry import RetryPolicy

    # Accept faults and mid-storm resets are absorbed by reconnect-and-
    # retry (safe: a reset connection never had its request dispatched
    # without an answer — the farm layer is exactly-once underneath);
    # breaker sheds are absorbed by the retry-after honoring loop.
    return IngressClient(
        host=config.host,
        port=port,
        retry=RetryPolicy(
            retries=8,
            base=0.02,
            cap=0.5,
            jitter=0.5,
            seed=config.seed,
            retry_on=(IngressConnectionError,),
        ),
        overload_retries=4,
        max_retry_after=1.0,
    )


def _pump_lane(
    client,
    key: str,
    pairs: list[tuple[int, int]],
    tally: dict[str, list[int]],
    counters: dict[str, int],
    failures: list[str],
    lock: threading.Lock,
) -> None:
    """Serve one lane slice serially, resubmitting only not-served fails.

    ``OVERLOAD`` and injected-fault ``ERROR`` responses are both answered
    *before* the request touched a session, so resubmission preserves the
    exactly-once totals.  Anything else is a real drop: recorded as a
    failure, which fails the soak's invariants loudly.
    """
    for u, v in pairs:
        while True:
            try:
                result = client.serve(key, u, v)
            except IngressOverload as exc:
                with lock:
                    counters["resubmissions"] += 1
                time.sleep(min(max(exc.retry_after, 0.01), 0.5))
                continue
            except IngressError as exc:
                if "injected fault" in str(exc):
                    with lock:
                        counters["resubmissions"] += 1
                    time.sleep(0.01)
                    continue
                with lock:
                    failures.append(f"{key}: {type(exc).__name__}: {exc}")
                return
            with lock:
                row = tally[key]
                row[0] += result.m
                row[1] += result.total_routing
                row[2] += result.total_rotations
                row[3] += result.total_links_changed
                counters["served"] += 1
            break


# ----------------------------------------------------------------------
# the controller: kill, time detection, time recovery
# ----------------------------------------------------------------------
def _shard_row(metrics: dict, shard: int) -> Optional[dict]:
    for row in metrics.get("shards", ()):
        if row.get("shard") == shard:
            return row
    return None


def _kill_and_observe(
    control,
    victim: int,
    config: ChaosConfig,
) -> dict[str, Any]:
    """SIGKILL ``victim``'s worker; time detection and recovery via METRICS."""

    def poll() -> Optional[dict]:
        try:
            return control.metrics()
        except IngressError:
            return None

    metrics = poll()
    row = _shard_row(metrics, victim) if metrics else None
    if row is None or not row.get("pid"):
        raise ReliabilityError(
            f"chaos controller could not resolve shard {victim}'s pid"
        )
    old_pid = row["pid"]
    recoveries_before = row["recoveries"]
    try:
        os.kill(old_pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - raced a respawn
        pass
    killed_at = time.monotonic()
    detected_at: Optional[float] = None
    recovered_at: Optional[float] = None
    new_pid: Optional[int] = None
    deadline = killed_at + config.recovery_timeout
    while time.monotonic() < deadline:
        metrics = poll()
        if metrics is None:
            time.sleep(0.005)
            continue
        row = _shard_row(metrics, victim)
        if row is None:
            time.sleep(0.005)
            continue
        pid_changed = bool(row["pid"]) and row["pid"] != old_pid
        noticed = (
            row["health"] != "healthy"
            or row["recoveries"] > recoveries_before
            or pid_changed
        )
        if detected_at is None and noticed:
            detected_at = time.monotonic()
        if (
            row["health"] == "healthy"
            and row["recoveries"] > recoveries_before
            and pid_changed
        ):
            recovered_at = time.monotonic()
            new_pid = row["pid"]
            break
        time.sleep(0.005)
    return {
        "victim_shard": victim,
        "old_pid": old_pid,
        "new_pid": new_pid,
        "recovered": recovered_at is not None,
        "time_to_detect_seconds": (
            detected_at - killed_at if detected_at is not None else None
        ),
        "time_to_recover_seconds": (
            recovered_at - killed_at if recovered_at is not None else None
        ),
    }


# ----------------------------------------------------------------------
# the soak
# ----------------------------------------------------------------------
def run_chaos(config: ChaosConfig) -> dict:
    """Run one seeded soak; return a JSON-serializable invariant report."""
    lanes = _keyed_lanes(config)
    clean = _clean_totals(lanes, config)
    total_requests = sum(len(pairs) for pairs in lanes.values())

    report: dict[str, Any] = {
        "benchmark": "chaos",
        "config": {
            "n": config.n,
            "k": config.k,
            "keys": config.keys,
            "shards": config.shards,
            "rounds": config.rounds,
            "requests_per_round": config.requests_per_round,
            "zipf_alpha": config.zipf_alpha,
            "seed": config.seed,
            "engine": config.engine,
            "fault_points": list(config.fault_points),
            "faults_per_point": config.faults_per_point,
            "checkpoint_every": config.checkpoint_every,
        },
        "rounds": [],
    }

    tally = {key: [0, 0, 0, 0] for key in lanes}
    counters = {"served": 0, "resubmissions": 0}
    failures: list[str] = []
    lock = threading.Lock()

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        plan = _storm_plan(config, ledger=os.path.join(tmp, "ledger"))
        report["config"]["fault_run_id"] = plan.run_id
        proc, _host, port = _spawn_server(config, plan)
        control = _client(config, port)
        clients = {key: _client(config, port) for key in lanes}
        try:
            for rnd in range(config.rounds):
                threads = [
                    threading.Thread(
                        target=_pump_lane,
                        args=(
                            clients[key],
                            key,
                            _round_slice(pairs, rnd, config.rounds),
                            tally,
                            counters,
                            failures,
                            lock,
                        ),
                        name=f"chaos-lane-{key}",
                    )
                    for key, pairs in lanes.items()
                ]
                for thread in threads:
                    thread.start()
                # Let the lanes build real load before pulling the rug.
                time.sleep(max(config.health_interval, 0.05))
                round_report = _kill_and_observe(
                    control, rnd % config.shards, config
                )
                round_report["round"] = rnd
                report["rounds"].append(round_report)
                for thread in threads:
                    thread.join()
        finally:
            final_metrics: Optional[dict] = None
            try:
                final_metrics = control.metrics()
            except IngressError:
                pass
            control.close()
            for client in clients.values():
                client.close()
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10)

    observed = [0, 0, 0, 0]
    for row in tally.values():
        for i in range(4):
            observed[i] += row[i]

    recovered_rounds = [r for r in report["rounds"] if r["recovered"]]
    detects = [
        r["time_to_detect_seconds"]
        for r in report["rounds"]
        if r["time_to_detect_seconds"] is not None
    ]
    recovers = [
        r["time_to_recover_seconds"] for r in recovered_rounds
    ]

    server_counters = {
        name: final_metrics.get(name) if final_metrics else None
        for name in ("admitted", "served", "overloaded", "errors")
    }
    shard_rows = final_metrics.get("shards", []) if final_metrics else []
    all_healthy = bool(shard_rows) and all(
        row["health"] == "healthy" for row in shard_rows
    )
    # No deadlines are configured, so nothing can overload *after*
    # admission: every admitted request must land in served or errors.
    accounted = (
        final_metrics is not None
        and server_counters["admitted"]
        == server_counters["served"] + server_counters["errors"]
    )

    report.update(
        {
            "requests_sent": total_requests,
            "requests_served": counters["served"],
            "resubmissions": counters["resubmissions"],
            "lane_failures": failures,
            "clean_totals": clean,
            "observed_totals": observed,
            "totals_match": observed == clean,
            "server": server_counters,
            "final_shards": shard_rows,
            "rounds_survived": len(recovered_rounds),
            "mean_time_to_detect_seconds": (
                sum(detects) / len(detects) if detects else None
            ),
            "mean_time_to_recover_seconds": (
                sum(recovers) / len(recovers) if recovers else None
            ),
            "no_dropped_requests": (
                not failures
                and counters["served"] == total_requests
                and accounted
            ),
            "all_shards_healthy": all_healthy,
            "clean_exit": proc.returncode == 0,
        }
    )
    report["passed"] = (
        report["totals_match"]
        and report["no_dropped_requests"]
        and report["all_shards_healthy"]
        and report["clean_exit"]
        and report["rounds_survived"] == config.rounds
    )
    return report


def write_chaos_record(result: dict, path: "str | Path") -> Path:
    """Persist a soak record as pretty-printed JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return out
