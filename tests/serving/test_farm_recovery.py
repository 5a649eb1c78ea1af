"""Serve-farm fault tolerance: killed shard workers respawn and replay.

The satellite reliability gate of the serve farm: a worker hard-exiting
mid-campaign (``farm.serve`` injection point, ``kill`` mode — a SIGKILL
stand-in) costs one respawn and zero correctness.  The respawned worker
rebuilds its sessions by replaying the parent's journal of acknowledged
batches, so the campaign's results are cell-for-cell identical to a run
with no fault at all.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.errors import ReliabilityError
from repro.net import open_session
from repro.serving import ServeFarm
from repro.reliability.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
)


def keyed_requests(n: int, m: int, keys: int, seed: int = 0):
    rng = random.Random(seed)
    return [
        (
            f"key-{i % keys}",
            rng.randrange(1, n + 1),
            rng.randrange(1, n + 1),
        )
        for i in range(m)
    ]


def per_key_pairs(requests):
    split: dict = {}
    for key, u, v in requests:
        split.setdefault(key, []).append((u, v))
    return split


def _activate_for_workers(plan: FaultPlan) -> None:
    """Publish a plan the way worker processes see it: via the env."""
    os.environ[FAULTS_ENV] = plan.to_env()
    clear_fault_plan()


def _clean_run(requests, n, k):
    clean = {}
    for key, pairs in per_key_pairs(requests).items():
        session = open_session("kary-splaynet", n=n, k=k)
        session.serve_stream(pairs)
        clean[key] = session.metrics.to_dict()
    return clean


class TestWorkerKillRecovery:
    def test_killed_shard_respawns_and_results_match_clean_run(
        self, tmp_path
    ):
        """A worker killed mid-campaign is respawned, its journal replayed,
        and every per-key result equals the fault-free run cell for cell.

        The ledger makes the kill one-shot: the claim file outlives the
        dead worker, so neither the respawned worker's journal replay nor
        the re-sent in-flight window re-fires it.
        """
        n, k = 40, 3
        requests = keyed_requests(n, 600, keys=6, seed=3)
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="kill", at=(3,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm(
                "kary-splaynet", n=n, k=k, shards=2, window=100
            ) as farm:
                batch = farm.serve_stream(requests)
                assert farm.respawns == 1
                # Exactly one recovery: the supervisor's, while the
                # dispatch that hit the dead pipe waited for it.
                assert sum(farm.shard_recoveries) == 1
                farm_metrics = farm.session_metrics()
                aggregate = farm.metrics.to_dict()
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()

        assert batch.m == 600
        clean = _clean_run(requests, n, k)
        assert farm_metrics == clean
        # The aggregate counted every request exactly once (no replay
        # double counting, no lost in-flight window).
        assert aggregate == {
            "requests": 600,
            "total_routing": sum(m["total_routing"] for m in clean.values()),
            "total_rotations": sum(
                m["total_rotations"] for m in clean.values()
            ),
            "total_links_changed": sum(
                m["total_links_changed"] for m in clean.values()
            ),
        }

    def test_crash_loop_exhausts_respawn_budget(self, tmp_path):
        """A shard that dies on every attempt becomes a loud
        ReliabilityError once max_respawns is spent, not a hang — and
        stays one: later calls raise at once and close() returns."""
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="kill", at=(1, 2, 3, 4)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm(
                "kary-splaynet", n=16, k=2, shards=1, max_respawns=1
            ) as farm:
                with pytest.raises(ReliabilityError, match="gave up") as first:
                    farm.serve("a", 1, 9)
                assert farm.respawns == 2  # budget + the failed attempt
                started = time.monotonic()
                with pytest.raises(ReliabilityError) as second:
                    farm.serve("a", 2, 8)
                assert time.monotonic() - started < 1.0
                assert str(second.value) == str(first.value)
                assert farm.respawns == 2  # no respawn for a given-up shard
                started = time.monotonic()
                farm.close()
                assert time.monotonic() - started < 5.0
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()

    def test_failed_replay_spends_a_respawn_not_the_shard(self, tmp_path):
        """A replacement whose journal replay fails holds partial state:
        the supervisor replaces it again instead of serving from it, and
        the in-flight batch still lands exactly once."""
        plan = FaultPlan(
            specs=(
                FaultSpec("farm.serve", mode="kill", at=(2,)),
                # Its second invocation is the first replacement's replay.
                FaultSpec(
                    "farm.serve", mode="error", at=(2,), match="shard=0"
                ),
            ),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm("kary-splaynet", n=16, k=2, shards=1) as farm:
                farm.serve_batch("a", [1, 2, 3], [9, 8, 7])
                farm.serve_batch("a", [4], [5])
                assert farm.respawns == 2
                assert farm.shard_recoveries == [1]
                farm_metrics = farm.session_metrics()
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()
        assert farm_metrics == _clean_run(
            [("a", 1, 9), ("a", 2, 8), ("a", 3, 7), ("a", 4, 5)], 16, 2
        )

    def test_injected_error_is_relayed_not_fatal(self, tmp_path):
        """``error`` mode surfaces as ReliabilityError in the parent while
        the worker survives and keeps serving."""
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="error", at=(1,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm("kary-splaynet", n=16, k=2, shards=1) as farm:
                with pytest.raises(ReliabilityError, match="FaultInjected"):
                    farm.serve("a", 1, 9)
                assert farm.respawns == 0
                farm.serve("a", 1, 9)  # same worker, still alive
                assert farm.metrics.requests == 1
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()
