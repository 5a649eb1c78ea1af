"""Serve-farm behaviour: equivalence with clean sessions, metrics, API."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.net import open_session
from repro.serving import FarmMetrics, ServeFarm


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


class TestFarmEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_clean_single_process_sessions(self, shards):
        """Farm results are cell-for-cell the clean per-key session runs,
        at every shard count — sharding must never change an outcome."""
        n, k = 48, 3
        requests = keyed_requests(n, 400, keys=5, seed=shards)
        with ServeFarm(
            "kary-splaynet", n=n, k=k, shards=shards, window=64
        ) as farm:
            batch = farm.serve_stream(requests)
            farm_metrics = farm.session_metrics()
        clean_metrics = {}
        for key, pairs in per_key_pairs(requests).items():
            session = open_session("kary-splaynet", n=n, k=k)
            session.serve_stream(pairs)
            clean_metrics[key] = session.metrics.to_dict()
        assert farm_metrics == clean_metrics
        assert batch.m == 400
        assert batch.total_routing == sum(
            m["total_routing"] for m in clean_metrics.values()
        )

    def test_aggregate_metrics_track_dispatches(self):
        n = 32
        requests = keyed_requests(n, 150, keys=4, seed=9)
        with ServeFarm("kary-splaynet", n=n, k=2, shards=2, window=50) as farm:
            batch = farm.serve_stream(requests)
            metrics = farm.metrics
            assert metrics.requests == batch.m == 150
            assert metrics.total_routing == batch.total_routing
            assert metrics.total_rotations == batch.total_rotations
            assert metrics.total_links_changed == batch.total_links_changed
            assert metrics.average_routing == pytest.approx(
                batch.total_routing / 150
            )
            # Latency and busy accounting advanced with the stream.
            assert metrics.latency.total == 150
            assert metrics.latency_p99 >= metrics.latency_p50 > 0.0
            assert metrics.critical_path_seconds >= 0.0
            assert sum(metrics.busy_seconds.values()) >= 0.0
            # The deterministic to_dict view excludes timing.
            assert metrics.to_dict() == {
                "requests": 150,
                "total_routing": batch.total_routing,
                "total_rotations": batch.total_rotations,
                "total_links_changed": batch.total_links_changed,
            }

    def test_scalar_and_batch_serving(self):
        with ServeFarm("kary-splaynet", n=16, k=2, shards=2) as farm:
            farm.serve("a", 1, 9)
            result = farm.serve_batch("b", [2, 3], [10, 11])
            assert result.m == 2
            assert farm.metrics.requests == 3
            per_key = farm.session_metrics()
            assert per_key["a"]["requests"] == 1
            assert per_key["b"]["requests"] == 2


class TestFarmEngines:
    def test_workers_use_native_when_available_else_flat(self):
        """The farm defaults to resident native trees; without the kernel
        (REPRO_NATIVE=0 / no toolchain) every worker degrades to flat."""
        expected = "native" if native_available() else "flat"
        with ServeFarm("kary-splaynet", n=16, k=2, shards=2) as farm:
            farm.serve("a", 1, 9)
            farm.serve("b", 2, 10)
            engines = set()
            for status in farm.status():
                assert status["native_available"] == native_available()
                engines.update(status["sessions"].values())
        assert engines == {expected}

    def test_explicit_spec_engine_is_respected(self):
        with ServeFarm(
            "kary-splaynet", n=16, k=2, engine="flat", shards=1
        ) as farm:
            farm.serve("a", 1, 9)
            [status] = farm.status()
            assert set(status["sessions"].values()) == {"flat"}


class TestFarmApi:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError):
            ServeFarm("kary-splaynet", n=8, shards=0)
        with pytest.raises(ExperimentError):
            ServeFarm("kary-splaynet", n=8, window=0)
        with pytest.raises(ExperimentError):
            ServeFarm("kary-splaynet", n=8, max_respawns=-1)
        with ServeFarm("kary-splaynet", n=8, shards=1) as farm:
            with pytest.raises(ExperimentError):
                farm.serve_batch("a", [1, 2], [3])
            with pytest.raises(ExperimentError):
                farm.serve_stream([("a", 1, 2)], window=0)

    def test_closed_farm_refuses_work(self):
        farm = ServeFarm("kary-splaynet", n=8, shards=1)
        farm.serve("a", 1, 5)
        farm.close()
        farm.close()  # idempotent
        with pytest.raises(ExperimentError):
            farm.serve("a", 1, 5)
        with pytest.raises(ExperimentError):
            farm.status()

    def test_worker_errors_surface_in_parent(self):
        from repro.errors import ReliabilityError

        with ServeFarm("kary-splaynet", n=8, shards=1) as farm:
            with pytest.raises(ReliabilityError):
                farm.serve("a", 1, 99)  # out of range in the worker

    def test_farm_metrics_dataclass_defaults(self):
        metrics = FarmMetrics()
        assert metrics.requests == 0
        assert metrics.average_routing == 0.0
        assert metrics.critical_path_seconds == 0.0
        metrics.record_batch(0, 10, 30, 5, 2, 0.01, 0.008)
        assert metrics.requests == 10
        assert metrics.busy_seconds == {0: pytest.approx(0.008)}
        assert metrics.windows == 1


class TestStartupLeak:
    def test_partial_spawn_failure_leaks_no_workers(self, monkeypatch):
        """When a later worker fails to spawn, the constructor must tear
        down the workers it already started instead of leaking them —
        the regression where shard 0's process outlived the failed
        ``ServeFarm(...)`` call with nobody holding a handle to it."""
        real = ServeFarm._start_worker
        spawned = []

        def flaky(self, shard):
            if shard == 1:
                raise RuntimeError("spawn budget exhausted")
            real(self, shard)
            spawned.append((self._procs[shard], self._conns[shard]))

        monkeypatch.setattr(ServeFarm, "_start_worker", flaky)
        with pytest.raises(RuntimeError, match="spawn budget"):
            ServeFarm("kary-splaynet", n=8, shards=2)
        assert spawned, "shard 0 never started — the test proved nothing"
        [(proc, conn)] = spawned
        proc.join(timeout=10.0)
        assert not proc.is_alive(), "shard 0 worker leaked past __init__"
        assert conn.closed

    def test_failed_constructor_farm_is_closed(self, monkeypatch):
        def always_fail(self, shard):
            raise OSError("cannot fork")

        monkeypatch.setattr(ServeFarm, "_start_worker", always_fail)
        with pytest.raises(OSError, match="fork"):
            ServeFarm("kary-splaynet", n=8, shards=1)


class TestServeGrouped:
    """The ingress gateway's dispatch primitive: one round trip per
    coalesced list, exact per-entry totals."""

    def test_per_batch_results_match_individual_calls(self):
        n, k = 32, 2
        rng = random.Random(3)
        pairs = [
            (rng.randrange(1, n + 1), rng.randrange(1, n + 1))
            for _ in range(30)
        ]
        with ServeFarm("kary-splaynet", n=n, k=k, shards=2) as farm:
            key = "grouped-key"
            shard = farm.router.shard_of(key)
            batches = [
                (key, [u for u, _ in pairs], [v for _, v in pairs]),
            ]
            [grouped] = farm.serve_grouped(shard, batches)
            windows_after = farm.metrics.windows
        session = open_session("kary-splaynet", n=n, k=k)
        clean = session.serve_stream(pairs)
        assert grouped.m == clean.m
        assert grouped.total_routing == clean.total_routing
        assert grouped.total_rotations == clean.total_rotations
        assert grouped.total_links_changed == clean.total_links_changed
        assert windows_after == 1  # the whole list cost one round trip

    def test_multiple_keys_one_round_trip_with_per_key_totals(self):
        n = 16
        with ServeFarm("kary-splaynet", n=n, k=2, shards=1) as farm:
            batches = [
                ("a", [1, 2], [9, 10]),
                ("b", [3], [11]),
                ("a", [4], [12]),  # same key again: served in order
            ]
            results = farm.serve_grouped(0, batches)
            assert [r.m for r in results] == [2, 1, 1]
            assert farm.metrics.windows == 1
            assert farm.metrics.requests == 4

    def test_mixed_window_per_entry_totals_match_clean_sessions(self):
        """One window mixing 1-request and multi-request entries, with a
        key that comes back after other keys: every entry's totals equal
        a clean per-key session serving the same entries in order."""
        n, k = 64, 4
        rng = random.Random(17)
        shape = [("a", 1), ("b", 6), ("a", 1), ("c", 1), ("a", 9), ("b", 1)]
        batches = [
            (
                key,
                [rng.randrange(1, n + 1) for _ in range(size)],
                [rng.randrange(1, n + 1) for _ in range(size)],
            )
            for key, size in shape
        ]
        with ServeFarm("kary-splaynet", n=n, k=k, shards=1) as farm:
            results = farm.serve_grouped(0, batches)
            assert farm.metrics.windows == 1
        sessions: dict = {}
        expected = []
        for key, sources, targets in batches:
            if key not in sessions:
                sessions[key] = open_session("kary-splaynet", n=n, k=k)
            clean = sessions[key].serve_stream(sources, targets)
            expected.append(
                (
                    clean.m,
                    clean.total_routing,
                    clean.total_rotations,
                    clean.total_links_changed,
                )
            )
        assert [
            (r.m, r.total_routing, r.total_rotations, r.total_links_changed)
            for r in results
        ] == expected

    def test_wrong_shard_key_is_rejected(self):
        with ServeFarm("kary-splaynet", n=8, shards=2) as farm:
            key = "some-key"
            wrong = 1 - farm.router.shard_of(key)
            with pytest.raises(ExperimentError, match="routes to shard"):
                farm.serve_grouped(wrong, [(key, [1], [2])])

    def test_mismatched_lengths_and_empty_list(self):
        with ServeFarm("kary-splaynet", n=8, shards=1) as farm:
            with pytest.raises(ExperimentError, match="equal length"):
                farm.serve_grouped(0, [("a", [1, 2], [3])])
            assert farm.serve_grouped(0, []) == []
            assert farm.metrics.windows == 0
