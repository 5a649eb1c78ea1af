"""The per-cell result cache: correctness, keying, refresh, threading."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.results import JsonlStore, read_results_jsonl
from repro.scenarios import (
    ResultCache,
    ScenarioSpec,
    run_specs,
    spec_cache_key,
)
from repro.scenarios.cache import resolve_result_cache
from repro.workloads.synthetic import zipf_trace


def spec(**overrides):
    fields = dict(
        workload="temporal-0.5", n=24, m=300, seed=7, algorithm="kary-splaynet", k=3
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def totals(result):
    return (
        result.total_routing,
        result.total_rotations,
        result.total_links_changed,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeying:
    def test_group_and_cost_model_do_not_split_the_key(self):
        base = spec(group="table4", cost_model="routing")
        assert spec_cache_key(base) == spec_cache_key(
            spec(group="elsewhere", cost_model="unit_rotations")
        )

    def test_engine_none_resolves_to_flat_key(self):
        assert spec_cache_key(spec(engine=None)) == spec_cache_key(
            spec(engine="flat")
        )
        assert spec_cache_key(spec(engine="object")) != spec_cache_key(
            spec(engine="flat")
        )

    def test_behavioural_fields_split_the_key(self):
        base = spec()
        for changed in (
            spec(k=4),
            spec(seed=8),
            spec(m=301),
            spec(workload="temporal-0.25"),
            spec(algorithm="full-tree"),
        ):
            assert spec_cache_key(base) != spec_cache_key(changed)


class TestCachedEqualsFresh:
    @pytest.mark.parametrize("engine", ["flat", "object"])
    def test_cached_cell_matches_fresh_cell(self, cache, engine):
        fresh = run_specs([spec(engine=engine)], cache=cache)[0]
        assert cache.stores == 1 and cache.hits == 0
        cached = run_specs([spec(engine=engine)], cache=cache)[0]
        assert cache.hits == 1
        assert totals(cached) == totals(fresh)
        assert cached.spec == fresh.spec

    def test_hit_reattaches_the_requesting_spec(self, cache):
        run_specs([spec(group="first")], cache=cache)
        hit = run_specs([spec(group="second")], cache=cache)[0]
        assert cache.hits == 1
        assert hit.spec.group == "second"

    def test_pooled_run_skips_cached_cells(self, cache):
        specs = [spec(k=k) for k in (2, 3, 4)]
        serial = run_specs(specs, cache=cache)
        assert cache.stores == len(specs)
        pooled = run_specs(specs, jobs=2, cache=cache)
        assert cache.hits == len(specs)
        assert [totals(r) for r in pooled] == [totals(r) for r in serial]
        assert [r.spec for r in pooled] == specs

    def test_mixed_hits_and_misses_preserve_order(self, cache):
        run_specs([spec(k=3)], cache=cache)
        specs = [spec(k=2), spec(k=3), spec(k=4)]
        results = run_specs(specs, cache=cache)
        assert [r.spec for r in results] == specs
        assert cache.hits == 1 and cache.stores == 3

    def test_cached_cells_still_stream_to_the_sink(self, cache, tmp_path):
        path = tmp_path / "results.jsonl"
        specs = [spec(k=2), spec(k=3)]
        run_specs(specs, cache=cache)
        with JsonlStore(path) as sink:
            results = run_specs(specs, cache=cache, sink=sink)
        assert read_results_jsonl(path) == results
        assert cache.hits == len(specs)

    def test_mixed_hits_stream_to_the_sink_in_spec_order(self, cache, tmp_path):
        run_specs([spec(k=3)], cache=cache)
        path = tmp_path / "results.jsonl"
        specs = [spec(k=2), spec(k=3), spec(k=4)]
        with JsonlStore(path) as sink:
            results = run_specs(specs, cache=cache, sink=sink)
        assert [r.spec for r in read_results_jsonl(path)] == specs
        assert read_results_jsonl(path) == results

    def test_hits_ahead_of_a_failing_cell_reach_the_sink(self, cache, tmp_path):
        run_specs([spec(k=2)], cache=cache)
        path = tmp_path / "partial.jsonl"
        crashing = [spec(k=2), spec(workload="zipf-oops", seed=1)]
        with JsonlStore(path) as sink:
            with pytest.raises(ExperimentError):
                run_specs(crashing, cache=cache, sink=sink)
        assert [r.spec for r in read_results_jsonl(path)] == [spec(k=2)]


class TestRefreshAndPoisoning:
    def test_refresh_recomputes_a_poisoned_entry(self, cache):
        honest = run_specs([spec()], cache=cache)[0]
        # Poison the stored totals on disk: a plain cached run must serve
        # the poison (proving the cache is actually consulted) ...
        path = cache._path(spec_cache_key(spec()))
        data = json.loads(path.read_text())
        data["result"]["total_routing"] = honest.total_routing + 999
        path.write_text(json.dumps(data))
        poisoned = run_specs([spec()], cache=cache)[0]
        assert poisoned.total_routing == honest.total_routing + 999
        # ... and --refresh must recompute and heal the entry.
        refreshed = run_specs([spec()], cache=cache, refresh=True)[0]
        assert totals(refreshed) == totals(honest)
        healed = run_specs([spec()], cache=cache)[0]
        assert totals(healed) == totals(honest)

    def test_version_mismatch_is_a_miss(self, cache):
        run_specs([spec()], cache=cache)
        path = cache._path(spec_cache_key(spec()))
        data = json.loads(path.read_text())
        data["key_fields"]["version"] = -1
        path.write_text(json.dumps(data))
        run_specs([spec()], cache=cache)
        assert cache.hits == 0
        assert cache.stores == 2  # recomputed and re-stored

    def test_corrupt_entry_is_a_miss_not_a_crash(self, cache):
        run_specs([spec()], cache=cache)
        path = cache._path(spec_cache_key(spec()))
        path.write_text("{not json")
        result = run_specs([spec()], cache=cache)[0]
        assert result.total_routing > 0
        assert cache.hits == 0


class TestPinnedTracesBypass:
    def test_custom_trace_cells_are_neither_served_nor_stored(self, cache):
        # A trace the key could NOT regenerate: pinned under the zipf-1.4
        # coordinates but actually drawn with alpha=2.2, seed 5.
        trace = zipf_trace(24, 300, 2.2, seed=5)
        s = spec(workload="zipf-1.4", seed=99)
        # Seed the cache with the *generated* zipf-1.4 trace's result.
        generated = run_specs([s], cache=cache)[0]
        pinned = run_specs([s], cache=cache, traces={s.trace_key(): trace})[0]
        # The custom trace differs from the generated one; a cache hit
        # here would silently report the wrong workload's totals.
        assert cache.hits == 0
        assert totals(pinned) != totals(generated)
        # And the pinned result must not have overwritten the entry.
        after = run_specs([s], cache=cache)[0]
        assert totals(after) == totals(generated)


class TestResolution:
    def test_explicit_false_disables_even_with_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        assert resolve_result_cache(False) is None

    def test_env_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        resolved = resolve_result_cache(None)
        assert isinstance(resolved, ResultCache)
        assert resolved.root == tmp_path / "cache"
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert resolve_result_cache(None) is None

    def test_instance_passes_through(self, cache):
        assert resolve_result_cache(cache) is cache

    def test_parallel_traces_still_rejected(self, cache):
        trace = zipf_trace(24, 300, 1.4, seed=99)
        s = spec(workload="zipf-1.4", seed=99)
        with pytest.raises(ExperimentError):
            run_specs([s], jobs=2, cache=cache, traces={s.trace_key(): trace})


class TestCrashResume:
    def test_serial_no_sink_run_stores_completed_cells_before_a_crash(
        self, cache
    ):
        # The second cell explodes during trace materialization; the
        # first cell's entry must already be in the cache so a resumed
        # campaign skips it.
        crashing = [spec(k=2), spec(workload="zipf-oops", seed=1)]
        with pytest.raises(ExperimentError):
            run_specs(crashing, cache=cache)
        assert cache.stores == 1
        resumed = run_specs([spec(k=2)], cache=cache)
        assert cache.hits == 1
        assert resumed[0].total_routing > 0


class TestEnvOptOut:
    def test_env_disables_cache_helper(self, monkeypatch):
        from repro.scenarios.cache import env_disables_cache

        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert not env_disables_cache()
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert env_disables_cache()
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        assert not env_disables_cache()

    def test_scenarios_run_cli_honors_the_opt_out(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert main(["scenarios", "run", "table6", "--scale", "smoke"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "cache").exists()
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        assert main(["scenarios", "run", "table6", "--scale", "smoke"]) == 0
        capsys.readouterr()
        assert (tmp_path / "cache").exists()
