"""Crash-safe campaign resume: torn sinks, killed workers, equality."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import ExperimentError, FaultInjected
from repro.parallel.pool import ParallelConfig
from repro.reliability.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
    inject_faults,
)
from repro.results import (
    JsonlStore,
    SqliteStore,
    open_store,
    read_results_jsonl,
)
from repro.scenarios import run_specs
from repro.scenarios.spec import ScenarioSpec

#: Both results backends, drilled identically where the contract is shared.
BACKENDS = ("jsonl", "sqlite")


def _store_path(base: Path, backend: str, stem: str = "campaign") -> Path:
    return base / f"{stem}.{'jsonl' if backend == 'jsonl' else 'sqlite'}"


def _stored(backend: str, path: Path) -> list:
    """Every committed record, read through the store protocol."""
    if not path.exists():
        return []
    store = open_store(path, backend=backend)
    try:
        return list(store)
    finally:
        store.close()


def _campaign(count: int = 6) -> list[ScenarioSpec]:
    return [
        ScenarioSpec(
            workload="uniform",
            n=16,
            m=40,
            seed=seed,
            algorithm="kary-splaynet",
            k=2,
            group="resume-test",
        )
        for seed in range(count)
    ]


def _summaries(results) -> list[tuple]:
    """Cell-for-cell comparison key: spec + totals, minus wall-clock."""
    return [
        (r.spec, r.total_routing, r.total_rotations, r.total_links_changed)
        for r in results
    ]


class TestTolerantRead:
    def test_truncated_trailing_line_is_skipped_with_a_warning(self, tmp_path):
        specs = _campaign(3)
        path = tmp_path / "partial.jsonl"
        with JsonlStore(path) as sink:
            clean = run_specs(specs, sink=sink, cache=False)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        # Tear the file mid-record, as a SIGKILL mid-write would.
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        with pytest.warns(RuntimeWarning, match="truncated trailing line"):
            loaded = read_results_jsonl(path)
        assert _summaries(loaded) == _summaries(clean[:2])

    def test_truncated_line_without_newline_terminator(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"not even clos')
        with pytest.warns(RuntimeWarning):
            assert read_results_jsonl(path) == []

    def test_mid_file_corruption_still_raises(self, tmp_path):
        specs = _campaign(2)
        path = tmp_path / "corrupt.jsonl"
        with JsonlStore(path) as sink:
            run_specs(specs, sink=sink, cache=False)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["{bad json", *lines[1:]]) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_results_jsonl(path)

    def test_append_repairs_a_torn_tail(self, tmp_path):
        """A resumed writer must not glue records onto a torn fragment."""
        specs = _campaign(2)
        path = tmp_path / "repair.jsonl"
        with JsonlStore(path) as sink:
            clean = run_specs(specs, sink=sink, cache=False)
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[1][:10])
        with JsonlStore(path) as sink:
            run_specs([specs[1]], sink=sink, cache=False)
        assert _summaries(read_results_jsonl(path)) == _summaries(clean)


class TestResumeValidation:
    def test_resume_needs_a_path_backed_sink(self):
        with pytest.raises(ExperimentError, match="path-backed sink"):
            run_specs(_campaign(1), resume=True, cache=False)

    def test_resume_rejects_overwrite_sinks(self, tmp_path):
        sink = JsonlStore(tmp_path / "x.jsonl", overwrite=True)
        with pytest.raises(ExperimentError, match="overwrite"):
            run_specs(_campaign(1), sink=sink, resume=True, cache=False)

    def test_resume_with_no_prior_file_runs_everything(self, tmp_path):
        specs = _campaign(3)
        path = tmp_path / "fresh.jsonl"
        with JsonlStore(path) as sink:
            results = run_specs(specs, sink=sink, resume=True, cache=False)
        assert len(results) == 3
        assert _summaries(read_results_jsonl(path)) == _summaries(results)


class TestKillAndResumeEquality:
    """ISSUE acceptance: interrupted + resumed == uninterrupted, cell for cell.

    Parameterized over both results backends: the injected ``sink.write``
    truncate fault tears a JSONL line mid-write and leaves a SQLite row
    uncommitted — either way, resume must seed exactly the committed
    cells and recompute the rest to cell-for-cell equality.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ["object", "flat"])
    def test_torn_sink_write_then_resume_serial(self, tmp_path, engine, backend):
        """Flavor 1: simulated SIGKILL tears the store mid-write."""
        specs = [s.replace(engine=engine) for s in _campaign(6)]
        clean = run_specs(specs, cache=False)

        path = _store_path(tmp_path, backend)
        plan = FaultPlan(
            specs=(FaultSpec("sink.write", mode="truncate", at=(3,)),)
        )
        sink = open_store(path, backend=backend)
        with inject_faults(plan):
            with pytest.raises(FaultInjected, match="torn write"):
                run_specs(specs, sink=sink, cache=False)
        sink.close()
        if backend == "jsonl":
            # Two whole records landed; the third line is torn.
            assert not path.read_text().endswith("\n")
            with pytest.warns(RuntimeWarning, match="truncated trailing line"):
                assert len(read_results_jsonl(path)) == 2
        else:
            # The faulted row was never committed: two rows survive.
            assert len(_stored(backend, path)) == 2

        with open_store(path, backend=backend) as resumed_sink:
            resumed = run_specs(
                specs, sink=resumed_sink, resume=True, cache=False
            )
        assert _summaries(resumed) == _summaries(clean)
        # The repaired record now holds exactly one cell per spec.
        assert _summaries(_stored(backend, path)) == _summaries(clean)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_killed_worker_then_resume_pooled(self, tmp_path, backend):
        """Flavor 2: an injected worker crash aborts a pooled campaign."""
        specs = _campaign(6)
        clean = run_specs(specs, cache=False)

        path = _store_path(tmp_path, backend, "pooled")
        plan = FaultPlan(
            specs=(FaultSpec("pool.task", mode="kill", at=(2,)),),
            ledger=str(tmp_path / "ledger"),
        )
        os.environ[FAULTS_ENV] = plan.to_env()
        clear_fault_plan()
        config = ParallelConfig(jobs=2, retries=0, pool_respawns=2)
        sink = open_store(path, backend=backend)
        try:
            with pytest.raises(ExperimentError, match="failed after 1 attempt"):
                run_specs(specs, config=config, sink=sink, cache=False)
        finally:
            sink.close()
            del os.environ[FAULTS_ENV]
            clear_fault_plan()
        # How many cells landed before the abort is timing-dependent —
        # possibly none (both stores open lazily on the first write).
        assert len(_stored(backend, path)) < len(specs)

        with open_store(path, backend=backend) as resumed_sink:
            resumed = run_specs(
                specs,
                config=ParallelConfig(jobs=2),
                sink=resumed_sink,
                resume=True,
                cache=False,
            )
        assert _summaries(resumed) == _summaries(clean)
        recorded = _stored(backend, path)
        assert sorted(_summaries(recorded), key=repr) == sorted(
            _summaries(clean), key=repr
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resumed_cells_are_not_recomputed(self, tmp_path, backend):
        """Cells already on disk are trusted verbatim, not re-run."""
        specs = _campaign(4)
        path = _store_path(tmp_path, backend, "skip")
        with open_store(path, backend=backend) as sink:
            first = run_specs(specs[:2], sink=sink, cache=False)
        poisoned = FaultPlan(specs=(FaultSpec("pool.task", at=(1, 2)),))
        with inject_faults(poisoned):
            # The two resumed cells never reach pool.task; only the two
            # genuinely new cells do — and the plan fails exactly those,
            # proving resumed work is served from the record.
            with pytest.raises(ExperimentError):
                with open_store(path, backend=backend) as sink:
                    run_specs(specs, sink=sink, resume=True, cache=False)
        with open_store(path, backend=backend) as sink:
            resumed = run_specs(specs, sink=sink, resume=True, cache=False)
        assert _summaries(resumed[:2]) == _summaries(first)
        assert len(resumed) == 4


class TestSqliteWalRecovery:
    """A real SIGKILL mid-transaction: WAL recovery must seed resume."""

    def test_sigkill_mid_transaction_then_resume(self, tmp_path):
        """ISSUE acceptance: the killed writer's uncommitted row vanishes,
        every committed row survives, and resume completes the campaign to
        cell-for-cell equality with a clean run."""
        path = tmp_path / "wal.sqlite"
        src = Path(__file__).resolve().parents[2] / "src"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.results import SqliteStore
            from repro.results.sqlite import _INSERT
            from repro.scenarios import run_specs
            from repro.scenarios.spec import ScenarioSpec

            specs = [
                ScenarioSpec(workload="uniform", n=16, m=40, seed=seed,
                             algorithm="kary-splaynet", k=2, group="resume-test")
                for seed in range(6)
            ]

            class KilledMidTransaction(SqliteStore):
                def write(self, result):
                    if self.count == 2:
                        # Start the third transaction, then die before
                        # COMMIT — the row sits only in the WAL.
                        conn = self._connect(write=True)
                        conn.execute(_INSERT, self._row(result))
                        os.kill(os.getpid(), signal.SIGKILL)
                    super().write(result)

            run_specs(specs, sink=KilledMidTransaction({str(path)!r}), cache=False)
            raise SystemExit("unreachable: the store should have died")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # WAL recovery on the next open: both committed rows, nothing else.
        survivors = _stored("sqlite", path)
        assert len(survivors) == 2

        specs = _campaign(6)
        clean = run_specs(specs, cache=False)
        assert _summaries(survivors) == _summaries(clean[:2])
        with SqliteStore(path) as sink:
            resumed = run_specs(specs, sink=sink, resume=True, cache=False)
            assert sink.preexisting == 2
            assert sink.count == 4
        assert _summaries(resumed) == _summaries(clean)
        assert _summaries(_stored("sqlite", path)) == _summaries(clean)
