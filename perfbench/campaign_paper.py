"""Workload ``campaign-paper``: the simulation campaign at paper scale.

Cells: the self-adjusting ``kary-splaynet`` (engine ``native``) and the
static ``full-tree`` cells of Table 3 (``facebook``, n = 10^4) and Table 7
(``temporal-0.9``, n = 1023) at m = 10^6 with k in {2, 4, 8}.  They run
through ``run_specs`` serially with the result cache off and stream into a
JSONL store in a temporary directory, as ``repro scenarios run`` does.
The traces are generated here from the seed and handed to ``run_specs``
pinned, so the program receives only the generated inputs.
"""

from __future__ import annotations

import json
import resource
import tempfile
import time
from pathlib import Path

from repro.core.native import NativeTree
from repro.network.simulator import Simulator
from repro.network.static import StaticTreeNetwork
from repro.parallel import tasks
from repro.results import open_store
from repro.results.jsonl import JsonlStore
from repro.scenarios import core, run_specs
from repro.scenarios.registry import kary_table_specs
from repro.workloads import datacenter, synthetic

from common import HERE, WORK, LayerTimer, Phases, environment, median

M = 1_000_000
TRACES = (("facebook", 10_000, "table3"), ("temporal-0.9", 1023, "table7"))
ARITIES = (2, 4, 8)
SETUP_REPS = 3
#: Requests of each trace re-run on the ``flat`` engine for the check.
PREFIX = 10_000
RECORDED = HERE / "recorded_totals.json"
RECORDED_SEED = 2024


def _generate(seed: int) -> dict:
    return {
        "facebook": datacenter.facebook_trace(10_000, M, seed),
        "temporal-0.9": synthetic.temporal_trace(1023, M, 0.9, seed),
    }


def _specs(traces: dict, seed: int, *, engine: str, m: int = M) -> list:
    specs = []
    for workload, n, group in TRACES:
        specs += kary_table_specs(
            workload,
            n=n,
            m=m,
            seed=seed,
            ks=ARITIES,
            include_optimal=False,
            engine=engine,
            group=group,
        )
    return specs


def _pinned(traces: dict, seed: int) -> dict:
    return {(w, t.n, t.m, seed): t for w, t in traces.items()}


def _campaign(specs, pinned) -> tuple[list, float, float]:
    """All cells once, streamed into a fresh JSONL store.

    Returns the results, wall seconds and CPU seconds.
    """
    with tempfile.TemporaryDirectory(dir=WORK / "tmp") as tmp:
        store = open_store(Path(tmp) / "campaign.jsonl")
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            results = run_specs(
                specs, jobs=1, sink=store, traces=pinned, cache=False
            )
        finally:
            store.close()
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if store.count != len(specs):
            raise RuntimeError(
                f"store holds {store.count} of {len(specs)} cells"
            )
    return results, elapsed, cpu


def _totals(results) -> list:
    return [
        [
            r.spec.workload,
            r.spec.algorithm,
            r.spec.k,
            r.total_routing,
            r.total_rotations,
            r.total_links_changed,
        ]
        for r in results
    ]


def _traced_campaign(seed: int):
    """Set-up and one campaign with every layer's entry points wrapped."""
    timer = LayerTimer()
    current = {"workload": ""}

    def cell_started(args):
        current["workload"] = args[0].workload

    with timer.wrap(datacenter, "facebook_trace", "workloads.trace_s"), \
            timer.wrap(synthetic, "temporal_trace", "workloads.trace_s"):
        traces = _generate(seed)
    specs = _specs(traces, seed, engine="native")
    with timer.wrap(tasks, "build_network", "net.build_s"), timer.wrap(
        Simulator,
        "run",
        lambda *_: f"network.simulate_s.{current['workload']}",
    ), timer.wrap(
        NativeTree,
        "serve_many",
        lambda *_: f"core.serve_many_s.{current['workload']}",
    ), timer.wrap(
        StaticTreeNetwork, "serve_trace", "network.static_cost_s"
    ), timer.wrap(
        JsonlStore, "write", "results.write_s"
    ), timer.wrap(
        core, "run_scenario", "scenarios.cells_s", before=cell_started
    ):
        results, elapsed, cpu = _campaign(specs, _pinned(traces, seed))

    layer = {
        name: value
        for name, value in timer.seconds.items()
        if name != "scenarios.cells_s"
    }
    layer["scenarios.overhead_s"] = elapsed - timer.seconds["scenarios.cells_s"]
    for workload, _, _ in TRACES:
        rotations = sum(
            r.total_rotations for r in results if r.spec.workload == workload
        )
        serve = timer.seconds[f"core.serve_many_s.{workload}"]
        layer[f"core.ns_per_rotation.{workload}"] = serve / rotations * 1e9
    return results, cpu, layer


def run(seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    phases = Phases()

    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        traces = _generate(seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = median(setup_times)
    specs = _specs(traces, seed, engine="native")
    pinned = _pinned(traces, seed)

    runs = []
    started = time.perf_counter()
    while not runs or (not trace and time.perf_counter() - started < seconds):
        runs.append(_campaign(specs, pinned))
        phases.record("timed", len(specs), 0)

    layer = {}
    totals = [_totals(results) for results, _, _ in runs]
    if trace:
        results, cpu, layer = _traced_campaign(seed)
        phases.record("traced", len(specs), 0)
        layer["trace.overhead_frac"] = cpu / runs[0][2] - 1.0
        totals.append(_totals(results))

    # Exactness, outside the timed phase.
    checks = {"repeat_runs_agree": all(t == totals[0] for t in totals)}
    prefix = {
        w: type(t)(t.n, t.sources[:PREFIX], t.targets[:PREFIX], name=t.name)
        for w, t in traces.items()
    }
    online = [s for s in _specs(prefix, seed, engine="native", m=PREFIX)
              if s.algorithm == "kary-splaynet"]
    native, _, _ = _campaign(online, _pinned(prefix, seed))
    flat, _, _ = _campaign(
        [s.replace(engine="flat") for s in online], _pinned(prefix, seed)
    )
    phases.record("check_prefix", 2 * len(online), 0)
    checks["native_equals_flat_on_prefix"] = _totals(native) == _totals(flat)
    if seed == RECORDED_SEED:
        recorded = json.loads(RECORDED.read_text())["cells"]
        checks["equals_recorded_totals"] = totals[0] == recorded

    campaign_s = median([elapsed for _, elapsed, _ in runs])
    cpu_s = median([cpu for _, _, cpu in runs])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "campaign_s": (campaign_s, "s", len(runs)),
        "cpu_s": (cpu_s, "s", len(runs)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "fail_frac": (phases.failed / phases.sent, "ratio", phases.sent),
    }
    return dict(
        env=env,
        phases=phases,
        report=report,
        checks=checks,
        e2e={"setup_s": setup_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb},
        layer=layer,
    )
