"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``gen``        — generate a workload trace to CSV/NPZ
* ``stats``      — print a trace's complexity fingerprint
* ``complexity`` — place a trace on the Avin-et-al. complexity map
* ``simulate``   — run a trace through a chosen network design
* ``optimal``    — compute the optimal static tree for a trace's demand
* ``figures``    — render the paper's schematic figures from live structures
* ``reproduce``  — regenerate the paper's tables at a chosen scale
* ``scenarios``  — list/run/export declarative scenario sets (the paper's
  tables as data; see :mod:`repro.scenarios`); ``run`` consults the
  per-cell result cache by default (``--no-cache`` / ``--refresh``),
  records to either results backend (``--store jsonl|sqlite``), and
  ``export --to`` converts a campaign's record between backends
* ``serve`` — run the async socket ingress gateway in front of a serve
  farm (``--shards N --port P``; SIGTERM drains gracefully)
* ``chaos`` — seeded chaos soak against a live ``repro serve`` process

Every command is a thin shell over the public API, so anything done here
can be scripted directly in Python; run with ``-h`` for per-command flags.
Performance is measured by the repo benchmark, ``python3 perfbench/run.py``,
not by a subcommand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.net.registry import build_network
from repro.net.spec import PolicySpec
from repro.network.cost import ROUTING_ONLY, UNIT_ROTATIONS
from repro.network.simulator import Simulator
from repro.optimal.general import optimal_static_tree
from repro.workloads.datacenter import facebook_trace, hpc_trace, projector_trace
from repro.workloads.demand import DemandMatrix
from repro.workloads.io import (
    load_trace_csv,
    load_trace_npz,
    save_trace_csv,
    save_trace_npz,
)
from repro.workloads.mixtures import (
    elephant_mice_trace,
    markov_modulated_trace,
    shuffle_phase_trace,
)
from repro.workloads.stats import summarize_trace
from repro.workloads.synthetic import (
    bursty_trace,
    hotspot_trace,
    permutation_trace,
    temporal_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import Trace

__all__ = ["main"]

_GENERATORS = {
    "uniform": lambda n, m, seed, p: uniform_trace(n, m, seed),
    "temporal": lambda n, m, seed, p: temporal_trace(n, m, p, seed),
    "zipf": lambda n, m, seed, p: zipf_trace(n, m, p or 1.2, seed),
    "hotspot": lambda n, m, seed, p: hotspot_trace(n, m, seed=seed),
    "bursty": lambda n, m, seed, p: bursty_trace(n, m, p or 8.0, seed),
    "permutation": lambda n, m, seed, p: permutation_trace(n, m, seed),
    "hpc": lambda n, m, seed, p: hpc_trace(n, m, seed),
    "projector": lambda n, m, seed, p: projector_trace(n, m, seed),
    "facebook": lambda n, m, seed, p: facebook_trace(n, m, seed),
    "elephant-mice": lambda n, m, seed, p: elephant_mice_trace(
        n, m, elephant_share=p or 0.7, seed=seed
    ),
    "markov": lambda n, m, seed, p: markov_modulated_trace(
        n, m, p_local=p or 0.9, seed=seed
    ),
    "shuffle": lambda n, m, seed, p: shuffle_phase_trace(n, m, seed=seed),
}

#: CLI network name → registry algorithm (the CLI's historical short name
#: ``ksplaynet`` maps onto the registry's ``kary-splaynet``).
_CLI_ALGORITHMS = {
    "ksplaynet": "kary-splaynet",
    "centroid-splaynet": "centroid-splaynet",
    "splaynet": "splaynet",
    "full-tree": "full-tree",
    "centroid-tree": "centroid-tree",
    "optimal-tree": "optimal-tree",
    "optimal-bst": "optimal-bst",
    "lazy": "lazy",
}
_NETWORKS = tuple(_CLI_ALGORITHMS)


def _load_trace(path: str) -> Trace:
    p = Path(path)
    if p.suffix == ".npz":
        return load_trace_npz(p)
    return load_trace_csv(p)


def _parse_policy_flag(text: str) -> PolicySpec:
    """Parse ``--policy name`` / ``--policy name:key=val,key=val``."""
    name, _, arg_text = text.partition(":")
    params = {}
    if arg_text:
        for item in arg_text.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise ReproError(
                    f"bad --policy parameter {item!r}; use key=value"
                )
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            params[key] = value
    return PolicySpec(name, params)


def _build_cli_network(
    name: str,
    trace: Trace,
    k: int,
    alpha: float,
    engine=None,
    policies: Sequence[str] = (),
):
    """Build the ``simulate`` command's network through the registry."""
    algorithm = _CLI_ALGORITHMS.get(name)
    if algorithm is None:
        raise ReproError(f"unknown network {name!r}; choose from {_NETWORKS}")
    params = {"alpha": alpha} if algorithm == "lazy" else {}
    return build_network(
        algorithm,
        n=trace.n,
        k=k,
        engine=engine,
        params=params,
        policies=tuple(_parse_policy_flag(text) for text in policies),
        trace=trace,
    )


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_gen(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.kind]
    trace = generator(args.nodes, args.requests, args.seed, args.param)
    out = Path(args.output)
    if out.suffix == ".npz":
        save_trace_npz(trace, out)
    else:
        save_trace_csv(trace, out)
    print(f"wrote {trace.m} requests over {trace.n} nodes to {out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    print(summarize_trace(trace))
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import complexity_report

    trace = _load_trace(args.trace)
    report = complexity_report(trace, window=args.window)
    print(report)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.figures import render_all_figures

    figures = render_all_figures()
    wanted = args.only or sorted(figures)
    for name in wanted:
        if name not in figures:
            raise ReproError(
                f"unknown figure {name!r}; choose from {sorted(figures)}"
            )
        print(f"==== {name} " + "=" * max(0, 60 - len(name)))
        print(figures[name])
        print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    network = _build_cli_network(
        args.network, trace, args.k, args.alpha, args.engine,
        policies=args.policy or (),
    )
    result = Simulator().run(network, trace, name=f"{args.network} on {trace.name}")
    print(result)
    print(f"  routing-only cost      : {result.total_cost(ROUTING_ONLY):.0f}")
    print(f"  + unit rotations       : {result.total_cost(UNIT_ROTATIONS):.0f}")
    print(f"  elapsed                : {result.elapsed_seconds:.2f}s")
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    demand = DemandMatrix.from_trace(trace)
    result = optimal_static_tree(demand, args.k)
    print(f"optimal static {args.k}-ary tree: total distance {result.cost}")
    if args.show:
        print(result.tree.render(max_nodes=args.max_render))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.presets import get_scale
    from repro.experiments.runner import run_all

    report = run_all(
        scale=get_scale(args.scale),
        output_dir=args.output,
        verbose=not args.quiet,
        jobs=args.jobs,
        engine=args.engine,
        cache=True if (args.cache or args.refresh) else None,
        refresh=args.refresh,
    )
    print(report.render())
    if args.verify:
        from repro.experiments.verify import verify_reproduction

        summary = verify_reproduction(report)
        print()
        print(summary.render())
        return 0 if summary.passed else 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.ingress import BreakerConfig, IngressServer
    from repro.serving.farm import ServeFarm
    from repro.serving.health import HealthConfig

    # Validate up front: a bad flag should be one clear line on stderr,
    # not a traceback from deep inside multiprocessing or asyncio.
    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    if not 0 <= args.port <= 65535:
        raise ReproError(
            f"--port must be in 0..65535 (0 = ephemeral), got {args.port}"
        )
    if args.nodes < 2:
        raise ReproError(f"--nodes must be >= 2, got {args.nodes}")
    if args.batch_window < 0:
        raise ReproError(
            f"--batch-window must be >= 0, got {args.batch_window}"
        )
    if args.batch_max < 1:
        raise ReproError(f"--batch-max must be >= 1, got {args.batch_max}")
    if args.max_respawns < 0:
        raise ReproError(
            f"--max-respawns must be >= 0, got {args.max_respawns}"
        )
    if args.checkpoint_every < 0:
        raise ReproError(
            f"--checkpoint-every must be >= 0 (0 = off),"
            f" got {args.checkpoint_every}"
        )
    # HealthConfig / BreakerConfig validate their own deadlines, but do
    # it here so the error surfaces before any worker is spawned.
    health = HealthConfig(
        interval=args.health_interval,
        suspect_after=args.suspect_after,
        down_after=args.down_after,
    )
    breaker = BreakerConfig(
        failure_threshold=args.breaker_threshold,
        reset_timeout=args.breaker_reset,
    )

    async def run() -> IngressServer:
        farm = ServeFarm(
            "kary-splaynet",
            n=args.nodes,
            k=args.k,
            shards=args.shards,
            engine=args.engine,
            health=health,
            max_respawns=args.max_respawns,
            checkpoint_every=args.checkpoint_every or None,
        )
        server = IngressServer(
            farm,
            host=args.host,
            port=args.port,
            batch_window=args.batch_window,
            batch_max=args.batch_max,
            default_deadline=args.deadline or None,
            breaker=breaker,
        )
        await server.start()
        server.install_signal_handlers()
        host, port = server.address
        # Readiness line on stdout: scripts (and the CI smoke job) parse
        # the bound port from it, so keep the format stable and flushed.
        print(f"ingress listening on {host}:{port}", flush=True)
        await server.serve_forever()
        return server

    server = asyncio.run(run())
    print(
        f"drained: {server.served} served, {server.overloaded} overloaded,"
        f" {server.errors} errored",
        file=sys.stderr,
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.reliability.chaos import (
        ChaosConfig,
        run_chaos,
        write_chaos_record,
    )

    config = ChaosConfig(
        n=args.nodes,
        k=args.k,
        keys=args.keys,
        shards=args.shards,
        rounds=args.rounds,
        requests_per_round=args.requests_per_round,
        zipf_alpha=args.zipf_alpha,
        seed=args.seed,
        engine=args.engine,
        faults_per_point=args.faults_per_point,
        recovery_timeout=args.recovery_timeout,
    )
    # The seed is the replay handle: print it before anything can fail.
    print(f"chaos soak: seed={config.seed} rounds={config.rounds}"
          f" shards={config.shards}", file=sys.stderr)
    report = run_chaos(config)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        write_chaos_record(report, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    if not report["passed"]:
        print(
            f"error: chaos invariants violated (replay with"
            f" --seed {config.seed})",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# the scenarios subcommand (list / run / export)
# ----------------------------------------------------------------------
def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.experiments.presets import get_scale
    from repro.scenarios import expand, scenario_names

    scale = get_scale(args.scale)
    print(f"registered scenarios (scale: {scale.name}):")
    for name in scenario_names():
        specs = expand(name, scale)
        kinds = sorted({spec.kind for spec in specs})
        print(f"  {name:10s} {len(specs):4d} cells  [{', '.join(kinds)}]")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.experiments.presets import get_scale
    from repro.results import default_store_path, open_store
    from repro.scenarios import expand, run_specs

    scale = get_scale(args.scale)
    specs = expand(args.name, scale, engine=args.engine)
    out = args.output
    if out is None and (args.record or args.resume):
        out = default_store_path(args.name, scale.name, args.store or "jsonl")
    from repro.scenarios.cache import env_disables_cache

    config = None
    if args.retries:
        from repro.parallel.pool import ParallelConfig

        config = ParallelConfig(jobs=args.jobs, retries=args.retries)
    # --store overrides; otherwise the backend follows the path suffix.
    sink = (
        open_store(out, backend=args.store, scale=scale.name) if out else None
    )
    try:
        results = run_specs(
            specs,
            jobs=args.jobs,
            config=config,
            sink=sink,
            # Default on; --no-cache or REPRO_RESULT_CACHE=0 opts out.
            cache=False if (args.no_cache or env_disables_cache()) else True,
            refresh=args.refresh,
            resume=args.resume,
        )
    finally:
        if sink is not None:
            sink.close()
    recorded = ""
    if sink is not None:
        # Honest resume accounting: `count` is this session's writes only,
        # so say how many records the file already held.
        recorded = (
            f" -> {out} ({sink.count} written, {sink.preexisting} preexisting,"
            f" {sink.total} total)"
        )
    print(f"{args.name}: {len(results)} cells at scale {scale.name}" + recorded)
    header = f"{'group':18s} {'algorithm':24s} {'k':>3s} {'n':>6s} {'routing':>12s} {'rotations':>12s} {'avg':>10s}"
    print(header)
    for cell in results:
        spec = cell.spec
        avg = f"{cell.average_routing:10.3f}" if spec.m else f"{'-':>10s}"
        print(
            f"{spec.group:18s} {spec.algorithm:24s} {spec.k:>3d} {spec.n:>6d}"
            f" {cell.total_routing:>12d} {cell.total_rotations:>12d} {avg}"
        )
    return 0


def _cmd_scenarios_export(args: argparse.Namespace) -> int:
    from repro.experiments.presets import get_scale
    from repro.scenarios import expand, specs_to_json

    scale = get_scale(args.scale)
    if args.to is not None:
        # Record conversion: stream the campaign's result record into the
        # other backend (JSONL ↔ SQLite), cell for cell.
        from repro.results import copy_results, default_store_path

        other = {"jsonl": "sqlite", "sqlite": "jsonl"}[args.to]
        source = Path(args.source) if args.source else default_store_path(
            args.name, scale.name, other
        )
        if not source.exists():
            raise ReproError(
                f"no result record at {source}; run the campaign first or"
                " pass --from"
            )
        out = Path(args.output) if args.output else default_store_path(
            args.name, scale.name, args.to
        )
        copied = copy_results(source, out)
        print(f"converted {copied} results: {source} -> {out}")
        return 0
    specs = expand(args.name, scale, engine=args.engine)
    text = specs_to_json(specs)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {len(specs)} specs to {args.output}")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-adjusting k-ary search tree networks (paper reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a workload trace")
    gen.add_argument("kind", choices=sorted(_GENERATORS))
    gen.add_argument("output", help="output path (.csv or .npz)")
    gen.add_argument("-n", "--nodes", type=int, default=100)
    gen.add_argument("-m", "--requests", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "-p", "--param", type=float, default=None,
        help="generator parameter (temporal p / zipf alpha / burst length)",
    )
    gen.set_defaults(func=_cmd_gen)

    stats = sub.add_parser("stats", help="fingerprint a trace")
    stats.add_argument("trace", help="trace path (.csv or .npz)")
    stats.set_defaults(func=_cmd_stats)

    complexity = sub.add_parser(
        "complexity", help="complexity-map coordinates of a trace"
    )
    complexity.add_argument("trace", help="trace path (.csv or .npz)")
    complexity.add_argument(
        "--window", type=int, default=64,
        help="recurrence window for burst locality",
    )
    complexity.set_defaults(func=_cmd_complexity)

    figures = sub.add_parser(
        "figures", help="render the paper's schematic figures"
    )
    figures.add_argument(
        "only", nargs="*", default=None,
        help="subset to render (figure1 .. figure8; default all)",
    )
    figures.set_defaults(func=_cmd_figures)

    sim = sub.add_parser("simulate", help="run a trace through a network")
    sim.add_argument("trace", help="trace path (.csv or .npz)")
    sim.add_argument("network", choices=_NETWORKS)
    sim.add_argument("-k", type=int, default=2, help="tree arity")
    sim.add_argument(
        "--alpha", type=float, default=10_000.0,
        help="rebuild threshold for the lazy network",
    )
    sim.add_argument(
        "--engine", choices=("object", "flat", "native"), default=None,
        help="tree-engine backend for the self-adjusting networks",
    )
    sim.add_argument(
        "--policy", action="append", default=None, metavar="NAME[:K=V,...]",
        help="wrap the network in an adjustment policy (repeatable, applied"
             " innermost-first): e.g. thresholded:threshold=2,"
             " probabilistic:q=0.5,seed=7, frozen",
    )
    sim.set_defaults(func=_cmd_simulate)

    opt = sub.add_parser("optimal", help="optimal static tree for a trace")
    opt.add_argument("trace", help="trace path (.csv or .npz)")
    opt.add_argument("-k", type=int, default=2)
    opt.add_argument("--show", action="store_true", help="render the tree")
    opt.add_argument("--max-render", type=int, default=100)
    opt.set_defaults(func=_cmd_optimal)

    rep = sub.add_parser("reproduce", help="regenerate the paper's tables")
    rep.add_argument("--scale", default=None, choices=("smoke", "quick", "paper"))
    rep.add_argument("--output", default=None, help="directory for reports")
    rep.add_argument("--quiet", action="store_true")
    rep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the table cells (0 = all cores)",
    )
    rep.add_argument(
        "--engine", choices=("object", "flat", "native"), default=None,
        help="tree-engine backend for the self-adjusting cells"
             " (default: flat, the fast one; totals are engine-independent)",
    )
    rep.add_argument(
        "--verify", action="store_true",
        help="check every qualitative claim and exit nonzero on failure",
    )
    rep.add_argument(
        "--cache", action="store_true",
        help="serve unchanged cells from the per-cell result cache"
             " (default: only when REPRO_RESULT_CACHE is set)",
    )
    rep.add_argument(
        "--refresh", action="store_true",
        help="recompute every cell and overwrite its cache entry"
             " (implies --cache)",
    )
    rep.set_defaults(func=_cmd_reproduce)

    scen = sub.add_parser(
        "scenarios",
        help="declarative scenario sets: the paper's tables as data",
    )
    scen_sub = scen.add_subparsers(dest="action", required=True)

    scen_list = scen_sub.add_parser("list", help="registered scenario sets")
    scen_list.add_argument("--scale", default=None, choices=("smoke", "quick", "paper"))
    scen_list.set_defaults(func=_cmd_scenarios_list)

    scen_run = scen_sub.add_parser("run", help="run one scenario set")
    scen_run.add_argument("name", help="a name from `repro scenarios list`")
    scen_run.add_argument("--scale", default=None, choices=("smoke", "quick", "paper"))
    scen_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the cells (0 = all cores)",
    )
    scen_run.add_argument(
        "--engine", choices=("object", "flat", "native"), default=None,
        help="tree-engine backend for the self-adjusting cells",
    )
    scen_run.add_argument(
        "--output", default=None,
        help="stream results to this record file (.jsonl or .sqlite)",
    )
    scen_run.add_argument(
        "--record", action="store_true",
        help="stream results to the conventional benchmarks/results/ path",
    )
    scen_run.add_argument(
        "--store", choices=("jsonl", "sqlite"), default=None,
        help="results backend (default: inferred from the output path"
             " suffix, jsonl otherwise)",
    )
    scen_run.add_argument(
        "--no-cache", action="store_true",
        help="compute every cell even if the result cache has it",
    )
    scen_run.add_argument(
        "--refresh", action="store_true",
        help="recompute every cell and overwrite its cache entry",
    )
    scen_run.add_argument(
        "--resume", action="store_true",
        help="seed completed cells from the output file (after a crash)"
        " and compute only the rest",
    )
    scen_run.add_argument(
        "--retries", type=int, default=0,
        help="re-attempts per failing cell (deterministic backoff)",
    )
    scen_run.set_defaults(func=_cmd_scenarios_run)

    scen_export = scen_sub.add_parser(
        "export",
        help="expand one scenario set to a JSON spec list, or convert its"
             " result record between store backends (--to)",
    )
    scen_export.add_argument("name", help="a name from `repro scenarios list`")
    scen_export.add_argument("--scale", default=None, choices=("smoke", "quick", "paper"))
    scen_export.add_argument(
        "--engine", choices=("object", "flat", "native"), default=None,
        help="pin the tree engine in the exported specs",
    )
    scen_export.add_argument(
        "--to", choices=("jsonl", "sqlite"), default=None,
        help="convert the campaign's result record to this backend"
             " instead of exporting specs",
    )
    scen_export.add_argument(
        "--from", dest="source", default=None,
        help="source record for --to (default: the campaign's"
             " conventional path in the other backend)",
    )
    scen_export.add_argument("-o", "--output", default=None, help="write here")
    scen_export.set_defaults(func=_cmd_scenarios_export)

    serve = sub.add_parser(
        "serve",
        help="socket ingress gateway in front of a serve farm",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="serve-farm worker processes behind the gateway",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("-n", "--nodes", type=int, default=1024)
    serve.add_argument("-k", type=int, default=4, help="tree arity")
    serve.add_argument(
        "--engine", choices=("object", "flat", "native"), default=None,
        help="tree-engine backend for the workers (default: native,"
             " degrading to flat without the kernel)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002,
        help="micro-batch coalescing window per shard, seconds",
    )
    serve.add_argument(
        "--batch-max", type=int, default=256,
        help="max requests coalesced into one farm dispatch",
    )
    serve.add_argument(
        "--deadline", type=float, default=0.0,
        help="default per-request deadline, seconds (0 = none; expired"
             " requests get an explicit OVERLOAD response)",
    )
    serve.add_argument(
        "--health-interval", type=float, default=0.5,
        help="worker heartbeat period, seconds",
    )
    serve.add_argument(
        "--suspect-after", type=float, default=2.0,
        help="heartbeat silence before a shard is marked suspect, seconds",
    )
    serve.add_argument(
        "--down-after", type=float, default=5.0,
        help="heartbeat silence before a shard is declared down, killed"
             " and respawned, seconds",
    )
    serve.add_argument(
        "--max-respawns", type=int, default=2,
        help="worker respawn budget before the farm gives up loudly",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="warm-standby cadence: snapshot each session every N"
             " requests so recovery replays at most N (0 = replay-only)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive shard failures that trip its circuit breaker",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=1.0,
        help="seconds an open breaker waits before half-open probing",
    )
    serve.set_defaults(func=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos soak against a live `repro serve` process"
             " (kills every shard under load; exits 1 on any invariant"
             " violation)",
    )
    chaos.add_argument("-n", "--nodes", type=int, default=128)
    chaos.add_argument("-k", type=int, default=4, help="tree arity")
    chaos.add_argument("--keys", type=int, default=6, help="session keys")
    chaos.add_argument("--shards", type=int, default=2)
    chaos.add_argument(
        "--rounds", type=int, default=2,
        help="storm rounds, one shard SIGKILL each (round-robin: use"
             " >= --shards to kill every shard at least once)",
    )
    chaos.add_argument(
        "--requests-per-round", type=int, default=400,
        help="client requests pumped across the lanes per round",
    )
    chaos.add_argument("--zipf-alpha", type=float, default=1.2)
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="pins the workload and the fault schedule (the replay handle)",
    )
    chaos.add_argument(
        "--engine", choices=("object", "flat", "native"), default=None,
        help="tree-engine backend for the target's workers",
    )
    chaos.add_argument(
        "--faults-per-point", type=int, default=2,
        help="error-mode faults injected per fault point"
             " (ingress.accept / ingress.dispatch / farm.serve)",
    )
    chaos.add_argument(
        "--recovery-timeout", type=float, default=30.0,
        help="seconds to wait for a killed shard to come back healthy",
    )
    chaos.add_argument("--output", default=None, help="also write JSON here")
    chaos.set_defaults(func=_cmd_chaos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
