"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingress-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, measured by wrapping each
layer's public entry points from outside (a metric of a layer the
workload never calls reads 0).  Every run first prints one line per
metric (value, unit, sample count) and per exactness check, then a
``record`` line with the environment and per-phase counts, and last the
result object.  The exit code is 1 when any exactness check fails and 2
when the checkout holds nothing to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = {
    "ingress-zipf": "ingress_zipf",
    "campaign-paper": "campaign_paper",
    "optimal-dp": "optimal_dp",
}
DEFAULT_SEED = 2024


def _spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.core import _native

    # Build (or load) the kernel before anything is timed; the gateway
    # and its workers load the same cached library.
    _native.load_kernel()
    spec = _spec()
    out = importlib.import_module(WORKLOADS[name]).run(seed, seconds, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = out["layer"] if trace else out["e2e"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        m["name"]: (float(values.get(m["name"], 0.0)), m["unit"])
        for m in wanted
    }
    report = dict(out["report"])
    if trace:
        report.update(
            (name, (value, unit, 1))
            for name, (value, unit) in metrics.items()
            if name in values
        )
    return common.emit(
        workload=name,
        seed=seed,
        trace=trace,
        env=out["env"],
        phases=out["phases"],
        report=report,
        metrics=metrics,
        checks=out["checks"],
        notes=out.get("notes"),
    )


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one summary table."""
    codes, summary = [], {}
    attempted = failed = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        codes.append(done.returncode)
        lines = done.stdout.splitlines()
        record = next(
            (json.loads(l[7:]) for l in lines if l.startswith("record ")), None
        )
        if record is None or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, row in record["report"].items():
            summary[f"{name}/{metric}"] = row
    print("summary")
    for key, row in summary.items():
        print(f"  {key:52s} {row['value']:14.6g} {row['unit']:8s} n={row['samples']}")
    print(
        json.dumps(
            {
                "correct": not any(codes),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": row["value"], "unit": row["unit"]}
                    for key, row in summary.items()
                },
            }
        )
    )
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.prepare()
    seconds = args.seconds or _spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
