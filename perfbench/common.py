"""Shared pieces of the benchmark: paths, statistics, /proc readers, tracing.

:func:`prepare` must run before any :mod:`repro` import (the workload
modules import it at the top), so that the package, the compiled kernel
cache and every temporary file resolve inside the checkout the benchmark
runs from.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

_MISSING = object()


def prepare() -> None:
    """Point the package, kernel cache and temp files into the checkout.

    Exits with code 2 (printing no result) when the checkout holds no
    ``src/repro`` package to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYTHONPATH"] = str(SRC)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _START.update(loadavg=os.getloadavg(), steal=_steal_jiffies())


#: Host state when the run started, for the record.
_START: dict = {}


def _steal_jiffies() -> tuple[int, int]:
    """(stolen, total) jiffies of all CPUs from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        ticks = [int(x) for x in handle.readline().split()[1:]]
    return ticks[7], sum(ticks)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Exact nearest-rank percentile of raw samples (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """On-CPU seconds of a process's live threads, to the nanosecond.

    ``/proc/<pid>/task/<tid>/schedstat`` counts run time only, so time
    the hypervisor steals from the virtual CPU is not in it.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:  # the thread ended while listing
            pass
    return total / 1e9


def status_kb(pid: int, key: str) -> int:
    """A ``/proc/<pid>/status`` size field (``VmRSS``, ``VmHWM``) in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


# ----------------------------------------------------------------------
# tracing: time calls into a layer's public functions from outside
# ----------------------------------------------------------------------
class LayerTimer:
    """Accumulates wall seconds per span name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[..., str]",
        *,
        before: Optional[Callable[[tuple], None]] = None,
    ) -> Iterator[None]:
        """Replace ``owner.attr`` with a timed wrapper until the block ends.

        ``name`` may be a callable of the call's arguments, so one wrapper
        can file calls under several spans; ``before(args)`` runs ahead of
        each call (used to tag the spans nested inside it).
        """
        original = getattr(owner, attr)
        # The raw attribute (a classmethod object, or nothing when it is
        # inherited) is what restoring must put back.
        raw = vars(owner).get(attr, _MISSING)

        def timed(*args, **kwargs):
            if before is not None:
                before(args)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            span = name(*args) if callable(name) else name
            self.seconds[span] = self.seconds.get(span, 0.0) + elapsed
            return result

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """Machine and build facts recorded with every run."""
    import numpy

    from repro.core import _native

    sha = _git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "native_kernel": _native.available(),
        "native_error": _native.build_error(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Phases:
    """Sent / succeeded / failed counts for every phase of a run."""

    def __init__(self) -> None:
        self.rows: dict[str, dict[str, int]] = {}

    def record(self, phase: str, sent: int, failed: int) -> None:
        row = self.rows.setdefault(
            phase, {"sent": 0, "succeeded": 0, "failed": 0}
        )
        row["sent"] += sent
        row["succeeded"] += sent - failed
        row["failed"] += failed

    @property
    def sent(self) -> int:
        return sum(row["sent"] for row in self.rows.values())

    @property
    def failed(self) -> int:
        return sum(row["failed"] for row in self.rows.values())


def emit(
    *,
    workload: str,
    seed: int,
    trace: bool,
    env: dict,
    phases: Phases,
    report: dict[str, tuple[float, str, int]],
    metrics: dict[str, tuple[float, str]],
    checks: dict[str, bool],
    notes: Optional[dict] = None,
) -> int:
    """Print the human report, the full record and the result line.

    ``report`` maps a metric name to ``(value, unit, samples)``; it is
    printed line by line.  The last stdout line is the result object
    (``correct``/``attempted``/``failed``/``metrics``).  Returns the exit
    code: 1 when any exactness check failed.
    """
    correct = all(checks.values())
    steal, total = _steal_jiffies()
    for name, (value, unit, samples) in report.items():
        print(f"{workload:15s} {name:36s} {value:14.6g} {unit:8s} n={samples}")
    for name, ok in checks.items():
        print(f"{workload:15s} check {name:30s} {'ok' if ok else 'MISMATCH'}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": {
            **env,
            "loadavg_before": _START["loadavg"],
            "loadavg_after": os.getloadavg(),
            # Time the hypervisor ran other guests on this host's CPUs;
            # wall-clock metrics slow down as it grows.
            "cpu_steal_frac": (steal - _START["steal"][0])
            / max(1, total - _START["steal"][1]),
        },
        "phases": phases.rows,
        "report": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in report.items()
        },
        "checks": checks,
        **({"notes": notes} if notes else {}),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": phases.sent,
                "failed": phases.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1
