"""Parallel harness: correctness at scale and multi-process speedup.

Regenerates one k-ary table serially and with worker processes (the same
``run_kary_table`` with ``jobs``), asserts bit-identical results (the
harness is an accelerator, not a fork of the logic), and reports the
speedup.  Speedup is informational — CI boxes vary —
but equality is a hard gate.
"""

import os
import time

from conftest import run_once

from repro.experiments.tables import run_kary_table


def test_parallel_scaling(benchmark, scale, record_table):
    workload = "temporal-0.5"
    ks = scale.ks if scale.name == "smoke" else (2, 3, 4, 5)
    jobs = max(2, min(4, os.cpu_count() or 2))

    def run():
        t0 = time.perf_counter()
        serial = run_kary_table(workload, scale=scale, ks=ks, include_optimal=False)
        t1 = time.perf_counter()
        parallel = run_kary_table(
            workload, scale=scale, ks=ks, include_optimal=False, jobs=jobs
        )
        t2 = time.perf_counter()
        return serial, parallel, t1 - t0, t2 - t1

    serial, parallel, serial_s, parallel_s = run_once(benchmark, run)

    assert parallel.splaynet == serial.splaynet
    assert parallel.fulltree == serial.fulltree
    assert parallel.rotations == serial.rotations

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    lines = [
        f"Parallel table regeneration — {workload}, ks={ks}, jobs={jobs}",
        f"serial   : {serial_s:8.2f}s",
        f"parallel : {parallel_s:8.2f}s   (speedup {speedup:.2f}x)",
        "results  : identical (hard-asserted)",
    ]
    record_table("parallel_scaling", "\n".join(lines))
