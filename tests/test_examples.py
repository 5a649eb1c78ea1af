"""Smoke-run the fast example scripts: every shipped walkthrough must
execute cleanly against the current public API (import errors, renamed
symbols and broken demos fail here, not in a user's terminal)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: (script, argv, substring expected on stdout) — fast examples only; the
#: heavyweight ones (complexity_map, reproduce_paper) are exercised through
#: their underlying APIs in the unit suites.
FAST_EXAMPLES = [
    ("quickstart.py", [], "topology re-validated"),
    ("rotation_gallery.py", ["3"], "Figure 5"),
    ("key_migration.py", [], "identifiers before == after: True"),
    ("custom_traces.py", [], "temporal structure was worth"),
    ("convergence.py", [], "two-phase workload"),
    ("adjustment_policies.py", [], "winner"),
    ("parallel_sweep.py", ["2"], "cost falls with k"),
]


@pytest.mark.parametrize(
    "script,argv,expected",
    FAST_EXAMPLES,
    ids=[script for script, _, _ in FAST_EXAMPLES],
)
def test_example_runs(script, argv, expected):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path), *argv],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    if expected:
        assert expected in proc.stdout


def test_all_examples_are_documented_in_readme():
    readme = (EXAMPLES.parent / "README.md").read_text()
    for script in EXAMPLES.glob("*.py"):
        assert script.name in readme, (
            f"examples/{script.name} is not mentioned in README.md"
        )
