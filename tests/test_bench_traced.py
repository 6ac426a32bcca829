"""The benchmark's traced mode, run on the package in this tree.

bench/spans.py wraps clawpoly functions and InequalitySystem methods by
name and reads work counts off their arguments and results, so a change
of the package's API can break the traced run while every plain task
still passes. Each task runs in a fresh interpreter in its own working
directory, as bench/run.py runs it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the traced work counts of each task
COUNTS = {
    "vertices_m5": {
        "engine.vertices_from_inequalities.rows_in": 136,
        "engine.vertices_from_inequalities.vertices_out": 512,
    },
    "hull_m5": {"engine.hull_from_vertices.facets_out": 68},
    "demicube_m11": {
        "engine.vertices_from_inequalities.rows_in": 1_046,
        "engine.vertices_from_inequalities.vertices_out": 1_024,
    },
    # the len() of each sampler's result, and the interior witnesses found
    "theorems_m5": {
        "sampling.sample_prime_points.points": 600,
        "sampling.sample_prime_segment_points.points": 300,
        "sampling.sample_box_points.points": 900,
        "witness.interior_witness.successes": 599,
    },
    "fvector_m3": {
        "engine.hull_from_vertices.facets_out": 24,
        "engine.f_vector.faces": 7_442,
    },
    # the 0/1 scan at m=3..7; check_containment runs too
    "scan01": {
        "engine.enumerate_integral_points.scanned": 2_396_672,
        "engine.enumerate_integral_points.found": 5_456,
    },
}


def _bench_tasks():
    spec = importlib.util.spec_from_file_location("bench_tasks", ROOT / "bench" / "tasks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("task", sorted(COUNTS))
def test_traced_task_runs_and_counts(task, tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("CLAWPOLY_MAX_DIM", None)
    argv = [sys.executable, str(ROOT / "bench" / "spans.py"), "--task", task, "--seed", "0",
            "--traced", "1", "--out", str(out)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["returncode"] == 0
    assert {key: result["counts"].get(key) for key in COUNTS[task]} == COUNTS[task]
    # the records, and the hull's artifact, against the benchmark's known values
    assert _bench_tasks().check(task, result["returncode"], result["stdout"], str(tmp_path)) == ""
