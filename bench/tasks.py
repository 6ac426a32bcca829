"""Benchmark tasks: what each workload runs and the outputs it must produce.

A task is either a CLI command (run as `python3 -m clawpoly.cli ARGS`) or a
library task that has no command; library tasks are the functions below,
run as `python3 bench/tasks.py NAME` so that each still gets a fresh
interpreter. Every task prints key=value records; `check` compares them, and
any artifact the task writes, with the known values stored here.

Run one library task by hand:

    PYTHONPATH=src python3 bench/tasks.py scan01
"""

from __future__ import annotations

import hashlib
import os
import sys

THEOREM_SAMPLES = 600

# sha256 of the `stats --leaves 5 --max-dim 15 --out` artifact
HULL_M5_ARTIFACT = "hull_m5.records"
HULL_M5_SHA256 = "f4f0ef908f778c36a4e277ca33c941dfcf02652b3289d7e71373d52ff44af257"
# sha256 of the demihypercube vertex list, one 0/1 string per vertex: the
# 1,024 even-weight 0/1 vectors of length 11 in lexicographic order
DEMICUBE_M11_SHA256 = "5e3b0b8e2bd85f03e2c8425f236e1bbad7fd8812e8f6c8fc63fdefd738774c2b"

K3_F_VECTOR = "16,120,528,1392,2176,1968,978,240,24"
SCAN_LEAVES = range(3, 8)
CONTAINMENT_LEAVES = range(3, 9)


def _record(**pairs) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs.items())


def _points_sha256(points) -> str:
    text = "\n".join("".join(str(x) for x in p) for p in points)
    return hashlib.sha256(text.encode()).hexdigest()


# --- library tasks -----------------------------------------------------------
# These call clawpoly through module attributes (engine.f, not a from-import),
# so that the traced run's wrappers on those attributes see the calls.

def demicube_m11() -> list[str]:
    """H->V on the binary model at m=11: 1,046 rows in dimension 11."""
    from clawpoly import engine, halfspaces

    vs = engine.vertices_from_inequalities(halfspaces.demihypercube_system(11), max_dim=11)
    even = sum(1 for p in vs.points if sum(p) % 2 == 0)
    return [
        _record(
            task="demicube_m11",
            vertices=len(vs.points),
            even_weight=even,
            sha256=_points_sha256(vs.points),
        )
    ]


def scan01() -> list[str]:
    """0/1 scans of the kimura3 system and the containment check behind
    `verify containment`, both on the bitmask fast path."""
    from clawpoly import engine, groups, halfspaces, vertices, witness

    lines = []
    for m in SCAN_LEAVES:
        pts = engine.enumerate_integral_points(halfspaces.kimura3_system(m))
        generated = sorted(vertices.generate_vertices(groups.Z2Z2, m).points)
        lines.append(
            _record(task="scan01", step="scan", leaves=m, points=len(pts),
                    equals_generated=pts == generated)
        )
    for m in CONTAINMENT_LEAVES:
        rep = witness.check_containment(m)
        lines.append(
            _record(task="scan01", step="containment", leaves=m, checked=rep.checked,
                    violations=len(rep.failures))
        )
    return lines


LIBRARY_TASKS = {"demicube_m11": demicube_m11, "scan01": scan01}


# --- the task table ----------------------------------------------------------
# "run" is ("cli", argv) or ("lib", a name in LIBRARY_TASKS); "{seed}" in an
# argv is replaced by the run's seed.

TASKS = {
    "vertices_m5": {
        "run": ("cli", ["verify", "integrality", "--leaves", "5", "--max-dim", "15"]),
        "expect": [
            {"command": "verify", "task": "integrality", "leaves": "5",
             "kimura3_vertices": "256", "kimura3_prime_vertices": "256",
             "violations": "0", "outcome": "pass"},
        ],
    },
    "hull_m5": {
        "run": ("cli", ["stats", "--leaves", "5", "--max-dim", "15", "--out", HULL_M5_ARTIFACT]),
        "expect": [
            {"command": "stats", "leaves": "5", "vertices": "256", "facets": "68",
             "outcome": "pass"},
        ],
        "artifact": (HULL_M5_ARTIFACT, HULL_M5_SHA256),
    },
    "demicube_m11": {
        "run": ("lib", "demicube_m11"),
        "expect": [
            {"task": "demicube_m11", "vertices": "1024", "even_weight": "1024",
             "sha256": DEMICUBE_M11_SHA256},
        ],
    },
    "theorems_m5": {
        "run": ("cli", ["verify", "theorems", "--leaves", "5", "--samples",
                        str(THEOREM_SAMPLES), "--seed", "{seed}"]),
        "expect": [
            {"command": "verify", "task": "theorems", "leaves": "5",
             "samples": str(THEOREM_SAMPLES), "violations": "0", "outcome": "pass"},
        ],
    },
    "fvector_m3": {
        "run": ("cli", ["stats", "--leaves", "3", "--f-vector"]),
        "expect": [
            {"command": "stats", "leaves": "3", "facets": "24", "f_vector": K3_F_VECTOR,
             "outcome": "pass"},
        ],
    },
    "scan01": {
        "run": ("lib", "scan01"),
        "expect": [
            {"step": "scan", "leaves": str(m), "points": str(4 ** (m - 1)),
             "equals_generated": "True"}
            for m in SCAN_LEAVES
        ] + [
            {"step": "containment", "leaves": str(m), "checked": str(4 ** (m - 1)),
             "violations": "0"}
            for m in CONTAINMENT_LEAVES
        ],
    },
}

WORKLOADS = {
    "convert": ["vertices_m5", "hull_m5", "demicube_m11"],
    "theorems": ["theorems_m5"],
    "combinatorial": ["fvector_m3", "scan01"],
}

# the no-work command every CLI call's start-up cost is measured with
SETUP_ARGV = ["hrep", "--model", "kimura3", "--leaves", "3"]


def cli_argv(name: str, seed: int) -> list[str]:
    """Arguments of a CLI task; theorems_m5 is the only one that takes the seed."""
    return [a.replace("{seed}", str(seed)) for a in TASKS[name]["run"][1]]


def parse_records(text: str) -> list[dict]:
    """key=value records, one per non-empty line; `wall` is dropped."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        rec.pop("wall", None)
        out.append(rec)
    return out


def check(name: str, returncode: int, stdout: str, workdir: str) -> str:
    """Empty string when the task's output matches the known values, else why not."""
    if returncode != 0:
        return f"exit code {returncode}"
    records = parse_records(stdout)
    expect = TASKS[name]["expect"]
    if len(records) != len(expect):
        return f"{len(records)} records, expected {len(expect)}"
    for i, (rec, want) in enumerate(zip(records, expect)):
        for key, value in want.items():
            if rec.get(key) != value:
                return f"record {i}: {key}={rec.get(key)!r}, expected {value!r}"
    artifact = TASKS[name].get("artifact")
    if artifact:
        path, digest = artifact
        try:
            with open(os.path.join(workdir, path), "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
        except OSError as e:
            return f"artifact {path}: {e}"
        if got != digest:
            return f"artifact {path}: sha256 {got}, expected {digest}"
    return ""


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in LIBRARY_TASKS:
        sys.exit(f"usage: tasks.py {{{','.join(LIBRARY_TASKS)}}}")
    for line in LIBRARY_TASKS[sys.argv[1]]():
        print(line)
