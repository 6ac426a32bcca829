"""clawpoly benchmark: exact conversions, theorem suites and 0/1 combinatorics.

    python3 bench/run.py [--workload convert|theorems|combinatorial|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it works on the checkout that holds this file and needs
only the standard library. Each task runs the way a user runs it: a fresh
interpreter per task (`python3 -m clawpoly.cli ...`, or bench/tasks.py for
the two tasks without a command), one at a time, in a temporary working
directory under bench_results/, so no artifact lands in the tree.

--trace 0 (default) repeats the workload's task list, each pass preceded by
start-up probes, as often as fits in --seconds (at least once), and prints
the end-to-end metrics: medians over passes of successful tasks, each time
rescaled by the bench/reference.py runs around it. --trace 1
runs every task of every workload once without and once with tracing
(bench/spans.py) and prints the per-layer metrics; it ignores --seconds and
takes about twice the length of all task lists together.

Every run writes bench_results/<workload>-seed<N>-trace<T>.json, with the
git revision, Python version and CPU count; a traced run also writes its
spans next to it. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. bench/README.md explains the
workloads and the per-layer map.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / "bench_results"
sys.path.insert(0, str(BENCH))

import tasks  # noqa: E402
import spans  # noqa: E402

PROBES_PER_PASS = 3
# bench/reference.py's output, and its run time on a host taken as speed 1
REFERENCE_OUTPUT = "ranks=72 hits=9281"
REF_NOMINAL_S = 0.12
CHILD_TIMEOUT_S = 60.0
# no new pass starts if it would likely end after this many seconds, whatever
# --seconds says, so that a run always ends within three minutes
RUN_CAP_S = 150.0


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("CLAWPOLY_MAX_DIM", None)  # the tasks pass their caps explicitly
    return env


def run_child(argv, cwd: Path, logs: Path):
    """Run argv in cwd and wait for it: (exit code or None on timeout, stdout,
    stderr, seconds measured from outside, peak RSS in MB)."""
    out_path, err_path = logs / "stdout", logs / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            code = os.waitstatus_to_exitcode(status)
        except _ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds, code = time.perf_counter() - t0, None
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    return code, stdout, stderr, seconds, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: its scratch directory, and how many checked child
    processes it started and which of them failed."""

    def __init__(self, scratch: Path, seed: int):
        self.scratch = scratch
        self.seed = seed
        self.attempted = 0
        self.failures = []

    def _in_workdir(self, label, argv, check):
        """Run argv in a fresh working directory; check(code, stdout, workdir)
        returns "" on success or the reason for failure."""
        workdir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch))
        try:
            code, stdout, stderr, seconds, rss = run_child(argv, workdir, self.scratch)
            why = "timed out" if code is None else check(code, stdout, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.attempted += 1
        if why:
            tail = stderr.strip().splitlines()[-1:] or [""]
            self.failures.append({"task": label, "why": why, "stderr": tail[0]})
        return why, seconds, rss

    def task(self, name):
        """One end-to-end task run: (ok, seconds, peak RSS MB)."""
        kind, spec = tasks.TASKS[name]["run"]
        if kind == "cli":
            argv = [sys.executable, "-m", "clawpoly.cli", *tasks.cli_argv(name, self.seed)]
        else:
            argv = [sys.executable, str(BENCH / "tasks.py"), spec]
        why, seconds, rss = self._in_workdir(
            name, argv, lambda code, out, wd: tasks.check(name, code, out, wd))
        return not why, seconds, rss

    def probe(self):
        """Start-up cost of a CLI call: seconds, or None if the probe failed."""
        def check(code, out, _):
            recs = tasks.parse_records(out)
            ok = code == 0 and len(recs) == 1 and recs[0].get("count") == "24"
            return "" if ok else f"setup probe: exit code {code}, output {out.strip()!r}"

        argv = [sys.executable, "-m", "clawpoly.cli", *tasks.SETUP_ARGV]
        why, seconds, _ = self._in_workdir("setup", argv, check)
        return None if why else seconds

    def reference(self):
        """Seconds bench/reference.py takes, or None if it went wrong."""
        def check(code, out, _):
            ok = code == 0 and out.strip() == REFERENCE_OUTPUT
            return "" if ok else f"reference: exit code {code}, output {out.strip()!r}"

        why, seconds, _ = self._in_workdir(
            "reference", [sys.executable, str(BENCH / "reference.py")], check)
        return None if why else seconds

    def traced_task(self, name, traced):
        """In-process run of one task through bench/spans.py: its result dict or None."""
        out = self.scratch / f"trace-{name}-{traced}.json"
        argv = [sys.executable, str(BENCH / "spans.py"), "--task", name, "--seed",
                str(self.seed), "--traced", str(traced), "--out", str(out)]
        result = {}

        def check(code, _, workdir):
            if code != 0:
                return f"exit code {code}"
            result.update(json.loads(out.read_text()))
            return tasks.check(name, result["returncode"], result["stdout"], workdir)

        why, _, _ = self._in_workdir(f"{name}-traced{traced}", argv, check)
        out.unlink(missing_ok=True)
        return None if why else result


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(run: Run, workload: str, seconds: float):
    """Repeat the workload's task list as often as fits in `seconds`.

    The host's speed changes under other tenants: a task's time moves by a
    fifth from pass to pass, and the speed shifts between fast and slow
    stretches of ten seconds or more. So every child, and every group of
    probes, runs between two runs of bench/reference.py, and its time is
    rescaled by their mean: time * REF_NOMINAL_S / mean(reference before,
    reference after). A run then takes medians over passes. Returns the
    end-to-end metrics and the details, raw times included.
    """
    names = tasks.WORKLOADS[workload]
    run.probe()  # untimed warm-up: byte-code cache and file cache
    refs = [run.reference()]  # refs[i] ran just before item i, just after item i - 1

    def bracketed(fn):
        out = fn()
        refs.append(run.reference())
        return out, len(refs) - 2

    probes, passes = [], []
    start = time.perf_counter()
    while True:
        group, i = bracketed(lambda: [run.probe() for _ in range(PROBES_PER_PASS)])
        probes.extend((secs, i) for secs in group if secs is not None)
        one = {}
        for name in names:
            (ok, secs, rss), i = bracketed(lambda: run.task(name))
            one[name] = (ok, secs, i, rss)
        passes.append(one)
        # stop before a pass that would likely end after `seconds`
        expected_end = (time.perf_counter() - start) * (len(passes) + 1) / len(passes)
        if expected_end > min(seconds, RUN_CAP_S):
            break
    # a failed reference run (already counted as a failure) borrows the median
    fill = _median([r for r in refs if r is not None])
    refs = [fill if r is None else r for r in refs]

    def scaled(secs, i):
        return secs * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1])

    runs = [r for p in passes for r in p.values()]
    ok_runs = sum(1 for r in runs if r[0])
    # a pass with a failed task gives no time, unless every pass failed
    good = [p for p in passes if all(r[0] for r in p.values())] or passes
    per_task = {name: [p[name] for p in passes if p[name][0]] for name in names}
    metrics = {
        # the task list's time: the sum of each task's median over the good passes
        "wall_s": (sum(_median([scaled(*p[n][1:3]) for p in good]) for n in names), "s"),
        "setup_s": (_median([scaled(secs, i) for secs, i in probes]), "s"),
        "ok_frac": (ok_runs / len(runs), "ratio"),
        "peak_rss_mb": (max(r[3] for r in runs), "MB"),
    }
    detail = {
        "passes": len(passes),
        "fail_frac": 1 - ok_runs / len(runs),
        "raw_wall_s": sum(_median([p[n][1] for p in good]) for n in names),
        "raw_setup_s": _median([secs for secs, _ in probes]),
        "reference_runs_s": refs,
        "setup_runs_s": [secs for secs, _ in probes],
        "tasks": {
            f"{n}_s": {"median": _median([scaled(*r[1:3]) for r in v]),
                       "raw_median": _median([r[1] for r in v]),
                       "raw_runs": [r[1] for r in v]}
            for n, v in per_task.items()
        },
    }
    return metrics, detail


def trace_tasks(run: Run):
    """Untraced and traced in-process runs of every task; per-layer metrics."""
    runs = {}
    for name in tasks.TASKS:
        runs[name] = {"untraced": run.traced_task(name, 0), "traced": run.traced_task(name, 1)}
    missing = [n for n, r in runs.items() if None in r.values()]
    for name, r in runs.items():
        if name in missing:
            continue
        plain = tasks.parse_records(r["untraced"]["stdout"])
        if tasks.parse_records(r["traced"]["stdout"]) != plain:
            run.failures.append({"task": name, "why": "traced records differ from untraced"})
    if missing:
        return {}, {"missing": missing}, []
    per_layer = spans.layer_metrics(runs)
    span_rows = [[name, *span] for name in runs for span in runs[name]["traced"]["spans"]]
    detail = {
        "task_runs_s": {n: {"untraced": r["untraced"]["task_s"], "traced": r["traced"]["task_s"]}
                        for n, r in runs.items()},
        "repeat_exactly": spans.repeat_exactly(),
        "roadmap_baseline": spans.roadmap_comparison(runs, per_layer),
    }
    metrics = {k: (v["value"], v["unit"]) for k, v in per_layer.items()}
    return metrics, detail, span_rows


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _print_metrics(label, metrics):
    print(f"[{label}]")
    width = max(len(k) for k in metrics)
    for k, (value, unit) in metrics.items():
        print(f"  {k:<{width}}  {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*tasks.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "clawpoly" / "__init__.py").is_file():
        print(f"error: no clawpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    run = Run(scratch, args.seed)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_revision": git_revision(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = {}
    try:
        if args.trace:
            metrics, result["trace"], span_rows = trace_tasks(run)
            _print_metrics(f"per-layer, seed {args.seed}", metrics)
            for k, v in result["trace"].get("roadmap_baseline", {}).items():
                print(f"  roadmap {k}: measured {v['measured']:.3f}, "
                      f"ROADMAP {v['roadmap']}, ratio {v['ratio']:.2f}")
            with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt") as fh:
                json.dump({"fields": ["task", "name", "start", "end", "parent"],
                           "spans": span_rows}, fh)
        else:
            names = list(tasks.WORKLOADS) if args.workload == "all" else [args.workload]
            result["workloads"] = {}
            for w in names:
                wm, detail = measure(run, w, args.seconds)
                result["workloads"][w] = detail
                _print_metrics(f"{w}, seed {args.seed}, {detail['passes']} passes", {
                    **wm, "fail_frac": (detail["fail_frac"], "ratio"),
                    **{k: (v["median"], "s") for k, v in detail["tasks"].items()},
                    "raw_wall_s": (detail["raw_wall_s"], "s"),
                    "raw_setup_s": (detail["raw_setup_s"], "s")})
                prefix = "" if len(names) == 1 else f"{w}."
                metrics.update({prefix + k: v for k, v in wm.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for f in run.failures:
        print(f"FAILED {f['task']}: {f['why']} {f.get('stderr', '')}".rstrip(), file=sys.stderr)
    summary = {
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result.update(summary, failures=run.failures)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
