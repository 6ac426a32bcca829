"""Traced in-process run of one benchmark task, and the per-layer metrics.

`python3 bench/spans.py --task NAME --seed N --traced 0|1 --out FILE` runs
one task of bench/tasks.py inside this interpreter (a CLI task through
`clawpoly.cli.main`, a library task through its function) and writes its
records, its time and, with `--traced 1`, its spans to FILE as JSON.

With `--traced 1` it first wraps every public function of the layers named
in WRAPPED_MODULES, plus the InequalitySystem methods in WRAPPED_METHODS.
Each wrapper replaces the function under every clawpoly module name that
holds it, so calls between modules are caught (clawpoly.cli.hull_from_vertices
and clawpoly.engine.hull_from_vertices are the same wrapper). A wrapper
records a span (name, start, end, parent) in memory; COUNTERS add work counts
read from a call's arguments and result. Spans are written out when the task
has finished. Nothing in clawpoly itself changes.

`layer_metrics` turns the spans of a traced run of every task into the
per-layer metrics of PER_LAYER.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from collections import defaultdict

import tasks

WRAPPED_MODULES = (
    "cli", "coordchange", "engine", "fileio", "halfspaces", "linalg",
    "sampling", "suites", "vertices", "witness",
)
WRAPPED_METHODS = {"halfspaces": ("InequalitySystem", ("membership", "binary_violation", "tight_set"))}


def _rows_in(args, kwargs):
    source = args[0] if args else kwargs["source"]
    return len(source.homogenized_rows())


# work counts per call, read from (args, kwargs, result) after the span ends
COUNTERS = {
    "engine.vertices_from_inequalities": lambda a, k, r: {
        "rows_in": _rows_in(a, k), "vertices_out": len(r.points)},
    "engine.hull_from_vertices": lambda a, k, r: {"facets_out": len(r.facets)},
    "engine.f_vector": lambda a, k, r: {"faces": sum(r.counts)},
    "engine.enumerate_integral_points": lambda a, k, r: {
        "scanned": 1 << a[0].dimension, "found": len(r)},
    "witness.line_tight_subsets": lambda a, k, r: {
        "subsets_tested": 1 << (len(a[0]) - 1), "tight": len(r)},
    "witness.interior_witness": lambda a, k, r: {
        "successes": int(type(r).__name__ == "InteriorWitness")},
    "sampling.sample_prime_points": lambda a, k, r: {"points": len(r)},
    "sampling.sample_prime_segment_points": lambda a, k, r: {"points": len(r)},
    "sampling.sample_box_points": lambda a, k, r: {"points": len(r)},
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; -1 is no parent."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                for key, n in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return traced

    def install(self):
        """Wrap the public functions of WRAPPED_MODULES wherever clawpoly holds them."""
        originals = {}  # id(function) -> (function, wrapper)
        for short in WRAPPED_MODULES:
            mod = importlib.import_module(f"clawpoly.{short}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "clawpoly" and not mod_name.startswith("clawpoly."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, (cls_name, methods) in WRAPPED_METHODS.items():
            cls = getattr(importlib.import_module(f"clawpoly.{short}"), cls_name)
            for meth in methods:
                setattr(cls, meth, self.wrap(f"{short}.{meth}", getattr(cls, meth)))


def run_task(name: str, seed: int):
    """Run one task in this interpreter; returns (exit code, stdout, seconds)."""
    kind, spec = tasks.TASKS[name]["run"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        if kind == "cli":
            import clawpoly.cli

            code = clawpoly.cli.main(tasks.cli_argv(name, seed))
        else:
            for line in tasks.LIBRARY_TASKS[spec]():
                print(line)
            code = 0
        t1 = time.perf_counter()
    return code, out.getvalue(), t1 - t0


# --- per-layer metrics ---------------------------------------------------------

class _Stats:
    """Span totals of one or more tasks, keyed by span name or module."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)      # outermost spans of a name
        self.self_s = defaultdict(float)    # span time not covered by child spans
        self.mod_busy = defaultdict(float)  # outermost spans of a module
        self.mod_self = defaultdict(float)
        self.within = defaultdict(float)    # (name, ancestor name) -> outermost time
        self.counts = defaultdict(int)
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.task_untraced_s = {}

    def add_task(self, name, spans, counts, untraced_s, traced_s):
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (span_name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            mod = span_name.split(".", 1)[0]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            self.calls[span_name] += 1
            self.self_s[span_name] += dur - child[i]
            self.mod_self[mod] += dur - child[i]
            if span_name not in ancestors:
                self.busy[span_name] += dur
                for anc in set(ancestors):
                    self.within[(span_name, anc)] += dur
            if not any(a.split(".", 1)[0] == mod for a in ancestors):
                self.mod_busy[mod] += dur
        for key, n in counts.items():
            self.counts[key] += n
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        self.task_untraced_s[name] = untraced_s


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


def _busy(name):
    return lambda s: s.busy[name]


def _self(name):
    return lambda s: s.self_s[name]


def _calls(name):
    return lambda s: s.calls[name]


def _count(key):
    return lambda s: s.counts[key]


def _per_layer_table():
    """(metric, unit, workload whose tasks it is summed over or None for all,
    repeats exactly: "any_seed" / "same_seed" / None, value from _Stats)."""
    rows = []

    def add(metric, unit, scope, value, exact=None):
        rows.append((metric, unit, scope, exact, value))

    def exact_for(scope):
        return "same_seed" if scope == "theorems" else "any_seed"

    def busy(scope, *names):
        for n in names:
            add(f"{n}.busy_s", "s", scope, _busy(n))

    def busy_self(scope, *names):
        for n in names:
            add(f"{n}.busy_s", "s", scope, _busy(n))
            add(f"{n}.self_s", "s", scope, _self(n))

    def calls(scope, *names):
        for n in names:
            add(f"{n}.calls", "count", scope, _calls(n), exact_for(scope))

    def counts(scope, *keys):
        for k in keys:
            add(k, "count", scope, _count(k), exact_for(scope))

    conv, theo, comb = "convert", "theorems", "combinatorial"
    vfi, hull = "engine.vertices_from_inequalities", "engine.hull_from_vertices"
    busy(conv, vfi)
    counts(conv, f"{vfi}.rows_in", f"{vfi}.vertices_out")
    busy_self(conv, hull)
    counts(conv, f"{hull}.facets_out")
    calls(conv, "linalg.matrix_rank")
    busy(conv, "linalg.matrix_rank")
    postpass = lambda s: s.within[("linalg.matrix_rank", hull)]  # noqa: E731
    add(f"{hull}.postpass_s", "s", conv, postpass)
    add(f"{hull}.postpass_share", "ratio", conv, _ratio(postpass, _busy(hull)))

    fv, eip = "engine.f_vector", "engine.enumerate_integral_points"
    busy_self(comb, fv)
    counts(comb, f"{fv}.faces")
    calls(comb, "linalg.affine_rank")
    busy(comb, "linalg.affine_rank")
    in_fv = lambda s: s.within[("linalg.affine_rank", fv)]  # noqa: E731
    add(f"{fv}.affine_rank_share", "ratio", comb, _ratio(in_fv, _busy(fv)))
    busy(comb, eip)
    counts(comb, f"{eip}.scanned", f"{eip}.found")
    add(f"{eip}.hit_ratio", "ratio", comb,
        _ratio(_count(f"{eip}.found"), _count(f"{eip}.scanned")), "any_seed")
    calls(comb, "halfspaces.binary_violation")
    busy(comb, "halfspaces.binary_violation", "witness.check_containment")

    lts, iw = "witness.line_tight_subsets", "witness.interior_witness"
    points = lambda s: sum(  # noqa: E731
        s.counts[f"sampling.{f}.points"]
        for f in ("sample_prime_points", "sample_prime_segment_points", "sample_box_points"))
    calls(theo, "halfspaces.membership")
    busy(theo, "halfspaces.membership")
    add("sampling.points", "count", theo, points, "same_seed")
    add("halfspaces.membership.calls_per_point", "ratio", theo,
        _ratio(_calls("halfspaces.membership"), points), "same_seed")
    calls(theo, lts)
    busy(theo, lts)
    counts(theo, f"{lts}.subsets_tested", f"{lts}.tight")
    add(f"{lts}.hit_ratio", "ratio", theo,
        _ratio(_count(f"{lts}.tight"), _count(f"{lts}.subsets_tested")), "same_seed")
    busy_self(theo, "witness.incidence_report", "witness.pseudo_facet_structure", iw,
              "witness.s_facet_count_even")
    calls(theo, iw)
    counts(theo, f"{iw}.successes")
    add(f"{iw}.success_ratio", "ratio", theo,
        _ratio(_count(f"{iw}.successes"), _calls(iw)), "same_seed")
    busy(theo, "linalg.kernel_vector")
    add("sampling.busy_s", "s", theo, lambda s: s.mod_busy["sampling"])
    for n in ("coordchange.to_prime_coords", "coordchange.from_prime_coords"):
        calls(theo, n)
        busy(theo, n)
    for n in ("run_isomorphism_suite", "run_pseudo_facet_suite", "run_interior_suite"):
        add(f"suites.{n}.self_s", "s", theo, _self(f"suites.{n}"))

    busy(None, "vertices.generate_vertices")
    add("fileio.busy_s", "s", None, lambda s: s.mod_busy["fileio"])
    add("cli.self_s", "s", None, lambda s: s.mod_self["cli"])
    add("trace.overhead_s", "s", None, lambda s: s.traced_s - s.untraced_s)
    for workload, names in tasks.WORKLOADS.items():
        for n in names:
            add(f"task.{n}_s", "s", workload, lambda s, n=n: s.task_untraced_s[n])
    return rows


PER_LAYER = _per_layer_table()


def _stats(runs, names):
    st = _Stats()
    for n in names:
        tr = runs[n]["traced"]
        st.add_task(n, tr["spans"], tr["counts"], runs[n]["untraced"]["task_s"], tr["task_s"])
    return st


def layer_metrics(runs):
    """Per-layer metrics from {task: {"untraced": result, "traced": result}}.

    Each metric sums over the tasks of the workload PER_LAYER names for it.
    """
    stats = {w: _stats(runs, names) for w, names in tasks.WORKLOADS.items()}
    stats[None] = _stats(runs, tasks.TASKS)
    return {
        metric: {"value": value(stats[scope]), "unit": unit}
        for metric, unit, scope, _, value in PER_LAYER
    }


# ROADMAP baseline figures (one machine, Python 3.11.7) a traced run is set against
ROADMAP_BASELINE = {
    "hull_m5 hull_from_vertices_s": 5.5,
    "hull_m5 postpass_share": 0.70,
    "fvector_m3 f_vector_s": 3.8,
    "vertices_m5 kimura3 H->V_s": 1.1,
    "vertices_m5 kimura3-prime H->V_s": 2.5,
}


def roadmap_comparison(runs, per_layer):
    """The traced run's figures next to the ROADMAP baseline, with their ratio."""
    # `verify integrality` converts the kimura3 system first, then kimura3-prime
    hv = [t1 - t0 for n, t0, t1, _ in runs["vertices_m5"]["traced"]["spans"]
          if n == "engine.vertices_from_inequalities"]
    measured = {
        "hull_m5 hull_from_vertices_s": per_layer["engine.hull_from_vertices.busy_s"]["value"],
        "hull_m5 postpass_share": per_layer["engine.hull_from_vertices.postpass_share"]["value"],
        "fvector_m3 f_vector_s": per_layer["engine.f_vector.busy_s"]["value"],
        "vertices_m5 kimura3 H->V_s": hv[0],
        "vertices_m5 kimura3-prime H->V_s": hv[1],
    }
    return {k: {"measured": measured[k], "roadmap": v, "ratio": measured[k] / v}
            for k, v in ROADMAP_BASELINE.items()}


def repeat_exactly():
    """Count metrics that must read the same on every run: for any seed, or for one seed."""
    out = {"any_seed": [], "same_seed": []}
    for metric, _, _, exact, _ in PER_LAYER:
        if exact:
            out[exact].append(metric)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--task", required=True, choices=sorted(tasks.TASKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import clawpoly.cli  # noqa: F401  (import cost stays outside the task time)

    tracer = Tracer()
    if args.traced:
        tracer.install()
    code, stdout, task_s = run_task(args.task, args.seed)
    with open(args.out, "w") as fh:
        json.dump({"task": args.task, "traced": args.traced, "returncode": code,
                   "stdout": stdout, "task_s": task_s, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
