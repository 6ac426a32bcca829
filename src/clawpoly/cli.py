"""Command-line surface.

Subcommands: vrep, hrep, transform, verify, witness, stats. Every command
prints one final report record to stdout (the only place wall time ever
appears) and writes any artifact files with byte-identical content across
reruns of the same invocation.

Exit codes: 0 pass, 1 verification failure (a counterexample file is
written), 2 usage or precondition error, 3 resource cap.

Every command runs as a fresh process, so each handler imports the modules
only it calls: the module level holds what vrep, hrep and transform share
(errors, fileio, groups, halfspaces, rationals, vertices). engine is loaded
by verify and stats, witness by verify containment and witness, suites (with
sampling) by verify theorems, coordchange by transform, witness interior and
the suites. main imports logging only under -v; engine and suites import it
for their own loggers.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import (
    ClawpolyError,
    ConfigurationError,
    FileFormatError,
    ResourceCapError,
)
from .fileio import (
    format_hfile,
    format_vfile,
    parse_vfile,
    read_text,
    record_line,
    to_json,
    write_text,
)
from .groups import Z2Z2, element, parse_group
from .halfspaces import MODEL_BUILDERS, kimura3_system, model_system, row_count
from .rationals import is_integral, scale_to_ints
from .vertices import Labeling, VertexSet, generate_vertices, vertex_count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clawpoly",
        description="Exact V/H representations of claw-tree model polytopes.",
    )
    p.add_argument("-v", "--verbose", action="store_true", help="log engine progress")
    sub = p.add_subparsers(dest="command", required=True)

    vrep = sub.add_parser("vrep", help="write the vertex set of a model polytope")
    vrep.add_argument("--group", default="z2z2", help="group string, e.g. z2, z2z2, z3xz4")
    vrep.add_argument("--leaves", type=int, required=True, metavar="M")
    vrep.add_argument("--format", choices=["cdd-ext", "records", "json"], default="cdd-ext")
    vrep.add_argument("--out", help="output path (default: vrep_<group>_m<M>.<ext>)")
    vrep.add_argument("--allow-large", action="store_true", help="lift the generation cap")
    vrep.set_defaults(func=cmd_vrep)

    hrep = sub.add_parser("hrep", help="write the inequality system of a model")
    hrep.add_argument("--model", choices=sorted(MODEL_BUILDERS), required=True)
    hrep.add_argument("--leaves", type=int, required=True, metavar="M")
    hrep.add_argument("--format", choices=["cdd-ine", "records", "json"], default="cdd-ine")
    hrep.add_argument("--out")
    hrep.set_defaults(func=cmd_hrep)

    tr = sub.add_parser("transform", help="convert a point file between coordinate systems")
    tr.add_argument("--in", dest="infile", required=True, help="input .ext point file")
    tr.add_argument(
        "--inverse", action="store_true", help="prime to standard instead of standard to prime"
    )
    tr.add_argument("--format", choices=["cdd-ext", "records", "json"], default="cdd-ext")
    tr.add_argument("--out")
    tr.set_defaults(func=cmd_transform)

    ver = sub.add_parser("verify", help="run a verification task")
    ver.add_argument("task", choices=["containment", "equality", "integrality", "theorems"])
    ver.add_argument("--leaves", type=int, required=True, metavar="M")
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out-dir", default=".", help="where counterexample files go")
    ver.add_argument("--max-dim", type=int, default=None, help="override the engine cap")
    ver.set_defaults(func=cmd_verify)

    wit = sub.add_parser("witness", help="produce an explicit certificate")
    wit.add_argument("kind", choices=["violation", "interior"])
    wit.add_argument("--labeling", help='leaf labeling, e.g. "10,01,11" (violation)')
    wit.add_argument("--group", default="z2z2")
    wit.add_argument("--point", help="single-point .ext file (interior)")
    wit.add_argument("--out", help="also write the certificate records to this path")
    wit.set_defaults(func=cmd_witness)

    st = sub.add_parser("stats", help="counts and derived facts for one m")
    st.add_argument("--leaves", type=int, required=True, metavar="M")
    st.add_argument("--f-vector", action="store_true", dest="fvector")
    st.add_argument("--max-dim", type=int, default=None)
    st.add_argument("--out")
    st.set_defaults(func=cmd_stats)
    return p


def _emit(pairs, started) -> None:
    wall = time.perf_counter() - started
    print(record_line(list(pairs) + [("wall", f"{wall:.3f}s")]))


def _emit_record(args, pairs, started, code=0) -> int:
    """Write the record (no wall time) to --out when given, then print it."""
    if args.out:
        write_text(args.out, record_line(pairs) + "\n")
        pairs = pairs + [("file", args.out)]
    _emit(pairs, started)
    return code


# --- vrep / hrep / transform --------------------------------------------------

EXTENSIONS = {"cdd-ext": "ext", "cdd-ine": "ine", "records": "records", "json": "json"}


def _write_artifact(args, head, count, renders, stem, started) -> int:
    """Render --format with renders[format], write it to --out or <stem>.<ext>, emit."""
    out = args.out or f"{stem}.{EXTENSIONS[args.format]}"
    write_text(out, renders[args.format]())
    _emit(head + [("count", count), ("outcome", "pass"), ("file", out)], started)
    return 0


def _records(head_pairs, body) -> str:
    return "\n".join([record_line(head_pairs)] + body) + "\n"


def _vertex_renders(vs: VertexSet, head):
    return {
        "cdd-ext": lambda: format_vfile(vs),
        "records": lambda: _records(
            head + [("dimension", vs.dimension), ("count", len(vs.points))],
            [record_line([("point", i), ("coords", pt)]) for i, pt in enumerate(vs.points)],
        ),
        "json": lambda: to_json(
            dict(head, shape=list(vs.shape), points=[list(p) for p in vs.points])
        ),
    }


def cmd_vrep(args) -> int:
    started = time.perf_counter()
    spec = parse_group(args.group)
    vs = generate_vertices(spec, args.leaves, allow_large=args.allow_large)
    head = [("command", "vrep"), ("group", spec.name()), ("leaves", args.leaves)]
    stem = f"vrep_{spec.name()}_m{args.leaves}"
    return _write_artifact(args, head, len(vs.points), _vertex_renders(vs, head), stem, started)


def cmd_hrep(args) -> int:
    started = time.perf_counter()
    sys_ = model_system(args.model, args.leaves)
    head = [("command", "hrep"), ("model", args.model), ("leaves", args.leaves)]

    def described():
        """(description, a, b) per row, in id order."""
        return [(f"id={i} {tag.describe()} rhs={b}", a, b)
                for i, ((a, b), tag) in enumerate(zip(sys_.rows, sys_.families))]

    renders = {
        "cdd-ine": lambda: format_hfile(sys_),
        "records": lambda: _records(
            head + [("dimension", sys_.dimension), ("count", len(sys_))],
            [f"inequality {text} coeffs={','.join(map(str, a))}" for text, a, _ in described()],
        ),
        "json": lambda: to_json(dict(head, dimension=sys_.dimension, inequalities=[
            {"id": i, "family": text, "coeffs": list(a), "rhs": b}
            for i, (text, a, b) in enumerate(described())
        ])),
    }
    stem = f"hrep_{args.model}_m{args.leaves}"
    return _write_artifact(args, head, len(sys_), renders, stem, started)


def _read_points(path):
    """The points of a V-file as ScaledPoints of a 3 x m layout, and m; a
    file with another row count, or a dimension that is no multiple of 3, is
    refused."""
    vs = parse_vfile(read_text(path))
    if len(vs.shape) == 2 and vs.shape[0] != 3:
        raise FileFormatError(f"a {vs.shape[0]}-row point layout is not 3 x m")
    if vs.dimension % 3:
        raise FileFormatError(
            f"point file dimension {vs.dimension} is not a 3-row matrix layout"
        )
    return [scale_to_ints(p) for p in vs.points], vs.dimension // 3


def cmd_transform(args) -> int:
    from .coordchange import from_prime_scaled, to_prime_scaled

    started = time.perf_counter()
    points, m = _read_points(args.infile)
    fn = from_prime_scaled if args.inverse else to_prime_scaled
    images = tuple(fn(p).values() for p in points)
    out_vs = VertexSet(dimension=3 * m, shape=(3, m), points=images)
    direction = "prime-to-standard" if args.inverse else "standard-to-prime"
    head = [("command", "transform"), ("direction", direction)]
    # the default output goes in the working directory, named after the input's basename
    stem = os.path.splitext(os.path.basename(args.infile))[0]
    stem += "_standard" if args.inverse else "_prime"
    return _write_artifact(args, head, len(images), _vertex_renders(out_vs, head), stem, started)


# --- verify -------------------------------------------------------------------
# Each task returns (record pairs, counterexample lines); no lines is a pass.

def _verify_containment(args):
    from .witness import check_containment

    rep = check_containment(args.leaves)
    lines = [
        record_line([("counterexample", "containment"), ("point", pt), ("violated", vid)])
        for pt, vid in rep.failures
    ]
    return [("checked", rep.checked), ("violations", len(rep.failures))], lines


def _verify_equality(args):
    from .engine import check_dimension, equal_polytopes, vertices_from_inequalities

    # K(m) lies in R^(3m): the cap is checked before the system is built
    check_dimension(3 * args.leaves, args.max_dim)
    vd = vertices_from_inequalities(kimura3_system(args.leaves), max_dim=args.max_dim)
    rep = equal_polytopes(vd, generate_vertices(Z2Z2, args.leaves))
    lines = [
        record_line([("counterexample", "equality"), ("side", side), ("point", pt)])
        for side, pts in (("engine-only", rep.only_a), ("generated-only", rep.only_b))
        for pt in pts
    ]
    return [("engine_vertices", rep.checked_a), ("generated_vertices", rep.checked_b)], lines


def _verify_integrality(args):
    from .engine import check_dimension, vertices_from_inequalities

    check_dimension(3 * args.leaves, args.max_dim)
    counts = []
    lines = []
    for model in ("kimura3", "kimura3-prime"):
        vs = vertices_from_inequalities(model_system(model, args.leaves), max_dim=args.max_dim)
        counts.append((model.replace("-", "_") + "_vertices", len(vs.points)))
        lines += [
            record_line([("counterexample", "integrality"), ("model", model), ("point", pt)])
            for pt in vs.points
            if not all(is_integral(x) for x in pt)
        ]
    return counts + [("violations", len(lines))], lines


def _verify_theorems(args):
    from .suites import run_interior_suite, run_isomorphism_suite, run_pseudo_facet_suite

    m, n = args.leaves, args.samples
    iso = run_isomorphism_suite(m, n, seed=args.seed)
    pf = run_pseudo_facet_suite(m, n, seed=args.seed)
    iw = run_interior_suite(m, n, seed=args.seed)
    lines = [
        f"counterexample=theorems suite={name} detail={repr(f).replace(' ', '')}"
        for name, rep in (("isomorphism", iso), ("pseudo_facet", pf), ("interior", iw))
        for f in rep.failures
    ]
    pairs = [
        ("samples", n),
        ("roundtrips", iso.roundtrip_checked),
        ("memberships", iso.membership_checked),
        ("pseudo_facet_samples", pf.samples),
        ("cycle_configs", pf.cycle_configs),
        ("interior_nonintegral", iw.nonintegral),
        ("violations", len(lines)),
    ]
    return pairs, lines


VERIFY_TASKS = {
    "containment": _verify_containment,
    "equality": _verify_equality,
    "integrality": _verify_integrality,
    "theorems": _verify_theorems,
}


def cmd_verify(args) -> int:
    from .engine import _dimension_cap

    started = time.perf_counter()
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be at least 1, got {args.samples}")
    # containment and theorems run no DD, but a bad cap still exits 3
    _dimension_cap(args.max_dim)
    pairs, lines = VERIFY_TASKS[args.task](args)
    pairs = [("command", "verify"), ("task", args.task), ("leaves", args.leaves)] + pairs
    if not lines:
        _emit(pairs + [("outcome", "pass")], started)
        return 0
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"counterexample_{args.task}_m{args.leaves}.records")
    write_text(path, "\n".join(lines) + "\n")
    _emit(pairs + [("outcome", "fail"), ("file", path)], started)
    return 1


# --- witness ------------------------------------------------------------------

def _parse_labeling(spec, text: str) -> Labeling:
    width = len(spec.orders)
    elements = []
    for token in text.split(","):
        token = token.strip()
        if len(token) != width or not (token.isascii() and token.isdigit()):
            raise ConfigurationError(
                f"labeling token {token!r} is not {width} digits for group {spec.name()}"
            )
        digits = tuple(int(ch) for ch in token)
        if any(d >= n for d, n in zip(digits, spec.orders)):
            raise ConfigurationError(
                f"labeling token {token!r} has a digit at or above its factor's order "
                f"in group {spec.name()}"
            )
        elements.append(element(spec, digits))
    return Labeling(spec, tuple(elements))


def cmd_witness(args) -> int:
    from .witness import InteriorWitness, analyze_point, interior_witness, violation_witness

    started = time.perf_counter()
    if args.kind == "violation":
        if not args.labeling:
            raise ConfigurationError("witness violation needs --labeling")
        w = violation_witness(_parse_labeling(parse_group(args.group), args.labeling))
        pairs = [("command", "witness"), ("kind", "violation"), ("consistent", w is None)]
        if w is not None:
            pairs += [("subset", w.subset), ("row_pair", w.row_pair),
                      ("inequality", w.inequality_id), ("lhs", w.lhs), ("rhs", w.rhs)]
        return _emit_record(args, pairs + [("outcome", "pass")], started)
    if not args.point:
        raise ConfigurationError("witness interior needs --point FILE")
    points, _ = _read_points(args.point)
    if len(points) != 1:
        raise FileFormatError(f"expected exactly one point, found {len(points)}")
    wit = interior_witness(analyze_point(points[0]))
    pairs = [("command", "witness"), ("kind", "segment-interior")]
    if isinstance(wit, InteriorWitness):
        from .coordchange import point_rows

        pairs += [("epsilon", wit.epsilon), ("direction", point_rows(wit.direction)),
                  ("outcome", "pass")]
        return _emit_record(args, pairs, started)
    pairs += [("reason", wit.reason.replace(" ", "-")), ("outcome", "fail")]
    return _emit_record(args, pairs, started, 1)


# --- stats --------------------------------------------------------------------

def cmd_stats(args) -> int:
    from .engine import _dimension_cap, f_vector, hull_from_vertices

    started = time.perf_counter()
    m = args.leaves
    # the vertex cap is checked before the rows are counted; the vertices
    # themselves are generated only for the hull
    pairs = [("command", "stats"), ("leaves", m), ("vertices", vertex_count(Z2Z2, m))]
    for model in ("kimura3", "kimura3-prime", "binary"):
        pairs.append((model.replace("-", "_") + "_inequalities", row_count(model, m)))
    outcome = "pass"
    # the hull has no cap of its own; stats applies the engine's cap to K(m) in R^(3m)
    if 3 * m > _dimension_cap(args.max_dim):
        outcome = "partial"
        pairs.append(("facets", "skipped-by-cap"))
    else:
        hull = hull_from_vertices(generate_vertices(Z2Z2, m))
        pairs.append(("facets", len(hull.facets)))
        if args.fvector:
            if m == 3:
                fv = f_vector(hull)
                pairs.append(("f_vector", fv.counts))
                if not fv.complete:
                    outcome = "partial"
            else:
                outcome = "partial"
                pairs.append(("f_vector", "m3-only"))
    return _emit_record(args, pairs + [("outcome", outcome)], started)


# --- entry --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except ResourceCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ClawpolyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
