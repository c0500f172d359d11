"""Command-line entry point: bounds, colourings, generators, benchmark tables."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .graphs import (
    ConflictGraph,
    Partition,
    TimetablingInstance,
    complete_graph,
    connected_components,
    counting_bound,
    cycle_graph,
    empty_graph,
    gen_forbidden_intersection,
    gen_gnp,
    gen_kneser,
    path_graph,
    validate_partition,
)
from .ingest import (
    InstanceDocument,
    ParseError,
    parse_dimacs,
    parse_itc2007,
    parse_native,
    parse_toronto,
    write_native,
)
from .oracle import OracleResult, exact_bounded_chromatic, sandwich_check
from .relax import (
    Atoms,
    SdpModel,
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
)
from .rounding import (
    RoundingConfig,
    greedy_colouring,
    iterative_round,
    kms_round,
)
from .solver import SolverConfig, extract_bound, solve


class CliError(Exception):
    pass


def make_generated(spec: str) -> InstanceDocument:
    """Instance from a generator spec like gnp:20,0.5,1 or kneser:5,2."""
    kind, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a] if rest else []
    try:
        if kind == "gnp":
            g = gen_gnp(int(args[0]), float(args[1]), int(args[2]))
        elif kind == "kneser":
            g = gen_kneser(int(args[0]), int(args[1]))
        elif kind == "fi":
            g = gen_forbidden_intersection(int(args[0]), float(Fraction(args[1])))
        elif kind == "complete":
            g = complete_graph(int(args[0]))
        elif kind == "empty":
            g = empty_graph(int(args[0]))
        elif kind == "cycle":
            g = cycle_graph(int(args[0]))
        elif kind == "path":
            g = path_graph(int(args[0]))
        else:
            raise CliError(f"unknown generator {kind!r}")
    except (IndexError, ValueError) as err:
        raise CliError(f"bad generator spec {spec!r}: {err}") from err
    inst = TimetablingInstance(graph=g, m=max(g.n, 1))
    return InstanceDocument(name=spec, instance=inst, source_format="native")


_FORMAT_OF_SUFFIX = {".col": "dimacs", ".crs": "toronto", ".stu": "toronto",
                     ".ctt": "itc2007"}


def load_document(paths: list[str], fmt: str) -> InstanceDocument:
    if not paths:
        raise CliError("no input given (pass a path or --gen)")
    first = Path(paths[0])
    if fmt == "auto":
        fmt = _FORMAT_OF_SUFFIX.get(first.suffix.lower(), "native")
    if fmt == "toronto":
        if len(paths) == 2:
            crs, stu = Path(paths[0]), Path(paths[1])
        else:
            base = first.with_suffix("")
            crs, stu = base.with_suffix(".crs"), base.with_suffix(".stu")
        for p in (crs, stu):
            if not p.exists():
                raise CliError(f"missing file {p}")
        return parse_toronto(
            crs.read_text(), stu.read_text(), name=crs.stem
        )
    if not first.exists():
        raise CliError(f"missing file {first}")
    text = first.read_text()
    if fmt == "dimacs":
        g = parse_dimacs(text)
        inst = TimetablingInstance(graph=g, m=max(g.n, 1))
        return InstanceDocument(name=first.stem, instance=inst, source_format="dimacs")
    if fmt == "itc2007":
        return parse_itc2007(text, name=first.stem)
    if fmt == "native":
        return parse_native(text)
    raise CliError(f"unknown format {fmt!r}")


def select_component(doc: InstanceDocument, k: int) -> InstanceDocument:
    """Restrict to the k-th largest connected component (k is 1-based).

    Every per-event field is renumbered onto the kept events: pre-colouring
    classes are cut to the component (empty ones dropped), and the rooms are
    scoped to min(m, component size) through scope_instance.
    """
    comps = sorted(connected_components(doc.instance.graph), key=len, reverse=True)
    if not 1 <= k <= len(comps):
        raise CliError(f"component {k} out of range (graph has {len(comps)})")
    sub, old_ids = doc.instance.graph.subgraph(comps[k - 1])
    new_id = {old: new for new, old in enumerate(old_ids)}
    inst = doc.instance

    def per_event(values):
        return None if values is None else tuple(values[v] for v in old_ids)

    classes = (
        frozenset(new_id[v] for v in cls if v in new_id) for cls in inst.precolouring
    )
    renumbered = replace(
        inst,
        graph=sub,
        event_sizes=per_event(inst.event_sizes),
        event_features=frozenset(
            (new_id[v], f) for v, f in inst.event_features if v in new_id
        ),
        precolouring=tuple(cls for cls in classes if cls),
        weights=per_event(inst.weights),
        lectures=per_event(inst.lectures),
    )
    return InstanceDocument(
        name=f"{doc.name}#c{k}",
        instance=scope_instance(renumbered, min(inst.m, max(sub.n, 1))),
        source_format=doc.source_format,
    )


def largest_class(g: ConflictGraph, time_limit: float) -> tuple[int, OracleResult]:
    """C, the largest class of an optimal unbounded colouring of g, and the
    oracle search that found it; a search that times out proves no C."""
    res = exact_bounded_chromatic(TimetablingInstance.colouring(g, g.n),
                                  time_limit=time_limit)
    if res.witness is None or res.chi_m is None:
        raise CliError("oracle could not colour the instance unbounded")
    return max(len(c) for c in res.witness.classes), res


_NO_SEARCH = {"oracle_nodes": "", "oracle_seconds": ""}


def resolve_m(doc: InstanceDocument, args) -> tuple[int | None, dict]:
    """The room count, and the row columns of the oracle search --m-offset
    ran to find it (its nodes and wall seconds; empty when it ran none)."""
    if args.m is not None and args.m_offset is not None:
        raise CliError("--m and --m-offset are mutually exclusive")
    if args.m is not None:
        return args.m, _NO_SEARCH
    if args.m_offset is not None:
        # the offset is taken from a colouring of the bare graph
        _refuse_unmodelled(doc.instance, "--m-offset", "weights", "precolouring")
        t0 = time.perf_counter()
        largest, res = largest_class(doc.instance.graph, args.oracle_limit)
        search = {"oracle_nodes": res.nodes_explored,
                  "oracle_seconds": f"{time.perf_counter() - t0:.3f}"}
        m = largest + args.m_offset
        if m < 1:
            raise CliError(f"--m-offset yields m={m} < 1 (largest class {largest})")
        return m, search
    return None, _NO_SEARCH


def _instance(args) -> tuple[str, TimetablingInstance, int | None, dict]:
    """The instance `bound` or `colour` runs on: generated or loaded, cut to
    --component, and scoped to the resolved room count m when there is one.
    Returns its name, the instance, m and the row columns of the search
    behind m."""
    doc = make_generated(args.gen) if args.gen else load_document(args.input, args.format)
    if args.component:
        doc = select_component(doc, args.component)
    m, search = resolve_m(doc, args)
    inst = doc.instance if m is None else scope_instance(doc.instance, m)
    return doc.name, inst, m, search


def scope_instance(inst: TimetablingInstance, m: int) -> TimetablingInstance:
    """The instance with m rooms, every other field carried over unchanged.

    Room capacities and room features keep the first m rooms; an instance
    listing fewer than m rooms gets m rooms sized for its largest event.
    """
    caps = (
        inst.room_capacities[:m]
        if len(inst.room_capacities) >= m
        else (max(inst.event_sizes, default=1),) * m
    )
    return replace(
        inst,
        m=m,
        room_capacities=caps,
        room_features=frozenset((r, f) for (r, f) in inst.room_features if r < m),
    )


def _refuse_unmodelled(inst: TimetablingInstance, what: str, *fields: str) -> None:
    """Fail instead of silently solving a problem without these fields."""
    for name in fields:
        if getattr(inst, name):
            raise CliError(f"{what} cannot model the instance's {name}")


def build_model(inst: TimetablingInstance, relax: str, m: int | None,
                args) -> SdpModel:
    """The relaxation of inst, whose rooms scope_instance has set to m."""
    g = inst.graph
    if relax in ("lovasz", "strict", "strong"):
        return build_theta(g, relax)
    if m is None:
        raise CliError(f"relaxation {relax!r} needs --m or --m-offset")
    if relax == "bounded":
        if inst.precolouring:
            _refuse_unmodelled(inst, "relaxation 'bounded (pre-coloured)'", "weights")
            return build_precoloured(g, m, inst.precolouring)
        if inst.weights is not None:
            return build_weighted(g, m, inst.weights)
        return build_bounded(g, m)
    if relax == "laminar":
        _refuse_unmodelled(inst, f"relaxation {relax!r}", "weights")
        return build_laminar(inst, features=args.features)
    if relax == "rooms":
        _refuse_unmodelled(inst, f"relaxation {relax!r}", "weights", "precolouring")
        return build_room_assignment(inst, room_stability=args.room_stability)
    raise CliError(f"unknown relaxation {relax!r}")


def _write(payload: str, out_path: str | None) -> None:
    """Write payload to out_path, or to stdout when there is none."""
    if out_path:
        Path(out_path).write_text(payload)
    else:
        sys.stdout.write(payload)


def _emit(rows: list[dict], fields: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([row.get(f, "") for f in fields])
        payload = buf.getvalue()
    elif fmt == "json":
        payload = json.dumps(rows, indent=2, default=str) + "\n"
    else:
        payload = "\n\n".join(
            "\n".join(f"{f}: {row.get(f, '')}" for f in fields) for row in rows
        ) + "\n"
    _write(payload, out_path)


def _fmt_float(x: float) -> str:
    return f"{x:.4f}"


def _fmt_dual(res) -> str:
    """The dual lower bound behind `certified`, empty where there is none.

    Printed in full (shortest round-trip repr), so its ceiling is `certified`.
    """
    return "" if res.lower is None else repr(res.lower)


def cmd_bound(args) -> int:
    name, inst, m, search = _instance(args)
    relax = args.relax or ("bounded" if m is not None else "lovasz")
    model = build_model(inst, relax, m, args)
    t0 = time.perf_counter()
    res = solve(model, SolverConfig(eps=args.eps, max_iter=args.max_iter))
    seconds = time.perf_counter() - t0
    if res.status == "diverged":
        print(f"error: solver diverged on {name}", file=sys.stderr)
        return 2
    bound, certified = extract_bound(res)
    row = {
        "instance": name,
        "m": m if m is not None else "",
        "relaxation": relax,
        "bound": _fmt_float(bound),
        "certified": certified,
        "iterations": res.iterations,
        "seconds": f"{seconds:.3f}",
        "status": res.status,
        "kernels": "|".join(res.kernels),
        **search,
        "dual_bound": _fmt_dual(res),
    }
    _emit([row], list(row), args.output_format, args.out)
    return 0 if res.status == "converged" else 3


def cmd_colour(args) -> int:
    name, inst, m, search = _instance(args)
    if m is None:
        raise CliError("colour needs --m or --m-offset")
    if args.method == "iterative":
        _refuse_unmodelled(inst, "--method iterative", "precolouring")
    rcfg = RoundingConfig(attempts=args.attempts, seed=args.round_seed,
                          delta=args.delta)
    t0 = time.perf_counter()
    res = None
    kms: dict = {}
    if args.method == "greedy":
        part = greedy_colouring(inst)
        certified = counting_bound(inst.graph.n, m)
    else:
        model = build_model(inst, "bounded", m, args)
        res = solve(model, SolverConfig(eps=args.eps, max_iter=args.max_iter))
        if res.status == "diverged":
            print(f"error: solver diverged on {name}", file=sys.stderr)
            return 2
        _, certified = extract_bound(res)
        if args.method == "kms":
            # the model lives on atoms; KMS reads it in vertex order
            atoms = Atoms(inst)
            y = res.X_final[np.ix_(atoms.atom_of, atoms.atom_of)] + 1.0
            # a timetable with `certified` classes is optimal: stop at one
            part = kms_round(y, inst, rcfg, atoms, target=certified, stats=kms)
        else:
            part, _diag = iterative_round(model, res.X_final, inst, rcfg)
    seconds = time.perf_counter() - t0
    report = validate_partition(inst, part)
    if args.out:
        Path(args.out).write_text(format_partition(part))
    row = {
        "instance": name,
        "m": m,
        "method": args.method,
        "classes": part.num_classes,
        "kms_classes": kms.get("min_classes", ""),
        "valid": report.ok,
        "certified_lower": certified,
        "gap": part.num_classes - certified,
        "seconds": f"{seconds:.3f}",
        **search,
        "dual_bound": "" if res is None else _fmt_dual(res),
    }
    _emit([row], list(row), args.output_format, None)
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 4
    return 0


def format_partition(part: Partition) -> str:
    rooms = part.room_of or {}
    return "\n".join(
        " ".join(f"{v}@{rooms[v]}" if v in rooms else str(v) for v in sorted(cls))
        for cls in part.classes
    ) + "\n"


def read_partition(text: str) -> Partition:
    classes = []
    rooms: dict[int, int] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        cls = []
        for item in line.split():
            if "@" in item:
                v, r = item.split("@", 1)
                rooms[int(v)] = int(r)
                cls.append(int(v))
            else:
                cls.append(int(item))
        classes.append(cls)
    return Partition.from_lists(classes, rooms or None)


def cmd_gen(args) -> int:
    doc = make_generated(args.spec)
    payload = write_native(doc)
    if args.output_format == "dimacs":
        g = doc.instance.graph
        lines = [f"p edge {g.n} {g.num_edges}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
        payload = "\n".join(lines) + "\n"
    _write(payload, args.out)
    return 0


def cmd_convert(args) -> int:
    _write(write_native(load_document(args.input, args.format)), args.out)
    return 0


# ---------------------------------------------------------------------------
# bench suites
# ---------------------------------------------------------------------------

def _table(keys: list[dict], fill) -> tuple[list[dict], int]:
    """One row per key, in key order, each filled in place by fill(row).

    A row starts as its key fields with an empty `error`; an exception in
    fill becomes that row's error and the table goes on.  Returns the rows
    and the number of them whose `error` is not empty.
    """
    rows = [{**key, "error": ""} for key in keys]
    for row in rows:
        try:
            fill(row)
        except Exception as err:  # an empty message must still fail the row
            row["error"] = str(err) or type(err).__name__
    return rows, sum(1 for row in rows if row["error"])


def _fails(message: str):
    """A row filler whose every row reports message as its error."""
    def fill(row: dict) -> None:
        raise CliError(message)
    return fill


def _chi_cell(g: ConflictGraph, m: int, time_limit: float) -> int | str:
    """chi_m of g as a table cell, "timeout" when the search ran out of time."""
    res = exact_bounded_chromatic(TimetablingInstance.colouring(g, m),
                                  time_limit=time_limit)
    return "timeout" if res.chi_m is None else res.chi_m


# Largest-class values used for the published offset tables.  The Kneser
# entries follow the benchmark's own colourings; the 2/3-distance row is
# pinned by the ratio structure of its published bounds.
_PINNED_C = {"kneser:5,2": 4, "kneser:6,2": 5, "kneser:7,2": 6, "kneser:8,2": 6,
             "fi:6,2/3": 10}
_OFFSETS = (0, -1, -2, -3)


def _bench_row_kneser(spec: str, oracle_limit: float, cfg: SolverConfig) -> dict:
    g = make_generated(spec).instance.graph
    largest = _PINNED_C[spec] if spec in _PINNED_C else largest_class(g, oracle_limit)[0]
    row = {"instance": spec, "C": largest}
    for offset in _OFFSETS:
        m = largest + offset
        bound = chi = ""
        if m >= 1:
            bound = _fmt_float(solve(build_bounded(g, m), cfg).value)
            chi = _chi_cell(g, m, oracle_limit)
        row[f"bound_off{offset}"], row[f"chi_off{offset}"] = bound, chi
    return row


def _bench_kneser_fi(args) -> tuple[list[dict], int]:
    # the published table's FI(6,1) row is left out: the generator rejects it
    specs = [
        "kneser:5,2", "kneser:6,2", "kneser:7,2", "kneser:8,2",
        "fi:6,1/2", "fi:6,2/3", "fi:6,5/6",
    ]

    def fill(row: dict) -> None:
        row.update(_bench_row_kneser(row["instance"], args.oracle_limit,
                                     SolverConfig(eps=args.eps)))

    return _table([{"instance": s} for s in specs], fill)


def _bench_toronto(args) -> tuple[list[dict], int]:
    data_dir = Path(args.data_dir or "data/toronto")
    crs, stu = data_dir / "sta-f-83.crs", data_dir / "sta-f-83.stu"
    ms = [*range(1, 10), 47, "unbounded"]
    if not crs.exists() or not stu.exists():
        return _table([{"instance": "sta-f-83", "m": m} for m in ms],
                      _fails(f"missing dataset under {data_dir}"))
    g = parse_toronto(crs.read_text(), stu.read_text(), name="sta-f-83").instance.graph
    target = [c for c in connected_components(g) if len(c) == 47]
    if not target:
        return _table([{"instance": "sta-f-83"}], _fails("47-vertex component not found"))
    sub, _ = g.subgraph(sorted(target[0]))

    def fill(row: dict) -> None:
        m = None if row["m"] == "unbounded" else row["m"]
        t0 = time.perf_counter()
        model = build_theta(sub, "lovasz") if m is None else build_bounded(sub, m)
        bound, certified = extract_bound(solve(model, SolverConfig(eps=args.eps)))
        row["bound"] = _fmt_float(bound)
        row["certified"] = certified
        row["bound_seconds"] = f"{time.perf_counter() - t0:.3f}"
        row["counting"] = counting_bound(sub.n, m) if m else ""
        t0 = time.perf_counter()
        row["chi_m"] = _chi_cell(sub, m or sub.n, args.oracle_limit)
        row["chi_seconds"] = f"{time.perf_counter() - t0:.3f}"

    return _table([{"instance": "sta-f-83#47", "m": m} for m in ms], fill)


def _bench_itc(args) -> tuple[list[dict], int]:
    data_dir = Path(args.data_dir or "data/itc2007")

    def fill(row: dict) -> None:
        path = data_dir / f"{row['instance']}.ctt"
        if not path.exists():
            raise CliError(f"missing {path}")
        t0 = time.perf_counter()
        inst = parse_itc2007(path.read_text(), name=row["instance"]).instance
        g, m = inst.graph, inst.m
        row.update(courses=g.n, rooms=m)
        theta_res = solve(build_theta(g, "lovasz"), SolverConfig(eps=args.eps))
        row["theta"] = _fmt_float(theta_res.value)
        res = solve(build_bounded(g, m), SolverConfig(eps=args.eps))
        row["bounded"] = _fmt_float(res.value)
        y = res.X_final + np.ones_like(res.X_final)
        part = kms_round(y, TimetablingInstance.colouring(g, m),
                         RoundingConfig(attempts=args.attempts, seed=0))
        row["rounded"] = part.num_classes
        row["seconds"] = f"{time.perf_counter() - t0:.3f}"

    return _table([{"instance": f"comp{i:02d}"} for i in range(1, 22)], fill)


def _bench_random(args) -> tuple[list[dict], int]:
    def fill(row: dict) -> None:
        rep = sandwich_check(gen_gnp(row["n"], row["p"], row["seed"]), row["m"],
                             time_limit=args.oracle_limit,
                             cfg=SolverConfig(eps=args.eps))
        row.update(omega=rep.omega, counting=rep.counting,
                   theta=_fmt_float(rep.theta), bounded=_fmt_float(rep.bounded),
                   certified=rep.certified, chi_m=rep.chi_m,
                   greedy=rep.greedy_classes, consistent=rep.passed)
        if not rep.passed:
            row["error"] = "; ".join(rep.failures)

    keys = [{"seed": seed, "n": args.n, "p": args.p, "m": m}
            for seed in range(args.seeds) for m in args.m_values]
    return _table(keys, fill)


# suite -> (rows and failure count from the parsed arguments, CSV columns)
_SUITES = {
    "toronto-sta83": (_bench_toronto, [
        "instance", "m", "chi_m", "chi_seconds", "bound", "certified",
        "bound_seconds", "counting", "error"]),
    "kneser-fi": (_bench_kneser_fi, [
        "instance", "C",
        *(f"{col}_off{offset}" for offset in _OFFSETS for col in ("bound", "chi")),
        "error"]),
    "itc2007": (_bench_itc, [
        "instance", "courses", "rooms", "theta", "bounded", "rounded", "seconds",
        "error"]),
    "random-sweep": (_bench_random, [
        "seed", "n", "p", "m", "omega", "counting", "theta", "bounded", "certified",
        "chi_m", "greedy", "consistent", "error"]),
}


def cmd_bench(args) -> int:
    suite, fields = _SUITES[args.suite]
    rows, failures = suite(args)
    _emit(rows, fields, args.output_format, args.out)
    if failures:
        print(f"{failures} row(s) failed", file=sys.stderr)
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and every default is immutable."""
    ap = argparse.ArgumentParser(
        prog="bcsdp",
        description="SDP lower bounds and rounded timetables for bounded colouring",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    formats = ["auto", "dimacs", "toronto", "itc2007", "native"]

    def add_pipeline(name: str, summary: str, func) -> argparse.ArgumentParser:
        """A command that reads an instance, then models and solves it."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", nargs="*", help="instance file(s)")
        p.add_argument("--gen", help="generator spec, e.g. gnp:20,0.5,1")
        p.add_argument("--format", default="auto", choices=formats)
        p.add_argument("--component", type=int, default=0,
                       help="use the k-th largest connected component")
        p.add_argument("--output-format", default="text",
                       choices=["text", "csv", "json"])
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--m", type=int)
        p.add_argument("--m-offset", type=int, dest="m_offset",
                       help="m = (largest class of an unbounded optimum) + offset")
        p.add_argument("--oracle-limit", type=float, default=600.0)
        p.add_argument("--eps", type=float, default=1e-5)
        p.add_argument("--max-iter", type=int, default=20000)
        p.add_argument("--verbose", type=int, default=0, help="N>0: progress to stderr")
        p.set_defaults(func=func)
        return p

    p_bound = add_pipeline("bound", "compute a lower bound", cmd_bound)
    p_bound.add_argument("--relax", choices=["lovasz", "strict", "strong", "bounded",
                                             "laminar", "rooms"])
    p_bound.add_argument("--features", action="store_true",
                         help="laminar: add feature rows (requires laminar family)")
    p_bound.add_argument("--room-stability", action="store_true")
    p_col = add_pipeline("colour", "solve and round to a timetable", cmd_colour)
    p_col.add_argument("--method", default="kms",
                       choices=["kms", "iterative", "greedy"])
    p_col.add_argument("--attempts", type=int, default=50)
    p_col.add_argument("--round-seed", type=int, default=0, dest="round_seed",
                       help="seed of the kms attempts")
    p_col.add_argument("--delta", type=float, default=1e-6)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("spec")
    p_gen.add_argument("--output-format", default="native",
                       choices=["native", "dimacs"])
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_conv = sub.add_parser("convert", help="convert any format to bcsdp-v1")
    p_conv.add_argument("input", nargs="+")
    p_conv.add_argument("--format", default="auto", choices=formats)
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=cmd_convert)

    p_bench = sub.add_parser("bench", help="regenerate a benchmark table")
    p_bench.add_argument("--suite", required=True, choices=list(_SUITES))
    p_bench.add_argument("--data-dir")
    p_bench.add_argument("--n", type=int, default=20)
    p_bench.add_argument("--p", type=float, default=0.5)
    p_bench.add_argument("--seeds", type=int, default=10)
    p_bench.add_argument("--m-values", type=int, nargs="+", default=(2, 3, 4),
                         dest="m_values")
    p_bench.add_argument("--attempts", type=int, default=50)
    p_bench.add_argument("--eps", type=float, default=1e-5)
    p_bench.add_argument("--oracle-limit", type=float, default=600.0)
    p_bench.add_argument("--output-format", default="csv",
                         choices=["text", "csv", "json"])
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    log = logging.getLogger("bcsdp")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    if getattr(args, "verbose", 0) > 0:  # progress to stderr: stdout stays parseable
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (CliError, ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)  # a no-op when it was never added
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
