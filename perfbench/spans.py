"""Spans around the calls into each bcsdp module, recorded from outside it.

The tracer replaces public functions by timing wrappers *as their calling
module sees them* (for example `bcsdp.cli.solve` for top-level solves and
`bcsdp.solver.solve` for the sub-solves of iterative rounding) and restores
the originals afterwards.  Nothing under `src/` changes.  Spans are kept in
memory and written out when the benchmark ends; per-layer metrics are derived
from them, with self times computed from the span tree.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Optional


def _model_counts(result) -> dict:
    model = result[0] if isinstance(result, tuple) else result
    rows = (*model.eq_graph, *model.eq_other, *model.ineq)
    return {"rows": len(rows), "nnz": sum(len(r.coeff) for r in rows)}


def _solve_counts(args, result) -> dict:
    return {"iters": result.iterations, "status": result.status, "dim": args[0].dim}


def _kms_counts(args, kwargs, result) -> dict:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"attempts": cfg.attempts, "classes": result.num_classes}


def _text_bytes(args) -> int:
    data = args[0]
    return len(data) if isinstance(data, bytes) else len(data.encode())


# (module, attribute, span name, counts(args, kwargs, result) -> dict)
PATCHES: list[tuple[str, str, str, Optional[Callable[..., dict]]]] = [
    ("bcsdp.cli", "gen_gnp", "graphs.gen", None),
    ("bcsdp.cli", "gen_kneser", "graphs.gen", None),
    ("bcsdp.cli", "gen_forbidden_intersection", "graphs.gen", None),
    ("bcsdp.cli", "validate_partition", "graphs.validate",
     lambda a, k, r: {"ok": r.ok}),
    ("bcsdp.cli", "parse_native", "ingest.parse",
     lambda a, k, r: {"bytes": _text_bytes(a)}),
    *(
        ("bcsdp.cli", build_fn, "relax.build", lambda a, k, r: _model_counts(r))
        for build_fn in ("build_bounded", "build_laminar", "build_precoloured",
                        "build_room_assignment", "build_theta", "build_weighted")
    ),
    ("bcsdp.relax", "verify_structure", "relax.verify", None),
    ("bcsdp.cli", "solve", "solver.solve", lambda a, k, r: _solve_counts(a, r)),
    ("bcsdp.solver", "solve", "solver.solve", lambda a, k, r: _solve_counts(a, r)),
    ("bcsdp.cli", "kms_round", "rounding.kms", _kms_counts),
    ("bcsdp.cli", "iterative_round", "rounding.iterative",
     lambda a, k, r: {"rounds": r[1].rounds, "classes": r[0].num_classes}),
    ("bcsdp.cli", "greedy_colouring", "rounding.greedy", None),
    ("bcsdp.rounding", "greedy_colouring", "rounding.greedy", None),
    ("bcsdp.rounding", "cholesky_psd", "linalg.cholesky", None),
    ("bcsdp.cli", "exact_bounded_chromatic", "oracle.search",
     lambda a, k, r: {"nodes": r.nodes_explored, "timed_out": r.timed_out}),
    ("bcsdp.oracle", "max_clique", "oracle.clique", None),
]

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder: (name, start, end, parent, op id, counts)."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op: Optional[int] = None

    def span(self, name: str, fn: Callable, counts=None, *args, **kwargs):
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            rec.update(counts(args, kwargs, result))
        return result

    def _wrap(self, name: str, fn: Callable, counts) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, counts, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, counts in PATCHES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, counts))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer totals over one tracer's spans (one pass of a workload).

    A span's self time is its duration minus that of its direct children.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[i]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name[name])

    def count(name: str, key: str) -> float:
        return sum(spans[i].get(key, 0) for i in by_name[name])

    solves = by_name["solver.solve"]
    solve_s = total("solver.solve")
    iters = count("solver.solve", "iters")
    work = sum(spans[i].get("iters", 0) * spans[i].get("dim", 0) ** 3 for i in solves)
    converged = sum(1 for i in solves if spans[i].get("status") == "converged")
    validations = by_name["graphs.validate"]
    search_s = total("oracle.search")
    nodes = count("oracle.search", "nodes")
    return {
        "solver.solve_s": solve_s,
        "solver.calls": len(solves),
        "solver.iters": iters,
        "solver.s_per_iter": _ratio(solve_s, iters),
        "solver.work_n3": work,
        "solver.ns_per_n3": _ratio(solve_s * 1e9, work),
        "solver.nonconverged": len(solves) - converged,
        "solver.converged_ratio": _ratio(converged, len(solves)),
        "relax.build_s": total("relax.build"),
        "relax.verify_s": total("relax.verify"),
        "relax.rows": count("relax.build", "rows"),
        "relax.nnz": count("relax.build", "nnz"),
        "rounding.kms_s": total("rounding.kms"),
        "rounding.kms_attempts": count("rounding.kms", "attempts"),
        "rounding.iterative_s": total("rounding.iterative"),
        "rounding.iterative_self_s": sum(
            dur[i] - child_time[i] for i in by_name["rounding.iterative"]
        ),
        "rounding.iterative_rounds": count("rounding.iterative", "rounds"),
        "rounding.greedy_s": total("rounding.greedy"),
        "rounding.greedy_calls": len(by_name["rounding.greedy"]),
        "rounding.valid_ratio": _ratio(
            sum(1 for i in validations if spans[i].get("ok")), len(validations)
        ),
        "oracle.search_s": search_s,
        "oracle.clique_s": total("oracle.clique"),
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": _ratio(nodes, search_s),
        "oracle.timeouts": sum(
            1 for i in by_name["oracle.search"] if spans[i].get("timed_out")
        ),
        "linalg.cholesky_s": total("linalg.cholesky"),
        "graphs.gen_s": total("graphs.gen"),
        "graphs.validate_s": total("graphs.validate"),
        "ingest.parse_s": total("ingest.parse"),
        "ingest.bytes": count("ingest.parse", "bytes"),
        "cli.self_s": sum(dur[i] - child_time[i] for i in by_name[ROOT_SPAN]),
    }
