"""Standard-form SDP models for colouring and timetabling relaxations.

Every model is

    min/max  <C, X>
    s.t.     <A_i, X> = b_i   (eq_graph: edge-indicator shaped rows; eq_other)
             <B_j, X> >= d_j  (ineq)
             X PSD

over symmetric X of a given order.  Constraint rows are stored sparsely at
canonical positions (i <= j); a stored coefficient c at (i, j) means the full
symmetric matrix has c at both (i, j) and (j, i), so the row's value on X is
sum(c * (2 - [i==j]) * X_ij).

Bounded-colouring models
------------------------
The shifted variable is X = Y - J, where Y carries the colouring semantics
(diagonal t, zero on edges).  The default `scaled` transform keeps order n and
reads the bound off the anchor diagonal entry: bound = X_ww + 1.  Row-sum
constraints use the diagonal-equality rows to anchor the bound at their own
column, sum_u X_uv - m X_vv <= m - n, which keeps the inequality block's Gram
matrix in exact alpha*I + beta*J form for the solver's closed-form kernels.
The `rewritten` transform doubles the order with an explicit slack block and
exists for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

from .graphs import ConflictGraph, TimetablingInstance

__all__ = [
    "SymRow",
    "SdpModel",
    "StructureTags",
    "BoundSemantics",
    "ModelSketch",
    "SketchRow",
    "bounded_sketch",
    "to_standard_form",
    "build_theta",
    "build_bounded",
    "build_precoloured",
    "build_weighted",
    "reduce_precolouring",
    "build_laminar",
    "build_room_assignment",
    "verify_structure",
    "constraint_matrix",
    "gram_matrix",
    "gram_equals",
    "check_laminar",
]


@dataclass(frozen=True)
class SymRow:
    """One sparse symmetric constraint row with its right-hand side."""

    idx_i: tuple[int, ...]
    idx_j: tuple[int, ...]
    coeff: tuple[float, ...]
    rhs: float

    @staticmethod
    def from_entries(entries: dict[tuple[int, int], float], rhs: float) -> "SymRow":
        items = sorted((min(i, j), max(i, j), c) for (i, j), c in entries.items()
                       if c != 0.0)
        return SymRow(
            idx_i=tuple(i for i, _, _ in items),
            idx_j=tuple(j for _, j, _ in items),
            coeff=tuple(c for _, _, c in items),
            rhs=rhs,
        )

    def value(self, x: np.ndarray) -> float:
        total = 0.0
        for i, j, c in zip(self.idx_i, self.idx_j, self.coeff):
            total += c * (2.0 if i != j else 1.0) * x[i, j]
        return total

    def dense(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim))
        for i, j, c in zip(self.idx_i, self.idx_j, self.coeff):
            out[i, j] += c
            if i != j:
                out[j, i] += c
        return out


@dataclass(frozen=True)
class StructureTags:
    """Algebraic structure of a model's constraint blocks, verified on emission.

    a1_edge_indicator: every eq_graph row touches one canonical position and
        positions are pairwise distinct, so Gram(A1) = a1_gram_scale * I.
    a2_diagonal_chain: eq_other is the anchored diagonal chain, so
        Gram(A2) = J + I with closed-form inverse I - J/n.
    b_row_sum: the row-sum inequality group has Gram = b_alpha*I + b_beta*J
        (a scaled identity, beta = 0, when rows are written one-sidedly over
        vec(X); symmetric rows pick up the exact correction recorded here).
    objective_single_entry: C has exactly one nonzero entry.
    """

    a1_edge_indicator: bool = False
    a1_gram_scale: float = 0.5
    a2_diagonal_chain: bool = False
    b_row_sum: bool = False
    b_alpha: float = 0.0
    b_beta: float = 0.0
    objective_single_entry: bool = False


@dataclass(frozen=True)
class BoundSemantics:
    """How a model's objective maps back to the colouring bound t."""

    transform: str  # "scaled" | "rewritten"
    anchor_vertex: int
    value_offset: float
    value_map: str


@dataclass(frozen=True, eq=False)
class SdpModel:
    dim: int
    objective: np.ndarray
    eq_graph: tuple[SymRow, ...]
    eq_other: tuple[SymRow, ...]
    ineq: tuple[SymRow, ...]
    sense: str  # "min" | "max"
    structure: StructureTags
    # named inequality blocks as (kind, start, stop); kinds: rowsum | pairs | generic
    ineq_groups: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if self.objective.shape != (self.dim, self.dim):
            raise ValueError("objective order mismatch")
        for row in self.eq_graph:
            if len(row.coeff) != 1:
                raise ValueError(
                    "edge-indexed equality must touch a single symmetric position"
                )
        for row in (*self.eq_graph, *self.eq_other, *self.ineq):
            for i, j in zip(row.idx_i, row.idx_j):
                if not (0 <= i <= j < self.dim):
                    raise ValueError("constraint entry out of range")

    def group_rows(self, kind: str) -> list[SymRow]:
        out: list[SymRow] = []
        for k, a, b in self.ineq_groups:
            if k == kind:
                out.extend(self.ineq[a:b])
        return out


# ---------------------------------------------------------------------------
# sketches: relaxations stated over (Y, t) with Y - J PSD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SketchRow:
    """Affine row over (Y, t): <A, Y> + t_coeff * t  (= | <=)  rhs."""

    entries: tuple[tuple[int, int, float], ...]
    t_coeff: float
    rhs: float
    relation: str  # "eq" | "le"
    spread_vertex: int | None = None  # diagonal allowed to absorb t (via A2)
    group: str = "generic"

    @staticmethod
    def make(entries: dict[tuple[int, int], float], t_coeff: float, rhs: float,
             relation: str, spread_vertex: int | None = None,
             group: str = "generic") -> "SketchRow":
        canon: dict[tuple[int, int], float] = {}
        for (i, j), c in entries.items():
            key = (min(i, j), max(i, j))
            canon[key] = canon.get(key, 0.0) + c
        items = tuple(sorted((i, j, c) for (i, j), c in canon.items() if c != 0.0))
        return SketchRow(items, t_coeff, rhs, relation, spread_vertex, group)

    def coeff_sum(self) -> float:
        return sum(c * (2.0 if i != j else 1.0) for i, j, c in self.entries)


@dataclass(frozen=True)
class ModelSketch:
    """A relaxation with a single Y - J PSD constraint, objective min/max t."""

    n: int
    zero_pairs: tuple[tuple[int, int], ...]  # Y_uv = 0
    rows: tuple[SketchRow, ...]
    nonneg_pairs: tuple[tuple[int, int], ...]  # Y_uv >= 0
    sense: str = "min"
    printed_sense: str = "min"


def bounded_sketch(g: ConflictGraph, m: int) -> ModelSketch:
    """The m-bounded colouring relaxation over (Y, t): the bare transformed
    constraint system (edge zeros, diagonal chain, n row sums)."""
    if not 1 <= m <= max(g.n, 1):
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={g.n}")
    rows = [_row_sum_sketch_row(g.n, v, m) for v in range(g.n)]
    return ModelSketch(
        n=g.n,
        zero_pairs=tuple(sorted(g.edges)),
        rows=tuple(rows),
        nonneg_pairs=(),
    )


def _row_sum_sketch_row(n: int, v: int, m: float,
                        weights: Sequence[float] | None = None) -> SketchRow:
    entries: dict[tuple[int, int], float] = {}
    for u in range(n):
        w = 1.0 if weights is None else float(weights[u])
        if u == v:
            entries[(v, v)] = entries.get((v, v), 0.0) + w
        else:
            entries[(min(u, v), max(u, v))] = w / 2.0
    return SketchRow.make(entries, t_coeff=-float(m), rhs=0.0, relation="le",
                          spread_vertex=v, group="rowsum")


def _scaled_rows(sketch: ModelSketch, anchor: int):
    """Transform sketch rows to X = Y - J coordinates with t = X_ww + 1."""
    eq_rows: list[SymRow] = []
    ineq_rows: list[tuple[str, SymRow]] = []
    for row in sketch.rows:
        entries: dict[tuple[int, int], float] = {
            (i, j): c for i, j, c in row.entries
        }
        diag = row.spread_vertex if row.spread_vertex is not None else anchor
        entries[(diag, diag)] = entries.get((diag, diag), 0.0) + row.t_coeff
        rhs = row.rhs - row.coeff_sum() - row.t_coeff
        if row.relation == "eq":
            eq_rows.append(SymRow.from_entries(entries, rhs))
        else:
            # <= becomes >= by negation
            neg = {k: -c for k, c in entries.items()}
            ineq_rows.append((row.group, SymRow.from_entries(neg, -rhs)))
    return eq_rows, ineq_rows


def _assemble_ineq(groups: list[tuple[str, list[SymRow]]]):
    rows: list[SymRow] = []
    spans: list[tuple[str, int, int]] = []
    for kind, block in groups:
        kept = []
        for row in block:
            if not row.coeff:
                # all-zero row: 0 >= rhs is vacuous or infeasible
                if row.rhs > 1e-12:
                    raise ValueError("infeasible constraint: 0 >= positive rhs")
                continue
            kept.append(row)
        if not kept:
            continue
        start = len(rows)
        rows.extend(kept)
        spans.append((kind, start, len(rows)))
    return tuple(rows), tuple(spans)


def to_standard_form(sketch: ModelSketch, transform: str,
                     anchor: int = 0) -> tuple[SdpModel, BoundSemantics]:
    """Emit a sketch as a standard-form model under the named transform."""
    n = sketch.n
    if not 0 <= anchor < n:
        raise ValueError("anchor vertex out of range")
    if transform == "scaled":
        objective = np.zeros((n, n))
        objective[anchor, anchor] = 1.0
        eq_graph = tuple(
            SymRow.from_entries({(u, v): 0.5}, -1.0) for u, v in sketch.zero_pairs
        )
        chain = [
            SymRow.from_entries({(anchor, anchor): 1.0, (v, v): -1.0}, 0.0)
            for v in range(n) if v != anchor
        ]
        extra_eq, tagged_ineq = _scaled_rows(sketch, anchor)
        pair_rows = [
            SymRow.from_entries({(u, v): 0.5}, -1.0) for u, v in sketch.nonneg_pairs
        ]
        grouped: dict[str, list[SymRow]] = {}
        for kind, row in tagged_ineq:
            grouped.setdefault(kind, []).append(row)
        blocks = [(k, grouped[k]) for k in grouped]
        blocks.append(("pairs", pair_rows))
        ineq, spans = _assemble_ineq(blocks)
        model = SdpModel(
            dim=n,
            objective=objective,
            eq_graph=eq_graph,
            eq_other=tuple(chain) + tuple(extra_eq),
            ineq=ineq,
            sense="min",
            structure=StructureTags(),
            ineq_groups=spans,
        )
        model = replace(model, structure=verify_structure(model))
        sem = BoundSemantics(
            transform="scaled",
            anchor_vertex=anchor,
            value_offset=1.0,
            value_map=(
                f"bound t = X[{anchor},{anchor}] + 1; printed sense "
                f"{sketch.printed_sense}, solved as {sketch.sense}"
            ),
        )
        return model, sem
    if transform == "rewritten":
        if any(r.relation != "le" or r.group != "rowsum" for r in sketch.rows):
            raise ValueError("unsupported sketch shape for the rewritten transform")
        dim = 2 * n
        objective = np.zeros((dim, dim))
        objective[anchor, anchor] = 1.0
        eq_graph = tuple(
            SymRow.from_entries({(n + u, n + v): 0.5}, -1.0)
            for u, v in sketch.zero_pairs
        )
        chain = [
            SymRow.from_entries(
                {(n + anchor, n + anchor): 1.0, (n + v, n + v): -1.0}, 0.0
            )
            for v in range(n) if v != anchor
        ]
        link = []
        for u in range(n):
            for v in range(u, n):
                c = 1.0 if u == v else 0.5
                link.append(
                    SymRow.from_entries({(u, v): c, (n + u, n + v): -c}, 1.0)
                )
        rowsum = []
        for row in sketch.rows:
            v = row.spread_vertex
            entries = {(i, j): -c for i, j, c in row.entries}
            entries[(v, v)] = entries.get((v, v), 0.0) - row.t_coeff
            rowsum.append(SymRow.from_entries(entries, -row.rhs))
        pair_rows = [
            SymRow.from_entries({(u, v): 0.5}, 0.0) for u, v in sketch.nonneg_pairs
        ]
        ineq, spans = _assemble_ineq([("rowsum", rowsum), ("pairs", pair_rows)])
        model = SdpModel(
            dim=dim,
            objective=objective,
            eq_graph=eq_graph,
            eq_other=tuple(chain) + tuple(link),
            ineq=ineq,
            sense="min",
            structure=StructureTags(),
            ineq_groups=spans,
        )
        model = replace(model, structure=verify_structure(model))
        sem = BoundSemantics(
            transform="rewritten",
            anchor_vertex=anchor,
            value_offset=0.0,
            value_map=(
                f"bound t = Y[{anchor},{anchor}]; printed sense "
                f"{sketch.printed_sense}, solved as {sketch.sense}"
            ),
        )
        return model, sem
    raise ValueError(f"unknown transform {transform!r}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_theta(g: ConflictGraph, variant: str = "lovasz") -> SdpModel:
    """Colouring-side theta bound: the theta program on the complement graph.

    variant "lovasz" pins complement-edge entries to zero, "strict" adds
    nonnegativity on the remaining off-diagonal pairs, "strong" relaxes the
    edge equalities to <= 0.  All three maximize <J, X> with trace(X) = 1.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if variant not in ("lovasz", "strict", "strong"):
        raise ValueError(f"unknown theta variant {variant!r}")
    h = g.complement()
    eq_graph: tuple[SymRow, ...] = ()
    pair_rows: list[SymRow] = []
    if variant in ("lovasz", "strict"):
        eq_graph = tuple(
            SymRow.from_entries({(u, v): 0.5}, 0.0) for u, v in sorted(h.edges)
        )
    if variant == "strict":
        pair_rows = [
            SymRow.from_entries({(u, v): 0.5}, 0.0) for u, v in h.non_edges()
        ]
    if variant == "strong":
        pair_rows = [
            SymRow.from_entries({(u, v): -0.5}, 0.0) for u, v in sorted(h.edges)
        ]
    trace_row = SymRow.from_entries({(v, v): 1.0 for v in range(g.n)}, 1.0)
    ineq, spans = _assemble_ineq([("pairs", pair_rows)])
    model = SdpModel(
        dim=g.n,
        objective=np.ones((g.n, g.n)),
        eq_graph=eq_graph,
        eq_other=(trace_row,),
        ineq=ineq,
        sense="max",
        structure=StructureTags(),
        ineq_groups=spans,
    )
    return replace(model, structure=verify_structure(model))


def build_bounded(g: ConflictGraph, m: int,
                  transform: str = "scaled") -> tuple[SdpModel, BoundSemantics]:
    """min t with Y_vv = t, zero edges, row sums <= tm, Y >= 0, Y - J PSD."""
    return to_standard_form(bounded_sketch(g, m), transform)


def build_precoloured(
    g: ConflictGraph, m: int, pre: Sequence[Iterable[int]]
) -> tuple[SdpModel, BoundSemantics]:
    """Bounded colouring with pre-assigned classes pinned inside Y.

    Adds Y_uv = t within each pre-class (E3), Y_uv = 0 across distinct
    classes (E4), both row and column sum bounds (L1)(L2), nonnegativity on
    unpinned non-edges (L3) and the aggregate counting bound (L4).
    """
    classes = [frozenset(c) for c in pre]
    seen: set[int] = set()
    for cls in classes:
        if len(cls) > m:
            raise ValueError("pre-colouring class larger than m")
        if seen & cls:
            raise ValueError("pre-colouring classes must be disjoint")
        if any(not 0 <= v < g.n for v in cls):
            raise ValueError("pre-colouring vertex out of range")
        seen |= cls
    n = g.n
    zero_pairs = set(g.edges)
    pinned: set[tuple[int, int]] = set()
    rows: list[SketchRow] = []
    for a in range(len(classes)):
        for u in classes[a]:
            for v in classes[a]:
                if u < v:
                    pinned.add((u, v))
                    rows.append(SketchRow.make(
                        {(u, v): 0.5}, t_coeff=-1.0, rhs=0.0, relation="eq"
                    ))
        for b in range(a + 1, len(classes)):
            for u in classes[a]:
                for v in classes[b]:
                    pair = (min(u, v), max(u, v))
                    pinned.add(pair)
                    zero_pairs.add(pair)
    for v in range(n):
        rows.append(_row_sum_sketch_row(n, v, m))
    for u in range(n):
        row = _row_sum_sketch_row(n, u, m)
        rows.append(replace(row, group="colsum"))
    # L4: <J, Y> <= n m t
    rows.append(SketchRow.make(
        {(i, j): (1.0 if i == j else 1.0) for i in range(n) for j in range(i, n)},
        t_coeff=-float(n * m), rhs=0.0, relation="le", group="generic",
    ))
    nonneg = tuple(
        p for p in g.complement().edges if p not in pinned
    )
    sketch = ModelSketch(
        n=n,
        zero_pairs=tuple(sorted(zero_pairs)),
        rows=tuple(rows),
        nonneg_pairs=tuple(sorted(nonneg)),
        printed_sense="max",
    )
    return to_standard_form(sketch, "scaled")


def build_weighted(
    g: ConflictGraph, m: int, c: Sequence[int]
) -> tuple[SdpModel, BoundSemantics]:
    """c-weighted bounded colouring: weighted row/column sums <= tm."""
    if len(c) != g.n:
        raise ValueError("weight vector length must equal vertex count")
    if any(w < 1 for w in c):
        raise ValueError("weights must be >= 1")
    rows = [
        _row_sum_sketch_row(g.n, v, m, weights=[float(w) for w in c])
        for v in range(g.n)
    ]
    rows += [replace(r, group="colsum") for r in rows]
    sketch = ModelSketch(
        n=g.n,
        zero_pairs=tuple(sorted(g.edges)),
        rows=tuple(rows),
        nonneg_pairs=(),
        printed_sense="max",
    )
    return to_standard_form(sketch, "scaled")


def reduce_precolouring(
    g: ConflictGraph, m: int, pre: Sequence[Iterable[int]]
) -> tuple[ConflictGraph, tuple[int, ...]]:
    """Contract each pre-class to one weighted vertex; edges are unioned."""
    graph, weights, _ = reduce_precolouring_atoms(g, m, pre)
    return graph, weights


def reduce_precolouring_atoms(
    g: ConflictGraph, m: int, pre: Sequence[Iterable[int]]
) -> tuple[ConflictGraph, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """As reduce_precolouring, also returning the member list of each new vertex."""
    classes = [tuple(sorted(set(cls))) for cls in pre]
    seen: set[int] = set()
    for cls in classes:
        if len(cls) > m:
            raise ValueError("pre-colouring class larger than m")
        if seen & set(cls):
            raise ValueError("pre-colouring classes must be disjoint")
        seen |= set(cls)
    atoms: list[tuple[int, ...]] = list(classes)
    atoms += [(v,) for v in range(g.n) if v not in seen]
    index: dict[int, int] = {}
    for a, members in enumerate(atoms):
        for v in members:
            index[v] = a
    edges = set()
    for u, v in g.edges:
        au, av = index[u], index[v]
        if au == av:
            raise ValueError(
                f"infeasible pre-colouring: conflicting vertices {u},{v} share a class"
            )
        edges.add((min(au, av), max(au, av)))
    weights = tuple(len(members) for members in atoms)
    return ConflictGraph(len(atoms), frozenset(edges)), weights, tuple(atoms)


def check_laminar(sets: Sequence[frozenset[int]]) -> bool:
    """True iff every two sets are nested or disjoint."""
    ordered = sorted(sets, key=len, reverse=True)
    for a in range(len(ordered)):
        for b in range(a + 1, len(ordered)):
            big, small = ordered[a], ordered[b]
            if small & big and not small <= big:
                return False
    return True


def build_laminar(
    inst: TimetablingInstance,
    counting: bool = False,
    features: bool = False,
) -> tuple[SdpModel, BoundSemantics]:
    """Timetabling relaxation with capacity threshold constraints.

    For every distinct attendance p, events of size >= p may only share a
    class up to the number of rooms of capacity >= p (PR); `counting` adds the
    aggregated block bound (CB), `features` the analogous feature rows
    (FR)(FC), requiring the family of feature/threshold sets to be laminar.
    Symmetric row/column twins collapse to one row each, which makes the
    emitted system coincide with build_bounded when no threshold binds.
    """
    g = inst.graph
    n = g.n
    m = inst.m
    sizes = inst.event_sizes
    caps = inst.room_capacities
    thresholds = sorted(set(sizes))
    level_sets = {
        p: tuple(v for v in range(n) if sizes[v] >= p) for p in thresholds
    }
    room_counts = {p: sum(1 for r in caps if r >= p) for p in thresholds}
    for p in thresholds:
        if room_counts[p] < 1:
            raise ValueError(f"no room fits events of size {p}")
    feature_sets = {
        f: tuple(v for v in range(n) if (v, f) in inst.event_features)
        for f in range(inst.feature_count)
    }
    if features:
        fam = [frozenset(level_sets[p]) for p in thresholds]
        fam += [frozenset(vs) for vs in feature_sets.values() if vs]
        if not check_laminar(fam):
            raise ValueError(
                "feature/capacity family is not laminar; feature rows need "
                "nested or disjoint event sets"
            )
        for f, vs in feature_sets.items():
            if vs and not inst.rooms_with_feature(f):
                raise ValueError(f"feature {f} required but available in no room")
    rows: list[SketchRow] = []
    emitted: set[tuple] = set()

    def push(row: SketchRow) -> None:
        key = (row.entries, row.t_coeff, row.rhs, row.relation)
        if key not in emitted:
            emitted.add(key)
            rows.append(row)

    for v in range(n):
        push(_row_sum_sketch_row(n, v, m))

    def subset_column_row(members: Sequence[int], v: int, rooms: int) -> SketchRow:
        entries: dict[tuple[int, int], float] = {}
        for u in members:
            if u == v:
                entries[(v, v)] = entries.get((v, v), 0.0) + 1.0
            else:
                entries[(min(u, v), max(u, v))] = 0.5
        return SketchRow.make(entries, t_coeff=-float(rooms), rhs=0.0,
                              relation="le", spread_vertex=v,
                              group="rowsum" if len(members) == n else "generic")

    def subset_total_row(members: Sequence[int], rooms: int) -> SketchRow:
        # <A, Y> = sum_{u in members} sum_{v in V} Y_uv
        entries: dict[tuple[int, int], float] = {}
        mem = set(members)
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    weight = 1.0 if i in mem else 0.0
                else:
                    weight = ((i in mem) + (j in mem)) / 2.0
                if weight:
                    entries[(i, j)] = weight
        return SketchRow.make(entries, t_coeff=-float(m * rooms), rhs=0.0,
                              relation="le", group="generic")

    for p in thresholds:
        members = level_sets[p]
        for v in members:
            push(subset_column_row(members, v, room_counts[p]))
        if counting:
            push(subset_total_row(members, room_counts[p]))
    if features:
        for f in range(inst.feature_count):
            members = feature_sets[f]
            if not members:
                continue
            avail = len(inst.rooms_with_feature(f))
            for v in members:
                push(subset_column_row(members, v, avail))
            push(subset_total_row(members, avail))

    zero_pairs = set(g.edges)
    pinned: set[tuple[int, int]] = set()
    if inst.precolouring:
        classes = list(inst.precolouring)
        for a, cls in enumerate(classes):
            for u in cls:
                for v in cls:
                    if u < v:
                        pinned.add((u, v))
                        push(SketchRow.make({(u, v): 0.5}, t_coeff=-1.0,
                                            rhs=0.0, relation="eq"))
            for b in range(a + 1, len(classes)):
                for u in classes[a]:
                    for v in classes[b]:
                        pair = (min(u, v), max(u, v))
                        pinned.add(pair)
                        zero_pairs.add(pair)
    sketch = ModelSketch(
        n=n,
        zero_pairs=tuple(sorted(zero_pairs)),
        rows=tuple(rows),
        nonneg_pairs=(),
        printed_sense="max",
    )
    return to_standard_form(sketch, "scaled")


def build_room_assignment(
    inst: TimetablingInstance, room_stability: bool = False
) -> SdpModel:
    """Bounded colouring augmented with an explicit event-room block.

    The matrix variable has order n + m; the top-left block carries the
    scaled colouring model and entry (v, n+r) carries R_vr directly.  Events
    with no compatible room make the instance infeasible at build time.
    """
    g = inst.graph
    n, m = g.n, inst.m
    compat: list[list[int]] = []
    for v in range(n):
        rooms = inst.compatible_rooms(v)
        if not rooms:
            raise ValueError(
                f"infeasible: event {v} fits no room (size/feature mismatch)"
            )
        compat.append(rooms)
    anchor = 0
    dim = n + m
    base, _ = build_bounded(g, m)
    objective = np.zeros((dim, dim))
    objective[anchor, anchor] = 1.0
    eq_graph = list(base.eq_graph)
    compat_sets = [set(r) for r in compat]
    for v in range(n):
        for r in range(m):
            if r not in compat_sets[v]:
                eq_graph.append(SymRow.from_entries({(v, n + r): 0.5}, 0.0))
    eq_other = list(base.eq_other)
    for v in range(n):
        entries = {(v, n + r): 0.5 for r in compat_sets[v]}
        entries[(anchor, anchor)] = entries.get((anchor, anchor), 0.0) - 1.0
        eq_other.append(SymRow.from_entries(entries, 1.0))
    rowsum = list(base.group_rows("rowsum"))
    pairs = list(base.group_rows("pairs"))
    generic: list[SymRow] = []
    for v in range(n):
        rooms = sorted(compat_sets[v])
        for a in range(len(rooms)):
            for b in range(a + 1, len(rooms)):
                generic.append(SymRow.from_entries(
                    {(v, n + rooms[a]): -0.5, (v, n + rooms[b]): -0.5,
                     (anchor, anchor): 1.0},
                    -1.0,
                ))
    for u in range(n):
        for v in range(u + 1, n):
            for r in range(m):
                if r not in compat_sets[u] or r not in compat_sets[v]:
                    continue
                generic.append(SymRow.from_entries(
                    {(u, n + r): -0.5, (v, n + r): -0.5, (u, v): -0.5,
                     (anchor, anchor): 2.0},
                    -1.0,
                ))
    if room_stability:
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                for r in compat_sets[u]:
                    for r2 in compat_sets[v]:
                        if r2 == r or u > v:
                            continue
                        generic.append(SymRow.from_entries(
                            {(u, n + r): -0.5, (v, n + r2): -0.5,
                             (anchor, anchor): 1.0},
                            -1.0,
                        ))
    for v in range(n):
        for r in sorted(compat_sets[v]):
            pairs.append(SymRow.from_entries({(v, n + r): 0.5}, 0.0))
    ineq, spans = _assemble_ineq(
        [("rowsum", rowsum), ("generic", generic), ("pairs", pairs)]
    )
    model = SdpModel(
        dim=dim,
        objective=objective,
        eq_graph=tuple(eq_graph),
        eq_other=tuple(eq_other),
        ineq=ineq,
        sense="min",
        structure=StructureTags(),
        ineq_groups=spans,
    )
    return replace(model, structure=verify_structure(model))


# ---------------------------------------------------------------------------
# sparse constraint blocks and structure verification
# ---------------------------------------------------------------------------


def constraint_matrix(rows: Sequence[SymRow], dim: int) -> scipy.sparse.csr_matrix:
    """The rows as one k x dim^2 CSR over vec(X) (row-major).

    Row r holds the full symmetric matrix A_r, so A @ X.ravel() is <A_r, X>
    for symmetric X, A.T @ y is vec(sum_r y_r A_r), and A @ A.T is the
    Frobenius Gram matrix.  Repeated positions within a row add up.
    """
    counts = [len(r.coeff) for r in rows]
    total = sum(counts)
    ii = np.fromiter(chain.from_iterable(r.idx_i for r in rows), np.intp, total)
    jj = np.fromiter(chain.from_iterable(r.idx_j for r in rows), np.intp, total)
    cc = np.fromiter(chain.from_iterable(r.coeff for r in rows), float, total)
    owner = np.repeat(np.arange(len(rows)), counts)
    off = ii != jj
    coo = scipy.sparse.coo_matrix(
        (
            np.concatenate([cc, cc[off]]),
            (np.concatenate([owner, owner[off]]),
             np.concatenate([ii * dim + jj, (jj * dim + ii)[off]])),
        ),
        shape=(len(rows), dim * dim),
    )
    return coo.tocsr()


def gram_matrix(a: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """Sparse Gram matrix <A_r, A_s> of a constraint_matrix block."""
    return (a @ a.T).tocsr()


def gram_equals(gram: scipy.sparse.csr_matrix, diag, off: float,
                tol: float = 1e-12) -> bool:
    """True iff gram is `diag` on its diagonal and `off` elsewhere, within tol.

    `diag` is a scalar or one value per row.  The check reads the stored
    entries only, so a large sparse Gram is never densified.
    """
    k = gram.shape[0]
    if np.any(np.abs(gram.diagonal() - diag) > tol):
        return False
    coo = gram.tocoo()
    outside = coo.row != coo.col
    if np.any(np.abs(coo.data[outside] - off) > tol):
        return False
    # entries not stored are zero
    return abs(off) <= tol or int(np.count_nonzero(outside)) == k * (k - 1)


def verify_structure(model: SdpModel, tol: float = 1e-12) -> StructureTags:
    """Recompute structure flags from the Gram matrices of the emitted rows."""
    a1 = False
    scale = 0.5
    if model.eq_graph:
        gram = gram_matrix(constraint_matrix(model.eq_graph, model.dim))
        first = float(gram[0, 0])
        a1 = gram_equals(gram, first, 0.0, tol)
        if a1:
            scale = first
    a2 = bool(model.eq_other) and gram_equals(
        gram_matrix(constraint_matrix(model.eq_other, model.dim)), 2.0, 1.0, tol
    )
    rowsum_rows = model.group_rows("rowsum")
    b_flag = False
    alpha = beta = 0.0
    if rowsum_rows:
        gram = gram_matrix(constraint_matrix(rowsum_rows, model.dim))
        beta = float(gram[0, 1]) if len(rowsum_rows) > 1 else 0.0
        alpha = float(gram[0, 0]) - beta
        b_flag = gram_equals(gram, alpha + beta, beta, tol)
        if not b_flag:
            alpha = beta = 0.0
    single = int(np.count_nonzero(model.objective)) == 1
    return StructureTags(
        a1_edge_indicator=a1,
        a1_gram_scale=scale,
        a2_diagonal_chain=a2,
        b_row_sum=b_flag,
        b_alpha=alpha,
        b_beta=beta,
        objective_single_entry=single,
    )
