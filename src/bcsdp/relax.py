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
Each relaxation is stated over (Y, t) with Y - J PSD, where Y carries the
colouring semantics (diagonal t, zero on edges).  The model's variable is the
shifted X = Y - J of order n, and the bound is read off the anchor diagonal
entry: t = X_00 + 1 (`_scaled_row` writes this substitution).  Row-sum
constraints use the diagonal-equality rows to anchor the bound at their own
column, sum_u X_uv - m X_vv <= m - n, which keeps the inequality block's Gram
matrix in exact alpha*I + beta*J form for the solver's closed-form kernels.
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
    "build_theta",
    "build_bounded",
    "build_precoloured",
    "build_weighted",
    "reduce_precolouring_atoms",
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
    """How a model's objective maps back to the colouring bound t.

    Every bounded model reads t = X_00 + 1, so value_offset is 1.
    """

    value_offset: float


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
# model assembly
# ---------------------------------------------------------------------------


def _model(dim: int, objective: np.ndarray, sense: str,
           eq_graph: Sequence[SymRow], eq_other: Sequence[SymRow],
           blocks: Sequence[tuple[str, Sequence[SymRow]]]) -> SdpModel:
    """The model with its inequality groups recorded and its structure verified.

    `blocks` are the named inequality groups in order.  An all-zero row reads
    0 >= rhs: it is dropped, or rejected when rhs > 0; empty groups are left
    out of ineq_groups.
    """
    ineq: list[SymRow] = []
    spans: list[tuple[str, int, int]] = []
    for kind, block in blocks:
        start = len(ineq)
        for row in block:
            if row.coeff:
                ineq.append(row)
            elif row.rhs > 1e-12:
                raise ValueError("infeasible constraint: 0 >= positive rhs")
        if len(ineq) > start:
            spans.append((kind, start, len(ineq)))
    model = SdpModel(
        dim=dim,
        objective=objective,
        eq_graph=tuple(eq_graph),
        eq_other=tuple(eq_other),
        ineq=tuple(ineq),
        sense=sense,
        structure=StructureTags(),
        ineq_groups=tuple(spans),
    )
    return replace(model, structure=verify_structure(model))


def _scaled_row(entries: dict[tuple[int, int], float], t_coeff: float, diag: int,
                relation: str) -> SymRow:
    """The row <A, Y> + t_coeff * t (= | <=) 0 over (Y, t), in X = Y - J.

    `entries` holds A at canonical positions (i <= j) and is consumed.  With
    Y = X + J and t = X_dd + 1 the row reads
    <A, X> + t_coeff * X_dd (= | <=) -<A, J> - t_coeff; a "<=" row is negated
    into the model's ">=" form.
    """
    a_j = sum(c * (2.0 if i != j else 1.0) for (i, j), c in entries.items())
    entries[(diag, diag)] = entries.get((diag, diag), 0.0) + t_coeff
    rhs = -a_j - t_coeff
    if relation == "<=":
        return SymRow.from_entries({k: -c for k, c in entries.items()}, -rhs)
    return SymRow.from_entries(entries, rhs)


def _column(v: int, members: Iterable[int],
            weights: Sequence[float] | None = None) -> dict[tuple[int, int], float]:
    """Entries of sum_{u in members} c_u Y_uv (c_u = 1 without weights)."""
    entries: dict[tuple[int, int], float] = {}
    for u in members:
        w = 1.0 if weights is None else float(weights[u])
        entries[(min(u, v), max(u, v))] = w if u == v else w / 2.0
    return entries


def _row_sums(n: int, m: int, weights: Sequence[float] | None = None) -> list[SymRow]:
    """sum_u c_u Y_uv <= m t for every v, with t read at X_vv.

    Anchoring each row at its own column keeps the group's Gram matrix in
    exact alpha*I + beta*J form for the solver's closed-form kernels.
    """
    return [_scaled_row(_column(v, range(n), weights), -float(m), v, "<=")
            for v in range(n)]


def _entry_rows(pairs: Iterable[tuple[int, int]], rhs: float,
                coeff: float = 0.5) -> list[SymRow]:
    """One row coeff * (X_uv + X_vu) against rhs per pair (u, v) with u < v."""
    return [SymRow((u,), (v,), (coeff,), rhs) for u, v in pairs]


def _diagonal_chain(n: int) -> list[SymRow]:
    """X_00 = X_vv for every vertex v > 0: Y has the same diagonal t throughout."""
    return [SymRow.from_entries({(0, 0): 1.0, (v, v): -1.0}, 0.0) for v in range(1, n)]


def _check_precolouring(classes: Sequence[frozenset[int]], m: int, n: int) -> None:
    """Reject a class larger than m, overlapping classes or a vertex not in 0..n-1."""
    seen: set[int] = set()
    for cls in classes:
        if len(cls) > m:
            raise ValueError("pre-colouring class larger than m")
        if seen & cls:
            raise ValueError("pre-colouring classes must be disjoint")
        if any(not 0 <= v < n for v in cls):
            raise ValueError("pre-colouring vertex out of range")
        seen |= cls


def _pin_precolouring(classes: Sequence[frozenset[int]],
                      zero_pairs: set[tuple[int, int]]
                      ) -> tuple[list[SymRow], set[tuple[int, int]]]:
    """Y_uv = t inside each pre-class (E3) and Y_uv = 0 across classes (E4).

    Adds the E4 pairs to zero_pairs; returns the E3 rows and every pinned pair.
    """
    rows: list[SymRow] = []
    pinned: set[tuple[int, int]] = set()
    for a, cls in enumerate(classes):
        for u in cls:
            for v in cls:
                if u < v:
                    pinned.add((u, v))
                    rows.append(_scaled_row({(u, v): 0.5}, -1.0, 0, "="))
        for other in classes[a + 1:]:
            for u in cls:
                for v in other:
                    pair = (min(u, v), max(u, v))
                    pinned.add(pair)
                    zero_pairs.add(pair)
    return rows, pinned


def _scaled_model(
    n: int,
    zero_pairs: Iterable[tuple[int, int]],
    eq_rows: Sequence[SymRow],
    blocks: Sequence[tuple[str, Sequence[SymRow]]],
    nonneg_pairs: Iterable[tuple[int, int]] = (),
) -> tuple[SdpModel, BoundSemantics]:
    """min t over X = Y - J of order n, with bound t = X_00 + 1.

    Adds Y_uv = 0 on zero_pairs, the diagonal chain X_00 = X_vv anchored at
    vertex 0 and Y_uv >= 0 on nonneg_pairs (a "pairs" group after `blocks`)
    to the builder's own eq_rows and inequality blocks.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    objective = np.zeros((n, n))
    objective[0, 0] = 1.0
    model = _model(
        n, objective, "min",
        _entry_rows(sorted(zero_pairs), -1.0),
        _diagonal_chain(n) + list(eq_rows),
        [*blocks, ("pairs", _entry_rows(sorted(nonneg_pairs), -1.0))],
    )
    return model, BoundSemantics(value_offset=1.0)


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
    eq_graph: list[SymRow] = []
    pair_rows: list[SymRow] = []
    if variant in ("lovasz", "strict"):
        eq_graph = _entry_rows(sorted(h.edges), 0.0)
    if variant == "strict":
        pair_rows = _entry_rows(h.non_edges(), 0.0)
    if variant == "strong":
        pair_rows = _entry_rows(sorted(h.edges), 0.0, coeff=-0.5)
    trace_row = SymRow.from_entries({(v, v): 1.0 for v in range(g.n)}, 1.0)
    return _model(g.n, np.ones((g.n, g.n)), "max", eq_graph, (trace_row,),
                  [("pairs", pair_rows)])


def build_bounded(g: ConflictGraph, m: int) -> tuple[SdpModel, BoundSemantics]:
    """min t with Y_vv = t, zero edges, row sums <= tm, Y - J PSD."""
    if not 1 <= m <= max(g.n, 1):
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={g.n}")
    return _scaled_model(g.n, g.edges, (), [("rowsum", _row_sums(g.n, m))])


def build_precoloured(
    g: ConflictGraph, m: int, pre: Sequence[Iterable[int]]
) -> tuple[SdpModel, BoundSemantics]:
    """Bounded colouring with pre-assigned classes pinned inside Y.

    Adds Y_uv = t within each pre-class (E3), Y_uv = 0 across distinct
    classes (E4), both row and column sum bounds (L1)(L2), nonnegativity on
    unpinned non-edges (L3) and the aggregate counting bound (L4).
    """
    classes = [frozenset(c) for c in pre]
    _check_precolouring(classes, m, g.n)
    n = g.n
    zero_pairs = set(g.edges)
    eq_rows, pinned = _pin_precolouring(classes, zero_pairs)
    rowsum = _row_sums(n, m)
    # L4: <J, Y> <= n m t
    total = _scaled_row({(i, j): 1.0 for i in range(n) for j in range(i, n)},
                        -float(n * m), 0, "<=")
    nonneg = (p for p in g.complement().edges if p not in pinned)
    return _scaled_model(
        n, zero_pairs, eq_rows,
        [("rowsum", rowsum), ("colsum", rowsum), ("generic", [total])], nonneg,
    )


def build_weighted(
    g: ConflictGraph, m: int, c: Sequence[int]
) -> tuple[SdpModel, BoundSemantics]:
    """c-weighted bounded colouring: weighted row/column sums <= tm."""
    if len(c) != g.n:
        raise ValueError("weight vector length must equal vertex count")
    if any(w < 1 for w in c):
        raise ValueError("weights must be >= 1")
    rowsum = _row_sums(g.n, m, weights=c)
    return _scaled_model(g.n, g.edges, (), [("rowsum", rowsum), ("colsum", rowsum)])


def reduce_precolouring_atoms(
    g: ConflictGraph, m: int, pre: Sequence[Iterable[int]]
) -> tuple[ConflictGraph, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Contract each pre-class to one weighted vertex; edges are unioned.

    Returns the contracted graph, the weight (member count) of each new vertex
    and the member list of each new vertex.
    """
    classes = [frozenset(cls) for cls in pre]
    _check_precolouring(classes, m, g.n)
    seen = frozenset().union(*classes)
    atoms = [tuple(sorted(cls)) for cls in classes]
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
    rowsum: list[SymRow] = []
    generic: list[SymRow] = []
    emitted: set[tuple] = set()

    def push(block: list[SymRow], entries: dict[tuple[int, int], float],
             t_coeff: float, diag: int = 0) -> None:
        # one row per distinct row over (Y, t), wherever its t is read
        key = (tuple(sorted(entries.items())), t_coeff)
        if key not in emitted:
            emitted.add(key)
            block.append(_scaled_row(entries, t_coeff, diag, "<="))

    for v in range(n):
        push(rowsum, _column(v, range(n)), -float(m), v)

    def push_subset(members: Sequence[int], rooms: int, total: bool) -> None:
        for v in members:
            push(rowsum if len(members) == n else generic,
                 _column(v, members), -float(rooms), v)
        if total:
            # sum_{u in members} sum_{v in V} Y_uv <= m * rooms * t
            mem = set(members)
            entries = {}
            for i in range(n):
                for j in range(i, n):
                    if i == j:
                        weight = 1.0 if i in mem else 0.0
                    else:
                        weight = ((i in mem) + (j in mem)) / 2.0
                    if weight:
                        entries[(i, j)] = weight
            push(generic, entries, -float(m * rooms))

    for p in thresholds:
        push_subset(level_sets[p], room_counts[p], counting)
    if features:
        for f in range(inst.feature_count):
            if feature_sets[f]:
                push_subset(feature_sets[f], len(inst.rooms_with_feature(f)), True)

    zero_pairs = set(g.edges)
    eq_rows, _ = _pin_precolouring(inst.precolouring, zero_pairs)
    return _scaled_model(n, zero_pairs, eq_rows,
                         [("rowsum", rowsum), ("generic", generic)])


def build_room_assignment(
    inst: TimetablingInstance, room_stability: bool = False
) -> tuple[SdpModel, BoundSemantics]:
    """Bounded colouring augmented with an explicit event-room block.

    The matrix variable has order n + m; the top-left block carries the
    scaled colouring model and entry (v, n+r) carries R_vr directly.  Events
    with no compatible room make the instance infeasible at build time.
    """
    g = inst.graph
    n, m = g.n, inst.m
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
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
    objective = np.zeros((dim, dim))
    objective[anchor, anchor] = 1.0
    compat_sets = [set(r) for r in compat]
    eq_graph = _entry_rows(sorted(g.edges), -1.0) + _entry_rows(
        ((v, n + r) for v in range(n) for r in range(m) if r not in compat_sets[v]),
        0.0,
    )
    eq_other = _diagonal_chain(n)
    for v in range(n):
        entries = {(v, n + r): 0.5 for r in compat_sets[v]}
        entries[(anchor, anchor)] = entries.get((anchor, anchor), 0.0) - 1.0
        eq_other.append(SymRow.from_entries(entries, 1.0))
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
    pairs = _entry_rows(
        ((v, n + r) for v in range(n) for r in sorted(compat_sets[v])), 0.0
    )
    model = _model(
        dim, objective, "min", eq_graph, eq_other,
        [("rowsum", _row_sums(n, m)), ("generic", generic), ("pairs", pairs)],
    )
    return model, BoundSemantics(value_offset=1.0)


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
