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

Each block is one `Coo` record (row pointer, i, j, coeff, rhs), which the
builders write with numpy, `SdpModel` checks with array operations, and
`verify_structure` stacks and compiles.  `SdpModel.eq_graph`, `eq_other` and
`ineq` are row views, tuples of `SymRow` built from the records when read;
nothing on the solve path reads them.  `Coo.of` is the one converter from
rows, for callers that assemble `SymRow`s (the room-assignment model's
room rows, iterative rounding's reduced models).

Bounded-colouring models
------------------------
Each relaxation is stated over (Y, t) with Y - J PSD, where Y carries the
colouring semantics (diagonal t, zero on edges).  The model's variable is the
shifted X = Y - J of order n, and the bound is read off the anchor diagonal
entry: t = X_00 + 1.  Row-sum constraints (`_class_rows`) use the
diagonal-equality rows to anchor the bound at their own column,
sum_u c_u X_uv - rooms X_vv <= rooms - sum_u c_u, which keeps each group's Gram
matrix in exact alpha*I + beta*J form for the solver's closed-form kernels.

Pre-coloured and laminar models are stated over atoms, not vertices: each
pre-class is contracted to one atom weighted by its member count, and every
other vertex is an atom of its own.  `Atoms` is that contraction, as the
models, the oracle, the greedy and KMS rounding read it: the atom graph and
its bitsets, the vertex-to-atom index and each atom's class counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse

from .graphs import (
    ClassCounts,
    ConflictGraph,
    Partition,
    TimetablingInstance,
)

__all__ = [
    "SymRow",
    "Coo",
    "SdpModel",
    "build_theta",
    "build_bounded",
    "build_precoloured",
    "build_weighted",
    "Atoms",
    "build_laminar",
    "build_room_assignment",
    "verify_structure",
    "constraint_matrix",
    "gram_matrix",
    "check_laminar",
]


class SymRow(NamedTuple):
    """One sparse symmetric constraint row with its right-hand side.

    Entry e holds coeff[e] at (idx_i[e], idx_j[e]) and, off the diagonal, at
    the mirrored position.  `from_entries` writes entries canonical:
    idx_i[e] <= idx_j[e], sorted by (i, j), no zero coefficient.  The row form
    of a `Coo` record: `Coo.of` reads rows into a record, `Coo.rows` is the
    row view of one, and the solver reads neither.
    """

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


_IDX_I, _IDX_J, _COEFF, _RHS = map(operator.attrgetter, ("idx_i", "idx_j", "coeff", "rhs"))


@dataclass(frozen=True, eq=False)
class Coo:
    """A block of sparse symmetric constraint rows as one COO record.

    Row r owns entries ptr[r] to ptr[r + 1] of (i, j, coeff) and reads
    <A_r, X> = rhs[r]: entry e holds coeff[e] at (i[e], j[e]) and, off the
    diagonal, at the mirrored position, with i[e] <= j[e].  The builders
    write it with numpy; `SdpModel` checks it, and `verify_structure` stacks
    and compiles it, without a Python object per row or entry.
    """

    ptr: np.ndarray    # int, one more than the rows, from 0 to the entries
    i: np.ndarray      # int, per entry
    j: np.ndarray      # int, per entry
    coeff: np.ndarray  # float, per entry
    rhs: np.ndarray    # float, per row

    def __len__(self) -> int:
        return len(self.rhs)

    @staticmethod
    def of(rows: Sequence[SymRow]) -> "Coo":
        """The record of rows, for callers that assemble SymRows."""
        # map over attrgetters walks the rows without a Python frame per row
        counts = np.fromiter(map(len, map(_COEFF, rows)), np.int64, len(rows))
        return Coo(np.concatenate(([0], np.cumsum(counts))),
                   np.fromiter(chain.from_iterable(map(_IDX_I, rows)), np.int64),
                   np.fromiter(chain.from_iterable(map(_IDX_J, rows)), np.int64),
                   np.fromiter(chain.from_iterable(map(_COEFF, rows)), float),
                   np.fromiter(map(_RHS, rows), float, len(rows)))

    def rows(self) -> tuple[SymRow, ...]:
        """The row view: one SymRow of Python ints and floats per row."""
        ptr = self.ptr.tolist()
        i, j, c = self.i.tolist(), self.j.tolist(), self.coeff.tolist()
        return tuple(SymRow(tuple(i[a:b]), tuple(j[a:b]), tuple(c[a:b]), r)
                     for a, b, r in zip(ptr, ptr[1:], self.rhs.tolist()))

    @staticmethod
    def stack(blocks: Sequence["Coo"]) -> "Coo":
        """One record of the blocks' rows, in order."""
        if not blocks:
            return NO_ROWS
        nnz = np.cumsum([0, *(len(b.i) for b in blocks)])
        return Coo(np.concatenate([*(b.ptr[:-1] + s for b, s in zip(blocks, nnz)),
                                   nnz[-1:]]),
                   *(np.concatenate([getattr(b, f) for b in blocks])
                     for f in ("i", "j", "coeff", "rhs")))

    def check(self, dim: int) -> None:
        """Refuse a malformed record, or an entry off X's upper triangle."""
        ptr, i, j = self.ptr, self.i, self.j
        if not (ptr.ndim == 1 and len(ptr) == len(self.rhs) + 1
                and len(i) == len(j) == len(self.coeff)):
            raise ValueError("constraint record arrays differ in length")
        if ptr[0] != 0 or ptr[-1] != len(i) or np.any(ptr[1:] < ptr[:-1]):
            raise ValueError("constraint record row pointer is not monotone "
                             "from 0 to the entry count")
        if len(i) and not (i.min() >= 0 and np.all(i <= j) and j.max() < dim):
            raise ValueError("constraint entry out of range")


NO_ROWS = Coo.of(())


@dataclass(frozen=True, eq=False)
class SdpModel:
    """One relaxation, and how its objective maps back to the bound.

    The constraints are three `Coo` records, in the solver's block order:
    eq_graph_coo (edge-indicator equalities, one entry per row), eq_other_coo
    (the other equalities) and ineq_coo (the ">=" rows, which ineq_groups
    tile).  eq_graph, eq_other and ineq are their row views, built on each
    read; the solve path reads only the records.

    The bound is the objective plus value_offset: every bounded model reads
    t = X_00 + 1 over the shifted X = Y - J, so its offset is 1.
    trace_ratio, where set, is T with tr(X) = T <C, X> on every feasible X:
    the models of `_scaled_model` (objective X_00, diagonal chain) have
    T = n, which lets the solver certify t from its dual iterate.
    trace_one_start starts the solver at I/dim, of trace one, where the
    model has no value_offset: the theta models, whose trace row holds it.
    """

    dim: int
    objective: np.ndarray
    sense: str  # "min" | "max"
    eq_graph_coo: Coo = NO_ROWS
    eq_other_coo: Coo = NO_ROWS
    ineq_coo: Coo = NO_ROWS
    # named inequality blocks as (kind, start, stop), tiling ineq in order
    ineq_groups: tuple[tuple[str, int, int], ...] = ()
    value_offset: float = 0.0
    trace_ratio: float | None = None
    trace_one_start: bool = False

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if self.objective.shape != (self.dim, self.dim):
            raise ValueError("objective order mismatch")
        for block in (self.eq_graph_coo, self.eq_other_coo, self.ineq_coo):
            block.check(self.dim)
        if np.any(np.diff(self.eq_graph_coo.ptr) != 1):
            raise ValueError(
                "edge-indexed equality must touch a single symmetric position"
            )
        end = 0
        for kind, start, stop in self.ineq_groups:
            if kind not in ("rowsum", "pairs", "generic"):
                raise ValueError(f"unknown inequality group kind {kind!r}")
            if start != end or stop < start:
                raise ValueError("ineq_groups must tile ineq contiguously, in order")
            end = stop
        if end != len(self.ineq_coo):
            raise ValueError("ineq_groups must cover every ineq row")

    # the row views, built on each read
    eq_graph = property(lambda self: self.eq_graph_coo.rows())
    eq_other = property(lambda self: self.eq_other_coo.rows())
    ineq = property(lambda self: self.ineq_coo.rows())


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


def _model(dim: int, objective: np.ndarray, sense: str,
           eq_graph: Coo, eq_other: Coo, blocks: Sequence[tuple[str, Coo]],
           value_offset: float = 0.0, trace_ratio: float | None = None,
           trace_one_start: bool = False) -> SdpModel:
    """The model with its inequality groups recorded.

    `blocks` are the named inequality groups in order; empty groups are left
    out of ineq_groups.
    """
    kept: list[Coo] = []
    spans: list[tuple[str, int, int]] = []
    end = 0
    for kind, block in blocks:
        if len(block):
            spans.append((kind, end, end + len(block)))
            kept.append(block)
            end += len(block)
    return SdpModel(
        dim=dim,
        objective=objective,
        sense=sense,
        eq_graph_coo=eq_graph,
        eq_other_coo=eq_other,
        ineq_coo=Coo.stack(kept),
        ineq_groups=tuple(spans),
        value_offset=value_offset,
        trace_ratio=trace_ratio,
        trace_one_start=trace_one_start,
    )


def _class_rows(members: Sequence[int], weights: Sequence[float], rooms: int) -> Coo:
    """sum_{u in members} c_u Y_uv <= rooms * t for each anchor v in members.

    With Y = X + J and t = X_vv + 1, in the model's ">=" form, the row is
    -sum_{u != v} c_u X_uv + (rooms - c_v) X_vv >= sum_u c_u - rooms, where
    c_u = weights[u].  Anchoring each row at its own column keeps the group's
    Gram matrix in exact alpha*I + beta*J form for the solver's closed-form
    kernels.  `members` is ascending, so row v's entries, at (min(u, v),
    max(u, v)) for u in members, are canonical and in (i, j) order.  A zero
    diagonal is left out, so one member of weight rooms leaves an empty row,
    which is dropped.
    """
    members = np.asarray(members, dtype=np.int64)
    c = np.asarray(weights, dtype=float)[members]
    rhs = -(-sum(c.tolist()) + rooms)  # in this order a zero rhs is -0.0, as recorded
    coeff = np.repeat(-c[None] / 2.0, len(c), axis=0)  # row v, column u: -c_u / 2
    diag = rooms - c
    np.fill_diagonal(coeff, diag)
    keep = np.ones(coeff.shape, dtype=bool)
    np.fill_diagonal(keep, diag != 0)
    counts = keep.sum(axis=1)
    counts = counts[counts > 0]  # else the row reads 0 >= 0
    return Coo(np.concatenate(([0], np.cumsum(counts))),
               np.minimum.outer(members, members)[keep],
               np.maximum.outer(members, members)[keep],
               coeff[keep], np.full(len(counts), rhs))


def _pairs(pairs: Collection[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v) as arrays u and v, in lexicographic order."""
    flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    u, v = flat[0::2], flat[1::2]
    order = np.lexsort((v, u))
    return u[order], v[order]


def _entry_rows(u: np.ndarray, v: np.ndarray, rhs: float, coeff: float = 0.5) -> Coo:
    """One row coeff * (X_uv + X_vu) against rhs per pair (u[k], v[k]), u < v."""
    return Coo(np.arange(len(u) + 1), u, v, np.full(len(u), coeff),
               np.full(len(u), rhs))


def _diagonal_chain(n: int) -> Coo:
    """X_00 = X_vv for every vertex v > 0: Y has the same diagonal t throughout."""
    ij = np.zeros((n - 1, 2), dtype=np.int64)
    ij[:, 1] = np.arange(1, n)
    return Coo(np.arange(0, 2 * n - 1, 2), ij.ravel(), ij.ravel(),
               np.tile([1.0, -1.0], n - 1), np.zeros(n - 1))


def _scaled_model(
    n: int,
    zero_pairs: Collection[tuple[int, int]],
    blocks: Sequence[tuple[str, Coo]],
) -> SdpModel:
    """min t over X = Y - J of order n, with bound t = X_00 + 1.

    Adds Y_uv = 0 on zero_pairs and the diagonal chain X_00 = X_vv anchored
    at vertex 0 to the builder's inequality blocks.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    objective = np.zeros((n, n))
    objective[0, 0] = 1.0
    # the chain gives tr(X) = n X_00 = n <C, X>
    return _model(n, objective, "min", _entry_rows(*_pairs(zero_pairs), -1.0),
                  _diagonal_chain(n), blocks, value_offset=1.0, trace_ratio=float(n))


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
    complement_edges = _pairs(g.non_edges())
    eq_graph = pair_rows = NO_ROWS
    if variant in ("lovasz", "strict"):
        eq_graph = _entry_rows(*complement_edges, 0.0)
    if variant == "strict":
        pair_rows = _entry_rows(*_pairs(g.edges), 0.0)
    if variant == "strong":
        pair_rows = _entry_rows(*complement_edges, 0.0, coeff=-0.5)
    diagonal = np.arange(g.n)
    trace_row = Coo(np.array([0, g.n]), diagonal, diagonal, np.ones(g.n), np.ones(1))
    return _model(g.n, np.ones((g.n, g.n)), "max", eq_graph, trace_row,
                  [("pairs", pair_rows)], trace_one_start=True)


def build_bounded(g: ConflictGraph, m: int) -> SdpModel:
    """min t with Y_vv = t, zero edges, row sums <= tm, Y - J PSD."""
    if not 1 <= m <= max(g.n, 1):
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={g.n}")
    return _scaled_model(g.n, g.edges,
                         [("rowsum", _class_rows(range(g.n), [1] * g.n, m))])


def build_precoloured(
    g: ConflictGraph, m: int, pre: Sequence[Iterable[int]]
) -> SdpModel:
    """Bounded colouring with pre-assigned classes: the weighted model on atoms.

    Each pre-class is contracted to one atom weighted by its member count
    (`Atoms`), and pre are checked as a `TimetablingInstance` checks them.
    Any Y that keeps every pre-class in one period is Y = P Y' P^T with P the
    atom membership matrix, and Y - J = P (Y' - J) P^T, so the contraction is
    exact and the atom model is strictly feasible.
    """
    atoms = Atoms(TimetablingInstance(
        g, m, precolouring=tuple(frozenset(cls) for cls in pre)))
    return build_weighted(atoms.graph, m, [len(mem) for mem in atoms.members])


def build_weighted(
    g: ConflictGraph, m: int, c: Sequence[int]
) -> SdpModel:
    """c-weighted bounded colouring: weighted row sums (= column sums) <= tm,
    for max(c) <= m <= sum(c), as a weight above m fits no class."""
    if len(c) != g.n:
        raise ValueError("weight vector length must equal vertex count")
    if any(w < 1 for w in c):
        raise ValueError("weights must be >= 1")
    if not max(c, default=1) <= m <= max(sum(c), 1):
        raise ValueError(f"require max(c) <= m <= sum(c), got m={m}, "
                         f"max(c)={max(c, default=1)}, sum(c)={sum(c)}")
    return _scaled_model(g.n, g.edges, [("rowsum", _class_rows(range(g.n), c, m))])


class Atoms:
    """An instance's pre-classes contracted to atoms, with their class counts.

    members[a] lists the vertices of atom a < k: the pre-classes in order,
    then every other vertex as a singleton in vertex order.  graph is the
    contracted conflict graph (edges unioned; the instance's own graph when it
    has no pre-class) and adj its bitsets over atom indices; atom_of[v] is
    the atom holding vertex v; counts holds each atom's `ClassCounts`
    profile.  A pre-class holding a conflict edge, or an atom that fits no
    class on its own (too heavy, or more large or featured events than
    matching rooms), makes the instance infeasible and is refused here.
    """

    def __init__(self, inst: TimetablingInstance):
        g = inst.graph
        pre = set().union(*inst.precolouring)
        self.members = (*(tuple(sorted(cls)) for cls in inst.precolouring),
                        *((v,) for v in range(g.n) if v not in pre))
        self.k = len(self.members)
        atom_of = [0] * g.n
        for a, mem in enumerate(self.members):
            for v in mem:
                atom_of[v] = a
        self.atom_of = np.array(atom_of, dtype=np.intp)
        self.graph = g
        if inst.precolouring:
            edges = set()
            for u, v in g.edges:
                au, av = atom_of[u], atom_of[v]
                if au == av:
                    raise ValueError(f"infeasible pre-colouring: conflicting "
                                     f"vertices {u},{v} share a class")
                edges.add((min(au, av), max(au, av)))
            self.graph = ConflictGraph(self.k, frozenset(edges))
        self.adj = self.graph.adjacency_bitsets()
        self.counts = ClassCounts.of_groups(inst, self.members)
        for mem, profile in zip(self.members, self.counts.profile):
            if not self.counts.fits(profile):
                raise ValueError(
                    f"infeasible: events {list(mem)} fit no room arrangement"
                )

    def expand(self, atom_classes: Sequence[Sequence[int]]) -> Partition:
        """The vertex partition of classes given as lists of atoms."""
        return Partition.from_lists(
            [v for a in cls for v in self.members[a]] for cls in atom_classes
        )


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
    inst: TimetablingInstance, features: bool = False
) -> SdpModel:
    """Timetabling relaxation with capacity threshold constraints, on atoms.

    The model lives on the contracted pre-classes of `build_precoloured`,
    and an atom that fits no room arrangement is refused (`Atoms`).  For
    every distinct attendance p, events of size >= p may only share a class
    up to the number of rooms of capacity >= p (PR): one row per atom holding
    such an event, with each atom's member count among those events as its
    column weight.  `features` adds the analogous feature rows (FR),
    requiring the family of feature/threshold sets to be laminar.  Rows that
    coincide collapse to one, which makes the emitted system coincide with
    build_bounded when no threshold binds.
    """
    atoms = Atoms(inst)
    n = inst.graph.n
    sizes = inst.event_sizes
    caps = inst.room_capacities
    # (events, rooms): all events, each capacity level, each feature set
    levels = [(tuple(v for v in range(n) if sizes[v] >= p),
               sum(1 for r in caps if r >= p)) for p in sorted(set(sizes))]
    feature_sets = []
    if features:
        for f in range(inst.feature_count):
            vs = tuple(v for v in range(n) if (v, f) in inst.event_features)
            if vs:
                feature_sets.append((vs, len(inst.rooms_with_feature(f))))
        if not check_laminar([frozenset(vs) for vs, _ in levels + feature_sets]):
            raise ValueError(
                "feature/capacity family is not laminar; feature rows need "
                "nested or disjoint event sets"
            )
    rowsum: list[Coo] = []
    generic: list[Coo] = []
    seen: set[tuple] = set()
    for events, rooms in [(range(n), inst.m), *levels, *feature_sets]:
        # sum_a |a & events| Y'_ab <= rooms * t for every atom b meeting events
        inside = set(events)
        count = tuple(sum(v in inside for v in mem) for mem in atoms.members)
        if (count, rooms) not in seen:  # one row per distinct row over (Y', t)
            seen.add((count, rooms))
            holders = [a for a in range(atoms.k) if count[a]]
            block = rowsum if len(events) == n else generic
            block.append(_class_rows(holders, count, rooms))
    return _scaled_model(atoms.k, atoms.graph.edges,
                         [("rowsum", Coo.stack(rowsum)), ("generic", Coo.stack(generic))])


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
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
    compat_sets: list[set[int]] = []
    for v in range(n):
        rooms = inst.compatible_rooms(v)
        if not rooms:
            raise ValueError(
                f"infeasible: event {v} fits no room (size/feature mismatch)"
            )
        compat_sets.append(set(rooms))
    anchor = 0
    dim = n + m
    objective = np.zeros((dim, dim))
    objective[anchor, anchor] = 1.0
    eq_graph = Coo.stack([_entry_rows(*_pairs(g.edges), -1.0), _entry_rows(*_pairs(
        [(v, n + r) for v in range(n) for r in range(m) if r not in compat_sets[v]]),
        0.0)])
    eq_other: list[SymRow] = []
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
            for v in range(u + 1, n):
                for r in compat_sets[u]:
                    for r2 in compat_sets[v]:
                        if r2 != r:
                            generic.append(SymRow.from_entries(
                                {(u, n + r): -0.5, (v, n + r2): -0.5,
                                 (anchor, anchor): 1.0},
                                -1.0,
                            ))
    pairs = _entry_rows(*_pairs(
        [(v, n + r) for v in range(n) for r in sorted(compat_sets[v])]), 0.0)
    return _model(
        dim, objective, "min", eq_graph,
        Coo.stack([_diagonal_chain(n), Coo.of(eq_other)]),
        [("rowsum", _class_rows(range(n), [1] * n, m)), ("generic", Coo.of(generic)),
         ("pairs", pairs)],
        value_offset=1.0,
    )


# ---------------------------------------------------------------------------
# the one compile of the constraint blocks
# ---------------------------------------------------------------------------


def constraint_matrix(coo: Coo, dim: int) -> scipy.sparse.csr_matrix:
    """The record's rows as one k x dim^2 CSR over vec(X) (row-major).

    Row r holds the full symmetric matrix A_r, so A @ X.ravel() is <A_r, X>
    for symmetric X, A.T @ y is vec(sum_r y_r A_r), and A @ A.T is the
    Frobenius Gram matrix.  Repeated positions within a row add up.
    """
    # int32 where the indices fit, as scipy stores them, so none is copied
    idx = np.int32 if max(dim * dim, len(coo)) < 2**31 else np.int64
    ii, jj, cc = coo.i.astype(idx), coo.j.astype(idx), coo.coeff
    owner = np.repeat(np.arange(len(coo), dtype=idx), np.diff(coo.ptr))
    off = ii != jj
    entries = (np.concatenate([cc, cc[off]]),
               (np.concatenate([owner, owner[off]]),
                np.concatenate([ii * dim + jj, (jj * dim + ii)[off]])))
    del ii, jj, owner, off  # freed before the CSR is built
    return scipy.sparse.coo_matrix(entries, shape=(len(coo), dim * dim)).tocsr()


def gram_matrix(a: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """Sparse Gram matrix <A_r, A_s> of a constraint_matrix block."""
    return (a @ a.T).tocsr()


def verify_structure(
    model: SdpModel,
) -> tuple[np.ndarray, scipy.sparse.csr_matrix, scipy.sparse.csr_matrix, list[int]]:
    """Compile every constraint row once: (rhs, A, G, ends).

    A is one CSR over all rows, stacked in the solver's block order: eq_graph,
    eq_other, then ineq, which its ineq_groups tile; G = A A^T is its Gram.
    Block i is rows ends[i] to ends[i + 1].  It reads the model's records
    only, never a row view.  The solver reads each block's kernel off its
    diagonal Gram block; nothing else builds a CSR or a Gram.
    """
    coo = Coo.stack([model.eq_graph_coo, model.eq_other_coo, model.ineq_coo])
    ng = len(model.eq_graph_coo)
    neq = ng + len(model.eq_other_coo)
    ends = [0, ng, neq, *(neq + b for _, _, b in model.ineq_groups)]
    a = constraint_matrix(coo, model.dim)
    return coo.rhs, a, gram_matrix(a), ends
