"""Exact bounded chromatic numbers via branch and bound, plus bound chains.

The search replaces the ILP used for the published optimum columns: a
DSATUR-ordered branch and bound over colour classes with class-size,
capacity, feature and pre-colouring pruning.  The search runs on
`relax.Atoms`, the pre-classes contracted to weighted atoms, and starts from
`greedy_atoms`, the same DSATUR order without backtracking, which is also the
greedy colouring of `rounding`.  Exactness at desk scale is certified against
full partition enumeration in the test suite.

Saturation is kept as bit-sliced counters over one bit order of the atoms
(the bitset DSATUR of San Segundo 2012): a node scans O(log k) planes for its
target, a move is one ripple carry over them, and an undo is free.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

from . import solver
from .graphs import ConflictGraph, Partition, TimetablingInstance, counting_bound
from .relax import Atoms, build_bounded, build_theta

__all__ = [
    "OracleResult",
    "exact_bounded_chromatic",
    "greedy_atoms",
    "sandwich_check",
    "max_clique",
]


@dataclass(frozen=True)
class OracleResult:
    chi_m: Optional[int]
    witness: Optional[Partition]
    nodes_explored: int
    timed_out: bool
    lower_bound: int
    upper_bound: Optional[int]


def max_clique(g: ConflictGraph, time_limit: float = 10.0) -> int:
    """Exact maximum clique by bitset branch and bound (desk-scale graphs).

    On timeout the incumbent is returned, which stays a valid lower bound.
    """
    adj = g.adjacency_bitsets()
    best = 0
    deadline = time.monotonic() + time_limit

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best or time.monotonic() > deadline:
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(cand & adj[v], size + 1)

    grow((1 << g.n) - 1, 0)
    return best


def _bit_order(atoms: Atoms) -> tuple[list[int], list[int]]:
    """order[i], the atom at bit i, by (degree desc, index asc), and the atoms'
    adjacency masks over those bits.  Among atoms of equal saturation the
    lowest bit is then the one of largest (deg, −a), DSATUR's pick."""
    order = sorted(range(atoms.k), key=lambda a: (-atoms.graph.degree(a), a))
    bit = [1 << i for i in sorted(range(atoms.k), key=order.__getitem__)]
    adj = [0] * atoms.k  # by atom id, over bits
    for u, v in atoms.graph.edges:
        adj[u] |= bit[v]
        adj[v] |= bit[u]
    return order, [adj[a] for a in order]


def _target(planes: list[int], unplaced: int) -> int:
    """The bit of the unplaced atom of largest saturation, lowest on ties: plane
    j holds bit j of each count, so narrow by each nonempty plane, top down."""
    cand = unplaced
    for plane in reversed(planes):
        top = cand & plane
        if top:
            cand = top
    return cand & -cand


def _saturate(planes: list[int], new: int) -> list[int]:
    """New planes with every atom of new one count higher, by a ripple carry; a
    count is at most its atom's degree < k, so k.bit_length() planes hold it."""
    planes = planes.copy()
    for j, plane in enumerate(planes):
        if not new:
            break
        planes[j] = plane ^ new
        new &= plane
    return planes


def _greedy(atoms: Atoms, order: list[int], adj: list[int]) -> list[list[int]]:
    counts = atoms.counts
    planes = [0] * atoms.k.bit_length()
    unplaced = (1 << atoms.k) - 1
    classes: list[list[int]] = []
    class_mask: list[int] = []  # union of adj masks
    class_state: list[int] = []  # ClassCounts totals
    while unplaced:
        bit = _target(planes, unplaced)
        i = bit.bit_length() - 1
        a = order[i]
        for ci, mask in enumerate(class_mask):
            if not mask & bit and counts.admits(class_state[ci], a):
                break
        else:
            ci = len(classes)
            classes.append([])
            class_mask.append(0)
            class_state.append(0)
        planes = _saturate(planes, adj[i] & ~class_mask[ci])
        unplaced ^= bit
        classes[ci].append(a)
        class_mask[ci] |= adj[i]
        class_state[ci] += counts.profile[a]
    return classes


def greedy_atoms(atoms: Atoms) -> list[list[int]]:
    """Saturation-degree greedy in the search's DSATUR order, deterministic.

    Each atom id joins the first class that admits it, in placement order; a
    pick scans the saturation planes and a placement is one ripple carry.
    """
    return _greedy(atoms, *_bit_order(atoms))


def exact_bounded_chromatic(
    inst: TimetablingInstance, time_limit: float = 60.0
) -> OracleResult:
    """Smallest number of classes of a valid partition, proved by search.

    Branch and bound over class assignments in saturation-degree order; a
    vertex may open class j only when classes 0..j-1 are nonempty, and
    opening is always the last branch.  The search stops once its incumbent
    reaches the root bound max(weight bound, clique, 1).  Times out with
    best-known bounds; an atom that fits no class on its own raises
    ValueError (`Atoms`).  Over k atoms a node scans O(log k) saturation
    planes for its target and a move is one ripple carry over them; the
    child gets its own planes, so an undo is free for saturation and
    restores the class's conflict mask and count totals in O(1).
    """
    atoms = Atoms(inst)
    deadline = time.monotonic() + time_limit
    order, adj = _bit_order(atoms)
    best_classes = _greedy(atoms, order, adj)
    best_ub = len(best_classes)
    # a class holds at most m weight, and a clique's atoms need a class each;
    # the search stops at this bound, so no node can prune on it
    root_lb = max(counting_bound(sum(atoms.counts.weight), inst.m),
                  max_clique(atoms.graph, time_limit=min(5.0, time_limit / 4)), 1)
    nodes = 0
    class_members: list[list[int]] = []
    class_conflict: list[int] = []  # union of adj masks
    class_state: list[int] = []
    admits, profile = atoms.counts.admits, atoms.counts.profile

    def recurse(planes: list[int], unplaced: int) -> bool:
        """Depth-first; returns False on timeout or once optimal."""
        nonlocal best_ub, best_classes, nodes
        nodes += 1
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            return False
        if not unplaced:
            if len(class_members) < best_ub:
                best_ub = len(class_members)
                best_classes = [list(c) for c in class_members]
            return best_ub > root_lb
        if len(class_members) >= best_ub:
            return True
        bit = _target(planes, unplaced)
        i = bit.bit_length() - 1
        new, a = adj[i], order[i]
        rest = unplaced ^ bit
        for ci in range(len(class_members)):
            mask = class_conflict[ci]
            if mask & bit:
                continue
            saved = class_state[ci]
            if not admits(saved, a):
                continue
            class_members[ci].append(a)
            class_conflict[ci] = mask | new
            class_state[ci] = saved + profile[a]
            ok = recurse(_saturate(planes, new & ~mask), rest)
            class_members[ci].pop()
            class_conflict[ci] = mask
            class_state[ci] = saved
            if not ok:
                return False
        if len(class_members) + 1 <= best_ub - 1:
            class_members.append([a])
            class_conflict.append(new)
            class_state.append(profile[a])
            ok = recurse(_saturate(planes, new), rest)
            class_members.pop()
            class_conflict.pop()
            class_state.pop()
            if not ok:
                return False
        return True

    k = atoms.k
    done = root_lb >= best_ub or recurse([0] * k.bit_length(), (1 << k) - 1)
    part = atoms.expand(best_classes)
    if not done and best_ub > root_lb:  # stopped by the clock, not at the bound
        return OracleResult(None, part, nodes, True, root_lb, best_ub)
    return OracleResult(best_ub, part, nodes, False, best_ub, best_ub)


@dataclass(frozen=True)
class SandwichReport:
    omega: int
    counting: int
    theta: float
    bounded: float
    certified: int
    chi_m: Optional[int]
    greedy_classes: int
    passed: bool
    failures: tuple[str, ...]


@functools.lru_cache(maxsize=1)
def _lovasz_theta(g: ConflictGraph, cfg: solver.SolverConfig) -> solver.SolveResult:
    """The theta solve of g under cfg.  It does not depend on m, so a sweep
    that checks one graph at several m, one m after another, solves it once."""
    return solver.solve(build_theta(g, "lovasz"), cfg)


def sandwich_check(g: ConflictGraph, m: int, time_limit: float = 60.0,
                   cfg: solver.SolverConfig | None = None) -> SandwichReport:
    """Evaluate the chain of bounds and flag any ordering violation.

    Both solves run under cfg (the default `SolverConfig` when None).  Checks
    omega <= theta <= bounded (real-valued links, within 1e-6 plus the
    solver's own accuracy) and counting <= certified <= chi_m <= greedy.
    """
    if cfg is None:
        cfg = solver.SolverConfig()
    inst = TimetablingInstance.colouring(g, m)
    omega = max_clique(g)
    cnt = counting_bound(g.n, m)
    greedy = len(greedy_atoms(Atoms(inst)))
    theta_res = _lovasz_theta(g, cfg)
    bound_res = solver.solve(build_bounded(g, m), cfg)
    bound, certified = solver.extract_bound(bound_res)
    oracle = exact_bounded_chromatic(inst, time_limit=time_limit)
    failures = []
    slack = 1e-6 + 20 * max(theta_res.eps, bound_res.eps)
    if omega > theta_res.value + slack + 1e-3:
        failures.append(f"omega {omega} > theta {theta_res.value:.4f}")
    if theta_res.value > bound + slack + 1e-3:
        failures.append(f"theta {theta_res.value:.4f} > bounded {bound:.4f}")
    if cnt > certified:
        failures.append(f"counting {cnt} > certified {certified}")
    if oracle.chi_m is not None:
        if certified > oracle.chi_m:
            failures.append(f"certified {certified} > chi_m {oracle.chi_m}")
        if oracle.chi_m > greedy:
            failures.append(f"chi_m {oracle.chi_m} > greedy {greedy}")
    else:
        failures.append("oracle timed out")
    return SandwichReport(
        omega=omega,
        counting=cnt,
        theta=theta_res.value,
        bounded=bound,
        certified=certified,
        chi_m=oracle.chi_m,
        greedy_classes=greedy,
        passed=not failures,
        failures=tuple(failures),
    )
