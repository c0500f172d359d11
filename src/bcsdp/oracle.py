"""Exact bounded chromatic numbers via branch and bound, plus bound chains.

The search replaces the ILP used for the published optimum columns: a
DSATUR-ordered branch and bound over colour classes with class-size,
capacity, feature and pre-colouring pruning.  Pre-coloured vertices are
contracted to weighted atoms before the search.  Exactness at desk scale is
certified against full partition enumeration in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .graphs import (
    ClassCounts,
    ConflictGraph,
    Partition,
    TimetablingInstance,
    counting_bound,
)
from .relax import build_bounded, build_theta, reduce_precolouring_atoms

__all__ = ["OracleResult", "exact_bounded_chromatic", "sandwich_check", "max_clique"]


@dataclass(frozen=True)
class OracleResult:
    chi_m: Optional[int]
    witness: Optional[Partition]
    nodes_explored: int
    timed_out: bool
    lower_bound: int
    upper_bound: Optional[int]


class _Atoms:
    """Pre-colouring-contracted view of an instance, with ClassCounts."""

    def __init__(self, inst: TimetablingInstance):
        graph, _, members = reduce_precolouring_atoms(
            inst.graph, inst.m, inst.precolouring
        )
        self.graph = graph
        self.members = members
        self.k = graph.n
        self.adj = graph.adjacency_bitsets()
        self.counts = ClassCounts(inst, members)
        # a class total's first entry is its weight
        self.weight = [p[0] for p in self.counts.profile]

    def expand(self, atom_classes: list[list[int]]) -> Partition:
        return Partition.from_lists(
            [
                [v for a in cls for v in self.members[a]]
                for cls in atom_classes
            ]
        )


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


def _greedy_atoms(atoms: _Atoms) -> Optional[list[list[int]]]:
    """Saturation-degree greedy over atoms; None if some atom fits nowhere."""
    k = atoms.k
    counts = atoms.counts
    if not all(map(counts.fits, counts.profile)):
        return None
    unassigned = set(range(k))
    classes: list[list[int]] = []
    class_mask: list[int] = []
    class_state: list[tuple[int, ...]] = []  # ClassCounts totals
    assigned_class: dict[int, int] = {}
    while unassigned:
        best_a, best_key = None, None
        for a in unassigned:
            sat = len(
                {assigned_class[b] for b in atoms.graph.neighbors(a) if b in assigned_class}
            )
            key = (sat, atoms.graph.degree(a), -a)
            if best_key is None or key > best_key:
                best_a, best_key = a, key
        a = best_a
        placed = False
        for ci in range(len(classes)):
            if class_mask[ci] & (1 << a):
                continue
            if counts.admits(class_state[ci], a):
                classes[ci].append(a)
                class_mask[ci] |= atoms.adj[a]
                class_state[ci] = counts.plus(class_state[ci], counts.profile[a])
                assigned_class[a] = ci
                placed = True
                break
        if not placed:
            classes.append([a])
            class_mask.append(atoms.adj[a])
            class_state.append(counts.profile[a])
            assigned_class[a] = len(classes) - 1
        unassigned.discard(a)
    return classes


def exact_bounded_chromatic(
    inst: TimetablingInstance, time_limit: float = 60.0
) -> OracleResult:
    """Smallest number of classes of a valid partition, proved by search.

    Branch and bound over class assignments in saturation-degree order; a
    vertex may open class j only when classes 0..j-1 are nonempty, and
    opening is always the last branch.  Times out with best-known bounds.
    """
    atoms = _Atoms(inst)
    counts = atoms.counts
    k = atoms.k
    deadline = time.monotonic() + time_limit
    if k == 0:
        return OracleResult(0, Partition.from_lists([]), 0, False, 0, 0)
    greedy = _greedy_atoms(atoms)
    if greedy is None:
        raise ValueError("instance infeasible: some event/pre-class fits no room")
    best_classes = [list(c) for c in greedy]
    best_ub = len(best_classes)
    total_weight = sum(atoms.weight)
    root_lb = counting_bound(total_weight, inst.m)
    clique = max_clique(atoms.graph, time_limit=min(5.0, time_limit / 4))
    root_lb = max(root_lb, clique, 1)
    nodes = 0
    timed_out = False
    if root_lb >= best_ub:
        part = atoms.expand(best_classes)
        return OracleResult(best_ub, part, 0, False, best_ub, best_ub)

    order_deg = [atoms.graph.degree(a) for a in range(k)]
    assigned: list[int] = [-1] * k
    class_members: list[list[int]] = []
    class_conflict: list[int] = []  # union of adj masks
    class_state: list[tuple[int, ...]] = []
    remaining_weight = total_weight

    def node_bound() -> int:
        spare = sum(inst.m - st[0] for st in class_state)
        extra = max(0, math.ceil((remaining_weight - spare) / inst.m))
        return len(class_members) + extra

    def recurse() -> bool:
        """Depth-first; returns False on timeout."""
        nonlocal best_ub, best_classes, nodes, remaining_weight, timed_out
        nodes += 1
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            timed_out = True
            return False
        target = -1
        best_key = None
        for a in range(k):
            if assigned[a] >= 0:
                continue
            sat = 0
            for ci in range(len(class_members)):
                if class_conflict[ci] & (1 << a):
                    sat += 1
            key = (sat, order_deg[a], -a)
            if best_key is None or key > best_key:
                target, best_key = a, key
        if target < 0:
            if len(class_members) < best_ub:
                best_ub = len(class_members)
                best_classes = [list(c) for c in class_members]
            return True
        if len(class_members) >= best_ub or node_bound() >= best_ub:
            return True
        a = target
        bit = 1 << a
        for ci in range(len(class_members)):
            if class_conflict[ci] & bit:
                continue
            if not counts.admits(class_state[ci], a):
                continue
            saved = class_state[ci]
            class_members[ci].append(a)
            class_conflict[ci] |= atoms.adj[a]
            class_state[ci] = counts.plus(saved, counts.profile[a])
            assigned[a] = ci
            remaining_weight -= atoms.weight[a]
            ok = recurse()
            remaining_weight += atoms.weight[a]
            assigned[a] = -1
            class_members[ci].pop()
            class_state[ci] = saved
            class_conflict[ci] = 0
            for b in class_members[ci]:
                class_conflict[ci] |= atoms.adj[b]
            if not ok:
                return False
        if len(class_members) + 1 <= best_ub - 1:
            class_members.append([a])
            class_conflict.append(atoms.adj[a])
            class_state.append(counts.profile[a])
            assigned[a] = len(class_members) - 1
            remaining_weight -= atoms.weight[a]
            ok = recurse()
            remaining_weight += atoms.weight[a]
            assigned[a] = -1
            class_members.pop()
            class_conflict.pop()
            class_state.pop()
            if not ok:
                return False
        return True

    completed = recurse()
    part = atoms.expand(best_classes)
    if completed and not timed_out:
        return OracleResult(best_ub, part, nodes, False, best_ub, best_ub)
    return OracleResult(
        None, part, nodes, True, root_lb, best_ub
    )


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


def sandwich_check(g: ConflictGraph, m: int, time_limit: float = 60.0,
                   tol: float = 1e-6) -> SandwichReport:
    """Evaluate the chain of bounds and flag any ordering violation.

    Checks omega <= theta <= bounded (real-valued links, within tol plus the
    solver's own accuracy) and counting <= certified <= chi_m <= greedy.
    """
    from .rounding import greedy_colouring
    from .solver import SolverConfig, extract_bound, solve

    inst = TimetablingInstance.colouring(g, m)
    omega = max_clique(g)
    cnt = counting_bound(g.n, m)
    greedy = greedy_colouring(inst, seed=0)
    theta_res = solve(build_theta(g, "lovasz"), None, SolverConfig())
    model, sem = build_bounded(g, m)
    bound_res = solve(model, sem)
    bound, certified = extract_bound(bound_res, sem)
    oracle = exact_bounded_chromatic(inst, time_limit=time_limit)
    failures = []
    slack = tol + 20 * max(theta_res.eps, bound_res.eps)
    if omega > theta_res.value + slack + 1e-3:
        failures.append(f"omega {omega} > theta {theta_res.value:.4f}")
    if theta_res.value > bound + slack + 1e-3:
        failures.append(f"theta {theta_res.value:.4f} > bounded {bound:.4f}")
    if cnt > certified:
        failures.append(f"counting {cnt} > certified {certified}")
    if oracle.chi_m is not None:
        if certified > oracle.chi_m:
            failures.append(f"certified {certified} > chi_m {oracle.chi_m}")
        if oracle.chi_m > greedy.num_classes:
            failures.append(
                f"chi_m {oracle.chi_m} > greedy {greedy.num_classes}"
            )
    else:
        failures.append("oracle timed out")
    return SandwichReport(
        omega=omega,
        counting=cnt,
        theta=theta_res.value,
        bounded=bound,
        certified=certified,
        chi_m=oracle.chi_m,
        greedy_classes=greedy.num_classes,
        passed=not failures,
        failures=tuple(failures),
    )
