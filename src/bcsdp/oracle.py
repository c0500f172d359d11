"""Exact bounded chromatic numbers via branch and bound, plus bound chains.

The search replaces the ILP used for the published optimum columns: a
DSATUR-ordered branch and bound over colour classes with class-size,
capacity, feature and pre-colouring pruning.  The search runs on
`relax.Atoms`, the pre-classes contracted to weighted atoms, and starts from
`greedy_atoms`, the same DSATUR order without backtracking, which is also the
greedy colouring of `rounding`.  Exactness at desk scale is certified against
full partition enumeration in the test suite.

Saturation is carried, not recomputed: over k atoms, a node costs one O(k)
scan for its target, and each move and each undo costs O(deg) saturation
updates plus an O(1) restore of the class's conflict mask and count totals.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .graphs import ConflictGraph, Partition, TimetablingInstance, counting_bound
from .relax import Atoms, build_bounded, build_theta

if TYPE_CHECKING:
    from .solver import SolveResult, SolverConfig

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


class _Dsatur:
    """DSATUR order (Brélaz 1979) kept incrementally: one integer key per atom.

    An unplaced atom's key is sat·(k+1)² + deg·(k+1) + (k − a), where sat
    counts the classes holding a neighbour; integer order is exactly that of
    (sat, deg, −a).  A placed atom carries −(k+1)³ on top, so the target is
    the largest key when that key is positive.  Placing atom a in a class
    whose conflict mask was ``mask`` raises sat for each bit of
    adj[a] & ~mask; undoing it lowers the same bits.
    """

    def __init__(self, atoms: Atoms):
        k = atoms.k
        self.adj = atoms.adj
        self.step = (k + 1) ** 2
        self.placed = (k + 1) * self.step
        self.key = [atoms.graph.degree(a) * (k + 1) + k - a for a in range(k)]

    def target(self) -> int:
        """The unplaced atom of largest (sat, deg, −a), or −1 if none is left."""
        best = max(self.key)
        return self.key.index(best) if best > 0 else -1

    def bump(self, a: int, mask: int, sign: int) -> None:
        """Place (sign 1) or unplace (sign −1) a in a class of conflict mask."""
        key = self.key
        key[a] -= sign * self.placed
        step = sign * self.step
        new = self.adj[a] & ~mask
        while new:
            low = new & -new
            key[low.bit_length() - 1] += step
            new ^= low


def greedy_atoms(atoms: Atoms) -> list[list[int]]:
    """Saturation-degree greedy in the search's DSATUR order, deterministic.

    Each atom joins the first class that admits it; classes list atoms in
    placement order.
    """
    counts = atoms.counts
    order = _Dsatur(atoms)
    classes: list[list[int]] = []
    class_mask: list[int] = []
    class_state: list[int] = []  # ClassCounts totals
    for _ in range(atoms.k):
        a = order.target()
        bit = 1 << a
        for ci, mask in enumerate(class_mask):
            if not mask & bit and counts.admits(class_state[ci], a):
                break
        else:
            ci = len(classes)
            classes.append([])
            class_mask.append(0)
            class_state.append(0)
        order.bump(a, class_mask[ci], 1)
        classes[ci].append(a)
        class_mask[ci] |= atoms.adj[a]
        class_state[ci] += counts.profile[a]
    return classes


def exact_bounded_chromatic(
    inst: TimetablingInstance, time_limit: float = 60.0
) -> OracleResult:
    """Smallest number of classes of a valid partition, proved by search.

    Branch and bound over class assignments in saturation-degree order; a
    vertex may open class j only when classes 0..j-1 are nonempty, and
    opening is always the last branch.  Times out with best-known bounds;
    an atom that fits no class on its own raises ValueError (`Atoms`).
    Each node costs one O(k) scan for its target over k atoms; each move and
    each undo updates saturation in O(deg) and restores the class's saved
    conflict mask and count totals in O(1).
    """
    atoms = Atoms(inst)
    counts = atoms.counts
    deadline = time.monotonic() + time_limit
    if atoms.k == 0:
        return OracleResult(0, Partition.from_lists([]), 0, False, 0, 0)
    best_classes = greedy_atoms(atoms)
    best_ub = len(best_classes)
    # a class holds at most m weight and the L open classes hold all placed
    # weight, so L + ceil((unplaced - spare room) / m) is max(L, weight_lb)
    weight_lb = counting_bound(sum(counts.weight), inst.m)
    clique = max_clique(atoms.graph, time_limit=min(5.0, time_limit / 4))
    root_lb = max(weight_lb, clique, 1)
    nodes = 0
    timed_out = False
    if root_lb >= best_ub:
        part = atoms.expand(best_classes)
        return OracleResult(best_ub, part, 0, False, best_ub, best_ub)

    adj = atoms.adj
    order = _Dsatur(atoms)
    class_members: list[list[int]] = []
    class_conflict: list[int] = []  # union of adj masks
    class_state: list[int] = []
    admits, profile = counts.admits, counts.profile

    def recurse() -> bool:
        """Depth-first; returns False on timeout."""
        nonlocal best_ub, best_classes, nodes, timed_out
        nodes += 1
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            timed_out = True
            return False
        a = order.target()
        if a < 0:
            if len(class_members) < best_ub:
                best_ub = len(class_members)
                best_classes = [list(c) for c in class_members]
            return True
        if max(len(class_members), weight_lb) >= best_ub:
            return True
        bit = 1 << a
        for ci in range(len(class_members)):
            mask = class_conflict[ci]
            if mask & bit:
                continue
            saved = class_state[ci]
            if not admits(saved, a):
                continue
            class_members[ci].append(a)
            class_conflict[ci] = mask | adj[a]
            class_state[ci] = saved + profile[a]
            order.bump(a, mask, 1)
            ok = recurse()
            order.bump(a, mask, -1)
            class_members[ci].pop()
            class_conflict[ci] = mask
            class_state[ci] = saved
            if not ok:
                return False
        if len(class_members) + 1 <= best_ub - 1:
            class_members.append([a])
            class_conflict.append(adj[a])
            class_state.append(profile[a])
            order.bump(a, 0, 1)
            ok = recurse()
            order.bump(a, 0, -1)
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


@functools.lru_cache(maxsize=1)
def _lovasz_theta(g: ConflictGraph, cfg: SolverConfig) -> SolveResult:
    """The theta solve of g under cfg.  It does not depend on m, so a sweep
    that checks one graph at several m, one m after another, solves it once."""
    from .solver import solve

    return solve(build_theta(g, "lovasz"), cfg)


def sandwich_check(g: ConflictGraph, m: int, time_limit: float = 60.0,
                   cfg: SolverConfig | None = None) -> SandwichReport:
    """Evaluate the chain of bounds and flag any ordering violation.

    Both solves run under cfg (the default `SolverConfig` when None).  Checks
    omega <= theta <= bounded (real-valued links, within 1e-6 plus the
    solver's own accuracy) and counting <= certified <= chi_m <= greedy.
    """
    from .solver import SolverConfig, extract_bound, solve

    if cfg is None:
        cfg = SolverConfig()
    inst = TimetablingInstance.colouring(g, m)
    omega = max_clique(g)
    cnt = counting_bound(g.n, m)
    greedy = len(greedy_atoms(Atoms(inst)))
    theta_res = _lovasz_theta(g, cfg)
    bound_res = solve(build_bounded(g, m), cfg)
    bound, certified = extract_bound(bound_res)
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
