"""Recover feasible timetables from relaxation solutions.

Two recovery routes: hyperplane-cap randomized rounding over the Gram
vectors of the solution matrix, and iterative eigenvalue rounding that
re-solves progressively smaller SDPs while fixing settled eigenspaces.
Both always return partitions that pass validate_partition; the oracle's
deterministic DSATUR greedy (`oracle.greedy_atoms`) provides the fallback
upper bound.  Greedy and hyperplane-cap rounding work on `relax.Atoms`: a
pre-class is one unit, and a conflict is one AND of atom bitsets.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from . import solver
from .graphs import Partition, TimetablingInstance, class_violations, validate_partition
from .linalg import cholesky_psd
from .oracle import greedy_atoms
from .relax import Atoms, Coo, SdpModel, SymRow

__all__ = [
    "RoundingConfig",
    "RoundingDiagnostics",
    "kms_round",
    "iterative_round",
    "greedy_colouring",
    "assign_rooms",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoundingConfig:
    attempts: int = 50
    seed: int = 0
    delta: float = 1e-6

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")


@dataclass(frozen=True)
class RoundingDiagnostics:
    constraint_violations: tuple[float, ...]
    violation_bound: float
    rounds: int
    notes: tuple[str, ...] = ()


def greedy_colouring(inst: TimetablingInstance) -> Partition:
    """Saturation-degree greedy respecting bound, capacities, features, pre-classes.

    The oracle's DSATUR greedy (`greedy_atoms`) over the instance's atoms,
    expanded to events and matched to rooms; deterministic.
    """
    atoms = Atoms(inst)
    part = atoms.expand(greedy_atoms(atoms))
    return Partition(part.classes, assign_rooms(inst, part))


def assign_rooms(inst: TimetablingInstance, part: Partition) -> Optional[dict[int, int]]:
    """Per-class event-room matching (augmenting paths); None when trivial."""
    caps = set(inst.room_capacities)
    sizes = inst.event_sizes
    if len(caps) == 1 and inst.feature_count == 0 and min(caps) >= max(sizes, default=0):
        return None
    assignment: dict[int, int] = {}
    for cls in part.classes:
        match_room: dict[int, int] = {}

        def try_place(v: int, seen: set[int]) -> bool:
            for r in inst.compatible_rooms(v):
                if r in seen:
                    continue
                seen.add(r)
                if r not in match_room or try_place(match_room[r], seen):
                    match_room[r] = v
                    return True
            return False

        ok = True
        for v in sorted(cls, key=lambda u: -inst.event_sizes[u]):
            if not try_place(v, set()):
                ok = False
                break
        if not ok:
            return None
        for r, v in match_room.items():
            assignment[v] = r
    return assignment


def _kms_threshold(k: int, max_degree: int) -> float:
    if max_degree <= 1 or k <= 2:
        return 0.0
    return math.sqrt(2.0 * (k - 2) / (k * math.log(max_degree)))


def kms_round(x: np.ndarray, inst: TimetablingInstance,
              cfg: Optional[RoundingConfig] = None,
              atoms: Optional[Atoms] = None, target: Optional[int] = None,
              stats: Optional[dict] = None) -> Partition:
    """Hyperplane-cap rounding of a solution matrix into a valid partition.

    Gram vectors come from a Cholesky factorization of x.  Each round draws a
    standard-normal direction, admits vertices scoring at least the cap
    threshold in descending order subject to independence, the class-size
    bound, capacity and feature counts; leftovers wait for later rounds.  The
    best of cfg.attempts attempts is returned (fewest classes, then earliest
    attempt); a top-scorer is admitted when a round would otherwise stall, so
    every run ends with a valid partition.  An instance with an atom that
    fits no class on its own raises ValueError (`Atoms`).  A caller that
    already holds `Atoms(inst)` passes it as atoms, so it is built once.

    With k atoms (pre-colouring classes and free vertices) of Gram dimension
    d, set-up builds a k x k int8 atom-conflict matrix once per call.  A
    round then costs one k x d scoring product, an O(k log k) sort and an
    O(k |class|) degree update, plus one AND of the atom's adjacency bitset
    with the class's atom bits and one packed ClassCounts test (an add and an
    AND) of the class's running total per candidate.  The _compact
    post-pass sorts its C classes once per sweep and scans the C^2 class
    pairs for a merge only until one scan finds none, since its moves only
    grow classes.  A DEBUG record on this module's logger reports the
    attempt count, the best attempt and the class-count range.

    Attempt i draws from its own generator, seeded (cfg.seed, i), so its
    classes do not depend on which attempts ran before it.  The attempts run
    one after another in this process: attempt 0 first, then, unless target
    stops the call, attempts 1..A-1 in order, keeping the first attempt
    with the fewest classes.

    target is a class count to stop at, such as a proven lower bound: when
    attempt 0 has at most target classes it is returned at once, and when it
    has more, _descend looks for a valid timetable of target classes from it
    and returns the first it finds.  Only when both fail do attempts
    1..A-1 run, so the result is then the same as without target.  The DEBUG
    record counts the attempts run, the descent's swaps and whether it
    reached target; a caller that passes a dict as stats gets the record's
    fields in it.
    """
    cfg = cfg or RoundingConfig()
    if atoms is None:
        atoms = Atoms(inst)
    if atoms.k == 0:
        return Partition.from_lists([])
    t_hat = float(np.mean(np.clip(np.diag(x), 0.0, None)))
    k_bound = max(int(math.ceil(t_hat - 1e-6)), 1)
    L = cholesky_psd(x)
    norms = np.linalg.norm(L, axis=1)
    norms[norms == 0] = 1.0
    unit = L / norms[:, None]
    atom_vec = np.zeros((atoms.k, unit.shape[1]))
    for a, mem in enumerate(atoms.members):
        vec = unit[list(mem)].sum(axis=0)
        nv = np.linalg.norm(vec)
        atom_vec[a] = vec / nv if nv > 0 else vec
    conflict = np.zeros((atoms.k, atoms.k), dtype=np.int8)
    ends = np.array(list(atoms.graph.edges), dtype=np.intp).reshape(-1, 2)
    conflict[ends[:, 0], ends[:, 1]] = 1
    conflict[ends[:, 1], ends[:, 0]] = 1

    def attempt(i: int) -> list[list[int]]:
        rng = np.random.default_rng((cfg.seed, i))
        return _compact(atoms, _kms_attempt(atoms, atom_vec, conflict, k_bound, rng))

    best = attempt(0)
    counts = [len(best)]
    best_attempt, swaps, descended = 0, 0, None
    if target is not None and counts[0] > target:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
        # k swaps: on gnp:160 (m = 5) and tt80 the successes took at most
        # 0.25 k over 40 seeds each, and a failure costs 0.1-0.2 ms a swap
        # at k = 45..80 (one core of a 2-core x86-64 box)
        descended, swaps = _descend(atoms, conflict, best, target, atoms.k, rng)
    if descended is not None:
        best = descended
    elif target is None or counts[0] > target:
        for i in range(1, cfg.attempts):
            classes = attempt(i)
            counts.append(len(classes))
            if len(classes) < len(best):
                best_attempt, best = i, classes
    record = {"attempts": cfg.attempts, "attempts_run": len(counts),
              "best_attempt": best_attempt, "min_classes": min(counts),
              "max_classes": max(counts), "descent_swaps": swaps,
              "descent_reached": descended is not None}
    if stats is not None:
        stats.update(record)
    _log.debug(
        "kms_round: %(attempts_run)d of %(attempts)d attempts, best "
        "%(best_attempt)d, classes %(min_classes)d..%(max_classes)d; descent "
        "%(descent_swaps)d swaps, reached %(descent_reached)s", record,
        extra={"kms": record},
    )
    part = atoms.expand(best)
    return Partition(part.classes, assign_rooms(inst, part))


def _kms_attempt(atoms: Atoms, atom_vec: np.ndarray, conflict: np.ndarray,
                 k_bound: int, rng: np.random.Generator) -> list[list[int]]:
    alive = np.ones(atoms.k, dtype=bool)
    # degree of each atom in the conflict graph induced on the alive atoms
    degree = conflict.sum(axis=1, dtype=np.int64)
    classes: list[list[int]] = []
    adj, counts = atoms.adj, atoms.counts
    fits, profile = counts.fits, counts.profile
    placed = 0
    while placed < atoms.k:
        rem = np.flatnonzero(alive)
        cap = _kms_threshold(k_bound, int(degree[rem].max()))
        r = rng.standard_normal(atom_vec.shape[1])
        scores = atom_vec[rem] @ r
        pick = np.lexsort((rem, -scores))
        chosen: list[int] = []
        chosen_bits = 0
        total = 0
        for a, score in zip(rem[pick].tolist(), scores[pick].tolist()):
            if score < cap and chosen:
                break
            if adj[a] & chosen_bits:
                continue
            grown = total + profile[a]
            if not fits(grown):
                continue
            chosen.append(a)
            chosen_bits |= 1 << a
            total = grown
            if score < cap:
                break  # stall guard admitted a single top scorer
        classes.append(chosen)
        placed += len(chosen)
        alive[chosen] = False
        # conflict is symmetric: the chosen rows are the chosen columns
        degree -= conflict[chosen].sum(axis=0, dtype=np.int64)
    return classes


def _compact(atoms: Atoms, classes: list[list[int]]) -> list[list[int]]:
    """Deterministic post-pass: merge whole classes, then dissolve small ones
    by relocating members, until no move reduces the class count.

    Each class is kept as (sorted atoms, atom bits, neighbour mask, profile
    total), updated by every move, so with C classes a sweep costs an
    O(C log C) sort, plus a compare of profile totals against the limits per
    relocation; every successful move starts a new sweep.  The O(C^2)
    single-AND merge scan runs only until it first finds no pair: moves only
    grow classes, and both merge tests (a neighbour mask against atom bits, a
    sum of nonnegative profiles against the limits) fail on any supersets of
    a pair they fail on, so no later sweep could merge.
    """
    adj, counts = atoms.adj, atoms.counts
    fits, profile = counts.fits, counts.profile
    groups = [(sorted(c), sum(1 << a for a in c),
               reduce(operator.or_, (adj[a] for a in c)),
               sum(profile[a] for a in c)) for c in classes]
    merging = True
    changed = True
    while changed:
        changed = False
        groups.sort(key=lambda g: (len(g[0]), g[0]))
        if merging:
            for i, (mem_i, bits_i, nbrs_i, total_i) in enumerate(groups):
                for j, (mem_j, bits_j, nbrs_j, total_j) in enumerate(groups):
                    if i == j or nbrs_i & bits_j:
                        continue
                    total = total_i + total_j
                    if not fits(total):
                        continue
                    groups[j] = (sorted(mem_j + mem_i), bits_i | bits_j,
                                 nbrs_i | nbrs_j, total)
                    del groups[i]
                    changed = True
                    break
                if changed:
                    break
            if changed:
                continue
            merging = False
        for i in range(len(groups)):
            trial = list(groups)
            emptied = True
            for a in groups[i][0]:
                placed = False
                for j, (mem, bits, nbrs, total) in enumerate(trial):
                    if j == i or adj[a] & bits:
                        continue
                    grown = total + profile[a]
                    if fits(grown):
                        trial[j] = (mem + [a], bits | 1 << a, nbrs | adj[a], grown)
                        placed = True
                        break
                if not placed:
                    emptied = False
                    break
            if emptied:
                del trial[i]
                groups = [(sorted(g[0]), *g[1:]) for g in trial]
                changed = True
                break
    return [g[0] for g in groups]


def _excess(base: np.ndarray, add: np.ndarray) -> np.ndarray:
    """sum_l max(base_l + add_l, 0) over the last axis of two (..., L) arrays
    that broadcast against each other.  It runs limit by limit, so no
    temporary holds both the broadcast shape and the L axis."""
    out = np.zeros(np.broadcast_shapes(base.shape[:-1], add.shape[:-1]), dtype=np.int64)
    for l in range(base.shape[-1]):
        out += np.maximum(base[..., l] + add[..., l], 0)
    return out


def _descend(atoms: Atoms, conflict: np.ndarray, classes: list[list[int]],
             target: int, budget: int, rng: np.random.Generator
             ) -> tuple[Optional[list[list[int]]], int]:
    """Tabu swap descent from a valid timetable to one of target classes.

    The target largest classes are kept (the earlier of two equal ones), and
    each atom of the others, in ascending order, joins the class where it
    adds least cost (the lowest such class).  The cost of an assignment is
    its conflicting atom pairs inside a class plus, per class, the excess of
    each ClassCounts count over its limit; it is 0 exactly on valid
    timetables.  Each swap then takes the cheapest move of an atom that is in
    a conflict or in a class over a limit: a relocation to another class, or
    an exchange with an atom of another class (which keeps every class size,
    so it moves through the full classes of a tight size bound).  A move
    that puts an atom back into a class it left within its tenure is tabu
    unless it reaches a cost below the best so far; the tenure is 0.6 times
    the number of candidate atoms plus a draw from 0..9 (TabuCol, Hertz and
    de Werra 1987).  Among equally cheap moves, relocations (by atom, then
    class) come before exchanges (by atom, then partner), and one draw of
    rng picks.

    Returns (the classes, as ascending atom lists, and the swaps made) at the
    first assignment of cost 0, or (None, the swaps made) once budget swaps
    are spent or no move is left.  With k atoms it holds k x target
    neighbour counts and tabu horizons next to the caller's k x k conflict
    matrix; a swap costs O(k) per candidate atom and binding limit.
    """
    k = atoms.k
    cnt = np.array(atoms.counts.group_counts, dtype=np.int64).reshape(k, -1)
    # a limit at or above its count's total over all atoms binds no class
    live = cnt.sum(axis=0) > atoms.counts.limits
    cnt = cnt[:, live]
    limits = np.array(atoms.counts.limits, dtype=np.int64)[live]
    keep = sorted(sorted(range(len(classes)), key=lambda i: -len(classes[i]))[:target])
    cls = np.full(k, -1, dtype=np.intp)
    gamma = np.zeros((k, target), dtype=np.int64)  # gamma[a, j]: a's neighbours in class j
    head = np.empty((target, len(limits)), dtype=np.int64)  # class counts over the limits
    for j, i in enumerate(keep):
        cls[classes[i]] = j
        gamma[:, j] = conflict[:, classes[i]].sum(axis=1)
        head[j] = cnt[classes[i]].sum(axis=0) - limits
    zero = np.zeros(len(limits), dtype=np.int64)
    for a in np.flatnonzero(cls < 0).tolist():
        j = int(np.argmin(gamma[a] + _excess(head, cnt[a]) - _excess(head, zero)))
        cls[a] = j
        gamma[:, j] += conflict[a]
        head[j] += cnt[a]
    atom = np.arange(k)
    cost = int(gamma[atom, cls].sum()) // 2 + int(np.sum(_excess(head, zero)))
    best = cost
    tabu = np.zeros((k, target), dtype=np.int64)  # tabu[a, j]: a may not enter j before
    swaps = 0

    def move(a: int, j: int, tenure: int) -> None:
        i = cls[a]
        gamma[:, i] -= conflict[a]
        gamma[:, j] += conflict[a]
        head[i] -= cnt[a]
        head[j] += cnt[a]
        cls[a] = j
        tabu[a, i] = swaps + tenure

    while cost:
        if swaps == budget:
            return None, swaps
        own = gamma[atom, cls]
        over = _excess(head, zero)
        bad = np.flatnonzero((own > 0) | (over[cls] > 0))
        at = cls[bad]
        without = head[cls] - cnt  # each atom's class without it, over the limits
        taboo = tabu > swaps
        rel = (gamma[bad] - own[bad, None] - over[None] - over[at, None]
               + _excess(without[bad], zero)[:, None]
               + _excess(head[None], cnt[bad, None]))
        rel_off = at[:, None] == np.arange(target)
        rel_taboo = taboo[bad]
        xch = (gamma[bad][:, cls] - own[bad, None] + gamma[:, at].T - own[None]
               - 2 * conflict[bad].astype(np.int64)
               - over[at, None] - over[cls][None]
               + _excess(without[bad, None], cnt[None])
               + _excess(without[None], cnt[bad, None]))
        xch_off = at[:, None] == cls[None]
        xch_taboo = taboo[bad][:, cls] | taboo[:, at].T
        delta = np.concatenate((rel.ravel(), xch.ravel()))
        off = np.concatenate((rel_off.ravel(), xch_off.ravel()))
        allowed = ~off & (~np.concatenate((rel_taboo.ravel(), xch_taboo.ravel()))
                          | (cost + delta < best))
        if not allowed.any():
            allowed = ~off
            if not allowed.any():
                return None, swaps
        low = delta[allowed].min()
        ties = np.flatnonzero(allowed & (delta == low))
        pick = int(ties[rng.integers(len(ties))])
        tenure = int(0.6 * len(bad)) + int(rng.integers(10))
        if pick < rel.size:
            r, j = divmod(pick, target)
            move(int(bad[r]), j, tenure)
        else:
            r, b = divmod(pick - rel.size, k)
            a, i = int(bad[r]), int(at[r])
            move(a, int(cls[b]), tenure)
            move(b, i, tenure)
        swaps += 1
        cost += int(low)
        best = min(best, cost)
    return [c for c in (np.flatnonzero(cls == j).tolist() for j in range(target)) if c], swaps


def iterative_round(
    model: SdpModel,
    x: np.ndarray,
    inst: TimetablingInstance,
    cfg: Optional[RoundingConfig] = None,
) -> tuple[Partition, RoundingDiagnostics]:
    """Eigenvalue fixing over the box form 0 <= X <= I with bounded trace.

    The bounded-colouring solution is rescaled to the class-normalized lift
    (classes contribute rank-one blocks with unit eigenvalues).  Rounds
    classify eigenvalues of the current iterate against delta: low ones
    retire to F0, high ones to F1, and only if fractional ones remain is the
    reduced SDP re-solved on the middle frame; constraints whose reduced
    inner product falls under delta are dropped.  Classes are reconstructed
    by clustering rows of F1 F1', with a validity-repairing fallback, so the
    returned partition always validates.  The greedy colouring that caps the
    trace is returned instead when it has fewer classes, or when a re-solve
    diverges.
    """
    cfg = cfg or RoundingConfig()
    n = inst.graph.n
    if model.dim < n:
        raise ValueError("model order smaller than the instance's vertex count")
    # x is in shifted coordinates (diagonal t - 1); recover the bound scale
    t_hat = float(np.mean(np.diag(x)[:n])) + 1.0
    box = _to_box_form(x[:n, :n], max(t_hat, 1.0))
    upper = greedy_colouring(inst)
    trace_cap = float(upper.num_classes)
    eq_rows, rows = _box_constraints(inst)
    f0: list[np.ndarray] = []
    f1: list[np.ndarray] = []
    frame = np.eye(n)
    current = box.copy()
    active = list(range(len(rows)))
    violations = [0.0] * len(rows)
    notes: list[str] = []
    rounds = 0
    delta = cfg.delta
    while frame.shape[1] > 0 and rounds < n + 8:
        rounds += 1
        lam, vec = np.linalg.eigh(0.5 * (current + current.T))
        low = lam < delta
        high = lam > 1.0 - delta
        mid = ~(low | high)
        if mid.all() and rounds > 1:
            # non-extreme inner optimum: widen the rounding band to force
            # progress rather than re-solving the same subproblem
            delta = min(0.49, max(delta * 8.0, 0.02))
            low = lam < delta
            high = lam > 1.0 - delta
            mid = ~(low | high)
        for col in vec.T[low]:
            f0.append(frame @ col)
        for col in vec.T[high]:
            f1.append(frame @ col)
        if not mid.any():
            break
        mid_vec = vec[:, mid]
        x_frac = (mid_vec * lam[mid]) @ mid_vec.T
        keep = []
        for idx in active:
            val = rows[idx].value(frame @ x_frac @ frame.T)
            if abs(val) >= delta:
                keep.append(idx)
        active = keep
        frame = frame @ mid_vec
        r = frame.shape[1]
        f1_mat = np.column_stack(f1) if f1 else np.zeros((n, 0))
        sub, ok = _reduced_model(
            eq_rows, rows, active, frame, f1_mat, trace_cap, n, r
        )
        if not ok:
            notes.append("trace budget exhausted; remaining frame dropped")
            break
        res = solver.solve(sub, solver.SolverConfig(max_iter=1200, eps=1e-5))
        if res.status == "diverged":
            diag_out = RoundingDiagnostics(
                tuple(violations), _violation_bound(rows, n), rounds,
                ("subsolver diverged; partial diagnostics",),
            )
            return upper, diag_out
        current = 0.5 * (res.X_final[:r, :r] + res.X_final[:r, :r].T)
        if res.status == "max_iter":
            delta = min(0.49, delta * 4 + 1e-3)
    f1_mat = np.column_stack(f1) if f1 else np.zeros((n, 0))
    part = _classes_from_frame(inst, f1_mat, notes)
    if upper.num_classes < part.num_classes:
        notes.append(f"frame gave {part.num_classes} classes; "
                     f"returned the greedy colouring's {upper.num_classes}")
        part = upper
    else:
        part = Partition(part.classes, assign_rooms(inst, part))
    gram = f1_mat @ f1_mat.T
    for idx, row in enumerate(rows):
        violations[idx] = max(0.0, row.rhs - row.value(gram))
    diag_out = RoundingDiagnostics(
        tuple(violations), _violation_bound(rows, n), rounds, tuple(notes)
    )
    return part, diag_out


def _to_box_form(x: np.ndarray, t_hat: float) -> np.ndarray:
    """Class-normalized lift: block indicators map to orthogonal projectors."""
    y = (x + np.ones_like(x)) / max(t_hat, 1e-9)  # back to Y/t, entries in [0,1]
    row_sums = y.sum(axis=1)
    scale = np.where(row_sums > 1e-9, 1.0 / row_sums, 1.0)
    z = y * np.sqrt(np.outer(scale, scale))
    w, v = np.linalg.eigh(0.5 * (z + z.T))
    w = np.clip(w, 0.0, 1.0)
    return (v * w) @ v.T


def _box_constraints(inst: TimetablingInstance) -> tuple[list[SymRow], list[SymRow]]:
    """Box-form system: (edge equalities, >= rows: class mass and size caps)."""
    n = inst.graph.n
    eq = [
        SymRow.from_entries({(u, w): 0.5}, 0.0) for u, w in sorted(inst.graph.edges)
    ]
    ineq = []
    for v in range(n):
        entries = {(min(u, v), max(u, v)): 0.5 for u in range(n) if u != v}
        entries[(v, v)] = 1.0
        ineq.append(SymRow.from_entries(entries, 1.0))  # class mass >= 1
    for v in range(n):
        ineq.append(SymRow.from_entries({(v, v): 1.0}, 1.0 / inst.m))
    return eq, ineq


def _reduce_row(row: SymRow, frame: np.ndarray, proj: np.ndarray,
                n: int, r: int) -> Optional[SymRow]:
    dense = row.dense(n)
    red = frame.T @ dense @ frame
    rhs = row.rhs - float(np.sum(dense * proj))
    entries = {}
    for i in range(r):
        for j in range(i, r):
            c = red[i, j]
            if abs(c) > 1e-12:
                entries[(i, j)] = c
    if not entries:
        return None
    return SymRow.from_entries(entries, rhs)


def _reduced_model(eq_rows, rows, active, frame, f1_mat, trace_cap, n, r):
    cap = trace_cap - (f1_mat.shape[1] if f1_mat.size else 0)
    if cap < -1e-9:
        return None, False
    proj = f1_mat @ f1_mat.T if f1_mat.size else np.zeros((n, n))
    # box 0 <= X <= I via a slack block: X + X' = I on a 2r variable
    dim = 2 * r
    obj = np.zeros((dim, dim))
    obj[:r, :r] = np.eye(r)
    eq_other = []
    for i in range(r):
        for j in range(i, r):
            c = 1.0 if i == j else 0.5
            eq_other.append(
                SymRow.from_entries(
                    {(i, j): c, (r + i, r + j): c}, 1.0 if i == j else 0.0
                )
            )
    for row in eq_rows:
        red = _reduce_row(row, frame, proj, n, r)
        if red is not None:
            eq_other.append(red)
    ineq = []
    for idx in active:
        red = _reduce_row(rows[idx], frame, proj, n, r)
        if red is not None:
            ineq.append(red)
    trace_entries = {(i, i): -1.0 for i in range(r)}
    ineq.append(SymRow.from_entries(trace_entries, -cap))
    # each re-solve starts at I/(2r), the trace-one start of the theta models
    model = SdpModel(
        dim=dim,
        objective=obj,
        sense="min",
        eq_other_coo=Coo.of(eq_other),
        ineq_coo=Coo.of(ineq),
        ineq_groups=(("generic", 0, len(ineq)),),
        trace_one_start=True,
    )
    return model, True


def _violation_bound(rows: Sequence[SymRow], n: int) -> float:
    """Largest-singular-value bound over sampled constraint subsets."""
    if not rows:
        return 0.0
    rng = np.random.default_rng(0)
    m = len(rows)
    best = 0.0
    sizes = sorted({1, min(2, m), min(8, m), m})
    for size in sizes:
        for _ in range(3):
            pick = rng.choice(m, size=size, replace=False)
            avg = np.zeros((n, n))
            for idx in pick:
                avg += rows[idx].dense(n)
            avg /= size
            sv = np.linalg.svd(avg, compute_uv=False)
            take = int(math.floor(math.sqrt(2 * size) + 1))
            best = max(best, float(np.sum(sv[:take])))
    return best


def _classes_from_frame(inst: TimetablingInstance, f1_mat: np.ndarray,
                        notes: list[str]) -> Partition:
    n = inst.graph.n
    gram = f1_mat @ f1_mat.T if f1_mat.size else np.zeros((n, n))
    classes: list[list[int]] = []
    used = [False] * n
    for v in range(n):
        if used[v]:
            continue
        cluster = [v]
        used[v] = True
        for u in range(v + 1, n):
            if used[u]:
                continue
            if np.max(np.abs(gram[u] - gram[v])) <= 1e-6 and gram[u, v] > 1e-6:
                cluster.append(u)
                used[u] = True
        classes.append(cluster)
    part = Partition.from_lists(classes)
    if validate_partition(inst, part).ok:
        return part
    notes.append("frame clustering ambiguous; greedy validity repair applied")
    # greedy repair: re-pack clusters respecting all class rules
    repaired: list[list[int]] = []
    adj = inst.graph.adjacency_bitsets()
    for cluster in classes:
        for v in sorted(cluster):
            placed = False
            for cls in repaired:
                if any(adj[v] & (1 << u) for u in cls):
                    continue
                if not class_violations(inst, cls + [v]):
                    cls.append(v)
                    placed = True
                    break
            if not placed:
                repaired.append([v])
    return Partition.from_lists(repaired)
