"""Independent reference implementations used to certify the package.

Everything here is deliberately naive: exhaustive partition enumeration,
dense linear algebra assembled straight from constraint rows, a
projected-gradient QP solver, and DSATUR with one integer key per atom.  None
of it shares code paths with the package's structured kernels; the keyed
DSATUR search reads the package's `Atoms` and `max_clique`, and checks only
the oracle's saturation order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from bcsdp.graphs import (
    ConflictGraph,
    TimetablingInstance,
    class_violations,
    counting_bound,
)
from bcsdp.oracle import max_clique
from bcsdp.relax import Atoms, SdpModel, SymRow


def enumerate_chi_m(inst: TimetablingInstance, cap: int | None = None) -> int:
    """Minimum class count over all valid partitions, by full backtracking."""
    n = inst.graph.n
    if n == 0:
        return 0
    adj = inst.graph.adjacency_bitsets()
    weights = [inst.vertex_weight(v) for v in range(n)]
    simple = (
        set(inst.room_capacities) == {max(inst.room_capacities)}
        and inst.feature_count == 0
        and max(inst.event_sizes) <= max(inst.room_capacities)
    )
    pre_of: dict[int, int] = {}
    for idx, cls in enumerate(inst.precolouring):
        for v in cls:
            pre_of[v] = idx
    best = [cap if cap is not None else n]
    classes: list[list[int]] = []
    bits: list[int] = []
    class_w: list[int] = []
    pre_home: dict[int, int] = {}  # pre-class id -> class index

    def feasible(ci: int, v: int) -> bool:
        if bits[ci] & (1 << v):
            return False
        if class_w[ci] + weights[v] > inst.m:
            return False
        if not simple and class_violations(inst, classes[ci] + [v]):
            return False
        return True

    def place(v: int) -> None:
        if len(classes) >= best[0]:
            return
        if v == n:
            best[0] = len(classes)
            return
        home = pre_home.get(pre_of.get(v, -1), None) if v in pre_of else None
        candidates = range(len(classes)) if home is None else [home]
        for ci in candidates:
            if not feasible(ci, v):
                continue
            classes[ci].append(v)
            saved = bits[ci]
            bits[ci] |= adj[v]
            class_w[ci] += weights[v]
            place(v + 1)
            class_w[ci] -= weights[v]
            bits[ci] = saved
            classes[ci].pop()
        if home is None and len(classes) + 1 < best[0]:
            if v in pre_of:
                pre_home[pre_of[v]] = len(classes)
            classes.append([v])
            bits.append(adj[v])
            class_w.append(weights[v])
            place(v + 1)
            classes.pop()
            bits.pop()
            class_w.pop()
            if v in pre_of:
                del pre_home[pre_of[v]]

    place(0)
    return best[0]


def dense_blocks(model: SdpModel):
    """Constraint matrices, right-hand sides and Grams assembled densely."""
    a1 = [row.dense(model.dim) for row in model.eq_graph]
    b1 = np.array([row.rhs for row in model.eq_graph])
    a2 = [row.dense(model.dim) for row in model.eq_other]
    b2 = np.array([row.rhs for row in model.eq_other])
    ineq = model.ineq
    groups = []
    for kind, a, b in model.ineq_groups:
        mats = [row.dense(model.dim) for row in ineq[a:b]]
        rhs = np.array([row.rhs for row in ineq[a:b]])
        groups.append((kind, mats, rhs))
    return a1, b1, a2, b2, groups


def compile_rows(model: SdpModel):
    """(rhs, A, G, ends) as `relax.verify_structure` returns them, compiled
    by walking the model's row views entry by entry: every canonical entry in
    row order, then every mirrored off-diagonal one, as one scipy COO."""
    rows = (*model.eq_graph, *model.eq_other, *model.ineq)
    dim = model.dim
    idx = np.int32 if max(dim * dim, len(rows)) < 2**31 else np.int64
    entries = [(k, i, j, c) for k, row in enumerate(rows)
               for i, j, c in zip(row.idx_i, row.idx_j, row.coeff)]
    mirrored = [(k, j, i, c) for k, i, j, c in entries if i != j]
    data = np.array([c for *_, c in entries + mirrored], dtype=float)
    owner = np.array([k for k, *_ in entries + mirrored], dtype=idx)
    col = np.array([i * dim + j for _, i, j, _ in entries + mirrored], dtype=idx)
    a = scipy.sparse.coo_matrix((data, (owner, col)), shape=(len(rows), dim * dim)).tocsr()
    neq = len(model.eq_graph) + len(model.eq_other)
    ends = [0, len(model.eq_graph), neq, *(neq + b for _, _, b in model.ineq_groups)]
    return np.array([row.rhs for row in rows], dtype=float), a, (a @ a.T).tocsr(), ends


def gram_of(mats) -> np.ndarray:
    k = len(mats)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            out[i, j] = float(np.sum(mats[i] * mats[j]))
    return out


def op_apply(mats, x) -> np.ndarray:
    return np.array([float(np.sum(m * x)) for m in mats])


def adjoint(mats, y) -> np.ndarray:
    if not mats:
        return 0.0
    out = np.zeros_like(mats[0])
    for m, c in zip(mats, y):
        out += c * m
    return out


def dense_y_reference(model: SdpModel, X, y1, y2, v, S, mu):
    """The sequential y1, y2 minimization with dense Grams and numpy solves."""
    a1, b1, a2, b2, groups = dense_blocks(model)
    sign = 1.0 if model.sense == "min" else -1.0
    C = sign * model.objective
    all_ineq = [m for (_, mats, _) in groups for m in mats]
    bv = adjoint(all_ineq, v) if all_ineq else 0.0
    y1_new = y1
    if a1:
        q = adjoint(a2, y2) + bv + S - C
        rhs = mu * (op_apply(a1, X) - b1) + op_apply(a1, q)
        y1_new = -np.linalg.solve(gram_of(a1), rhs)
    y2_new = y2
    if a2:
        q = adjoint(a1, y1_new) + bv + S - C
        rhs = mu * (op_apply(a2, X) - b2) + op_apply(a2, q)
        y2_new = -np.linalg.solve(gram_of(a2), rhs)
    return y1_new, y2_new


def qp_kkt_residual(g: np.ndarray, gram: np.ndarray, mu: float,
                    v: np.ndarray) -> float:
    """Exact stationarity/complementarity residual of the nonnegative QP."""
    grad = g + gram @ v / mu
    res = 0.0
    for i in range(len(v)):
        if v[i] > 1e-12:
            res = max(res, abs(grad[i]))
        else:
            res = max(res, max(0.0, -grad[i]))
    return res


def projected_gradient_qp(g: np.ndarray, gram: np.ndarray, mu: float,
                          iters: int = 200000, tol: float = 1e-13) -> np.ndarray:
    """FISTA on min_{v>=0} g'v + (1/2mu) v'Gram v, run to high precision."""
    k = len(g)
    if k == 0:
        return np.zeros(0)
    lip = float(np.linalg.eigvalsh(gram).max()) / mu + 1e-12
    v = np.zeros(k)
    z = v.copy()
    t = 1.0
    for _ in range(iters):
        grad = g + gram @ z / mu
        v_new = np.maximum(0.0, z - grad / lip)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = v_new + ((t - 1.0) / t_new) * (v_new - v)
        if np.max(np.abs(v_new - v)) < tol and qp_kkt_residual(g, gram, mu, v_new) < 1e-11:
            return v_new
        v, t = v_new, t_new
    return v


def alphabeta_qp_loop(a: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """min_{v>=0} -a'v + (1/2) v'(alpha I + beta J) v by a breakpoint loop.

    The scan visits the sorted breakpoints one at a time and stops at the
    first k whose sum(top k)/(alpha + k beta) keeps exactly the top k
    coordinates positive; sigma = sum(v) is that value, or 0 when none does.
    """
    if beta == 0.0:
        return np.maximum(0.0, a / alpha)
    a_sorted = np.sort(a)[::-1]
    prefix = np.cumsum(a_sorted)
    sigma = 0.0
    for k in range(1, a.size + 1):
        cand = prefix[k - 1] / (alpha + k * beta)
        if a_sorted[k - 1] > beta * cand and (
            k == a.size or a_sorted[k] <= beta * cand
        ):
            sigma = cand
            break
    return np.maximum(0.0, (a - beta * sigma) / alpha)


def dense_v_reference(model: SdpModel, X, y1, y2, v, S, mu):
    """Sequential per-group QP minimization with dense algebra and FISTA."""
    a1, b1, a2, b2, groups = dense_blocks(model)
    sign = 1.0 if model.sense == "min" else -1.0
    C = sign * model.objective
    sizes = [len(g[1]) for g in groups]
    offsets = np.cumsum([0] + sizes)
    v = v.copy()
    base = adjoint(a1, y1) + adjoint(a2, y2) + S - C
    for i, (kind, mats, rhs) in enumerate(groups):
        if not mats:
            continue
        others = np.zeros_like(C)
        for j, (k2, mats2, _) in enumerate(groups):
            if j != i and mats2:
                others = others + adjoint(mats2, v[offsets[j]:offsets[j + 1]])
        q = base + others
        g_lin = op_apply(mats, X) - rhs + op_apply(mats, q) / mu
        gram = gram_of(mats)
        sol = projected_gradient_qp(g_lin, gram, mu)
        v[offsets[i]:offsets[i + 1]] = sol
    return v


def gen_gnp_loop(n: int, p: float, seed: int) -> frozenset[tuple[int, int]]:
    """Reference for graphs.gen_gnp's edges: scan the pairs u < v in
    lexicographic order and keep pair k when the k-th uniform draw is < p."""
    draws = np.random.default_rng(seed).random(n * (n - 1) // 2)
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if draws[k] < p:
                edges.append((u, v))
            k += 1
    return frozenset(edges)


def compact_every_sweep(inst: TimetablingInstance, members, classes):
    """Reference for rounding._compact, scanning for a merge on every sweep.

    The same sweeps over atom classes: sort by (size, atoms), merge the first
    pair that may share a class, else dissolve the first class whose atoms
    all move, first fit, into the other classes.  Each move is tested with
    class_violations on the member events.
    """
    def ok(atom_list):
        return not class_violations(inst, [v for a in atom_list for v in members[a]])

    groups = [sorted(c) for c in classes]
    while True:
        groups.sort(key=lambda g: (len(g), g))
        pair = next(((i, j) for i in range(len(groups)) for j in range(len(groups))
                     if i != j and ok(groups[i] + groups[j])), None)
        if pair is not None:
            i, j = pair
            groups[j] = sorted(groups[j] + groups[i])
            del groups[i]
            continue
        for i in range(len(groups)):
            trial = [list(g) for g in groups]
            for a in groups[i]:
                j = next((j for j, g in enumerate(trial) if j != i and ok(g + [a])),
                         None)
                if j is None:
                    break
                trial[j].append(a)
            else:
                del trial[i]
                groups = [sorted(g) for g in trial]
                break
        else:
            return groups


def descend_loop(inst: TimetablingInstance, members, classes, target: int,
                 budget: int, rng):
    """Reference for rounding._descend, one move at a time in plain loops.

    Atom conflicts come from inst's edges and the class counts and limits
    straight from its weights, sizes, capacities and features (every limit,
    binding or not), so neither the conflict matrix nor ClassCounts is read.
    The moves, their order, the tabu rule and the draws of rng are the
    package's: keep the target largest classes, place the other classes'
    atoms where they add least cost, then take the cheapest allowed
    relocation or exchange of an atom in a conflict or an over-full class.
    """
    k = len(members)
    caps = sorted(set(inst.room_capacities))
    feats = range(inst.feature_count)
    limits = [inst.m, *(sum(1 for r in inst.room_capacities if r > c) for c in caps),
              *(sum(1 for r in range(inst.m) if (r, f) in inst.room_features)
                for f in feats)]
    counts = [[sum(inst.vertex_weight(v) for v in mem),
               *(sum(1 for v in mem if inst.event_sizes[v] > c) for c in caps),
               *(sum(1 for v in mem if (v, f) in inst.event_features) for f in feats)]
              for mem in members]
    adjacent = [[a != b and any(inst.graph.is_edge(u, v) for u in members[a]
                                for v in members[b]) for b in range(k)]
                for a in range(k)]

    def excess(total):
        return sum(max(t - lim, 0) for t, lim in zip(total, limits))

    def plus(total, a, sign=1):
        return [t + sign * c for t, c in zip(total, counts[a])]

    keep = sorted(sorted(range(len(classes)), key=lambda i: -len(classes[i]))[:target])
    cls = [None] * k
    for j, i in enumerate(keep):
        for a in classes[i]:
            cls[a] = j

    def state():
        gamma = [[sum(1 for b in range(k) if cls[b] == j and adjacent[a][b])
                  for j in range(target)] for a in range(k)]
        totals = [[0] * len(limits) for _ in range(target)]
        for a in range(k):
            if cls[a] is not None:
                totals[cls[a]] = plus(totals[cls[a]], a)
        return gamma, totals

    for a in range(k):
        if cls[a] is None:
            gamma, totals = state()
            added = [gamma[a][j] + excess(plus(totals[j], a)) - excess(totals[j])
                     for j in range(target)]
            cls[a] = added.index(min(added))
    gamma, totals = state()
    cost = (sum(gamma[a][cls[a]] for a in range(k)) // 2
            + sum(excess(t) for t in totals))
    best = cost
    tabu = [[0] * target for _ in range(k)]
    swaps = 0
    while cost:
        if swaps == budget:
            return None, swaps
        bad = [a for a in range(k) if gamma[a][cls[a]] or excess(totals[cls[a]])]
        moves = []  # (delta, taboo, [(atom, class), ...])
        for a in bad:
            i = cls[a]
            for j in range(target):
                if j != i:
                    delta = (gamma[a][j] - gamma[a][i]
                             + excess(plus(totals[i], a, -1)) - excess(totals[i])
                             + excess(plus(totals[j], a)) - excess(totals[j]))
                    moves.append((delta, tabu[a][j] > swaps, [(a, j)]))
        for a in bad:
            i = cls[a]
            for b in range(k):
                j = cls[b]
                if j != i:
                    delta = (gamma[a][j] - gamma[a][i] + gamma[b][i] - gamma[b][j]
                             - 2 * adjacent[a][b]
                             + excess(plus(plus(totals[i], a, -1), b)) - excess(totals[i])
                             + excess(plus(plus(totals[j], b, -1), a)) - excess(totals[j]))
                    moves.append((delta, tabu[a][j] > swaps or tabu[b][i] > swaps,
                                  [(a, j), (b, i)]))
        allowed = [mv for mv in moves if not mv[1] or cost + mv[0] < best] or moves
        if not allowed:
            return None, swaps
        low = min(mv[0] for mv in allowed)
        ties = [mv for mv in allowed if mv[0] == low]
        _, _, steps = ties[int(rng.integers(len(ties)))]
        tenure = int(0.6 * len(bad)) + int(rng.integers(10))
        for a, j in steps:
            tabu[a][cls[a]] = swaps + tenure
            cls[a] = j
        swaps += 1
        gamma, totals = state()
        cost = (sum(gamma[a][cls[a]] for a in range(k)) // 2
                + sum(excess(t) for t in totals))
        best = min(best, cost)
    return [c for c in ([a for a in range(k) if cls[a] == j] for j in range(target)) if c], swaps


def theta_rows_by_complement(g: ConflictGraph, variant: str):
    """Reference for relax.build_theta's (eq_graph, pairs) rows, read off the
    complement graph built as a graph of its own: its edges are pinned to
    zero (lovasz, strict) or kept <= 0 (strong), and strict keeps its
    non-edges, g's edges, >= 0."""
    n = g.n
    h = ConflictGraph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                                   if (u, v) not in g.edges))
    h_non = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in h.edges]

    def rows(pairs, coeff):
        return [SymRow((u,), (v,), (coeff,), 0.0) for u, v in pairs]

    eq = rows(sorted(h.edges), 0.5) if variant in ("lovasz", "strict") else []
    pairs = {"lovasz": [], "strict": rows(h_non, 0.5),
             "strong": rows(sorted(h.edges), -0.5)}[variant]
    return eq, pairs


def class_violations_loop(inst: TimetablingInstance, members) -> list[str]:
    """Reference for graphs.class_violations, finding the class's conflicts
    by a loop over each member's sorted neighbour list."""
    neighbours: list[list[int]] = [[] for _ in range(inst.graph.n)]
    for u, v in inst.graph.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    mem = sorted(set(members))
    memset = set(mem)
    out = []
    for v in mem:
        for w in sorted(neighbours[v]):
            if w > v and w in memset:
                out.append(f"edge conflict ({v},{w}) within a class")
    weight = sum(inst.vertex_weight(v) for v in mem)
    if weight > inst.m:
        out.append(f"class weight {weight} exceeds m={inst.m}")
    for c in sorted(set(inst.room_capacities)):
        big = [v for v in mem if inst.event_sizes[v] > c]
        rooms = sum(1 for r in inst.room_capacities if r > c)
        if len(big) > rooms:
            out.append(
                f"{len(big)} events larger than capacity {c} but only "
                f"{rooms} larger rooms"
            )
    for f in range(inst.feature_count):
        need = [v for v in mem if (v, f) in inst.event_features]
        have = sum(1 for r in range(inst.m) if (r, f) in inst.room_features)
        if len(need) > have:
            out.append(
                f"{len(need)} events need feature {f} available in {have} rooms"
            )
    return out


class KeyedDsatur:
    """DSATUR order (Brélaz 1979) kept as one integer key per atom: the
    reference for the oracle's bit-sliced saturation.

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


def keyed_greedy_atoms(atoms: Atoms) -> list[list[int]]:
    """Reference for oracle.greedy_atoms in the keyed DSATUR order."""
    counts = atoms.counts
    order = KeyedDsatur(atoms)
    classes: list[list[int]] = []
    class_mask: list[int] = []
    class_state: list[int] = []
    for _ in range(atoms.k):
        a = order.target()
        for ci, mask in enumerate(class_mask):
            if not mask & (1 << a) and counts.admits(class_state[ci], a):
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


def keyed_search(inst: TimetablingInstance) -> tuple[int, int, list[list[int]]]:
    """Reference for oracle.exact_bounded_chromatic in the keyed DSATUR order,
    with every place undone by a reverse bump: (nodes, chi_m, witness atom
    classes), without a time limit."""
    atoms = Atoms(inst)
    counts = atoms.counts
    best = [keyed_greedy_atoms(atoms)]
    weight_lb = counting_bound(sum(counts.weight), inst.m)
    root_lb = max(weight_lb, max_clique(atoms.graph), 1)
    if root_lb >= len(best[0]):
        return 0, len(best[0]), best[0]
    order = KeyedDsatur(atoms)
    members: list[list[int]] = []
    conflict: list[int] = []
    state: list[int] = []
    nodes = 0

    def place(a: int, ci: int) -> bool:
        if ci == len(members):
            members.append([])
            conflict.append(0)
            state.append(0)
        mask, saved = conflict[ci], state[ci]
        members[ci].append(a)
        conflict[ci] = mask | atoms.adj[a]
        state[ci] = saved + counts.profile[a]
        order.bump(a, mask, 1)
        ok = recurse()
        order.bump(a, mask, -1)
        members[ci].pop()
        conflict[ci], state[ci] = mask, saved
        if not members[ci]:
            members.pop()
            conflict.pop()
            state.pop()
        return ok

    def recurse() -> bool:
        """False once the incumbent reaches root_lb."""
        nonlocal nodes
        nodes += 1
        a = order.target()
        if a < 0:
            if len(members) < len(best[0]):
                best[0] = [list(c) for c in members]
            return len(best[0]) > root_lb
        if max(len(members), weight_lb) >= len(best[0]):
            return True
        for ci in range(len(members)):
            if not conflict[ci] >> a & 1 and counts.admits(state[ci], a):
                if not place(a, ci):
                    return False
        if len(members) + 1 < len(best[0]):
            return place(a, len(members))
        return True

    recurse()
    return nodes, len(best[0]), best[0]
