"""First-order augmented-Lagrangian (ADMM) solver for SdpModel.

Per iteration the dual blocks are minimized in turn (y1, y2, each inequality
group of v, then S) and the primal X takes the multiplier step

    X <- X + (A1*(y1) + A2*(y2) + B*(v) + S - C) / mu.

Writing W = C - A1*(y1) - A2*(y2) - B*(v) - mu X, the S-subproblem is the PSD
projection S = proj(W) and the X step collapses to X = proj(-W)/mu, so one
eigendecomposition per iteration serves both and keeps X exactly PSD.

Each constraint block (eq_graph, eq_other, each inequality group) is compiled
once into a scipy.sparse CSR A over vec(X): the operator is A vec(X), the
adjoint is A^T y, and the sparse Gram A A^T chooses the block's kernel, so
compile memory is O(nnz).  Structured kernels replace dense linear algebra
where that Gram has the structure: a scaled identity (edge-indicator
equalities; a scalar divide, or a per-row clamp for inequalities), J + I (the
anchored diagonal chain, closed-form inverse I - J/n, checked numerically
with a dense fallback), and alpha I + beta J (row-sum inequality groups, whose
nonnegative QP is solved exactly by a sorted-breakpoint scan ending in a
per-coordinate clamp at zero).  Anything else falls back to cached dense
factorizations of the Gram and an exact active-set NNLS.  SolveResult.kernels
names the kernel chosen for each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .graphs import Partition
from .linalg import project_psd_dense
from .relax import (
    BoundSemantics,
    SdpModel,
    SymRow,
    constraint_matrix,
    gram_equals,
    gram_matrix,
    verify_structure,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolveResult",
    "solve",
    "update_y",
    "update_v",
    "update_s",
    "update_x",
    "extract_bound",
    "initial_matrix",
]


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-5
    max_iter: int = 20000
    mu0: float = 1.0
    mu_adapt: tuple[float, float] = (10.0, 2.0)  # trigger ratio, factor
    warm_start: Optional[Partition] = None
    verbose: int = 0
    debug: bool = False

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mu0 <= 0:
            raise ValueError("mu0 must be positive")


@dataclass
class SolverState:
    X: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    v: np.ndarray
    S: np.ndarray
    iteration: int = 0


@dataclass(frozen=True)
class SolveResult:
    value: float
    X_final: np.ndarray
    residuals: tuple[float, float, float]  # primal, dual, gap
    iterations: int
    status: str  # converged | max_iter | diverged
    eps: float
    objective: float  # raw objective <C, X> in the model's sense
    kernels: tuple[str, ...] = ()  # kernel kind per block: graph, other, groups


# ---------------------------------------------------------------------------
# compiled operators
# ---------------------------------------------------------------------------


class _Block:
    """One constraint block compiled once into a CSR A over vec(X).

    op(X) = A vec(X), the adjoint is A^T y reshaped to n x n, and the Gram
    matrix A A^T that picks the block's kernel is read from the same matrix.
    """

    def __init__(self, rows: Sequence[SymRow], dim: int):
        self.k = len(rows)
        self.dim = dim
        self.rhs = np.array([r.rhs for r in rows], dtype=float)
        self.A = constraint_matrix(rows, dim)
        self.At = self.A.T  # a CSC view of the same arrays, made once
        self.kind = "empty"

    def op(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return (self.At @ y).reshape(self.dim, self.dim)


class _EqBlock(_Block):
    """Equality block with an exact solve of Gram * y = rhs."""

    def __init__(self, rows: Sequence[SymRow], dim: int):
        super().__init__(rows, dim)
        if self.k == 0:
            return
        gram = gram_matrix(self.A)
        scale = float(gram[0, 0])
        if scale > 0 and gram_equals(gram, scale, 0.0):
            self.kind = "scaled_identity"
            self.scale = scale
            return
        k = self.k
        if gram_equals(gram, 2.0, 1.0):
            # J + I: verify the closed-form inverse I - J/(k+1) numerically
            inv = np.eye(k) - np.ones((k, k)) / (k + 1)
            if np.max(np.abs(gram @ inv - np.eye(k))) <= 1e-10:
                self.kind = "chain"
                self._chain_n = k + 1
                return
        self.gram = gram.toarray()
        try:
            self._cho = scipy.linalg.cho_factor(self.gram)
            self.kind = "dense"
        except np.linalg.LinAlgError:
            # dependent rows: fall back to the min-norm (pseudoinverse) solve
            w, vec = np.linalg.eigh(self.gram)
            keep = w > 1e-11 * max(float(w.max()), 1.0)
            self._pinv_vec = vec[:, keep]
            self._pinv_lam = w[keep]
            self.kind = "pinv"

    def gram_dot(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "scaled_identity":
            return self.scale * y
        if self.kind == "chain":
            return y + np.sum(y)
        if self.kind in ("dense", "pinv"):
            return self.gram @ y
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.kind == "scaled_identity":
            return rhs / self.scale
        if self.kind == "chain":
            return rhs - np.sum(rhs) / self._chain_n
        if self.kind == "pinv":
            proj = self._pinv_vec.T @ rhs
            return self._pinv_vec @ (proj / self._pinv_lam)
        return scipy.linalg.cho_solve(self._cho, rhs)


class _IneqBlock(_Block):
    """One inequality group with its exact nonnegative-QP kernel."""

    def __init__(self, rows: Sequence[SymRow], dim: int):
        super().__init__(rows, dim)
        if self.k == 0:
            return
        gram = gram_matrix(self.A)
        diag = gram.diagonal()
        if gram_equals(gram, diag, 0.0):
            self.kind = "diag"
            self.diag = diag
            return
        beta = float(gram[0, 1])
        alpha = float(gram[0, 0]) - beta
        if gram_equals(gram, alpha + beta, beta) and alpha > 0 and beta >= 0:
            self.kind = "alphabeta"
            self.alpha, self.beta = alpha, beta
            return
        self.kind = "dense"
        self.gram = gram.toarray()
        w, vec = np.linalg.eigh(self.gram)
        keep = w > 1e-11 * max(float(w.max()), 1.0)
        self._lam = w[keep]
        self._vec = vec[:, keep]

    def gram_dot(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "diag":
            return self.diag * v
        if self.kind == "alphabeta":
            return self.alpha * v + self.beta * np.sum(v)
        if self.kind == "dense":
            return self.gram @ v
        return v

    def qp(self, g: np.ndarray, mu: float) -> np.ndarray:
        """argmin over v >= 0 of g'v + (1/2mu) v' Gram v, solved exactly."""
        a = -mu * g
        if self.kind == "diag":
            return np.maximum(0.0, a / self.diag)
        if self.kind == "alphabeta":
            return _alphabeta_qp(a, self.alpha, self.beta)
        sq = np.sqrt(self._lam)
        A = (sq[:, None] * self._vec.T) / math.sqrt(mu)
        b = -math.sqrt(mu) * (self._vec.T @ g) / sq
        v, _ = scipy.optimize.nnls(A, b)
        return v


def _alphabeta_qp(a: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Exact solution of min_{v>=0} -a'v + (1/2) v'(alpha I + beta J) v.

    For fixed sigma = sum(v) the optimum clamps coordinate-wise,
    v_i = max(0, (a_i - beta sigma)/alpha); sigma is the unique root of the
    decreasing consistency map, located by scanning sorted breakpoints.
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


class _Compiled:
    """One CSR per constraint block, with the kernel its sparse Gram selects.

    Memory is O(nnz) plus the dense Gram of blocks that fall back to the
    dense/pinv kernels.
    """

    def __init__(self, model: SdpModel, debug: bool = False):
        self.model = model
        self.sign = 1.0 if model.sense == "min" else -1.0
        self.C = self.sign * model.objective.astype(float)
        self.graph = _EqBlock(model.eq_graph, model.dim)
        self.other = _EqBlock(model.eq_other, model.dim)
        spans = list(model.ineq_groups)
        if not spans and model.ineq:
            spans = [("generic", 0, len(model.ineq))]
        self.groups = [_IneqBlock(model.ineq[a:b], model.dim) for _, a, b in spans]
        self.d = (
            np.concatenate([g.rhs for g in self.groups])
            if self.groups
            else np.zeros(0)
        )
        self.b_norm = math.sqrt(
            float(np.sum(self.graph.rhs**2))
            + float(np.sum(self.other.rhs**2))
            + float(np.sum(self.d**2))
        )
        self.c_norm = float(np.linalg.norm(self.C))
        if debug:
            actual = verify_structure(model)
            for name in (
                "a1_edge_indicator",
                "a2_diagonal_chain",
                "b_row_sum",
                "objective_single_entry",
            ):
                if getattr(model.structure, name) and not getattr(actual, name):
                    raise AssertionError(f"structure flag {name} set but identity fails")

    @property
    def kernels(self) -> tuple[str, ...]:
        """Kernel kind per block: graph, other, then each inequality group."""
        return tuple(b.kind for b in (self.graph, self.other, *self.groups))

    def group_slices(self):
        out = []
        start = 0
        for g in self.groups:
            out.append((g, start, start + g.k))
            start += g.k
        return out

    def residual(self, state: SolverState) -> np.ndarray:
        """Dual-constraint residual A1*(y1) + A2*(y2) + B*(v) + S - C."""
        r = state.S - self.C
        r += self.graph.adjoint(state.y1)
        r += self.other.adjoint(state.y2)
        for g, a, b in self.group_slices():
            r += g.adjoint(state.v[a:b])
        return r


_COMPILE_CACHE: dict[int, tuple[SdpModel, "_Compiled"]] = {}


def _compiled(model: SdpModel) -> _Compiled:
    hit = _COMPILE_CACHE.get(id(model))
    if hit is not None and hit[0] is model:
        return hit[1]
    comp = _Compiled(model)
    if len(_COMPILE_CACHE) > 64:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[id(model)] = (model, comp)
    return comp


# ---------------------------------------------------------------------------
# the four block updates
# ---------------------------------------------------------------------------


def _y_steps(comp: _Compiled, X, y1, y2, v_adj_resid, mu):
    """Closed-form y1 then y2 minimization; returns new values and deltas."""
    resid = v_adj_resid
    y1_new = y1
    if comp.graph.k:
        rhs = mu * (comp.graph.op(X) - comp.graph.rhs)
        rhs += comp.graph.op(resid) - comp.graph.gram_dot(y1)
        y1_new = -comp.graph.solve(rhs)
        resid = resid + comp.graph.adjoint(y1_new - y1)
    y2_new = y2
    if comp.other.k:
        rhs = mu * (comp.other.op(X) - comp.other.rhs)
        rhs += comp.other.op(resid) - comp.other.gram_dot(y2)
        y2_new = -comp.other.solve(rhs)
    return y1_new, y2_new


def update_y(state: SolverState, model: SdpModel, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """y1 via the edge-indicator Gram, then y2 via the chain inverse."""
    comp = _compiled(model)
    resid = comp.residual(state)
    return _y_steps(comp, state.X, state.y1, state.y2, resid, mu)


def update_v(state: SolverState, model: SdpModel, mu: float) -> np.ndarray:
    """Exact nonnegative QP for each inequality group, in sequence."""
    comp = _compiled(model)
    resid = comp.residual(state)
    v = state.v.copy()
    for g, a, b in comp.group_slices():
        if g.k == 0:
            continue
        old = v[a:b]
        lin = g.op(state.X) - g.rhs
        lin += (g.op(resid) - g.gram_dot(old)) / mu
        new = g.qp(lin, mu)
        resid += g.adjoint(new - old)
        v[a:b] = new
    return v


def update_s(state: SolverState, model: SdpModel, mu: float) -> np.ndarray:
    """S = PSD projection of C - A1*(y1) - A2*(y2) - B*(v) - mu X."""
    comp = _compiled(model)
    resid = comp.residual(state)
    w_arg = -(resid - state.S) - mu * state.X
    return project_psd_dense(w_arg)


def update_x(state: SolverState, model: SdpModel, mu: float) -> np.ndarray:
    """Multiplier step X + (A1*(y1) + A2*(y2) + B*(v) + S - C)/mu."""
    comp = _compiled(model)
    return state.X + comp.residual(state) / mu


# ---------------------------------------------------------------------------
# initialization and the main loop
# ---------------------------------------------------------------------------


def initial_matrix(model: SdpModel, sem: Optional[BoundSemantics],
                   warm_start: Optional[Partition]) -> np.ndarray:
    """Feasible-leaning start: block indicator of a colouring when one applies.

    Scaled transform: X = t M - J for the warm-start partition's indicator M
    (singleton classes when absent), which satisfies the edge, chain and
    row-sum constraints outright.
    """
    dim = model.dim
    if sem is None:
        if model.eq_other and abs(model.eq_other[0].rhs - 1.0) < 1e-12:
            return np.eye(dim) / dim  # trace-one theta models
        return np.eye(dim)
    n = dim if sem.transform == "scaled" else dim // 2
    indicator = np.eye(n)
    t = float(n)
    if warm_start is not None and warm_start.vertex_set() == frozenset(range(n)):
        indicator = np.zeros((n, n))
        for cls in warm_start.classes:
            for u in cls:
                for v in cls:
                    indicator[u, v] = 1.0
        t = float(len(warm_start.classes))
    if sem.transform == "scaled":
        out = t * indicator - np.ones((n, n))
        if dim > n:  # room-assignment models carry extra blocks
            full = np.zeros((dim, dim))
            full[:n, :n] = out
            return full
        return out
    out = np.zeros((dim, dim))
    out[:n, :n] = t * indicator
    out[n:, n:] = t * indicator - np.ones((n, n))
    return out


def solve(model: SdpModel, sem: Optional[BoundSemantics] = None,
          cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Iterate y -> v -> S -> X until residual tolerance or max_iter."""
    cfg = cfg or SolverConfig()
    comp = _Compiled(model, debug=cfg.debug)
    mu = cfg.mu0
    ratio, factor = cfg.mu_adapt
    X = initial_matrix(model, sem, cfg.warm_start)
    y1 = np.zeros(comp.graph.k)
    y2 = np.zeros(comp.other.k)
    v = np.zeros(sum(g.k for g in comp.groups))
    S = project_psd_dense(comp.C.copy())
    resid = S - comp.C
    slices = comp.group_slices()
    blocks = (comp.graph, comp.other, *comp.groups)
    # op(X) - rhs per block: X changes only at the projection, so the values
    # taken for one iteration's residual check serve the next y and v steps
    ax = [blk.op(X) - blk.rhs for blk in blocks]
    best_seen = math.inf
    status = "max_iter"
    pres = dres = gap = math.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        if comp.graph.k:
            rhs = mu * ax[0]
            rhs += comp.graph.op(resid) - comp.graph.gram_dot(y1)
            y1_new = -comp.graph.solve(rhs)
            resid += comp.graph.adjoint(y1_new - y1)
            y1 = y1_new
        if comp.other.k:
            rhs = mu * ax[1]
            rhs += comp.other.op(resid) - comp.other.gram_dot(y2)
            y2_new = -comp.other.solve(rhs)
            resid += comp.other.adjoint(y2_new - y2)
            y2 = y2_new
        for (g, a, b), lin_x in zip(slices, ax[2:]):
            if g.k == 0:
                continue
            old = v[a:b]
            lin = lin_x + (g.op(resid) - g.gram_dot(old)) / mu
            new = g.qp(lin, mu)
            resid += g.adjoint(new - old)
            v[a:b] = new
        w_arg = -(resid - S) - mu * X
        w_arg = 0.5 * (w_arg + w_arg.T)
        lam, vec = np.linalg.eigh(w_arg)
        S_new = (vec * np.maximum(lam, 0.0)) @ vec.T
        X = (vec * (np.maximum(-lam, 0.0) / mu)) @ vec.T
        resid += S_new - S
        S = S_new
        ax = [blk.op(X) - blk.rhs for blk in blocks]
        peq = float(np.sum(ax[0] ** 2))
        peq += float(np.sum(ax[1] ** 2))
        pineq = 0.0
        for lin_x in ax[2:]:
            pineq += float(np.sum(np.minimum(lin_x, 0.0) ** 2))
        pres = math.sqrt(peq + pineq) / (1.0 + comp.b_norm)
        dres = float(np.linalg.norm(resid)) / (1.0 + comp.c_norm)
        pobj = float(np.sum(comp.C * X))
        dobj = float(
            np.dot(comp.graph.rhs, y1)
            + np.dot(comp.other.rhs, y2)
            + np.dot(comp.d, v)
        )
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        worst = max(pres, dres, gap)
        if cfg.verbose and it % max(1, 200 // cfg.verbose) == 0:
            print(
                f"iter={it} pres={pres:.3e} dres={dres:.3e} gap={gap:.3e} "
                f"obj={comp.sign * pobj:.6f} mu={mu:.2e}"
            )
        if worst <= cfg.eps:
            status = "converged"
            break
        best_seen = min(best_seen, worst)
        if worst > 1e6 * best_seen and worst > 1.0:
            status = "diverged"
            break
        if it % 25 == 0:
            # ADMM on the dual: the split constraint is A*(y)+B*(v)+S = C, so a
            # dominant dual residual calls for a heavier penalty (smaller mu).
            if dres > ratio * pres:
                mu = max(mu / factor, 1e-4)
            elif pres > ratio * dres:
                mu = min(mu * factor, 1e4)
    pobj_user = comp.sign * float(np.sum(comp.C * X))
    value = pobj_user + (sem.value_offset if sem is not None else 0.0)
    return SolveResult(
        value=value,
        X_final=X,
        residuals=(pres, dres, gap),
        iterations=it,
        status=status,
        eps=cfg.eps,
        objective=pobj_user,
        kernels=comp.kernels,
    )


def extract_bound(result: SolveResult, sem: Optional[BoundSemantics]) -> tuple[float, int]:
    """Safeguarded certificate: (value, ceil(value - 10 eps max(1, |value|)))."""
    if result.status == "diverged":
        raise ValueError("cannot certify a diverged solve")
    bound = result.value
    safeguard = 10.0 * result.eps * max(1.0, abs(bound))
    return bound, math.ceil(bound - safeguard)
