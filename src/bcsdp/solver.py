"""First-order augmented-Lagrangian (ADMM) solver for SdpModel.

The scheme is that of Wen, Goldfarb & Yin (2010).  One iteration is three
phases, methods of _Compiled: the y phase minimizes y1 then y2 in closed form,
the v phase solves the exact nonnegative QP of each inequality group, and the
S/X phase closes the iteration.  Writing W = C - A1*(y1) - A2*(y2) - B*(v) -
mu X, the S-subproblem is the PSD projection S = proj(W), and the multiplier
step X <- X + (A1*(y1) + A2*(y2) + B*(v) + S - C) / mu collapses to
X = proj(-W)/mu, so one eigendecomposition serves both and keeps X exactly
PSD.  solve() runs the phases in a loop; update_y, update_v and update_sx run
one phase from a given state, so the tests check the code the loop runs.
Progress goes to logging (DEBUG records of the "bcsdp.solver" logger with an
extra "solve" dict), never to stdout.

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

import logging
import math
from dataclasses import dataclass
from itertools import accumulate
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
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolveResult",
    "solve",
    "update_y",
    "update_v",
    "update_sx",
    "extract_bound",
    "initial_matrix",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-5
    max_iter: int = 20000
    mu0: float = 1.0
    mu_adapt: tuple[float, float] = (10.0, 2.0)  # trigger ratio, factor
    warm_start: Optional[Partition] = None

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
    dense/pinv kernels.  The three phase methods are the whole iteration:
    each advances a SolverState, the running dual residual and the per-block
    op(X) - rhs list in place.
    """

    def __init__(self, model: SdpModel):
        self.sign = 1.0 if model.sense == "min" else -1.0
        self.C = self.sign * model.objective.astype(float)
        self.graph = _EqBlock(model.eq_graph, model.dim)
        self.other = _EqBlock(model.eq_other, model.dim)
        spans = list(model.ineq_groups)
        if not spans and model.ineq:
            spans = [("generic", 0, len(model.ineq))]
        self.groups = [_IneqBlock(model.ineq[a:b], model.dim) for _, a, b in spans]
        self.blocks = (self.graph, self.other, *self.groups)
        ends = list(accumulate((g.k for g in self.groups), initial=0))
        self.slices = list(zip(self.groups, ends, ends[1:]))  # (group, start, end) in v
        self.d = np.concatenate([np.zeros(0), *(g.rhs for g in self.groups)])
        self.b_norm = math.sqrt(
            float(np.sum(self.graph.rhs**2))
            + float(np.sum(self.other.rhs**2))
            + float(np.sum(self.d**2))
        )
        self.c_norm = float(np.linalg.norm(self.C))

    @property
    def kernels(self) -> tuple[str, ...]:
        """Kernel kind per block: graph, other, then each inequality group."""
        return tuple(b.kind for b in self.blocks)

    def residual(self, state: SolverState) -> np.ndarray:
        """Dual-constraint residual A1*(y1) + A2*(y2) + B*(v) + S - C."""
        r = state.S - self.C
        r += self.graph.adjoint(state.y1)
        r += self.other.adjoint(state.y2)
        for g, a, b in self.slices:
            r += g.adjoint(state.v[a:b])
        return r

    def op_minus_rhs(self, X: np.ndarray) -> list[np.ndarray]:
        """op(X) - rhs for each block: graph, other, then each group."""
        return [blk.op(X) - blk.rhs for blk in self.blocks]

    def y_phase(self, st: SolverState, resid: np.ndarray, ax: list, mu: float) -> None:
        """Closed-form y1 via the edge-indicator Gram, then y2 via the chain."""
        if self.graph.k:
            st.y1 = _eq_step(self.graph, st.y1, ax[0], resid, mu)
        if self.other.k:
            st.y2 = _eq_step(self.other, st.y2, ax[1], resid, mu)

    def v_phase(self, st: SolverState, resid: np.ndarray, ax: list, mu: float) -> None:
        """Exact nonnegative QP for each inequality group, in sequence."""
        for (g, a, b), lin_x in zip(self.slices, ax[2:]):
            if g.k == 0:
                continue
            old = st.v[a:b]
            lin = lin_x + (g.op(resid) - g.gram_dot(old)) / mu
            new = g.qp(lin, mu)
            resid += g.adjoint(new - old)
            st.v[a:b] = new

    def sx_phase(self, st: SolverState, resid: np.ndarray, ax: list, mu: float) -> None:
        """One eigh of W = C - A*y - B*v - mu X: S = proj(W), X = proj(-W)/mu."""
        w_arg = -(resid - st.S) - mu * st.X
        w_arg = 0.5 * (w_arg + w_arg.T)
        lam, vec = np.linalg.eigh(w_arg)
        S_new = (vec * np.maximum(lam, 0.0)) @ vec.T
        st.X = (vec * (np.maximum(-lam, 0.0) / mu)) @ vec.T
        resid += S_new - st.S
        st.S = S_new
        ax[:] = self.op_minus_rhs(st.X)


def _eq_step(blk: _EqBlock, y: np.ndarray, lin_x: np.ndarray,
             resid: np.ndarray, mu: float) -> np.ndarray:
    """Minimize over one equality block's multipliers; updates resid in place."""
    rhs = mu * lin_x
    rhs += blk.op(resid) - blk.gram_dot(y)
    y_new = -blk.solve(rhs)
    resid += blk.adjoint(y_new - y)
    return y_new


# ---------------------------------------------------------------------------
# one phase from a given state (the solve loop runs the same methods)
# ---------------------------------------------------------------------------


def _run_phase(state: SolverState, model: SdpModel, mu: float, phase) -> SolverState:
    """Run one _Compiled phase on a copy of state, residuals taken fresh."""
    comp = _Compiled(model)
    st = SolverState(*(np.array(a, dtype=float) for a in
                       (state.X, state.y1, state.y2, state.v, state.S)))
    phase(comp, st, comp.residual(st), comp.op_minus_rhs(st.X), mu)
    return st


def update_y(state: SolverState, model: SdpModel, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """y1 via the edge-indicator Gram, then y2 via the chain inverse."""
    st = _run_phase(state, model, mu, _Compiled.y_phase)
    return st.y1, st.y2


def update_v(state: SolverState, model: SdpModel, mu: float) -> np.ndarray:
    """Exact nonnegative QP for each inequality group, in sequence."""
    return _run_phase(state, model, mu, _Compiled.v_phase).v


def update_sx(state: SolverState, model: SdpModel, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(S, X): the PSD projections of W and -W/mu, W = C - A*y - B*v - mu X."""
    st = _run_phase(state, model, mu, _Compiled.sx_phase)
    return st.S, st.X


# ---------------------------------------------------------------------------
# initialization and the main loop
# ---------------------------------------------------------------------------


def initial_matrix(model: SdpModel, sem: Optional[BoundSemantics],
                   warm_start: Optional[Partition]) -> np.ndarray:
    """Feasible-leaning start: block indicator of a colouring when one applies.

    Bounded models: X = t M - J for the warm-start partition's indicator M
    (singleton classes when absent), which satisfies the edge, chain and
    row-sum constraints outright.
    """
    n = model.dim
    if sem is None:
        if model.eq_other and abs(model.eq_other[0].rhs - 1.0) < 1e-12:
            return np.eye(n) / n  # trace-one theta models
        return np.eye(n)
    indicator = np.eye(n)
    t = float(n)
    if warm_start is not None and warm_start.vertex_set() == frozenset(range(n)):
        indicator = np.zeros((n, n))
        for cls in warm_start.classes:
            for u in cls:
                for v in cls:
                    indicator[u, v] = 1.0
        t = float(len(warm_start.classes))
    return t * indicator - np.ones((n, n))


def solve(model: SdpModel, sem: Optional[BoundSemantics] = None,
          cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Run the y, v and S/X phases until residual tolerance or max_iter."""
    cfg = cfg or SolverConfig()
    comp = _Compiled(model)
    mu = cfg.mu0
    ratio, factor = cfg.mu_adapt
    offset = sem.value_offset if sem is not None else 0.0
    st = SolverState(
        X=initial_matrix(model, sem, cfg.warm_start),
        y1=np.zeros(comp.graph.k),
        y2=np.zeros(comp.other.k),
        v=np.zeros(comp.d.size),
        S=project_psd_dense(comp.C.copy()),
    )
    resid = st.S - comp.C
    # op(X) - rhs per block: X changes only in the S/X phase, which refreshes
    # it, so one evaluation serves the residual check and the next y, v steps
    ax = comp.op_minus_rhs(st.X)
    best_seen = math.inf
    status = "max_iter"
    pres = dres = gap = math.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        comp.y_phase(st, resid, ax, mu)
        comp.v_phase(st, resid, ax, mu)
        comp.sx_phase(st, resid, ax, mu)
        peq = float(np.sum(ax[0] ** 2))
        peq += float(np.sum(ax[1] ** 2))
        pineq = 0.0
        for lin_x in ax[2:]:
            pineq += float(np.sum(np.minimum(lin_x, 0.0) ** 2))
        pres = math.sqrt(peq + pineq) / (1.0 + comp.b_norm)
        dres = float(np.linalg.norm(resid)) / (1.0 + comp.c_norm)
        pobj = float(np.sum(comp.C * st.X))
        dobj = float(
            np.dot(comp.graph.rhs, st.y1)
            + np.dot(comp.other.rhs, st.y2)
            + np.dot(comp.d, st.v)
        )
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        worst = max(pres, dres, gap)
        if worst <= cfg.eps:
            status = "converged"
            break
        best_seen = min(best_seen, worst)
        if worst > 1e6 * best_seen and worst > 1.0:
            status = "diverged"
            break
        if it % 200 == 0:
            _log_progress(it, pres, dres, gap, comp.sign * pobj + offset, mu)
        if it % 25 == 0:
            # ADMM on the dual: the split constraint is A*(y)+B*(v)+S = C, so a
            # dominant dual residual calls for a heavier penalty (smaller mu).
            if dres > ratio * pres:
                mu = max(mu / factor, 1e-4)
            elif pres > ratio * dres:
                mu = min(mu * factor, 1e4)
    pobj_user = comp.sign * float(np.sum(comp.C * st.X))
    value = pobj_user + offset
    _log_progress(it, pres, dres, gap, value, mu, status)
    return SolveResult(
        value=value,
        X_final=st.X,
        residuals=(pres, dres, gap),
        iterations=it,
        status=status,
        eps=cfg.eps,
        objective=pobj_user,
        kernels=comp.kernels,
    )


def _log_progress(it: int, pres: float, dres: float, gap: float, value: float,
                  mu: float, status: str = "running") -> None:
    """One DEBUG record; value is in the bound's units (offset included)."""
    if _log.isEnabledFor(logging.DEBUG):
        rec = {"it": it, "pres": pres, "dres": dres, "gap": gap,
               "value": value, "mu": mu}
        _log.debug(
            "solve %s: iter=%d pres=%.3e dres=%.3e gap=%.3e value=%.6f mu=%.2e",
            status, it, pres, dres, gap, value, mu, extra={"solve": rec},
        )


def extract_bound(result: SolveResult, sem: Optional[BoundSemantics]) -> tuple[float, int]:
    """Safeguarded certificate: (value, ceil(value - 10 eps max(1, |value|)))."""
    if result.status == "diverged":
        raise ValueError("cannot certify a diverged solve")
    bound = result.value
    safeguard = 10.0 * result.eps * max(1.0, abs(bound))
    return bound, math.ceil(bound - safeguard)
