"""First-order augmented-Lagrangian (ADMM) solver for SdpModel.

The scheme is that of Wen, Goldfarb & Yin (2010).  One iteration is three
phases, methods of _Compiled: the y phase minimizes y1 then y2 in closed form,
the v phase solves the exact nonnegative QP of each inequality group, and the
S/X phase closes the iteration.  Writing W = C - A1*(y1) - A2*(y2) - B*(v) -
mu X, the S-subproblem is the PSD projection S = proj(W), and the multiplier
step X <- X + (A1*(y1) + A2*(y2) + B*(v) + S - C) / mu collapses to
X = proj(-W)/mu.  Since W = proj(W) - proj(-W), only the smaller eigen-side
of W is built, as one product P = B B' of its r scaled eigenvectors, and the
other side is W + P or P - W.  An S/X step therefore costs one full eigh, or,
once the previous W's smaller side is at most n/10, a dsyevr of +-W for the
eigenpairs in (0, inf] only, plus one n^2 r product.  SolverState.rank carries
W's positive-eigenvalue count from step to step; SolveResult.partial_steps
counts the steps that took dsyevr.  solve() runs the phases in a loop;
update_y, update_v and update_sx run one phase from a given state, so the
tests check the code the loop runs.  Progress goes to logging (DEBUG records
of the "bcsdp.solver" logger with an extra "solve" dict, rank included),
never to stdout.

The penalty mu starts at (1 + ||C||) / (1 + ||b||), the ratio of the norms
that scale the dual and primal residuals, and adapts every 25 iterations.
At exit, on a model whose BoundSemantics carries a trace identity
tr(X) = T <C, X> (every relax._scaled_model), _Compiled.dual_bound turns the
dual iterate into a lower bound on the optimum, SolveResult.lower, which
holds whether or not the solve converged; extract_bound certifies its
ceiling.

Each constraint block (eq_graph, eq_other, each inequality group) is compiled
once, by the one relax.verify_structure call in _Compiled, into a
scipy.sparse CSR A over vec(X) and its sparse Gram G = A A^T: the operator is
A vec(X), the adjoint is A^T y, and G alone chooses the block's kernel, here
and nowhere else, so compile memory is O(nnz).  There are three kernels,
shared by equality blocks (solve G y = r) and inequality groups (the
nonnegative QP).  "diag": G is diagonal and positive (edge-indicator rows); a
per-row divide, or a per-row clamp at zero.  "alphabeta": G = alpha I +
beta J (the anchored diagonal chain has J + I, the row sums alpha I + beta J);
the closed form (r - beta sum(r)/(alpha + k beta))/alpha, or an exact
sorted-breakpoint scan ending in a per-coordinate clamp.  "dense": anything
else; one eigen-factorization of G, which gives the min-norm pseudo-inverse
solve and the factor of an exact active-set NNLS.  SolveResult.kernels names
the kernel of each block ("empty" for a block without rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dsyevr

from . import relax
from .linalg import project_psd_dense
from .relax import BoundSemantics, SdpModel

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

# mu starts at _Compiled.mu0; every 25 iterations it is divided or multiplied
# by _MU_FACTOR when one residual exceeds _MU_RATIO times the other, and it
# stays within [_MU_MIN, _MU_MAX]
_MU_RATIO = 10.0
_MU_FACTOR = 2.0
_MU_MIN = 1e-4
_MU_MAX = 1e4


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-5
    max_iter: int = 20000

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SolverState:
    X: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    v: np.ndarray
    S: np.ndarray
    # W's positive-eigenvalue count at the last S/X step (None before the
    # first); zeros count too when only W's negative side was solved
    rank: Optional[int] = None


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
    partial_steps: int = 0  # S/X steps that took the partial eigensolve
    # the dual lower bound in the bound's units, rounding margin included;
    # None where the model has no trace identity (theta and room models)
    lower: Optional[float] = None


# ---------------------------------------------------------------------------
# compiled operators
# ---------------------------------------------------------------------------


def _gram_equals(gram: scipy.sparse.csr_matrix, diag, off: float,
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


class _Block:
    """One constraint block: its rhs, its CSR A over vec(X) and its kernel.

    op(X) = A vec(X) and the adjoint is A^T y reshaped to n x n.  The Gram
    G = A A^T picks the kernel ("diag", "alphabeta" or "dense", see the
    module docstring); equality blocks call solve, inequality groups qp.
    """

    def __init__(self, dim: int, rhs: np.ndarray, A: scipy.sparse.csr_matrix,
                 gram: scipy.sparse.csr_matrix):
        self.k = rhs.size
        self.dim = dim
        self.rhs = rhs
        self.A = A
        self.At = A.T  # a CSC view of the same arrays, made once
        self.kind = "empty"
        if self.k == 0:
            return
        diag = gram.diagonal()
        if np.all(diag > 0) and _gram_equals(gram, diag, 0.0):
            self.kind = "diag"
            self.diag = diag
            return
        beta = float(gram[0, 1]) if self.k > 1 else 0.0
        alpha = float(diag[0]) - beta
        if alpha > 0 and beta >= 0 and _gram_equals(gram, alpha + beta, beta):
            self.kind = "alphabeta"
            self.alpha, self.beta = alpha, beta
            return
        self.kind = "dense"
        self.gram = gram.toarray()
        w, vec = np.linalg.eigh(self.gram)
        keep = w > 1e-11 * max(float(w.max()), 1.0)
        self._lam = w[keep]
        self._vec = vec[:, keep]

    def op(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return (self.At @ y).reshape(self.dim, self.dim)

    def gram_dot(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "diag":
            return self.diag * y
        if self.kind == "alphabeta":
            return self.alpha * y + self.beta * np.sum(y)
        return self.gram @ y

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Min-norm solution of G y = r: exact when G is nonsingular."""
        if self.kind == "diag":
            return r / self.diag
        if self.kind == "alphabeta":
            shift = self.beta * np.sum(r) / (self.alpha + self.k * self.beta)
            return (r - shift) / self.alpha
        return self._vec @ ((self._vec.T @ r) / self._lam)

    def qp(self, g: np.ndarray, mu: float) -> np.ndarray:
        """argmin over v >= 0 of g'v + (1/2mu) v' G v, solved exactly."""
        a = -mu * g
        if self.kind == "diag":
            return np.maximum(0.0, a / self.diag)
        if self.kind == "alphabeta":
            return _alphabeta_qp(a, self.alpha, self.beta)
        sq = np.sqrt(self._lam)
        A = (sq[:, None] * self._vec.T) / math.sqrt(mu)
        b = -math.sqrt(mu) * (self._vec.T @ g) / sq
        # nnls is this kernel's only use of scipy.optimize, which costs about
        # 0.2 s to import; bounded and KMS runs never take this kernel
        from scipy.optimize import nnls

        v, _ = nnls(A, b)
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

    Memory is O(nnz) plus the dense Gram and eigen-factor of blocks that
    take the "dense" kernel; "diag" and "alphabeta" keep O(k) numbers.  The
    three phase methods are the whole iteration:
    each advances a SolverState, the running dual residual and the per-block
    op(X) - rhs list in place.
    """

    def __init__(self, model: SdpModel):
        self.sign = 1.0 if model.sense == "min" else -1.0
        self.C = self.sign * model.objective.astype(float)
        # through the module attribute, so a wrapper set on relax sees the call
        graph, other, *groups = relax.verify_structure(model)
        self.graph = _Block(model.dim, *graph)
        self.other = _Block(model.dim, *other)
        self.groups = [_Block(model.dim, *g) for g in groups]
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
        self.mu0 = min(max((1.0 + self.c_norm) / (1.0 + self.b_norm), _MU_MIN), _MU_MAX)

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

    def dual_bound(self, st: SolverState, trace: float, offset: float) -> float:
        """offset plus a lower bound on <C, X> over feasible X, from y and v >= 0.

        Z = C - A*(y) - B*(v) gives <C, X> >= b'y + d'v + lam_min(Z) tr(X),
        and on a model where every feasible X has tr(X) = trace * <C, X>,
        <C, X> >= (b'y + d'v) / (1 - trace * min(0, lam_min(Z))).  Z is formed
        afresh rather than from the loop's running residual.  The margin
        stands in for directed rounding (Jansson, Chaykin & Keil 2007): with
        K the rows plus the order, a bound on the terms any computed sum
        holds, it takes every sum, dot product and eigenvalue to be off by
        at most 2 K u times the magnitudes it sums (their Frobenius norm for
        the eigenvalue), u the unit roundoff.
        """
        n = self.C.shape[0]
        Z = self.C.copy()
        mag = np.abs(self.C)
        dobj = dmag = 0.0
        terms = ((self.graph, st.y1), (self.other, st.y2),
                 *((g, st.v[a:b]) for g, a, b in self.slices))
        for blk, y in terms:
            Z -= blk.adjoint(y)
            mag += (abs(blk.At) @ np.abs(y)).reshape(n, n)
            dobj += float(np.dot(blk.rhs, y))
            dmag += float(np.dot(np.abs(blk.rhs), np.abs(y)))
        lam = float(np.linalg.eigvalsh(0.5 * (Z + Z.T))[0])
        K = sum(blk.k for blk in self.blocks) + n
        tol = K * float(np.finfo(float).eps)  # 2 K u, the unit roundoff u = eps / 2
        lam -= tol * float(np.linalg.norm(mag))
        dobj -= tol * dmag
        bound = dobj / (1.0 - trace * min(0.0, lam))
        return offset + bound - tol * (abs(offset) + abs(bound))

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

    def sx_phase(self, st: SolverState, resid: np.ndarray, ax: list, mu: float) -> bool:
        """S = proj(W), X = proj(-W)/mu from the smaller eigen-side of W.

        W = C - A*y - B*v - mu X = P+ - P-, so with P = B B' built from the r
        eigenpairs of the smaller side (B = V_r sqrt(lam_r)) the other side
        is exact subtraction: S = P, X = (P - W)/mu, or X = P/mu, S = W + P.
        When the previous W's smaller side was at most n/10, dsyevr returns
        every eigenpair of +-W in (0, inf], so the projection stays exact
        whatever the count turns out to be; otherwise one full eigh.  Cost:
        eigh, or dsyevr on the smaller side, plus one n^2 r product.  Sets
        st.rank to W's positive-eigenvalue count and returns whether the
        partial eigensolve ran.
        """
        w = -(resid - st.S) - mu * st.X
        w = 0.5 * (w + w.T)
        n = w.shape[0]
        partial = st.rank is not None and min(st.rank, n - st.rank) <= n / 10
        if partial:
            positive = st.rank <= n - st.rank
            # w is symmetric, so w.T is the same matrix in LAPACK's column order
            lam, vec, count, _, info = dsyevr(
                w.T if positive else -w.T, range="V", vl=0.0, vu=np.inf,
                overwrite_a=not positive,
            )
            if info != 0:
                raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
            lam, vec = lam[:count], vec[:, :count]
            st.rank = count if positive else n - count
        else:
            lam, vec = np.linalg.eigh(w)
            npos = int(np.count_nonzero(lam > 0.0))
            nneg = int(np.count_nonzero(lam < 0.0))
            positive = npos <= nneg
            if positive:
                lam, vec = lam[n - npos:], vec[:, n - npos:]
            else:
                lam, vec = -lam[:nneg], vec[:, :nneg]
            st.rank = npos
        half = vec * np.sqrt(lam)
        proj = half @ half.T
        if positive:
            S_new = proj
            st.X = np.subtract(proj, w, out=w)
        else:
            S_new = np.add(w, proj, out=w)
            st.X = proj
        st.X /= mu
        resid += S_new - st.S
        st.S = S_new
        ax[:] = self.op_minus_rhs(st.X)
        return partial


def _eq_step(blk: _Block, y: np.ndarray, lin_x: np.ndarray,
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
                       (state.X, state.y1, state.y2, state.v, state.S)),
                     rank=state.rank)
    phase(comp, st, comp.residual(st), comp.op_minus_rhs(st.X), mu)
    return st


def update_y(state: SolverState, model: SdpModel, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """y1 via the edge-indicator Gram, then y2 via the chain inverse."""
    st = _run_phase(state, model, mu, _Compiled.y_phase)
    return st.y1, st.y2


def update_v(state: SolverState, model: SdpModel, mu: float) -> np.ndarray:
    """Exact nonnegative QP for each inequality group, in sequence."""
    return _run_phase(state, model, mu, _Compiled.v_phase).v


def update_sx(state: SolverState, model: SdpModel,
              mu: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(S, X, rank): the PSD projections of W and -W/mu, W = C - A*y - B*v - mu X.

    state.rank picks the eigensolver as in solve(); the returned rank is the
    one the next step reads.
    """
    st = _run_phase(state, model, mu, _Compiled.sx_phase)
    return st.S, st.X, st.rank


# ---------------------------------------------------------------------------
# initialization and the main loop
# ---------------------------------------------------------------------------


def initial_matrix(model: SdpModel, sem: Optional[BoundSemantics]) -> np.ndarray:
    """The start point: X0 = n I - J for bounded models, a scaled identity else.

    n I - J is t M - J for the singleton colouring (t = n classes, M = I), so
    it satisfies the edge, chain and row-sum constraints outright.  The first
    W is then close to -mu X0, which is negative off the all-ones direction,
    so W's smaller (positive) side is small from the first step and every
    later S/X step takes the partial eigensolve.
    """
    n = model.dim
    if sem is None:
        if model.eq_other and abs(model.eq_other[0].rhs - 1.0) < 1e-12:
            return np.eye(n) / n  # trace-one theta models
        return np.eye(n)
    return n * np.eye(n) - np.ones((n, n))


def solve(model: SdpModel, sem: Optional[BoundSemantics] = None,
          cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Run the y, v and S/X phases until residual tolerance or max_iter."""
    cfg = cfg or SolverConfig()
    comp = _Compiled(model)
    mu = comp.mu0
    offset = sem.value_offset if sem is not None else 0.0
    st = SolverState(
        X=initial_matrix(model, sem),
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
    it = partial_steps = 0
    for it in range(1, cfg.max_iter + 1):
        comp.y_phase(st, resid, ax, mu)
        comp.v_phase(st, resid, ax, mu)
        partial_steps += comp.sx_phase(st, resid, ax, mu)
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
            _log_progress(it, pres, dres, gap, comp.sign * pobj + offset, mu,
                          st.rank)
        if it % 25 == 0:
            # ADMM on the dual: the split constraint is A*(y)+B*(v)+S = C, so a
            # dominant dual residual calls for a heavier penalty (smaller mu).
            if dres > _MU_RATIO * pres:
                mu = max(mu / _MU_FACTOR, _MU_MIN)
            elif pres > _MU_RATIO * dres:
                mu = min(mu * _MU_FACTOR, _MU_MAX)
    pobj_user = comp.sign * float(np.sum(comp.C * st.X))
    value = pobj_user + offset
    lower = None
    if sem is not None and sem.trace_ratio is not None and status != "diverged":
        lower = comp.dual_bound(st, sem.trace_ratio, offset)
    _log_progress(it, pres, dres, gap, value, mu, st.rank, status)
    return SolveResult(
        value=value,
        X_final=st.X,
        residuals=(pres, dres, gap),
        iterations=it,
        status=status,
        eps=cfg.eps,
        objective=pobj_user,
        kernels=comp.kernels,
        partial_steps=partial_steps,
        lower=lower,
    )


def _log_progress(it: int, pres: float, dres: float, gap: float, value: float,
                  mu: float, rank: Optional[int], status: str = "running") -> None:
    """One DEBUG record; value is in the bound's units (offset included).

    rank is the last W's positive-eigenvalue count, so a solve whose smaller
    side never falls to n/10 (never reaching the partial eigensolve) shows.
    """
    if _log.isEnabledFor(logging.DEBUG):
        rec = {"it": it, "pres": pres, "dres": dres, "gap": gap,
               "value": value, "mu": mu, "rank": rank}
        _log.debug(
            "solve %s: iter=%d pres=%.3e dres=%.3e gap=%.3e value=%.6f mu=%.2e "
            "rank=%s", status, it, pres, dres, gap, value, mu, rank,
            extra={"solve": rec},
        )


def extract_bound(result: SolveResult, sem: Optional[BoundSemantics]) -> tuple[float, int]:
    """(value, certified): the primal value and an integer lower bound.

    Where the solve carries a dual bound (result.lower, set on models with a
    trace identity), certified is ceil(result.lower), a lower bound on every
    feasible objective whether or not the solve converged.  Elsewhere (theta
    and room models) it is the safeguarded ceil(value - 10 eps max(1, |value|)),
    which holds only near convergence.
    """
    if result.status == "diverged":
        raise ValueError("cannot certify a diverged solve")
    bound = result.value
    if result.lower is not None:
        return bound, math.ceil(result.lower)
    safeguard = 10.0 * result.eps * max(1.0, abs(bound))
    return bound, math.ceil(bound - safeguard)
