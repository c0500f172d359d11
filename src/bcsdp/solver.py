"""First-order augmented-Lagrangian (ADMM) solver for SdpModel.

The scheme is that of Wen, Goldfarb & Yin (2010).  The multipliers are one
vector y in row order, equality rows first, so A*(y) spans every row and
the inequality multipliers are y's tail.  One iteration is two phases,
methods of _Compiled: the multiplier phase passes over the blocks in row
order, minimizing each equality block's multipliers in closed form and
solving the exact nonnegative QP of each inequality group, and the S/X phase
closes the iteration.  Writing W = C - A*(y) - mu X, the S-subproblem is the
PSD projection S = proj(W), and the multiplier step
X <- X + (A*(y) + S - C) / mu collapses to X = proj(-W)/mu.  Since
W = proj(W) - proj(-W), only one eigen-side of W is built, as one product
P = B B' of its r scaled eigenvectors, and the other side is W + P or P - W.
The side that was smaller at the previous step (SolverState.rank carries W's
positive-eigenvalue count; the positive side on the first step) picks the
eigensolver: while it is at most _DSYEVR_SIDE n, dsyevr on +-W returns the
eigenpairs in (0, inf] only, which is exact whatever their count; past that,
one full eigh is cheaper.  When that side had rank 1 and n is at least
_RANK1_MIN_N, _rank1_side first tries a short Lanczos run warm-started from
the previous side, and keeps its eigenpair only when one Cholesky
factorization certifies that +-W has no other eigenvalue >= 0; a refusal
runs dsyevr on the same W, so every step stays exact.

At desk scale (n near 45, a few hundred rows) the LAPACK call is about half
of a step, so the rest is kept to a few vector operations per block.  The
multiplier phase works in place on y and on r, which it first turns into
u = mu ax + r: on a block's rows of u, a "diag" or
"alphabeta" equality block solves t = G^-1 u in place and sets y -= t, a
"diag" group sets y -= min(y, G^-1 u), an "alphabeta" group runs its scan,
and each block then corrects the later rows of u by one sparse product with
its coupling.  The S/X phase builds W in a copy of C
(the adjoint kernel adds A^T(-y) into it, one daxpy subtracts mu X), runs
the rank-1 Lanczos, dsyevr or eigh, forms P as an outer product when the side
has rank 1 (most steps) and as B B' otherwise, writes X+ - X into the old X's
buffer and accumulates op(X+) into a copy of -rhs.  The residual check is
three dot products.  SolveResult.stats totals each phase's perf_counter time
and counts the S/X steps of each eigensolver path.

The same identity gives the dual residual for free: after an S/X step,
A*(y) + S - C = S - W - mu X = mu (X+ - X).  So the loop keeps no n x n
residual.  It keeps r = op(A*(y) + S - C), the residual seen through every
constraint row, which the S/X step sets to mu (ax+ - ax) with
ax = op(X) - rhs, and which each block update of the multiplier phase
corrects through its Gram coupling to the later blocks.  The dual residual
norm is mu ||X+ - X||.  solve() runs the phases in a loop;
update_multipliers and update_sx run one phase from a given state, whose r
is formed afresh, so the tests check the code the loop runs.  Progress goes
to logging (DEBUG records of the "bcsdp.solver" logger with an extra "solve"
dict, rank included, and the phase times on the exit record), never to
stdout.

The penalty mu starts at (1 + ||C||) / (1 + ||b||), the ratio of the norms
that scale the dual and primal residuals, and adapts every 25 iterations.
At exit, on a model that carries a trace identity tr(X) = T <C, X>
(SdpModel.trace_ratio, set on every relax._scaled_model),
_Compiled.dual_bound turns the dual iterate into a lower bound on the
optimum, SolveResult.lower, which holds whether or not the solve converged;
extract_bound certifies its ceiling.

The constraint rows (eq_graph, eq_other, then each inequality group) are
compiled once, by the one relax.verify_structure call in _Compiled, from the
model's COO records (relax.Coo; the solver never reads a row view), into one
scipy.sparse CSR A over vec(X), stacked in that block order, and its sparse
Gram G = A A^T: the operator is A vec(X), the adjoint is A^T y (a CSC view),
and each block's diagonal Gram block alone chooses its kernel, here and
nowhere else.  A block reads that Gram block off the stored entries of its
rows of G, and its coupling to the later blocks off G's later rows, without
slicing G, so compile memory is O(nnz).  There are three kernels, shared
by equality blocks (solve G y = r) and inequality groups (the nonnegative QP).
"diag": G is diagonal and positive (edge-indicator rows); a per-row divide,
or a per-row clamp at zero.  "alphabeta": G = alpha I + beta J (the anchored
diagonal chain has J + I, the row sums alpha I + beta J); the closed form
(r - beta sum(r)/(alpha + k beta))/alpha, or an exact sorted-breakpoint scan
ending in a per-coordinate clamp.  "dense": anything else; one
eigen-factorization of G, which gives the min-norm pseudo-inverse solve and
the factor of an exact active-set NNLS.  SolveResult.kernels names the kernel
of each block ("empty" for a block without rows).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy, dsyr
from scipy.linalg.lapack import dpotrf, dstev, dsyevr
from scipy.sparse import _sparsetools

from . import relax
from .linalg import project_psd_dense
from .relax import SdpModel

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolveResult",
    "solve",
    "update_multipliers",
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

# dsyevr on one side of W costs more with each eigenpair it returns; once the
# previous step's smaller side is above this share of n, one full eigh of W is
# cheaper (timed at one thread on n = 16-160: the crossover falls from about
# 0.3 n at n = 24 to 0.13-0.19 n from n = 45 on).  A side of rank 1 tries
# _rank1_side first from n = _RANK1_MIN_N on.
_DSYEVR_SIDE = 1 / 6

# _rank1_side's time over dsyevr's on the rank-1 steps of bounded G(n, 1/2)
# solves, refused steps charged both (one thread, best of 9 per step): 1.36 at
# n = 64, 0.85-0.99 at n = 80, 0.67 at n = 96-100, 0.56 at n = 120 and 0.37 at
# n = 160, where dsyevr takes about 550 us.  Below this order its Python
# overhead outweighs the saved tridiagonalisation, so every smaller solve
# keeps the dsyevr path bit for bit.
_RANK1_MIN_N = 96
# Lanczos steps before _rank1_side refuses, and the step from which it tests
# the Ritz pair (warm-started runs converge in 6-12 steps at n = 64-160)
_LANCZOS_STEPS = 16
_LANCZOS_FIRST_TEST = 5


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
    y: np.ndarray  # one multiplier per constraint row, in row order
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
    kernels: tuple[str, ...] = ()  # kernel kind per block: graph, other, groups
    # the dual lower bound in the bound's units, rounding margin included;
    # None where the model has no trace identity (theta and room models)
    lower: Optional[float] = None
    # perf_counter seconds: compile_s (_Compiled), then totals over the
    # iterations of multiplier_s (the multiplier phase), eig_s (the S/X
    # phase's eigensolves), sx_s (the rest of the S/X phase) and check_s
    # (the residual and gap check); then the S/X steps per eigensolver path,
    # which add up to iterations: rank1_steps (certified by _rank1_side),
    # refused_steps (_rank1_side refused, dsyevr ran), dsyevr_steps and
    # eigh_steps
    stats: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# compiled operators
# ---------------------------------------------------------------------------


class _Matvec:
    """x -> a @ x for a CSR or CSC matrix a, given by its arrays, through the C
    kernel that scipy's own product calls (csr_matvec or csc_matvec), without
    the Python dispatch around it, which costs more than the product at desk
    scale.  The kernel adds a @ x into out (a zeroed vector when out is None,
    which gives a @ x bit for bit).  The kernels are private to scipy, so
    tests/test_solver.py pins their use."""

    __slots__ = ("_args", "_kernel", "_rows")

    def __init__(self, fmt: str, shape: tuple[int, int], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        self._kernel = getattr(_sparsetools, fmt + "_matvec")
        self._rows = shape[0]
        self._args = (*shape, indptr, indices, data)

    @classmethod
    def of(cls, a: scipy.sparse.spmatrix) -> "_Matvec":
        return cls(a.format, a.shape, a.indptr, a.indices, a.data)

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.zeros(self._rows)
        self._kernel(*self._args, x, out)
        return out


class _Block:
    """One constraint block: rows start:end of the stacked A, its kernel, its coupling.

    gram is the stacked Gram G (a Gram whose rows start:end are this block's
    serves too).  The block reads its diagonal Gram block off the stored
    entries of those rows, without slicing G; it picks the kernel ("diag",
    "alphabeta" or "dense", see the module docstring) and is kept only by the
    "dense" kernel.  coupling applies G[end:, start:end] (None when it has no
    entries), read off G's rows from end on: a change dy of this block's
    multipliers moves the later blocks' entries of r by coupling(dy).
    Equality blocks take eq_step, inequality groups qp_step; both update y
    and the multiplier phase's working vector in place.
    """

    def __init__(self, start: int, end: int, gram: scipy.sparse.csr_matrix):
        self.rows = slice(start, end)
        self.k = k = end - start
        self.coupling = None
        self.kind = "empty"
        if k == 0:
            return
        self.coupling = _coupling(gram, start, end)
        ptr, idx, val = gram.indptr, gram.indices, gram.data
        lo, hi = ptr[start], ptr[end]
        cols, vals = idx[lo:hi], val[lo:hi]
        own = np.repeat(np.arange(start, end, dtype=idx.dtype), np.diff(ptr[start:end + 1]))
        on = cols == own
        diag = np.zeros(k)
        diag[own[on] - start] = vals[on]
        inside = (cols >= start) & (cols < end)
        inside &= ~on
        off = vals[inside]
        tol = 1e-12
        if np.all(diag > 0) and np.all(np.abs(off) <= tol):
            self.kind = "diag"
            self.diag = diag
            return
        first = np.flatnonzero(cols[:ptr[start + 1] - lo] == start + 1)
        beta = float(vals[first[0]]) if first.size else 0.0
        alpha = float(diag[0]) - beta
        # the entries not stored are zero, so beta > tol needs all k(k-1)
        if (alpha > 0 and beta >= 0 and np.all(np.abs(diag - (alpha + beta)) <= tol)
                and np.all(np.abs(off - beta) <= tol)
                and (beta <= tol or off.size == k * (k - 1))):
            self.kind = "alphabeta"
            self.alpha, self.beta = alpha, beta
            self._shift = beta / (alpha + k * beta)
            self._den = alpha + np.arange(1, k + 1) * beta
            return
        self.kind = "dense"
        self.gram = np.zeros((k, k))
        inside |= on
        self.gram[own[inside] - start, cols[inside] - start] = vals[inside]
        w, vec = np.linalg.eigh(self.gram)
        keep = w > 1e-11 * max(float(w.max()), 1.0)
        self._lam = w[keep]
        self._vec = vec[:, keep]

    def gram_dot(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "diag":
            return self.diag * y
        if self.kind == "alphabeta":
            return self.alpha * y + self.beta * y.sum()
        return self.gram @ y

    def solve(self, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Min-norm solution of G y = r: exact when G is nonsingular.

        "diag" and "alphabeta" write it into out when given (out may be r).
        """
        if self.kind == "diag":
            return np.divide(r, self.diag, out=out)
        if self.kind == "alphabeta":
            out = np.subtract(r, self._shift * float(r.sum()), out=out)
            out /= self.alpha
            return out
        return self._vec @ ((self._vec.T @ r) / self._lam)

    def qp(self, g: np.ndarray, mu: float) -> np.ndarray:
        """argmin over v >= 0 of g'v + (1/2mu) v' G v on a "dense" group:
        an exact active-set NNLS on the eigen-factor of G."""
        sq = np.sqrt(self._lam)
        A = (sq[:, None] * self._vec.T) / math.sqrt(mu)
        b = -math.sqrt(mu) * (self._vec.T @ g) / sq
        # nnls is this kernel's only use of scipy.optimize, which costs about
        # 0.2 s to import; bounded and KMS runs never take this kernel
        from scipy.optimize import nnls

        v, _ = nnls(A, b)
        return v

    def eq_step(self, y: np.ndarray, u: np.ndarray, mu: float) -> None:
        """y <- the minimizing multipliers -G^+(u - G y), in place.

        u is the multiplier phase's working vector mu ax + r.  A nonsingular
        G gives the step t = G^-1 u, solved in place in u's own rows (no
        later block reads them), and y -= t; the "dense" kernel keeps the
        min-norm form.
        """
        v = y[self.rows]
        t = u[self.rows]
        if self.kind == "dense":
            new = -self.solve(t - self.gram_dot(v))
            t = np.subtract(v, new)
            v[:] = new
        else:
            self.solve(t, out=t)
            v -= t
        self._couple(t, u)

    def qp_step(self, y: np.ndarray, u: np.ndarray, mu: float) -> None:
        """y <- the exact nonnegative QP for this group's multipliers, in place.

        The QP is min over v >= 0 of -a'v + (1/2) v' G v with a = G y - u,
        u = mu ax + r as in eq_step.  On "diag" it is a clamp,
        v = y - min(y, G^-1 u); on "alphabeta" it is _alphabeta_qp's scan,
        and on "dense" the NNLS of qp.
        """
        v = y[self.rows]
        t = u[self.rows]
        if self.kind == "diag":
            self.solve(t, out=t)
            np.minimum(t, v, out=t)
            v -= t
        else:
            if self.kind == "alphabeta":
                a = self.gram_dot(v)
                a -= t
                new = _alphabeta_qp(a, self.alpha, self.beta, self._den)
            else:
                new = self.qp((t - self.gram_dot(v)) / mu, mu)
            t = np.subtract(v, new)
            v[:] = new
        self._couple(t, u)

    def _couple(self, t: np.ndarray, u: np.ndarray) -> None:
        """The later rows of u after this block's multipliers fell by t."""
        if self.coupling is not None:
            tail = u[self.rows.stop:]
            tail -= self.coupling(t)


def _coupling(gram: scipy.sparse.csr_matrix, start: int, end: int) -> Optional[_Matvec]:
    """G[end:, start:end] as a CSR product, read off the stored entries of G's
    rows from end on (None when it has none)."""
    ptr, idx = gram.indptr, gram.indices
    hi, top = ptr[end], ptr[-1]
    cols = idx[hi:]
    keep = (cols >= start) & (cols < end)
    if not keep.any():
        return None
    kept = np.zeros(top - hi + 1, dtype=idx.dtype)  # kept entries before each one
    np.cumsum(keep, out=kept[1:])
    return _Matvec("csr", (gram.shape[0] - end, end - start), kept[ptr[end:] - hi],
                   cols[keep] - np.asarray(start, idx.dtype), gram.data[hi:][keep])


def _alphabeta_qp(a: np.ndarray, alpha: float, beta: float,
                  den: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact solution of min_{v>=0} -a'v + (1/2) v'(alpha I + beta J) v.

    For fixed sigma = sum(v) the optimum clamps coordinate-wise,
    v_i = max(0, (a_i - beta sigma)/alpha); sigma is the unique root of the
    decreasing consistency map, at the first sorted breakpoint k whose
    candidate sum(top k of a)/(alpha + k beta) keeps exactly the top k
    coordinates positive (zero when none does).  den holds the denominators
    alpha + k beta, k = 1..a.size, when the caller keeps them.
    """
    if beta == 0.0:
        return np.maximum(0.0, a / alpha)
    if den is None:
        den = alpha + np.arange(1, a.size + 1) * beta
    a_sorted = np.sort(a)[::-1]
    cand = a_sorted.cumsum() / den
    bound = beta * cand
    hit = a_sorted > bound
    hit[:-1] &= a_sorted[1:] <= bound[:-1]
    k = int(hit.argmax())
    sigma = cand[k] if hit[k] else 0.0
    return np.maximum(0.0, (a - beta * sigma) / alpha)


def _rank1_side(w: np.ndarray, positive: bool,
                start: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """(lam, u) with lam u u' the projection onto the PSD cone of A = W
    (positive) or -W, certified to have rank 1; None when it is not.

    A Lanczos run on W from start, with full reorthogonalisation, keeps the
    extreme Ritz pair of its tridiagonal (the largest for W, the smallest for
    -W), tested from step _LANCZOS_FIRST_TEST on by its residual estimate
    beta_k |s_k|.  A breakdown (beta_k at round-off) passes that test with
    an exact Ritz pair of an invariant subspace, which need not hold A's
    positive eigenvalue; the checks below catch it.  The unit Ritz vector u
    and its Rayleigh quotient lam are kept only when ||A u - lam u|| is
    within 2 n eps ||W||_F (eps the machine epsilon), lam > 0, and dpotrf
    factors M = 2 lam u u' - A.  M is -A plus a rank-1 PSD term, so if A
    had two eigenvalues >= 0, M would have one <= 0 by interlacing.  Any
    refusal (a zero start, no convergence within _LANCZOS_STEPS, lam <= 0,
    or dpotrf's info != 0) returns None.  w is left as it is.
    """
    n = w.shape[0]
    tol = 2.0 * n * float(np.finfo(float).eps) * float(np.linalg.norm(w))
    norm = math.sqrt(float(start @ start))
    if not norm > 0.0:
        return None
    q = np.empty((_LANCZOS_STEPS, n))  # the Lanczos basis, one vector per row
    np.divide(start, norm, out=q[0])
    alpha, beta = np.empty(_LANCZOS_STEPS), np.empty(_LANCZOS_STEPS)
    z = np.empty(n)
    pick = -1 if positive else 0
    for k in range(1, _LANCZOS_STEPS + 1):
        np.dot(w, q[k - 1], out=z)
        basis = q[:k]
        h = basis @ z
        z -= h @ basis  # the three-term recurrence and full reorthogonalisation
        alpha[k - 1] = h[-1]
        b = beta[k - 1] = math.sqrt(float(z @ z))
        if k >= _LANCZOS_FIRST_TEST or b <= tol:
            # dstev takes one off-diagonal entry at k = 1 and does not read it
            _, s, info = dstev(alpha[:k], beta[:max(k - 1, 1)])
            if info != 0:
                return None
            if b * abs(s[-1, pick]) <= tol:
                break
        if k < _LANCZOS_STEPS:
            np.divide(z, b, out=q[k])
    else:
        return None
    u = s[:, pick] @ q[:k]
    u /= math.sqrt(float(u @ u))
    np.dot(w, u, out=z)
    lam = float(u @ z)
    z -= lam * u
    if not positive:
        lam = -lam
    if not (math.sqrt(float(z @ z)) <= tol and lam > 0.0):
        return None
    # M in the lower triangle of LAPACK's column order, which is w.T's
    m = dsyr(2.0 * lam, u, lower=1, a=np.multiply(w, -1.0 if positive else 1.0).T,
             overwrite_a=1)
    if dpotrf(m, lower=1, clean=0, overwrite_a=1)[1] != 0:
        return None
    return lam, u


class _Compiled:
    """One stacked CSR over every constraint row, and one _Block per block.

    Memory is O(nnz): A, its Gram couplings, and the dense Gram and
    eigen-factor of blocks that take the "dense" kernel; "diag" and
    "alphabeta" keep O(k) numbers.  The two phase methods are the whole
    iteration: each advances a SolverState and the stacked vectors r (the
    dual residual seen through the rows) and ax (op(X) - rhs) in place.
    """

    def __init__(self, model: SdpModel):
        self.sign = 1.0 if model.sense == "min" else -1.0
        C = self.sign * model.objective.astype(float)
        self.C = 0.5 * (C + C.T)  # exactly C when the objective is symmetric
        # through the module attribute, so a wrapper set on relax sees the call
        self.rhs, self.A, gram, ends = relax.verify_structure(model)
        self.neg_rhs = -self.rhs
        self.At = self.A.T  # a CSC view of the same arrays
        self.op, self.op_t = _Matvec.of(self.A), _Matvec.of(self.At)
        self.blocks = tuple(_Block(a, b, gram) for a, b in zip(ends, ends[1:]))
        self._steps = tuple(b.eq_step if b.rows.stop <= ends[2] else b.qp_step
                            for b in self.blocks if b.k)
        self.eig_s = 0.0  # perf_counter total of the S/X phase's eigensolves
        # S/X steps per eigensolver path (SolveResult.stats' *_steps)
        self.steps = dict.fromkeys(("rank1", "refused", "dsyevr", "eigh"), 0)
        self.neq = ends[2]  # equality rows come first
        self.b_norm = math.sqrt(float(np.sum(self.rhs**2)))
        self.c_norm = float(np.linalg.norm(self.C))
        self.mu0 = min(max((1.0 + self.c_norm) / (1.0 + self.b_norm), _MU_MIN), _MU_MAX)

    @property
    def kernels(self) -> tuple[str, ...]:
        """Kernel kind per block: graph, other, then each inequality group."""
        return tuple(b.kind for b in self.blocks)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        n = self.C.shape[0]
        return self.op_t(y).reshape(n, n)

    def residual(self, st: SolverState) -> tuple[np.ndarray, np.ndarray]:
        """(r, ax) formed afresh: r = op(A*(y) + S - C), ax = op(X) - rhs."""
        resid = st.S - self.C + self.adjoint(st.y)
        return self.op(resid.ravel()), self.op(st.X.ravel()) - self.rhs

    def dual_bound(self, st: SolverState, trace: float, offset: float) -> float:
        """offset plus a lower bound on <C, X> over feasible X, from y.

        With y's inequality tail >= 0, Z = C - A*(y) gives
        <C, X> >= b'y + lam_min(Z) tr(X), and on a model where every feasible
        X has tr(X) = trace * <C, X>,
        <C, X> >= b'y / (1 - trace * min(0, lam_min(Z))).  The margin
        stands in for directed rounding (Jansson, Chaykin & Keil 2007): with
        K the rows plus the order, a bound on the terms any computed sum
        holds, it takes every sum, dot product and eigenvalue to be off by
        at most 2 K u times the magnitudes it sums (their Frobenius norm for
        the eigenvalue), u the unit roundoff.
        """
        n = self.C.shape[0]
        y = st.y
        Z = self.C - self.adjoint(y)  # exactly symmetric, as W is
        abs_at = scipy.sparse.csc_matrix((np.abs(self.At.data), self.At.indices,
                                          self.At.indptr), shape=self.At.shape)
        mag = np.abs(self.C) + (abs_at @ np.abs(y)).reshape(n, n)
        dobj = float(np.dot(self.rhs, y))
        dmag = float(np.dot(np.abs(self.rhs), np.abs(y)))
        lam = float(np.linalg.eigvalsh(Z)[0])
        K = self.rhs.size + n
        tol = K * float(np.finfo(float).eps)  # 2 K u, the unit roundoff u = eps / 2
        lam -= tol * float(np.linalg.norm(mag))
        dobj -= tol * dmag
        bound = dobj / (1.0 - trace * min(0.0, lam))
        return offset + bound - tol * (abs(offset) + abs(bound))

    def multiplier_phase(self, st: SolverState, r: np.ndarray, ax: np.ndarray,
                         mu: float) -> None:
        """Each block's multipliers in row order, as one Gauss-Seidel pass.

        Equality blocks (edge indicators, then the other equalities) take the
        closed-form minimizer, inequality groups the exact nonnegative QP.
        The pass turns r into its working vector u = mu ax + r in place
        (ax is fixed during the pass), and each block corrects u's later rows
        through its coupling; the S/X phase then sets r afresh.
        """
        r += mu * ax
        for step in self._steps:
            step(st.y, r, mu)

    def sx_phase(self, st: SolverState, r: np.ndarray, ax: np.ndarray, mu: float) -> float:
        """S = proj(W), X = proj(-W)/mu from the smaller eigen-side of W.

        W = C - A*y - mu X = P+ - P-, so with P = B B' built from the r
        eigenpairs of one side (B = V_r sqrt(lam_r)) the other side is exact
        subtraction: S = P, X = (P - W)/mu, or X = P/mu, S = W + P.  While the
        previous step's smaller side (st.rank; the positive side when None) is
        at most _DSYEVR_SIDE n, dsyevr returns every eigenpair of +-W in
        (0, inf] on that side, exact whatever their count; a side of rank 1
        at n >= _RANK1_MIN_N tries _rank1_side first, warm-started from the
        largest-diagonal column of S (of X on the negative side).  Otherwise
        one full eigh picks the smaller side.  Cost: one adjoint, the
        eigensolve, one n^2 r product (an outer product at r = 1) and one
        operator.  Sets st.rank to W's positive-eigenvalue count, sets r to
        mu (ax+ - ax) and ax to ax+, counts the step's path in self.steps,
        and returns the dual residual norm mu ||X+ - X||.
        """
        # W is exactly symmetric when X is: C is, each row of A holds a whole
        # symmetric matrix whose mirrored entries add up in the same order,
        # and proj below is a symmetric rank-r product
        w = self.C.copy()
        flat = w.reshape(-1)
        self.op_t(-st.y, out=flat)
        daxpy(st.X.reshape(-1), flat, a=-mu)  # in place: flat is contiguous
        n = w.shape[0]
        clock = time.perf_counter()
        # before the first step there is no count: dsyevr on W's positive side
        positive = st.rank is None or st.rank <= n - st.rank
        side = 0 if st.rank is None else min(st.rank, n - st.rank)
        path = "dsyevr" if side <= _DSYEVR_SIDE * n else "eigh"
        if side == 1 and n >= _RANK1_MIN_N:
            last = st.S if positive else st.X  # the previous side, lam u u'
            pair = _rank1_side(w, positive, last[:, int(np.argmax(np.diagonal(last)))])
            path = "refused" if pair is None else "rank1"
        if path == "rank1":
            lam, vec = np.array([pair[0]]), pair[1][:, None]
            st.rank = 1 if positive else n - 1
        elif path != "eigh":
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
        self.eig_s += time.perf_counter() - clock
        self.steps[path] += 1
        if lam.size == 1:
            half = vec[:, 0] * math.sqrt(lam[0])
            proj = np.multiply.outer(half, half)
        else:
            half = vec * np.sqrt(lam)
            proj = half @ half.T
        if positive:
            st.S, X = proj, np.subtract(proj, w, out=w)
        else:
            st.S, X = np.add(w, proj, out=w), proj
        X /= mu
        step = np.subtract(X, st.X, out=st.X).reshape(-1)  # the old X's buffer
        st.X = X
        ax_new = self.op(X.reshape(-1), out=self.neg_rhs.copy())
        np.subtract(ax_new, ax, out=r)
        r *= mu
        ax[:] = ax_new
        return mu * math.sqrt(float(step @ step))


# ---------------------------------------------------------------------------
# one phase from a given state (the solve loop runs the same methods)
# ---------------------------------------------------------------------------


def _run_phase(state: SolverState, model: SdpModel, mu: float, phase) -> SolverState:
    """Run one _Compiled phase on a copy of state, r and ax formed afresh."""
    comp = _Compiled(model)
    st = SolverState(*(np.array(a, dtype=float) for a in (state.X, state.y, state.S)),
                     rank=state.rank)
    phase(comp, st, *comp.residual(st), mu)
    return st


def update_multipliers(state: SolverState, model: SdpModel, mu: float) -> np.ndarray:
    """y after one pass over the blocks in row order (see multiplier_phase)."""
    return _run_phase(state, model, mu, _Compiled.multiplier_phase).y


def update_sx(state: SolverState, model: SdpModel,
              mu: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(S, X, rank): the PSD projections of W and -W/mu, W = C - A*y - mu X.

    state.rank picks the eigen-side and state.S or state.X warm-starts a
    rank-1 side, as in solve(); the returned rank is the one the next step
    reads.  X is symmetrized first, as the loop's X is.
    """
    state = replace(state, X=0.5 * (state.X + state.X.T))
    st = _run_phase(state, model, mu, _Compiled.sx_phase)
    return st.S, st.X, st.rank


# ---------------------------------------------------------------------------
# initialization and the main loop
# ---------------------------------------------------------------------------


def initial_matrix(model: SdpModel) -> np.ndarray:
    """The start point: X0 = n I - J for bounded models, a scaled identity else.

    A bounded model (value_offset 1) is stated over the shifted X = Y - J,
    and n I - J is t M - J for the singleton colouring (t = n classes,
    M = I), so it satisfies the edge, chain and row-sum constraints outright.
    The first W is then close to -mu X0, which is negative off the all-ones
    direction, so the first S/X step's dsyevr on W's positive side finds few
    eigenpairs.

    A model that states trace_one_start (the theta models, whose trace row
    fixes tr(X) = 1) starts at I/n, of trace one; any other at I.
    """
    n = model.dim
    if model.value_offset:
        return n * np.eye(n) - np.ones((n, n))
    if model.trace_one_start:
        return np.eye(n) / n
    return np.eye(n)


def solve(model: SdpModel, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Run the multiplier and S/X phases until residual tolerance or max_iter."""
    cfg = cfg or SolverConfig()
    clock = time.perf_counter()
    comp = _Compiled(model)
    compile_s = time.perf_counter() - clock
    mu = comp.mu0
    offset = model.value_offset
    st = SolverState(
        X=initial_matrix(model),
        y=np.zeros(comp.rhs.size),
        S=project_psd_dense(comp.C.copy()),
    )
    # r = op(S0 - C) and ax = op(X0) - rhs; from then on the S/X phase sets
    # both, so one evaluation serves the residual check and the next
    # multiplier phase
    r, ax = comp.residual(st)
    c_flat = comp.C.reshape(-1)
    best_seen = math.inf
    status = "max_iter"
    pres = dres = gap = math.inf
    it = 0
    # perf_counter totals per phase: [multiplier, S/X, residual check]
    phase_s = [0.0, 0.0, 0.0]
    now = time.perf_counter()
    for it in range(1, cfg.max_iter + 1):
        comp.multiplier_phase(st, r, ax, mu)
        clock, now = now, time.perf_counter()
        phase_s[0] += now - clock
        dres = comp.sx_phase(st, r, ax, mu) / (1.0 + comp.c_norm)
        clock, now = now, time.perf_counter()
        phase_s[1] += now - clock
        eq, ineq = ax[:comp.neq], np.minimum(ax[comp.neq:], 0.0)
        pres = math.sqrt(float(eq @ eq) + float(ineq @ ineq)) / (1.0 + comp.b_norm)
        pobj = float(c_flat @ st.X.reshape(-1))
        dobj = float(comp.rhs @ st.y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        worst = max(pres, dres, gap)
        clock, now = now, time.perf_counter()
        phase_s[2] += now - clock
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
            # ADMM on the dual: the split constraint is A*(y)+S = C, so a
            # dominant dual residual calls for a heavier penalty (smaller mu).
            if dres > _MU_RATIO * pres:
                mu = max(mu / _MU_FACTOR, _MU_MIN)
            elif pres > _MU_RATIO * dres:
                mu = min(mu * _MU_FACTOR, _MU_MAX)
        now = time.perf_counter()
    value = comp.sign * float(np.sum(comp.C * st.X)) + offset
    lower = None
    if model.trace_ratio is not None and status != "diverged":
        lower = comp.dual_bound(st, model.trace_ratio, offset)
    stats = {"compile_s": compile_s, "multiplier_s": phase_s[0],
             "eig_s": comp.eig_s, "sx_s": phase_s[1] - comp.eig_s,
             "check_s": phase_s[2],
             **{f"{path}_steps": count for path, count in comp.steps.items()}}
    _log_progress(it, pres, dres, gap, value, mu, st.rank, status, stats)
    return SolveResult(
        value=value,
        X_final=st.X,
        residuals=(pres, dres, gap),
        iterations=it,
        status=status,
        eps=cfg.eps,
        kernels=comp.kernels,
        lower=lower,
        stats=stats,
    )


def _log_progress(it: int, pres: float, dres: float, gap: float, value: float,
                  mu: float, rank: Optional[int], status: str = "running",
                  stats: Optional[dict[str, float]] = None) -> None:
    """One DEBUG record; value is in the bound's units (offset included).

    rank is the last W's positive-eigenvalue count, so a solve whose smaller
    eigen-side stays above _DSYEVR_SIDE n (each step a full eigh) shows.  The
    exit record also carries the solve's phase times and its S/X step counts
    per eigensolver path (SolveResult.stats), so a refused rank-1 step
    shows, in its text and as its "solve_stats" attribute.
    """
    if _log.isEnabledFor(logging.DEBUG):
        extra = {"solve": {"it": it, "pres": pres, "dres": dres, "gap": gap,
                           "value": value, "mu": mu, "rank": rank}}
        text = ("solve %s: iter=%d pres=%.3e dres=%.3e gap=%.3e value=%.6f mu=%.2e "
                "rank=%s")
        if stats is not None:
            extra["solve_stats"] = stats
            text += "".join(f" {k}={v:.4f}" if isinstance(v, float) else f" {k}={v}"
                            for k, v in stats.items())
        _log.debug(text, status, it, pres, dres, gap, value, mu, rank, extra=extra)


def extract_bound(result: SolveResult) -> tuple[float, int]:
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
