import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsdp.graphs import (
    TimetablingInstance,
    complete_graph,
    empty_graph,
    gen_forbidden_intersection,
    gen_gnp,
    gen_kneser,
)
from bcsdp.linalg import project_psd_dense
from bcsdp.oracle import exact_bounded_chromatic
from bcsdp.relax import (
    Coo,
    SdpModel,
    SymRow,
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
    constraint_matrix,
    gram_matrix,
    verify_structure,
)
from bcsdp.solver import (
    SolveResult,
    SolverConfig,
    SolverState,
    extract_bound,
    initial_matrix,
    solve,
    update_multipliers,
    update_sx,
    _RANK1_MIN_N,
    _LANCZOS_FIRST_TEST,
    _Block,
    _Compiled,
    _alphabeta_qp,
    _rank1_side,
)

from _reference import (
    adjoint,
    alphabeta_qp_loop,
    dense_blocks,
    dense_v_reference,
    dense_y_reference,
    gram_of,
    projected_gradient_qp,
    qp_kkt_residual,
)
from conftest import reduced_model


def fresh_state(model):
    s0 = project_psd_dense(
        (model.objective if model.sense == "min" else -model.objective).copy()
    )
    rows = len(model.eq_graph) + len(model.eq_other) + len(model.ineq)
    return SolverState(X=initial_matrix(model), y=np.zeros(rows), S=s0)


def parts(model, y):
    """y split as (y1, y2, v): the eq_graph, eq_other and ineq multipliers."""
    a = len(model.eq_graph)
    b = a + len(model.eq_other)
    return y[:a], y[a:b], y[b:]


def randomized_state(model, seed):
    rng = np.random.default_rng(seed)
    st = fresh_state(model)
    a = rng.standard_normal((model.dim, model.dim))
    st.X = project_psd_dense(0.5 * (a + a.T))
    st.y = np.concatenate((
        rng.standard_normal(len(model.eq_graph)),
        rng.standard_normal(len(model.eq_other)),
        np.abs(rng.standard_normal(len(model.ineq))),
    ))
    b = rng.standard_normal((model.dim, model.dim))
    st.S = project_psd_dense(0.5 * (b + b.T))
    return st


class TestAnalyticValues:
    def test_complete_k5_m1(self):
        model = build_bounded(complete_graph(5), 1)
        res = solve(model, SolverConfig())
        assert res.status == "converged"
        assert res.value == pytest.approx(5.0, abs=1e-3)

    def test_empty_graph_block_value(self):
        model = build_bounded(empty_graph(10), 2)
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(5.0, abs=1e-3)

    def test_c5_theta(self, c5):
        res = solve(build_theta(c5, "lovasz"), SolverConfig())
        assert res.value == pytest.approx(math.sqrt(5.0), abs=1e-3)

    def test_empty_graph_theta_all_variants(self):
        for variant in ("lovasz", "strict", "strong"):
            res = solve(build_theta(empty_graph(4), variant), SolverConfig())
            assert res.value == pytest.approx(1.0, abs=1e-3), variant

    def test_theta_k2_colouring_side(self):
        res = solve(build_theta(complete_graph(2), "lovasz"), SolverConfig())
        assert res.value == pytest.approx(2.0, abs=1e-3)


class TestUpdateFormulas:
    def test_zero_residual_keeps_y(self, p3):
        model = build_bounded(p3, 2)
        st = fresh_state(model)  # dual-feasible start: S = C, y = 0
        y1, y2, _ = parts(model, update_multipliers(st, model, 1.0))
        assert np.allclose(y1, 0.0, atol=1e-14)
        assert np.allclose(y2, 0.0, atol=1e-14)

    def test_y_matches_dense_reference(self):
        for seed in range(4):
            g = gen_gnp(6, 0.5, seed)
            model = build_bounded(g, 2)
            st = randomized_state(model, seed)
            y1, y2, _ = parts(model, update_multipliers(st, model, 0.7))
            ry1, ry2 = dense_y_reference(model, st.X, *parts(model, st.y), st.S, 0.7)
            assert np.max(np.abs(y1 - ry1)) <= 1e-10
            assert np.max(np.abs(y2 - ry2)) <= 1e-10

    def test_v_matches_reference_and_kkt(self):
        for seed in range(4):
            g = gen_gnp(6, 0.5, seed + 10)
            model = build_bounded(g, 3)
            st = randomized_state(model, seed)
            # the v step of the pass reads the y1, y2 of its own pass
            y1, y2, v = parts(model, update_multipliers(st, model, 1.3))
            rv = dense_v_reference(model, st.X, y1, y2, parts(model, st.y)[2],
                                   st.S, 1.3)
            assert np.max(np.abs(v - rv)) <= 1e-10

    def test_v_clamp_identity_when_interior(self):
        # one >= row whose unconstrained minimizer is already positive
        row = SymRow.from_entries({(0, 0): 1.0}, 0.0)
        model = SdpModel(
            dim=1,
            objective=np.array([[1.0]]),
            sense="min",
            ineq_coo=Coo.of((row,)),
            ineq_groups=(("pairs", 0, 1),),
        )
        st = SolverState(
            X=np.array([[-2.0]]),  # violated constraint drives v positive
            y=np.zeros(1),
            S=np.zeros((1, 1)),
        )
        v = update_multipliers(st, model, 1.0)
        a1, b1, a2, b2, groups = dense_blocks(model)
        g_lin = np.array([-2.0 - 0.0]) + (np.array([-1.0])) / 1.0
        # gradient at the returned point vanishes (interior optimum)
        assert v[0] == pytest.approx(-1.0 * g_lin[0], abs=1e-12)

    def test_v_all_negative_clamps_to_zero(self, p3):
        model = build_bounded(p3, 2)
        st = fresh_state(model)  # feasible start: minimizer at 0
        v = parts(model, update_multipliers(st, model, 1.0))[2]
        assert np.allclose(v, 0.0)

    def test_s_projection_cases(self, p3):
        model = build_bounded(p3, 2)
        st = fresh_state(model)
        st.X = np.zeros((3, 3))
        # argument C - 0 already PSD -> S equals it
        s, _, _ = update_sx(st, model, 1.0)
        assert np.allclose(s, model.objective, atol=1e-12)
        st.X = 5.0 * np.eye(3)  # argument strongly negative definite
        st.S = np.zeros((3, 3))
        s, _, _ = update_sx(st, model, 1.0)
        assert np.allclose(s, 0.0, atol=1e-12)

    def test_x_affine_update(self, p3):
        # the fused projection is the multiplier step taken with the new S
        model = build_bounded(p3, 2)
        st = randomized_state(model, 3)
        s_new, x_new, _ = update_sx(st, model, 2.0)
        a1, b1, a2, b2, groups = dense_blocks(model)
        mats = [m for (_, ms, _) in groups for m in ms]
        y1, y2, v = parts(model, st.y)
        resid = (
            adjoint(a1, y1)
            + adjoint(a2, y2)
            + (adjoint(mats, v) if mats else 0.0)
            + s_new
            - model.objective
        )
        assert np.allclose(x_new, st.X + resid / 2.0, atol=1e-12)

    def test_mu_limit_keeps_x(self, p3):
        model = build_bounded(p3, 2)
        st = randomized_state(model, 4)
        _, x_new, _ = update_sx(st, model, 1e12)
        assert np.max(np.abs(x_new - st.X)) <= 1e-9


@st.composite
def symrow_blocks(draw):
    """Random rows over order <= 5, with diagonal and repeated positions."""
    dim = draw(st.integers(1, 5))
    entry = st.tuples(
        st.integers(0, dim - 1),
        st.integers(0, dim - 1),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    rows = []
    for entries in draw(st.lists(st.lists(entry, min_size=1, max_size=6),
                                 min_size=1, max_size=6)):
        rows.append(SymRow(
            idx_i=tuple(min(i, j) for i, j, _ in entries),
            idx_j=tuple(max(i, j) for i, j, _ in entries),
            coeff=tuple(c for _, _, c in entries),
            rhs=0.0,
        ))
    return dim, rows, draw(st.integers(0, 2**32 - 1))


class TestSparseBlocks:
    @settings(max_examples=80, deadline=None)
    @given(symrow_blocks())
    def test_op_adjoint_and_gram_match_symrow(self, case):
        dim, rows, seed = case
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        x = a + a.T
        y = rng.standard_normal(len(rows))
        model = SdpModel(dim=dim, objective=np.zeros((dim, dim)), sense="min",
                         eq_other_coo=Coo.of(rows))
        comp = _Compiled(model)
        op = comp.A @ x.ravel()
        assert np.max(np.abs(op - [r.value(x) for r in rows])) <= 1e-12
        adj = comp.adjoint(y)
        assert abs(float(op @ y) - float(np.sum(x * adj))) <= 1e-12
        mats = [r.dense(dim) for r in rows]
        assert np.max(np.abs(adj - adjoint(mats, y))) <= 1e-12
        gram = gram_matrix(constraint_matrix(Coo.of(rows), dim)).toarray()
        assert np.max(np.abs(gram - gram_of(mats))) <= 1e-12

    def test_compile_memory_grows_with_nnz(self):
        model = build_bounded(gen_gnp(160, 0.5, 1), 5)
        tracemalloc.start()
        try:
            _Compiled(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a dense k x n^2 Gram assembly of the chain block alone is 32.6 MB
        assert peak <= 8e6

    def test_solve_memory(self):
        model = build_bounded(gen_gnp(160, 0.5, 1), 5)
        tracemalloc.start()
        try:
            solve(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one compile and a few n x n buffers peak at about 3.3 MB; per-block
        # CSRs kept beside the stacked one, with a CSR copy of A^T, peak at
        # about 5 MB
        assert peak <= 4.0e6


class TestDirectSparseKernels:
    """solver._Matvec calls scipy's private C kernels for A vec(X), A^T y and
    each block coupling; pin that they exist, take this call, and give the
    public products bit for bit."""

    @pytest.mark.parametrize("build", [
        lambda: build_bounded(gen_kneser(6, 2), 4),  # desk-table cell
        lambda: rooms_build(),  # five blocks, coupled across inequality groups
    ])
    def test_direct_calls_match_scipy_products(self, build):
        try:
            from scipy.sparse import _sparsetools
            _sparsetools.csr_matvec, _sparsetools.csc_matvec
        except (ImportError, AttributeError) as err:
            pytest.fail(f"scipy.sparse._sparsetools.csr_matvec/csc_matvec are gone "
                        f"({err}): solver._Matvec must fall back to `a @ x`")
        model = build()
        comp = _Compiled(model)
        _, a, gram, ends = verify_structure(model)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(a.shape[1])
        y = rng.standard_normal(a.shape[0])
        couplings = [(blk, gram[hi:, lo:hi]) for blk, lo, hi
                     in zip(comp.blocks, ends, ends[1:]) if blk.coupling is not None]
        assert couplings
        try:
            pairs = [(comp.op(x), a @ x), (comp.op_t(y), a.T @ y)]
            for blk, coupling in couplings:
                d = rng.standard_normal(blk.k)
                pairs.append((blk.coupling(d), coupling @ d))
        except TypeError as err:
            pytest.fail(f"scipy.sparse._sparsetools kernels changed signature ({err}): "
                        "solver._Matvec must follow it or fall back to `a @ x`")
        for got, want in pairs:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestKernelReport:
    def test_bounded_gnp_kernels(self):
        model = build_bounded(gen_gnp(12, 0.5, 1), 3)
        res = solve(model, SolverConfig(max_iter=5))
        assert res.kernels == ("diag", "alphabeta", "alphabeta")

    def test_room_model_reports_dense_blocks(self):
        model = rooms_build()
        res = solve(model, SolverConfig(max_iter=5))
        assert [kind for kind, _, _ in model.ineq_groups] == [
            "rowsum", "generic", "pairs"
        ]
        assert res.kernels == (
            "diag", "dense", "alphabeta", "dense", "diag"
        )


def block_of(entries: list[dict], dim: int) -> tuple[_Block, np.ndarray]:
    """The block of these rows and its dense Gram."""
    rows = [SymRow.from_entries(e, 0.0) for e in entries]
    gram = gram_matrix(constraint_matrix(Coo.of(rows), dim))
    return _Block(0, len(rows), gram), gram.toarray()


class TestBlockKernels:
    """The merged block's kernels on Grams that no model in the suite reaches."""

    def test_dependent_equality_rows_take_the_min_norm_solve(self):
        row = {(0, 1): 1.0}
        blk, gram = block_of([row, {(0, 2): 1.0, (1, 1): 1.0}, row], 3)
        assert blk.kind == "dense"
        assert np.linalg.matrix_rank(gram) == 2
        r = np.random.default_rng(3).standard_normal(3)
        want = np.linalg.lstsq(gram, r, rcond=None)[0]
        assert np.max(np.abs(blk.solve(r) - want)) <= 1e-12

    def test_unequal_positive_diagonal_takes_diag(self):
        blk, _ = block_of([{(0, 0): 1.0}, {(0, 1): 1.0}, {(1, 2): 3.0}], 3)
        assert blk.kind == "diag"
        assert np.array_equal(blk.diag, [1.0, 2.0, 18.0])
        r = np.array([1.0, -4.0, 9.0])
        assert np.array_equal(blk.solve(r), [1.0, -2.0, 0.5])

    def test_alpha_beta_gram_is_inverted_exactly(self):
        # rows share the entry (0, 0): G = 0.25 I + 2.25 J
        blk, gram = block_of([{(0, 0): 1.5, (i, i): 0.5} for i in range(1, 6)], 6)
        assert blk.kind == "alphabeta"
        assert (blk.alpha, blk.beta) == (0.25, 2.25)
        r = np.random.default_rng(4).standard_normal(5)
        assert np.max(np.abs(gram @ blk.solve(r) - r)) <= 1e-12
        assert np.max(np.abs(blk.gram_dot(r) - gram @ r)) <= 1e-12

    def test_dense_group_qp_matches_projected_gradient(self):
        rng = np.random.default_rng(5)
        pairs = [(0, 0), (0, 1), (1, 2), (2, 2), (0, 2)]
        entries = [{p: float(c) for p, c in zip(pairs, rng.standard_normal(5))}
                   for _ in range(4)]
        blk, gram = block_of(entries, 3)
        assert blk.kind == "dense"
        for mu in (0.3, 1.0, 4.0):
            g = rng.standard_normal(4)
            v = blk.qp(g, mu)
            want = projected_gradient_qp(g, gram, mu)
            assert np.all(v >= 0.0)
            assert qp_kkt_residual(g, gram, mu, v) <= 1e-9
            assert np.max(np.abs(v - want)) <= 1e-8


@st.composite
def alphabeta_cases(draw):
    """a with ties, k = 1 and all-nonpositive draws; alpha > 0, beta >= 0."""
    k = draw(st.integers(1, 12))
    value = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(
        -10.0, 10.0, allow_nan=False)
    a = np.array(draw(st.lists(value, min_size=k, max_size=k)))
    if draw(st.booleans()):
        a = -np.abs(a)
    alpha = draw(st.sampled_from([0.25, 1.0, 12.5]) | st.floats(1e-3, 50.0))
    beta = draw(st.sampled_from([0.0, 0.5, 2.25]) | st.floats(0.0, 50.0))
    return a, alpha, beta


class TestAlphabetaQp:
    @settings(max_examples=300, deadline=None)
    @given(alphabeta_cases())
    @example((np.array([1.0]), 1.0, 0.5))  # k = 1
    @example((np.array([2.0, 2.0, 2.0, -1.0]), 0.25, 2.25))  # ties at the top
    @example((np.array([-1.0, 0.0, -3.0]), 1.0, 0.5))  # no positive coordinate
    def test_vectorised_scan_equals_the_loop(self, case):
        a, alpha, beta = case
        assert np.array_equal(_alphabeta_qp(a, alpha, beta),
                              alphabeta_qp_loop(a, alpha, beta))


class TestOneCompile:
    def test_blocks_compiled_once_per_solve(self, monkeypatch):
        import bcsdp.relax as relax

        calls = {"verify": 0, "csr": 0, "gram": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # patched on the module, as perfbench's relax.verify span is
        monkeypatch.setattr(relax, "verify_structure",
                            counting("verify", relax.verify_structure))
        monkeypatch.setattr(relax, "constraint_matrix",
                            counting("csr", relax.constraint_matrix))
        monkeypatch.setattr(relax, "gram_matrix", counting("gram", relax.gram_matrix))
        model = build_bounded(gen_gnp(12, 0.5, 1), 3)
        assert calls == {"verify": 0, "csr": 0, "gram": 0}
        res = solve(model, SolverConfig(max_iter=5))
        assert len(res.kernels) == 3
        # one CSR and one Gram over the rows of all three blocks
        assert calls == {"verify": 1, "csr": 1, "gram": 1}


class TestP3Fixture:
    """One documented iteration on the path P3 (m = 2, scaled transform)."""

    def test_single_iteration_values(self, p3):
        model = build_bounded(p3, 2)
        st = fresh_state(model)
        assert np.allclose(st.X, 3 * np.eye(3) - np.ones((3, 3)))
        y = update_multipliers(st, model, 1.0)
        assert np.allclose(y, 0.0)
        st = SolverState(st.X, y, st.S)
        s1, x1, _ = update_sx(st, model, 1.0)
        want_s = np.array(
            [
                [0.2071068, 0.1464466, 0.1464466],
                [0.1464466, 0.1035534, 0.1035534],
                [0.1464466, 0.1035534, 0.1035534],
            ]
        )
        assert np.allclose(s1, want_s, atol=1e-6)
        want_x = np.array(
            [
                [1.2071068, -0.8535534, -0.8535534],
                [-0.8535534, 2.1035534, -0.8964466],
                [-0.8535534, -0.8964466, 2.1035534],
            ]
        )
        assert np.allclose(x1, want_x, atol=1e-6)
        assert np.linalg.eigvalsh(x1).min() >= -1e-10


class TestStateInvariants:
    def test_v_nonnegative_and_s_psd_along_iterations(self):
        g = gen_gnp(7, 0.5, 11)
        model = build_bounded(g, 2)
        st = fresh_state(model)
        for _ in range(12):
            y = update_multipliers(st, model, 1.0)
            assert np.all(parts(model, y)[2] >= 0.0)
            st = SolverState(st.X, y, st.S)
            s, x, rank = update_sx(st, model, 1.0)
            assert np.linalg.eigvalsh(s).min() >= -1e-10
            st = SolverState(x, st.y, s, rank)


def rooms_build():
    """A tt8-style room-assignment model whose blocks take the dense kernels."""
    inst = TimetablingInstance(
        graph=gen_gnp(8, 0.5, 1), m=2,
        event_sizes=(20, 50, 100, 20, 50, 100, 20, 50),
        room_capacities=(60, 120),
    )
    return build_room_assignment(inst)


LOOP_CASES = {
    "bounded-gnp12": lambda: build_bounded(gen_gnp(12, 0.5, 1), 3),
    # its first W has 6 of 9 positive eigenvalues, so dsyevr solves W's
    # positive side at step 1 and its negative side from step 2 to 15
    "theta-gnp9": lambda: build_theta(gen_gnp(9, 0.7, 8), "lovasz"),
    "rooms-tt8": rooms_build,
}


def count_dsyevr(monkeypatch) -> list:
    """Wrap the solver's dsyevr; the returned list gains one entry per call.

    The entry is the side of W the call solved: "+", or "-" when it was
    given -W (the one call that may overwrite its copy).
    """
    import bcsdp.solver as solver

    calls = []
    real = solver.dsyevr

    def wrapper(*args, **kwargs):
        calls.append("-" if kwargs.get("overwrite_a") else "+")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "dsyevr", wrapper)
    return calls


class TestLoopIsTheStep:
    """solve() runs exactly the phases that update_multipliers/update_sx expose."""

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_solve_matches_chained_updates(self, case, k):
        model = LOOP_CASES[case]()
        res = solve(model, SolverConfig(max_iter=k))
        assert res.iterations == k
        mu = _Compiled(model).mu0  # k < 25, so mu stays at the compiled start
        st = fresh_state(model)
        for _ in range(k):
            st.y = update_multipliers(st, model, mu)
            st.S, st.X, st.rank = update_sx(st, model, mu)
        assert np.max(np.abs(res.X_final - st.X)) <= 1e-10

    @pytest.mark.parametrize("case", ["bounded-gnp12", "theta-gnp9"])
    def test_case_enters_the_partial_path(self, case, monkeypatch):
        # so the k = 20 comparison above covers the full eigh and dsyevr on
        # each of W's sides: the steps without a dsyevr call take the eigh
        calls = count_dsyevr(monkeypatch)
        model = LOOP_CASES[case]()
        res = solve(model, SolverConfig(max_iter=20))
        assert 0 < len(calls) < res.iterations == 20
        assert set(calls) == {"bounded-gnp12": {"+"}, "theta-gnp9": {"+", "-"}}[case]


def dense_dual_residual(model, st) -> np.ndarray:
    """A*(y) + S - C, assembled densely from the rows of each block."""
    a1, _, a2, _, groups = dense_blocks(model)
    mats = [m for (_, ms, _) in groups for m in ms]
    sign = 1.0 if model.sense == "min" else -1.0
    out = st.S - sign * model.objective
    for blk, y in zip((a1, a2, mats), parts(model, st.y)):
        if blk:
            out = out + adjoint(blk, y)
    return out


IDENTITY_CASES = {
    **LOOP_CASES,
    "weighted-gnp10": lambda: build_weighted(gen_gnp(10, 0.5, 2), 4,
                                             (1, 2, 1, 3, 1, 1, 2, 1, 1, 2)),
}


class TestResidualIdentity:
    """After an S/X step, A*(y) + S - C = mu (X+ - X).

    W = C - A*(y) - mu X, S+ = proj(W) and X+ = proj(-W)/mu, so
    S+ - mu X+ = W.  The loop reads the dual residual off this identity
    instead of keeping it; here it is recomputed from scratch.
    """

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_dual_residual_is_mu_times_the_x_step(self, case, k):
        model = IDENTITY_CASES[case]()
        mu = _Compiled(model).mu0
        st = fresh_state(model)
        for _ in range(k):
            st.y = update_multipliers(st, model, mu)
            x_old = st.X
            st.S, st.X, st.rank = update_sx(st, model, mu)
        resid = dense_dual_residual(model, st)
        scale = 1.0 + np.max(np.abs(model.objective)) + np.max(np.abs(st.S))
        assert np.max(np.abs(resid - mu * (st.X - x_old))) <= 1e-10 * scale


@st.composite
def sx_cases(draw):
    """W with a chosen spectrum and a seeded rank that picks the S/X branch.

    Unrotated W is diagonal, so zero eigenvalues are exactly zero; the
    spectrum may be all-zero, PSD, NSD or repeat a value.  rank None runs
    dsyevr on the positive side; 0 or n forces dsyevr on the positive or the
    negative side whatever W's true counts are; n // 2 runs the full eigh
    from n = 2.
    """
    n = draw(st.integers(1, 8))
    values = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -0.3, 4.0, -4.0])
    lam = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    sign = draw(st.sampled_from(["any", "psd", "nsd"]))
    if sign == "psd":
        lam = np.abs(lam)
    elif sign == "nsd":
        lam = -np.abs(lam)
    w = np.diag(lam)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = (q * lam) @ q.T
    rank = draw(st.sampled_from([None, 0, n, n // 2]))
    return w, rank, draw(st.sampled_from([0.25, 1.0, 3.0]))


class TestSxProjection:
    @settings(max_examples=150, deadline=None)
    @given(sx_cases())
    @example((np.zeros((1, 1)), 0, 1.0))  # W = 0 at n = 1, dsyevr on W
    @example((np.zeros((4, 4)), 2, 1.0))  # W = 0, full eigh
    @example((np.array([[-2.0]]), 1, 3.0))  # n = 1, dsyevr on -W
    @example((np.diag([3.0, 3.0, 3.0, -1.0, 0.0]), 0, 1.0))  # large side forced
    def test_update_sx_is_both_projections(self, case):
        w, rank, mu = case
        n = w.shape[0]
        model = SdpModel(dim=n, objective=w, sense="min")
        # no constraints and X = 0, so W = C - mu X is the objective itself
        state = SolverState(X=np.zeros((n, n)), y=np.zeros(0), S=np.zeros((n, n)),
                            rank=rank)
        s, x, new_rank = update_sx(state, model, mu)
        assert np.max(np.abs(s - project_psd_dense(w))) <= 1e-10
        assert np.max(np.abs(x - project_psd_dense(-w) / mu)) <= 1e-10
        assert 0 <= new_rank <= n


def rank1_step(w, positive, start, mu=1.0):
    """update_sx on a model without rows whose W is w, after a step whose
    smaller side had rank 1: that side is start start', held as S (positive)
    or as X, so the step's warm start is a multiple of start."""
    n = w.shape[0]
    last, zero = np.outer(start, start), np.zeros((n, n))
    x = zero if positive else last
    # W = C - mu X; with X = 0 it is w bit for bit
    model = SdpModel(dim=n, objective=w + mu * x, sense="min")
    state = SolverState(X=x, y=np.zeros(0), S=last if positive else zero,
                        rank=1 if positive else n - 1)
    return update_sx(state, model, mu)


def assert_projections(w, s, x, mu):
    """S = proj(W) and X = proj(-W)/mu to round-off, against a full eigh."""
    tol = 1e-12 * (1.0 + np.linalg.norm(w))
    assert np.max(np.abs(s - project_psd_dense(w))) <= tol
    assert np.max(np.abs(x - project_psd_dense(-w) / mu)) <= tol / mu


def rotated(lam, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((lam.size,) * 2))
    return (q * lam) @ q.T, q


@st.composite
def rank1_cases(draw):
    """W = lam u u' - N with N PSD at n at and above the rank-1 gate, so W
    has at most one positive eigenvalue, and a warm start near u.  The side
    is W's positive one, or -W's with W negated."""
    n = draw(st.sampled_from([_RANK1_MIN_N, _RANK1_MIN_N + 1, 128, 160]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    # N's eigenvalues fill [low, low + spread max(low, 1)]: a tight cluster,
    # as -mu X gives in the solves, lets the run converge, a wide one not
    low = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0]))
    spread = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    nev = low + spread * max(low, 1.0) * rng.random(n)
    nev[rng.random(n) < draw(st.sampled_from([0.0, 0.5]))] = 0.0  # N singular
    lam = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    w = lam * np.outer(u, u) - rotated(nev, int(rng.integers(2**32)))[0]
    w = 0.5 * (w + w.T)
    start = u + draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.3])) * rng.standard_normal(n)
    positive = draw(st.booleans())
    return (w if positive else -w), positive, start, draw(st.sampled_from([0.25, 1.0, 3.0]))


class TestRank1Side:
    """The certified rank-1 eigen-side against the dsyevr step on the same W."""

    @settings(max_examples=40, deadline=None)
    @given(rank1_cases())
    def test_projection_agrees_to_round_off(self, case):
        w, positive, start, mu = case
        a = w if positive else -w
        pair = _rank1_side(w, positive, start)
        if pair is not None:
            lam, u = pair
            assert lam > 0.0
            assert np.linalg.eigvalsh(a)[-2] <= 1e-12 * np.linalg.norm(w)
            assert np.max(np.abs(lam * np.outer(u, u) - project_psd_dense(a))) \
                <= 1e-12 * (1.0 + np.linalg.norm(w))
        s, x, rank = rank1_step(w, positive, start, mu)
        assert_projections(w, s, x, mu)
        assert 0 <= rank <= w.shape[0]

    @pytest.mark.parametrize("positive", [True, False])
    def test_certified_step_makes_no_dsyevr_call(self, positive, monkeypatch):
        # W's other eigenvalues lie in [-2, -1], far from 2 against their
        # spread, as in the solves, where -mu X dominates them
        calls = count_dsyevr(monkeypatch)
        n = _RANK1_MIN_N
        w, q = rotated(np.concatenate(([2.0], -np.linspace(1.0, 2.0, n - 1))), 1)
        w = w if positive else -w
        start = q[:, 0] + 1e-3 * np.random.default_rng(2).standard_normal(n)
        assert _rank1_side(w, positive, start) is not None
        s, x, rank = rank1_step(w, positive, start, mu=2.0)
        assert calls == [] and rank == (1 if positive else n - 1)
        assert_projections(w, s, x, 2.0)

    def test_below_the_gate_takes_dsyevr(self, monkeypatch):
        calls = count_dsyevr(monkeypatch)
        n = _RANK1_MIN_N - 1
        w, q = rotated(np.concatenate(([2.0], -np.linspace(0.5, 8.0, n - 1))), 1)
        s, x, rank = rank1_step(w, True, q[:, 0])
        assert calls == ["+"] and rank == 1
        assert_projections(w, s, x, 1.0)

    def refused(self, w, positive, start, monkeypatch, mu=1.0):
        """Check that _rank1_side refuses and that the step falls back to
        dsyevr on the same side; return the step's rank."""
        assert _rank1_side(w, positive, start) is None
        calls = count_dsyevr(monkeypatch)
        s, x, rank = rank1_step(w, positive, start, mu)
        assert calls == ["+" if positive else "-"]
        assert_projections(w, s, x, mu)
        return rank

    @pytest.mark.parametrize("positive", [True, False])
    def test_second_positive_eigenvalue_refused(self, positive, monkeypatch):
        # the run converges to the top pair, and dpotrf finds -1e-3 along u2
        n = _RANK1_MIN_N
        lam = np.concatenate(([4.0, 1e-3], -np.linspace(0.5, 8.0, n - 2)))
        w, q = rotated(lam, 3)
        start = q[:, 0] + 1e-6 * q[:, 5]
        rank = self.refused(w if positive else -w, positive, start, monkeypatch, mu=0.5)
        assert rank == (2 if positive else n - 2)

    @pytest.mark.parametrize("positive", [True, False])
    def test_warm_start_orthogonal_to_u_refused(self, positive, monkeypatch):
        # W is diagonal, so the Krylov space keeps an exact zero on e0, the
        # eigenvector of W's one positive eigenvalue: the run spends its
        # steps on W's negative spectrum without converging
        n = _RANK1_MIN_N
        w = np.diag(np.concatenate(([2.0], -np.linspace(0.5, 8.0, n - 1))))
        start = np.random.default_rng(4).standard_normal(n)
        start[0] = 0.0
        rank = self.refused(w if positive else -w, positive, start, monkeypatch)
        assert rank == (1 if positive else n - 1)

    def test_breakdown_on_few_distinct_eigenvalues_refused(self, monkeypatch):
        # eigenvalues 3, 1 (twice) and -2: from a start in the 1 and -2
        # eigenspaces the Krylov space is invariant after two steps, and its
        # exact Ritz pair (1, v) passes the residual and sign tests, but
        # 2 v v' - W is -3 along e0, so dpotrf refuses
        import bcsdp.solver as solver

        n = _RANK1_MIN_N
        w = np.diag(np.concatenate(([3.0, 1.0, 1.0], np.full(n - 3, -2.0))))
        start = np.zeros(n)
        start[1:3] = 1.0
        start[3:] = 0.5
        sizes = []
        real = solver.dstev

        def spy(d, e):
            sizes.append(d.size)
            return real(d, e)

        monkeypatch.setattr(solver, "dstev", spy)
        rank = self.refused(w, True, start, monkeypatch)
        assert sizes[-1] == 2 < _LANCZOS_FIRST_TEST  # the breakdown ended the run
        assert rank == 3

    @pytest.mark.parametrize("positive", [True, False])
    def test_no_positive_eigenvalue_refused(self, positive, monkeypatch):
        # the run converges to the side's top eigenvalue, which is <= 0
        n = _RANK1_MIN_N
        w, q = rotated(-np.linspace(0.5, 8.0, n), 5)
        rank = self.refused(w if positive else -w, positive, q[:, 0], monkeypatch, mu=3.0)
        assert rank == (0 if positive else n)


class TestRank1SideInTheSolve:
    def test_gnp160_steps_and_update_sx(self, monkeypatch):
        """On gnp:160 at m = 5 most S/X steps are certified rank-1 steps,
        and update_sx from the state before a certified or a refused step
        repeats the loop's step bit for bit."""
        model = build_bounded(gen_gnp(160, 0.5, 1), 5)
        seen = {}
        real = _Compiled.sx_phase

        def spy(comp, st, r, ax, mu):
            state = SolverState(st.X.copy(), st.y.copy(), st.S.copy(), st.rank)
            counts = dict(comp.steps)
            out = real(comp, st, r, ax, mu)
            path = next(p for p in counts if comp.steps[p] > counts[p])
            seen.setdefault(path, (state, mu, st.S.copy(), st.X.copy(), st.rank))
            return out

        monkeypatch.setattr(_Compiled, "sx_phase", spy)
        res = solve(model)
        monkeypatch.undo()
        steps = {p: res.stats[f"{p}_steps"] for p in ("rank1", "refused", "dsyevr", "eigh")}
        assert sum(steps.values()) == res.iterations == 148
        assert steps["rank1"] > steps["refused"] + steps["dsyevr"] + steps["eigh"]
        assert {"rank1", "refused"} <= set(seen)
        for path in ("rank1", "refused"):
            state, mu, s, x, rank = seen[path]
            s2, x2, rank2 = update_sx(state, model, mu)
            assert np.array_equal(s2, s) and np.array_equal(x2, x) and rank2 == rank


class TestSolveBehaviour:
    def test_determinism(self):
        g = gen_gnp(8, 0.5, 2)
        model = build_bounded(g, 3)
        r1 = solve(model, SolverConfig(max_iter=500))
        r2 = solve(model, SolverConfig(max_iter=500))
        assert r1.value == r2.value
        assert np.array_equal(r1.X_final, r2.X_final)
        assert r1.iterations == r2.iterations

    def test_progress_records(self, caplog):
        model = build_bounded(gen_gnp(30, 0.5, 1), 4)
        with caplog.at_level(logging.DEBUG, logger="bcsdp.solver"):
            res = solve(model, SolverConfig(max_iter=450))
        recs = [r.solve for r in caplog.records if hasattr(r, "solve")]
        assert [r["it"] for r in recs] == [200, 400, 450]
        assert set(recs[-1]) == {"it", "pres", "dres", "gap", "value", "mu", "rank"}
        # the value is in the bound's units: the offset is included
        assert recs[-1]["value"] == res.value
        assert recs[-1]["pres"] == res.residuals[0]

    def test_exit_record_carries_phase_times(self, caplog):
        model = build_bounded(gen_gnp(30, 0.5, 1), 4)
        with caplog.at_level(logging.DEBUG, logger="bcsdp.solver"):
            res = solve(model, SolverConfig(max_iter=450))
        recs = [r for r in caplog.records if hasattr(r, "solve_stats")]
        assert [r.solve_stats for r in recs] == [res.stats]
        assert f"eig_s={res.stats['eig_s']:.4f}" in recs[0].getMessage()
        assert set(res.stats) == {"compile_s", "multiplier_s", "eig_s", "sx_s",
                                  "check_s", "rank1_steps", "refused_steps",
                                  "dsyevr_steps", "eigh_steps"}
        assert all(v >= 0.0 for v in res.stats.values())
        assert res.stats["eig_s"] > 0.0 and res.stats["multiplier_s"] > 0.0
        # every step is counted once, on the path it took; n = 30 is below
        # the rank-1 side's gate, so no step tries it
        steps = [res.stats[f"{p}_steps"] for p in ("rank1", "refused", "dsyevr", "eigh")]
        assert all(isinstance(k, int) for k in steps)
        assert sum(steps) == res.iterations and steps[:2] == [0, 0]
        assert f" refused_steps=0 dsyevr_steps={steps[2]} " in recs[0].getMessage()

    def test_rank_and_partial_steps_reported(self, caplog, monkeypatch):
        calls = count_dsyevr(monkeypatch)
        model = build_bounded(gen_gnp(30, 0.5, 1), 4)
        with caplog.at_level(logging.DEBUG, logger="bcsdp.solver"):
            res = solve(model, SolverConfig(max_iter=450))
        ranks = [r.solve["rank"] for r in caplog.records if hasattr(r, "solve")]
        assert all(isinstance(k, int) and 0 <= k <= model.dim for k in ranks)
        # the last W's smaller side is within n/10, so dsyevr solves it next
        assert min(ranks[-1], model.dim - ranks[-1]) <= model.dim / 10
        # and some steps took the full eigh
        assert 0 < len(calls) < res.iterations == 450
        assert (len(calls), res.iterations - len(calls)) == (
            res.stats["dsyevr_steps"], res.stats["eigh_steps"])
        # the first step has no count to go by and takes W's positive side
        calls.clear()
        assert solve(model, SolverConfig(max_iter=1)).iterations == 1
        assert calls == ["+"]

    def test_infeasible_model_does_not_converge(self):
        rows = (
            SymRow.from_entries({(0, 0): 1.0}, 1.0),
            SymRow.from_entries({(0, 0): 1.0}, 2.0),
        )
        model = SdpModel(
            dim=1,
            objective=np.array([[1.0]]),
            sense="min",
            eq_other_coo=Coo.of(rows),
        )
        res = solve(model, SolverConfig(max_iter=300))
        assert res.status != "converged"

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestStartPoint:
    """Every bounded solve starts at the singleton colouring n I - J.

    That start keeps W's positive side small from the first step, so the
    early S/X steps take the partial eigensolve (dsyevr): W's positive count
    is 1 or 2 over steps 1-13 on each of these models.  A rank-<=k start
    t M - J (a greedy colouring's block indicator) keeps that side above
    n/10 for its first hundred steps.  With mu started at the residual
    scale, the iterate moves faster and W's positive count leaves n/10 for
    a while from step 14: 20 of 28 at step 14 on kneser-8-2, 6 to 10 of 45
    over steps 14-26 on gnp-45, and 14 or 44 of 64 over steps 19-41 on
    fi-6-2/3.
    """

    PREFIX = 14  # steps whose dsyevr must all find at most n/10 eigenpairs

    @pytest.mark.parametrize("graph, m", [
        (gen_kneser(8, 2), 6),
        (gen_forbidden_intersection(6, 2 / 3), 10),
        (gen_gnp(45, 0.5, 1), 5),
    ], ids=["kneser-8-2", "fi-6-2/3", "gnp-45"])
    def test_partial_eigensolve_from_step_two(self, graph, m, monkeypatch):
        model = build_bounded(graph, m)
        n = model.dim
        assert np.array_equal(initial_matrix(model), n * np.eye(n) - np.ones((n, n)))
        assert solve(model).status == "converged"
        calls = count_dsyevr(monkeypatch)
        early = solve(model, SolverConfig(max_iter=self.PREFIX))
        assert len(calls) == early.iterations == self.PREFIX
        # the side each of those steps solved: W's positive side throughout
        mu = _Compiled(model).mu0
        st = fresh_state(model)
        for _ in range(self.PREFIX - 1):
            st.y = update_multipliers(st, model, mu)
            st.S, st.X, st.rank = update_sx(st, model, mu)
            assert st.rank <= n / 10

    @pytest.mark.parametrize("case", [
        "theta-lovasz", "theta-strict", "theta-strong", "rooms-tt8",
        "bounded-gnp12", "weighted-gnp10", "precoloured-atoms", "laminar-atoms",
        "reduced-gnp6",
    ])
    def test_every_builder_start(self, case):
        # theta models start at I/n (trace one); room models at (n + m) I - J
        # over the whole order; scaled models at k I - J over their k atoms;
        # iterative rounding's box model at I/(2r), which it states through
        # trace_one_start, as the theta models do
        kind, _, variant = case.partition("-")
        inst = ATOM_CASES["gnp12s3-sizes-feature"]  # 12 events in 9 atoms
        model = {
            "theta": lambda: build_theta(gen_gnp(9, 0.5, 1), variant),
            "rooms": rooms_build,
            "bounded": LOOP_CASES["bounded-gnp12"],
            "weighted": IDENTITY_CASES["weighted-gnp10"],
            "precoloured": lambda: build_precoloured(inst.graph, inst.m, inst.precolouring),
            "laminar": lambda: build_laminar(inst),
            "reduced": reduced_model,
        }[kind]()
        n = model.dim
        assert n == {"theta": 9, "rooms": 8 + 2, "bounded": 12, "weighted": 10,
                     "precoloured": 9, "laminar": 9, "reduced": 2 * 3}[kind]
        if kind in ("theta", "reduced"):
            want = np.eye(n) / n
        else:
            want = n * np.eye(n) - np.ones((n, n))
        assert np.array_equal(initial_matrix(model), want)


class TestExtractBound:
    def test_k5_certified(self):
        model = build_bounded(complete_graph(5), 1)
        res = solve(model, SolverConfig())
        bound, certified = extract_bound(res)
        assert certified == 5

    def test_diverged_raises(self):
        fake = SolveResult(
            value=3.0,
            X_final=np.zeros((1, 1)),
            residuals=(1.0, 1.0, 1.0),
            iterations=10,
            status="diverged",
            eps=1e-5,
        )
        with pytest.raises(ValueError):
            extract_bound(fake)

    def test_safeguard_rounds_down_near_integer(self):
        fake = SolveResult(
            value=4.00001,
            X_final=np.zeros((1, 1)),
            residuals=(0.0, 0.0, 0.0),
            iterations=1,
            status="converged",
            eps=1e-5,
        )
        bound, certified = extract_bound(fake)
        assert certified == 4

    def test_dual_bound_overrides_the_primal_rule(self):
        fake = SolveResult(
            value=4.00001,
            X_final=np.zeros((1, 1)),
            residuals=(1.0, 1.0, 1.0),
            iterations=1,
            status="max_iter",
            eps=1e-5,
            lower=2.5,
        )
        assert extract_bound(fake) == (4.00001, 3)


class TestDualCertificate:
    """On scaled models certified is read off the dual iterate, at any exit."""

    @pytest.mark.parametrize("max_iter", [1, 3, 10, 30, SolverConfig().max_iter])
    def test_certified_below_chi_m_at_every_exit(self, max_iter):
        # the primal rule certified 12, 12, 12 and 10 at max_iter 1, 3, 10, 30
        g = gen_gnp(12, 0.5, 3)
        chi = exact_bounded_chromatic(TimetablingInstance.colouring(g, 2)).chi_m
        assert chi == 6
        model = build_bounded(g, 2)
        res = solve(model, SolverConfig(max_iter=max_iter))
        assert extract_bound(res)[1] <= chi

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_value_above_the_optimum_certifies_it(self, seed):
        # the SDP optimum is n/m = 20; the safeguarded value 20.002 certified 21
        model = build_bounded(gen_gnp(60, 0.5, seed), 3)
        res = solve(model)
        assert res.status == "converged"
        assert res.value > 20.0 > res.lower > 19.99
        assert extract_bound(res)[1] == 20

    def test_rooms_and_theta_keep_the_primal_rule(self):
        rooms = rooms_build()
        assert rooms.trace_ratio is None  # the room block has no trace row
        for model in (rooms, build_theta(gen_gnp(9, 0.5, 1), "lovasz")):
            res = solve(model, SolverConfig(max_iter=50))
            assert res.lower is None
            safeguard = 10.0 * res.eps * max(1.0, abs(res.value))
            assert extract_bound(res)[1] == math.ceil(res.value - safeguard)


class TestPrecolouredValues:
    def test_forced_two_classes(self):
        model = build_precoloured(
            empty_graph(4), 2, [{0, 1}, {2, 3}]
        )
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(2.0, abs=2e-3)

    def test_single_vertex_preclass_changes_nothing(self):
        model = build_precoloured(complete_graph(3), 3, [{0}])
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(3.0, abs=2e-3)

    def test_p3_m1_singletons(self, p3):
        model = build_precoloured(p3, 1, [])
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(3.0, abs=2e-3)


def _pre(*classes):
    return tuple(frozenset(c) for c in classes)


# Pre-coloured and laminar instances whose models are built on atoms.  A
# pre-class stays in one period, and two pre-classes may share one: the
# singleton pre-classes below may all go into one period.
ATOM_CASES = {
    "empty4-two-singletons": TimetablingInstance(
        empty_graph(4), m=4, precolouring=_pre({0}, {1})),
    "gnp12s1-three-singletons": TimetablingInstance(
        gen_gnp(12, 0.5, 1), m=4, precolouring=_pre({0}, {1}, {2})),
    "gnp12s3-two-classes": TimetablingInstance(
        gen_gnp(12, 0.5, 3), m=3, precolouring=_pre({0, 3, 9}, {1, 4})),
    # one room fits the seven size-2 events; events {10, 11} need the
    # feature only room 1 has
    "gnp12s3-sizes-feature": TimetablingInstance(
        gen_gnp(12, 0.5, 3), m=3,
        event_sizes=tuple(2 if v in (0, 1, 2, 5, 6, 7, 8) else 1 for v in range(12)),
        room_capacities=(2, 1, 1), feature_count=1,
        event_features=frozenset({(10, 0), (11, 0)}),
        room_features=frozenset({(1, 0)}),
        precolouring=_pre({0, 3, 9}, {1, 4})),
}


class TestAtomModels:
    @pytest.mark.parametrize("builder", ["precoloured", "laminar-features"])
    @pytest.mark.parametrize("case", list(ATOM_CASES))
    def test_certified_is_a_lower_bound(self, case, builder):
        inst = ATOM_CASES[case]
        if builder == "precoloured":
            model = build_precoloured(inst.graph, inst.m, inst.precolouring)
        else:
            model = build_laminar(inst, features=True)
        res = solve(model, SolverConfig())
        assert res.status == "converged"
        _, certified = extract_bound(res)
        assert certified <= exact_bounded_chromatic(inst).chi_m

    def test_atom_order_and_tight_bounds(self):
        # 12 events in 9 atoms; seven size-2 events need seven periods, and
        # without sizes χ_m is 5
        inst = ATOM_CASES["gnp12s3-sizes-feature"]
        for model, want in (
            (build_precoloured(inst.graph, inst.m, inst.precolouring), 5),
            (build_laminar(inst), 7),
        ):
            assert model.dim == 9
            assert extract_bound(solve(model, SolverConfig()))[1] == want

    def test_preclass_holding_an_edge_refused(self):
        g = gen_gnp(30, 0.5, 1)  # 0-5 is an edge
        with pytest.raises(ValueError, match="share a class"):
            build_precoloured(g, 4, [{0, 5}, {2, 7, 9}])
        inst = TimetablingInstance(g, m=4, precolouring=_pre({0, 5}, {2, 7, 9}))
        with pytest.raises(ValueError, match="share a class"):
            build_laminar(inst)


class TestWeightedValues:
    def test_all_ones_equals_bounded(self):
        for seed in range(4):
            g = gen_gnp(6, 0.5, seed + 20)
            for m in (2, 3):
                rw = solve(build_weighted(g, m, (1,) * 6), SolverConfig())
                rb = solve(build_bounded(g, m), SolverConfig())
                assert rw.value == pytest.approx(rb.value, abs=5e-3)

    def test_single_vertex_full_weight(self):
        model = build_weighted(empty_graph(1), 3, (3,))
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(1.0, abs=2e-3)

    def test_two_saturating_vertices(self):
        model = build_weighted(empty_graph(2), 4, (4, 4))
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(2.0, abs=2e-3)


class TestLaminarValues:
    def test_big_events_single_room(self):
        inst = TimetablingInstance(
            graph=empty_graph(4),
            m=2,
            event_sizes=(100, 100, 100, 100),
            room_capacities=(120, 30),
        )
        model = build_laminar(inst)
        res = solve(model, SolverConfig())
        assert res.value == pytest.approx(4.0, abs=2e-3)

    def test_feature_bottleneck(self):
        inst = TimetablingInstance(
            graph=empty_graph(3),
            m=3,
            feature_count=1,
            event_features=frozenset({(0, 0), (1, 0), (2, 0)}),
            room_features=frozenset({(0, 0)}),
        )
        model = build_laminar(inst, features=True)
        res = solve(model, SolverConfig())
        assert res.value >= 3.0 - 2e-3


class TestRoomValues:
    def test_single_event_room_block_forced(self):
        inst = TimetablingInstance(
            graph=empty_graph(1), m=1, event_sizes=(1,), room_capacities=(2,)
        )
        model = build_room_assignment(inst)
        res = solve(model, SolverConfig(max_iter=4000))
        t_val = res.X_final[0, 0] + 1.0
        assert res.X_final[0, 1] == pytest.approx(t_val, abs=5e-2)

    def test_two_conflicting_events_one_room(self):
        inst = TimetablingInstance(
            graph=complete_graph(2), m=1, event_sizes=(1, 1),
            room_capacities=(2,),
        )
        model = build_room_assignment(inst)
        res = solve(model, SolverConfig(max_iter=4000))
        assert res.value >= 2.0 - 5e-2


class TestOrderings:
    def test_monotone_in_m(self):
        for seed in range(3):
            g = gen_gnp(6, 0.5, seed + 30)
            values = []
            for m in range(1, 7):
                model = build_bounded(g, m)
                values.append(solve(model, SolverConfig()).value)
            for a, b in zip(values, values[1:]):
                assert b <= a + 5e-3

    def test_theta_dominated_by_bounded(self):
        for seed in range(3):
            g = gen_gnp(7, 0.5, seed + 40)
            theta = solve(build_theta(g, "lovasz"), SolverConfig()).value
            for m in (2, 3):
                model = build_bounded(g, m)
                val = solve(model, SolverConfig()).value
                assert val >= theta - 5e-3

    def test_theta_variant_ordering(self):
        g = gen_gnp(7, 0.5, 50)
        strict = solve(build_theta(g, "strict"), SolverConfig()).value
        lov = solve(build_theta(g, "lovasz"), SolverConfig()).value
        strong = solve(build_theta(g, "strong"), SolverConfig()).value
        assert strict <= lov + 5e-3
        assert lov <= strong + 5e-3


def golden_model(spec: str, m, relax: str):
    """The model `bcsdp bound --gen spec --m m --relax relax` solves."""
    if relax == "rooms":
        return rooms_build()
    kind, _, args = spec.partition(":")
    a = args.split(",")
    g = {"kneser": lambda: gen_kneser(int(a[0]), int(a[1])),
         "fi": lambda: gen_forbidden_intersection(int(a[0]), 2 / 3),
         "gnp": lambda: gen_gnp(int(a[0]), float(a[1]), int(a[2]))}[kind]()
    return build_bounded(g, m) if relax == "bounded" else build_theta(g, relax)


# (spec, m, relaxation, max_iter or None) -> (iterations, status, certified,
# value, lower); the 20 published desk cells, gnp:45 s1-4 at the m that
# --m-offset -2 gives, the gnp:160 colour-kms solve, two theta models and a
# room model capped at 300 iterations (its dense kernels)
SOLVE_GOLDEN = [
    ("kneser:5,2", 4, "bounded", None, 98, "converged", 3, 2.500039543261823, 2.499876439681026),
    ("kneser:5,2", 3, "bounded", None, 48, "converged", 4, 3.333389102723077, 3.333320092991691),
    ("kneser:5,2", 2, "bounded", None, 47, "converged", 5, 5.000019879200057, 4.999953506580678),
    ("kneser:5,2", 1, "bounded", None, 190, "converged", 10, 10.000368545862367, 9.999913089427524),
    ("kneser:6,2", 5, "bounded", None, 96, "converged", 3, 2.999952394717385, 2.999672446447857),
    ("kneser:6,2", 4, "bounded", None, 70, "converged", 4, 3.7500627649464153, 3.7499698310457203),
    ("kneser:6,2", 3, "bounded", None, 53, "converged", 5, 5.000045104113753, 4.999857708664233),
    ("kneser:6,2", 2, "bounded", None, 70, "converged", 8, 7.500067524556035, 7.499929942919674),
    ("kneser:7,2", 6, "bounded", None, 107, "converged", 4, 3.499961109435703, 3.4995215000825923),
    ("kneser:7,2", 5, "bounded", None, 98, "converged", 5, 4.200073329274003, 4.199974861006451),
    ("kneser:7,2", 4, "bounded", None, 67, "converged", 6, 5.250120878762175, 5.2499466809516715),
    ("kneser:7,2", 3, "bounded", None, 70, "converged", 7, 7.000042504590709, 6.99984051622309),
    ("kneser:8,2", 6, "bounded", None, 103, "converged", 5, 4.666746847981352, 4.66658106191989),
    ("kneser:8,2", 5, "bounded", None, 90, "converged", 6, 5.600095764380494, 5.599931008368707),
    ("kneser:8,2", 4, "bounded", None, 77, "converged", 7, 7.000216625877658, 6.9995943111558745),
    ("kneser:8,2", 3, "bounded", None, 80, "converged", 10, 9.3333797354386, 9.33307626150373),
    ("fi:6,2/3", 10, "bounded", None, 149, "converged", 7, 6.400115171135843, 6.3999199036087875),
    ("fi:6,2/3", 9, "bounded", None, 113, "converged", 8, 7.111237826953677, 7.111010186527993),
    ("fi:6,2/3", 8, "bounded", None, 109, "converged", 8, 8.00014868953064, 7.999927527583201),
    ("fi:6,2/3", 7, "bounded", None, 93, "converged", 10, 9.143024825689151, 9.142773149917929),
    ("gnp:45,0.5,1", 5, "bounded", None, 117, "converged", 9, 9.000178088862093, 8.999501456517303),
    ("gnp:45,0.5,2", 5, "bounded", None, 117, "converged", 9, 9.000196347389009, 8.999387606323593),
    ("gnp:45,0.5,3", 4, "bounded", None, 89, "converged", 12, 11.25004296040203, 11.249431633434941),
    ("gnp:45,0.5,4", 4, "bounded", None, 68, "converged", 12, 11.250333833746742, 11.249293169645947),
    ("gnp:160,0.5,1", 5, "bounded", None, 148, "converged", 32, 32.0009166313462, 31.999829888368193),
    ("gnp:30,0.5,1", None, "lovasz", None, 357, "converged", 7, 6.9998823693514565, None),
    ("gnp:30,0.5,1", None, "strict", None, 403, "converged", 7, 7.000118271166608, None),
    ("tt8", 2, "rooms", 300, 300, "max_iter", 5, 4.3907845428218275, None),
]


class TestSolveGolden:
    """Iterations, status, certificate and values of fixed solves, recorded
    before the fused multiplier and S/X steps; a change to the step's
    arithmetic must keep all of them."""

    @pytest.mark.parametrize("case", SOLVE_GOLDEN,
                             ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in SOLVE_GOLDEN])
    def test_solve_unchanged(self, case):
        spec, m, relax, max_iter, iters, status, certified, value, lower = case
        cfg = SolverConfig(max_iter=max_iter) if max_iter else SolverConfig()
        res = solve(golden_model(spec, m, relax), cfg)
        assert (res.iterations, res.status) == (iters, status)
        assert extract_bound(res)[1] == certified
        assert abs(res.value - value) <= 1e-9
        if lower is None:
            assert res.lower is None
        else:
            assert abs(res.lower - lower) <= 1e-9
