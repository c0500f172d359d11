import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsdp.graphs import (
    TimetablingInstance,
    complete_graph,
    empty_graph,
    gen_gnp,
)
from bcsdp.linalg import project_psd_dense
from bcsdp.relax import (
    SymRow,
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
    constraint_matrix,
    gram_matrix,
)
from bcsdp.rounding import greedy_colouring
from bcsdp.solver import (
    SolveResult,
    SolverConfig,
    SolverState,
    extract_bound,
    initial_matrix,
    solve,
    update_sx,
    update_v,
    update_y,
    _Block,
    _Compiled,
)

from _reference import (
    adjoint,
    dense_blocks,
    dense_v_reference,
    dense_y_reference,
    gram_of,
)


def fresh_state(model, sem):
    x0 = initial_matrix(model, sem, None)
    s0 = project_psd_dense(
        (model.objective if model.sense == "min" else -model.objective).copy()
    )
    v_len = len(model.ineq)
    return SolverState(
        X=x0,
        y1=np.zeros(len(model.eq_graph)),
        y2=np.zeros(len(model.eq_other)),
        v=np.zeros(v_len),
        S=s0,
    )


def randomized_state(model, sem, seed):
    rng = np.random.default_rng(seed)
    st = fresh_state(model, sem)
    a = rng.standard_normal((model.dim, model.dim))
    st.X = project_psd_dense(0.5 * (a + a.T))
    st.y1 = rng.standard_normal(len(model.eq_graph))
    st.y2 = rng.standard_normal(len(model.eq_other))
    st.v = np.abs(rng.standard_normal(len(model.ineq)))
    b = rng.standard_normal((model.dim, model.dim))
    st.S = project_psd_dense(0.5 * (b + b.T))
    return st


class TestAnalyticValues:
    def test_complete_k5_m1(self):
        model, sem = build_bounded(complete_graph(5), 1)
        res = solve(model, sem, SolverConfig())
        assert res.status == "converged"
        assert res.value == pytest.approx(5.0, abs=1e-3)

    def test_empty_graph_block_value(self):
        model, sem = build_bounded(empty_graph(10), 2)
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(5.0, abs=1e-3)

    def test_c5_theta(self, c5):
        res = solve(build_theta(c5, "lovasz"), None, SolverConfig())
        assert res.value == pytest.approx(math.sqrt(5.0), abs=1e-3)

    def test_empty_graph_theta_all_variants(self):
        for variant in ("lovasz", "strict", "strong"):
            res = solve(build_theta(empty_graph(4), variant), None, SolverConfig())
            assert res.value == pytest.approx(1.0, abs=1e-3), variant

    def test_theta_k2_colouring_side(self):
        res = solve(build_theta(complete_graph(2), "lovasz"), None, SolverConfig())
        assert res.value == pytest.approx(2.0, abs=1e-3)


class TestUpdateFormulas:
    def test_zero_residual_keeps_y(self, p3):
        model, sem = build_bounded(p3, 2)
        st = fresh_state(model, sem)  # dual-feasible start: S = C, y = v = 0
        y1, y2 = update_y(st, model, 1.0)
        assert np.allclose(y1, 0.0, atol=1e-14)
        assert np.allclose(y2, 0.0, atol=1e-14)

    def test_y_matches_dense_reference(self):
        for seed in range(4):
            g = gen_gnp(6, 0.5, seed)
            model, sem = build_bounded(g, 2)
            st = randomized_state(model, sem, seed)
            y1, y2 = update_y(st, model, 0.7)
            ry1, ry2 = dense_y_reference(
                model, st.X, st.y1, st.y2, st.v, st.S, 0.7
            )
            assert np.max(np.abs(y1 - ry1)) <= 1e-10
            assert np.max(np.abs(y2 - ry2)) <= 1e-10

    def test_v_matches_reference_and_kkt(self):
        for seed in range(4):
            g = gen_gnp(6, 0.5, seed + 10)
            model, sem = build_bounded(g, 3)
            st = randomized_state(model, sem, seed)
            v = update_v(st, model, 1.3)
            rv = dense_v_reference(model, st.X, st.y1, st.y2, st.v, st.S, 1.3)
            assert np.max(np.abs(v - rv)) <= 1e-10

    def test_v_clamp_identity_when_interior(self):
        # one >= row whose unconstrained minimizer is already positive
        from bcsdp.relax import SdpModel, StructureTags, SymRow

        row = SymRow.from_entries({(0, 0): 1.0}, 0.0)
        model = SdpModel(
            dim=1,
            objective=np.array([[1.0]]),
            eq_graph=(),
            eq_other=(),
            ineq=(row,),
            sense="min",
            structure=StructureTags(),
            ineq_groups=(("pairs", 0, 1),),
        )
        st = SolverState(
            X=np.array([[-2.0]]),  # violated constraint drives v positive
            y1=np.zeros(0),
            y2=np.zeros(0),
            v=np.zeros(1),
            S=np.zeros((1, 1)),
        )
        v = update_v(st, model, 1.0)
        a1, b1, a2, b2, groups = dense_blocks(model)
        g_lin = np.array([-2.0 - 0.0]) + (np.array([-1.0])) / 1.0
        # gradient at the returned point vanishes (interior optimum)
        assert v[0] == pytest.approx(-1.0 * g_lin[0], abs=1e-12)

    def test_v_all_negative_clamps_to_zero(self, p3):
        model, sem = build_bounded(p3, 2)
        st = fresh_state(model, sem)  # feasible start: minimizer at 0
        v = update_v(st, model, 1.0)
        assert np.allclose(v, 0.0)

    def test_s_projection_cases(self, p3):
        model, sem = build_bounded(p3, 2)
        st = fresh_state(model, sem)
        st.X = np.zeros((3, 3))
        # argument C - 0 already PSD -> S equals it
        s, _ = update_sx(st, model, 1.0)
        assert np.allclose(s, model.objective, atol=1e-12)
        st.X = 5.0 * np.eye(3)  # argument strongly negative definite
        st.S = np.zeros((3, 3))
        s, _ = update_sx(st, model, 1.0)
        assert np.allclose(s, 0.0, atol=1e-12)

    def test_x_affine_update(self, p3):
        # the fused projection is the multiplier step taken with the new S
        model, sem = build_bounded(p3, 2)
        st = randomized_state(model, sem, 3)
        s_new, x_new = update_sx(st, model, 2.0)
        a1, b1, a2, b2, groups = dense_blocks(model)
        mats = [m for (_, ms, _) in groups for m in ms]
        resid = (
            adjoint(a1, st.y1)
            + adjoint(a2, st.y2)
            + (adjoint(mats, st.v) if mats else 0.0)
            + s_new
            - model.objective
        )
        assert np.allclose(x_new, st.X + resid / 2.0, atol=1e-12)

    def test_mu_limit_keeps_x(self, p3):
        model, sem = build_bounded(p3, 2)
        st = randomized_state(model, sem, 4)
        _, x_new = update_sx(st, model, 1e12)
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
        block = _Block(rows, dim)
        op = block.op(x)
        assert np.max(np.abs(op - [r.value(x) for r in rows])) <= 1e-12
        adj = block.adjoint(y)
        assert abs(float(op @ y) - float(np.sum(x * adj))) <= 1e-12
        mats = [r.dense(dim) for r in rows]
        assert np.max(np.abs(adj - adjoint(mats, y))) <= 1e-12
        gram = gram_matrix(constraint_matrix(rows, dim)).toarray()
        assert np.max(np.abs(gram - gram_of(mats))) <= 1e-12

    def test_compile_memory_grows_with_nnz(self):
        model, _ = build_bounded(gen_gnp(160, 0.5, 1), 5)
        tracemalloc.start()
        try:
            _Compiled(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a dense k x n^2 Gram assembly of the chain block alone is 32.6 MB
        assert peak <= 8e6


class TestKernelReport:
    def test_bounded_gnp_kernels(self):
        model, sem = build_bounded(gen_gnp(12, 0.5, 1), 3)
        res = solve(model, sem, SolverConfig(max_iter=5))
        assert res.kernels == ("scaled_identity", "chain", "alphabeta")

    def test_room_model_reports_dense_blocks(self):
        model = rooms_model()
        res = solve(model, None, SolverConfig(max_iter=5))
        assert [kind for kind, _, _ in model.ineq_groups] == [
            "rowsum", "generic", "pairs"
        ]
        assert res.kernels == (
            "scaled_identity", "dense", "alphabeta", "dense", "diag"
        )


class TestP3Fixture:
    """One documented iteration on the path P3 (m = 2, scaled transform)."""

    def test_single_iteration_values(self, p3):
        model, sem = build_bounded(p3, 2)
        st = fresh_state(model, sem)
        assert np.allclose(st.X, 3 * np.eye(3) - np.ones((3, 3)))
        y1, y2 = update_y(st, model, 1.0)
        assert np.allclose(y1, 0.0) and np.allclose(y2, 0.0)
        st = SolverState(st.X, y1, y2, st.v, st.S)
        v = update_v(st, model, 1.0)
        assert np.allclose(v, 0.0)
        s1, x1 = update_sx(st, model, 1.0)
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
        model, sem = build_bounded(g, 2)
        st = fresh_state(model, sem)
        for _ in range(12):
            y1, y2 = update_y(st, model, 1.0)
            st = SolverState(st.X, y1, y2, st.v, st.S)
            v = update_v(st, model, 1.0)
            assert np.all(v >= 0.0)
            st = SolverState(st.X, st.y1, st.y2, v, st.S)
            s, x = update_sx(st, model, 1.0)
            assert np.linalg.eigvalsh(s).min() >= -1e-10
            st = SolverState(x, st.y1, st.y2, st.v, s)


def rooms_model():
    """A tt8-style room-assignment model whose blocks take the dense kernels."""
    inst = TimetablingInstance(
        graph=gen_gnp(8, 0.5, 1), m=2,
        event_sizes=(20, 50, 100, 20, 50, 100, 20, 50),
        room_capacities=(60, 120),
    )
    model, _ = build_room_assignment(inst)
    return model


LOOP_CASES = {
    "bounded-gnp12": lambda: build_bounded(gen_gnp(12, 0.5, 1), 3),
    "theta-gnp9": lambda: (build_theta(gen_gnp(9, 0.5, 1), "lovasz"), None),
    "rooms-tt8": lambda: (rooms_model(), None),
}


class TestLoopIsTheStep:
    """solve() runs exactly the phases that update_y/update_v/update_sx expose."""

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_solve_matches_chained_updates(self, case, k):
        model, sem = LOOP_CASES[case]()
        cfg = SolverConfig(max_iter=k)  # k < 25, so mu stays at mu0
        res = solve(model, sem, cfg)
        assert res.iterations == k
        st = fresh_state(model, sem)
        for _ in range(k):
            st.y1, st.y2 = update_y(st, model, cfg.mu0)
            st.v = update_v(st, model, cfg.mu0)
            st.S, st.X = update_sx(st, model, cfg.mu0)
        assert np.max(np.abs(res.X_final - st.X)) <= 1e-10


class TestSolveBehaviour:
    def test_determinism(self):
        g = gen_gnp(8, 0.5, 2)
        model, sem = build_bounded(g, 3)
        r1 = solve(model, sem, SolverConfig(max_iter=500))
        r2 = solve(model, sem, SolverConfig(max_iter=500))
        assert r1.value == r2.value
        assert np.array_equal(r1.X_final, r2.X_final)
        assert r1.iterations == r2.iterations

    def test_warm_start_converges(self):
        g = gen_gnp(10, 0.5, 5)
        inst = TimetablingInstance.colouring(g, 3)
        warm = greedy_colouring(inst, 0)
        model, sem = build_bounded(g, 3)
        res = solve(model, sem, SolverConfig(warm_start=warm))
        assert res.status == "converged"
        cold = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(cold.value, abs=5e-3)

    def test_progress_records(self, caplog):
        model, sem = build_bounded(gen_gnp(30, 0.5, 1), 4)
        with caplog.at_level(logging.DEBUG, logger="bcsdp.solver"):
            res = solve(model, sem, SolverConfig(max_iter=450))
        recs = [r.solve for r in caplog.records if hasattr(r, "solve")]
        assert [r["it"] for r in recs] == [200, 400, 450]
        assert set(recs[-1]) == {"it", "pres", "dres", "gap", "value", "mu"}
        # the value is in the bound's units: the offset is included
        assert recs[-1]["value"] == res.value
        assert recs[-1]["pres"] == res.residuals[0]

    def test_infeasible_model_does_not_converge(self):
        from bcsdp.relax import SdpModel, StructureTags, SymRow

        rows = (
            SymRow.from_entries({(0, 0): 1.0}, 1.0),
            SymRow.from_entries({(0, 0): 1.0}, 2.0),
        )
        model = SdpModel(
            dim=1,
            objective=np.array([[1.0]]),
            eq_graph=(),
            eq_other=rows,
            ineq=(),
            sense="min",
            structure=StructureTags(),
        )
        res = solve(model, None, SolverConfig(max_iter=300))
        assert res.status != "converged"

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(mu0=-1.0)


class TestExtractBound:
    def test_k5_certified(self):
        model, sem = build_bounded(complete_graph(5), 1)
        res = solve(model, sem, SolverConfig())
        bound, certified = extract_bound(res, sem)
        assert certified == 5

    def test_diverged_raises(self):
        fake = SolveResult(
            value=3.0,
            X_final=np.zeros((1, 1)),
            residuals=(1.0, 1.0, 1.0),
            iterations=10,
            status="diverged",
            eps=1e-5,
            objective=3.0,
        )
        with pytest.raises(ValueError):
            extract_bound(fake, None)

    def test_safeguard_rounds_down_near_integer(self):
        fake = SolveResult(
            value=4.00001,
            X_final=np.zeros((1, 1)),
            residuals=(0.0, 0.0, 0.0),
            iterations=1,
            status="converged",
            eps=1e-5,
            objective=4.00001,
        )
        bound, certified = extract_bound(fake, None)
        assert certified == 4


class TestPrecolouredValues:
    def test_forced_two_classes(self):
        model, sem = build_precoloured(
            empty_graph(4), 2, [{0, 1}, {2, 3}]
        )
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(2.0, abs=2e-3)

    def test_single_vertex_preclass_changes_nothing(self):
        model, sem = build_precoloured(complete_graph(3), 3, [{0}])
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(3.0, abs=2e-3)

    def test_p3_m1_singletons(self, p3):
        model, sem = build_precoloured(p3, 1, [])
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(3.0, abs=2e-3)


class TestWeightedValues:
    def test_all_ones_equals_bounded(self):
        for seed in range(4):
            g = gen_gnp(6, 0.5, seed + 20)
            for m in (2, 3):
                mw, sw = build_weighted(g, m, (1,) * 6)
                mb, sb = build_bounded(g, m)
                rw = solve(mw, sw, SolverConfig())
                rb = solve(mb, sb, SolverConfig())
                assert rw.value == pytest.approx(rb.value, abs=5e-3)

    def test_single_vertex_full_weight(self):
        model, sem = build_weighted(empty_graph(1), 3, (3,))
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(1.0, abs=2e-3)

    def test_two_saturating_vertices(self):
        model, sem = build_weighted(empty_graph(2), 4, (4, 4))
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(2.0, abs=2e-3)


class TestLaminarValues:
    def test_big_events_single_room(self):
        inst = TimetablingInstance(
            graph=empty_graph(4),
            m=2,
            event_sizes=(100, 100, 100, 100),
            room_capacities=(120, 30),
        )
        model, sem = build_laminar(inst)
        res = solve(model, sem, SolverConfig())
        assert res.value == pytest.approx(4.0, abs=2e-3)

    def test_feature_bottleneck(self):
        inst = TimetablingInstance(
            graph=empty_graph(3),
            m=3,
            feature_count=1,
            event_features=frozenset({(0, 0), (1, 0), (2, 0)}),
            room_features=frozenset({(0, 0)}),
        )
        model, sem = build_laminar(inst, features=True)
        res = solve(model, sem, SolverConfig())
        assert res.value >= 3.0 - 2e-3


class TestRoomValues:
    def test_single_event_room_block_forced(self):
        inst = TimetablingInstance(
            graph=empty_graph(1), m=1, event_sizes=(1,), room_capacities=(2,)
        )
        model, sem = build_room_assignment(inst)
        res = solve(model, sem, SolverConfig(max_iter=4000))
        t_val = res.X_final[0, 0] + 1.0
        assert res.X_final[0, 1] == pytest.approx(t_val, abs=5e-2)

    def test_two_conflicting_events_one_room(self):
        inst = TimetablingInstance(
            graph=complete_graph(2), m=1, event_sizes=(1, 1),
            room_capacities=(2,),
        )
        model, sem = build_room_assignment(inst)
        res = solve(model, sem, SolverConfig(max_iter=4000))
        assert res.value >= 2.0 - 5e-2


class TestOrderings:
    def test_monotone_in_m(self):
        for seed in range(3):
            g = gen_gnp(6, 0.5, seed + 30)
            values = []
            for m in range(1, 7):
                model, sem = build_bounded(g, m)
                values.append(solve(model, sem, SolverConfig()).value)
            for a, b in zip(values, values[1:]):
                assert b <= a + 5e-3

    def test_theta_dominated_by_bounded(self):
        for seed in range(3):
            g = gen_gnp(7, 0.5, seed + 40)
            theta = solve(build_theta(g, "lovasz"), None, SolverConfig()).value
            for m in (2, 3):
                model, sem = build_bounded(g, m)
                val = solve(model, sem, SolverConfig()).value
                assert val >= theta - 5e-3

    def test_theta_variant_ordering(self):
        g = gen_gnp(7, 0.5, 50)
        strict = solve(build_theta(g, "strict"), None, SolverConfig()).value
        lov = solve(build_theta(g, "lovasz"), None, SolverConfig()).value
        strong = solve(build_theta(g, "strong"), None, SolverConfig()).value
        assert strict <= lov + 5e-3
        assert lov <= strong + 5e-3
