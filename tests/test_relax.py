import numpy as np
import pytest

from bcsdp.graphs import (
    TimetablingInstance,
    empty_graph,
    gen_gnp,
    path_graph,
)
from bcsdp.relax import (
    SymRow,
    bounded_sketch,
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
    check_laminar,
    reduce_precolouring,
    to_standard_form,
)

from _reference import gram_of, dense_blocks


class TestSymRow:
    def test_value_and_dense_agree(self):
        row = SymRow.from_entries({(0, 1): 0.5, (2, 2): 1.0}, 3.0)
        x = np.arange(9.0).reshape(3, 3)
        x = 0.5 * (x + x.T)
        assert row.value(x) == pytest.approx(float(np.sum(row.dense(3) * x)))


class TestScaledTransform:
    def test_p3_counts(self, p3):
        model, sem = to_standard_form(bounded_sketch(p3, 2), "scaled")
        assert model.dim == 3
        assert len(model.eq_graph) == 2
        assert all(row.rhs == -1.0 for row in model.eq_graph)
        assert len(model.eq_other) == 2
        assert len(model.ineq) == 3
        assert sem.value_offset == 1.0

    def test_p3_rewritten_order(self, p3):
        model, sem = to_standard_form(bounded_sketch(p3, 2), "rewritten")
        assert model.dim == 6
        assert sem.value_offset == 0.0

    def test_rejects_unknown_transform(self, p3):
        with pytest.raises(ValueError):
            to_standard_form(bounded_sketch(p3, 2), "other")

    def test_rewritten_rejects_general_sketch(self):
        model_sketch = bounded_sketch(empty_graph(3), 2)
        from dataclasses import replace
        from bcsdp.relax import SketchRow

        bad = replace(
            model_sketch,
            rows=model_sketch.rows
            + (SketchRow.make({(0, 1): 0.5}, -1.0, 0.0, "eq"),),
        )
        with pytest.raises(ValueError):
            to_standard_form(bad, "rewritten")

    def test_structure_tags_verified(self):
        g = gen_gnp(8, 0.5, 3)
        model, _ = build_bounded(g, 3)
        tags = model.structure
        assert tags.a1_edge_indicator and tags.a1_gram_scale == 0.5
        assert tags.a2_diagonal_chain
        assert tags.b_row_sum
        n = 8
        assert tags.b_alpha == pytest.approx((3 - 1) ** 2 + (n - 2) / 2)
        assert tags.b_beta == pytest.approx(0.5)
        assert tags.objective_single_entry

    def test_gram_identities_hold_densely(self):
        g = gen_gnp(7, 0.4, 1)
        model, _ = build_bounded(g, 2)
        a1, _, a2, _, groups = dense_blocks(model)
        if a1:
            gram1 = gram_of(a1)
            assert np.allclose(gram1, 0.5 * np.eye(len(a1)), atol=1e-14)
        gram2 = gram_of(a2)
        k = len(a2)
        assert np.allclose(gram2, np.ones((k, k)) + np.eye(k), atol=1e-14)
        kind, mats, _ = groups[0]
        assert kind == "rowsum"
        gram = gram_of(mats)
        tags = model.structure
        want = tags.b_alpha * np.eye(len(mats)) + tags.b_beta * np.ones(
            (len(mats), len(mats))
        )
        assert np.allclose(gram, want, atol=1e-14)


class TestBuilders:
    def test_bounded_rejects_bad_m(self):
        with pytest.raises(ValueError):
            build_bounded(empty_graph(4), 0)
        with pytest.raises(ValueError):
            build_bounded(empty_graph(4), 5)

    def test_theta_variants_shapes(self, c5):
        lov = build_theta(c5, "lovasz")
        strict = build_theta(c5, "strict")
        strong = build_theta(c5, "strong")
        # C5 complement is C5 again: 5 edges
        assert len(lov.eq_graph) == 5 and not lov.ineq
        assert len(strict.eq_graph) == 5 and len(strict.ineq) == 5
        assert not strong.eq_graph and len(strong.ineq) == 5
        assert lov.sense == "max"

    def test_theta_rejects_unknown_variant(self, c5):
        with pytest.raises(ValueError):
            build_theta(c5, "nope")

    def test_precoloured_rejects_bad_classes(self):
        g = empty_graph(4)
        with pytest.raises(ValueError):
            build_precoloured(g, 2, [{0, 1, 2}])
        with pytest.raises(ValueError):
            build_precoloured(g, 2, [{0, 1}, {1, 2}])

    def test_weighted_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            build_weighted(empty_graph(2), 1, (1, 0))

    def test_room_assignment_shapes(self):
        inst = TimetablingInstance(
            graph=empty_graph(1), m=1, event_sizes=(1,), room_capacities=(1,)
        )
        model = build_room_assignment(inst)
        assert model.dim == 2

    def test_room_assignment_infeasible_event(self):
        inst = TimetablingInstance(
            graph=empty_graph(1),
            m=1,
            feature_count=1,
            event_features=frozenset({(0, 0)}),
            room_features=frozenset(),
        )
        with pytest.raises(ValueError):
            build_room_assignment(inst)


class TestReducePrecolouring:
    def test_contract_empty_graph(self):
        g, w = reduce_precolouring(empty_graph(3), 2, [{0, 1}])
        assert g.n == 2
        assert w == (2, 1)

    def test_edge_inside_class_infeasible(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            reduce_precolouring(g, 2, [{0, 1}])

    def test_edges_unioned(self):
        g = path_graph(3)  # edges (0,1),(1,2)
        q, w = reduce_precolouring(g, 2, [{0, 2}])
        assert q.n == 2 and q.num_edges == 1
        assert w == (2, 1)


class TestLaminar:
    def test_check_laminar(self):
        assert check_laminar([frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({4})])
        assert not check_laminar([frozenset({1, 2}), frozenset({2, 3})])

    def test_uniform_capacity_equals_bounded(self):
        g = gen_gnp(6, 0.4, 5)
        inst = TimetablingInstance(
            graph=g, m=3, event_sizes=(2,) * 6, room_capacities=(4, 4, 4)
        )
        lam, _ = build_laminar(inst)
        bnd, _ = build_bounded(g, 3)

        def canon(model):
            return sorted(
                (r.idx_i, r.idx_j, r.coeff, r.rhs)
                for r in (*model.eq_graph, *model.eq_other, *model.ineq)
            )

        assert canon(lam) == canon(bnd)

    def test_nonlaminar_features_rejected(self):
        inst = TimetablingInstance(
            graph=empty_graph(3),
            m=2,
            feature_count=2,
            event_features=frozenset({(0, 0), (1, 0), (1, 1), (2, 1)}),
            room_features=frozenset({(0, 0), (1, 1)}),
        )
        with pytest.raises(ValueError):
            build_laminar(inst, features=True)

    def test_counting_rows_added(self):
        inst = TimetablingInstance(
            graph=empty_graph(4),
            m=2,
            event_sizes=(5, 5, 1, 1),
            room_capacities=(10, 2),
        )
        base, _ = build_laminar(inst, counting=False)
        with_counting, _ = build_laminar(inst, counting=True)
        assert len(with_counting.ineq) > len(base.ineq)
