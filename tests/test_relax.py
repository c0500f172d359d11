import hashlib

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
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
    check_laminar,
    reduce_precolouring_atoms,
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
        model, sem = build_bounded(p3, 2)
        assert model.dim == 3
        assert len(model.eq_graph) == 2
        assert all(row.rhs == -1.0 for row in model.eq_graph)
        assert len(model.eq_other) == 2
        assert len(model.ineq) == 3
        assert sem.value_offset == 1.0

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
        model, sem = build_room_assignment(inst)
        assert model.dim == 2
        assert sem.value_offset == 1.0

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
        g, w, _ = reduce_precolouring_atoms(empty_graph(3), 2, [{0, 1}])
        assert g.n == 2
        assert w == (2, 1)

    def test_edge_inside_class_infeasible(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            reduce_precolouring_atoms(g, 2, [{0, 1}])

    def test_edges_unioned(self):
        g = path_graph(3)  # edges (0,1),(1,2)
        q, w, _ = reduce_precolouring_atoms(g, 2, [{0, 2}])
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



def _model_digest(built) -> str:
    """sha256 over everything a builder emits: order, sense, objective bytes,
    every row of every block as (idx_i, idx_j, coeff, rhs), and ineq_groups."""
    model = built[0] if isinstance(built, tuple) else built
    h = hashlib.sha256()
    h.update(repr((model.dim, model.sense, model.ineq_groups)).encode())
    h.update(model.objective.tobytes())
    for block in (model.eq_graph, model.eq_other, model.ineq):
        h.update(repr([(r.idx_i, r.idx_j, r.coeff, r.rhs) for r in block]).encode())
    return h.hexdigest()


def _golden_instance(precolouring=()):
    """gnp:12 with six events of size 5, six of size 1, capacities (10, 2, 2)
    and one feature held by events {0, 1} and room 0."""
    return TimetablingInstance(
        graph=gen_gnp(12, 0.5, 3),
        m=3,
        event_sizes=(5,) * 6 + (1,) * 6,
        room_capacities=(10, 2, 2),
        feature_count=1,
        event_features=frozenset({(0, 0), (1, 0)}),
        room_features=frozenset({(0, 0)}),
        precolouring=precolouring,
    )


def _g12():
    return gen_gnp(12, 0.5, 3)


# Builder calls and the digests of their emitted models, recorded before the
# builders were rewritten without the intermediate sketch rows; any change to
# an emitted number, row order or group changes the digest.
GOLDEN_MODELS = {
    "bounded-n1-m1": (
        lambda: build_bounded(gen_gnp(1, 0.5, 7), 1),
        "d822acd95498973a696dfc0a2a4ed81c63d4c8a63125b522aa04846371770d2f"),
    "bounded-n5-m1": (
        lambda: build_bounded(gen_gnp(5, 0.5, 7), 1),
        "a27033a02f2b95d36efd1f0fbf1c6ac458c95573c03f5ff6e33fc882682113a6"),
    "bounded-n5-m3": (
        lambda: build_bounded(gen_gnp(5, 0.5, 7), 3),
        "8440a983281e75099da87f1b3e41e855bc66fbb8d721d381ca8487f9fd98b5c9"),
    "bounded-n40-m1": (
        lambda: build_bounded(gen_gnp(40, 0.5, 7), 1),
        "655497c955ef008696a77808d5d7df3f20f4285426d9c0f533ea7251243eaa29"),
    "bounded-n40-m3": (
        lambda: build_bounded(gen_gnp(40, 0.5, 7), 3),
        "5666f888be976c5316436a04b085f7980258ee0a041cb40026bc22130bc7f6a4"),
    "precoloured": (
        lambda: build_precoloured(_g12(), 3, [{0, 3, 9}, {1, 4}]),
        "d3cd7816284c81536dd852297263ff1237966d9e34772207276ff0c1c01ef82e"),
    "weighted": (
        lambda: build_weighted(_g12(), 3, (1, 2, 1, 3, 1, 1, 2, 1, 1, 2, 1, 1)),
        "e140acb6d4796fe0dc6ed88ce1c283f826d8f35b02957b8e7c8bb97afe5ab861"),
    "laminar": (
        lambda: build_laminar(_golden_instance()),
        "29948d2bc54d7bc9f772a5f140be938c6fb78c35372c5b9a245e8f276fe0f1c5"),
    "laminar-counting": (
        lambda: build_laminar(_golden_instance(), counting=True),
        "ed7d365c765eb8ee6470b2c3dafdfd97de05295979b21e2b605e102fe0d2350f"),
    "laminar-features": (
        lambda: build_laminar(_golden_instance(), features=True),
        "1a041630889c76aea336d40b8b7de58133337636ed380524c48464349b0697f1"),
    "laminar-counting-features": (
        lambda: build_laminar(_golden_instance(), counting=True, features=True),
        "c966dc99bd342450aded5d84473e50ff028530c50199e2e4c32c55c3d55d5a7a"),
    "laminar-precoloured": (
        lambda: build_laminar(
            _golden_instance((frozenset({1, 4}), frozenset({8, 10}))),
            counting=True, features=True),
        "89a1eaccfb018d0385a6229857e2debc0fcdd97cf2930f50c8e22554c12b9411"),
    "rooms": (
        lambda: build_room_assignment(_golden_instance()),
        "d6cfc6b2755859503815991012ff1f893a807edc0a79d59cf739078d018a1774"),
    "rooms-stability": (
        lambda: build_room_assignment(_golden_instance(), room_stability=True),
        "d00bc0b09631dd4333e22cd245905996f88e796b4b04d8f877ac0b285a5b68be"),
    "theta-lovasz": (
        lambda: build_theta(_g12(), "lovasz"),
        "5b2e32233fae610977937b7edbbe0c2693d0603e1986349a31ccf49025cd6887"),
    "theta-strict": (
        lambda: build_theta(_g12(), "strict"),
        "143282f038fc2cd8c8636b747f7f85106b8077c290912c37688ef9b6ca1c2e77"),
    "theta-strong": (
        lambda: build_theta(_g12(), "strong"),
        "335ee8add17b6d6c5930c99378d11e74534b4a5a3001360f848f2af2708d2ca0"),
}


class TestModelGolden:
    @pytest.mark.parametrize("case", list(GOLDEN_MODELS))
    def test_emitted_model_unchanged(self, case):
        build, digest = GOLDEN_MODELS[case]
        assert _model_digest(build()) == digest
