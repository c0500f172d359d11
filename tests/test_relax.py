import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsdp.graphs import (
    TimetablingInstance,
    complete_graph,
    empty_graph,
    gen_gnp,
    gen_kneser,
    path_graph,
)
from bcsdp.relax import (
    NO_ROWS,
    Atoms,
    Coo,
    SdpModel,
    SymRow,
    build_bounded,
    build_laminar,
    build_precoloured,
    build_room_assignment,
    build_theta,
    build_weighted,
    check_laminar,
    _class_rows,
    verify_structure,
)
from bcsdp import cli
from bcsdp.solver import _Compiled, solve

from _reference import compile_rows, gram_of, dense_blocks, theta_rows_by_complement
from conftest import reduced_model


class TestSymRow:
    def test_value_and_dense_agree(self):
        row = SymRow.from_entries({(0, 1): 0.5, (2, 2): 1.0}, 3.0)
        x = np.arange(9.0).reshape(3, 3)
        x = 0.5 * (x + x.T)
        assert row.value(x) == pytest.approx(float(np.sum(row.dense(3) * x)))


def _dict_column(v, members, weights=None):
    """Sum of c_u Y_uv over members, as a dict at canonical keys."""
    entries = {}
    for u in members:
        w = 1.0 if weights is None else float(weights[u])
        entries[(min(u, v), max(u, v))] = w if u == v else w / 2.0
    return entries


def _dict_scaled_row(entries, t_coeff, diag, relation):
    """The row <A, Y> + t_coeff * t (= | <=) 0 in X = Y - J, t = X_dd + 1: the
    substitution on a dict of entries, then SymRow.from_entries."""
    entries = dict(entries)
    a_j = sum(c * (2.0 if i != j else 1.0) for (i, j), c in entries.items())
    entries[(diag, diag)] = entries.get((diag, diag), 0.0) + t_coeff
    rhs = -a_j - t_coeff
    if relation == "<=":
        return SymRow.from_entries({k: -c for k, c in entries.items()}, -rhs)
    return SymRow.from_entries(entries, rhs)


class TestScaledRow:
    """Rows written straight into their record equal the dict reference,
    read through the record's row view."""

    @staticmethod
    def _assert_same(row, ref):
        assert row.idx_i == ref.idx_i and row.idx_j == ref.idx_j
        assert row.coeff == ref.coeff and row.rhs == ref.rhs
        assert repr(row) == repr(ref)

    @pytest.mark.parametrize("n,m,weights", [
        (1, 1, None),
        (5, 1, None),
        (6, 4, None),
        # weight m at vertices 1 and 3: their diagonal coefficient is zero
        (6, 3, (1, 3, 2, 3, 1, 1)),
        (4, 1, (1, 1, 1, 1)),
    ])
    def test_row_sums(self, n, m, weights):
        rows = _class_rows(range(n), weights or [1] * n, m).rows()
        refs = [_dict_scaled_row(_dict_column(v, range(n), weights), -float(m), v, "<=")
                for v in range(n)]
        kept = [ref for ref in refs if ref.coeff]
        assert len(rows) == len(kept)
        for row, ref in zip(rows, kept):
            self._assert_same(row, ref)
        if weights is not None:
            for v, w in enumerate(weights):
                assert ((v, v) in zip(rows[v].idx_i, rows[v].idx_j)) == (w != m)

    @pytest.mark.parametrize("relation", ["<=", "="])
    @pytest.mark.parametrize("v,members", [
        (2, [0, 1, 4]),  # v is no member: it anchors with weight 0
        (0, [0, 3]),
        (4, [1, 2, 4]),
        (3, [3]),
    ])
    def test_subsets_and_relations(self, v, members, relation):
        weights = [2, 1, 3, 1, 2]
        if v not in members:
            weights[v] = 0
        holders = sorted(set(members) | {v})
        for rooms in (1, 2, 3, 4):
            rows = {row_anchor: row for row_anchor, row in zip(
                [u for u in holders if weights[u] != rooms or len(holders) > 1],
                _class_rows(holders, weights, rooms).rows())}
            ref = _dict_scaled_row(_dict_column(v, members, weights),
                                   -float(rooms), v, relation)
            if not ref.coeff:  # a lone member of weight rooms: 0 >= 0
                assert v not in rows and ref.rhs == 0.0
                continue
            row = rows[v]
            if relation == "=":  # the model's ">=" row is the "<=" row negated
                row = SymRow(row.idx_i, row.idx_j,
                             tuple(-c for c in row.coeff), -row.rhs)
            self._assert_same(row, ref)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_subsets_match_reference(self, data):
        # ascending but not contiguous, as the holders of a laminar level are
        rooms = data.draw(st.integers(1, 6))
        members = sorted(data.draw(st.sets(st.integers(0, 11), min_size=1, max_size=8)))
        weights = data.draw(st.lists(st.integers(1, rooms + 1), min_size=12, max_size=12))
        rows = _class_rows(members, weights, rooms).rows()
        refs = [_dict_scaled_row(_dict_column(v, members, weights), -float(rooms), v, "<=")
                for v in members]
        assert repr(list(rows)) == repr([ref for ref in refs if ref.coeff])

    def test_only_a_lone_member_of_weight_rooms_is_dropped(self):
        # its row reads 0 >= 0
        ref = _dict_scaled_row(_dict_column(2, [2], [1, 1, 3]), -3.0, 2, "<=")
        assert ref.coeff == () and ref.rhs == 0.0
        assert _class_rows([2], [1, 1, 3], 3).rows() == ()
        # any other weight keeps the diagonal, and a second member keeps both
        # rows, though each anchor's diagonal is zero
        assert [row.coeff for row in _class_rows([2], [1, 1, 2], 3).rows()] == [(1.0,)]
        assert [row.coeff for row in _class_rows([1, 2], [1, 3, 3], 3).rows()] == [
            (-1.5,)] * 2

    def test_zero_rhs_is_negative_zero(self):
        # weights summing to rooms: the reference writes rhs -0.0, and the
        # closed form must write the same bits
        rows = _class_rows([1, 3], [1, 1, 1, 2], 3).rows()
        refs = [_dict_scaled_row(_dict_column(v, [1, 3], [1, 1, 1, 2]), -3.0, v, "<=")
                for v in (1, 3)]
        assert repr(list(rows)) == repr(refs)
        assert [repr(row.rhs) for row in rows] == ["-0.0", "-0.0"]


class TestScaledTransform:
    def test_p3_counts(self, p3):
        model = build_bounded(p3, 2)
        assert model.dim == 3
        assert len(model.eq_graph) == 2
        assert all(row.rhs == -1.0 for row in model.eq_graph)
        assert len(model.eq_other) == 2
        assert len(model.ineq) == 3
        assert model.value_offset == 1.0 and model.trace_ratio == 3.0

    @staticmethod
    def _closed_form_grams(model, m):
        """Edge rows 1/2 I, the chain J + I, the row sums alpha I + beta J."""
        n = model.dim
        alpha, beta = (m - 1) ** 2 + (n - 2) / 2, 0.5
        return (0.5 * np.eye(len(model.eq_graph)),
                np.ones((n - 1, n - 1)) + np.eye(n - 1),
                alpha * np.eye(n) + beta * np.ones((n, n)))

    @staticmethod
    def _diagonal_blocks(model):
        """(rhs, Gram) of each block, cut out of the one stacked compile."""
        rhs, _, gram, ends = verify_structure(model)
        gram = gram.toarray()
        return [(rhs[a:b], gram[a:b, a:b]) for a, b in zip(ends, ends[1:])]

    def test_compiled_grams_have_closed_forms(self):
        model = build_bounded(gen_gnp(8, 0.5, 3), 3)
        compiled = self._diagonal_blocks(model)
        want = self._closed_form_grams(model, 3)
        assert len(compiled) == len(want)
        for (_, gram), closed in zip(compiled, want):
            assert np.allclose(gram, closed, atol=1e-14)

    def test_gram_identities_hold_densely(self):
        model = build_bounded(gen_gnp(7, 0.4, 1), 2)
        a1, b1, a2, b2, groups = dense_blocks(model)
        assert [kind for kind, _, _ in groups] == ["rowsum"]
        dense = [(a1, b1), (a2, b2), *((mats, rhs) for _, mats, rhs in groups)]
        compiled = self._diagonal_blocks(model)
        want = self._closed_form_grams(model, 2)
        for (rhs, gram), (mats, dense_rhs), closed in zip(compiled, dense, want):
            assert np.allclose(gram_of(mats), closed, atol=1e-14)
            assert np.allclose(gram, gram_of(mats), atol=1e-14)
            assert np.array_equal(rhs, dense_rhs)
        # the off-diagonal blocks are the Gram entries between blocks
        _, _, gram, _ = verify_structure(model)
        every = [m for mats, _ in dense for m in mats]
        assert np.allclose(gram.toarray(), gram_of(every), atol=1e-14)


def _record(ptr, i, j, coeff, rhs):
    return Coo(np.array(ptr), np.array(i), np.array(j), np.array(coeff, float),
               np.array(rhs, float))


class TestModelChecks:
    """Every refusal reads the records: entries, edge rows and groups."""

    @pytest.mark.parametrize("row", [
        SymRow((1,), (0,), (1.0,), 0.0),   # below the diagonal
        SymRow((0,), (3,), (1.0,), 0.0),   # past the order
        SymRow((-1,), (0,), (1.0,), 0.0),  # negative index
    ])
    def test_entry_out_of_range_rejected(self, row):
        for block in ("eq_graph_coo", "eq_other_coo", "ineq_coo"):
            groups = (("generic", 0, 2),) if block == "ineq_coo" else ()
            with pytest.raises(ValueError, match="out of range"):
                SdpModel(dim=3, objective=np.eye(3), sense="min", ineq_groups=groups,
                         **{block: Coo.of((SymRow((0,), (0,), (1.0,), 1.0), row))})

    @pytest.mark.parametrize("row", [
        SymRow((), (), (), -1.0),                   # no entry
        SymRow((0, 1), (1, 2), (0.5, 0.5), -1.0),  # two entries
    ])
    def test_edge_row_without_one_entry_rejected(self, row):
        edge = SymRow((0,), (1,), (0.5,), -1.0)
        with pytest.raises(ValueError, match="single symmetric position"):
            SdpModel(dim=3, objective=np.eye(3), sense="min",
                     eq_graph_coo=Coo.of((edge, row)))
        # the same rows are fine as other equalities
        SdpModel(dim=3, objective=np.eye(3), sense="min",
                 eq_other_coo=Coo.of((edge, row)))

    @pytest.mark.parametrize("ptr", [
        [0, 2, 1, 3],  # a row that ends before it starts
        [1, 2, 2, 3],  # not from 0
        [0, 1, 2, 2],  # not to the entry count
    ])
    def test_non_monotone_row_pointer_rejected(self, ptr):
        rec = _record(ptr, [0, 1, 2], [0, 1, 2], [1.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError, match="row pointer is not monotone"):
            SdpModel(dim=3, objective=np.eye(3), sense="min", eq_other_coo=rec)
        SdpModel(dim=3, objective=np.eye(3), sense="min",
                 eq_other_coo=_record([0, 1, 2, 3], [0, 1, 2], [0, 1, 2], [1.0] * 3,
                                      [1.0] * 3))

    @pytest.mark.parametrize("lengths", [
        (2, 3, 3, 3, 4),  # i
        (3, 4, 3, 3, 4),  # j
        (3, 3, 2, 3, 4),  # coeff
        (3, 3, 3, 2, 4),  # rhs
        (3, 3, 3, 3, 3),  # ptr
    ])
    def test_arrays_of_different_lengths_rejected(self, lengths):
        ni, nj, nc, nr, np_ = lengths
        rec = _record([0, 1, 2, 3, 3][:np_], [0, 1, 2][:ni], [0, 1, 2, 2][:nj],
                      [1.0] * nc, [1.0] * nr)
        with pytest.raises(ValueError, match="differ in length"):
            SdpModel(dim=3, objective=np.eye(3), sense="min", eq_other_coo=rec)

    def test_rows_with_unequal_index_tuples_rejected(self):
        # the converter keeps what the rows hold, and the record check refuses it
        row = SymRow((0, 1), (0,), (1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="differ in length"):
            SdpModel(dim=3, objective=np.eye(3), sense="min", eq_other_coo=Coo.of((row,)))


class TestIneqGroups:
    @staticmethod
    def _model(groups):
        rows = tuple(SymRow.from_entries({(i, i): 1.0}, 0.0) for i in range(3))
        return SdpModel(dim=3, objective=np.eye(3), sense="min",
                        ineq_coo=Coo.of(rows), ineq_groups=groups)

    def test_tiling_groups_accepted(self):
        model = self._model((("rowsum", 0, 2), ("pairs", 2, 3)))
        assert [g.k for g in _Compiled(model).blocks[2:]] == [2, 1]

    def test_ungrouped_rows_rejected(self):
        with pytest.raises(ValueError):
            self._model(())

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            self._model((("rowsum", 0, 1), ("pairs", 2, 3)))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            self._model((("rowsum", 0, 2), ("pairs", 1, 3)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            self._model((("rowsum", 0, 2), ("colsum", 2, 3)))


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

    @pytest.mark.parametrize("variant", ["lovasz", "strict", "strong"])
    def test_theta_rows_match_the_complement_graph(self, variant):
        graphs = [empty_graph(5), complete_graph(5), gen_kneser(5, 2),
                  gen_kneser(6, 2), gen_gnp(12, 0.5, 1), gen_gnp(20, 0.3, 4)]
        for g in graphs:
            eq, pairs = theta_rows_by_complement(g, variant)
            model = build_theta(g, variant)
            assert model.eq_graph == tuple(eq)
            assert model.ineq == tuple(pairs)

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

    @pytest.mark.parametrize("m, c", [
        (0, (1, 1, 1, 1)),
        (5, (1, 1, 1, 1)),
        (2, (1, 3, 1, 1)),
    ])
    def test_weighted_rejects_m_outside_its_range(self, m, c):
        # like build_bounded's 1 <= m <= n, with sum(c) for n; a vertex
        # heavier than m fits no class, as `Atoms` refuses such a pre-class
        with pytest.raises(ValueError, match=r"require max\(c\) <= m <= sum\(c\)"):
            build_weighted(empty_graph(4), m, c)
        build_weighted(empty_graph(4), sum(c), c)
        build_weighted(empty_graph(4), max(c), c)

    def test_room_assignment_shapes(self):
        inst = TimetablingInstance(
            graph=empty_graph(1), m=1, event_sizes=(1,), room_capacities=(1,)
        )
        model = build_room_assignment(inst)
        assert model.dim == 2
        assert model.value_offset == 1.0 and model.trace_ratio is None

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


def _atoms(g, m, pre):
    """Atoms of g at m with pre as its pre-classes."""
    return Atoms(TimetablingInstance(g, m, precolouring=tuple(map(frozenset, pre))))


class TestReducePrecolouring:
    def test_contract_empty_graph(self):
        atoms = _atoms(empty_graph(3), 2, [{0, 1}])
        assert atoms.graph.n == atoms.k == 2
        assert tuple(map(len, atoms.members)) == (2, 1)

    def test_edge_inside_class_infeasible(self):
        g = path_graph(2)
        with pytest.raises(ValueError, match="conflicting vertices 0,1 share a class"):
            _atoms(g, 2, [{0, 1}])

    def test_edges_unioned(self):
        g = path_graph(3)  # edges (0,1),(1,2)
        atoms = _atoms(g, 2, [{0, 2}])
        q = atoms.graph
        assert q.n == 2 and q.num_edges == 1
        assert tuple(map(len, atoms.members)) == (2, 1)
        assert atoms.members == ((0, 2), (1,)) and list(atoms.atom_of) == [0, 1, 0]
        assert atoms.adj == q.adjacency_bitsets() == (0b10, 0b01)

    def test_no_preclass_keeps_the_instance_graph(self):
        # without a pre-class every vertex is its own atom and nothing is rebuilt
        inst = TimetablingInstance.colouring(gen_gnp(20, 0.5, 3), 4)
        atoms = Atoms(inst)
        assert atoms.graph is inst.graph
        assert atoms.adj is inst.graph.adjacency_bitsets()
        assert atoms.members == tuple((v,) for v in range(20))
        assert list(atoms.atom_of) == list(range(20))

    @pytest.mark.parametrize("pre, message", [
        ([{0, 1, 2}], "class larger than m"),
        ([{0, 1}, {1, 2}], "classes must be disjoint"),
        ([{0, 4}], "vertex out of range"),
    ])
    def test_build_precoloured_checks_like_the_instance(self, pre, message):
        # a library caller that builds the model without an instance gets
        # the instance's own check, message for message
        with pytest.raises(ValueError, match=message):
            build_precoloured(empty_graph(4), 2, pre)
        with pytest.raises(ValueError, match=message):
            TimetablingInstance(empty_graph(4), m=2,
                                precolouring=tuple(frozenset(c) for c in pre))


class TestLaminar:
    def test_check_laminar(self):
        assert check_laminar([frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({4})])
        assert not check_laminar([frozenset({1, 2}), frozenset({2, 3})])

    def test_uniform_capacity_equals_bounded(self):
        g = gen_gnp(6, 0.4, 5)
        inst = TimetablingInstance(
            graph=g, m=3, event_sizes=(2,) * 6, room_capacities=(4, 4, 4)
        )
        lam = build_laminar(inst)
        bnd = build_bounded(g, 3)

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

    @pytest.mark.parametrize("features", [False, True])
    def test_preclass_fitting_no_rooms_refused(self, features):
        # {1, 4} holds two size-5 events and one room holds more than 2
        inst = _golden_instance((frozenset({1, 4}), frozenset({8, 10})))
        with pytest.raises(ValueError, match=r"events \[1, 4\] fit no room"):
            build_laminar(inst, features=features)


def _model_digest(model) -> str:
    """sha256 over everything a builder emits: order, sense, objective bytes,
    every row of every block as (idx_i, idx_j, coeff, rhs), and ineq_groups."""
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
# builders were rewritten without the intermediate sketch rows ("precoloured"
# and "weighted" re-recorded when their copy of the row-sum group, "colsum",
# was dropped; "precoloured", "laminar-features" and "laminar-precoloured"
# re-recorded when pre-classes were contracted to atoms and the aggregate
# feature-total row was dropped; "laminar-precoloured" moved from pre-class
# {1, 4}, which fits no room arrangement and is now refused, to {1, 6}, whose
# digest is the same before and after that refusal); any change to an emitted
# number, row order or group changes the digest.
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
        "d7515666af514dddc0c3235f58940f6a7b3cabdfe1d8a2a51390d66252c4ad74"),
    "weighted": (
        lambda: build_weighted(_g12(), 3, (1, 2, 1, 3, 1, 1, 2, 1, 1, 2, 1, 1)),
        "f97f11a1c8adfd0df6eb4518f385e55cbb52fea80edf0de223804d23acdd1ef7"),
    "laminar": (
        lambda: build_laminar(_golden_instance()),
        "29948d2bc54d7bc9f772a5f140be938c6fb78c35372c5b9a245e8f276fe0f1c5"),
    "laminar-features": (
        lambda: build_laminar(_golden_instance(), features=True),
        "0e03c58885bc2cecb6b5e733cfa338b8fb37193477f7e4476c7d3bed691835fa"),
    "laminar-precoloured": (
        lambda: build_laminar(
            _golden_instance((frozenset({1, 6}), frozenset({8, 10}))),
            features=True),
        "b93e03f90eee8598968e29ddde2e67de298682fa14b408f646fc34d5a654cc80"),
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


# Every builder's model, and iterative rounding's box model, for the record
# checks: the golden builds, a bounded model whose row-sum rhs are all -0.0
# (m = n) and `rounding._reduced_model`
RECORD_CASES = {
    **{case: build for case, (build, _) in GOLDEN_MODELS.items()},
    "bounded-n12-m12": lambda: build_bounded(_g12(), 12),
    "reduced": reduced_model,
}

_FIELDS = ("ptr", "i", "j", "coeff", "rhs")


def _same_record(a, b):
    """The two records hold the same arrays, dtype and bytes (so -0.0 too)."""
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in _FIELDS)


class TestRecordRows:
    """The records, their row views and the one converter agree."""

    @pytest.mark.parametrize("case", list(RECORD_CASES))
    def test_rows_convert_back_to_the_same_record(self, case):
        model = RECORD_CASES[case]()
        for coo, rows in ((model.eq_graph_coo, model.eq_graph),
                          (model.eq_other_coo, model.eq_other),
                          (model.ineq_coo, model.ineq)):
            assert _same_record(Coo.of(rows), coo)
            assert Coo.of(rows).rows() == rows

    @pytest.mark.parametrize("case", list(RECORD_CASES))
    def test_compile_equals_the_row_walk(self, case):
        # the stacked A, rhs and Gram, bit for bit, and the block ends
        model = RECORD_CASES[case]()
        got, want = verify_structure(model), compile_rows(model)
        assert got[3] == want[3]
        arrays = [(got[0], want[0])]
        for a, b in zip(got[1:3], want[1:3]):
            arrays += [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)]
        for a, b in arrays:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_zero_rhs_stays_negative_zero(self):
        model = build_bounded(_g12(), 12)
        assert [repr(row.rhs) for row in model.ineq] == ["-0.0"] * 12
        assert np.all(np.signbit(model.ineq_coo.rhs))
        # the rows of the tuple builders, before the models carried records
        assert _model_digest(model) == (
            "0dba53647ebf71f43b50ee76a3bb3c732bb1585440e0fb1b1f5ed7325d912308")

    def test_reduced_model_rows_unchanged(self):
        # the rows `_reduced_model` emitted as SymRows before it went through
        # the converter; its coefficients were numpy floats then, so the
        # digest reads every number as a Python float
        model = reduced_model()
        values = [[(r.idx_i, r.idx_j, tuple(map(float, r.coeff)), float(r.rhs))
                   for r in block] for block in (model.eq_graph, model.eq_other, model.ineq)]
        digest = hashlib.sha256(repr(
            (model.dim, model.sense, model.ineq_groups, values)).encode()).hexdigest()
        assert digest == "4ac36b5ca04f3ee826b0b3a960c077dcc1d0ff8ee4c446f06791e6977944592b"

    def test_stack_keeps_row_order(self):
        blocks = [_class_rows([0, 2], [1, 1, 1], 2), NO_ROWS, _class_rows([1], [1, 1, 1], 3)]
        stacked = Coo.stack(blocks)
        assert stacked.rows() == sum((b.rows() for b in blocks), ())
        assert _same_record(Coo.stack([]), NO_ROWS)


class TestNoRowViewOnTheSolvePath:
    """The bounded path compiles the records and never builds a row view."""

    def test_bounded_solve_bound_and_kms_colour(self, monkeypatch, capsys):
        views = []
        rows = Coo.rows

        def counting(self):
            views.append(len(self))
            return rows(self)

        monkeypatch.setattr(Coo, "rows", counting)
        model = build_bounded(gen_gnp(45, 0.5, 1), 5)
        assert solve(model).status == "converged"
        assert cli.main(["bound", "--gen", "gnp:45,0.5,1", "--m", "5"]) == 0
        assert cli.main(["colour", "--gen", "gnp:45,0.5,1", "--m", "5",
                         "--method", "kms"]) == 0
        assert views == []
        # a read of a view is counted
        assert len(model.eq_other) == 44
        assert views == [44]
