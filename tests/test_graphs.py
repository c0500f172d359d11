import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsdp.graphs import (
    ClassCounts,
    ConflictGraph,
    Partition,
    TimetablingInstance,
    class_violations,
    complete_graph,
    connected_components,
    counting_bound,
    empty_graph,
    gen_forbidden_intersection,
    gen_gnp,
    gen_kneser,
    path_graph,
    validate_partition,
)

from _reference import class_violations_loop, gen_gnp_loop


class TestConflictGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConflictGraph(3, frozenset({(0, 3)}))

    def test_edges_deduplicated_and_ordered(self):
        g = ConflictGraph.from_edges(3, [(2, 1), (1, 2), (0, 1)])
        assert g.edges == frozenset({(1, 2), (0, 1)})
        assert g.adjacency_bitsets()[1] == 0b101  # neighbours 0 and 2

    def test_adjacency_consistent(self):
        g = gen_gnp(30, 0.4, 7)
        adj = g.adjacency_bitsets()
        for u, v in g.edges:
            assert adj[u] >> v & 1 and adj[v] >> u & 1
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges

    def test_adjacency_built_once(self):
        # the bitsets are the graph's one adjacency, made at construction
        g = gen_gnp(30, 0.4, 7)
        assert g.adjacency_bitsets() is g.adjacency_bitsets()
        assert g.adjacency_bitsets() == tuple(
            sum(1 << w for w in range(g.n) if g.is_edge(v, w)) for v in range(g.n))

    def test_complement_partitions_pairs(self):
        g = gen_gnp(12, 0.3, 3)
        non = g.non_edges()
        assert g.num_edges + len(non) == 12 * 11 // 2
        assert not (g.edges & set(non))
        assert non == sorted(non)


class TestGnp:
    def test_p_zero_empty(self):
        assert gen_gnp(5, 0.0, 123).num_edges == 0

    def test_p_one_complete(self):
        assert gen_gnp(5, 1.0, 9).num_edges == 10

    def test_expected_density_window(self):
        # binomial(4950, 0.5), six-sigma window
        assert 2200 <= gen_gnp(100, 0.5, 1).num_edges <= 2700

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, 0)
        with pytest.raises(ValueError):
            gen_gnp(5, -0.1, 0)

    @given(st.integers(0, 20), st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, n, p, seed):
        assert gen_gnp(n, p, seed).edges == gen_gnp(n, p, seed).edges

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 45, 160])
    def test_same_edges_as_the_pair_loop(self, n):
        for p in (0.0, 0.3, 0.5, 1.0):
            for seed in (0, 1, 101):
                assert gen_gnp(n, p, seed).edges == gen_gnp_loop(n, p, seed), (p, seed)


class TestKneser:
    def test_k3_triangle(self):
        g = gen_kneser(3, 1)
        assert g.n == 3 and g.num_edges == 3

    def test_petersen(self):
        g = gen_kneser(5, 2)
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_k62(self):
        g = gen_kneser(6, 2)
        assert g.n == 15 and g.num_edges == 45

    def test_rejects_k_ge_n(self):
        with pytest.raises(ValueError):
            gen_kneser(3, 3)
        with pytest.raises(ValueError):
            gen_kneser(4, 0)

    @given(st.integers(2, 8), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_counts_and_regularity(self, n, k):
        if k >= n:
            return
        g = gen_kneser(n, k)
        assert g.n == math.comb(n, k)
        deg = math.comb(n - k, k)
        assert all(g.degree(v) == deg for v in range(g.n))


class TestForbiddenIntersection:
    def test_hypercube_distance_one(self):
        g = gen_forbidden_intersection(6, 5 / 6)
        assert g.n == 64
        assert all(g.degree(v) == 6 for v in range(64))

    def test_distance_two(self):
        g = gen_forbidden_intersection(6, 2 / 3)
        assert g.n == 64
        assert all(g.degree(v) == 15 for v in range(64))

    def test_two_bits_four_cycle(self):
        g = gen_forbidden_intersection(2, 0.5)
        assert g.n == 4 and g.num_edges == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_rejects_non_integer_distance(self):
        with pytest.raises(ValueError):
            gen_forbidden_intersection(6, 0.83)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            gen_forbidden_intersection(6, 1.0)


class TestComponents:
    def test_empty_graph_singletons(self):
        comps = connected_components(empty_graph(4))
        assert len(comps) == 4
        assert all(len(c) == 1 for c in comps)

    def test_complete_single_component(self):
        comps = connected_components(complete_graph(5))
        assert comps == [frozenset(range(5))]

    def test_two_components_sorted_by_size(self):
        g = ConflictGraph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        comps = connected_components(g)
        assert [len(c) for c in comps] == [2, 3]

    @pytest.mark.parametrize("n, p, seed", [(0, 0.5, 1), (30, 0.04, 1), (60, 0.03, 2),
                                            (45, 0.5, 3)])
    def test_components_match_union_find(self, n, p, seed):
        g = gen_gnp(n, p, seed)
        root = list(range(n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in g.edges:
            root[find(u)] = find(v)
        groups: dict[int, set[int]] = {}
        for v in range(n):
            groups.setdefault(find(v), set()).add(v)
        comps = connected_components(g)
        assert sorted(map(sorted, comps)) == sorted(map(sorted, groups.values()))
        assert [(len(c), min(c)) for c in comps] == sorted((len(c), min(c)) for c in comps)


class TestCountingBound:
    @pytest.mark.parametrize(
        "n,m,expected", [(47, 5, 10), (10, 10, 1), (47, 2, 24), (0, 3, 0)]
    )
    def test_values(self, n, m, expected):
        assert counting_bound(n, m) == expected

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            counting_bound(5, 0)


class TestInstanceInvariants:
    def test_defaults(self):
        inst = TimetablingInstance.colouring(path_graph(3), 2)
        assert inst.event_sizes == (1, 1, 1)
        assert inst.room_capacities == (1, 1)

    def test_rejects_overlapping_precolouring(self):
        with pytest.raises(ValueError):
            TimetablingInstance(
                graph=empty_graph(4),
                m=2,
                precolouring=(frozenset({0, 1}), frozenset({1, 2})),
            )

    def test_rejects_oversized_preclass(self):
        with pytest.raises(ValueError):
            TimetablingInstance(
                graph=empty_graph(4), m=2, precolouring=(frozenset({0, 1, 2}),)
            )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            TimetablingInstance(graph=empty_graph(2), m=1, weights=(1, 0))


class TestValidatePartition:
    def test_edge_conflict(self):
        inst = TimetablingInstance.colouring(complete_graph(2), 2)
        rep = validate_partition(inst, Partition.from_lists([[0, 1]]))
        assert not rep.ok
        assert any("edge conflict" in v for v in rep.violations)

    def test_valid_two_classes(self):
        inst = TimetablingInstance.colouring(empty_graph(4), 2)
        rep = validate_partition(inst, Partition.from_lists([[0, 1], [2, 3]]))
        assert rep.ok

    def test_class_size_violation(self):
        inst = TimetablingInstance.colouring(empty_graph(4), 2)
        rep = validate_partition(inst, Partition.from_lists([[0, 1, 2], [3]]))
        assert not rep.ok

    def test_missing_vertex_reported(self):
        inst = TimetablingInstance.colouring(empty_graph(3), 3)
        rep = validate_partition(inst, Partition.from_lists([[0, 1]]))
        assert not rep.ok
        assert any("not covered" in v for v in rep.violations)

    def test_capacity_counting(self):
        inst = TimetablingInstance(
            graph=empty_graph(3),
            m=2,
            event_sizes=(100, 100, 1),
            room_capacities=(120, 30),
        )
        bad = validate_partition(inst, Partition.from_lists([[0, 1], [2]]))
        assert not bad.ok
        good = validate_partition(inst, Partition.from_lists([[0, 2], [1]]))
        assert good.ok

    def test_feature_counting(self):
        inst = TimetablingInstance(
            graph=empty_graph(2),
            m=2,
            feature_count=1,
            event_features=frozenset({(0, 0), (1, 0)}),
            room_features=frozenset({(0, 0)}),
        )
        rep = validate_partition(inst, Partition.from_lists([[0, 1]]))
        assert not rep.ok
        assert any("feature" in v for v in rep.violations)

    def test_split_precolouring(self):
        inst = TimetablingInstance(
            graph=empty_graph(4), m=2, precolouring=(frozenset({0, 1}),)
        )
        rep = validate_partition(inst, Partition.from_lists([[0, 2], [1, 3]]))
        assert not rep.ok
        assert any("split" in v for v in rep.violations)

    def test_room_assignment_checked(self):
        inst = TimetablingInstance(
            graph=empty_graph(2),
            m=2,
            event_sizes=(5, 1),
            room_capacities=(10, 2),
        )
        ok = validate_partition(
            inst, Partition.from_lists([[0, 1]], room_of={0: 0, 1: 1})
        )
        assert ok.ok
        dup = validate_partition(
            inst, Partition.from_lists([[0, 1]], room_of={0: 0, 1: 0})
        )
        assert not dup.ok
        small = validate_partition(
            inst, Partition.from_lists([[0, 1]], room_of={0: 1, 1: 0})
        )
        assert not small.ok

    def test_unknown_vertex_reported(self):
        inst = TimetablingInstance.colouring(path_graph(3), 2)
        for extra in (-1, 5):
            rep = validate_partition(inst, Partition.from_lists([[0, 2], [1], [extra]]))
            assert rep.violations == (f"unknown vertices: [{extra}]",)

    @pytest.mark.parametrize("n, p, seed", [(12, 0.5, 1), (30, 0.2, 2), (60, 0.5, 3)])
    def test_class_violations_match_the_neighbour_loop(self, n, p, seed):
        # the bitset mask test reports every rule's messages in the order of
        # the reference's loop over sorted neighbour lists
        rng = np.random.default_rng(seed)
        m = 4
        inst = TimetablingInstance(
            graph=gen_gnp(n, p, seed), m=m,
            event_sizes=tuple(rng.integers(1, 4, n).tolist()),
            room_capacities=tuple(rng.integers(1, 4, m).tolist()),
            feature_count=2,
            event_features=frozenset((v, f) for v in range(n) for f in range(2)
                                     if rng.random() < 0.2),
            room_features=frozenset({(0, 0), (1, 0), (2, 1)}),
            weights=tuple(rng.integers(1, 3, n).tolist()),
        )
        for size in (0, 1, 2, 4, 7, n):
            for _ in range(20):
                cls = rng.choice(n, size, replace=False).tolist()
                assert class_violations(inst, cls) == class_violations_loop(inst, cls)

    def test_petersen_proper_partition(self, petersen):
        inst = TimetablingInstance.colouring(petersen, 3)
        # a proper 4-class partition with classes of size <= 3
        part = Partition.from_lists([[0, 1, 2], [3, 6, 8], [4, 5, 7], [9]])
        rep = validate_partition(inst, part)
        assert rep.ok, rep.violations


@st.composite
def packed_count_cases(draw):
    """Profiles, limits and a class: some limits 0, some exactly at the class total."""
    fields = draw(st.integers(1, 4))
    groups = draw(st.integers(1, 6))
    profiles = [tuple(draw(st.lists(st.integers(0, 5), min_size=fields,
                                    max_size=fields))) for _ in range(groups)]
    chosen = draw(st.lists(st.booleans(), min_size=groups, max_size=groups))
    sums = [sum(p[i] for p, c in zip(profiles, chosen) if c) for i in range(fields)]
    limits = tuple(max(0, draw(st.sampled_from([s, s - 1, s + 1, 0])
                               | st.integers(0, 12))) for s in sums)
    return limits, profiles, chosen


class TestClassCounts:
    @settings(max_examples=400, deadline=None)
    @given(packed_count_cases())
    def test_packed_tests_match_the_entrywise_rules(self, case):
        limits, profiles, chosen = case
        counts = ClassCounts(limits, profiles)
        total, sums = 0, [0] * len(limits)
        for p, packed, c in zip(profiles, counts.profile, chosen):
            if c:
                total += packed
                sums = [t + x for t, x in zip(sums, p)]
        assert total == counts.pack(sums)
        assert counts.fits(total) == all(t <= lim for t, lim in zip(sums, limits))
        assert counts.weight == [p[0] for p in profiles]
        for a, (p, c) in enumerate(zip(profiles, chosen)):
            if c:
                continue
            grown = [t + x for t, x in zip(sums, p)]
            assert total + counts.profile[a] == counts.pack(grown)
            assert counts.admits(total, a) == all(
                t <= lim for t, lim in zip(grown, limits))
