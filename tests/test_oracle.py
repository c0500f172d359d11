import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsdp.graphs import (
    TimetablingInstance,
    complete_graph,
    counting_bound,
    empty_graph,
    gen_gnp,
    gen_kneser,
    validate_partition,
)
from bcsdp.oracle import (
    _bit_order,
    _saturate,
    _target,
    exact_bounded_chromatic,
    greedy_atoms,
    max_clique,
    sandwich_check,
)
from bcsdp.relax import Atoms

from conftest import mixed_instance, named_small_graphs
from _reference import (
    KeyedDsatur,
    enumerate_chi_m,
    keyed_greedy_atoms,
    keyed_search,
)


class TestMaxClique:
    @pytest.mark.parametrize(
        "graph,want",
        [
            (complete_graph(5), 5),
            (empty_graph(4), 1),
            (gen_kneser(5, 2), 2),
        ],
    )
    def test_known(self, graph, want):
        assert max_clique(graph) == want


class TestExactBoundedChromatic:
    def test_petersen_m3(self, petersen):
        res = exact_bounded_chromatic(TimetablingInstance.colouring(petersen, 3))
        assert res.chi_m == 4
        assert validate_partition(
            TimetablingInstance.colouring(petersen, 3), res.witness
        ).ok

    def test_k5_any_m(self):
        res = exact_bounded_chromatic(TimetablingInstance.colouring(complete_graph(5), 3))
        assert res.chi_m == 5

    def test_m1_gives_n(self):
        for name, g in named_small_graphs()[:8]:
            res = exact_bounded_chromatic(TimetablingInstance.colouring(g, max(g.n, 1)))
            res1 = exact_bounded_chromatic(TimetablingInstance.colouring(g, 1))
            assert res1.chi_m == g.n, name
            # m = n recovers the plain chromatic number
            assert res.chi_m == enumerate_chi_m(
                TimetablingInstance.colouring(g, max(g.n, 1))
            ), name

    def test_matches_enumeration_named_graphs(self):
        for name, g in named_small_graphs():
            if g.n > 8:
                continue
            for m in range(1, g.n + 1):
                inst = TimetablingInstance.colouring(g, m)
                got = exact_bounded_chromatic(inst).chi_m
                want = enumerate_chi_m(inst)
                assert got == want, f"{name} m={m}: oracle {got} vs enum {want}"

    def test_matches_enumeration_random(self):
        for seed in range(25):
            g = gen_gnp(7, 0.5, seed)
            for m in (1, 2, 3, 7):
                inst = TimetablingInstance.colouring(g, m)
                assert exact_bounded_chromatic(inst).chi_m == enumerate_chi_m(inst)

    def test_capacities_respected(self):
        inst = TimetablingInstance(
            graph=empty_graph(4),
            m=2,
            event_sizes=(100, 100, 100, 100),
            room_capacities=(120, 30),
        )
        res = exact_bounded_chromatic(inst)
        assert res.chi_m == 4  # only one room fits any event

    def test_features_respected(self):
        inst = TimetablingInstance(
            graph=empty_graph(3),
            m=3,
            feature_count=1,
            event_features=frozenset({(0, 0), (1, 0), (2, 0)}),
            room_features=frozenset({(0, 0)}),
        )
        res = exact_bounded_chromatic(inst)
        assert res.chi_m == 3

    def test_precolouring_contraction(self):
        inst = TimetablingInstance(
            graph=empty_graph(4), m=2,
            precolouring=(frozenset({0, 1}), frozenset({2, 3})),
        )
        res = exact_bounded_chromatic(inst)
        assert res.chi_m == 2
        assert validate_partition(inst, res.witness).ok

    def test_precolouring_vs_enumeration(self):
        for seed in range(8):
            g = gen_gnp(6, 0.4, seed)
            pre = []
            cand = [v for v in range(6) if not any(
                g.is_edge(v, u) for u in (0,)
            )]
            if 0 not in cand:
                cand = [0] + [v for v in cand if v != 0]
            if len(cand) >= 2:
                pre = [frozenset(cand[:2])]
            try:
                inst = TimetablingInstance(graph=g, m=3, precolouring=tuple(pre))
            except ValueError:
                continue
            got = exact_bounded_chromatic(inst)
            if got.chi_m is None:
                continue
            assert got.chi_m == enumerate_chi_m(inst)

    def test_weights_respected(self):
        inst = TimetablingInstance(
            graph=empty_graph(2), m=4, weights=(4, 4)
        )
        res = exact_bounded_chromatic(inst)
        assert res.chi_m == 2

    def test_timeout_reports_bounds(self):
        g = gen_gnp(40, 0.5, 1)
        res = exact_bounded_chromatic(
            TimetablingInstance.colouring(g, 3), time_limit=0.02
        )
        if res.timed_out:
            assert res.chi_m is None
            assert res.lower_bound <= res.upper_bound
            assert res.witness is not None

    def test_infeasible_event_raises(self):
        inst = TimetablingInstance(
            graph=empty_graph(1),
            m=1,
            feature_count=1,
            event_features=frozenset({(0, 0)}),
        )
        with pytest.raises(ValueError):
            exact_bounded_chromatic(inst)


class TestCrossModuleConsistency:
    def test_counting_never_exceeds_chi_m(self):
        graphs = [g for _, g in named_small_graphs() if g.n <= 8]
        graphs += [gen_gnp(8, p, s) for p in (0.3, 0.6) for s in range(5)]
        for g in graphs:
            for m in range(1, g.n + 1):
                inst = TimetablingInstance.colouring(g, m)
                chi = exact_bounded_chromatic(inst).chi_m
                from bcsdp.graphs import counting_bound

                assert counting_bound(g.n, m) <= chi

    def test_validate_agrees_with_oracle_feasibility(self):
        # a partition validates iff the search would accept it: witnesses
        # validate, and corrupting a witness breaks validation
        from bcsdp.graphs import Partition

        for seed in range(10):
            g = gen_gnp(8, 0.5, seed + 200)
            inst = TimetablingInstance.colouring(g, 3)
            res = exact_bounded_chromatic(inst)
            assert validate_partition(inst, res.witness).ok
            classes = [set(c) for c in res.witness.classes]
            if len(classes) >= 2:
                merged = [classes[0] | classes[1]] + [
                    set(c) for c in classes[2:]
                ]
                bad = Partition.from_lists(merged)
                got = validate_partition(inst, bad)
                # merging optimal classes must break an edge or the size cap,
                # otherwise the optimum would not have been optimal
                assert not got.ok


class TestSandwich:
    def test_c5_chain(self, c5):
        rep = sandwich_check(c5, 2)
        assert rep.passed, rep.failures
        assert rep.omega == 2
        assert rep.counting == 3
        assert rep.theta == pytest.approx(2.236, abs=5e-3)
        assert rep.bounded >= 2.5 - 5e-3
        assert rep.chi_m == 3
        assert rep.greedy_classes <= 3

    def test_k4_everything_four(self):
        rep = sandwich_check(complete_graph(4), 2)
        assert rep.passed, rep.failures
        assert rep.omega == 4
        assert rep.chi_m == 4
        assert rep.certified == 4

    def test_random_small_sweep(self):
        for seed in range(6):
            g = gen_gnp(9, 0.5, seed + 100)
            for m in (2, 3):
                rep = sandwich_check(g, m)
                assert rep.passed, (seed, m, rep.failures)


# (nodes_explored, chi_m, lower_bound, upper_bound, witness classes in order)
_GOLDEN_GNP45 = {
    1: (963, 9, 9, 9, [
        [4, 15, 25, 28, 43], [6, 22, 31, 40], [2, 13, 18, 37], [0, 7, 9, 14, 27, 33],
        [10, 12, 16, 17, 20], [5, 21, 29, 39], [1, 3, 8, 11, 30, 34, 36],
        [23, 24, 32, 42, 44], [19, 26, 35, 38, 41]]),
    2: (610, 9, 9, 9, [
        [6, 26, 30, 33], [0, 3, 10, 17, 18, 22, 32], [9, 13, 21, 40, 42],
        [11, 14, 16, 36, 43], [4, 8, 12, 15, 24, 35], [5, 19, 31, 34, 41],
        [1, 23, 27, 28, 29], [2, 25, 38, 44], [7, 20, 37, 39]]),
    3: (1833, 9, 9, 9, [
        [2, 6, 9, 17, 33], [13, 25, 30, 36], [4, 23, 24, 27, 28], [0, 14, 19, 22, 41],
        [8, 18, 31, 39], [5, 16, 29, 35, 43], [15, 21, 32, 34, 38, 40],
        [1, 10, 12, 20, 37, 42], [3, 7, 11, 26, 44]]),
    4: (7806, 8, 8, 8, [
        [8, 14, 21, 32, 38], [0, 7, 10, 15, 17, 42], [2, 12, 29, 30, 34, 37],
        [4, 13, 19, 36, 41, 44], [9, 18, 20, 23, 39, 43], [3, 5, 26, 27, 35],
        [1, 6, 11, 16, 31], [22, 24, 25, 28, 33, 40]]),
}


def _pinned(res) -> tuple:
    return (res.nodes_explored, res.chi_m, res.lower_bound, res.upper_bound,
            [sorted(c) for c in res.witness.classes])


class TestSearchGolden:
    """The search tree and witness recorded from the keyed DSATUR.

    Node counts pin the branching order (saturation, then degree, then the
    lower atom index) and every prune; witnesses pin which optimum is found.
    """

    @pytest.mark.parametrize("seed", sorted(_GOLDEN_GNP45))
    def test_gnp45_plain_colouring(self, seed):
        g = gen_gnp(45, 0.5, seed)
        res = exact_bounded_chromatic(TimetablingInstance.colouring(g, g.n))
        assert not res.timed_out
        assert _pinned(res) == _GOLDEN_GNP45[seed]

    def test_capacities_features_precolouring_weights(self):
        inst = mixed_instance()
        res = exact_bounded_chromatic(inst)
        assert not res.timed_out
        assert _pinned(res) == (437, 8, 8, 8, [
            [0, 1, 10, 15], [6, 8, 13, 33], [7, 17, 24], [2, 3, 11, 28, 30, 32],
            [4, 20, 22, 26, 29], [18, 19, 23, 27], [5, 12, 14, 21, 25], [9, 16, 31]])
        assert validate_partition(inst, res.witness).ok

    def test_timeout_at_first_clock_check(self):
        # the clock is read every 4096 nodes, so a zero limit stops there; the
        # clique bound races the same zero limit, so lower_bound is not pinned
        g = gen_gnp(45, 0.5, 4)
        inst = TimetablingInstance.colouring(g, g.n)
        res = exact_bounded_chromatic(inst, time_limit=0.0)
        assert res.timed_out and res.chi_m is None
        assert res.nodes_explored == 4096
        assert res.upper_bound == 9
        assert [sorted(c) for c in res.witness.classes] == [
            [11, 12, 17, 28, 38], [4, 8, 27, 41, 42], [2, 15, 29, 30, 34, 37],
            [9, 13, 19, 20, 36, 44], [1, 6, 16, 23, 39], [3, 18, 22, 24, 43],
            [14, 21, 32, 40], [10, 25, 26, 31, 35], [0, 5, 7, 33]]
        assert counting_bound(g.n, g.n) <= res.lower_bound <= res.upper_bound

    def test_root_greedy(self):
        # atom indices in placement order: pins the greedy's selection order
        plain = Atoms(TimetablingInstance.colouring(gen_gnp(45, 0.5, 1), 45))
        assert greedy_atoms(plain) == [
            [28, 25, 4, 23], [6, 31, 11, 40], [13, 2, 36, 16, 19],
            [33, 0, 27, 9, 41, 14], [17, 12, 20, 10, 18], [29, 39, 24, 22, 42],
            [1, 8, 5, 32, 21, 30], [44, 3, 38], [35, 15, 37, 43], [26, 7], [34]]
        assert greedy_atoms(Atoms(mixed_instance())) == [
            [0, 13], [5, 23, 31, 10], [6, 18, 24, 3], [26, 28, 29, 9, 30], [20, 4, 12],
            [21, 25, 17, 7], [27, 8, 19, 1], [11, 15, 14], [22, 2], [16]]

    def test_stops_at_root_bound(self):
        # greedy uses 10 classes and the clique bound is 9 = chi: the search
        # returns at its first 9-class colouring, the witness the full search
        # ends with, after 57 nodes instead of the full search's 526
        g = gen_gnp(40, 0.5, 20)
        assert max_clique(g) == 9
        res = exact_bounded_chromatic(TimetablingInstance.colouring(g, g.n))
        assert _pinned(res) == (57, 9, 9, 9, [
            [12, 24, 26, 29, 33], [1, 8, 9, 11, 18, 25], [2, 10, 17],
            [6, 7, 16, 19, 28, 37], [30, 31, 34, 39], [21, 23, 32, 38],
            [3, 5, 13, 35, 36], [0, 4, 22], [14, 15, 20, 27]])


def _small_timetable(seed: int) -> TimetablingInstance:
    """A feasible instance of 8-14 events with room capacities, one feature
    and one two-event pre-class."""
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    g = gen_gnp(n, rng.choice((0.3, 0.5)), seed)
    m = rng.randint(3, 5)
    pre = rng.choice(g.non_edges())
    sizes = [10 if v in pre else rng.randint(10, 40) for v in range(n)]
    featured = rng.sample([v for v in range(n) if v not in pre], 3)
    return TimetablingInstance(
        graph=g,
        m=m,
        event_sizes=tuple(sizes),
        room_capacities=(40, *(rng.randint(15, 40) for _ in range(m - 1))),
        feature_count=1,
        event_features=frozenset((v, 0) for v in featured),
        room_features=frozenset({(0, 0), (m - 1, 0)}),
        precolouring=(frozenset(pre),),
    )


class TestBitSlicedOrder:
    """The bit-sliced saturation order against the keyed DSATUR reference."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 80), p=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**16), data=st.data())
    def test_target_matches_keyed_reference(self, k, p, seed, data):
        # k up to 80 crosses a 64-bit word; moves place the target in a
        # random admissible class, old or new, or undo the last move
        atoms = Atoms(TimetablingInstance.colouring(gen_gnp(k, p, seed), k))
        order, adj = _bit_order(atoms)
        ref = KeyedDsatur(atoms)
        planes, unplaced = [0] * k.bit_length(), (1 << k) - 1
        masks: list[int] = []  # class conflict masks over bit positions
        ref_masks: list[int] = []  # the same masks over atom ids
        moves = []
        for _ in range(3 * k):
            bit = _target(planes, unplaced)
            a = ref.target()
            if not unplaced:
                assert a == -1
                break
            assert order[bit.bit_length() - 1] == a
            if moves and data.draw(st.integers(0, 3)) == 0:
                planes, unplaced, a, ci, mask, ref_mask = moves.pop()
                ref.bump(a, ref_mask, -1)
                masks[ci], ref_masks[ci] = mask, ref_mask
                if not any(move[3] == ci for move in moves):
                    masks.pop()  # the undone move opened this class
                    ref_masks.pop()
                continue
            i = bit.bit_length() - 1
            open_ = [ci for ci, mask in enumerate(masks) if not mask & bit]
            ci = data.draw(st.sampled_from(open_ + [len(masks)]))
            if ci == len(masks):
                masks.append(0)
                ref_masks.append(0)
            moves.append((planes, unplaced, a, ci, masks[ci], ref_masks[ci]))
            planes = _saturate(planes, adj[i] & ~masks[ci])
            ref.bump(a, ref_masks[ci], 1)
            unplaced ^= bit
            masks[ci] |= adj[i]
            ref_masks[ci] |= atoms.adj[a]

    @pytest.mark.parametrize("seed", range(12))
    def test_search_matches_keyed_reference(self, seed):
        inst = _small_timetable(seed)
        atoms = Atoms(inst)
        assert greedy_atoms(atoms) == keyed_greedy_atoms(atoms)
        res = exact_bounded_chromatic(inst)
        nodes, chi, witness = keyed_search(inst)
        assert (res.nodes_explored, res.chi_m) == (nodes, chi)
        assert res.witness.classes == atoms.expand(witness).classes
        assert validate_partition(inst, res.witness).ok
