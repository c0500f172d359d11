import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bcsdp.graphs import (
    ConflictGraph,
    TimetablingInstance,
    class_violations,
    complete_graph,
    empty_graph,
    gen_gnp,
    validate_partition,
)
from bcsdp.oracle import exact_bounded_chromatic
from bcsdp.relax import Atoms, build_bounded
from bcsdp.rounding import (
    RoundingConfig,
    _compact,
    _descend,
    greedy_colouring,
    iterative_round,
    kms_round,
)
from bcsdp.solver import SolverConfig, extract_bound, solve

from _reference import compact_every_sweep, descend_loop
from conftest import mixed_instance


def solved_bounded(g, m):
    model = build_bounded(g, m)
    return model, solve(model)


class TestRoundingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoundingConfig(attempts=0)
        with pytest.raises(ValueError):
            RoundingConfig(delta=0.7)


class TestGreedy:
    def test_complete_graph_singletons(self):
        inst = TimetablingInstance.colouring(complete_graph(6), 3)
        part = greedy_colouring(inst)
        assert part.num_classes == 6
        assert validate_partition(inst, part).ok

    def test_empty_graph_packs(self):
        inst = TimetablingInstance.colouring(empty_graph(10), 2)
        part = greedy_colouring(inst)
        assert part.num_classes == 5

    def test_respects_precolouring(self):
        inst = TimetablingInstance(
            graph=empty_graph(4), m=2,
            precolouring=(frozenset({0, 2}),),
        )
        part = greedy_colouring(inst)
        rep = validate_partition(inst, part)
        assert rep.ok, rep.violations

    def test_respects_capacity_counts(self):
        inst = TimetablingInstance(
            graph=empty_graph(4), m=2,
            event_sizes=(9, 9, 1, 1), room_capacities=(10, 2),
        )
        part = greedy_colouring(inst)
        rep = validate_partition(inst, part)
        assert rep.ok, rep.violations
        assert part.room_of is not None

    def test_infeasible_vertex_raises(self):
        inst = TimetablingInstance(
            graph=empty_graph(2), m=1,
            feature_count=1, event_features=frozenset({(0, 0)}),
        )
        with pytest.raises(ValueError):
            greedy_colouring(inst)


class TestKms:
    def test_empty_graph_two_classes(self):
        g = empty_graph(4)
        inst = TimetablingInstance.colouring(g, 2)
        model, res = solved_bounded(g, 2)
        y = res.X_final + np.ones_like(res.X_final)
        part = kms_round(y, inst, RoundingConfig(attempts=10, seed=1))
        assert part.num_classes == 2
        assert validate_partition(inst, part).ok

    def test_petersen_best_of_fifty(self, petersen):
        inst = TimetablingInstance.colouring(petersen, 3)
        model, res = solved_bounded(petersen, 3)
        y = res.X_final + np.ones_like(res.X_final)
        part = kms_round(y, inst, RoundingConfig(attempts=50, seed=7))
        assert part.num_classes == 4
        assert validate_partition(inst, part).ok

    def test_complete_graph_singletons(self):
        g = complete_graph(5)
        inst = TimetablingInstance.colouring(g, 3)
        model, res = solved_bounded(g, 3)
        y = res.X_final + np.ones_like(res.X_final)
        part = kms_round(y, inst, RoundingConfig(attempts=5, seed=0))
        assert part.num_classes == 5

    def test_determinism(self, petersen):
        inst = TimetablingInstance.colouring(petersen, 3)
        model, res = solved_bounded(petersen, 3)
        y = res.X_final + np.ones_like(res.X_final)
        p1 = kms_round(y, inst, RoundingConfig(attempts=20, seed=3))
        p2 = kms_round(y, inst, RoundingConfig(attempts=20, seed=3))
        assert p1.classes == p2.classes

    def test_class_count_at_least_certified(self):
        for seed in range(5):
            g = gen_gnp(12, 0.5, seed + 60)
            inst = TimetablingInstance.colouring(g, 3)
            model, res = solved_bounded(g, 3)
            _, certified = extract_bound(res)
            y = res.X_final + np.ones_like(res.X_final)
            part = kms_round(y, inst, RoundingConfig(attempts=20, seed=seed))
            assert validate_partition(inst, part).ok
            assert part.num_classes >= certified

    def test_precoloured_atoms_stay_together(self):
        inst = TimetablingInstance(
            graph=empty_graph(4), m=2,
            precolouring=(frozenset({0, 3}),),
        )
        model = build_bounded(inst.graph, 2)
        res = solve(model, SolverConfig())
        y = res.X_final + np.ones_like(res.X_final)
        part = kms_round(y, inst, RoundingConfig(attempts=10, seed=2))
        rep = validate_partition(inst, part)
        assert rep.ok, rep.violations


class TestIterative:
    def test_exact_indicator_passthrough(self):
        inst = TimetablingInstance.colouring(empty_graph(4), 2)
        model = build_bounded(empty_graph(4), 2)
        ind = np.zeros((4, 4))
        for cls in ((0, 1), (2, 3)):
            for u in cls:
                for v in cls:
                    ind[u, v] = 1.0
        x = 2.0 * ind - np.ones((4, 4))
        part, diag = iterative_round(model, x, inst, RoundingConfig())
        assert sorted(tuple(sorted(c)) for c in part.classes) == [(0, 1), (2, 3)]
        assert diag.rounds == 1

    def test_empty_graph_two_classes(self):
        inst = TimetablingInstance.colouring(empty_graph(4), 2)
        model = build_bounded(empty_graph(4), 2)
        res = solve(model, SolverConfig())
        part, diag = iterative_round(model, res.X_final, inst, RoundingConfig())
        assert part.num_classes == 2
        assert validate_partition(inst, part).ok

    def test_always_valid_on_random(self):
        for seed in range(4):
            g = gen_gnp(10, 0.5, seed + 70)
            inst = TimetablingInstance.colouring(g, 3)
            model, res = solved_bounded(g, 3)
            part, diag = iterative_round(
                model, res.X_final, inst, RoundingConfig(seed=seed)
            )
            assert validate_partition(inst, part).ok
            assert all(v >= 0 for v in diag.constraint_violations)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_never_worse_than_greedy(self, seed):
        # at seeds 1, 2 and 4 the final frame clusters into 16 singletons
        g = gen_gnp(16, 0.5, seed)
        inst = TimetablingInstance.colouring(g, 3)
        model, res = solved_bounded(g, 3)
        cfg = RoundingConfig()
        part, _ = iterative_round(model, res.X_final, inst, cfg)
        assert validate_partition(inst, part).ok
        assert part.num_classes <= greedy_colouring(inst).num_classes

    def test_violations_within_bound(self):
        g = gen_gnp(8, 0.5, 80)
        inst = TimetablingInstance.colouring(g, 3)
        model, res = solved_bounded(g, 3)
        part, diag = iterative_round(model, res.X_final, inst, RoundingConfig())
        # reported violations stay within the singular-value budget
        assert max(diag.constraint_violations, default=0.0) <= diag.violation_bound + 1e-6


def planted_solution(n: int, k: int, seed: int, noise: float = 0.6) -> np.ndarray:
    """Seeded PSD matrix shaped like a bounded-colouring solution Y.

    Vertex v's Gram vector is the unit direction of class v mod k plus
    Gaussian noise, normalized; Y has diagonal k.  It is built without the
    solver so that the pinned partitions below move only when the rounding
    itself changes.
    """
    rng = np.random.default_rng(seed)
    vec = noise * rng.standard_normal((n, k))
    vec[np.arange(n), np.arange(n) % k] += 1.0
    vec /= np.linalg.norm(vec, axis=1)[:, None]
    return k * (vec @ vec.T)


def timetable_instance() -> TimetablingInstance:
    """Multi-member pre-colouring atoms, weights, two capacities, one feature."""
    g = ConflictGraph.from_edges(14, [
        (0, 1), (0, 4), (1, 2), (2, 3), (3, 6), (4, 7), (5, 8), (6, 9),
        (7, 10), (8, 11), (9, 12), (10, 13), (11, 12), (1, 13), (3, 8),
    ])
    return TimetablingInstance(
        graph=g, m=3,
        event_sizes=(40, 90, 40, 40, 90, 40, 40, 90, 40, 40, 40, 90, 40, 40),
        room_capacities=(50, 100, 100),
        feature_count=1,
        event_features=frozenset({(2, 0), (9, 0), (12, 0)}),
        room_features=frozenset({(1, 0)}),
        precolouring=(frozenset({0, 2}), frozenset({5, 12, 13})),
        weights=(1, 1, 1, 2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1),
    )


def class_tuples(part):
    return tuple(tuple(sorted(c)) for c in part.classes)


class TestKmsGolden:
    """Exact kms_round output, pinned so that a rewrite of its loops must
    reproduce every timetable (classes in order, and rooms)."""

    GNP40 = {
        1: ((15, 32, 39), (16, 28, 34), (17, 22, 27), (1, 14, 30, 35),
            (2, 3, 4, 8), (10, 18, 23, 37), (11, 20, 21, 25),
            (0, 9, 12, 31, 36), (5, 7, 24, 29, 33), (6, 13, 19, 26, 38)),
        2: ((1, 16, 39), (4, 7, 31), (11, 29, 32), (21, 34, 38),
            (2, 9, 13, 22), (23, 25, 27, 30), (0, 5, 6, 10, 28),
            (3, 8, 12, 17, 24), (14, 19, 20, 26, 35), (15, 18, 33, 36, 37)),
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_gnp40_m5(self, seed):
        inst = TimetablingInstance.colouring(gen_gnp(40, 0.5, seed), 5)
        part = kms_round(planted_solution(40, 12, seed), inst,
                         RoundingConfig(attempts=20, seed=seed))
        assert class_tuples(part) == self.GNP40[seed]
        assert part.room_of is None
        assert validate_partition(inst, part).ok

    def test_timetable_with_atoms_weights_rooms_features(self):
        inst = timetable_instance()
        part = kms_round(planted_solution(14, 6, 3), inst,
                         RoundingConfig(attempts=15, seed=4))
        assert class_tuples(part) == (
            (5, 12, 13), (10,), (0, 2, 8), (1, 3), (4, 9), (6, 7, 11),
        )
        assert sorted(part.room_of.items()) == [
            (0, 0), (1, 1), (2, 1), (3, 0), (4, 2), (5, 0), (6, 0), (7, 1),
            (8, 2), (9, 1), (10, 0), (11, 2), (12, 1), (13, 2),
        ]
        assert validate_partition(inst, part).ok

    def test_mixed_instance_capacities_feature_preclass(self):
        # the pre-class {0, 1, 10} is atom 0, so most atoms sit at another
        # index than their vertex: a conflict test that mixes the two differs
        inst = mixed_instance()
        part = kms_round(planted_solution(34, 9, 5), inst,
                         RoundingConfig(attempts=12, seed=3))
        assert class_tuples(part) == (
            (0, 1, 10, 15), (4, 20, 29), (7, 17, 26), (8, 9, 22), (19, 28, 31),
            (6, 13, 18, 33), (16, 23, 24, 27), (2, 3, 11, 30, 32),
            (5, 12, 14, 21, 25),
        )
        assert sorted(part.room_of.items()) == [
            (0, 2), (1, 3), (2, 2), (3, 3), (4, 1), (5, 2), (6, 0), (7, 1),
            (8, 1), (9, 2), (10, 1), (11, 1), (12, 4), (13, 2), (14, 1), (15, 0),
            (16, 0), (17, 2), (18, 3), (19, 2), (20, 0), (21, 3), (22, 0),
            (23, 3), (24, 2), (25, 0), (26, 0), (27, 1), (28, 1), (29, 2),
            (30, 0), (31, 0), (32, 4), (33, 1),
        ]
        assert validate_partition(inst, part).ok


@st.composite
def small_timetables(draw, min_n=1, max_n=9):
    """Small instances with weights, two capacities, one feature and one
    pre-colouring class, in which every atom fits a class on its own."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pre = draw(st.frozensets(st.integers(0, n - 1), max_size=min(m, n)))
    drawn = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v) for u, v in drawn if not (u in pre and v in pre)]
    caps = [2] + draw(st.lists(st.sampled_from([1, 2]), min_size=m - 1, max_size=m - 1))
    inst = TimetablingInstance(
        graph=ConflictGraph.from_edges(n, edges), m=m,
        event_sizes=tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))),
        room_capacities=tuple(caps),
        feature_count=1,
        event_features=frozenset(
            (v, 0) for v in draw(st.frozensets(st.integers(0, n - 1)))
        ),
        room_features=frozenset({(0, 0)}),
        precolouring=(pre,) if pre else (),
        weights=tuple(draw(st.lists(st.integers(1, min(2, m)), min_size=n, max_size=n))),
    )
    assume(not pre or not class_violations(inst, pre))
    return inst


class TestKmsProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), seed=st.integers(0, 2**16),
           k=st.integers(1, 5))
    def test_partition_valid_atoms_whole(self, inst, seed, k):
        part = kms_round(planted_solution(inst.graph.n, k, seed), inst,
                         RoundingConfig(attempts=3, seed=seed))
        rep = validate_partition(inst, part)
        assert rep.ok, rep.violations
        for pre in inst.precolouring:
            assert sum(1 for c in part.classes if c & pre) == 1

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables())
    def test_greedy_valid_atoms_whole_at_least_chi_m(self, inst):
        part = greedy_colouring(inst)
        rep = validate_partition(inst, part)
        assert rep.ok, rep.violations
        for pre in inst.precolouring:
            assert sum(1 for c in part.classes if c & pre) == 1
        assert part.num_classes >= exact_bounded_chromatic(inst).chi_m

    @staticmethod
    def _drawn_classes(inst, atoms, data):
        """Valid atom classes: drawn groups, split into singletons where a
        group breaks a class rule."""
        groups: dict[int, list[int]] = {}
        for a in range(atoms.k):
            groups.setdefault(data.draw(st.integers(0, atoms.k)), []).append(a)
        classes = []
        for group in groups.values():
            verts = [v for a in group for v in atoms.members[a]]
            if class_violations(inst, verts):
                classes += [[a] for a in group]
            else:
                classes.append(group)
        return classes

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), data=st.data())
    def test_compact_never_adds_classes(self, inst, data):
        atoms = Atoms(inst)
        classes = self._drawn_classes(inst, atoms, data)
        out = _compact(atoms, classes)
        assert len(out) <= len(classes)
        assert sorted(a for c in out for a in c) == list(range(atoms.k))
        for c in out:
            assert not class_violations(inst, [v for a in c for v in atoms.members[a]])

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), data=st.data())
    def test_compact_idempotent(self, inst, data):
        # the output is a fixed point: a second pass, which starts with a
        # full merge scan, finds no move and keeps the classes' order
        atoms = Atoms(inst)
        out = _compact(atoms, self._drawn_classes(inst, atoms, data))
        assert _compact(atoms, [list(c) for c in out]) == out

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), data=st.data())
    def test_compact_matches_merge_scan_every_sweep(self, inst, data):
        # _compact stops scanning for merges once a scan finds none, because
        # moves only grow classes; the reference scans on every sweep
        atoms = Atoms(inst)
        classes = self._drawn_classes(inst, atoms, data)
        assert _compact(atoms, classes) == compact_every_sweep(
            inst, atoms.members, classes)

    def test_compact_matches_merge_scan_every_sweep_from_singletons(self):
        # larger graphs than small_timetables, where relocations and merges
        # interleave over many sweeps
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(6, 16)), int(rng.integers(2, 5))
            inst = TimetablingInstance.colouring(gen_gnp(n, 0.4, seed), m)
            atoms = Atoms(inst)
            classes = [[a] for a in rng.permutation(atoms.k).tolist()]
            assert _compact(atoms, classes) == compact_every_sweep(
                inst, atoms.members, classes), seed


    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), data=st.data())
    def test_class_counts_match_class_violations(self, inst, data):
        # ClassCounts tests running totals; class_violations is the reference
        # for every rule but edges, which rounding tests on the bitmasks
        atoms = Atoms(inst)
        counts = atoms.counts
        order = data.draw(st.permutations(range(atoms.k)))
        size = data.draw(st.integers(0, atoms.k - 1))
        chosen, extra = list(order[:size]), order[size]
        total = 0
        for a in chosen:
            total += counts.profile[a]
        no_edges = dataclasses.replace(inst, graph=empty_graph(inst.graph.n))
        verts = [v for a in chosen + [extra] for v in atoms.members[a]]
        assert counts.admits(total, extra) == (not class_violations(no_edges, verts))


class TestKmsPrebuiltAtoms:
    @pytest.mark.parametrize("build", [
        lambda: (mixed_instance(), planted_solution(34, 9, 5)),
        lambda: (timetable_instance(), planted_solution(14, 6, 3)),
        lambda: (TimetablingInstance.colouring(gen_gnp(40, 0.5, 2), 5),
                 planted_solution(40, 12, 2)),
    ])
    def test_same_partition_as_own_build(self, build):
        inst, y = build()
        cfg = RoundingConfig(attempts=12, seed=3)
        own = kms_round(y, inst, cfg)
        given_atoms = kms_round(y, inst, cfg, Atoms(inst))
        assert given_atoms.classes == own.classes
        assert given_atoms.room_of == own.room_of


class TestKmsReporting:
    def test_debug_record_per_call(self, caplog):
        inst = TimetablingInstance.colouring(gen_gnp(20, 0.5, 3), 4)
        caplog.set_level(logging.DEBUG, logger="bcsdp.rounding")
        part = kms_round(planted_solution(20, 6, 3), inst,
                         RoundingConfig(attempts=7, seed=1))
        records = [r for r in caplog.records if r.name == "bcsdp.rounding"]
        assert len(records) == 1
        stats = records[0].kms
        assert stats["attempts"] == 7
        assert 0 <= stats["best_attempt"] < 7
        assert stats["min_classes"] == part.num_classes <= stats["max_classes"]
        assert stats["attempts_run"] == 7  # no target: every attempt runs
        assert stats["descent_swaps"] == 0 and stats["descent_reached"] is False

    def test_infeasible_event_raises(self):
        inst = TimetablingInstance(
            graph=empty_graph(2), m=1, event_sizes=(5, 1), room_capacities=(3,),
        )
        with pytest.raises(ValueError, match="infeasible"):
            kms_round(np.ones((2, 2)) + np.eye(2), inst, RoundingConfig(attempts=1))


GOLDEN_CALLS = {
    "gnp40-s1": lambda: (TimetablingInstance.colouring(gen_gnp(40, 0.5, 1), 5),
                         planted_solution(40, 12, 1), RoundingConfig(attempts=20, seed=1)),
    "gnp40-s2": lambda: (TimetablingInstance.colouring(gen_gnp(40, 0.5, 2), 5),
                         planted_solution(40, 12, 2), RoundingConfig(attempts=20, seed=2)),
    "timetable": lambda: (timetable_instance(), planted_solution(14, 6, 3),
                          RoundingConfig(attempts=15, seed=4)),
    "mixed": lambda: (mixed_instance(), planted_solution(34, 9, 5),
                      RoundingConfig(attempts=12, seed=3)),
}


class TestKmsMergeRule:
    """kms_round keeps the first attempt with the fewest classes."""

    @staticmethod
    def assert_first_of_fewest(inst, y, cfg):
        stats = {}
        part = kms_round(y, inst, cfg, stats=stats)
        best = stats["best_attempt"]
        assert part.num_classes == stats["min_classes"]
        upto = kms_round(y, inst, dataclasses.replace(cfg, attempts=best + 1))
        assert (part.classes, part.room_of) == (upto.classes, upto.room_of)
        if best:  # every earlier attempt has more classes
            before = {}
            kms_round(y, inst, dataclasses.replace(cfg, attempts=best), stats=before)
            assert before["min_classes"] > stats["min_classes"]

    @pytest.mark.parametrize("case", sorted(GOLDEN_CALLS))
    def test_golden_calls(self, case):
        inst, y, cfg = GOLDEN_CALLS[case]()
        for attempts, seed in [(cfg.attempts, cfg.seed), (1, 0), (6, 0), (30, 11)]:
            self.assert_first_of_fewest(inst, y, RoundingConfig(attempts=attempts, seed=seed))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), seed=st.integers(0, 2**16),
           attempts=st.integers(1, 7))
    def test_small_timetables(self, inst, seed, attempts):
        y = planted_solution(inst.graph.n, max(1, inst.graph.n // 2), seed)
        self.assert_first_of_fewest(inst, y, RoundingConfig(attempts=attempts, seed=seed))


def conflict_matrix(atoms):
    """The k x k int8 atom-conflict matrix that kms_round builds."""
    return np.array([[atoms.adj[a] >> b & 1 for b in range(atoms.k)]
                     for a in range(atoms.k)], dtype=np.int8)


@st.composite
def dense_timetables(draw):
    """small_timetables of 8 to 14 events on a G(n, 1/2) conflict graph (no
    edge inside the pre-class), where KMS often misses chi_m."""
    inst = draw(small_timetables(min_n=8, max_n=14))
    pre = set().union(*inst.precolouring)
    g = gen_gnp(inst.graph.n, 0.5, draw(st.integers(0, 2**16)))
    edges = [(u, v) for u, v in g.edges if not (u in pre and v in pre)]
    return dataclasses.replace(inst, graph=ConflictGraph.from_edges(g.n, edges))


class TestDescent:
    """_descend against the plain loop of tests/_reference.py, and kms_round
    with a target."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=small_timetables(), data=st.data())
    def test_matches_reference_loop(self, inst, data):
        atoms = Atoms(inst)
        classes = TestKmsProperties._drawn_classes(inst, atoms, data)
        assume(len(classes) > 1)
        target = data.draw(st.integers(1, len(classes) - 1))
        seed = data.draw(st.integers(0, 2**16))
        budget = data.draw(st.integers(0, 3 * atoms.k))
        got = _descend(atoms, conflict_matrix(atoms), [list(c) for c in classes],
                       target, budget, np.random.default_rng(seed))
        assert got == descend_loop(inst, atoms.members, classes, target, budget,
                                   np.random.default_rng(seed))
        if got[0] is not None:
            assert len(got[0]) <= target
            rep = validate_partition(inst, atoms.expand(got[0]))
            assert rep.ok, rep.violations

    def test_matches_reference_loop_from_singletons(self):
        # long runs through the tabu rule: chi_m - 1 is out of reach, so the
        # whole budget is spent
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(8, 16)), int(rng.integers(2, 5))
            inst = TimetablingInstance.colouring(gen_gnp(n, 0.5, seed), m)
            atoms = Atoms(inst)
            chi = exact_bounded_chromatic(inst).chi_m
            for target in range(max(chi - 1, 1), chi + 1):
                classes = [[a] for a in rng.permutation(atoms.k).tolist()]
                args = (classes, target, 2 * atoms.k)
                got = _descend(atoms, conflict_matrix(atoms), *args,
                               np.random.default_rng(seed))
                assert got == descend_loop(inst, atoms.members, *args,
                                           np.random.default_rng(seed)), (seed, target)
                assert (got[0] is None) == (target < chi)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(inst=dense_timetables(), seed=st.integers(0, 2**16),
           k=st.integers(1, 8), below=st.booleans())
    def test_target_reached_or_timetable_unchanged(self, inst, seed, k, below):
        target = exact_bounded_chromatic(inst).chi_m - below
        assume(target >= 1)
        y = planted_solution(inst.graph.n, k, seed)
        cfg = RoundingConfig(attempts=4, seed=seed)
        stats = {}
        part = kms_round(y, inst, cfg, target=target, stats=stats)
        if stats["descent_reached"]:
            rep = validate_partition(inst, part)
            assert rep.ok, rep.violations
            assert part.num_classes == target < stats["min_classes"]
            for pre in inst.precolouring:
                assert sum(1 for c in part.classes if c & pre) == 1
        else:
            plain = kms_round(y, inst, cfg)
            assert (part.classes, part.room_of) == (plain.classes, plain.room_of)

    @pytest.mark.parametrize("case", sorted(GOLDEN_CALLS))
    def test_unreachable_target_gives_the_kms_timetable(self, case):
        inst, y, cfg = GOLDEN_CALLS[case]()
        stats = {}
        part = kms_round(y, inst, cfg, stats=stats,
                         target=exact_bounded_chromatic(inst).chi_m - 1)
        assert not stats["descent_reached"] and stats["descent_swaps"] > 0
        assert stats["attempts_run"] == cfg.attempts
        plain = kms_round(y, inst, cfg)
        assert (part.classes, part.room_of) == (plain.classes, plain.room_of)
        if case.startswith("gnp40"):
            assert class_tuples(part) == TestKmsGolden.GNP40[int(case[-1])]

    def test_reached_target_stops_after_attempt_0(self):
        inst, y, cfg = GOLDEN_CALLS["gnp40-s1"]()
        stats = {}
        part = kms_round(y, inst, cfg, target=9, stats=stats)  # chi_5 is 9
        assert stats["attempts_run"] == 1 and stats["descent_reached"]
        assert stats["min_classes"] > part.num_classes == 9
        assert validate_partition(inst, part).ok
