"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria over the published benchmark tables run at their stated tolerances;
the two dataset-backed criteria (the Toronto sta-f-83 table and ITC comp01)
skip with an explicit message when the input files are absent, since the
datasets are not redistributable with the package.  Drop them under
data/toronto and data/itc2007 (or point BCSDP_DATA at a directory with that
layout) to activate those tests.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bcsdp.graphs import (
    TimetablingInstance,
    complete_graph,
    counting_bound,
    cycle_graph,
    empty_graph,
    gen_forbidden_intersection,
    gen_gnp,
    gen_kneser,
    validate_partition,
)
from bcsdp.ingest import parse_itc2007, parse_toronto
from bcsdp.oracle import exact_bounded_chromatic
from bcsdp.relax import build_bounded, build_theta
from bcsdp.rounding import (
    RoundingConfig,
    greedy_colouring,
    iterative_round,
    kms_round,
)
from bcsdp.solver import SolverConfig, extract_bound, solve, update_multipliers

from conftest import four_vertex_graphs, named_small_graphs
from _reference import (
    dense_v_reference,
    dense_y_reference,
    enumerate_chi_m,
)
from test_solver import parts, randomized_state


def data_root() -> Path:
    env = os.environ.get("BCSDP_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data"


def report(criterion: str, passed: bool, detail: str, skipped: bool = False) -> None:
    status = "SKIP" if skipped else ("PASS" if passed else "FAIL")
    print(f"[ACCEPT] {criterion}: {status} - {detail}")


def solve_bounded(g, m, eps=1e-5):
    return solve(build_bounded(g, m), SolverConfig(eps=eps))


TORONTO_TABLE = {
    1: 47, 2: 26, 3: 20, 4: 16, 5: 14, 6: 13, 7: 12, 8: 11, 9: 11, 47: 11,
    None: 11,
}


class TestCriterion1TorontoTable:
    def test_sta_f_83_table(self):
        root = data_root() / "toronto"
        crs, stu = root / "sta-f-83.crs", root / "sta-f-83.stu"
        if not crs.exists() or not stu.exists():
            report("criterion-1 toronto-table", False,
                   f"dataset not present under {root}", skipped=True)
            pytest.skip(
                f"sta-f-83 dataset not present under {root}; place the "
                "Toronto benchmark files there to run the sta-f-83 table"
            )
        doc = parse_toronto(crs.read_text(), stu.read_text(), name="sta-f-83")
        g = doc.instance.graph
        assert g.n == 139, "139 events expected"
        from bcsdp.graphs import connected_components

        comps = connected_components(g)
        assert sorted(len(c) for c in comps) == [30, 47, 62]
        sub, _ = g.subgraph(sorted(next(c for c in comps if len(c) == 47)))
        failures = []
        for m, want in TORONTO_TABLE.items():
            t0 = time.perf_counter()
            if m is None:
                res = solve(build_theta(sub, "lovasz"), SolverConfig())
                bound, certified = extract_bound(res)
            else:
                res = solve_bounded(sub, m)
                bound, certified = extract_bound(res)
            elapsed = time.perf_counter() - t0
            if certified != want:
                failures.append(f"m={m}: certified {certified} != {want}")
            if abs(bound - want) > 0.1:
                failures.append(f"m={m}: bound {bound:.4f} not within 0.1 of {want}")
            if elapsed > 120.0:
                failures.append(f"m={m}: solve took {elapsed:.0f}s > 120s")
            ores = exact_bounded_chromatic(
                TimetablingInstance.colouring(sub, m if m else sub.n),
                time_limit=600.0,
            )
            if ores.chi_m != want:
                failures.append(f"m={m}: oracle {ores.chi_m} != {want}")
        report("criterion-1 toronto-table", not failures,
               "; ".join(failures) or "11 rows reproduced")
        assert not failures, failures


# Benchmark rows: (generator args, published largest-class C, per-offset
# (solver value, oracle optimum)); None marks documented exclusions.
KNESER_TABLE = {
    (5, 2): (4, {0: (2.50, 3), -1: (10 / 3, 4), -2: (5.00, 5), -3: (10.00, None)}),
    (6, 2): (5, {0: (3.00, 4), -1: (3.75, 4), -2: (5.00, 5), -3: (7.50, 8)}),
    (7, 2): (6, {0: (3.50, 5), -1: (4.20, 5), -2: (5.25, 6), -3: (7.00, 7)}),
    (8, 2): (6, {0: (14 / 3, 6), -1: (5.60, 6), -2: (7.00, 7), -3: (28 / 3, 10)}),
}


class TestCriterion2KneserFiTable:
    def test_kneser_and_fi_values(self):
        failures = []
        for (n, k), (big_c, cols) in KNESER_TABLE.items():
            g = gen_kneser(n, k)
            for offset, (want_val, want_chi) in cols.items():
                m = big_c + offset
                res = solve_bounded(g, m)
                if abs(res.value - want_val) > 0.05:
                    failures.append(
                        f"K({n},{k}) m={m}: {res.value:.4f} vs {want_val:.4f}"
                    )
                if want_chi is not None:
                    ores = exact_bounded_chromatic(
                        TimetablingInstance.colouring(g, m), time_limit=300.0
                    )
                    if ores.chi_m != want_chi:
                        failures.append(
                            f"K({n},{k}) m={m}: oracle {ores.chi_m} vs {want_chi}"
                        )
        fi = gen_forbidden_intersection(6, 2 / 3)
        res = solve_bounded(fi, 10)
        if abs(res.value - 6.40) > 0.05:
            failures.append(f"FI(6,2/3) m=10: {res.value:.4f} vs 6.40")
        # The published optimum columns for the 2/3-distance row read
        # (7, 8, 8, 10) at m = 10, 9, 8, 7.  The first cell is provably a
        # misprint: the optimum is monotone non-increasing in m, the same row
        # prints 8 at m = 9, and each parity class of the graph (32 words)
        # has independence number 4, forcing at least 32/4 = 8 classes at
        # any m.  The oracle is asserted against the proven value 8 and the
        # printed 7 is excluded alongside the two flagged cells.
        for m, want_chi in ((10, 8), (9, 8), (8, 8), (7, 10)):
            ores = exact_bounded_chromatic(
                TimetablingInstance.colouring(fi, m), time_limit=300.0
            )
            if ores.chi_m != want_chi:
                failures.append(f"FI(6,2/3) m={m}: oracle {ores.chi_m} vs {want_chi}")
        with pytest.raises(ValueError):
            gen_forbidden_intersection(6, 1.0)  # FI(6,1.00): excluded row
        report("criterion-2 kneser-fi-table", not failures,
               "; ".join(failures) or "16 Kneser cells + FI(6,2/3) reproduced")
        assert not failures, failures


class TestCriterion3AnalyticValues:
    def test_complete_graphs(self):
        failures = []
        for n in range(2, 21):
            for m in {1, max(1, n // 2), n}:
                res = solve_bounded(complete_graph(n), m)
                if abs(res.value - n) > 1e-3:
                    failures.append(f"K{n} m={m}: {res.value:.5f}")
        report("criterion-3a complete-graphs", not failures,
               "; ".join(failures) or "K2..K20 within 1e-3")
        assert not failures, failures

    def test_empty_graphs(self):
        failures = []
        for n, m in ((10, 2), (12, 3), (8, 4), (6, 6), (9, 3)):
            res = solve_bounded(empty_graph(n), m)
            if abs(res.value - n / m) > 1e-3:
                failures.append(f"empty n={n} m={m}: {res.value:.5f}")
        report("criterion-3b empty-graphs", not failures,
               "; ".join(failures) or "n/m within 1e-3")
        assert not failures, failures

    def test_c5_lovasz(self):
        res = solve(build_theta(cycle_graph(5), "lovasz"), SolverConfig(eps=1e-6))
        ok = abs(res.value - 2.2361) <= 1e-3
        report("criterion-3c c5-theta", ok, f"value {res.value:.5f}")
        assert ok


class TestCriterion4Sandwich:
    def test_sandwich_chain_100_seeds(self):
        violations = []
        for seed in range(100):
            g = gen_gnp(12, 0.5, seed)
            for m in (2, 3, 4):
                inst = TimetablingInstance.colouring(g, m)
                greedy = greedy_colouring(inst)
                res = solve_bounded(g, m)
                bound, certified = extract_bound(res)
                cnt = counting_bound(12, m)
                chi = exact_bounded_chromatic(inst, time_limit=60.0).chi_m
                # integer chain; the real-valued link is covered by the
                # safeguarded ceiling at the solver's accuracy
                if not (cnt <= certified <= chi <= greedy.num_classes):
                    violations.append(
                        f"seed={seed} m={m}: {cnt},{certified},{chi},"
                        f"{greedy.num_classes}"
                    )
                if bound < cnt - 1e-6 - 10 * res.eps * max(1.0, abs(bound)):
                    violations.append(
                        f"seed={seed} m={m}: real bound {bound:.6f} below counting"
                    )
        report("criterion-4 sandwich", not violations,
               "; ".join(violations[:5]) or "300 chains consistent")
        assert not violations, violations[:10]


class TestCriterion5Rounding:
    def test_rounding_quality_100_seeds(self):
        kms_matches = 0
        kms_valid = 0
        iter_valid = 0
        details = []
        for seed in range(100):
            g = gen_gnp(20, 0.5, seed)
            unbounded = exact_bounded_chromatic(
                TimetablingInstance.colouring(g, 20), time_limit=120.0
            )
            big_c = max(len(c) for c in unbounded.witness.classes)
            m = max(1, big_c - 3)
            inst = TimetablingInstance.colouring(g, m)
            res = solve_bounded(g, m)
            model = build_bounded(g, m)
            chi = exact_bounded_chromatic(inst, time_limit=120.0).chi_m
            y = res.X_final + np.ones_like(res.X_final)
            part = kms_round(y, inst, RoundingConfig(attempts=50, seed=seed))
            if validate_partition(inst, part).ok:
                kms_valid += 1
            if part.num_classes == chi:
                kms_matches += 1
            else:
                details.append(f"seed={seed} m={m}: kms {part.num_classes} vs {chi}")
            ipart, _diag = iterative_round(
                model, res.X_final, inst, RoundingConfig(seed=seed)
            )
            if validate_partition(inst, ipart).ok:
                iter_valid += 1
        ok = kms_valid == 100 and kms_matches >= 90 and iter_valid == 100
        report(
            "criterion-5 rounding",
            ok,
            f"kms valid {kms_valid}/100, optimal {kms_matches}/100, "
            f"iterative valid {iter_valid}/100"
            + ("; " + "; ".join(details[:3]) if details else ""),
        )
        assert kms_valid == 100
        assert iter_valid == 100
        assert kms_matches >= 90, details


class TestCriterion6StructuredKernels:
    def test_kernels_match_dense(self):
        models = []
        for g in four_vertex_graphs():
            for m in range(1, 5):
                models.append(build_bounded(g, m))
        for seed in range(50):
            g = gen_gnp(8, 0.5, 1000 + seed)
            models.append(build_bounded(g, 2 + seed % 3))
        worst_y = 0.0
        worst_v = 0.0
        for i, model in enumerate(models):
            st = randomized_state(model, i)
            mu = 0.5 + (i % 5) * 0.4
            y1, y2, v = parts(model, update_multipliers(st, model, mu))
            ry1, ry2 = dense_y_reference(model, st.X, *parts(model, st.y), st.S, mu)
            if len(y1):
                worst_y = max(worst_y, float(np.max(np.abs(y1 - ry1))))
            if len(y2):
                worst_y = max(worst_y, float(np.max(np.abs(y2 - ry2))))
            # the v step of the pass reads the y1, y2 of its own pass
            rv = dense_v_reference(model, st.X, y1, y2, parts(model, st.y)[2], st.S, mu)
            if len(v):
                worst_v = max(worst_v, float(np.max(np.abs(v - rv))))
        ok = worst_y <= 1e-10 and worst_v <= 1e-10
        report(
            "criterion-6 structured-kernels",
            ok,
            f"94 models: max |y-dense| {worst_y:.2e}, max |v-dense| {worst_v:.2e}",
        )
        assert ok


class TestCriterion7OracleEquivalence:
    def test_oracle_matches_enumeration(self):
        mismatches = []
        checked = 0
        for p in (0.2, 0.5, 0.8):
            for seed in range(200):
                g = gen_gnp(8, p, seed)
                for m in range(1, 9):
                    inst = TimetablingInstance.colouring(g, m)
                    got = exact_bounded_chromatic(inst, time_limit=30.0).chi_m
                    want = enumerate_chi_m(inst)
                    checked += 1
                    if got != want:
                        mismatches.append(f"p={p} seed={seed} m={m}: {got}!={want}")
        for name, g in named_small_graphs():
            if g.n > 8:
                continue
            for m in range(1, g.n + 1):
                inst = TimetablingInstance.colouring(g, m)
                got = exact_bounded_chromatic(inst, time_limit=30.0).chi_m
                want = enumerate_chi_m(inst)
                checked += 1
                if got != want:
                    mismatches.append(f"{name} m={m}: {got}!={want}")
        report("criterion-7 oracle-equivalence", not mismatches,
               f"{checked} instances, {len(mismatches)} mismatches")
        assert not mismatches, mismatches[:10]


class TestCriterion8ItcComp01:
    def test_comp01_soft(self):
        path = data_root() / "itc2007" / "comp01.ctt"
        if not path.exists():
            report("criterion-8 itc-comp01", False,
                   f"dataset not present at {path}", skipped=True)
            pytest.skip(
                f"comp01.ctt not present at {path}; place the ITC-2007 "
                "track-3 file there to run the comp01 row"
            )
        doc = parse_itc2007(path.read_text(), name="comp01")
        g = doc.instance.graph
        notes = []
        if g.n != 30 or doc.instance.m != 6:
            notes.append(f"extracted {g.n} courses/{doc.instance.m} rooms")
        theta = solve(build_theta(g, "lovasz"), SolverConfig())
        res = solve_bounded(g, doc.instance.m)
        inst = TimetablingInstance.colouring(g, doc.instance.m)
        y = res.X_final + np.ones_like(res.X_final)
        part = kms_round(y, inst, RoundingConfig(attempts=50, seed=0))
        soft_failures = []
        if abs(theta.value - 4.00) > 0.1:
            soft_failures.append(f"theta {theta.value:.3f} vs 4.00")
        if abs(res.value - 5.00) > 0.1:
            soft_failures.append(f"bounded {res.value:.3f} vs 5.00")
        if part.num_classes > 7:
            soft_failures.append(f"rounded {part.num_classes} > 7")
        ok = not soft_failures
        report("criterion-8 itc-comp01", ok,
               "; ".join(soft_failures + notes) or "comp01 reproduced")
        # soft criterion: extraction-ambiguity failures are documented, not
        # fatal, but only when the extracted graph differs from the published
        # course-based one
        if notes:
            pytest.skip("extraction differs from the published graph: "
                        + "; ".join(notes + soft_failures))
        assert ok, soft_failures


class TestCriterion9RuntimeScaling:
    def test_subcubic_smoke(self):
        sizes = (20, 40, 80)
        times = []
        for n in sizes:
            g = gen_gnp(n, 0.5, 1)
            model = build_bounded(g, 5)
            cfg = SolverConfig(eps=1e-12, max_iter=150)
            t0 = time.perf_counter()
            solve(model, cfg)
            best = time.perf_counter() - t0
            t0 = time.perf_counter()
            solve(model, cfg)
            best = min(best, time.perf_counter() - t0)
            times.append(best)
        logs_n = np.log(np.array(sizes, dtype=float))
        logs_t = np.log(np.array(times))
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
        ok = slope < 3.0
        report("criterion-9 runtime-scaling", ok,
               f"fixed-iteration times {['%.3fs' % t for t in times]}, "
               f"log-log slope {slope:.2f} (< 3 required)")
        assert ok
