import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bcsdp.cli import main, read_partition, select_component
from bcsdp.graphs import (
    ConflictGraph,
    TimetablingInstance,
    gen_gnp,
    validate_partition,
)
from bcsdp.ingest import InstanceDocument, parse_native, write_native
from bcsdp.oracle import exact_bounded_chromatic


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def native_file(tmp_path, weights=None, precolouring=()):
    """Six events, conflicts 0-1 and 2-3, written as a bcsdp-v1 file."""
    inst = TimetablingInstance(
        ConflictGraph(6, frozenset({(0, 1), (2, 3)})), m=2,
        weights=weights, precolouring=precolouring,
    )
    path = tmp_path / "six.bcsdp"
    path.write_text(write_native(InstanceDocument("six", inst, "native")))
    return inst, path


class TestBound:
    def test_complete_graph(self, capsys):
        code, out, err = run_cli(
            ["bound", "--gen", "complete:5", "--relax", "bounded", "--m", "1",
             "--output-format", "csv"], capsys
        )
        assert code == 0
        line = out.splitlines()[1].split(",")
        assert line[0] == "complete:5"
        assert line[4] == "5"  # certified

    def test_kneser_offset(self, capsys):
        code, out, err = run_cli(
            ["bound", "--gen", "kneser:8,2", "--relax", "bounded",
             "--m-offset", "-3", "--oracle-limit", "60",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        # oracle colouring of K(8,2) has a 7-star class: m = 7 - 3 = 4
        assert float(row["bound"]) == pytest.approx(7.0, abs=0.05)
        assert row["kernels"] == "diag|alphabeta|alphabeta"
        # no column counts the partial eigensolve steps (DEBUG records carry rank)
        assert "partial_steps" not in row
        # the search that chose m: K(8,2) coloured with m = n rooms
        assert row["oracle_nodes"] == 270

    @pytest.mark.parametrize("seed, m", [(1, 5), (2, 5), (3, 4)])
    def test_m_offset_reads_the_oracle_witness(self, capsys, seed, m):
        # m is the largest class of the witness the oracle returns, not a
        # canonical quantity: each of these witnesses is optimal (9 classes),
        # yet seeds 1 and 2 hold a 7-class and seed 3 only 6-classes.  A
        # search-order change that returns another optimal witness moves m.
        code, out, _ = run_cli(
            ["bound", "--gen", f"gnp:45,0.5,{seed}", "--m-offset", "-2",
             "--output-format", "json"], capsys
        )
        assert code == 0
        g = gen_gnp(45, 0.5, seed)
        res = exact_bounded_chromatic(TimetablingInstance.colouring(g, g.n))
        largest = max(len(c) for c in res.witness.classes)
        assert json.loads(out)[0]["m"] == largest - 2 == m

    def test_verbose_keeps_stdout_machine_readable(self, capsys):
        argv = ["bound", "--gen", "gnp:30,0.5,1", "--m", "4", "--output-format", "json"]
        code, quiet, _ = run_cli(argv, capsys)
        assert code == 0
        code, out, err = run_cli([*argv, "--verbose", "1"], capsys)
        assert code == 0
        # the row is the one printed without --verbose, all but its timing
        (row,), (quiet_row,) = json.loads(out), json.loads(quiet)
        del row["seconds"], quiet_row["seconds"]
        assert row == quiet_row
        # --m runs no oracle search
        assert row["oracle_nodes"] == ""
        progress = [ln for ln in err.splitlines() if ln.startswith("bcsdp.solver:")]
        assert "iter=200" in progress[0]
        # progress values are in the bound's units (value_offset included)
        assert "value=7.4999" in progress[-1]

    def test_unbounded_defaults_to_theta(self, capsys):
        code, out, err = run_cli(
            ["bound", "--gen", "cycle:5", "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["relaxation"] == "lovasz"
        assert float(row["bound"]) == pytest.approx(2.2361, abs=1e-2)
        assert row["dual_bound"] == ""  # theta models keep the primal rule

    @pytest.mark.parametrize("max_iter", ["3", "20000"])
    def test_certified_is_the_ceiling_of_dual_bound(self, capsys, max_iter):
        code, out, err = run_cli(
            ["bound", "--gen", "gnp:12,0.5,3", "--m", "2", "--max-iter", max_iter,
             "--output-format", "json"], capsys
        )
        row = json.loads(out)[0]
        assert code == (0 if row["status"] == "converged" else 3)
        assert math.ceil(float(row["dual_bound"])) == row["certified"] <= 6  # χ_m

    def test_missing_input_errors(self, capsys):
        code, out, err = run_cli(["bound", "--m", "2"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_generator_errors(self, capsys):
        code, out, err = run_cli(["bound", "--gen", "blob:3", "--m", "1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("record", ["GRAPH", "e 0", "e 0 x", "ROOMS x"])
    def test_malformed_native_record_names_its_line(self, capsys, tmp_path, record):
        path = tmp_path / "bad.bcsdp"
        path.write_text(f"bcsdp-v1 bad\nGRAPH 2 0\n{record}\nEND\n")
        code, out, err = run_cli(["bound", str(path), "--m", "1"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: line 3: malformed record {record!r}"]

    @pytest.mark.parametrize("relax, weights, pre, field", [
        ("laminar", (2, 2, 1, 1, 1, 1), (), "weights"),
        ("rooms", (2, 2, 1, 1, 1, 1), (), "weights"),
        ("rooms", None, (frozenset({0, 2}),), "precolouring"),
        ("bounded", (2, 2, 1, 1, 1, 1), (frozenset({0, 2}),), "weights"),
    ])
    def test_unmodelled_field_refused(self, capsys, tmp_path, relax, weights,
                                      pre, field):
        _, path = native_file(tmp_path, weights, pre)
        code, out, err = run_cli(
            ["bound", str(path), "--relax", relax, "--m", "2"], capsys
        )
        assert code == 1
        assert f"cannot model the instance's {field}" in err
        assert out == ""

    @pytest.mark.parametrize("weights, pre, field", [
        ((2, 2, 1, 1, 1, 1), (), "weights"),
        (None, (frozenset({0, 2}),), "precolouring"),
    ])
    def test_m_offset_refuses_unmodelled_field(self, capsys, tmp_path, weights,
                                               pre, field):
        # m would come from a colouring of the bare graph, another problem
        _, path = native_file(tmp_path, weights, pre)
        code, out, err = run_cli(
            ["bound", str(path), "--relax", "bounded", "--m-offset", "0"], capsys
        )
        assert code == 1
        assert f"--m-offset cannot model the instance's {field}" in err
        assert out == ""


class TestColour:
    def test_empty_graph_gap_zero(self, capsys, tmp_path):
        out_file = tmp_path / "part.txt"
        code, out, err = run_cli(
            ["colour", "--gen", "empty:10", "--m", "2", "--method", "kms",
             "--attempts", "10", "--out", str(out_file),
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["classes"] == 5
        assert row["gap"] == 0
        part = read_partition(out_file.read_text())
        inst = TimetablingInstance.colouring(
            parse_native_graph("empty:10"), 2
        )
        assert validate_partition(inst, part).ok

    def test_petersen_kms(self, capsys):
        code, out, err = run_cli(
            ["colour", "--gen", "kneser:5,2", "--m", "3", "--method", "kms",
             "--attempts", "50", "--round-seed", "7",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["classes"] == 4
        assert row["valid"] is True
        assert math.ceil(float(row["dual_bound"])) == row["certified_lower"] == 4

    def test_kms_stops_at_the_certificate(self, capsys, tmp_path):
        # KMS's attempt 0 has more classes than the certified 8; the descent
        # from it reaches 8, a timetable proven optimal
        out_file = tmp_path / "part.txt"
        code, out, err = run_cli(
            ["colour", "--gen", "gnp:30,0.5,1", "--m", "4", "--method", "kms",
             "--out", str(out_file), "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["classes"] == row["certified_lower"] == 8 < row["kms_classes"]
        assert row["gap"] == 0 and row["valid"] is True
        inst = TimetablingInstance.colouring(parse_native_graph("gnp:30,0.5,1"), 4)
        part = read_partition(out_file.read_text())
        assert part.num_classes == 8 and validate_partition(inst, part).ok

    def test_k5_singletons(self, capsys):
        code, out, err = run_cli(
            ["colour", "--gen", "complete:5", "--m", "3", "--method", "greedy",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["classes"] == 5
        assert row["kms_classes"] == ""  # no KMS run
        assert row["oracle_nodes"] == row["oracle_seconds"] == ""  # --m searches nothing
        assert row["dual_bound"] == ""  # greedy certifies with the counting bound

    def test_m_offset_reports_oracle_nodes(self, capsys):
        code, out, err = run_cli(
            ["colour", "--gen", "kneser:5,2", "--m-offset", "-1", "--method", "greedy",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        # the Petersen graph's optimal 3-colouring has a 4-vertex class
        assert row["m"] == 3
        assert row["oracle_nodes"] == 5
        # the search's own wall time, which the row's seconds leave out
        assert 0.0 <= float(row["oracle_seconds"]) < 60.0

    def test_weights_reach_kms(self, capsys, tmp_path):
        inst, path = native_file(tmp_path, weights=(2, 2, 1, 1, 1, 1))
        out_file = tmp_path / "part.txt"
        code, out, err = run_cli(
            ["colour", str(path), "--m", "2", "--method", "kms",
             "--out", str(out_file), "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["valid"] is True
        assert row["classes"] == 4  # total weight 8 in classes of weight <= 2
        assert row["gap"] >= 0
        assert validate_partition(inst, read_partition(out_file.read_text())).ok

    def test_precoloured_kms_gap_nonnegative(self, capsys, tmp_path):
        # two pre-classes may share a period: one class suffices; the atoms
        # (1, 3), (2,), (0,) are not in vertex order
        inst = TimetablingInstance(
            ConflictGraph(4, frozenset()), m=4,
            precolouring=(frozenset({1, 3}), frozenset({2})),
        )
        path = tmp_path / "pre.bcsdp"
        path.write_text(write_native(InstanceDocument("pre", inst, "native")))
        out_file = tmp_path / "part.txt"
        code, out, err = run_cli(
            ["colour", str(path), "--m", "4", "--method", "kms",
             "--out", str(out_file), "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["valid"] is True
        assert row["certified_lower"] == row["classes"] == 1
        assert row["gap"] >= 0
        assert validate_partition(inst, read_partition(out_file.read_text())).ok

    def test_iterative_refuses_precolouring(self, capsys, tmp_path):
        _, path = native_file(tmp_path, precolouring=(frozenset({0, 2}),))
        code, out, err = run_cli(
            ["colour", str(path), "--m", "2", "--method", "iterative"], capsys
        )
        assert code == 1
        assert "--method iterative cannot model the instance's precolouring" in err
        assert out == ""

    def test_iterative_method(self, capsys):
        code, out, err = run_cli(
            ["colour", "--gen", "empty:6", "--m", "3", "--method", "iterative",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["valid"] is True

    @pytest.mark.parametrize("option", [["--relax", "laminar"], ["--features"],
                                        ["--room-stability"]])
    def test_model_options_belong_to_bound_only(self, capsys, option):
        # colour always solves the bounded relaxation, so it has no use for
        # the options that pick or shape another one
        base = ["--gen", "gnp:12,0.5,1", "--m", "3"]
        with pytest.raises(SystemExit) as exc:
            main(["colour", *base, *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out, _ = run_cli(["bound", *base, "--relax", "laminar", *option,
                                "--output-format", "json"], capsys)
        assert code == 0 and json.loads(out)[0]["relaxation"] == "laminar"


def parse_native_graph(spec):
    from bcsdp.cli import make_generated

    return make_generated(spec).instance.graph


class TestGenConvert:
    def test_gen_native_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "g.bcsdp"
        code, _, _ = run_cli(["gen", "gnp:8,0.5,3", "--out", str(path)], capsys)
        assert code == 0
        doc = parse_native(path.read_text())
        assert doc.instance.graph.n == 8

    def test_gen_dimacs(self, capsys):
        code, out, _ = run_cli(
            ["gen", "complete:3", "--output-format", "dimacs"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "p edge 3 3"

    def test_convert_dimacs_to_native(self, capsys, tmp_path):
        src = tmp_path / "g.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        code, out, _ = run_cli(["convert", str(src)], capsys)
        assert code == 0
        assert out.startswith("bcsdp-v1 g")

    def test_component_selection(self, capsys, tmp_path):
        src = tmp_path / "two.col"
        src.write_text("p edge 5 3\ne 1 2\ne 3 4\ne 4 5\n")
        code, out, _ = run_cli(
            ["bound", str(src), "--m", "1", "--component", "1",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["certified"] == 3  # largest component has 3 vertices


class TestComponent:
    def test_component_keeps_every_field(self):
        # components {0, 2, 4, 6} (a path) and {1, 3, 5}; pre-class {3, 4}
        # spans both, pre-class {5} lies in the smaller one
        inst = TimetablingInstance(
            ConflictGraph(7, frozenset({(0, 2), (2, 4), (4, 6), (1, 3), (3, 5)})),
            m=4,
            event_sizes=(10, 20, 30, 40, 50, 60, 70),
            room_capacities=(80, 70, 60, 50),
            feature_count=2,
            event_features=frozenset({(2, 0), (5, 1), (6, 1)}),
            room_features=frozenset({(0, 0), (1, 1), (3, 1)}),
            precolouring=(frozenset({3, 4}), frozenset({5})),
            weights=(1, 2, 1, 1, 2, 1, 1),
            lectures=(1, 2, 3, 4, 5, 6, 7),
        )
        doc = InstanceDocument("two", inst, "native")
        big = select_component(doc, 1)
        assert big.name == "two#c1"
        assert big.instance == TimetablingInstance(
            ConflictGraph(4, frozenset({(0, 1), (1, 2), (2, 3)})),
            m=4,
            event_sizes=(10, 30, 50, 70),
            room_capacities=(80, 70, 60, 50),
            feature_count=2,
            event_features=frozenset({(1, 0), (3, 1)}),
            room_features=frozenset({(0, 0), (1, 1), (3, 1)}),
            precolouring=(frozenset({2}),),
            weights=(1, 1, 2, 1),
            lectures=(1, 3, 5, 7),
        )
        small = select_component(doc, 2)
        assert small.instance == TimetablingInstance(
            ConflictGraph(3, frozenset({(0, 1), (1, 2)})),
            m=3,
            event_sizes=(20, 40, 60),
            room_capacities=(80, 70, 60),
            feature_count=2,
            event_features=frozenset({(2, 1)}),
            room_features=frozenset({(0, 0), (1, 1)}),
            precolouring=(frozenset({1}), frozenset({2})),
            weights=(2, 1, 1),
            lectures=(2, 4, 6),
        )


class TestBench:
    def test_random_sweep_consistent(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["bench", "--suite", "random-sweep", "--n", "8", "--p", "0.5",
             "--seeds", "3", "--m-values", "2", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows
        header = lines[0].split(",")
        consistent_idx = header.index("consistent")
        for line in lines[1:]:
            assert line.split(",")[consistent_idx] == "True"

    def test_random_sweep_row_per_seed_and_m(self, capsys, monkeypatch):
        # each (seed, m) is its own row, with its own consistent and error: a
        # failed check at m = 2 must not stay on the m = 3 row
        from bcsdp import cli

        check = cli.sandwich_check

        def fails_at_m2(g, m, time_limit, cfg):
            rep = check(g, m, time_limit=time_limit, cfg=cfg)
            if m != 2:
                return rep
            return dataclasses.replace(rep, passed=False, failures=("stub at m=2",))

        monkeypatch.setattr(cli, "sandwich_check", fails_at_m2)
        code, out, err = run_cli(
            ["bench", "--suite", "random-sweep", "--n", "8", "--seeds", "3",
             "--m-values", "2", "3", "--output-format", "json"], capsys)
        rows = json.loads(out)
        assert code == 1 and err == "3 row(s) failed\n"
        assert [(r["seed"], r["m"]) for r in rows] == [
            (seed, m) for seed in range(3) for m in (2, 3)]
        for r in rows:
            assert r["consistent"] is (r["m"] == 3)
            assert r["error"] == ("stub at m=2" if r["m"] == 2 else "")

    def test_random_sweep_solves_theta_once_per_graph(self, capsys, monkeypatch):
        # theta does not depend on m: 3 seeds at 2 room counts build 3 theta
        # models, one per graph, and print the same rows as 6 solves would
        from bcsdp import oracle

        built = []

        def counting(g, variant="lovasz"):
            built.append(g)
            return build_theta(g, variant)

        build_theta = oracle.build_theta
        monkeypatch.setattr(oracle, "build_theta", counting)
        oracle._lovasz_theta.cache_clear()
        code, out, _ = run_cli(
            ["bench", "--suite", "random-sweep", "--n", "12", "--seeds", "3",
             "--m-values", "2", "3", "--output-format", "json"], capsys)
        assert code == 0
        assert len(built) == 3 and len(set(built)) == 3
        rows = json.loads(out)
        for a, b in zip(rows[::2], rows[1::2]):
            assert (a["seed"], a["m"], b["m"]) == (b["seed"], 2, 3)
            assert a["theta"] == b["theta"]

    def test_bench_eps_reaches_every_suite(self, capsys, monkeypatch):
        # --eps sets the solver tolerance of the kneser-fi and random-sweep
        # solves; it is not accepted and then ignored
        from bcsdp import cli

        sweep = ["bench", "--suite", "random-sweep", "--n", "12", "--seeds", "2",
                 "--m-values", "3", "--output-format", "json"]
        _, default, _ = run_cli(sweep, capsys)
        _, explicit, _ = run_cli([*sweep, "--eps", "1e-5"], capsys)
        _, loose, _ = run_cli([*sweep, "--eps", "0.2"], capsys)
        assert default == explicit
        assert [r["theta"] for r in json.loads(loose)] != [
            r["theta"] for r in json.loads(default)]
        eps = []

        def recording(model, cfg=None):
            eps.append(cfg.eps)
            return solve(model, cfg)

        solve = cli.solve
        monkeypatch.setattr(cli, "solve", recording)
        assert run_cli(["bench", "--suite", "kneser-fi", "--eps", "0.2"],
                       capsys)[0] == 0
        assert len(eps) == 28 and set(eps) == {0.2}

    def test_bench_rows_run_on_the_calling_thread(self, capsys, monkeypatch):
        import threading

        from bcsdp import cli
        from bcsdp.oracle import SandwichReport

        threads = []

        def stub_row(spec, oracle_limit, cfg):
            threads.append(threading.current_thread())
            return {"instance": spec, "C": 1}

        def stub_check(g, m, time_limit, cfg):
            threads.append(threading.current_thread())
            return SandwichReport(omega=1, counting=1, theta=1.0, bounded=1.0,
                                  certified=1, chi_m=1, greedy_classes=1,
                                  passed=True, failures=())

        monkeypatch.setattr(cli, "_bench_row_kneser", stub_row)
        monkeypatch.setattr(cli, "sandwich_check", stub_check)
        assert run_cli(["bench", "--suite", "kneser-fi"], capsys)[0] == 0
        assert run_cli(["bench", "--suite", "random-sweep", "--seeds", "4"],
                       capsys)[0] == 0
        assert len(threads) == 7 + 4 * 3
        assert set(threads) == {threading.current_thread()}

    def test_kneser_fi_exit_code_counts_failed_rows(self, capsys, monkeypatch):
        # the stub generates each instance, which is where a spec is
        # rejected, and skips the solves and oracle calls
        from bcsdp import cli

        def stub_row(spec, oracle_limit, cfg):
            if spec in broken:
                raise ValueError(f"stub failure on {spec}")
            if spec in silent:
                raise AssertionError()
            cli.make_generated(spec)
            return {"instance": spec, "C": 1}

        monkeypatch.setattr(cli, "_bench_row_kneser", stub_row)
        broken, silent = set(), set()
        code, out, err = run_cli(["bench", "--suite", "kneser-fi"], capsys)
        assert code == 0 and "failed" not in err
        assert len(out.splitlines()) == 8  # header + 7 rows
        broken = {"kneser:6,2"}
        code, out, err = run_cli(["bench", "--suite", "kneser-fi"], capsys)
        assert code == 1 and "1 row(s) failed" in err
        # an exception without a message still fails its row
        broken, silent = set(), {"fi:6,1/2"}
        code, out, err = run_cli(["bench", "--suite", "kneser-fi",
                                  "--output-format", "json"], capsys)
        assert code == 1 and "1 row(s) failed" in err
        assert json.loads(out)[4]["error"] == "AssertionError"

    def test_kneser_fi_unbounded_timeout_is_a_row_error(self, capsys, monkeypatch):
        # a search that times out on the unbounded colouring proves no C: the
        # row reports an error instead of a C read off the search's incumbent
        from bcsdp import cli
        from bcsdp.oracle import OracleResult
        from bcsdp.rounding import greedy_colouring

        search = cli.exact_bounded_chromatic

        def times_out_unbounded(inst, time_limit):
            if inst.m < inst.graph.n:
                return search(inst, time_limit=time_limit)
            incumbent = greedy_colouring(inst)
            return OracleResult(chi_m=None, witness=incumbent, nodes_explored=1,
                                timed_out=True, lower_bound=1,
                                upper_bound=incumbent.num_classes)

        monkeypatch.setattr(cli, "exact_bounded_chromatic", times_out_unbounded)
        code, out, err = run_cli(["bench", "--suite", "kneser-fi",
                                  "--output-format", "json"], capsys)
        rows = {row["instance"]: row for row in json.loads(out)}
        assert code == 1 and "row(s) failed" in err
        assert "C" not in rows["fi:6,1/2"]
        assert "oracle could not colour" in rows["fi:6,1/2"]["error"]
        # a pinned C needs no unbounded search
        assert rows["kneser:8,2"]["error"] == "" and rows["kneser:8,2"]["C"] == 6

    def test_itc_missing_files(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["bench", "--suite", "itc2007", "--data-dir", str(tmp_path),
             "--output-format", "json"], capsys
        )
        rows = json.loads(out)
        assert code == 1 and err == "21 row(s) failed\n"
        assert [row["instance"] for row in rows] == [f"comp{i:02d}" for i in range(1, 22)]
        for row in rows:
            assert row["error"] == f"missing {tmp_path / row['instance']}.ctt"

    def test_toronto_without_the_47_vertex_component(self, capsys, tmp_path):
        # three exams, two of them sharing a student: components of 2 and 1
        (tmp_path / "sta-f-83.crs").write_text("0001 30\n0002 25\n0003 12\n")
        (tmp_path / "sta-f-83.stu").write_text("0001 0002\n0003\n")
        code, out, err = run_cli(
            ["bench", "--suite", "toronto-sta83", "--data-dir", str(tmp_path),
             "--output-format", "json"], capsys
        )
        assert code == 1 and err == "1 row(s) failed\n"
        assert json.loads(out) == [
            {"instance": "sta-f-83", "error": "47-vertex component not found"}
        ]

    def test_toronto_missing_dataset(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["bench", "--suite", "toronto-sta83", "--data-dir",
             str(tmp_path)], capsys
        )
        assert code == 1
        assert "missing dataset" in out

    def test_csv_stable_modulo_seconds(self, capsys, tmp_path):
        args = ["bench", "--suite", "random-sweep", "--n", "8", "--p", "0.5",
                "--seeds", "2", "--m-values", "2"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2  # no seconds column in this suite

    def test_bound_csv_stable_modulo_seconds(self, capsys):
        import csv as csv_mod
        import io as io_mod

        args = ["bound", "--gen", "gnp:8,0.5,2", "--m", "3",
                "--output-format", "csv"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)

        def strip_seconds(text):
            rows = list(csv_mod.reader(io_mod.StringIO(text)))
            idx = rows[0].index("seconds")
            return [r[:idx] + r[idx + 1:] for r in rows]

        assert strip_seconds(out1) == strip_seconds(out2)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bcsdp.cli", "bound", "--gen", "complete:3",
             "--m", "1", "--output-format", "csv"],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parents[1]),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split(",")[4] == "3"

    def test_parser_is_built_once(self):
        from bcsdp.cli import build_parser

        assert build_parser() is build_parser()

    def test_consecutive_calls_share_no_options(self, capsys):
        # one parser serves every call: an option given to one call must not
        # leak into the next, nor one command's options into another's
        code, out, _ = run_cli(["bound", "--gen", "kneser:5,2", "--m", "3",
                                "--output-format", "json"], capsys)
        assert code == 0 and json.loads(out)[0]["m"] == 3
        code, out, err = run_cli(["bound", "--gen", "kneser:5,2", "--m-offset", "-1",
                                  "--output-format", "json"], capsys)
        assert code == 0, err  # a leaked --m would clash with --m-offset
        row = json.loads(out)[0]
        assert row["m"] == 3 and row["oracle_nodes"] != ""  # m from the oracle: 4 - 1
        code, out, _ = run_cli(["colour", "--gen", "kneser:5,2", "--m", "4",
                                "--output-format", "json"], capsys)
        row = json.loads(out)[0]
        assert code == 0 and row["method"] == "kms" and row["oracle_nodes"] == ""
        assert "relaxation" not in row
        code, out, _ = run_cli(["bound", "--gen", "kneser:5,2", "--m", "4",
                                "--output-format", "csv"], capsys)
        assert code == 0 and out.splitlines()[0].split(",")[2] == "relaxation"
