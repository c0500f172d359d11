import json
import subprocess
import sys
from pathlib import Path

import pytest

import bcsdp.cli as cli
from bcsdp.cli import main, read_partition, select_component
from bcsdp.graphs import ConflictGraph, TimetablingInstance, validate_partition
from bcsdp.ingest import InstanceDocument, parse_native, write_native


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
        assert row["kernels"] == "scaled_identity|chain|alphabeta"

    def test_warm_start_respects_weights(self, capsys, tmp_path, monkeypatch):
        inst, path = native_file(tmp_path, weights=(2, 2, 1, 1, 1, 1))
        warm_starts = []
        solve = cli.solve

        def record(model, sem, cfg):
            warm_starts.append(cfg.warm_start)
            return solve(model, sem, cfg)

        monkeypatch.setattr(cli, "solve", record)
        code, _, _ = run_cli(
            ["bound", str(path), "--m", "2", "--output-format", "json"], capsys
        )
        assert code == 0
        (warm,) = warm_starts
        # a class weighing more than m = 2 would start from an invalid colouring
        assert warm is not None and validate_partition(inst, warm).ok

    def test_verbose_keeps_stdout_machine_readable(self, capsys):
        code, out, err = run_cli(
            ["bound", "--gen", "gnp:30,0.5,1", "--m", "4", "--verbose", "1",
             "--output-format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["bound"] == "7.5000"
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

    def test_missing_input_errors(self, capsys):
        code, out, err = run_cli(["bound", "--m", "2"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_generator_errors(self, capsys):
        code, out, err = run_cli(["bound", "--gen", "blob:3", "--m", "1"], capsys)
        assert code == 1

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

    def test_k5_singletons(self, capsys):
        code, out, err = run_cli(
            ["colour", "--gen", "complete:5", "--m", "3", "--method", "greedy",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["classes"] == 5

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

    def test_iterative_method(self, capsys):
        code, out, err = run_cli(
            ["colour", "--gen", "empty:6", "--m", "3", "--method", "iterative",
             "--output-format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["valid"] is True


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
