"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402  (sets the thread caps before numpy loads)
from checks import Checker, Outcome  # noqa: E402
from inputs import TIMETABLES, write_inputs  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Call, calls  # noqa: E402

from bcsdp import cli  # noqa: E402
from bcsdp.graphs import TimetablingInstance, gen_kneser  # noqa: E402
from bcsdp.oracle import exact_bounded_chromatic  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bound_outcome(spec: str, m: int, bound: float, certified: int) -> Outcome:
    call = Call(("bound", "--gen", spec, "--m", str(m), "--output-format", "json"))
    row = {"instance": spec, "m": m, "relaxation": "bounded", "bound": f"{bound:.4f}",
           "certified": certified, "iterations": 10, "seconds": "0.001",
           "status": "converged"}
    return Outcome(call, 0, 0, json.dumps([row]), "", 0.0, solve_status=("converged",))


def colour_outcome(spec: str, m: int, classes: list[list[int]], certified: int,
                   status: str = "converged") -> Outcome:
    call = Call(("colour", "--gen", spec, "--m", str(m), "--method", "kms",
                 "--out", "unused.part", "--output-format", "json"))
    row = {"instance": spec, "m": m, "method": "kms", "classes": len(classes),
           "valid": True, "certified_lower": certified, "gap": 0, "seconds": "0.001"}
    text = "".join(" ".join(map(str, c)) + "\n" for c in classes)
    return Outcome(call, 0, 0, json.dumps([row]), "", 0.0, partition=text,
                   solve_status=(status,))


def checks_of(failures: list[dict]) -> set[str]:
    return {f["check"] for f in failures}


def petersen_plan() -> list[list[int]]:
    """An optimal 4-class plan of the Petersen graph with at most 3 per class."""
    res = exact_bounded_chromatic(TimetablingInstance.colouring(gen_kneser(5, 2), 3))
    return [sorted(c) for c in res.witness.classes]


def test_correct_outputs_pass():
    # Petersen graph, m = 3: bound 10/3 and chi_3 = 4.
    good = bound_outcome("kneser:5,2", 3, 10 / 3, 4)
    plan = colour_outcome("kneser:5,2", 3, petersen_plan(), 4)
    failures, failed = Checker("test").check([good, plan])
    assert failures == [] and failed == 0


def test_wrong_certificate_is_a_failure():
    wrong = bound_outcome("kneser:5,2", 3, 10 / 3, 5)
    failures, failed = Checker("test").check([wrong])
    assert failed == 1
    assert "certified<=chi_m" in checks_of(failures)
    only = failures[0]
    assert set(only) == {"workload", "call", "pass", "check", "expected", "got"}


def test_certificate_above_a_timetable_is_a_failure():
    wrong = bound_outcome("kneser:5,2", 3, 10 / 3, 5)
    plan = colour_outcome("kneser:5,2", 3, petersen_plan(), 4)
    failures, failed = Checker("test").check([wrong, plan])
    assert failed == 1
    assert "certified<=timetable" in checks_of(failures)


def test_invalid_partition_is_a_failure():
    # One class holding every vertex: it has edges inside and exceeds m = 3.
    bad = colour_outcome("kneser:5,2", 3, [list(range(10))], 1)
    failures, failed = Checker("test").check([bad])
    assert failed == 1
    assert checks_of(failures) == {"validate_partition"}


def test_non_converged_colour_solve_is_a_failure():
    plan = colour_outcome("kneser:5,2", 3, petersen_plan(), 4, status="max_iter")
    failures, failed = Checker("test").check([plan])
    assert failed == 1
    assert checks_of(failures) == {"solver_status"}


def test_plain_passes_record_the_solve_status(capsys):
    with run.solve_statuses(cli) as statuses:
        call = Call(("colour", "--gen", "kneser:5,2", "--m", "3", "--method", "kms",
                     "--output-format", "json"))
        outcome = run.run_call(cli.main, call, 0, None, statuses)
    assert outcome.rc == 0 and outcome.solve_status == ("converged",)


def test_reference_timeout_on_a_published_cell_is_a_failure(monkeypatch):
    timed_out = SimpleNamespace(chi_m=None, upper_bound=4, timed_out=True)
    monkeypatch.setattr(checks.oracle, "exact_bounded_chromatic",
                        lambda inst, time_limit: timed_out)
    cell = bound_outcome("kneser:5,2", 3, 10 / 3, 4)
    cell.call = Call(cell.call.argv, published_bound=10 / 3, published_chi=4)
    failures, failed = Checker("test").check([cell])
    assert failed == 1
    assert checks_of(failures) == {"reference_timeout"}


def test_same_seed_gives_identical_files(tmp_path):
    names = tuple(TIMETABLES)
    a = write_inputs(names, 3, tmp_path / "a")
    b = write_inputs(names, 3, tmp_path / "b")
    c = write_inputs(names, 4, tmp_path / "c")
    for name in names:
        assert a[name].read_bytes() == b[name].read_bytes()
        assert a[name].read_bytes() != c[name].read_bytes()


def test_every_workload_has_calls(tmp_path):
    for name, files in WORKLOADS.items():
        paths = write_inputs(files, 1, tmp_path)
        assert calls(name, 1, paths, tmp_path)


def traced_pass() -> list[dict]:
    tracer = Tracer()
    original = cli.solve
    tracer.install()
    try:
        argv = ["bound", "--gen", "kneser:5,2", "--m", "3", "--output-format", "json"]
        rc = tracer.span("cli.main", cli.main, None, argv)
    finally:
        tracer.uninstall()
    assert rc == 0 and cli.solve is original
    return tracer.spans


def test_spans_nest_under_the_cli_call(capsys):
    spans = traced_pass()
    names = [s["name"] for s in spans]
    assert names[0] == "cli.main" and spans[0]["parent"] is None
    assert {"graphs.gen", "relax.build", "relax.verify", "solver.solve"} <= set(names)
    metrics = layer_metrics(spans)
    assert metrics["solver.calls"] == 1 and metrics["solver.iters"] > 0
    assert 0 <= metrics["cli.self_s"] <= spans[0]["end"] - spans[0]["start"]


def test_wall_s_sums_per_call_medians_and_counts_a_partial_pass():
    bound = Call(("bound", "--gen", "kneser:5,2", "--m", "3"))
    colour = Call(("colour", "--gen", "kneser:5,2", "--m", "3", "--method", "kms"))

    def outcome(call, seconds):
        return Outcome(call, 0, 0, "", "", seconds)

    passes = [{"outcomes": [outcome(bound, 1.0), outcome(colour, 4.0)]},
              {"outcomes": [outcome(bound, 3.0), outcome(colour, 2.0)]},
              {"outcomes": [outcome(bound, 2.0)]}]  # cut off when time ran out
    e2e = run.end_to_end(passes, [0.5], [run.REFERENCE_S / 2], 80.0, failed=0,
                          attempted=5)
    assert e2e["bound_call_s"] == 2.0 and e2e["colour_call_s"] == 3.0
    assert e2e["wall_s"] == 5.0 and e2e["wall_ref_s"] == 10.0


def test_printed_metric_names_match_benchmark_json(capsys):
    layers = run.per_layer([traced_pass()], traced_wall=[1.0], plain_wall=[0.9])
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    passes = [{"wall_s": 1.0, "outcomes": []}]
    e2e = run.end_to_end(passes, [0.5], [0.1], 80.0, failed=0, attempted=1)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]} | set(run.EXTRA_UNITS)
    for trace, kind, values in ((0, "end_to_end", e2e), (1, "per_layer", layers)):
        result = {"trace": trace, "failures": [], "attempted": 1, "failed": 0,
                  "end_to_end": e2e, "per_layer": layers}
        out = run.result_json(result)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }
        assert all(out["metrics"][k]["value"] == values[k] for k in out["metrics"])
