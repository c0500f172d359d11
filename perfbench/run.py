"""bcsdp benchmark: drive the `bcsdp` CLI in-process on seeded workloads.

    python3 perfbench/run.py                       # every workload, plain and traced
    python3 perfbench/run.py --workload bound-large --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src/` directory next to
this one, never from an installed copy.  A single-workload run repeats the
workload's calls until --seconds have passed, checks every output, and prints
as its last line one JSON object: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  A traced run alternates
plain and traced passes so that it can report the tracing overhead.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# BLAS runs single-threaded; the package's own worker pool gets the cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BCSDP_THREADS": str(NPROC),
}
os.environ.update(THREAD_ENV)  # before numpy is first imported

import argparse  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import input_path  # noqa: E402
from spans import ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from speed import REFERENCE_S, probe_s  # noqa: E402
from workloads import WORKLOADS, Call, calls  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")  # relative to ROOT, the working directory of a run
SETUP_REPS = 7
# A speed probe runs before a call once this many seconds have passed since the last.
PROBE_EVERY_S = 1.0


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"commit": commit, "nproc": NPROC, "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas, "threads": THREAD_ENV}


def timed_setup(name: str, seed: int, directory: Path) -> float:
    """One set-up in a fresh process; returns the seconds it reported."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("prepare.py")), name, str(seed),
         str(directory)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


@contextmanager
def solve_statuses(cli):
    """Record the status of every top-level solve, in plain and traced passes."""
    log: list[str] = []
    solve = cli.solve

    @functools.wraps(solve)
    def solve_and_record(*args, **kwargs):
        result = solve(*args, **kwargs)
        log.append(result.status)
        return result

    cli.solve = solve_and_record
    try:
        yield log
    finally:
        cli.solve = solve


def run_call(main, call: Call, pass_no: int, tracer, statuses: list[str]):
    from checks import Outcome

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    first_status = len(statuses)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            argv = list(call.argv)
            rc = tracer.span(ROOT_SPAN, main, None, argv) if tracer else main(argv)
    except SystemExit as exc:  # argparse rejects an argument list
        rc = exc.code
    except Exception as exc:  # a crash fails this operation, not the benchmark
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Outcome(call, pass_no, rc, out.getvalue(), err.getvalue(), seconds,
                   error=error, solve_status=tuple(statuses[first_status:]))


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run_workload(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup_times = [timed_setup(name, seed, work / f"setup{i}") for i in range(SETUP_REPS)]
    from bcsdp import cli

    files = {f: input_path(work / "setup0", f) for f in WORKLOADS[name]}
    with solve_statuses(cli) as statuses:
        passes, outcomes, tracers, probes = timed_passes(cli, name, seed, seconds, trace,
                                                         work, files, statuses)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import Checker

    for o in outcomes:
        path = o.call.partition_path
        if path and Path(path).is_file():
            o.partition = Path(path).read_text()
    failures, failed = Checker(name).check(outcomes)

    plain = [p for p in passes if not p["traced"]]
    e2e = end_to_end(plain, setup_times, probes, peak_rss_mb, failed, len(outcomes))
    layers = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = per_layer([t.spans for t in tracers], [p["wall_s"] for p in traced],
                           [p["wall_s"] for p in plain])
        spans_path = WORK / "trace" / f"{name}-s{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w") as fh:
            for p, tracer in zip(traced, tracers):
                for rec in tracer.spans:
                    fh.write(json.dumps({"pass": p["pass"], **rec}) + "\n")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(),
        "passes": [{"pass": p["pass"], "traced": p["traced"], "wall_s": p["wall_s"],
                    "call_s": [o.seconds for o in p["outcomes"]]} for p in passes],
        "setup_times_s": setup_times, "probe_s": probes,
        "attempted": len(outcomes), "failed": failed, "failures": failures,
        "end_to_end": e2e, "per_layer": layers,
    }


def timed_passes(cli, name: str, seed: int, seconds: float, trace: bool, work: Path,
                 files: dict[str, Path], statuses: list[str]):
    """Run passes of the workload's calls until `seconds` have passed.

    An untraced run stops at the first call that ends after `seconds`, once
    one whole pass is done, so its last pass may be partial.  A traced run
    alternates whole plain and traced passes and has at least one of each.
    The speed probe runs between calls, outside their timings.
    """
    passes, outcomes, tracers, probes = [], [], [], []
    start = last_probe = time.perf_counter()
    probes.append(probe_s())
    while True:
        p = len(passes)
        out_dir = work / f"pass{p}"
        out_dir.mkdir(parents=True)
        pass_calls = calls(name, seed, files, out_dir)
        tracer = Tracer() if trace and p % 2 == 1 else None
        if tracer:
            tracer.install()
            tracers.append(tracer)
        t0 = time.perf_counter()
        try:
            got = []
            for call in pass_calls:
                if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    last_probe = time.perf_counter()
                    probes.append(probe_s())
                if tracer:
                    tracer.op = len(outcomes) + len(got)
                got.append(run_call(cli.main, call, p, tracer, statuses))
                if not trace and p > 0 and time.perf_counter() - start >= seconds:
                    break
            wall = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        outcomes += got
        passes.append({"pass": p, "traced": tracer is not None, "wall_s": wall,
                       "outcomes": got})
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or len(passes) >= 2):
            break
    return passes, outcomes, tracers, probes


def end_to_end(plain: list[dict], setup_times: list[float], probes: list[float],
               peak_rss_mb: float, failed: int, attempted: int) -> dict[str, float]:
    """Per-call medians over the untraced passes, plus set-up, memory and failures.

    Each call's time is its median over the passes that ran it; `wall_s` is
    the sum of these medians, the time of one typical pass.  `wall_ref_s` is
    `wall_s` at the reference machine's speed, as the run's speed probes
    measured it.
    """
    columns = [[p["outcomes"][i] for p in plain if i < len(p["outcomes"])]
               for i in range(len(plain[0]["outcomes"]))]

    def summed(fn, command=None):
        return sum(median([fn(o) for o in col]) for col in columns
                   if command is None or col[0].call.command == command)

    def seconds(o):
        return o.seconds

    wall_s = summed(seconds)
    return {
        "wall_ref_s": wall_s * REFERENCE_S / median(probes),
        "wall_s": wall_s,
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "bound_call_s": summed(seconds, "bound"),
        "colour_call_s": summed(seconds, "colour"),
        "timetable_classes": summed(lambda o: o.valid_classes or 0),
        "failed_frac": failed / attempted,
    }


def per_layer(traced_spans: list[list[dict]], traced_wall: list[float],
              plain_wall: list[float]) -> dict[str, float]:
    """Medians over the traced passes, and the tracing overhead per pass."""
    per_pass = [layer_metrics(spans) for spans in traced_spans]
    layers = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    layers["trace.overhead_s"] = median(traced_wall) - median(plain_wall)
    return layers


@functools.cache
def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


EXTRA_UNITS = {"wall_s": "s", "bound_call_s": "s", "colour_call_s": "s",
               "timetable_classes": "count", "failed_frac": "ratio"}


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, then failures."""
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
             f"passes={len(result['passes'])} env={json.dumps(result['env'])}"]
    e2e_units = {**units("end_to_end"), **EXTRA_UNITS}
    for name, value in result["end_to_end"].items():
        suffix = f" ({result['failed']} of {result['attempted']} ops)" \
            if name == "failed_frac" else ""
        lines.append(f"{result['workload']:16s} {name:26s} {value:14.6g} "
                     f"{e2e_units[name]}{suffix}")
    layer_units = units("per_layer")
    for name, value in result["per_layer"].items():
        lines.append(f"{result['workload']:16s} {name:26s} {value:14.6g} "
                     f"{layer_units[name]}")
    seen = set()
    for f in result["failures"]:
        key = (f["call"], f["check"], f["expected"], f["got"])
        if key not in seen:
            seen.add(key)
            lines.append(f"FAIL {f['workload']} | {f['call']} | {f['check']} | "
                         f"expected {f['expected']} | got {f['got']}")
    return lines


def result_json(result: dict) -> dict:
    """The last output line: the metrics BENCHMARK.json lists for this mode."""
    kind, values = (("per_layer", result["per_layer"]) if result["trace"]
                    else ("end_to_end", result["end_to_end"]))
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units(kind).items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bcsdp" / "__init__.py").is_file():
        print(f"error: no bcsdp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n"
    )
    print("\n".join(report_lines(result)))
    print(json.dumps(result_json(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
