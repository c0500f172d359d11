"""Correctness checks on the outputs of a workload's CLI calls.

Runs after the timed section.  An operation (one CLI call in one pass) fails
when any check on it fails; every failure is recorded as (workload, call,
check, expected, got).  Reference optima come from the package's exact
oracle, computed here and never inside the timed section.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from bcsdp import cli, ingest, oracle
from bcsdp.graphs import TimetablingInstance, validate_partition

from workloads import PUBLISHED_TOLERANCE, Call

# Oracle time limits for reference optima; on timeout the oracle's upper
# bound is used, which still bounds every valid certificate from above.
SMALL_N = 64
REFERENCE_LIMIT_S = {True: 2.0, False: 0.5}
# A cell with a published optimum must have its chi_m computed exactly: each
# takes under 0.1 s, so a timeout at this limit is recorded as a failure.
PUBLISHED_LIMIT_S = 60.0


@dataclass
class Outcome:
    """What one CLI call returned during one pass."""

    call: Call
    pass_no: int
    rc: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str] = None  # exception that escaped cli.main
    partition: Optional[str] = None  # the --out file, read after timing
    solve_status: tuple[str, ...] = ()  # status of each top-level solve of the call
    valid_classes: Optional[int] = None  # set by Checker for a validated timetable


def scoped(inst: TimetablingInstance, m: int) -> TimetablingInstance:
    """The instance restricted to m rooms, as the CLI scopes it."""
    caps = (inst.room_capacities[:m] if len(inst.room_capacities) >= m
            else (max(inst.event_sizes),) * m)
    return TimetablingInstance(
        graph=inst.graph, m=m, event_sizes=inst.event_sizes,
        room_capacities=caps, feature_count=inst.feature_count,
        event_features=inst.event_features,
        room_features=frozenset((r, f) for (r, f) in inst.room_features if r < m),
        precolouring=inst.precolouring,
    )


class Checker:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._instances: dict[str, TimetablingInstance] = {}
        self._refs: dict[tuple[str, int], tuple[int, bool]] = {}

    def instance(self, call: Call) -> tuple[str, TimetablingInstance]:
        argv = call.argv
        key = argv[argv.index("--gen") + 1] if "--gen" in argv else argv[1]
        if key not in self._instances:
            doc = (cli.make_generated(key) if "--gen" in argv
                   else ingest.parse_native(Path(key).read_text()))
            self._instances[key] = doc.instance
        return key, self._instances[key]

    def reference(self, key: str, inst: TimetablingInstance, m: int,
                  time_limit: float) -> tuple[int, bool]:
        """(chi_m, exact) or, when the oracle times out, (its upper bound, False)."""
        if (key, m) not in self._refs:
            res = oracle.exact_bounded_chromatic(scoped(inst, m), time_limit=time_limit)
            self._refs[(key, m)] = ((res.chi_m, True) if res.chi_m is not None
                                    else (res.upper_bound, False))
        return self._refs[(key, m)]

    def check(self, outcomes: list[Outcome]) -> tuple[list[dict], int]:
        """All failures, and the number of operations with at least one."""
        failures: list[dict] = []
        failed_ops: set[int] = set()
        timetables: dict[tuple[str, int], list[int]] = defaultdict(list)
        certificates = []

        for op, o in enumerate(outcomes):
            def fail(check: str, expected, got, op=op, o=o) -> None:
                failed_ops.add(op)
                failures.append({"workload": self.workload, "call": o.call.label(),
                                 "pass": o.pass_no, "check": check,
                                 "expected": str(expected), "got": str(got)})

            if o.error is not None:
                fail("exception", "none", o.error)
                continue
            if o.rc != 0:
                fail("exit_code", 0, o.rc)
            try:
                row = json.loads(o.stdout)[0]
            except (ValueError, IndexError):
                fail("output", "one JSON row", o.stdout[:200] or o.stderr[:200])
                continue
            key, inst = self.instance(o.call)
            for status in o.solve_status:
                if status != "converged":
                    fail("solver_status", "converged", status)
            if o.call.command == "bound":
                m = int(row["m"]) if row["m"] != "" else None
                certified = int(row["certified"])
                want = o.call.published_bound
                if want is not None and abs(float(row["bound"]) - want) > PUBLISHED_TOLERANCE:
                    fail("published_bound", f"{want:.4f} +- {PUBLISHED_TOLERANCE}",
                         row["bound"])
            else:
                m = int(row["m"])
                certified = int(row["certified_lower"])
                if o.partition is None:
                    fail("partition_file", "written", "missing")
                else:
                    part = cli.read_partition(o.partition)
                    report = validate_partition(scoped(inst, m), part)
                    if not report.ok:
                        fail("validate_partition", "valid", "; ".join(report.violations[:3]))
                    elif part.num_classes != int(row["classes"]):
                        fail("classes", row["classes"], part.num_classes)
                    else:
                        o.valid_classes = part.num_classes
                        timetables[(key, m)].append(part.num_classes)
            ref_m = m if m is not None else inst.graph.n
            published = o.call.published_chi
            limit = (PUBLISHED_LIMIT_S if published is not None
                     else REFERENCE_LIMIT_S[inst.graph.n <= SMALL_N])
            chi, exact = self.reference(key, inst, ref_m, limit)
            if published is not None and not exact:
                fail("reference_timeout", f"chi_m within {limit:g} s", f"upper bound {chi}")
            elif published is not None and chi != published:
                fail("published_chi", published, chi)
            if certified > chi:
                fail("certified<=chi_m" if exact else "certified<=oracle_upper",
                     f"<= {chi}", certified)
            certificates.append((fail, key, ref_m, certified))

        for fail, key, m, certified in certificates:
            if timetables[(key, m)] and certified > min(timetables[(key, m)]):
                fail("certified<=timetable", f"<= {min(timetables[(key, m)])}", certified)
        return failures, len(failed_ops)
