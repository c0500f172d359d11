"""Parsers for external instance formats and the native bcsdp-v1 format.

All parsers are pure functions of their input text and renumber ids to dense
0-based integers.  The native format is line oriented so fixtures diff well.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .graphs import ConflictGraph, TimetablingInstance

__all__ = [
    "InstanceDocument",
    "ParseError",
    "parse_dimacs",
    "parse_toronto",
    "parse_itc2007",
    "parse_native",
    "write_native",
]


class ParseError(ValueError):
    """Malformed input; the message carries the offending line number."""


@dataclass(frozen=True)
class InstanceDocument:
    name: str
    instance: TimetablingInstance
    source_format: str  # dimacs | toronto | itc2007 | native
    # ITC unavailability records (course, day, period): kept, never encoded
    unavailability: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("document name must be non-empty")
        if self.source_format not in ("dimacs", "toronto", "itc2007", "native"):
            raise ValueError(f"unknown source format {self.source_format!r}")


def _as_text(data) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    if hasattr(data, "read"):
        raw = data.read()
        return raw.decode("utf-8") if isinstance(raw, bytes) else raw
    return data


def parse_dimacs(data) -> ConflictGraph:
    """DIMACS colouring format: 'p edge n m' header, 'e u v' lines, 'c' comments.

    Vertex ids are 1-based in the file; duplicate edge lines collapse, but the
    raw edge-line count must match the header.
    """
    text = _as_text(data)
    n = None
    declared = None
    edges: set[tuple[int, int]] = set()
    raw_edge_lines = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError as err:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from err
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as err:
                raise ParseError(f"line {lineno}: malformed edge {line!r}") from err
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    f"line {lineno}: vertex id out of range 1..{n}: {line!r}"
                )
            if u == v:
                raise ParseError(f"line {lineno}: self-loop {line!r}")
            raw_edge_lines += 1
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise ParseError(f"line {lineno}: unknown record {line!r}")
    if n is None:
        raise ParseError("missing problem line")
    if declared is not None and raw_edge_lines != declared:
        raise ParseError(
            f"edge count mismatch: header declares {declared}, file has "
            f"{raw_edge_lines} edge lines"
        )
    return ConflictGraph(n, frozenset(edges))


def parse_toronto(crs_data, stu_data, name: str = "toronto") -> InstanceDocument:
    """Toronto examination benchmark: one vertex per exam, edges join exams
    sharing a student; event sizes are the .crs enrolment counts."""
    crs = _as_text(crs_data)
    exams: list[str] = []
    enrolment: dict[str, int] = {}
    for lineno, line in enumerate(crs.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ParseError(f".crs line {lineno}: expected 'EXAM ENROLMENT'")
        exam = parts[0]
        try:
            count = int(parts[1])
        except ValueError as err:
            raise ParseError(f".crs line {lineno}: bad enrolment {parts[1]!r}") from err
        if exam in enrolment:
            raise ParseError(f".crs line {lineno}: duplicate exam {exam}")
        exams.append(exam)
        enrolment[exam] = count
    index = {exam: i for i, exam in enumerate(exams)}
    n = len(exams)
    edges: set[tuple[int, int]] = set()
    for lineno, line in enumerate(_as_text(stu_data).splitlines(), start=1):
        ids = line.split()
        for exam in ids:
            if exam not in index:
                raise ParseError(f".stu line {lineno}: unknown exam {exam}")
        taken = sorted({index[e] for e in ids})
        for a in range(len(taken)):
            for b in range(a + 1, len(taken)):
                edges.add((taken[a], taken[b]))
    graph = ConflictGraph(n, frozenset(edges))
    sizes = tuple(max(1, enrolment[e]) for e in exams)
    inst = TimetablingInstance(
        graph=graph,
        m=max(n, 1),
        event_sizes=sizes,
        room_capacities=(max(sizes, default=1),) * max(n, 1),
    )
    return InstanceDocument(name=name, instance=inst, source_format="toronto")


def parse_itc2007(data, name: str | None = None) -> InstanceDocument:
    """ITC-2007 curriculum-based .ctt: one vertex per course; edges join
    courses sharing a curriculum or a teacher; rooms give m and capacities."""
    text = _as_text(data)
    header: dict[str, str] = {}
    lines = text.splitlines()
    pos = 0
    section = None
    courses: list[tuple[str, str, int, int]] = []  # id, teacher, lectures, students
    rooms: list[tuple[str, int]] = []
    curricula: list[list[str]] = []
    unavailability: list[tuple[str, int, int]] = []
    markers = {
        "COURSES:": "courses",
        "ROOMS:": "rooms",
        "CURRICULA:": "curricula",
        "UNAVAILABILITY_CONSTRAINTS:": "unavailability",
    }
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        if line == "END.":
            break
        if line in markers:
            section = markers[line]
            continue
        if ":" in line and section is None:
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
            continue
        parts = line.split()
        if section == "courses":
            if len(parts) < 5:
                raise ParseError(f"bad course line: {line!r}")
            courses.append((parts[0], parts[1], int(parts[2]), int(parts[4])))
        elif section == "rooms":
            if len(parts) < 2:
                raise ParseError(f"bad room line: {line!r}")
            rooms.append((parts[0], int(parts[1])))
        elif section == "curricula":
            if len(parts) < 2:
                raise ParseError(f"bad curriculum line: {line!r}")
            declared = int(parts[1])
            members = parts[2:]
            if len(members) != declared:
                raise ParseError(
                    f"curriculum {parts[0]} declares {declared} courses, "
                    f"lists {len(members)}"
                )
            curricula.append(members)
        elif section == "unavailability":
            if len(parts) >= 3:
                unavailability.append((parts[0], int(parts[1]), int(parts[2])))
    for key, kind, count in (
        ("Courses", courses, len(courses)),
        ("Rooms", rooms, len(rooms)),
        ("Curricula", curricula, len(curricula)),
    ):
        if key in header and int(header[key]) != count:
            raise ParseError(
                f"{key} header declares {header[key]}, section has {count}"
            )
    if not courses:
        raise ParseError("missing COURSES section")
    if not rooms:
        raise ParseError("missing ROOMS section")
    index = {cid: i for i, (cid, _, _, _) in enumerate(courses)}
    edges: set[tuple[int, int]] = set()
    for members in curricula:
        ids = []
        for cid in members:
            if cid not in index:
                raise ParseError(f"curriculum references unknown course {cid}")
            ids.append(index[cid])
        ids.sort()
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.add((ids[a], ids[b]))
    by_teacher: dict[str, list[int]] = {}
    for i, (_, teacher, _, _) in enumerate(courses):
        by_teacher.setdefault(teacher, []).append(i)
    for ids in by_teacher.values():
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.add((min(ids[a], ids[b]), max(ids[a], ids[b])))
    graph = ConflictGraph(len(courses), frozenset(edges))
    sizes = tuple(max(1, students) for (_, _, _, students) in courses)
    caps = tuple(max(1, cap) for (_, cap) in rooms)
    # room capacities may be exceeded by large courses in the raw data; the
    # relaxations treat capacity thresholds combinatorially, so clip sizes
    biggest = max(caps)
    sizes = tuple(min(s, biggest) for s in sizes)
    inst = TimetablingInstance(
        graph=graph,
        m=len(rooms),
        event_sizes=sizes,
        room_capacities=caps,
        lectures=tuple(lect for (_, _, lect, _) in courses),
    )
    return InstanceDocument(
        name=name or header.get("Name", "itc2007"),
        instance=inst,
        source_format="itc2007",
        unavailability=tuple(unavailability),
    )


def write_native(doc: InstanceDocument) -> str:
    """Serialize to the line-oriented bcsdp-v1 format."""
    inst = doc.instance
    g = inst.graph
    out = io.StringIO()
    out.write(f"bcsdp-v1 {doc.name}\n")
    out.write(f"GRAPH {g.n} {g.num_edges}\n")
    for u, v in sorted(g.edges):
        out.write(f"e {u} {v}\n")
    if set(inst.event_sizes) != {1}:
        out.write("sizes " + " ".join(str(s) for s in inst.event_sizes) + "\n")
    if inst.weights is not None:
        out.write("weights " + " ".join(str(w) for w in inst.weights) + "\n")
    out.write(f"ROOMS {inst.m}\n")
    out.write("caps " + " ".join(str(c) for c in inst.room_capacities) + "\n")
    out.write(f"FEATURES {inst.feature_count}\n")
    for v, f in sorted(inst.event_features):
        out.write(f"ef {v} {f}\n")
    for r, f in sorted(inst.room_features):
        out.write(f"rf {r} {f}\n")
    out.write(f"PRECOLOUR {len(inst.precolouring)}\n")
    for cls in inst.precolouring:
        out.write("pc " + " ".join(str(v) for v in sorted(cls)) + "\n")
    out.write("END\n")
    return out.getvalue()


# bcsdp-v1 record tag -> the number of integer fields it carries (None: any)
_NATIVE_FIELDS = {"GRAPH": 2, "e": 2, "sizes": None, "weights": None, "ROOMS": 1,
                  "caps": None, "FEATURES": 1, "ef": 2, "rf": 2, "PRECOLOUR": 1,
                  "pc": None, "END": 0}


def parse_native(data) -> InstanceDocument:
    """Parse the bcsdp-v1 format written by write_native.

    A record with the wrong number of fields, an edge before GRAPH or with an
    endpoint outside 0..n-1, and a GRAPH edge count or PRECOLOUR class count
    that its e or pc records do not match raise ParseError naming the line.
    """
    text = _as_text(data)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("bcsdp-v1"):
        raise ParseError("missing bcsdp-v1 header")
    name = lines[0].split(maxsplit=1)[1] if " " in lines[0] else "instance"
    n = None
    edges: set[tuple[int, int]] = set()
    sizes: tuple[int, ...] = ()
    weights = None
    m = None
    caps: tuple[int, ...] = ()
    feature_count = 0
    ef: set[tuple[int, int]] = set()
    rf: set[tuple[int, int]] = set()
    pre: list[frozenset[int]] = []
    # "e" and "pc" -> (line, count) as GRAPH and PRECOLOUR declare them
    declared: dict[str, tuple[int, int]] = {}
    seen = {"e": 0, "pc": 0}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag not in _NATIVE_FIELDS:
            raise ParseError(f"line {lineno}: unknown record {line!r}")
        try:
            vals = [int(x) for x in parts[1:]]
        except ValueError as err:
            raise ParseError(f"line {lineno}: malformed record {line!r}") from err
        arity = _NATIVE_FIELDS[tag]
        if arity is not None and len(vals) != arity:
            raise ParseError(f"line {lineno}: malformed record {line!r}")
        if tag in seen:
            seen[tag] += 1
        if tag == "GRAPH":
            n = vals[0]
            declared["e"] = (lineno, vals[1])
        elif tag == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge {line!r} before GRAPH")
            if not all(0 <= v < n for v in vals):
                raise ParseError(f"line {lineno}: edge {line!r} outside GRAPH {n}")
            edges.add((vals[0], vals[1]))
        elif tag == "sizes":
            sizes = tuple(vals)
        elif tag == "weights":
            weights = tuple(vals)
        elif tag == "ROOMS":
            m = vals[0]
        elif tag == "caps":
            caps = tuple(vals)
        elif tag == "FEATURES":
            feature_count = vals[0]
        elif tag == "ef":
            ef.add((vals[0], vals[1]))
        elif tag == "rf":
            rf.add((vals[0], vals[1]))
        elif tag == "PRECOLOUR":
            declared["pc"] = (lineno, vals[0])
        elif tag == "pc":
            pre.append(frozenset(vals))
        elif tag == "END":
            break
    for record, (lineno, want) in declared.items():
        if want != seen[record]:
            raise ParseError(f"line {lineno}: {want} {record} records declared, "
                             f"the file has {seen[record]}")
    if n is None:
        raise ParseError("missing GRAPH section")
    if m is None:
        m = max(n, 1)
    graph = ConflictGraph(n, frozenset(edges))
    inst = TimetablingInstance(
        graph=graph,
        m=m,
        event_sizes=sizes,
        room_capacities=caps,
        feature_count=feature_count,
        event_features=frozenset(ef),
        room_features=frozenset(rf),
        precolouring=tuple(pre),
        weights=weights,
    )
    return InstanceDocument(name=name, instance=inst, source_format="native")
