import numpy as np
import pytest

from bcsdp.graphs import TimetablingInstance, gen_gnp
from bcsdp.ingest import (
    InstanceDocument,
    ParseError,
    parse_dimacs,
    parse_itc2007,
    parse_native,
    parse_toronto,
    write_native,
)


class TestDimacs:
    def test_path(self):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("c a comment\np edge 3 2\ne 1 2\ne 1 2\n")
        assert g.num_edges == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("p edge 3 2\ne 4 1\ne 1 2\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p edge three 2\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("e 1 2\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="mismatch"):
            parse_dimacs("p edge 3 5\ne 1 2\n")

    def test_bytes_accepted(self):
        g = parse_dimacs(b"p edge 2 1\ne 1 2\n")
        assert g.num_edges == 1


CRS = "0001 30\n0002 25\n0003 12\n"
STU = "0001 0002\n0002 0003\n0001\n"


class TestToronto:
    def test_basic_conflicts(self):
        doc = parse_toronto(CRS, STU)
        g = doc.instance.graph
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert doc.instance.event_sizes == (30, 25, 12)
        assert doc.source_format == "toronto"

    def test_single_exam_lines_no_edges(self):
        doc = parse_toronto(CRS, "0001\n0002\n0003\n")
        assert doc.instance.graph.num_edges == 0

    def test_unknown_exam_rejected(self):
        with pytest.raises(ParseError, match="0009"):
            parse_toronto(CRS, "0001 0009\n")

    def test_student_order_irrelevant(self):
        lines = ["0001 0002", "0002 0003", "0001 0003"]
        base = parse_toronto(CRS, "\n".join(lines)).instance.graph
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            other = parse_toronto(
                CRS, "\n".join(lines[i] for i in perm)
            ).instance.graph
            assert other.edges == base.edges

    def test_extraction_idempotent(self):
        a = parse_toronto(CRS, STU)
        b = parse_toronto(CRS, STU)
        assert a.instance == b.instance


ITC_SAMPLE = """Name: toy01
Courses: 4
Rooms: 2
Days: 5
Periods_per_day: 6
Curricula: 1
Constraints: 0

COURSES:
c0001 t001 3 2 30
c0002 t002 2 2 25
c0003 t001 2 2 12
c0004 t003 2 2 9

ROOMS:
rA 40
rB 20

CURRICULA:
q000 3 c0001 c0002 c0004

UNAVAILABILITY_CONSTRAINTS:
c0001 4 0

END.
"""


class TestItc2007:
    def test_sample(self):
        doc = parse_itc2007(ITC_SAMPLE)
        inst = doc.instance
        assert doc.name == "toy01"
        assert inst.graph.n == 4
        assert inst.m == 2
        assert inst.room_capacities == (40, 20)
        # curriculum triangle on {0,1,3}; same teacher edge (0,2)
        assert inst.graph.edges == frozenset(
            {(0, 1), (0, 3), (1, 3), (0, 2)}
        )
        assert inst.lectures == (3, 2, 2, 2)

    def test_curriculum_triangle(self):
        text = ITC_SAMPLE.replace("q000 3 c0001 c0002 c0004",
                                  "q000 3 c0001 c0002 c0003")
        doc = parse_itc2007(text)
        assert (0, 1) in doc.instance.graph.edges
        assert (1, 2) in doc.instance.graph.edges

    def test_same_teacher_edge_only(self):
        text = """Courses: 2
Rooms: 1

COURSES:
a t1 1 1 5
b t1 1 1 5

ROOMS:
r 10

CURRICULA:

UNAVAILABILITY_CONSTRAINTS:

END.
"""
        doc = parse_itc2007(text)
        assert doc.instance.graph.edges == frozenset({(0, 1)})

    def test_missing_rooms_section(self):
        text = "Courses: 1\n\nCOURSES:\na t1 1 1 5\n\nEND.\n"
        with pytest.raises(ParseError, match="ROOMS"):
            parse_itc2007(text)

    def test_header_count_mismatch(self):
        bad = ITC_SAMPLE.replace("Courses: 4", "Courses: 7")
        with pytest.raises(ParseError, match="Courses"):
            parse_itc2007(bad)

    def test_curriculum_count_mismatch(self):
        bad = ITC_SAMPLE.replace("q000 3 c0001 c0002 c0004",
                                 "q000 2 c0001 c0002 c0004")
        with pytest.raises(ParseError, match="q000"):
            parse_itc2007(bad)


def random_instance(seed: int) -> TimetablingInstance:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    g = gen_gnp(n, 0.4, seed)
    m = int(rng.integers(1, 4))
    sizes = tuple(int(s) for s in rng.integers(1, 20, size=n))
    caps = tuple(int(c) for c in rng.integers(max(sizes), 40, size=m))
    f_count = int(rng.integers(0, 3))
    ef = frozenset(
        (int(v), int(f))
        for v in range(n)
        for f in range(f_count)
        if rng.random() < 0.3
    )
    rf = frozenset(
        (int(r), int(f))
        for r in range(m)
        for f in range(f_count)
        if rng.random() < 0.5
    )
    pre = []
    if n >= 3 and not g.is_edge(0, 1) and m >= 2:
        pre = [frozenset({0, 1})]
    weights = None
    if rng.random() < 0.3:
        weights = tuple(int(w) for w in rng.integers(1, m + 1, size=n))
    return TimetablingInstance(
        graph=g, m=m, event_sizes=sizes, room_capacities=caps,
        feature_count=f_count, event_features=ef, room_features=rf,
        precolouring=tuple(pre), weights=weights,
    )


class TestNativeRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_field_by_field(self, seed):
        inst = random_instance(seed)
        doc = InstanceDocument(name=f"rt{seed}", instance=inst,
                               source_format="native")
        text = write_native(doc)
        back = parse_native(text)
        assert back.name == doc.name
        a, b = doc.instance, back.instance
        assert a.graph == b.graph
        assert a.m == b.m
        assert a.event_sizes == b.event_sizes
        assert a.room_capacities == b.room_capacities
        assert a.feature_count == b.feature_count
        assert a.event_features == b.event_features
        assert a.room_features == b.room_features
        assert set(a.precolouring) == set(b.precolouring)
        assert a.weights == b.weights

    def test_reserialization_identical(self):
        inst = random_instance(3)
        doc = InstanceDocument(name="x", instance=inst, source_format="native")
        text = write_native(doc)
        again = write_native(parse_native(text))
        assert text == again

    def test_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_native("nonsense v2\nGRAPH 1 0\nEND\n")

    @pytest.mark.parametrize("lines, bad", [
        (["GRAPH 3 1", "e 0 1 7"], 3),  # a surplus field on an edge
        (["GRAPH 3 1 9", "e 0 1"], 2),
        (["GRAPH 3 1", "e 0 1", "ROOMS 2 2"], 4),
        (["GRAPH 3 1", "e 0 1", "FEATURES 0 1"], 4),
        (["GRAPH 3 1", "e 0 1", "PRECOLOUR 0 0"], 4),
        (["GRAPH 3 1", "e 0 1", "END 1"], 4),
    ])
    def test_surplus_fields_name_their_line(self, lines, bad):
        text = "\n".join(["bcsdp-v1 x", *lines, "END"]) + "\n"
        with pytest.raises(ParseError, match=f"^line {bad}: malformed record"):
            parse_native(text)

    @pytest.mark.parametrize("edge", ["e 0 3", "e 5 1", "e -1 2"])
    def test_edge_outside_the_graph_names_its_line(self, edge):
        with pytest.raises(ParseError, match=f"^line 3: edge '{edge}' outside GRAPH 3"):
            parse_native(f"bcsdp-v1 x\nGRAPH 3 1\n{edge}\nEND\n")

    def test_edge_before_graph_names_its_line(self):
        with pytest.raises(ParseError, match="^line 2: edge 'e 0 1' before GRAPH"):
            parse_native("bcsdp-v1 x\ne 0 1\nGRAPH 3 1\nEND\n")

    @pytest.mark.parametrize("text, bad", [
        # GRAPH 3 4: no three vertices carry four edges
        ("GRAPH 3 4\ne 0 1\n", "line 2: 4 e records declared, the file has 1"),
        ("GRAPH 3 0\ne 0 1\n", "line 2: 0 e records declared, the file has 1"),
        ("GRAPH 3 0\nPRECOLOUR 2\npc 0 1\n",
         "line 3: 2 pc records declared, the file has 1"),
    ])
    def test_declared_counts_are_checked(self, text, bad):
        with pytest.raises(ParseError, match=f"^{bad}$"):
            parse_native(f"bcsdp-v1 x\n{text}END\n")


class TestDocumentInvariants:
    def test_name_required(self):
        inst = TimetablingInstance.colouring(gen_gnp(3, 0.5, 1), 2)
        with pytest.raises(ValueError):
            InstanceDocument(name="", instance=inst, source_format="native")

    def test_format_checked(self):
        inst = TimetablingInstance.colouring(gen_gnp(3, 0.5, 1), 2)
        with pytest.raises(ValueError):
            InstanceDocument(name="x", instance=inst, source_format="xml")
