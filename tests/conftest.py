import pytest

from bcsdp.graphs import (
    ConflictGraph,
    TimetablingInstance,
    complete_graph,
    cycle_graph,
    empty_graph,
    gen_gnp,
    gen_kneser,
    path_graph,
)


@pytest.fixture
def petersen() -> ConflictGraph:
    return gen_kneser(5, 2)


@pytest.fixture
def p3() -> ConflictGraph:
    return path_graph(3)


@pytest.fixture
def c5() -> ConflictGraph:
    return cycle_graph(5)


def four_vertex_graphs() -> list[ConflictGraph]:
    """The 11 non-isomorphic graphs on 4 vertices."""
    edge_sets = [
        [],
        [(0, 1)],
        [(0, 1), (2, 3)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(0, 1), (1, 2), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)],
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)],
    ]
    return [ConflictGraph.from_edges(4, es) for es in edge_sets]


def named_small_graphs() -> list[tuple[str, ConflictGraph]]:
    """Named graphs with at most 8 vertices, used across oracle tests."""
    graphs = [
        ("K1", complete_graph(1)),
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("E4", empty_graph(4)),
        ("E6", empty_graph(6)),
        ("P3", path_graph(3)),
        ("P5", path_graph(5)),
        ("P8", path_graph(8)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C7", cycle_graph(7)),
        ("C8", cycle_graph(8)),
        ("star7", ConflictGraph.from_edges(8, [(0, i) for i in range(1, 8)])),
        ("K33", ConflictGraph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])),
        ("K3xK3", gen_kneser(4, 2)),
    ]
    return graphs


def mixed_instance() -> TimetablingInstance:
    """Capacities, a feature, a three-vertex pre-colouring class and weights."""
    g = gen_gnp(34, 0.5, 5)
    return TimetablingInstance(
        graph=g,
        m=8,
        event_sizes=tuple(10 + (7 * v) % 35 for v in range(g.n)),
        room_capacities=tuple(50 - 5 * r for r in range(8)),
        feature_count=1,
        event_features=frozenset({(2, 0), (5, 0), (9, 0), (13, 0)}),
        room_features=frozenset({(0, 0), (2, 0)}),
        precolouring=(frozenset({0, 1, 10}),),
        weights=tuple(1 + (v % 4 == 0) for v in range(g.n)),
    )


def reduced_model():
    """Iterative rounding's box model on gnp:6 at m = 3 (order 2r = 6), over
    the frame of vertices 0-2 with vertex 3 fixed: 0/1 frames keep every
    coefficient and rhs exact on any machine."""
    import numpy as np

    from bcsdp.rounding import _box_constraints, _reduced_model

    eq_rows, rows = _box_constraints(TimetablingInstance.colouring(gen_gnp(6, 0.5, 1), 3))
    eye = np.eye(6)
    model, ok = _reduced_model(eq_rows, rows, list(range(len(rows))), eye[:, :3],
                               eye[:, 3:4], 4.0, 6, 3)
    assert ok
    return model
