import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelfield import (
    EdgeNotFoundError,
    Graph,
    InvalidGraphError,
    build_path,
    build_river_channel,
    build_trunk_roots,
    eig_symmetric,
    laplacian,
    weaken_edge,
)
from kernelfield.graph import MAX_WEIGHT, from_json, to_json


def components(g: Graph) -> int:
    return eig_symmetric(laplacian(g)).components


def test_build_path_p8():
    g = build_path(8)
    assert g.n == 8
    assert len(g.edges) == 7
    assert all(w == 1.0 for _, _, w in g.edges)


def test_build_path_small():
    assert build_path(2).edges == ((0, 1, 1.0),)
    assert {(u, v) for u, v, _ in build_path(3).edges} == {(0, 1), (1, 2)}


def test_build_path_rejects_tiny():
    with pytest.raises(InvalidGraphError):
        build_path(1)


def test_graph_validation():
    with pytest.raises(InvalidGraphError):
        Graph(3, ((0, 0, 1.0),))
    with pytest.raises(InvalidGraphError):
        Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(InvalidGraphError):
        Graph(3, ((0, 5, 1.0),))
    with pytest.raises(InvalidGraphError):
        Graph(3, ((0, 1, -1.0),))


def test_weaken_edge():
    g = weaken_edge(build_path(8), 2, 3, 0.3)
    lap = laplacian(g)
    assert lap[2][3] == -0.3
    assert lap[0][1] == -1.0
    assert lap[2][2] == 1.3


def test_weaken_edge_idempotent():
    g1 = weaken_edge(build_path(8), 2, 3, 0.42)
    g2 = weaken_edge(g1, 2, 3, 0.42)
    assert g1 == g2


def test_weaken_edge_identity_weight_preserves_spectrum():
    g = weaken_edge(build_path(8), 2, 3, 1.0)
    assert np.allclose(laplacian(g), laplacian(build_path(8)))


def test_weaken_missing_edge():
    with pytest.raises(EdgeNotFoundError):
        weaken_edge(build_path(8), 0, 7, 0.5)


def test_river_channel_default():
    g = build_river_channel(6, [(1, 2), (3, 2)])
    assert g.n == 10
    assert len(g.edges) == g.n - 1
    assert components(g) == 1


def test_river_channel_degenerate_is_path():
    assert build_river_channel(2, []) == build_path(2)


def test_river_channel_bad_attach():
    with pytest.raises(InvalidGraphError):
        build_river_channel(4, [(7, 2)])


def test_trunk_roots_default():
    g = build_trunk_roots(4, 3, 3)
    assert g.n == 10
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0),
                       (0, 6, 1.0), (3, 7, 1.0), (3, 8, 1.0), (3, 9, 1.0))
    assert len(g.edges) == g.n - 1
    assert components(g) == 1


def test_trunk_roots_minimal():
    g = build_trunk_roots(2, 1, 1)
    assert g.n == 4
    assert len(g.edges) == 3
    assert components(g) == 1


def test_laplacian_p2():
    assert np.array_equal(laplacian(build_path(2)), [[1, -1], [-1, 1]])


def test_laplacian_rows_sum_zero():
    for g in (build_path(8), build_river_channel(6, [(1, 2), (3, 2)]),
              build_trunk_roots(4, 3, 3), weaken_edge(build_path(8), 2, 3, 0.02)):
        lap = laplacian(g)
        assert np.allclose(lap, lap.T)
        assert np.max(np.abs(lap @ np.ones(g.n))) <= 1e-12


def test_laplacian_rejects_an_overflowing_degree():
    # Every weight is finite, and the middle node's degree would overflow;
    # the weight bound rejects the graph before a Laplacian is built.
    with pytest.raises(InvalidGraphError, match=r"edge \(0, 1\) weight must be in \(0, 1e\+100\]"):
        laplacian(Graph(3, ((0, 1, 1e308), (1, 2, 1e308))))


def test_component_count():
    assert components(Graph(1, ())) == 1
    assert components(Graph(3, ())) == 3
    assert components(Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))) == 2
    assert components(Graph(5, ((4, 0, 1.0), (3, 1, 1.0), (1, 4, 1.0)))) == 2


def test_laplacian_p3_spectrum():
    # closed-form path spectrum 2 - 2cos(pi * l / n)
    eigs = np.sort(np.linalg.eigvalsh(laplacian(build_path(3))))
    assert np.allclose(eigs, [0.0, 1.0, 3.0], atol=1e-9)


@st.composite
def graphs(draw):
    """Valid graphs: 1 to 12 nodes, a random edge subset in random order and
    orientation, positive weights from 1e-300 to MAX_WEIGHT."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.floats(1e-300, MAX_WEIGHT))))
    return Graph(n, tuple(edges))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
@example(weaken_edge(build_path(8), 2, 3, 0.1 + 0.2))  # weight not exact in decimal
@example(weaken_edge(build_path(3), 0, 1, MAX_WEIGHT))
def test_json_round_trip_bit_exact(g):
    assert from_json(to_json(g)) == g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(min_value=MAX_WEIGHT, exclude_min=True))
@example(float(np.nextafter(MAX_WEIGHT, np.inf)))
@example(float("inf"))
def test_a_weight_above_the_bound_is_rejected(w):
    with pytest.raises(InvalidGraphError, match="weight must be in"):
        Graph(2, ((0, 1, w),))


# JSON values that are not integers, and ones that are not numbers.
NOT_INTEGER = st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=3),
                        st.none(), st.just([1]), st.just({}))
NOT_NUMBER = st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.just([1.0]),
                       st.just({}))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), st.data())
def test_from_json_rejects_a_wrong_typed_value(g, data):
    obj = {"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges]}
    slot = data.draw(st.sampled_from(["n", "u", "v", "w"] if g.edges else ["n"]))
    if slot == "n":
        obj["n"] = data.draw(NOT_INTEGER)
    else:
        edge = data.draw(st.sampled_from(obj["edges"]))
        edge["uvw".index(slot)] = data.draw(NOT_NUMBER if slot == "w" else NOT_INTEGER)
    with pytest.raises(InvalidGraphError, match="malformed graph JSON"):
        from_json(json.dumps(obj))


def test_from_json_malformed():
    for text in ('{"edges": []}',
                 '{"n": 2, "edges": [[0, 0, 1.0]]}',
                 '{"n": 3.7, "edges": [[0, 1.9, 1], [1, 2, true]]}',
                 '{"n": "3", "edges": [[0, 1, "2.5"], [1, 2, 1]]}',
                 '{"n": 3, "edges": {"012": 0}}',
                 '{"n": 3, "edges": [[0, 1]]}',
                 '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "extra": 1}',
                 '{"n": 2, "edges": [[0, 1, 1' + '0' * 400 + ']]}',  # overflows binary64
                 '[3]'):
        with pytest.raises(InvalidGraphError):
            from_json(text)


def test_from_json_integer_weight_loads_as_float():
    (edge,) = from_json('{"n": 2, "edges": [[0, 1, 2]]}').edges
    assert edge == (0, 1, 2.0) and type(edge[2]) is float
