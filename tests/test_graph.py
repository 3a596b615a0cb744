import numpy as np
import pytest

from kernelfield import (
    EdgeNotFoundError,
    Graph,
    InvalidGraphError,
    build_path,
    build_river_channel,
    build_trunk_roots,
    is_connected,
    laplacian,
    weaken_edge,
)
from kernelfield.graph import from_json, to_json


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
    assert is_connected(g)


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
    assert is_connected(g)


def test_trunk_roots_minimal():
    g = build_trunk_roots(2, 1, 1)
    assert g.n == 4
    assert len(g.edges) == 3
    assert is_connected(g)


def test_laplacian_p2():
    assert np.array_equal(laplacian(build_path(2)), [[1, -1], [-1, 1]])


def test_laplacian_rows_sum_zero():
    for g in (build_path(8), build_river_channel(6, [(1, 2), (3, 2)]),
              build_trunk_roots(4, 3, 3), weaken_edge(build_path(8), 2, 3, 0.02)):
        lap = laplacian(g)
        assert np.allclose(lap, lap.T)
        assert np.max(np.abs(lap @ np.ones(g.n))) <= 1e-12


def test_laplacian_p3_spectrum():
    # closed-form path spectrum 2 - 2cos(pi * l / n)
    eigs = np.sort(np.linalg.eigvalsh(laplacian(build_path(3))))
    assert np.allclose(eigs, [0.0, 1.0, 3.0], atol=1e-9)


def test_json_round_trip_bit_exact():
    g = weaken_edge(build_path(8), 2, 3, 0.1 + 0.2)  # weight not exactly representable in decimal
    assert from_json(to_json(g)) == g


def test_from_json_malformed():
    with pytest.raises(InvalidGraphError):
        from_json('{"edges": []}')
    with pytest.raises(InvalidGraphError):
        from_json('{"n": 2, "edges": [[0, 0, 1.0]]}')
