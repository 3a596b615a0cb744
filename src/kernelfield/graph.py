"""Weighted undirected graphs and their unnormalized Laplacians.

Graphs are immutable edge lists; Laplacians are materialized dense,
which is fine at the desk scales this package targets (N <= 128).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EdgeNotFoundError, InvalidGraphError

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph with 0-based node indices.

    Edges are stored as (u, v, w) triples with u != v and w finite and
    positive; each unordered pair appears at most once.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidGraphError(f"node count must be positive, got {self.n}")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidGraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise InvalidGraphError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidGraphError(f"duplicate edge {key}")
            seen.add(key)
            if not (w > 0 and math.isfinite(w)):
                raise InvalidGraphError(f"edge {key} weight must be finite and positive, got {w}")


def build_path(n: int) -> Graph:
    """Path graph P_n with unit edge weights.

    Raises:
        InvalidGraphError: if n < 2.
    """
    if n < 2:
        raise InvalidGraphError(f"path graph needs at least 2 nodes, got {n}")
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def weaken_edge(g: Graph, u: int, v: int, eps: float) -> Graph:
    """Return a copy of g with edge (u, v) reweighted to eps.

    Raises:
        EdgeNotFoundError: if (u, v) is not an edge of g.
        InvalidGraphError: if eps is not finite and positive.
    """
    key = (min(u, v), max(u, v))
    edges = []
    found = False
    for a, b, w in g.edges:
        if (min(a, b), max(a, b)) == key:
            edges.append((a, b, float(eps)))
            found = True
        else:
            edges.append((a, b, w))
    if not found:
        raise EdgeNotFoundError(f"edge ({u},{v}) not in graph")
    return Graph(g.n, tuple(edges))


def build_river_channel(stem_len: int, tributaries: list[tuple[int, int]]) -> Graph:
    """Main-stem path with tributary paths attached at stem nodes.

    Each tributary (attach_node, branch_len) adds a unit-weight path of
    branch_len new nodes whose first node connects to attach_node.

    Raises:
        InvalidGraphError: stem too short, attach node off the stem, or
            branch length < 1.
    """
    if stem_len < 2:
        raise InvalidGraphError(f"stem length must be >= 2, got {stem_len}")
    edges: list[Edge] = [(i, i + 1, 1.0) for i in range(stem_len - 1)]
    next_node = stem_len
    for attach, blen in tributaries:
        if not (0 <= attach < stem_len):
            raise InvalidGraphError(f"attach node {attach} not on stem of length {stem_len}")
        if blen < 1:
            raise InvalidGraphError(f"branch length must be >= 1, got {blen}")
        prev = attach
        for _ in range(blen):
            edges.append((prev, next_node, 1.0))
            prev = next_node
            next_node += 1
    return Graph(next_node, tuple(edges))


def build_trunk_roots(trunk_len: int, root_fan: int, branch_fan: int) -> Graph:
    """Trunk path with a leaf fan at the bottom node and another at the top.

    A river channel whose tributaries are single leaves: root_fan of them
    at stem node 0, then branch_fan at stem node trunk_len - 1.

    Raises:
        InvalidGraphError: trunk too short or a fan < 1.
    """
    if root_fan < 1 or branch_fan < 1:
        raise InvalidGraphError("fans must be >= 1")
    return build_river_channel(trunk_len, [(0, 1)] * root_fan + [(trunk_len - 1, 1)] * branch_fan)


def adjacency(g: Graph) -> np.ndarray:
    """Dense weighted adjacency matrix."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Unnormalized Laplacian L = D - A with weighted degrees."""
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def is_connected(g: Graph) -> bool:
    """BFS reachability from node 0."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def to_json(g: Graph) -> str:
    """Serialize to the {"n": ..., "edges": [[u, v, w], ...]} wire format.

    Weights round-trip bit-exactly: json emits the shortest decimal that
    parses back to the same binary64.
    """
    return json.dumps({"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges]})


def from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        return Graph(int(obj["n"]), tuple((int(u), int(v), float(w)) for u, v, w in obj["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidGraphError):
            raise
        raise InvalidGraphError(f"malformed graph JSON: {exc}") from exc
