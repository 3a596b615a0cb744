"""Weighted undirected graphs, their unnormalized Laplacians and the graph spec grammar.

Graphs are immutable edge lists; Laplacians are materialized dense,
which is fine at the desk scales this package targets (N <= 128).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EdgeNotFoundError, InvalidGraphError

Edge = tuple[int, int, float]

# The largest edge weight a Graph accepts. A Laplacian entry is then at most
# N * 1e100, so a degree, and a sum of squares over the whole Laplacian, stay
# far below binary64's top (1.8e308) at any N this package targets.
MAX_WEIGHT = 1e100

SPEC_GRAMMAR = """Builtin graph mini-grammar:
    path:N
    path:N:weaken=u,v,eps
    river:stem,attach1,len1[,attach2,len2,...]
    trunk:len,rootfan,branchfan
Anything else is treated as a path to a graph JSON file.
"""


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph with 0-based node indices.

    Edges are stored as (u, v, w) triples with u != v and
    0 < w <= MAX_WEIGHT; each unordered pair appears at most once.
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
            if not 0 < w <= MAX_WEIGHT:
                raise InvalidGraphError(f"edge {key} weight must be in (0, {MAX_WEIGHT:g}], got {w}")


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
        InvalidGraphError: if eps is not in (0, MAX_WEIGHT].
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


def laplacian(g: Graph) -> np.ndarray:
    """Unnormalized Laplacian L = D - A, A the dense weighted adjacency."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return np.diag(a.sum(axis=1)) - a


def to_json(g: Graph) -> str:
    """Serialize to the {"n": ..., "edges": [[u, v, w], ...]} wire format.

    Weights round-trip bit-exactly: json emits the shortest decimal that
    parses back to the same binary64.
    """
    return json.dumps({"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges]})


def is_json_number(x) -> bool:
    """A JSON number that binary64 holds: not a bool, nor an integer beyond its range."""
    return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)


def _is_edge(e) -> bool:
    return (type(e) is list and len(e) == 3 and type(e[0]) is int and type(e[1]) is int
            and is_json_number(e[2]))


def from_json(text: str) -> Graph:
    """Parse the to_json wire format.

    n and every node id must be JSON integers and every weight a JSON
    number in the binary64 range (a boolean is neither); an integer weight
    loads as a float.

    Raises:
        InvalidGraphError: malformed JSON, a missing or unknown key or a
            value of the wrong type ("malformed graph JSON: ..."), or a graph
            that Graph rejects.
    """
    try:
        obj = json.loads(text)
        n, edges = obj["n"], obj["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed graph JSON: {exc}") from exc
    unknown = [key for key in obj if key not in ("n", "edges")]
    if unknown:
        raise InvalidGraphError(f"malformed graph JSON: unknown key(s) {', '.join(map(repr, unknown))}")
    if type(n) is not int:
        raise InvalidGraphError(f"malformed graph JSON: n must be an integer, got {n!r}")
    if type(edges) is not list:
        raise InvalidGraphError(f"malformed graph JSON: edges must be a list, got {edges!r}")
    for e in edges:
        if not _is_edge(e):
            raise InvalidGraphError("malformed graph JSON: an edge must be [u, v, w] with "
                                    f"integer nodes and a numeric weight, got {e!r}")
    return Graph(n, tuple((u, v, float(w)) for u, v, w in edges))


# A spec's numbers, read strictly: a count or node is ASCII digits, and eps an
# unsigned ASCII decimal or exponent literal, with no sign, space or underscore.
_EPS = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _spec_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def _spec_eps(text: str) -> float:
    if not _EPS.fullmatch(text):
        raise ValueError(text)
    return float(text)


def parse_graph_spec(spec: str) -> Graph:
    """Resolve a builtin graph spec (SPEC_GRAMMAR) or load a graph JSON file;
    raises InvalidGraphError for a bad spec, an unreadable file or a bad graph.
    A spec that does not fit its SPEC_GRAMMAR form is named with that form."""
    head, _, rest = spec.partition(":")
    try:
        if head == "path":
            n_str, _, mod = rest.partition(":")
            g = build_path(_spec_int(n_str))
            if mod:
                if not mod.startswith("weaken="):
                    raise ValueError(mod)
                u, v, eps = mod[len("weaken="):].split(",")
                g = weaken_edge(g, _spec_int(u), _spec_int(v), _spec_eps(eps))
            return g
        if head == "river":
            parts = [_spec_int(x) for x in rest.split(",")]
            if len(parts) % 2 != 1:
                raise ValueError(rest)
            return build_river_channel(parts[0], list(zip(parts[1::2], parts[2::2])))
        if head == "trunk":
            tl, rf, bf = (_spec_int(x) for x in rest.split(","))
            return build_trunk_roots(tl, rf, bf)
    except (InvalidGraphError, EdgeNotFoundError) as exc:
        raise InvalidGraphError(f"bad graph spec {spec!r}: {exc}") from exc
    except ValueError as exc:
        forms = (f for f in map(str.strip, SPEC_GRAMMAR.splitlines()) if f.startswith(head + ":"))
        raise InvalidGraphError(f"bad graph spec {spec!r}: expected {' or '.join(forms)}") from exc
    try:
        with open(spec) as fh:
            return from_json(fh.read())
    except OSError as exc:
        raise InvalidGraphError(f"cannot read graph file {spec!r}: {exc}") from exc
