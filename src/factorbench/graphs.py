"""Finite simple graphs: construction, graph6 text I/O, deletions, and
elementary measurements.

Vertices are always labelled 0..n-1.  Graphs are immutable after
construction, and adjacency is kept as per-vertex integer bitmasks so that
the subset-heavy searches elsewhere in the package run on plain integer
bit operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import GraphFormatError

GRAPH6_MAX_N = 62
_GRAPH6_HEADER = ">>graph6<<"


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask; ``edges`` is the
    sorted tuple of (u, v) pairs with u < v.  No self-loops, no parallel
    edges, adjacency symmetric by construction.
    """

    __slots__ = ("n", "adj", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        clean = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            clean.append((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))
        object.__setattr__(self, "edges", tuple(sorted(clean)))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph is immutable")

    # -- basic measurements -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(m.bit_count() for m in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def is_complete(self) -> bool:
        return all(m.bit_count() == self.n - 1 for m in self.adj)

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for w in _bits(self.adj[v]):
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return False
        return True

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def vertex_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# -- graph6 (short form, n <= 62) -------------------------------------------
#
# Layout: one size byte chr(n + 63), then the upper triangle x(i, j) for
# j = 1..n-1, i = 0..j-1 packed big-endian into 6-bit groups, each group
# emitted as chr(group + 63).  Trailing pad bits must be zero.


def parse_graph6(line: str) -> Graph:
    """Decode one line of graph6 text (short form only)."""
    text = line.strip()
    if text.startswith(_GRAPH6_HEADER):
        text = text[len(_GRAPH6_HEADER):]
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("graph6 line is not ASCII", offset=exc.start) from None
    if not data:
        raise GraphFormatError("empty graph6 line", offset=0)
    first = data[0]
    if first == 126:
        raise GraphFormatError("long-form graph6 (n > 62) is not supported", offset=0)
    if not 63 <= first <= 125:
        raise GraphFormatError(f"invalid size byte {first}", offset=0)
    n = first - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise GraphFormatError(
            f"expected {need} payload bytes for n={n}, got {len(data) - 1}",
            offset=min(len(data), need + 1),
        )
    edges = []
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    k = 0
    for pos, byte in enumerate(data[1:], start=1):
        group = byte - 63
        if not 0 <= group <= 63:
            raise GraphFormatError(f"invalid payload byte {byte}", offset=pos)
        for shift in range(5, -1, -1):
            bit = group >> shift & 1
            if k < nbits:
                if bit:
                    edges.append(pairs[k])
                k += 1
            elif bit:
                raise GraphFormatError("nonzero padding bits", offset=pos)
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode ``g`` as one line of graph6 text.  Canonical for a fixed
    vertex labelling: repeated calls are byte-identical."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(
            f"graph6 short form supports at most {GRAPH6_MAX_N} vertices, got {g.n}"
        )
    out = [g.n + 63]
    acc = 0
    width = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            width += 1
            if width == 6:
                out.append(acc + 63)
                acc = 0
                width = 0
    if width:
        out.append((acc << (6 - width)) + 63)
    return bytes(out).decode("ascii")


# -- generators --------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: centre 0, leaves 1..leaves."""
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts."""
    edges = list(disjoint_union(g, h).edges)
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)


def generate_random(n: int, p, seed: int) -> Graph:
    """G(n, p) with exact rational p: each unordered pair is an edge
    independently with probability p.

    Uses the named, portable Mersenne Twister (`random.Random`) and integer
    draws, so a fixed (n, p, seed) reproduces the same graph everywhere.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    num, den = p.numerator, p.denominator
    edges = [e for e in combinations(range(n), 2) if rng.randrange(den) < num]
    return Graph(n, edges)


# -- the extremal family showing the vertex-deletion bound is best possible --


@dataclass(frozen=True)
class ExtremalWitness:
    """The three-part construction H(m, a, b, n): an m(a-1)-clique fully
    joined to an independent row of mb+1 vertices, each row vertex also
    pendant to its own vertex u_i inside a large (mb+1)(a-1+n)-clique."""

    graph: Graph
    clique_small: tuple[int, ...]
    isolated_row: tuple[int, ...]
    clique_large: tuple[int, ...]
    pendant_pairs: tuple[tuple[int, int], ...]
    params: tuple[int, int, int, int]  # (m, a, b, n)

    @property
    def witness_ratio(self) -> Fraction:
        """|S|/i(H-S) for S = both cliques: ((mb+1)(a-1+n)+m(a-1))/(mb+1)."""
        m, a, b, n = self.params
        return Fraction((m * b + 1) * (a - 1 + n) + m * (a - 1), m * b + 1)

    def default_v0(self) -> tuple[int, ...]:
        """The n lexicographically first large-clique vertices avoiding
        every pendant endpoint u_i."""
        n = self.params[3]
        u_set = {u for u, _ in self.pendant_pairs}
        rest = [v for v in self.clique_large if v not in u_set]
        return tuple(rest[:n])


def extremal_order(m: int, a: int, b: int, n: int) -> int:
    """The vertex count of H(m, a, b, n), checked before anything is built:
    the small clique, the isolated row and the large clique together."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= a < b:
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return m * (a - 1) + (m * b + 1) * (a + n)


def build_extremal_H(m: int, a: int, b: int, n: int) -> ExtremalWitness:
    order = extremal_order(m, a, b, n)
    s_small = m * (a - 1)
    s_row = m * b + 1
    small = tuple(range(s_small))
    row = tuple(range(s_small, s_small + s_row))
    large = tuple(range(s_small + s_row, order))
    edges = list(combinations(small, 2))
    edges += list(combinations(large, 2))
    edges += [(w, v) for w in small for v in row]
    # pendant matching: v_i in the row to u_i = the i-th large-clique vertex
    pendants = tuple((large[i], row[i]) for i in range(s_row))
    edges += [(u, v) for u, v in pendants]
    g = Graph(order, edges)
    return ExtremalWitness(g, small, row, large, pendants, (m, a, b, n))


# -- deletions ---------------------------------------------------------------


@dataclass(frozen=True)
class DeletionSpec:
    """The avoided object: a vertex set, an edge set, a matching, or a
    single edge."""

    kind: str  # "vertices" | "edges" | "matching" | "edge"
    members: tuple

    @classmethod
    def vertices(cls, vs: Iterable[int]) -> "DeletionSpec":
        return cls("vertices", tuple(sorted(set(vs))))

    @classmethod
    def edges(cls, es: Iterable[tuple[int, int]]) -> "DeletionSpec":
        return cls("edges", _normalize_edges(es))

    @classmethod
    def matching(cls, es: Iterable[tuple[int, int]]) -> "DeletionSpec":
        return cls("matching", _normalize_edges(es))

    @classmethod
    def edge(cls, u: int, v: int) -> "DeletionSpec":
        return cls("edge", _normalize_edges([(u, v)]))

    def validate(self, g: Graph) -> None:
        if self.kind == "vertices":
            for v in self.members:
                if not 0 <= v < g.n:
                    raise ValueError(f"vertex {v} is not a vertex of the graph")
            return
        for u, v in self.members:
            if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
                raise ValueError(f"edge ({u}, {v}) is not an edge of the graph")
        if self.kind == "matching":
            seen: set[int] = set()
            for u, v in self.members:
                if u in seen or v in seen:
                    raise ValueError(
                        f"matching edges are not disjoint at vertex {u if u in seen else v}"
                    )
                seen.update((u, v))
        if self.kind == "edge" and len(self.members) != 1:
            raise ValueError("edge deletion takes exactly one edge")

    def to_json_dict(self) -> dict:
        members = [list(m) if isinstance(m, tuple) else m for m in self.members]
        return {"kind": self.kind, "members": members}


def _normalize_edges(es: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in es))


class DeletionResult(NamedTuple):
    """Deleted graph plus the order-preserving bijection back to the host:
    ``original_labels[new] == old``.  Identity for edge deletions."""

    graph: Graph
    original_labels: tuple[int, ...]


def delete(g: Graph, spec: DeletionSpec) -> DeletionResult:
    """Remove the specified object.  Vertex deletion drops incident edges
    and relabels survivors in order; edge deletion keeps all vertices."""
    spec.validate(g)
    if spec.kind == "vertices":
        gone = set(spec.members)
        keep = [v for v in range(g.n) if v not in gone]
        index = {old: new for new, old in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in g.edges
            if u not in gone and v not in gone
        ]
        return DeletionResult(Graph(len(keep), edges), tuple(keep))
    gone_edges = set(spec.members)
    edges = [e for e in g.edges if e not in gone_edges]
    return DeletionResult(Graph(g.n, edges), tuple(range(g.n)))


def delete_vertices(g: Graph, vs: Iterable[int]) -> DeletionResult:
    return delete(g, DeletionSpec.vertices(vs))


def delete_edges(g: Graph, es: Iterable[tuple[int, int]]) -> Graph:
    return delete(g, DeletionSpec.edges(es)).graph


# -- isolated vertices -------------------------------------------------------


def isolated_count(g: Graph, s: Iterable[int] = ()) -> int:
    """i(G-S): the number of vertices of G-S with no neighbour in G-S."""
    smask = vertex_mask(s)
    if smask & ~g.full_mask:
        raise ValueError("S contains vertices outside the graph")
    return isolated_count_mask(g.adj, g.full_mask & ~smask)


def isolated_count_mask(adj: Sequence[int], keep_mask: int) -> int:
    """i over the induced subgraph on ``keep_mask`` (bitmask form)."""
    count = 0
    m = keep_mask
    while m:
        bit = m & -m
        m ^= bit
        if not adj[bit.bit_length() - 1] & keep_mask:
            count += 1
    return count
