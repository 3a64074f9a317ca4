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

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.  ``edges``, the
    sorted tuple of (u, v) pairs with u < v, is built from the masks on
    first access and cached.  No self-loops, no parallel edges, adjacency
    symmetric by construction.
    """

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))
        object.__setattr__(self, "_edges", None)

    @classmethod
    def _from_adj(cls, n: int, masks: Sequence[int]) -> "Graph":
        """Trusted constructor for masks that are already symmetric,
        loop-free and inside ``range(n)``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(masks))
        object.__setattr__(g, "_edges", None)
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted (u, v) pairs with u < v, read off the bits above each
        vertex on first access."""
        edges = self._edges
        if edges is None:
            found = []
            for u, mask in enumerate(self.adj):
                m = mask >> (u + 1)
                while m:
                    bit = m & -m
                    m ^= bit
                    found.append((u, u + bit.bit_length()))
            edges = tuple(found)
            object.__setattr__(self, "_edges", edges)
        return edges

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):  # pragma: no cover - guard only
        raise AttributeError("Graph is immutable")

    # -- basic measurements -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

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
        """Whether uv is an edge; False unless both ends are vertices."""
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

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
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        # copy and pickle rebuild through the trusted constructor, since
        # the default protocol would set the slots and hit __setattr__
        return Graph._from_adj, (self.n, self.adj)

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

_GRAPH6_PAYLOAD_BYTES = bytes(range(63, 127))
_GRAPH6_BITS = {byte: format(byte - 63, "06b") for byte in _GRAPH6_PAYLOAD_BYTES}
_GRAPH6_CHARS = {bits: chr(byte) for byte, bits in _GRAPH6_BITS.items()}


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
    payload = data[1:]
    bad = payload.translate(None, _GRAPH6_PAYLOAD_BYTES)
    if bad:
        byte = bad[0]
        raise GraphFormatError(f"invalid payload byte {byte}", offset=payload.index(byte) + 1)
    # one character per bit, x(0,1) x(0,2) x(1,2) x(0,3) ... then the pad
    bits = "".join([_GRAPH6_BITS[byte] for byte in payload])
    if "1" in bits[nbits:]:
        raise GraphFormatError("nonzero padding bits", offset=need)
    # reversed, pair k = j(j-1)/2 + i is bit k of one int
    x = int(bits[nbits - 1::-1], 2) if nbits else 0
    masks = [0] * n
    for j in range(1, n):
        col = x >> (j * (j - 1) // 2) & ((1 << j) - 1)
        masks[j] = col
        while col:
            bit = col & -col
            col ^= bit
            masks[bit.bit_length() - 1] |= 1 << j
    return Graph._from_adj(n, masks)


def emit_graph6(g: Graph) -> str:
    """Encode ``g`` as one line of graph6 text.  Canonical for a fixed
    vertex labelling: repeated calls are byte-identical."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(
            f"graph6 short form supports at most {GRAPH6_MAX_N} vertices, got {g.n}"
        )
    n = g.n
    # pair k = j(j-1)/2 + i is bit k of one int, as in parse_graph6
    x = 0
    for j in range(1, n):
        x |= (g.adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    nbits = n * (n - 1) // 2
    # x's binary read backwards, its leading 1 sentinel dropped, is the
    # bit sequence x(0,1) x(0,2) x(1,2) ...; zeros pad it to whole groups
    bits = format(x | 1 << nbits, "b")[:0:-1] + "0" * (-nbits % 6)
    return chr(n + 63) + "".join([_GRAPH6_CHARS[bits[i:i + 6]] for i in range(0, nbits, 6)])


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
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    getrandbits = random.Random(seed).getrandbits
    num, den = p.numerator, p.denominator
    k = den.bit_length()
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            # randrange(den) inlined: the same rejection loop draws the same
            # words of the stream, so every (n, p, seed) keeps its graph
            r = getrandbits(k)
            while r >= den:
                r = getrandbits(k)
            if r < num:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return Graph._from_adj(n, masks)


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


def sharpness_order(m: int, a: int, b: int, n: int) -> int:
    """The vertex count of H(m, a, b, n), checked as ``extremal_order``
    checks it, for a sharpness check that deletes V0: refused where the
    large-clique vertices off the pendant matching, (mb+1)(a+n-2) of
    them, are too few for ``default_v0`` to take n."""
    order = extremal_order(m, a, b, n)
    spare = (m * b + 1) * (a + n - 2)
    if spare < n:
        raise ValueError(
            f"H({m},{a},{b},{n}) has no deletion V0: its large clique has {spare} "
            f"vertices off the pendant matching, fewer than n={n}"
        )
    return order


def build_extremal_H(m: int, a: int, b: int, n: int) -> ExtremalWitness:
    order = extremal_order(m, a, b, n)
    s_small = m * (a - 1)
    s_row = m * b + 1
    small = tuple(range(s_small))
    row = tuple(range(s_small, s_small + s_row))
    large = tuple(range(s_small + s_row, order))
    # pendant matching: v_i in the row to u_i = the i-th large-clique vertex
    pendants = tuple((large[i], row[i]) for i in range(s_row))
    small_mask = (1 << s_small) - 1
    row_mask = (1 << (s_small + s_row)) - 1 - small_mask
    large_mask = (1 << order) - 1 - small_mask - row_mask
    masks = [(small_mask ^ 1 << w) | row_mask for w in small]
    masks += [small_mask | 1 << u for u, _ in pendants]
    masks += [large_mask ^ 1 << u for u in large]
    for u, v in pendants:
        masks[u] |= 1 << v
    g = Graph._from_adj(order, masks)
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
            if not g.has_edge(u, v):
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
        keep = tuple(v for v in range(g.n) if v not in gone)
        masks = [g.adj[v] for v in keep]
        # squeeze each deleted vertex's bit out, from the top down
        for v in sorted(gone, reverse=True):
            low = (1 << v) - 1
            masks = [m & low | m >> (v + 1) << v for m in masks]
        return DeletionResult(Graph._from_adj(len(keep), masks), keep)
    masks = list(g.adj)
    for u, v in spec.members:
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    return DeletionResult(Graph._from_adj(g.n, masks), tuple(range(g.n)))


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
