"""Degree-constrained spanning subgraphs.

The deficiency f(S) + sum_{x in T} (d_{G-S}(x) - g(x)), with T the
vertices x of G-S of degree below g(x), decides (g,f)-factor existence
(g < f, or a bipartite graph) and, as b|S| - a|T| + d_{G-S}(T), [a,b]-factor
existence (a < b): the factor exists iff it is nonnegative for every S.
Max-flow (``flow``) decides existence, and a refusal is certified by the S
of its least minimum cut, whose deficiency is re-checked here.  A perfect
matching (m = 1 stars) is refused with the Tutte set of the failed blossom
search (``matching``), whose odd components are recounted here.
``find_ab_factor`` builds every explicit factor, star forests included: by
rounding the flow for a < b, and by blossom matching for a = b, whose
refusal carries no certificate.  The one subset scan of the criterion,
``deficient_sets``, serves only the pure scan statement D1 and the tests,
as an oracle, through ``scan_deficiency``.  This module also
houses an exhaustive oracle kept independent of every route and the
maximal-independent-set / covering-set pairs of the deficiency
lower-bound arguments, built by one greedy pass in class order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .errors import CapExceeded
from .flow import ab_factor, min_cut_set
from .graphs import Graph, _bits, vertex_mask
from .matching import k_factor, perfect_matching

DEFAULT_SCAN_CAP = 16
DEFAULT_EDGE_CAP = 25


# -- certificates --------------------------------------------------------------


class FactorViolation(NamedTuple):
    """A set S whose deficiency falls below the required bound, with its
    low-degree set T and the deficiency value."""

    s: tuple[int, ...]
    t: tuple[int, ...]
    delta: int
    bound: int = 0


@dataclass(frozen=True, slots=True)
class FactorCertificate:
    """Either an explicit factor (edge subset meeting the degree bounds at
    every vertex) or a violating set.  A bare negative verdict (both fields
    None) arises only for a = b, whose criterion has a parity term."""

    exists: bool
    factor_edges: tuple[tuple[int, int], ...] | None = None
    violation: FactorViolation | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": "exists" if self.exists else "none"}
        if self.violation is not None:
            out["S"] = list(self.violation.s)
            out["T"] = list(self.violation.t)
            out["delta"] = self.violation.delta
        if self.factor_edges is not None:
            out["factorEdges"] = [list(e) for e in self.factor_edges]
        return out

    def verify(self, g: Graph, a: int, b: int) -> bool:
        """Re-check the certificate from scratch against ``g``.  A factor
        must list distinct edges of ``g``, each once in either orientation,
        and S must name vertices of ``g``; anything else fails, and so does
        a bare negative for a < b."""
        if self.exists and self.factor_edges is not None:
            nbrs = [0] * g.n  # factor neighbours of each vertex, as masks
            for u, v in self.factor_edges:
                if not g.has_edge(u, v) or nbrs[u] >> v & 1:
                    return False
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
            return all(a <= x.bit_count() <= b for x in nbrs)
        if not self.exists and self.violation is not None:
            s, t, d, bound = self.violation
            if not all(0 <= x < g.n for x in s):
                return False
            tmask, value = _deficiency(g, DegreeBounds.uniform(a, b, g.n), s)
            return tuple(_bits(tmask)) == t and value == d < bound
        return self.exists or a == b


class Star(NamedTuple):
    center: int
    leaves: tuple[int, ...]


@dataclass(frozen=True)
class StarForest:
    """Vertex-disjoint stars covering V, each with 1..m leaves and every
    centre-leaf pair an edge of the host graph."""

    stars: tuple[Star, ...]

    def validate(self, g: Graph, m: int) -> None:
        seen: set[int] = set()
        for center, leaves in self.stars:
            if not 1 <= len(leaves) <= m:
                raise ValueError(f"star at {center} has {len(leaves)} leaves")
            for v in (center, *leaves):
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two stars")
                seen.add(v)
            for leaf in leaves:
                if not g.has_edge(center, leaf):
                    raise ValueError(f"({center}, {leaf}) is not an edge")
        if seen != set(range(g.n)):
            raise ValueError("stars do not cover every vertex")

    def to_json_dict(self) -> list[dict]:
        return [{"center": s.center, "leaves": list(s.leaves)} for s in self.stars]


class StarCheck(NamedTuple):
    """Criterion verdict for star factors with the failing set on refusal.
    For m >= 2 the witness violates i(G-S) <= m|S|, and ``violation`` is
    its [1,m] deficiency certificate; for m = 1 it violates the
    odd-component matching condition."""

    exists: bool
    m: int
    witness: tuple[int, ...] | None = None
    isolated: int | None = None
    odd_components: int | None = None
    violation: FactorViolation | None = None


class KaterinisPair(NamedTuple):
    """A maximal independent set and its complementary covering set, with
    per-class counts c_j = |S_j & C| and i_j = |S_j & I| satisfying
    sum (a-j) c_j <= sum j (a-j) i_j."""

    independent: tuple[int, ...]
    cover: tuple[int, ...]
    i_counts: tuple[int, ...]
    c_counts: tuple[int, ...]


@dataclass(frozen=True)
class DegreeBounds:
    """Uniform [a, b] bounds or per-vertex (g, f) bounds."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    @classmethod
    def uniform(cls, a: int, b: int, n: int) -> "DegreeBounds":
        return cls((a,) * n, (b,) * n)

    @classmethod
    def per_vertex(cls, gfun, ffun, n: int) -> "DegreeBounds":
        return cls(_as_vector(gfun, n), _as_vector(ffun, n))

    @property
    def strictly_separated(self) -> bool:
        return all(lo < hi for lo, hi in zip(self.lower, self.upper))

    def validate(self) -> None:
        for v, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if lo < 0:
                raise ValueError(f"negative lower bound at vertex {v}")
            if lo > hi:
                raise ValueError(f"lower bound exceeds upper bound at vertex {v}")


def _as_vector(fun, n: int) -> tuple[int, ...]:
    if callable(fun):
        return tuple(int(fun(v)) for v in range(n))
    vec = tuple(int(x) for x in fun)
    if len(vec) != n:
        raise ValueError(f"bound vector has length {len(vec)}, expected {n}")
    return vec


# -- deficiency ------------------------------------------------------------------


def _deficiency(g: Graph, bounds: DegreeBounds, s: Sequence[int]) -> tuple[int, int]:
    """T as a mask and the deficiency f(S) + sum_{x in T} (d_{G-S}(x) - g(x))
    at one S, with T the vertices x of G-S of degree below g(x)."""
    smask = vertex_mask(s)
    if smask & ~g.full_mask:
        raise ValueError("S contains vertices outside the graph")
    keep = g.full_mask & ~smask
    tmask = 0
    value = 0
    for v in range(g.n):
        if smask >> v & 1:
            value += bounds.upper[v]
            continue
        gap = (g.adj[v] & keep).bit_count() - bounds.lower[v]  # d_{G-S}(v) - g(v)
        if gap < 0:
            tmask |= 1 << v
            value += gap
    return tmask, value


def low_set(g: Graph, s: Sequence[int], a: int) -> tuple[int, ...]:
    """T = the vertices of G-S whose degree in G-S is at most a-1."""
    return tuple(_bits(_deficiency(g, DegreeBounds.uniform(a, a, g.n), s)[0]))


def delta(g: Graph, s: Sequence[int], a: int, b: int) -> int:
    """b|S| - a|T| + d_{G-S}(T) with T = low_set(g, s, a)."""
    return _deficiency(g, DegreeBounds.uniform(a, b, g.n), s)[1]


def deficient_sets(
    g: Graph, bounds: DegreeBounds, *, bound: int = 0, min_size: int = 0
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Every S with |S| >= min_size whose deficiency
    f(S) + sum_{x in T} (d_{G-S}(x) - g(x)) falls below ``bound``, in
    size-then-lexicographic order, with T the vertices x of G-S of degree
    below g(x).  Yields (S, G-S mask, T mask, deficiency)."""
    lo, hi = bounds.lower, bounds.upper
    adj = g.adj
    full = g.full_mask
    n = g.n
    for k in range(min_size, n + 1):
        for combo in combinations(range(n), k):
            smask = 0
            value = 0
            for v in combo:
                smask |= 1 << v
                value += hi[v]
            keep = full & ~smask
            tmask = 0
            rest = keep
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                gap = (adj[v] & keep).bit_count() - lo[v]  # d_{G-S}(v) - g(v)
                if gap < 0:
                    tmask |= bit
                    value += gap
            if value < bound:
                yield combo, keep, tmask, value


def scan_deficiency(
    g: Graph,
    a: int,
    b: int,
    *,
    bound: int = 0,
    min_size: int = 0,
    require_t: bool = False,
    cap_n: int = DEFAULT_SCAN_CAP,
) -> FactorViolation | None:
    """First S (size-then-lexicographic order) with [a,b] deficiency below
    ``bound``, optionally restricted to |S| >= min_size or T nonempty.
    Returns None when every required S passes."""
    if g.n > cap_n:
        raise CapExceeded(f"deficiency scan capped at {cap_n} vertices, got {g.n}")
    bounds = DegreeBounds.uniform(a, b, g.n)
    for s, _, tmask, d in deficient_sets(g, bounds, bound=bound, min_size=min_size):
        if tmask or not require_t:
            return FactorViolation(s, tuple(_bits(tmask)), d, bound)
    return None


# -- existence criteria ------------------------------------------------------------


def check_ab_factor(g: Graph, a: int, b: int) -> FactorCertificate:
    """[a,b]-factor existence (a < b), decided by the double-cover flow.
    No subgraph is constructed.  A refusal is certified by the S of the
    flow's least minimum cut."""
    _check_ab(a, b, strict=True)
    return _decided(g, DegreeBounds.uniform(a, b, g.n))


def check_gf_factor(g: Graph, gfun, ffun) -> FactorCertificate:
    """(g, f)-factor existence: for every S, g(T) - d_{G-S}(T) <= f(S)
    with T = the vertices x of G-S of degree below g(x).

    The criterion is valid when g(x) < f(x) for every vertex or when the
    graph is bipartite; anything else is refused.  There the double-cover
    flow with per-vertex bounds decides and certifies, as
    ``check_ab_factor`` does.
    """
    bounds = DegreeBounds.per_vertex(gfun, ffun, g.n)
    bounds.validate()
    if not bounds.strictly_separated and not g.is_bipartite():
        raise ValueError(
            "criterion requires g(x) < f(x) for every vertex, or a bipartite graph"
        )
    return _decided(g, bounds)


def _decided(g: Graph, bounds: DegreeBounds) -> FactorCertificate:
    """The flow's verdict as a certificate; a refusal carries the S of the
    least minimum cut."""
    s = min_cut_set(g, bounds.lower, bounds.upper)
    if s is None:
        return FactorCertificate(exists=True)
    return FactorCertificate(exists=False, violation=_certify_refusal(g, bounds, s))


def _certify_refusal(g: Graph, bounds: DegreeBounds, s: Sequence[int]) -> FactorViolation:
    """The violation at the S of the route that refused ``g``.  A
    deficiency >= 0 there means the refusal and the criterion disagree,
    which is a bug, not a verdict."""
    tmask, d = _deficiency(g, bounds, s)
    if d >= 0:
        raise RuntimeError(
            "refusal and deficiency routes disagree: the factor was refused "
            f"but S = {list(s)} has deficiency {d} >= 0"
        )
    return FactorViolation(tuple(s), tuple(_bits(tmask)), d, 0)


def _check_ab(a: int, b: int, *, strict: bool) -> None:
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if strict and a >= b:
        raise ValueError(f"the deficiency criterion requires a < b, got a={a}, b={b}")
    if not strict and a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")


# -- constructive finder -------------------------------------------------------------


def find_ab_factor(g: Graph, a: int, b: int) -> FactorCertificate:
    """An explicit [a,b]-factor (a = b allowed), re-verified, or a refusal.

    For a < b the factor is rounded from the double-cover flow
    (``flow.ab_factor``), and a refusal carries the S of the flow's least
    minimum cut.  For a = b the criterion has a parity term, and blossom
    matching decides (``matching.k_factor``); a refusal carries no
    certificate.  A factor that fails ``FactorCertificate.verify`` is
    raised as a bug.
    """
    _check_ab(a, b, strict=False)
    if a == 0 or g.n == 0:
        return FactorCertificate(exists=True, factor_edges=())
    edges, s = ab_factor(g, a, b) if a < b else (k_factor(g, a), None)
    if edges is None:
        violation = None if a == b else _certify_refusal(g, DegreeBounds.uniform(a, b, g.n), s)
        return FactorCertificate(exists=False, violation=violation)
    cert = FactorCertificate(exists=True, factor_edges=edges)
    if not cert.verify(g, a, b):
        raise RuntimeError(f"the built [{a},{b}]-factor fails verification: {edges}")
    return cert


def brute_force_factor(g: Graph, a: int, b: int, *, max_edges: int = DEFAULT_EDGE_CAP) -> bool:
    """Ground-truth oracle: exhaustive inclusion/exclusion over edges in
    lexicographic order with degree-feasibility pruning only.  Kept free of
    the finder's ordering heuristics and propagation on purpose."""
    _check_ab(a, b, strict=False)
    if g.edge_count > max_edges:
        raise CapExceeded(
            f"brute-force oracle capped at {max_edges} edges, got {g.edge_count}"
        )
    if a == 0 or g.n == 0:
        return True
    n = g.n
    edges = g.edges
    m = len(edges)
    rem = [0] * n
    for u, v in edges:
        rem[u] += 1
        rem[v] += 1
    if any(r < a for r in rem):
        return False
    deg = [0] * n

    def rec(i: int) -> bool:
        if i == m:
            return all(deg[v] >= a for v in range(n))
        u, v = edges[i]
        if deg[u] < b and deg[v] < b:
            deg[u] += 1
            deg[v] += 1
            rem[u] -= 1
            rem[v] -= 1
            if rec(i + 1):
                return True
            deg[u] -= 1
            deg[v] -= 1
            rem[u] += 1
            rem[v] += 1
        rem[u] -= 1
        rem[v] -= 1
        ok = deg[u] + rem[u] >= a and deg[v] + rem[v] >= a
        if ok and rec(i + 1):
            return True
        rem[u] += 1
        rem[v] += 1
        return False

    return rec(0)


# -- star factors -----------------------------------------------------------------


def check_star_factor(g: Graph, m: int) -> StarCheck:
    """Spanning-star-forest existence (components K_{1,1}..K_{1,m}).

    For m >= 2 this is a [1,m]-factor, decided by the double-cover flow.
    A refusal is certified by the S of the flow's least minimum cut, which
    breaks the isolated-vertex criterion i(G-S) <= m|S| (the [1,m]
    deficiency with d_{G-S}(T) = 0).  Single-edge stars (m = 1) are
    perfect matchings, decided by blossom matching.  There counting
    isolated vertices is not enough (a triangle passes but has none), so a
    refusal is certified by the Tutte set of the failed blossom search,
    whose more than |S| odd components of G-S are recounted here.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m >= 2:
        cert = _decided(g, DegreeBounds.uniform(1, m, g.n))
        violation = cert.violation
        if violation is None:
            return StarCheck(exists=True, m=m)
        return StarCheck(
            exists=False, m=m, witness=violation.s, isolated=len(violation.t),
            violation=violation,
        )
    mate, s = perfect_matching([g.neighbors(v) for v in range(g.n)])
    if mate is not None:
        return StarCheck(exists=True, m=1)
    odd = _odd_components(g.adj, g.full_mask & ~vertex_mask(s))
    if odd <= len(s):
        raise RuntimeError(
            f"matching and odd-component routes disagree on a refusal: "
            f"G - {list(s)} has {odd} odd components"
        )
    return StarCheck(exists=False, m=1, witness=s, odd_components=odd)


def _odd_components(adj: Sequence[int], keep: int) -> int:
    count = 0
    rest = keep
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                bit = f & -f
                f ^= bit
                nxt |= adj[bit.bit_length() - 1] & keep
            frontier = nxt & ~comp
            comp |= frontier
        rest &= ~comp
        if comp.bit_count() % 2:
            count += 1
    return count


def find_star_factor(g: Graph, m: int) -> StarForest | None:
    """Decompose the [1,m]-factor of ``find_ab_factor`` into a spanning
    star forest, or None when no such factor exists."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    cert = find_ab_factor(g, 1, m)
    return _peel_stars(g, cert.factor_edges, m) if cert.exists else None


def _peel_stars(g: Graph, factor_edges, m: int) -> StarForest:
    """The spanning star forest left by pruning a [1,m]-factor.

    In the order given, every factor edge whose two ends both have degree
    >= 2 is dropped.  Degrees stay in [1, m], and an end of degree 1
    never loses its edge, so every edge left has an end of degree 1 and
    each component is a star.  Its centre is its vertex of degree >= 2,
    or the smaller end of a lone edge.
    """
    deg = [0] * g.n
    for u, v in factor_edges:
        deg[u] += 1
        deg[v] += 1
    kept = []
    for u, v in factor_edges:
        if deg[u] >= 2 and deg[v] >= 2:
            deg[u] -= 1
            deg[v] -= 1
        else:
            kept.append((u, v))
    leaves: dict[int, list[int]] = {}
    for u, v in kept:
        if deg[v] >= 2 or (deg[u] == 1 and v < u):
            u, v = v, u
        leaves.setdefault(u, []).append(v)
    forest = StarForest(
        tuple(Star(c, tuple(sorted(leaves[c]))) for c in sorted(leaves))
    )
    forest.validate(g, m)
    return forest


# -- maximal independent set / covering set pairs -----------------------------------


def find_katerinis_pair(
    h: Graph, partition: Sequence[Sequence[int]], a: int
) -> KaterinisPair:
    """A maximal independent set I and the covering set C = V - I whose
    per-class counts satisfy
    sum_{j=1}^{a-1} (a-j) c_j <= sum_{j=1}^{a-1} j (a-j) i_j,
    for a vertex partition S_1..S_{a-1} with d(x) <= j on S_j.

    I is taken greedily, by class index and then by label: a vertex joins
    unless a neighbour already has.  Why the bound holds: each x in C has
    a neighbour y in I taken earlier, so j(y) <= j(x); y has at most j(y)
    neighbours; so sum (a-j) c_j <= sum j (a-j) i_j.  A broken bound is
    raised as a bug.
    """
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    if len(partition) != a - 1:
        raise ValueError(f"expected {a - 1} classes, got {len(partition)}")
    cls = [-1] * h.n
    for j, part in enumerate(partition, start=1):
        for v in part:
            if not 0 <= v < h.n:
                raise ValueError(f"vertex {v} is not a vertex of the graph")
            if cls[v] != -1:
                raise ValueError(f"vertex {v} appears in two classes")
            if h.degree(v) > j:
                raise ValueError(
                    f"vertex {v} has degree {h.degree(v)} but sits in class S_{j}"
                )
            cls[v] = j
    missing = [v for v in range(h.n) if cls[v] == -1]
    if missing:
        raise ValueError(f"vertex {missing[0]} is not covered by the partition")

    imask = 0
    for v in sorted(range(h.n), key=lambda v: (cls[v], v)):
        if not h.adj[v] & imask:
            imask |= 1 << v
    i_counts = [0] * (a - 1)
    c_counts = [0] * (a - 1)
    for v in range(h.n):
        counts = i_counts if imask >> v & 1 else c_counts
        counts[cls[v] - 1] += 1
    lhs = sum((a - j) * c for j, c in enumerate(c_counts, start=1))
    rhs = sum(j * (a - j) * i for j, i in enumerate(i_counts, start=1))
    if lhs > rhs:
        raise RuntimeError(
            f"the greedy independent set breaks the covering bound ({lhs} > {rhs}); "
            "this contradicts its proof and indicates a bug"
        )
    return KaterinisPair(
        tuple(v for v in range(h.n) if imask >> v & 1),
        tuple(v for v in range(h.n) if not imask >> v & 1),
        tuple(i_counts),
        tuple(c_counts),
    )
