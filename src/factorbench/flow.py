"""Polynomial (g,f)-factor decision by max-flow on the bipartite double cover,
[a,b]-factor construction (a < b) by rounding that flow, and the
certificate of a refusal read off the flow's last search.

For g < f the criterion f(S) + sum_{x in T} (d_{G-S}(x) - g(x)) >= 0 carries
no odd-component term (Lovasz 1970), and the same inequality characterises
fractional (g,f)-factors (Anstee 1990).  A fractional factor exists iff the
bipartite double cover of G -- a copy u' and a copy u'' of every vertex and
an edge u'v'' for each ordered adjacent pair -- has a subgraph with every
degree in [g, f]: such a subgraph F gives the fractional factor
h(uv) = (F(u'v'') + F(v'u'')) / 2, and conversely the bipartite flow
polytope is integral.  So for g < f a (g,f)-factor exists iff the
lower-bounded flow of ``_solve`` is feasible, and so for g <= f on a
bipartite graph, whose double cover is two copies of G.  Everything is
integral.

When the flow falls short of g(V), the S of a refusal is
S = {v : v'' is reached by the last search}, and its deficiency is
negative:

1. The reached set R is the least source side of a minimum cut.  The
   mirror map swaps u' with u'' and the super-source with the super-sink,
   keeps the hub, and reverses every arc; it maps the network onto itself,
   and the cut (R, R-bar) onto a cut of equal capacity whose source side
   is mirror(R-bar).  So R is a subset of mirror(R-bar), and R holds
   neither the hub nor both copies of any vertex.
2. Let X = {u : u' in R}; then X and S are disjoint.  For u in X every
   arc u'->v'' with v outside S is saturated and the arc hub->u' carries
   nothing, so d_{G-S}(u) <= F-deg(u') = flow(source->u') <= g(u).  Each
   v in S receives f(v), and all of it comes from X'.
3. Summing, f(S) + sum_{u in X} (d_{G-S}(u) - g(u)) = flow value - g(V)
   < 0, and replacing X by the low set T of S only lowers the sum.

The least minimum cut is unique, so S does not depend on which maximum
flow the search found.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, _bits


def ab_factor_exists(g: Graph, a: int, b: int) -> bool:
    """Exact [a,b]-factor existence for 0 <= a < b in polynomial time."""
    return _solve(g, *_uniform_bounds(g.n, a, b))[1] is None


def min_cut_set(g: Graph, lower: Sequence[int], upper: Sequence[int]) -> tuple[int, ...] | None:
    """None when a (g,f)-factor exists, else the S of the least minimum
    cut, whose deficiency is negative (see the module docstring).  Exact
    in polynomial time for bounds with 0 <= lower < upper everywhere, or
    0 <= lower <= upper on a bipartite G.  S may be empty, so test the
    result against None."""
    return _solve(g, lower, upper)[1]


def ab_factor(
    g: Graph, a: int, b: int
) -> tuple[tuple[tuple[int, int], ...], None] | tuple[None, tuple[int, ...]]:
    """An explicit [a,b]-factor for 0 <= a < b, as (its sorted edge list,
    None), or (None, the S of ``min_cut_set``) when none exists.

    The flow's double-cover subgraph F gives each edge the value
    x(uv) = (F(u'v'') + F(v'u'')) / 2 in {0, 1/2, 1}, and the x-degree of
    every vertex lies in [a, b].  The edges with x = 1 are kept and the half
    edges are rounded along maximal trails, alternately up and down, so a
    trail passing through a vertex leaves its x-degree unchanged and only
    its ends move: each by 1/2, or the start by 0 or 1 when the trail
    closes.  A trail that does not close gets stuck at a vertex with an odd
    number of half edges, whose x-degree is a half-integer in [a, b], so
    either move fits there.  A trail starts up when the x-degree of its
    start, rounded down, is below b, and else down, which stays at least a
    because a < b.  So every x-degree stays in [a, b] until no half edge is
    left (Lovasz 1970; Anstee 1985).
    """
    n = g.n
    cap, s = _solve(g, *_uniform_bounds(n, a, b))
    if cap is None:
        return None, s
    out_f = [0] * n  # the v with F(u'v'') = 1
    in_f = [0] * n  # the v with F(v'u'') = 1
    k = 0
    for u in range(n):
        rest = g.adj[u]
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not cap[2 * k]:  # the k-th arc u'v'' is saturated
                out_f[u] |= bit
                in_f[bit.bit_length() - 1] |= 1 << u
            k += 1
    factor = [out_f[u] & in_f[u] for u in range(n)]  # x = 1, then rounded up
    half = [out_f[u] ^ in_f[u] for u in range(n)]  # x = 1/2, not yet rounded

    def walk(u: int, up: bool) -> None:
        """Round the half edges of a maximal trail from u."""
        while half[u]:
            bit = half[u] & -half[u]
            v = bit.bit_length() - 1
            half[u] ^= bit
            half[v] ^= 1 << u
            if up:
                factor[u] |= bit
                factor[v] |= 1 << u
            up = not up
            u = v

    for u in range(n):
        while half[u]:
            walk(u, factor[u].bit_count() + half[u].bit_count() // 2 < b)
    return tuple((u, v) for u in range(n) for v in _bits(factor[u] >> u + 1 << u + 1)), None


def _uniform_bounds(n: int, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not 0 <= a < b:
        raise ValueError(f"the flow decision requires 0 <= a < b, got a={a}, b={b}")
    return (a,) * n, (b,) * n


def _solve(
    g: Graph, lower: Sequence[int], upper: Sequence[int]
) -> tuple[list[int], None] | tuple[None, tuple[int, ...]]:
    """(Residual capacities of a flow meeting every lower bound, None), or
    (None, S) when none does, with S the vertices v whose v'' the last
    search reached.

    The flow runs s -> u' with bounds [g(u), f(u)], u' -> v'' with capacity
    1 for each ordered adjacent pair, and v'' -> t with bounds [g(v), f(v)].
    The lower bounds are moved onto a super-source (g(u) into every u') and
    a super-sink (g(v) out of every v''); the return arc t -> s can carry
    any amount, so s and t become one hub node that passes the f - g slack
    at each side.  The factor exists iff the super-source can push g(V)
    units to the super-sink.  The arcs u' -> v'' come first, in adjacency
    order (u, then v, ascending): the k-th is arc 2k, and F(u'v'') = 1
    exactly when its residual capacity is 0.
    """
    n = g.n
    total = sum(lower)
    adj = g.adj
    # nodes: u' = u, v'' = n + v, hub, super-source, super-sink
    hub, source, sink = 2 * n, 2 * n + 1, 2 * n + 2
    out: list[list[int]] = [[] for _ in range(2 * n + 3)]
    head: list[int] = []
    cap: list[int] = []

    def arc(x: int, y: int, c: int, f: int) -> None:
        """Arc x -> y of capacity c already carrying f, with its reverse."""
        out[x].append(len(head))
        head.append(y)
        cap.append(c - f)
        out[y].append(len(head))
        head.append(x)
        cap.append(f)

    # greedy start: route direct source -> u' -> v'' -> sink paths
    need = list(lower)  # lower-bound demand still unsent at u'
    room = list(lower)  # lower-bound demand still unreceived at v''
    flow = 0
    for u in range(n):
        rest = adj[u]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            used = 1 if need[u] and room[v] else 0
            if used:
                need[u] -= 1
                room[v] -= 1
                flow += 1
            arc(u, n + v, 1, used)
    if flow == total:
        return cap, None
    for u in range(n):
        lo, slack = lower[u], upper[u] - lower[u]
        arc(source, u, lo, lo - need[u])
        arc(hub, u, slack, 0)
        arc(n + u, sink, lo, lo - room[u])
        arc(n + u, hub, slack, 0)

    # Dinic: blocking flows on BFS level graphs
    nodes = len(out)
    while True:
        level = [-1] * nodes
        level[source] = 0
        queue = [source]
        for x in queue:
            nxt = level[x] + 1
            for e in out[x]:
                y = head[e]
                if cap[e] and level[y] < 0:
                    level[y] = nxt
                    queue.append(y)
        if level[sink] < 0:
            return None, tuple(v for v in range(n) if level[n + v] >= 0)
        it = [0] * nodes
        path: list[int] = []
        x = source
        while True:
            if x == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                flow += push
                if flow == total:
                    return cap, None
                path.clear()
                x = source
                continue
            arcs = out[x]
            i = it[x]
            want = level[x] + 1
            while i < len(arcs):
                e = arcs[i]
                if cap[e] and level[head[e]] == want:
                    break
                i += 1
            it[x] = i
            if i < len(arcs):
                path.append(arcs[i])
                x = head[arcs[i]]
            elif path:  # dead end: retreat and skip the arc that led here
                e = path.pop()
                x = head[e ^ 1]
                it[x] += 1
            else:
                break  # level graph exhausted; rebuild it
