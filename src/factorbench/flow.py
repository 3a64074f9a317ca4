"""Polynomial (g,f)-factor decision by max-flow on the bipartite double cover
(``solve``), the certificate of a refusal read off the flow's last search,
and [a,b]-factor construction (a < b) by rounding that flow
(``round_factor``).

For g < f the criterion f(S) + sum_{x in T} (d_{G-S}(x) - g(x)) >= 0 carries
no odd-component term (Lovasz 1970), and the same inequality characterises
fractional (g,f)-factors (Anstee 1990).  A fractional factor exists iff the
bipartite double cover of G -- a copy u' and a copy u'' of every vertex and
an edge u'v'' for each ordered adjacent pair -- has a subgraph with every
degree in [g, f]: such a subgraph F gives the fractional factor
h(uv) = (F(u'v'') + F(v'u'')) / 2, and conversely the bipartite flow
polytope is integral.  So for g < f a (g,f)-factor exists iff the
lower-bounded flow of ``solve`` is feasible, and so for g <= f on a
bipartite graph, whose double cover is two copies of G.  Everything is
integral, and the flow is held as F itself: an arc u'->v'' carries flow
exactly when u'v'' is an edge of F.  The rest of the residual network is
held as four node masks, updated at every push: the u' that the
super-source still feeds, the v'' that can still feed the super-sink, and
the nodes that the hub can still push into or take flow back from.  The
greedy start matches each u' to its lowest neighbours v whose v'' still
has room, read off the mask of the v'' with room; the level search and
the path walk combine the four masks with F's, so no loop steps a
generator per set bit.

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
   arc u'->v'' with v outside S carries flow and the arc hub->u' carries
   none, so d_{G-S}(u) <= F-deg(u') = flow(source->u') <= g(u).  Each
   v in S receives f(v), and all of it comes over arcs from X'.
3. Summing, f(S) + sum_{u in X} (d_{G-S}(u) - g(u)) = flow value - g(V)
   < 0, and replacing X by the low set T of S only lowers the sum.

The least minimum cut is unique, so S does not depend on which maximum
flow the search found.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, _bits


def round_factor(f: tuple[list[int], list[int]], b: int) -> tuple[tuple[int, int], ...]:
    """The [a,b]-factor rounded from the F that ``solve`` found for the
    uniform bounds 0 <= a < b, as its sorted edge list.

    F gives each edge the value x(uv) = (F(u'v'') + F(v'u'')) / 2 in
    {0, 1/2, 1}, and the x-degree of every vertex lies in [a, b].  The
    edges with x = 1 are kept and the half edges are rounded along maximal
    trails, alternately up and down, so a trail passing through a vertex
    leaves its x-degree unchanged and only its ends move: each by 1/2, or
    the start by 0 or 1 when the trail closes.  A trail that does not close
    gets stuck at a vertex with an odd number of half edges, whose x-degree
    is a half-integer in [a, b], so either move fits there.  A trail starts
    up when the x-degree of its start, rounded down, is below b, and else
    down, which stays at least a because a < b.  So every x-degree stays in
    [a, b] until no half edge is left (Lovasz 1970; Anstee 1985).
    """
    fo, fi = f
    factor = [o & i for o, i in zip(fo, fi)]  # x = 1, then rounded up
    half = [o ^ i for o, i in zip(fo, fi)]  # x = 1/2, not yet rounded

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

    for u in range(len(fo)):
        while half[u]:
            walk(u, factor[u].bit_count() + half[u].bit_count() // 2 < b)
    return tuple((u, v) for u, row in enumerate(factor) for v in _bits(row >> u + 1 << u + 1))


def solve(
    g: Graph, lower: Sequence[int], upper: Sequence[int]
) -> tuple[tuple[list[int], list[int]], None] | tuple[None, tuple[int, ...]]:
    """(F as masks (fo, fi), None) for a flow meeting every lower bound, or
    (None, S) when none does, with S the vertices v whose v'' the last
    search reached: the S of the least minimum cut, whose deficiency is
    negative (see the module docstring).  ``fo[u]`` holds the v and
    ``fi[v]`` the u with u'v'' in F.  Exact for bounds with
    0 <= lower < upper everywhere, or 0 <= lower <= upper on a bipartite
    G; the callers check them.  S may be empty, so test it against None.

    The flow runs s -> u' with bounds [g(u), f(u)], u' -> v'' with capacity
    1 for each ordered adjacent pair, and v'' -> t with bounds [g(v), f(v)].
    The lower bounds are moved onto a super-source (g(u) into every u') and
    a super-sink (g(v) out of every v''); the return arc t -> s can carry
    any amount, so s and t become one hub node that passes the f - g slack
    at each side.  The factor exists iff the super-source can push g(V)
    units to the super-sink.  No arc is stored.  An arc u' -> v'' carries
    flow when v is in fo[u].  ``short[x]`` is the residual of the arc
    super-source -> u' (x = u) or v'' -> super-sink (x = n + v).  ``via[x]``
    is the flow from the hub into x: in [0, f(u) - g(u)] at u', and at v''
    minus the flow v'' -> hub, in [g(v) - f(v), 0].

    Nodes are bits: u' at bit u, v'' at bit n + v, the hub at bit 2n.  Four
    node masks hold the residual state outside F and are updated wherever
    ``short`` or ``via`` changes: ``source``, the u' with ``short`` left;
    ``sink``, the v'' with ``short`` left; ``up``, the nodes the hub can
    still push into (via < via_max); and ``down``, the nodes that can still
    push into the hub (via > via_min).  The greedy start gives each u', in
    turn, its lowest ``short[u]`` neighbours v whose v'' is still in
    ``sink``, all read from one mask.

    Dinic's phases: the search from ``source`` builds one node mask per
    level and stops at the first level that meets ``sink``; the hub's
    successors are ``up``, and a level reaches the hub when it meets
    ``down``.  The blocking flow is then walked back from those v'' one
    unit at a time, each step to a node of the level before with a residual
    arc into the current one.  A node with no such predecessor left drops
    out of its level, which is Dinic's dead-end pruning.  Augmenting only
    adds arcs that run down a level, so a dropped node stays dead for the
    rest of its phase.
    """
    n = g.n
    adj = g.adj
    hub = 2 * n
    hub_bit = 1 << hub
    low = (1 << n) - 1  # every vertex, at bits 0..n-1
    short = [*lower, *lower]
    via = [0] * hub
    via_max = [hi - lo for lo, hi in zip(lower, upper)] + [0] * n
    via_min = [0] * n + [lo - hi for lo, hi in zip(lower, upper)]
    fo = [0] * n
    fi = [0] * n
    room = up = 0  # room: the v whose v'' has short left, over bits 0..n-1
    for x in range(n):
        if lower[x]:
            room |= 1 << x
        if via_max[x]:
            up |= 1 << x
    down = up << n

    # greedy start: direct super-source -> u' -> v'' -> super-sink paths
    source = 0
    left = 0
    for u in range(n):
        k = short[u]
        cand = adj[u] & room
        while k and cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            fo[u] |= bit
            fi[v] |= 1 << u
            k -= 1
            short[n + v] -= 1
            if not short[n + v]:
                room ^= bit
        short[u] = k
        if k:
            source |= 1 << u
            left += k
    sink = room << n

    while left:
        seen = level = source
        levels = []
        while level:
            ends = level & sink
            if ends:
                levels.append(ends)
                break
            levels.append(level)
            nxt = up if level & hub_bit else 0
            if level & down:
                nxt |= hub_bit
            m = level & low  # u' -> v'' off F
            out = 0
            while m:
                bit = m & -m
                m ^= bit
                u = bit.bit_length() - 1
                out |= adj[u] & ~fo[u]
            nxt |= out << n
            m = level >> n & low  # v'' -> u' over F
            while m:
                bit = m & -m
                m ^= bit
                nxt |= fi[bit.bit_length() - 1]
            level = nxt & ~seen
            seen |= level
        else:
            cut = []
            m = seen >> n & low
            while m:
                bit = m & -m
                m ^= bit
                cut.append(bit.bit_length() - 1)
            return None, tuple(cut)

        top = len(levels) - 1
        path: list[int] = []  # path[j] is a node of levels[top - j]
        while True:
            i = top - len(path)
            if i < 0:  # the super-source still feeds path[-1]: push one unit
                x = path[-1]
                short[x] -= 1
                if not short[x]:
                    levels[0] ^= 1 << x
                    source ^= 1 << x
                x = path[0]
                short[x] -= 1
                if not short[x]:
                    levels[top] ^= 1 << x
                    sink ^= 1 << x
                for y, x in zip(path, path[1:]):  # along x -> y
                    if x == hub:
                        via[y] += 1
                        down |= 1 << y
                        if via[y] == via_max[y]:
                            up ^= 1 << y
                    elif y == hub:
                        via[x] -= 1
                        up |= 1 << x
                        if via[x] == via_min[x]:
                            down ^= 1 << x
                    else:  # u'v'' joins F, or v''u' leaves it
                        u, v = (x, y - n) if x < n else (y, x - n)
                        fo[u] ^= 1 << v
                        fi[v] ^= 1 << u
                left -= 1
                if not left:
                    break
                path.clear()
                continue
            below = levels[i]
            if not path:  # into the super-sink: from v'' with room left
                cand = below
            elif path[-1] == hub:  # from u' or v'' with a residual arc into the hub
                cand = down
            else:  # from the hub; into u' from v'' over F, into v'' from u' off F
                x = path[-1]
                cand = (up >> x & 1) << hub
                cand |= fo[x] << n if x < n else adj[x - n] & ~fi[x - n]
            cand &= below
            if cand:
                path.append((cand & -cand).bit_length() - 1)
            elif path:  # dead end
                levels[i + 1] ^= 1 << path.pop()
            else:
                break  # no v'' with room is reachable: the flow is blocking
    return (fo, fi), None
