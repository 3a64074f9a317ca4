"""Polynomial [a,b]-factor decision by max-flow on the bipartite double cover.

For a < b the deficiency criterion b|S| - a|T| + d_{G-S}(T) >= 0 carries no
odd-component term (Lovasz 1970), and the same inequality characterises
fractional [a,b]-factors (Anstee 1990).  A fractional factor exists iff the
bipartite double cover of G -- a copy u' and a copy u'' of every vertex and
an edge u'v'' for each ordered adjacent pair -- has a subgraph with every
degree in [a, b]: such a subgraph F gives the fractional factor
h(uv) = (F(u'v'') + F(v'u'')) / 2, and conversely the bipartite flow
polytope is integral.  So for a < b an [a,b]-factor exists iff the
lower-bounded flow below is feasible.  Everything is integral.
"""

from __future__ import annotations

from .graphs import Graph


def ab_factor_exists(g: Graph, a: int, b: int) -> bool:
    """Exact [a,b]-factor existence for 0 <= a < b in polynomial time.

    The flow runs s -> u' with bounds [a, b], u' -> v'' with capacity 1 for
    each ordered adjacent pair, and v'' -> t with bounds [a, b].  The lower
    bounds are moved onto a super-source (a into every u') and a super-sink
    (a out of every v''); the return arc t -> s can carry any amount, so s
    and t become one hub node that passes the b - a slack at each side.  The
    factor exists iff the super-source can push n*a units to the super-sink.
    """
    if not 0 <= a < b:
        raise ValueError(f"the flow decision requires 0 <= a < b, got a={a}, b={b}")
    n = g.n
    total = n * a
    if total == 0:
        return True
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
    need = [a] * n  # lower-bound demand still unsent at u'
    room = [a] * n  # lower-bound demand still unreceived at v''
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
        return True
    for u in range(n):
        arc(source, u, a, a - need[u])
        arc(hub, u, b - a, 0)
        arc(n + u, sink, a, a - room[u])
        arc(n + u, hub, b - a, 0)

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
            return False
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
                    return True
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
