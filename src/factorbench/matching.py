"""Perfect matchings by Edmonds' blossom algorithm (1965), and k-factors as
perfect matchings of Tutte's gadget (1954)."""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph

_ODD, _EVEN = 1, 2


def perfect_matching(nbrs: Sequence[Sequence[int]], mate: list | None = None) -> list | None:
    """A perfect matching of the graph with neighbour lists ``nbrs``, as
    ``mate`` (``mate[v]`` is v's partner), or None when there is none.

    ``mate`` may hold a matching M to extend in place, -1 marking an
    exposed vertex.  Each exposed vertex in turn roots one search, which
    grows an alternating tree and shrinks each blossom into its base, so it
    finds an M-augmenting path from the root whenever one exists.  The
    first root r without one ends the run, as then no perfect matching P
    exists.  Else r, exposed in M, would have degree 1 in M xor P, and its
    component would be a path from r alternating between P and M.  Its far
    end w has one edge there, so any M-edge of w is w's P-edge too and lies
    outside M xor P: w is exposed in M, and the path augments M from r.
    """
    if mate is None:
        mate = [-1] * len(nbrs)
    for root in range(len(nbrs)):
        if mate[root] < 0 and not _augment(nbrs, mate, root):
            return None
    return mate


def _augment(nbrs: Sequence[Sequence[int]], mate: list[int], root: int) -> bool:
    """Flip an augmenting path from the exposed ``root``, if there is one."""
    n = len(nbrs)
    base = list(range(n))  # union-find: find(v) is the base of v's blossom
    label = [0] * n
    pred = [-1] * n  # the tree edge into an odd vertex, or across a blossom
    label[root] = _EVEN
    queue = [root]

    def find(x: int) -> int:
        while base[x] != x:
            base[x] = base[base[x]]
            x = base[x]
        return x

    def shrink(x: int, y: int, b: int) -> None:
        # fold x's tree path up to the base b into b's blossom, its odd
        # vertices turned even and pred pointing back across the edge xy
        while find(x) != b:
            pred[x] = y
            y = mate[x]
            if label[y] == _ODD:
                label[y] = _EVEN
                queue.append(y)
            # an inner blossom joins b only once the walk reaches its base
            if base[x] == x:
                base[x] = b
            if base[y] == y:
                base[y] = b
            x = pred[y]

    for x in queue:
        for y in nbrs[x]:
            if not label[y]:
                label[y] = _ODD
                pred[y] = x
                if mate[y] < 0:  # flip the tree path from y back to the root
                    while y >= 0:
                        x = pred[y]
                        mate[y], mate[x], y = x, y, mate[x]
                    return True
                label[mate[y]] = _EVEN
                queue.append(mate[y])
            elif label[y] == _EVEN and find(x) != find(y):
                # xy closes a blossom at the first base both tree paths meet
                u, path = find(x), {root}
                while u != root:
                    path.add(u)
                    u = find(pred[mate[u]])
                u = find(y)
                while u not in path:
                    u = find(pred[mate[u]])
                shrink(x, y, u)
                shrink(y, x, u)
    return False


def k_factor(g: Graph, k: int) -> tuple[tuple[int, int], ...] | None:
    """A k-factor of ``g`` (k >= 1) as its edges in ``g.edges`` order, or
    None when there is none: a perfect matching of G for k = 1, else one
    of Tutte's gadget.  There each vertex v gets a port per incident edge
    and k cores joined to each port of v, and each edge joins its two
    ports.  A perfect matching sends exactly k ports of v to cores, so the
    edges whose ports are not matched to each other form a k-factor, and
    every k-factor gives one.  The gadget is matched from a greedy subgraph
    of G with every degree at most k: its edges' ports take cores, and the
    ports of every other edge pair across.
    """
    edges = g.edges
    if k == 1:
        mate = perfect_matching([g.neighbors(v) for v in range(g.n)])
        return None if mate is None else tuple((u, v) for u, v in edges if mate[u] == v)
    core = 2 * len(edges)  # ports 2i and 2i + 1 are the ends of edge i; cores follow
    ports: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        ports[u].append(2 * i)
        ports[v].append(2 * i + 1)
    nbrs: list[Sequence[int]] = [()] * (core + k * g.n)
    for v in range(g.n):
        cores = range(core + k * v, core + k * v + k)
        for p in ports[v]:
            nbrs[p] = (p ^ 1, *cores)
        for c in cores:
            nbrs[c] = ports[v]
    mate = [p ^ 1 for p in range(core)] + [-1] * (k * g.n)
    used = [0] * g.n
    for i, (u, v) in enumerate(edges):
        if used[u] < k and used[v] < k:
            for p, x in ((2 * i, u), (2 * i + 1, v)):
                mate[p] = core + k * x + used[x]
                mate[mate[p]] = p
                used[x] += 1
    if perfect_matching(nbrs, mate) is None:
        return None
    return tuple(e for i, e in enumerate(edges) if mate[2 * i] != 2 * i + 1)
