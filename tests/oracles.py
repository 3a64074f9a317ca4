"""Criterion-side oracles shared by the test modules."""

from factorbench.factors import deficient_sets


def first_rho_violation(g, u, v, a, b):
    """Lemma H's criterion: the first S (size-then-lexicographic order)
    whose deficiency in G falls below the penalty rho(S) for the edge uv,
    or None.  Since rho <= 2, only the S of deficiency below 2 are read.
    With u, v outside S their degrees in (G-e)-S are their degrees in G-S
    minus one."""
    adj = g.adj
    uv = 1 << u | 1 << v
    for s, keep, _, d in deficient_sets(g, (a,) * g.n, (b,) * g.n, bound=2):
        penalty = 0
        if keep & uv == uv:
            # x in T' iff deg_{G-S}(x) - 1 <= a - 1
            penalty = ((adj[u] & keep).bit_count() <= a) + (
                (adj[v] & keep).bit_count() <= a
            )
        if d < penalty:
            return s
    return None
