"""Isolated toughness: oracle agreement, frozen classics, thresholds."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorbench import (
    CapExceeded,
    Graph,
    build_extremal_H,
    complete_graph,
    cycle_graph,
    disjoint_union,
    generate_random,
    isolated_count,
    path_graph,
    star_graph,
)
from factorbench.toughness import (
    ToughnessReport,
    _sorted_before,
    isolated_toughness,
    isolated_toughness_bruteforce,
    threshold,
)


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# -- frozen classics (values confirmed by the brute-force oracle below) -------


@pytest.mark.parametrize(
    "g, expected",
    [
        (complete_graph(5), Fraction(4)),
        (cycle_graph(4), Fraction(1)),
        (star_graph(3), Fraction(1, 3)),
        (path_graph(4), Fraction(1)),
        (disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)])), Fraction(1)),
    ],
)
def test_classic_values(g, expected):
    oracle = isolated_toughness_bruteforce(g)
    assert oracle.value == expected
    fast = isolated_toughness(g)
    assert fast.value == expected
    assert fast.verify(g) and oracle.verify(g)


def test_c4_witness_is_opposite_pair():
    rep = isolated_toughness_bruteforce(cycle_graph(4))
    assert rep.witness in ((0, 2), (1, 3))
    assert rep.isolated_at_witness == 2


def test_star_witness_is_center():
    rep = isolated_toughness(star_graph(3))
    assert rep.witness == (0,)
    assert rep.isolated_at_witness == 3


def test_complete_graph_definition_branch():
    rep = isolated_toughness(complete_graph(7))
    assert rep.value == 6 and rep.witness == () and rep.isolated_at_witness == 0
    assert isolated_toughness(Graph(1)).value == 0


def test_empty_graph_is_rejected():
    with pytest.raises(ValueError):
        isolated_toughness(Graph(0))
    with pytest.raises(ValueError):
        isolated_toughness_bruteforce(Graph(0))


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        isolated_toughness_bruteforce(Graph(20), cap_n=16)


def test_edgeless_graph_has_toughness_zero():
    rep = isolated_toughness(Graph(4))
    assert rep.value == 0 and rep.witness == ()


# -- the root of the closed-set enumeration: the degree-0 vertices ------------


@pytest.mark.parametrize(
    "g, expected",
    [
        (disjoint_union(Graph(1), complete_graph(3)), (Fraction(1), (1, 2), 2)),
        (disjoint_union(Graph(2), complete_graph(3)), (Fraction(0), (), 2)),
        (disjoint_union(Graph(1), cycle_graph(5)), (Fraction(1), (1, 2, 4), 3)),
        (disjoint_union(Graph(1), star_graph(3)), (Fraction(1, 4), (1,), 4)),
    ],
    ids=["K1+K3", "2K1+K3", "K1+C5", "K1+K1,3"],
)
def test_degree_zero_root(g, expected):
    rep = isolated_toughness(g)
    triple = (rep.value, rep.witness, rep.isolated_at_witness)
    assert triple == reference_triple(g) == expected


# -- certificate checking ------------------------------------------------------


def test_verify_rejects_a_repeated_witness_vertex():
    # |(0, 0)| = 2 would give 2/3; the true ratio at {0} is 1/3
    assert not ToughnessReport(Fraction(2, 3), (0, 0), 3).verify(star_graph(3))


def test_verify_rejects_a_witness_vertex_outside_the_graph():
    assert not ToughnessReport(Fraction(2, 3), (0, 9), 3).verify(star_graph(3))


def test_verify_rejects_isolated_vertices_claimed_on_a_complete_graph():
    assert not ToughnessReport(Fraction(3), (), 7).verify(complete_graph(4))
    assert ToughnessReport(Fraction(3), (), 0).verify(complete_graph(4))


# -- exhaustive oracle agreement on small orders -------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fast_equals_bruteforce_exhaustively(n):
    # every labelled graph: the value against the subset oracle, the full
    # triple against the independent-set enumeration (32,768 graphs at n = 6)
    for g in all_graphs(n):
        fast = isolated_toughness(g)
        slow = isolated_toughness_bruteforce(g)
        assert fast.value == slow.value, g
        assert fast.verify(g) and slow.verify(g)
        assert (fast.value, fast.witness, fast.isolated_at_witness) == reference_triple(g), g


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]))
def test_fast_equals_bruteforce_random(n, seed, denom):
    g = generate_random(n, Fraction(1, denom + 1), seed)
    fast = isolated_toughness(g)
    slow = isolated_toughness_bruteforce(g)
    assert fast.value == slow.value
    assert fast.verify(g) and slow.verify(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 14), st.integers(0, 10**6), st.sampled_from([1, 2, 3, 4]))
def test_fast_equals_bruteforce_on_larger_random_graphs(n, seed, denom):
    # deep enough closure trees for the prefix check and the prunes to meet
    g = generate_random(n, Fraction(1, denom + 1), seed)
    fast = isolated_toughness(g)
    assert fast.value == isolated_toughness_bruteforce(g).value
    assert fast.verify(g)
    if n <= 12:
        assert (fast.value, fast.witness, fast.isolated_at_witness) == reference_triple(g)


def test_noncomplete_witness_isolates_at_least_two():
    for g in all_graphs(4):
        if g.is_complete():
            continue
        rep = isolated_toughness(g)
        assert isolated_count(g, rep.witness) >= 2


# -- the reduction behind the fast algorithm ----------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduction_soundness(n):
    # Replacing S by N(I), I = isolates of G-S, never increases the ratio.
    for g in all_graphs(n):
        for k in range(n + 1):
            for s in combinations(range(n), k):
                iso_set = [
                    v
                    for v in range(n)
                    if v not in s and all(w in s for w in g.neighbors(v))
                ]
                if len(iso_set) < 2:
                    continue
                n_of_i = set()
                for v in iso_set:
                    n_of_i.update(g.neighbors(v))
                iso_prime = isolated_count(g, n_of_i)
                assert Fraction(len(n_of_i), iso_prime) <= Fraction(len(s), len(iso_set))


def test_monotone_sanity_edge_addition():
    # Adding an edge should not decrease I(G); flagged, not failed, with
    # both algorithms required to agree on each side.
    flagged = []
    for seed in range(40):
        g = generate_random(7, Fraction(2, 5), seed)
        missing = [
            (u, v)
            for u, v in combinations(range(7), 2)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        u, v = missing[seed % len(missing)]
        g2 = Graph(7, list(g.edges) + [(u, v)])
        r1, r2 = isolated_toughness(g), isolated_toughness(g2)
        assert r1.value == isolated_toughness_bruteforce(g).value
        assert r2.value == isolated_toughness_bruteforce(g2).value
        if r2.value < r1.value:
            flagged.append((g, (u, v)))
    if flagged:  # pragma: no cover - empirical regression flag only
        print(f"monotonicity flag: {len(flagged)} edge additions decreased I(G)")


# -- extremal family ------------------------------------------------------------


def test_extremal_h_toughness_upper_bound():
    w = build_extremal_H(1, 2, 3, 1)
    assert w.witness_ratio == Fraction(9, 4)
    # the two cliques form an S with i = row size, so I(H) <= 9/4
    s = w.clique_small + w.clique_large
    assert isolated_count(w.graph, s) == len(w.isolated_row)
    rep = isolated_toughness(w.graph)
    assert rep.value <= Fraction(9, 4)
    # 13 vertices: small enough for the reference algorithm too
    assert rep.value == isolated_toughness_bruteforce(w.graph).value


# -- witness contract -----------------------------------------------------------


def reference_triple(g):
    """(value, witness, isolated_at_witness) by enumeration: the minimum of
    |N(I)| / i(G - N(I)) over independent I with |I| >= 2, ties broken by
    the lexicographically smallest sorted N(I)."""
    if g.is_complete():
        return Fraction(g.n - 1), (), 0
    best = None
    for k in range(2, g.n + 1):
        for i_set in combinations(range(g.n), k):
            if any(g.has_edge(x, y) for x, y in combinations(i_set, 2)):
                continue
            s = tuple(sorted({u for x in i_set for u in g.neighbors(x)}))
            iso = isolated_count(g, s)
            key = (Fraction(len(s), iso), s)
            if best is None or key < best[0]:
                best = (key, iso)
    (value, s), iso = best
    return value, s, iso


@st.composite
def graphs_up_to_9(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_9())
def test_witness_is_lexicographically_smallest_optimal_neighbourhood(g):
    rep = isolated_toughness(g)
    assert (rep.value, rep.witness, rep.isolated_at_witness) == reference_triple(g)


@st.composite
def h_like_graphs(draw):
    """At most 12 vertices shaped like H(m,a,b,n): a small clique joined to
    an independent row, each row vertex with a pendant edge to a large
    clique, a few random extra edges, and the labels shuffled.  Their
    high-degree clique vertices and ratio ties exercise both prunes."""
    small = draw(st.integers(0, 3))
    row = draw(st.integers(2, 5))
    large = draw(st.integers(row, 12 - small - row)) if small + 2 * row <= 12 else 0
    n = small + row + large
    sv = range(small)
    rv = range(small, small + row)
    lv = range(small + row, n)
    edges = set(combinations(sv, 2)) | set(combinations(lv, 2))
    edges |= {(w, v) for w in sv for v in rv}
    if large:
        edges |= {(v, small + row + i) for i, v in enumerate(rv)}
    pairs = list(combinations(range(n), 2))
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=120, deadline=None)
@given(h_like_graphs())
def test_witness_on_h_like_graphs(g):
    rep = isolated_toughness(g)
    assert (rep.value, rep.witness, rep.isolated_at_witness) == reference_triple(g)


@st.composite
def graphs_with_pendants(draw):
    """A random graph on at most 10 vertices plus 1-4 pendant vertices,
    each joined to one earlier vertex, with the labels shuffled.  The
    pendants make private neighbours for the pendant-gain bound."""
    n = draw(st.integers(1, 10))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    for _ in range(draw(st.integers(1, 4))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(graphs_with_pendants())
def test_witness_on_graphs_with_pendants(g):
    rep = isolated_toughness(g)
    assert (rep.value, rep.witness, rep.isolated_at_witness) == reference_triple(g)


@pytest.mark.parametrize(
    "params, expected",
    [
        ((1, 2, 3, 1), (Fraction(5, 4), (0, 5, 6, 7, 8), 4)),
        ((2, 2, 3, 1), (Fraction(9, 7), (0, 1, 9, 10, 11, 12, 13, 14, 15), 7)),
        ((3, 2, 3, 1),
         (Fraction(13, 10), (0, 1, 2, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22), 10)),
        ((1, 2, 4, 2), (Fraction(6, 5), (0, 6, 7, 8, 9, 10), 5)),
        ((2, 2, 4, 2),
         (Fraction(11, 9), (0, 1, 11, 12, 13, 14, 15, 16, 17, 18, 19), 9)),
        ((3, 2, 4, 2),
         (Fraction(16, 13),
          (0, 1, 2, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28), 13)),
        ((1, 3, 4, 1), (Fraction(7, 5), (0, 1, 7, 8, 9, 10, 11), 5)),
        ((2, 3, 4, 1),
         (Fraction(13, 9), (0, 1, 2, 3, 13, 14, 15, 16, 17, 18, 19, 20, 21), 9)),
        ((3, 3, 4, 1),
         (Fraction(19, 13),
          (0, 1, 2, 3, 4, 5, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31),
          13)),
        # beyond the criterion-3 grid: the small clique and the 13 or 17
        # pendant ends u_i in the large clique
        ((4, 2, 3, 1), (Fraction(17, 13), tuple(range(4)) + tuple(range(17, 30)), 13)),
        ((4, 3, 4, 1), (Fraction(25, 17), tuple(range(8)) + tuple(range(25, 42)), 17)),
    ],
)
def test_extremal_h_toughness_triples_are_pinned(params, expected):
    g = build_extremal_H(*params).graph
    rep = isolated_toughness(g)
    assert (rep.value, rep.witness, rep.isolated_at_witness) == expected
    assert rep.verify(g)


# -- witness tie rule -----------------------------------------------------------


def sorted_tuple(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_tie_rule_matches_tuple_order_on_all_8_bit_masks():
    tuples = [sorted_tuple(m) for m in range(1 << 8)]
    for a in range(1 << 8):
        for b in range(1 << 8):
            if a != b:
                assert _sorted_before(a, b) == (tuples[a] < tuples[b]), (a, b)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, (1 << 62) - 1),
    st.integers(0, (1 << 62) - 1),
    st.integers(0, 62),
)
@example(0b1011, 0b11, 2)  # b's tuple is a prefix of a's
@example(0, 1 << 61, 0)
def test_tie_rule_matches_tuple_order_on_62_bit_masks(a, high, shared):
    # b keeps a's lowest ``shared`` bits, so long common prefixes are drawn
    low = (1 << shared) - 1
    b = a & low | high & ~low
    if a != b:
        assert _sorted_before(a, b) == (sorted_tuple(a) < sorted_tuple(b))
        assert _sorted_before(b, a) == (sorted_tuple(b) < sorted_tuple(a))


# -- thresholds -----------------------------------------------------------------


@pytest.mark.parametrize(
    "name, kwargs, expected",
    [
        ("A", dict(a=2, b=3, n=1), Fraction(7, 3)),
        ("B", dict(m=2, n=1), Fraction(1)),
        ("C", dict(a=2, b=3, n=1), Fraction(2)),
        ("theorem3", dict(a=2, b=3), Fraction(5, 3)),
        ("D1", dict(a=2, b=3, n=1, k=3), Fraction(7, 3)),
        ("D1", dict(a=2, b=3, n=1, k=2), Fraction(2)),
    ],
)
def test_threshold_values(name, kwargs, expected):
    assert threshold(name, **kwargs) == expected


def test_threshold_d1_specialises_to_a_and_c():
    # k=b reproduces the vertex-deletion inner bound, k=2 the matching one.
    for a, b, n in [(2, 3, 1), (2, 4, 2), (3, 4, 1)]:
        assert threshold("D1", a=a, b=b, n=n, k=b) == threshold("A", a=a, b=b, n=n)
        assert threshold("D1", a=a, b=b, n=n, k=2) == threshold("C", a=a, b=b, n=n)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("B", dict(m=3, n=2)),  # 2n > m
        ("B", dict(m=2, n=0)),
        ("A", dict(a=3, b=3, n=1)),
        ("A", dict(a=2, b=3, n=0)),
        ("D1", dict(a=2, b=3, n=1, k=1)),
        ("D1", dict(a=2, b=3, n=1, k=4)),
        ("nope", dict(a=1, b=2, n=1)),
    ],
)
def test_threshold_rejects_bad_parameters(name, kwargs):
    with pytest.raises(ValueError):
        threshold(name, **kwargs)
