"""Factor engine: deficiency, criteria, factor builders, oracles, star
factors, and the independent-set/cover pair search."""

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
    delete_vertices,
    disjoint_union,
    generate_random,
    parse_graph6,
    path_graph,
    star_graph,
)
from factorbench.factors import (
    DegreeBounds,
    FactorCertificate,
    FactorViolation,
    Star,
    StarForest,
    _peel_stars,
    brute_force_factor,
    check_ab_factor,
    check_gf_factor,
    check_star_factor,
    deficient_sets,
    delta,
    find_ab_factor,
    find_katerinis_pair,
    find_star_factor,
    low_set,
    scan_deficiency,
)
from factorbench.flow import ab_factor, ab_factor_exists, min_cut_set


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def star_partition_exists(g, m):
    """Independent oracle: exhaustive search over partitions of V into
    stars with 1..m leaves whose edges lie in g."""
    unassigned = set(range(g.n))

    def rec():
        if not unassigned:
            return True
        v = min(unassigned)
        unassigned.discard(v)
        free = [w for w in g.neighbors(v) if w in unassigned]
        # v as a centre with any nonempty leaf set
        for size in range(1, m + 1):
            for leaves in combinations(free, size):
                unassigned.difference_update(leaves)
                if rec():
                    return True
                unassigned.update(leaves)
        # v as a leaf of some unassigned neighbour c
        for c in free:
            unassigned.discard(c)
            others = [w for w in g.neighbors(c) if w in unassigned]
            for extra in range(0, m):
                for more in combinations(others, extra):
                    unassigned.difference_update(more)
                    if rec():
                        return True
                    unassigned.update(more)
            unassigned.add(c)
        unassigned.add(v)
        return False

    return rec()


# -- low_set and delta ----------------------------------------------------------


def test_low_set_on_c4():
    assert low_set(cycle_graph(4), [0], 2) == (1, 3)
    assert low_set(complete_graph(4), [], 2) == ()
    assert low_set(star_graph(3), [0], 1) == (1, 2, 3)  # a=1: isolates


def test_delta_examples():
    c4 = cycle_graph(4)
    assert delta(c4, [], 2, 3) == 0
    assert delta(c4, [0], 2, 3) == 3 * 1 - 2 * 2 + 2 == 1


def test_delta_on_extremal_h_minus_v0():
    w = build_extremal_H(2, 2, 3, 1)
    res = delete_vertices(w.graph, w.default_v0())
    index = {old: new for new, old in enumerate(res.original_labels)}
    s = [index[v] for v in w.clique_small]
    t = low_set(res.graph, s, 2)
    assert len(t) == len(w.isolated_row)
    assert delta(res.graph, s, 2, 3) == 6 - 14 + 7 == -1


# -- criterion checker ------------------------------------------------------------


def test_check_ab_factor_c4_and_p4():
    assert check_ab_factor(cycle_graph(4), 1, 2).exists
    cert = check_ab_factor(path_graph(4), 2, 3)
    assert not cert.exists
    assert cert.violation.s == ()
    assert cert.violation.t == (0, 3)
    assert cert.violation.delta == -2
    assert cert.verify(path_graph(4), 2, 3)


def test_check_ab_factor_rejects_a_equals_b():
    with pytest.raises(ValueError, match="a < b"):
        check_ab_factor(cycle_graph(4), 2, 2)


def test_check_ab_factor_cap():
    # no cap is left: the empty 20-vertex graph is refused with the cut's
    # certificate, and cap_n is no longer a parameter
    cert = check_ab_factor(Graph(20), 1, 2)
    assert not cert.exists
    assert cert.violation.s == () and cert.violation.t == tuple(range(20))
    assert cert.violation.delta == -20
    assert cert.verify(Graph(20), 1, 2)
    with pytest.raises(TypeError, match="cap_n"):
        check_ab_factor(Graph(20), 1, 2, cap_n=16)


def test_cap_bounds_only_the_refusal_scan():
    # the refusal scan is gone, so the flow or the blossom search answers
    # both ways at any order, and none of the three checks takes cap_n
    assert check_ab_factor(complete_graph(20), 1, 2).exists
    for m in (1, 2):
        assert check_star_factor(complete_graph(20), m).exists
        res = check_star_factor(Graph(20), m)
        assert not res.exists and res.witness == ()
        with pytest.raises(TypeError, match="cap_n"):
            check_star_factor(Graph(20), m, cap_n=16)
    lower, upper = [1] * 10 + [2] * 10, [2] * 10 + [3] * 10
    assert check_gf_factor(complete_graph(20), lower, upper).exists
    cert = check_gf_factor(Graph(20), lower, upper)
    assert not cert.exists
    assert cert.violation.s == () and cert.violation.delta == -30
    with pytest.raises(TypeError, match="cap_n"):
        check_gf_factor(Graph(20), lower, upper, cap_n=16)


def test_factor_checks_answer_beyond_sixteen_vertices():
    # the refusal certificates come from the deciding route, so no order
    # is too large to certify: K_{1,19} and G(40, 3/10, seed 11)
    claw = star_graph(19)
    for cert in (check_ab_factor(claw, 1, 2), find_ab_factor(claw, 1, 2)):
        assert not cert.exists
        assert cert.violation.s == (0,) and cert.violation.delta == -17
        assert cert.verify(claw, 1, 2)
    cert = check_gf_factor(claw, [1] * 20, [2] * 20)
    assert cert.violation.s == (0,) and cert.violation.delta == -17
    for m in (1, 2):
        res = check_star_factor(claw, m)
        assert not res.exists and res.witness == (0,)
    assert check_star_factor(claw, 1).odd_components == 19
    assert check_star_factor(claw, 2).isolated == 19
    assert check_star_factor(claw, 19).exists
    g = generate_random(40, Fraction(3, 10), 11)
    assert check_ab_factor(g, 2, 3).exists and check_star_factor(g, 1).exists
    lower, upper = [1] * 20 + [2] * 20, [2] * 20 + [3] * 20
    assert check_gf_factor(g, lower, upper).exists
    cert = check_gf_factor(Graph(40), lower, upper)
    assert not cert.exists
    assert cert.violation.s == () and cert.violation.delta == -60


def test_flow_refusal_without_violation_is_a_route_disagreement(monkeypatch):
    import factorbench.factors as factors

    # a cut, or a barrier, at which nothing is deficient
    monkeypatch.setattr(factors, "min_cut_set", lambda g, lower, upper: ())
    with pytest.raises(RuntimeError, match="disagree"):
        check_ab_factor(cycle_graph(4), 1, 2)
    with pytest.raises(RuntimeError, match="disagree"):
        check_star_factor(cycle_graph(4), 2)
    with pytest.raises(RuntimeError, match="disagree"):
        check_gf_factor(cycle_graph(4), [1, 0, 1, 2], [2, 1, 2, 2])
    monkeypatch.setattr(factors, "ab_factor", lambda g, a, b: (None, (0, 2)))
    with pytest.raises(RuntimeError, match="disagree"):
        find_ab_factor(cycle_graph(4), 1, 2)
    monkeypatch.setattr(factors, "perfect_matching", lambda nbrs: (None, (0, 2)))
    with pytest.raises(RuntimeError, match="disagree"):
        check_star_factor(cycle_graph(4), 1)


def test_flow_decision_rejects_bad_bounds():
    for a, b in [(2, 2), (3, 2), (-1, 1)]:
        with pytest.raises(ValueError, match="0 <= a < b"):
            ab_factor_exists(cycle_graph(4), a, b)
        with pytest.raises(ValueError, match="0 <= a < b"):
            ab_factor(cycle_graph(4), a, b)


@st.composite
def small_graph_and_bounds(draw):
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    a = draw(st.integers(0, 4))
    b = draw(st.integers(a + 1, 5))
    return Graph(n, edges), a, b


@settings(max_examples=300, deadline=None)
@given(small_graph_and_bounds())
def test_flow_decision_matches_oracle_and_scan(case):
    g, a, b = case
    expected = brute_force_factor(g, a, b)
    assert ab_factor_exists(g, a, b) == expected
    assert (scan_deficiency(g, a, b) is None) == expected


@settings(max_examples=300, deadline=None)
@given(small_graph_and_bounds())
# the flow leaves an odd closed trail of half edges: rounding it down at
# its start undershoots a on the triangle, and up overshoots b on the paw
@example((complete_graph(3), 1, 2))
@example((Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), 1, 2))
def test_flow_factor_matches_decision_and_oracle(case):
    g, a, b = case
    factor, s = ab_factor(g, a, b)
    assert (factor is not None) == ab_factor_exists(g, a, b) == brute_force_factor(g, a, b)
    assert (s is None) == (factor is not None)
    if factor is not None:
        assert FactorCertificate(True, factor_edges=factor).verify(g, a, b)
        assert list(factor) == sorted(set(factor))


def gf_factor_by_edge_subsets(g, lower, upper):
    """Independent oracle: some edge subset has every degree in its bounds."""
    for mask in range(1 << g.edge_count):
        deg = [0] * g.n
        for i, (u, v) in enumerate(g.edges):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if all(lo <= d <= hi for lo, d, hi in zip(lower, deg, upper)):
            return True
    return False


@st.composite
def small_graph_and_gf_bounds(draw):
    """g < f everywhere on any graph, or g <= f on a bipartite one."""
    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    bipartite = draw(st.booleans())
    side = [draw(st.booleans()) for _ in range(n)]
    edges = [
        (u, v) for u, v in pairs
        if (side[u] != side[v] or not bipartite) and draw(st.booleans())
    ]
    lower = [draw(st.integers(0, 3)) for _ in range(n)]
    upper = [lo + draw(st.integers(0 if bipartite else 1, 2)) for lo in lower]
    return Graph(n, edges), lower, upper


@settings(max_examples=300, deadline=None)
@given(small_graph_and_gf_bounds())
def test_gf_flow_matches_kernel_and_edge_subsets(case):
    g, lower, upper = case
    expected = gf_factor_by_edge_subsets(g, lower, upper)
    assert (min_cut_set(g, lower, upper) is None) == expected
    bounds = DegreeBounds(tuple(lower), tuple(upper))
    assert (next(deficient_sets(g, bounds), None) is None) == expected
    cert = check_gf_factor(g, lower, upper)
    assert cert.exists == expected
    if not expected:
        s, t, d, _ = cert.violation
        rest = {x: len(set(g.neighbors(x)) - set(s)) for x in range(g.n) if x not in s}
        assert t == tuple(x for x in rest if rest[x] < lower[x])
        assert d == sum(upper[x] for x in s) + sum(rest[x] - lower[x] for x in t) < 0


def test_extremal_h_minus_v0_violates_at_small_clique():
    # the nine criterion-3 graphs, up to 57 vertices after deleting V0: the
    # flow's own cut is the small clique, with no witness given
    for a, b, n in [(2, 3, 1), (2, 4, 2), (3, 4, 1)]:
        for m in (1, 2, 3):
            w = build_extremal_H(m, a, b, n)
            res = delete_vertices(w.graph, w.default_v0())
            cert = check_ab_factor(res.graph, a, b)
            assert not cert.exists and cert.verify(res.graph, a, b)
            index = {old: new for new, old in enumerate(res.original_labels)}
            small = tuple(sorted(index[v] for v in w.clique_small))
            assert cert.violation.s == small
            assert cert.violation.delta == -(a - 1)


def test_check_gf_factor_specialises_to_ab():
    for seed in range(25):
        g = generate_random(6, Fraction(1, 2), seed)
        for a, b in [(1, 2), (2, 3)]:
            lhs = check_gf_factor(g, lambda v: a, lambda v: b)
            rhs = check_ab_factor(g, a, b)
            assert lhs.exists == rhs.exists
            assert lhs.violation == rhs.violation
            assert lhs.verify(g, a, b)


def test_check_gf_factor_bipartite_perfect_matching():
    assert check_gf_factor(cycle_graph(6), lambda v: 1, lambda v: 1).exists
    cert = check_gf_factor(path_graph(3), [1, 1, 1], [1, 1, 1])
    assert not cert.exists  # odd path has no perfect matching


def test_check_gf_factor_refuses_tight_nonbipartite():
    with pytest.raises(ValueError, match="bipartite"):
        check_gf_factor(complete_graph(3), lambda v: 1, lambda v: 1)


def test_check_gf_factor_validates_vectors():
    with pytest.raises(ValueError):
        check_gf_factor(path_graph(2), [1], [2, 2])
    with pytest.raises(ValueError):
        check_gf_factor(path_graph(2), [-1, 0], [1, 1])


# -- route certificates at any order -------------------------------------------------


@st.composite
def graph_up_to_40(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                              Fraction(1, 2), Fraction(4, 5)]))
    return generate_random(n, p, draw(st.integers(0, 2**32 - 1)))


def recount(g, lower, upper, s):
    """T and the deficiency at S, counted from the neighbour lists."""
    rest = {x: len(set(g.neighbors(x)) - set(s)) for x in range(g.n) if x not in s}
    t = tuple(x for x in rest if rest[x] < lower[x])
    return t, sum(upper[x] for x in s) + sum(rest[x] - lower[x] for x in t)


def assert_route_certificate(g, lower, upper, cert):
    bounds = DegreeBounds(tuple(lower), tuple(upper))
    if g.n <= 10:
        assert (next(deficient_sets(g, bounds), None) is None) == cert.exists
    if cert.exists:
        return
    s, t, d, bound = cert.violation
    assert list(s) == sorted(set(s)) and all(0 <= x < g.n for x in s)
    assert (t, d) == recount(g, lower, upper, s) and d < bound == 0


@settings(max_examples=150, deadline=None)
@given(graph_up_to_40(), st.data())
def test_uniform_refusals_carry_the_cut_certificate(g, data):
    a = data.draw(st.integers(0, 4))
    b = data.draw(st.integers(a + 1, 5))
    cert = check_ab_factor(g, a, b)
    assert_route_certificate(g, [a] * g.n, [b] * g.n, cert)
    assert cert.exists or cert.verify(g, a, b)
    assert find_ab_factor(g, a, b).exists == cert.exists


@settings(max_examples=150, deadline=None)
@given(graph_up_to_40(), st.data())
def test_per_vertex_refusals_carry_the_cut_certificate(g, data):
    lower = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n))
    upper = [lo + data.draw(st.integers(1, 2)) for lo in lower]
    assert_route_certificate(g, lower, upper, check_gf_factor(g, lower, upper))


def odd_components_of(g, s):
    """Odd components of G - S, by search over the neighbour lists."""
    seen = set(s)
    odd = 0
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            x = stack.pop()
            size += 1
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        odd += size % 2
    return odd


@settings(max_examples=200, deadline=None)
@given(graph_up_to_40())
def test_perfect_matching_refusals_carry_a_tutte_set(g):
    res = check_star_factor(g, 1)
    if g.edge_count <= 25:
        assert res.exists == brute_force_factor(g, 1, 1)
    if not res.exists:
        s = res.witness
        assert list(s) == sorted(set(s))
        assert res.odd_components == odd_components_of(g, s) > len(s)


# -- constructive finder ------------------------------------------------------------


def test_find_ab_factor_perfect_matching_in_k4():
    cert = find_ab_factor(complete_graph(4), 1, 1)
    assert cert.exists
    assert brute_force_factor(complete_graph(4), 1, 1)
    degs = [0] * 4
    for u, v in cert.factor_edges:
        degs[u] += 1
        degs[v] += 1
    assert degs == [1, 1, 1, 1]


def test_find_ab_factor_odd_cycle_has_no_perfect_matching():
    cert = find_ab_factor(cycle_graph(5), 1, 1)
    assert not cert.exists
    assert cert.violation is None  # a = b admits no single-set certificate


def test_find_ab_factor_c4_as_its_own_2_factor():
    cert = find_ab_factor(cycle_graph(4), 2, 2)
    assert cert.exists
    assert cert.factor_edges == cycle_graph(4).edges


def test_find_ab_factor_degenerate_inputs():
    assert find_ab_factor(Graph(3), 0, 2).factor_edges == ()
    cert = find_ab_factor(Graph(3), 1, 2)
    assert not cert.exists
    assert cert.violation.delta == -2 * 3 + 2 * 0 - 0 + 0 or cert.violation.delta < 0
    assert find_ab_factor(Graph(0), 1, 2).exists


def test_find_ab_factor_nonexistence_carries_criterion_certificate():
    cert = find_ab_factor(path_graph(4), 2, 3)
    assert not cert.exists
    assert cert.violation == check_ab_factor(path_graph(4), 2, 3).violation


# the Petersen graph, and a cubic graph on 16 vertices whose bridge
# separates two odd sides, so it has no perfect matching and so no 2-factor
PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
BRIDGED_CUBIC = parse_graph6("OiK{?CA?WBo??@?@??W?F")


@pytest.mark.parametrize(
    "g, k, exists",
    [
        (complete_graph(9), 3, False),
        (complete_graph(11), 3, False),
        (complete_graph(13), 5, False),
        (PETERSEN, 1, True),
        (PETERSEN, 2, True),
        (PETERSEN, 3, True),
        (BRIDGED_CUBIC, 1, False),
        (BRIDGED_CUBIC, 2, False),
        (BRIDGED_CUBIC, 3, True),
    ],
    ids=["K9-3", "K11-3", "K13-5", "Petersen-1", "Petersen-2", "Petersen-3",
         "bridged-1", "bridged-2", "bridged-3"],
)
def test_k_factor_pinned_cases(g, k, exists):
    # an odd n with odd k has no k-factor at all, which no degree count
    # short of parity sees; blossom matching decides it at once
    cert = find_ab_factor(g, k, k)
    assert cert.exists == exists
    if exists:
        assert cert.verify(g, k, k)
    else:
        assert cert.violation is None


def test_verify_rejects_a_repeated_edge():
    k2 = path_graph(2)
    for edges in (((0, 1), (0, 1)), ((0, 1), (1, 0))):
        assert not FactorCertificate(True, factor_edges=edges).verify(k2, 2, 2)
    assert not find_ab_factor(k2, 2, 2).exists


def test_verify_accepts_a_bare_negative_only_for_a_equals_b():
    # every a < b refusal carries its cut's S; only a = b refuses bare
    bare = FactorCertificate(False)
    assert not bare.verify(cycle_graph(4), 1, 2)
    assert bare.verify(cycle_graph(4), 2, 2)
    assert find_ab_factor(path_graph(3), 2, 3).violation is not None
    assert find_ab_factor(complete_graph(9), 3, 3).verify(complete_graph(9), 3, 3)


@pytest.mark.parametrize("edge", [(9, 0), (0, 9), (-1, 0), (0, -1), (4, 4)])
def test_verify_rejects_a_factor_edge_outside_the_graph(edge):
    cert = FactorCertificate(True, factor_edges=((0, 1), (2, 3), edge))
    assert not cert.verify(complete_graph(4), 1, 3)


@pytest.mark.parametrize("s", [(-1,), (9,), (0, 4)])
def test_verify_rejects_a_set_outside_the_graph(s):
    cert = FactorCertificate(False, violation=FactorViolation(s, (), -1, 0))
    assert not cert.verify(complete_graph(4), 2, 3)


@st.composite
def small_graph_and_ab_with_equal(draw):
    n = draw(st.integers(0, 8))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    a = draw(st.integers(0, 3))
    return Graph(n, edges), a, draw(st.integers(a, 4))


@settings(max_examples=300, deadline=None)
@given(small_graph_and_ab_with_equal(), st.data())
def test_built_factors_verify_and_tampered_ones_do_not(case, data):
    g, a, b = case
    cert = find_ab_factor(g, a, b)
    if not cert.exists:
        return
    edges = cert.factor_edges
    assert cert.verify(g, a, b)
    if edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        u, v = edges[i]
        for repeat in ((u, v), (v, u)):
            tampered = FactorCertificate(True, factor_edges=edges + (repeat,))
            assert not tampered.verify(g, a, b)
        # dropping uv fails exactly when an end sits at the lower bound a
        deg = [sum(x in e for e in edges) for x in (u, v)]
        dropped = FactorCertificate(True, factor_edges=edges[:i] + edges[i + 1:])
        assert dropped.verify(g, a, b) == (min(deg) > a)
    non_edges = [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)]
    if non_edges:
        extra = data.draw(st.sampled_from(non_edges))
        assert not FactorCertificate(True, factor_edges=edges + (extra,)).verify(g, a, b)
    x = data.draw(st.sampled_from([-1, g.n, g.n + 5]))
    y = data.draw(st.integers(0, max(g.n - 1, 0)))
    outside = data.draw(st.sampled_from([(x, y), (y, x)]))
    assert not FactorCertificate(True, factor_edges=edges + (outside,)).verify(g, a, b)


def test_brute_force_edge_cap():
    with pytest.raises(CapExceeded):
        brute_force_factor(complete_graph(9), 1, 2, max_edges=25)


def test_brute_force_tiny_cases():
    assert brute_force_factor(Graph(2, [(0, 1)]), 1, 1)
    assert not brute_force_factor(Graph(3), 1, 2)
    assert brute_force_factor(Graph(3), 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ab", [(1, 2), (1, 3), (2, 3)])
def test_oracle_triangle_small(n, ab):
    a, b = ab
    for g in all_graphs(n):
        expected = brute_force_factor(g, a, b)
        assert check_ab_factor(g, a, b).exists == expected
        found = find_ab_factor(g, a, b)
        assert found.exists == expected
        if found.exists:
            assert found.verify(g, a, b)


@st.composite
def graph_upto_8_and_k(draw):
    n = draw(st.integers(0, 8))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    return Graph(n, edges), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(graph_upto_8_and_k())
def test_oracle_triangle_random_k_factor(case):
    # a = b is decided by blossom matching, on G itself for k = 1 and on
    # Tutte's gadget for k >= 2
    g, k = case
    cert = find_ab_factor(g, k, k)
    assert cert.exists == brute_force_factor(g, k, k, max_edges=28)
    if cert.exists:
        assert cert.verify(g, k, k)


# -- the T versus T' identity -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 3),
    st.data(),
)
def test_deficiency_identity_with_enlarged_t(seed, a, gap, data):
    # counting vertices of degree exactly a adds a|T''| - d(T'') = 0
    g = generate_random(7, Fraction(1, 2), seed)
    b = a + gap
    s = data.draw(st.sets(st.integers(0, 6), max_size=7))
    keep = [v for v in range(7) if v not in s]
    deg = {
        v: sum(1 for w in g.neighbors(v) if w in keep) for v in keep
    }
    t_prime = [v for v in keep if deg[v] <= a]
    alt = b * len(s) - a * len(t_prime) + sum(deg[v] for v in t_prime)
    assert delta(g, sorted(s), a, b) == alt


# -- star factors -------------------------------------------------------------------


def test_check_star_factor_claw():
    assert check_star_factor(star_graph(3), 3).exists
    res = check_star_factor(star_graph(3), 2)
    assert not res.exists
    assert res.witness == (0,)
    assert res.isolated == 3


def test_check_star_factor_isolated_vertex_fails_at_empty_set():
    g = disjoint_union(Graph(2, [(0, 1)]), Graph(1))
    res = check_star_factor(g, 2)
    assert not res.exists
    assert res.witness == ()


def test_check_star_factor_single_edge_stars_use_matching_criterion():
    # a triangle passes the isolated-vertex inequality yet has no
    # perfect matching; the m = 1 branch must refuse it
    res = check_star_factor(complete_graph(3), 1)
    assert not res.exists
    assert res.odd_components == 1 and res.witness == ()
    assert check_star_factor(complete_graph(4), 1).exists


def test_find_star_factor_examples():
    forest = find_star_factor(path_graph(4), 2)
    assert forest is not None
    forest.validate(path_graph(4), 2)

    claw = find_star_factor(star_graph(3), 3)
    assert claw is not None and len(claw.stars) == 1
    assert claw.stars[0].center == 0

    two_k2 = disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))
    forest = find_star_factor(two_k2, 1)
    assert forest is not None and len(forest.stars) == 2
    forest.validate(two_k2, 1)


def test_star_forest_with_an_absent_vertex_is_refused():
    with pytest.raises(ValueError, match=r"\(9, 0\) is not an edge"):
        StarForest((Star(9, (0,)),)).validate(complete_graph(3), 2)


def test_peel_drops_an_edge_between_two_centres():
    # P5 as its own [1,2]-factor: (1, 2) is the one edge whose ends both
    # have degree 2, so pruning it leaves 0-1 and the cherry 2-3-4
    p5 = path_graph(5)
    forest = _peel_stars(p5, p5.edges, 2)
    assert forest.stars == (Star(0, (1,)), Star(3, (2, 4)))


@st.composite
def small_graph_and_m(draw):
    n = draw(st.integers(0, 12))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    return Graph(n, edges), draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(small_graph_and_m())
def test_peel_prunes_the_factor_into_a_star_forest(case):
    g, m = case
    cert = find_ab_factor(g, 1, m)
    if not cert.exists:
        return
    forest = _peel_stars(g, cert.factor_edges, m)
    forest.validate(g, m)
    factor = set(cert.factor_edges)
    for center, leaves in forest.stars:
        for leaf in leaves:
            assert (min(center, leaf), max(center, leaf)) in factor


def test_find_star_factor_none_when_impossible():
    assert find_star_factor(complete_graph(3), 1) is None
    assert find_star_factor(disjoint_union(Graph(1), Graph(2, [(0, 1)])), 2) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_star_routes_agree_with_partition_oracle(n, m):
    for g in all_graphs(n):
        expected = star_partition_exists(g, m)
        assert check_star_factor(g, m).exists == expected
        forest = find_star_factor(g, m)
        assert (forest is not None) == expected
        assert find_ab_factor(g, 1, m).exists == expected
        if forest is not None:
            forest.validate(g, m)


# -- Katerinis pairs -----------------------------------------------------------------


def test_katerinis_pair_on_p3():
    p3 = path_graph(3)
    pair = find_katerinis_pair(p3, [[0, 2], [1]], 3)
    assert pair.independent == (0, 2)
    assert pair.cover == (1,)
    # left = (3-2)*1 = 1 <= right = 1*2*2 = 4
    assert pair.c_counts == (0, 1) and pair.i_counts == (2, 0)


def test_katerinis_pair_edgeless_class():
    pair = find_katerinis_pair(Graph(3), [Graph(3).neighbors(0) or [0, 1, 2]], 2)
    assert pair.independent == (0, 1, 2)
    assert pair.cover == ()


def test_katerinis_pair_k2_in_second_class():
    pair = find_katerinis_pair(Graph(2, [(0, 1)]), [[], [0, 1]], 3)
    assert pair.independent in ((0,), (1,))
    assert len(pair.cover) == 1


def test_katerinis_pair_validates_partition():
    with pytest.raises(ValueError, match="vertex 1"):
        find_katerinis_pair(path_graph(3), [[0, 2], []], 3)  # 1 uncovered
    with pytest.raises(ValueError, match="degree 2"):
        find_katerinis_pair(path_graph(3), [[0, 1, 2], []], 3)  # middle in S_1
    with pytest.raises(ValueError, match="two classes"):
        find_katerinis_pair(path_graph(3), [[0, 2], [0, 1]], 3)


def test_katerinis_pair_exhaustive_small():
    # every valid degree-ceiling partition admits a satisfying pair
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            for a in (3, 4):
                if g.n and max(g.degrees()) > a - 1:
                    continue
                classes = [[] for _ in range(a - 1)]
                for v in range(g.n):
                    classes[max(g.degree(v), 1) - 1].append(v)
                pair = find_katerinis_pair(g, classes, a)
                assert set(pair.independent) | set(pair.cover) == set(range(g.n))
                assert not set(pair.independent) & set(pair.cover)


@st.composite
def graph_and_degree_ceiling_partition(draw):
    """A graph of maximum degree at most a - 1 on up to 30 vertices, and a
    random partition S_1..S_{a-1} with max(d(v), 1) <= j <= a - 1 on S_j."""
    a = draw(st.integers(2, 6))
    n = draw(st.integers(0, 30))
    pairs = list(combinations(range(n), 2))
    deg = [0] * n
    edges = []
    candidates = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for u, v in candidates:
        if deg[u] < a - 1 and deg[v] < a - 1:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    classes = [[] for _ in range(a - 1)]
    for v in range(n):
        classes[draw(st.integers(max(deg[v], 1), a - 1)) - 1].append(v)
    return Graph(n, edges), classes, a


@settings(max_examples=300, deadline=None)
@given(graph_and_degree_ceiling_partition())
def test_katerinis_pair_greedy_on_larger_graphs(case):
    g, classes, a = case
    pair = find_katerinis_pair(g, classes, a)
    iset = set(pair.independent)
    assert sorted(pair.independent + pair.cover) == list(range(g.n))
    assert not any(set(g.neighbors(u)) & iset for u in iset)  # independent
    assert all(set(g.neighbors(u)) & iset for u in pair.cover)  # maximal
    cls = {v: j for j, part in enumerate(classes, start=1) for v in part}
    for j in range(1, a):
        assert pair.i_counts[j - 1] == sum(cls[v] == j for v in iset)
        assert pair.c_counts[j - 1] == sum(cls[v] == j for v in pair.cover)
    lhs = sum((a - j) * c for j, c in enumerate(pair.c_counts, start=1))
    rhs = sum(j * (a - j) * i for j, i in enumerate(pair.i_counts, start=1))
    assert lhs <= rhs


# -- certificate serialisation ---------------------------------------------------------


def test_certificate_json_shapes():
    cert = check_ab_factor(path_graph(4), 2, 3)
    d = cert.to_json_dict()
    assert d == {"verdict": "none", "S": [], "T": [0, 3], "delta": -2}
    found = find_ab_factor(cycle_graph(4), 2, 2)
    assert found.to_json_dict()["factorEdges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
