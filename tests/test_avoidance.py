"""Avoidance checks: premises, dual routes, certificates, and the
sharpness construction."""

import ast
import inspect
import json
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorbench import (
    GRAPH6_MAX_N,
    CapExceeded,
    DeletionSpec,
    Graph,
    build_extremal_H,
    complete_graph,
    cycle_graph,
    delete,
    delete_vertices,
    emit_graph6,
    generate_random,
    path_graph,
    star_graph,
)
from factorbench import avoidance, cli, factors, matching
from factorbench.avoidance import (
    Premise,
    check_edge_avoiding,
    check_edge_deletion_star,
    check_lemma_D1,
    check_matching_deletion,
    check_theorem_D,
    check_theorem_E,
    check_vertex_deletion_all,
    enumerate_matchings,
    extremal_sharpness,
    rho,
    theorem_premises,
)
from factorbench.factors import (
    FactorCertificate,
    FactorViolation,
    brute_force_factor,
    check_star_factor,
    delta,
    find_ab_factor,
    find_star_factor,
    low_set,
    scan_deficiency,
)
from factorbench.graphs import extremal_order
from factorbench.toughness import threshold
from oracles import first_rho_violation


def local_certificate(g, ce):
    """The deleted graph of a vertex-deletion counterexample, and its
    certificate relabelled from G to that graph."""
    res = delete_vertices(g, ce.deletion.members)
    index = {old: new for new, old in enumerate(res.original_labels)}
    s, t, d, bound = ce.certificate.violation
    local = FactorViolation(tuple(index[x] for x in s), tuple(index[x] for x in t), d, bound)
    return res.graph, FactorCertificate(False, violation=local)


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# -- vertex deletion --------------------------------------------------------------


def test_vertex_deletion_k6_holds():
    verdict = check_vertex_deletion_all(complete_graph(6), 2, 3, 1)
    assert verdict.conclusion_holds
    assert verdict.outcome == "verified"
    assert verdict.premises_hold


def test_vertex_deletion_c5_12_holds():
    # C5 - v is a path with degrees in [1, 2]
    verdict = check_vertex_deletion_all(cycle_graph(5), 1, 2, 1)
    assert verdict.conclusion_holds


def test_vertex_deletion_counterexample_re_verifies():
    # C6 - v is P5, whose endpoints block a [2,3]-factor
    g = cycle_graph(6)
    verdict = check_vertex_deletion_all(g, 2, 3, 1)
    assert not verdict.conclusion_holds
    g_del, cert = local_certificate(g, verdict.counterexample)
    assert cert.verify(g_del, 2, 3)


def test_vertex_deletion_routes_and_caps():
    with pytest.raises(CapExceeded):
        check_vertex_deletion_all(complete_graph(6), 2, 3, 1, cap_deletions=3)
    # no subset is scanned, so full mode answers above 12 vertices: the
    # empty graph minus vertex 0 is refused at S = {}, where its 13
    # vertices are all low
    verdict = check_vertex_deletion_all(Graph(14), 1, 2, 1)
    assert not verdict.conclusion_holds and verdict.witnesses == ()
    ce = verdict.counterexample
    assert ce.deletion.members == (0,)
    assert ce.certificate.violation == FactorViolation((), tuple(range(1, 14)), -13, 0)
    g_del, cert = local_certificate(Graph(14), ce)
    assert cert.verify(g_del, 1, 2)
    # and takes no vertex cap
    with pytest.raises(TypeError, match="cap_n"):
        check_vertex_deletion_all(Graph(14), 1, 2, 1, cap_n=16)


def test_vertex_deletion_validates_parameters():
    with pytest.raises(ValueError):
        check_vertex_deletion_all(complete_graph(5), 2, 2, 1)
    with pytest.raises(ValueError):
        check_vertex_deletion_all(complete_graph(5), 1, 2, 0)


# every H(m,a,b,n) with a >= 2 that graph6's short form can carry; its
# (mb+1)(a+n) vertices outside the small clique bound each parameter by 20
SHARPNESS_QUADS = [
    (m, a, b, n)
    for m, a, b, n in product(range(1, 21), range(2, 21), range(3, 21), range(1, 21))
    if a < b and extremal_order(m, a, b, n) <= GRAPH6_MAX_N
]


def test_sharpness_h_fails_with_papers_deletion_and_witness():
    assert len(SHARPNESS_QUADS) == 166
    w = build_extremal_H(1, 2, 3, 1)
    assert w.witness_ratio == Fraction(9, 4) < threshold("A", a=2, b=3, n=1)
    for m, a, b, n in SHARPNESS_QUADS:
        w, thr, refutation = extremal_sharpness(m, a, b, n)
        assert thr == threshold("A", a=a, b=b, n=n)
        assert refutation.deletion == DeletionSpec.vertices(w.default_v0())
        cert = refutation.certificate.violation
        quad = (m, a, b, n)
        assert (cert.s, cert.t, cert.delta) == (w.clique_small, w.isolated_row, 1 - a), quad
        g_del, local = local_certificate(w.graph, refutation)
        assert local.verify(g_del, a, b), quad


def test_targeted_mode_on_positive_instance():
    # a = 1 leaves the small clique empty; H(1,1,2,2) - V0 has a [1,2]-factor
    w, _, refutation = extremal_sharpness(1, 1, 2, 2)
    assert w.clique_small == () and refutation is None


def test_targeted_mode_needs_no_search_budget(monkeypatch):
    # the largest criterion-3 instance: the witness refutes and the flow
    # confirms, where no constructive search runs
    def no_search(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("extremal_sharpness ran the constructive search")

    monkeypatch.setattr(avoidance, "find_ab_factor", no_search)
    w, _, refutation = extremal_sharpness(3, 3, 4, 1)
    assert refutation.certificate.violation.s == w.clique_small


def test_extremal_sharpness_lifts_a_refusal_no_witness_explains(monkeypatch):
    # with the witness's deficiency hidden, the flow's own S certifies
    monkeypatch.setattr(avoidance, "delta", lambda g, s, a, b: b)  # b*n at n = 1
    w, _, refutation = extremal_sharpness(1, 2, 3, 1)
    g_del, local = local_certificate(w.graph, refutation)
    assert local.verify(g_del, 2, 3)
    assert refutation.deletion.members == w.default_v0()


def test_targeted_mode_witness_against_flow_raises(monkeypatch):
    monkeypatch.setattr(avoidance, "check_ab_factor", lambda g, a, b: FactorCertificate(True))
    with pytest.raises(RuntimeError, match="witness claims a violation"):
        avoidance.extremal_sharpness(1, 2, 3, 1)


def test_extremal_sharpness_refuses_a_quad_without_v0(monkeypatch):
    def no_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("H was built for a quad without V0")

    monkeypatch.setattr(avoidance, "build_extremal_H", no_work)
    with pytest.raises(ValueError, match=r"H\(2,1,3,1\) has no deletion V0"):
        extremal_sharpness(2, 1, 3, 1)


def test_verdict_invariant_survives_optimised_mode():
    import os
    import subprocess
    import sys

    import factorbench

    src = os.path.dirname(os.path.dirname(factorbench.__file__))
    code = (
        "from factorbench.avoidance import AvoidanceVerdict\n"
        "AvoidanceVerdict('A', {}, (), False, None)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr


# -- edge deletion / star factors ---------------------------------------------------


def test_edge_deletion_star_c4():
    verdict = check_edge_deletion_star(cycle_graph(4), 2, 1)
    assert verdict.premises_hold  # min degree 2 and I(C4) = 1 >= 1/(2-1)
    assert verdict.conclusion_holds
    assert verdict.outcome == "verified"


def test_edge_deletion_star_claw_is_vacuous():
    verdict = check_edge_deletion_star(star_graph(3), 2, 1)
    assert not verdict.premises_hold  # leaves have degree 1 < 1 + n
    assert verdict.outcome == "vacuous"


def test_edge_deletion_star_k4_exhaustive():
    verdict = check_edge_deletion_star(complete_graph(4), 2, 1)
    assert verdict.conclusion_holds


def test_edge_deletion_star_odd_n_range_is_premise_failure():
    # n = ceil(m/2) for odd m is out of range, recorded not raised
    verdict = check_edge_deletion_star(complete_graph(5), 3, 2)
    names = {p.name: p.holds for p in verdict.premises}
    assert names["n_range"] is False
    assert verdict.outcome == "vacuous"


def test_edge_deletion_star_counterexample():
    # two disjoint edges: deleting one strands two vertices
    g = Graph(4, [(0, 1), (2, 3)])
    verdict = check_edge_deletion_star(g, 2, 1)
    assert not verdict.conclusion_holds
    ce = verdict.counterexample
    assert ce.deletion.kind == "edges"
    assert ce.certificate.violation.delta < 0


# -- matching deletion ----------------------------------------------------------------


def test_matching_enumeration_on_c4():
    assert len(enumerate_matchings(cycle_graph(4), 2)) == 2
    assert len(enumerate_matchings(complete_graph(6), 1)) == 15


@st.composite
def graphs_and_sizes(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [p for p in pairs if draw(st.booleans())]), draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(graphs_and_sizes())
def test_matchings_are_the_disjoint_edge_combinations_in_order(case):
    # C reports the first refused matching, so the order is part of its verdict
    g, size = case
    expected = [
        es for es in combinations(g.edges, size)
        if len({v for e in es for v in e}) == 2 * size
    ]
    assert enumerate_matchings(g, size) == expected


def test_matching_cap_stops_the_enumeration(monkeypatch):
    # K14 has 135,135 perfect matchings; only one past the cap may be drawn
    drawn = []
    lazy = avoidance._matchings

    def counted(g, size):
        for m in lazy(g, size):
            drawn.append(m)
            yield m

    def no_premise_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premises evaluated before the cap")

    monkeypatch.setattr(avoidance, "_matchings", counted)
    monkeypatch.setattr(avoidance, "theorem_premises", no_premise_work)
    with pytest.raises(CapExceeded, match="more than 500 matchings exceed the cap of 500"):
        check_matching_deletion(complete_graph(14), 2, 3, 7, cap_deletions=500)
    assert len(drawn) == 501


def test_matching_deletion_k6_holds():
    verdict = check_matching_deletion(complete_graph(6), 2, 3, 1)
    assert verdict.premises_hold
    assert verdict.conclusion_holds
    # the recorded toughness premise: I(K6) = 5 >= 2
    tough = next(p for p in verdict.premises if p.name == "toughness")
    assert "5" in tough.detail and tough.holds


def test_matching_deletion_counterexample():
    verdict = check_matching_deletion(cycle_graph(4), 2, 3, 1)
    assert not verdict.conclusion_holds
    assert verdict.outcome == "vacuous"  # premises fail on C4
    assert verdict.counterexample.deletion.kind == "matching"


# -- rho and single-edge avoidance ------------------------------------------------------


def test_rho_both_endpoints_low():
    r = rho(cycle_graph(4), (0, 1), [], 2, 3)
    assert r.value == 2
    assert r.u_location == r.v_location == "T'"


def test_rho_zero_on_k4():
    r = rho(complete_graph(4), (0, 1), [], 2, 3)
    assert r.value == 0 and r.case == "otherwise"


def test_rho_pendant_case():
    g = Graph(5, list(combinations(range(4), 2)) + [(0, 4)])
    r = rho(g, (0, 4), [], 2, 3)
    assert r.value == 1
    assert {r.u_location, r.v_location} == {"T'", "W'"}


def test_rho_endpoint_in_s_is_zero():
    r = rho(cycle_graph(4), (0, 1), [0], 2, 3)
    assert r.value == 0 and r.u_location == "S"


def test_rho_requires_an_edge():
    with pytest.raises(ValueError):
        rho(cycle_graph(4), (0, 2), [], 2, 3)


@pytest.mark.parametrize(
    "check", [check_edge_avoiding, partial(rho, s=())], ids=["check_edge_avoiding", "rho"]
)
def test_edge_outside_the_graph_is_refused(check):
    with pytest.raises(ValueError, match=r"\(7, 8\) is not an edge of the graph"):
        check(complete_graph(5), (7, 8), a=2, b=3)


def test_edge_avoiding_k4_holds_and_c4_fails():
    assert check_edge_avoiding(complete_graph(4), (0, 1), 2, 3).conclusion_holds
    verdict = check_edge_avoiding(cycle_graph(4), (0, 1), 2, 3)
    assert not verdict.conclusion_holds
    cert = verdict.counterexample.certificate.violation
    assert cert.s == () and cert.delta < 0
    assert check_edge_avoiding(cycle_graph(4), (0, 1), 1, 2).conclusion_holds


def test_edge_avoiding_agrees_with_direct_exhaustively():
    for g in all_graphs(5):
        if g.min_degree() < 1:
            continue
        for e in g.edges:
            for a, b in [(1, 2), (2, 3)]:
                verdict = check_edge_avoiding(g, e, a, b)
                direct = find_ab_factor(
                    Graph(g.n, [x for x in g.edges if x != e]), a, b
                ).exists
                assert verdict.conclusion_holds == direct
                # Lemma H: the rho criterion agrees, and a refusal is
                # certified by its first violating S
                rho_s = first_rho_violation(g, *e, a, b)
                assert (rho_s is None) == direct
                if not direct:
                    assert_rho_violation(g, e, a, b, verdict.counterexample.certificate)


def assert_rho_violation(g, e, a, b, cert):
    """Lemma H's criterion at the certificate's S: delta_G(S) < rho(S),
    and the certificate refutes a factor of G - e with
    delta_{G-e}(S) = cert.delta < 0."""
    s = cert.violation.s
    assert delta(g, s, a, b) < rho(g, e, s, a, b).value
    g_minus_e = Graph(g.n, [x for x in g.edges if x != e])
    assert delta(g_minus_e, s, a, b) == cert.violation.delta < 0
    assert cert.verify(g_minus_e, a, b)


def reference_rho_violation(g, e, a, b):
    """First S in size-then-lexicographic order with delta(S) < rho(S),
    from the public delta and rho."""
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            if delta(g, s, a, b) < rho(g, e, s, a, b).value:
                return s
    return None


@st.composite
def graph_edge_and_bounds(draw):
    n = draw(st.integers(2, 8))
    pairs = list(combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())] or [(0, 1)]
    e = draw(st.sampled_from(edges))
    a = draw(st.integers(1, 3))
    b = draw(st.integers(a + 1, 4))
    return Graph(n, edges), e, a, b


@settings(max_examples=200, deadline=None)
@given(graph_edge_and_bounds())
@example((complete_graph(4), (0, 1), 2, 3))  # no S violates
@example((cycle_graph(4), (0, 1), 2, 3))  # S = {} violates
def test_fused_rho_scan_matches_delta_and_rho(case):
    g, (u, v), a, b = case
    assert first_rho_violation(g, u, v, a, b) == reference_rho_violation(
        g, (u, v), a, b
    )


@settings(max_examples=100, deadline=None)
@given(graph_edge_and_bounds())
@example((cycle_graph(4), (0, 1), 2, 3))
def test_deleting_an_edge_lowers_deficiency_by_rho(case):
    # the identity behind Lemma H's certificate: the S below rho in G are
    # exactly the S of negative deficiency in G - e
    g, e, a, b = case
    g_minus_e = Graph(g.n, [x for x in g.edges if x != e])
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            assert delta(g_minus_e, s, a, b) == (
                delta(g, s, a, b) - rho(g, e, s, a, b).value
            )


@settings(max_examples=200, deadline=None)
@given(graph_edge_and_bounds())
def test_edge_avoiding_matches_oracle_and_reference_scan(case):
    g, e, a, b = case
    verdict = check_edge_avoiding(g, e, a, b)
    g_minus_e = Graph(g.n, [x for x in g.edges if x != e])
    assert verdict.conclusion_holds == brute_force_factor(
        g_minus_e, a, b, max_edges=g_minus_e.edge_count
    )
    assert (reference_rho_violation(g, e, a, b) is None) == verdict.conclusion_holds
    if not verdict.conclusion_holds:
        assert_rho_violation(g, e, a, b, verdict.counterexample.certificate)


# Lemma H and full-mode A take every answer from find_ab_factor, so a
# tampered flow must be caught in both: on K4 - 01, and on K5 - 0 = K4
DECIDED_BY_FIND = (
    lambda: check_edge_avoiding(complete_graph(4), (0, 1), 2, 3),
    lambda: check_vertex_deletion_all(complete_graph(5), 2, 3, 1),
)


def test_edge_avoiding_refusal_without_rho_violation_raises(monkeypatch):
    # refused at S = {}, where nothing is deficient
    monkeypatch.setattr(factors, "solve", lambda g, lower, upper: (None, ()))
    for check in DECIDED_BY_FIND:
        with pytest.raises(RuntimeError, match="routes disagree"):
            check()


def test_edge_avoiding_rejects_an_invalid_direct_factor(monkeypatch):
    # the edge 01 alone; find_ab_factor re-verifies what the flow built
    monkeypatch.setattr(factors, "round_factor", lambda f, b: ((0, 1),))
    for check in DECIDED_BY_FIND:
        with pytest.raises(RuntimeError, match="fails verification"):
            check()


# -- theorem E ---------------------------------------------------------------------------


def test_theorem_e_k7():
    verdict = check_theorem_E(complete_graph(7), 2, 3)
    assert verdict.premises_hold and verdict.conclusion_holds
    pair = next(p for p in verdict.premises if p.name == "pair_deletions")
    assert "21" in pair.detail


def test_theorem_e_c5_vacuous():
    verdict = check_theorem_E(cycle_graph(5), 2, 3)
    assert not verdict.premises_hold  # min degree 2 < a + 2 = 4
    assert verdict.outcome == "vacuous"


def test_theorem_e_proof_step_single_vertex_sets():
    # with min degree >= a+2, any single-vertex S has empty T and delta = b
    g = complete_graph(7)
    for v in range(7):
        assert low_set(g, [v], 2) == ()
        assert delta(g, [v], 2, 3) == 3 >= 2


@pytest.mark.parametrize(
    "g, check, match",
    [
        # full-mode A scans no subsets, so only its C(20,1) deletions stop K20
        (complete_graph(20), lambda g: check_vertex_deletion_all(g, 2, 3, 1, cap_deletions=19),
         "20 deletions exceed the cap of 19"),
        # K7 has 21 edges, each a 1-matching
        (complete_graph(7), lambda g: check_edge_deletion_star(g, 2, 1, cap_deletions=20),
         "21 deletions exceed the cap of 20"),
        (complete_graph(7), lambda g: check_matching_deletion(g, 2, 3, 1, cap_deletions=20),
         "more than 20 matchings exceed the cap of 20"),
        (complete_graph(7), lambda g: check_lemma_D1(g, 2, 3, 1, 2, cap_n=6),
         "capped at 6 vertices, got 7"),
        # K7 has 21 vertex pairs and 21 edges
        (complete_graph(7), lambda g: check_theorem_E(g, 2, 3, cap_deletions=20),
         "21 deletions exceed the cap of 20"),
        # the pair deletions count even with the 7 edges of C7
        (cycle_graph(7), lambda g: check_theorem_E(g, 2, 3, cap_deletions=20),
         "21 deletions"),
        # E keeps no vertex cap, so its deletion cap is all that stops K20:
        # C(20,2) = 190 vertex pairs
        (complete_graph(20), lambda g: check_theorem_E(g, 2, 3, cap_deletions=189),
         "190 deletions exceed the cap of 189"),
        # nor does D: with n = 1, K20 has C(20,1) + C(20,0) = 21 deletions
        (complete_graph(20), lambda g: check_theorem_D(g, 2, 3, 1, cap_deletions=20),
         "21 deletions exceed the cap of 20"),
        # C(7,2) + C(7,1) = 28 deletions in all
        (complete_graph(7), lambda g: check_theorem_D(g, 2, 3, 2, cap_deletions=27),
         "28 deletions exceed the cap of 27"),
    ],
    ids=["A-full", "B", "C", "D1", "E", "E-sparse", "E-order", "D", "D-deletions"],
)
def test_cap_is_checked_before_premises(monkeypatch, g, check, match):
    def no_premise_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premises evaluated before the cap")

    monkeypatch.setattr(avoidance, "theorem_premises", no_premise_work)
    with pytest.raises(CapExceeded, match=match):
        check(g)


@pytest.mark.parametrize(
    "check, name",
    [
        (lambda g: check_vertex_deletion_all(g, 2, 3, 1, cap_deletions=-5), "cap_deletions"),
        (lambda g: check_edge_deletion_star(g, 2, 1, cap_deletions=-5), "cap_deletions"),
        (lambda g: check_matching_deletion(g, 2, 3, 1, cap_deletions=-5), "cap_deletions"),
        (lambda g: check_theorem_D(g, 2, 3, 1, cap_deletions=-5), "cap_deletions"),
        (lambda g: check_theorem_E(g, 2, 3, cap_deletions=-5), "cap_deletions"),
        (lambda g: check_lemma_D1(g, 2, 3, 1, 2, cap_n=-5), "cap_n"),
    ],
    ids=["A-full", "B", "C", "D", "E", "D1"],
)
def test_negative_cap_is_refused_before_premises(monkeypatch, check, name):
    def no_premise_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premises evaluated before the cap was refused")

    monkeypatch.setattr(avoidance, "theorem_premises", no_premise_work)
    with pytest.raises(ValueError, match=f"{name} must be >= 0, got -5"):
        check(complete_graph(5))


def test_deletion_checks_answer_beyond_the_subset_cap():
    # only D1 scans subsets; every other refusal is certified by its
    # flow, at any order
    claw = star_graph(19)
    for verdict in (
        check_edge_deletion_star(claw, 2, 1),
        check_matching_deletion(claw, 1, 2, 1),
        check_theorem_D(claw, 1, 2, 1),
        check_theorem_E(claw, 1, 2),
        check_edge_avoiding(claw, (0, 1), 1, 2),
    ):
        violation = verdict.counterexample.certificate.violation
        assert (violation.s, violation.delta) == ((0,), -17)
    g = generate_random(40, Fraction(3, 10), 11)
    for verdict in (
        check_edge_deletion_star(g, 4, 1, cap_deletions=1000),
        check_matching_deletion(g, 2, 3, 1, cap_deletions=1000),
        check_theorem_D(g, 2, 3, 1),
        check_edge_avoiding(g, g.edges[0], 2, 3),
        check_vertex_deletion_all(g, 2, 3, 1),
    ):
        assert verdict.outcome == "verified"


@pytest.mark.parametrize(
    "check, match",
    [
        (lambda g: check_vertex_deletion_all(g, 2, 2, 1), r"need 1 <= a < b, got a=2, b=2"),
        (lambda g: extremal_sharpness(1, 2, 3, 0), "n must be >= 1, got 0"),
        # B is proved for 1 <= n <= m/2, so m = 1 is never in range
        (lambda g: check_edge_deletion_star(g, 1, 1), "m must be >= 2, got 1"),
        (lambda g: check_matching_deletion(g, 2, 3, 0), "n must be >= 1, got 0"),
        # n - 1 < 0 must not reach the count of the (n-1)-subsets
        (lambda g: check_theorem_D(g, 2, 3, 0), "n must be >= 1, got 0"),
        (lambda g: check_theorem_E(g, 0, 3), r"need 1 <= a < b, got a=0, b=3"),
        (lambda g: check_lemma_D1(g, 2, 3, 1, 4), r"need 2 <= k <= b, got k=4, b=3"),
        (lambda g: check_edge_avoiding(g, (0, 1), 3, 3), r"need 1 <= a < b, got a=3, b=3"),
    ],
    ids=["A-full", "A-targeted", "B", "C", "D", "E", "D1", "LemmaH"],
)
def test_parameters_are_checked_before_premises(monkeypatch, check, match):
    def no_premise_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premises evaluated before the parameter check")

    monkeypatch.setattr(avoidance, "theorem_premises", no_premise_work)
    with pytest.raises(ValueError, match=match):
        check(complete_graph(6))


def test_theorem_e_cap_admits_exact_fit():
    verdict = check_theorem_E(complete_graph(7), 2, 3, cap_deletions=21)
    assert verdict.conclusion_holds


# -- theorem D ---------------------------------------------------------------------------


def test_theorem_d_k7_verified():
    verdict = check_theorem_D(complete_graph(7), 2, 3, 2)
    assert verdict.premises_hold and verdict.conclusion_holds
    # C(7,2) + C(7,1) = 28 deletions in all
    with pytest.raises(CapExceeded, match="28 deletions exceed the cap of 27"):
        check_theorem_D(complete_graph(7), 2, 3, 2, cap_deletions=27)


def test_theorem_d_n1_reduces_to_whole_graph():
    verdict = check_theorem_D(complete_graph(6), 2, 3, 1)
    assert verdict.conclusion_holds  # K6 itself has a [2,3]-factor


def test_theorem_d_antecedent_false_is_vacuous():
    verdict = check_theorem_D(cycle_graph(6), 2, 3, 1)
    ante = next(p for p in verdict.premises if p.name == "antecedent")
    assert not ante.holds
    assert verdict.outcome == "vacuous"
    assert verdict.conclusion_holds  # C6 is its own [2,3]-factor


# -- lemma D1 ----------------------------------------------------------------------------


def test_lemma_d1_k8():
    verdict = check_lemma_D1(complete_graph(8), 2, 3, 1, 2)
    assert verdict.premises_hold and verdict.conclusion_holds
    tough = next(p for p in verdict.premises if p.name == "toughness")
    assert "7" in tough.detail


def test_lemma_d1_rejects_bad_k():
    for k in (1, 4):
        with pytest.raises(ValueError):
            check_lemma_D1(complete_graph(8), 2, 3, 1, k)


def test_lemma_d1_vacuous_instance():
    verdict = check_lemma_D1(cycle_graph(5), 2, 3, 1, 2)
    assert verdict.outcome == "vacuous"


def test_lemma_d1_conclusion_violation_is_certified():
    # sparse graph failing the premises can also fail the bound; the
    # certificate must re-verify
    g = path_graph(5)
    verdict = check_lemma_D1(g, 2, 3, 1, 2)
    if not verdict.conclusion_holds:
        cert = verdict.counterexample.certificate.violation
        assert delta(g, cert.s, 2, 3) == cert.delta < cert.bound == 2
        assert low_set(g, cert.s, 2) == cert.t != ()


# -- the shared refusal loop ------------------------------------------------------------------


def reference_refusal(g, specs, a, b):
    """First deletion whose deleted graph the exhaustive oracle refuses."""
    for spec in specs:
        h = delete(g, spec).graph
        exists = brute_force_factor(h, a, b)
        assert exists == find_ab_factor(h, a, b).exists
        if not exists:
            return spec
    return None


def assert_certifies_deletion(g, ce, a, b):
    """The counterexample's certificate, taken back to the labels of the
    deleted graph, refutes an [a,b]-factor there."""
    res = delete(g, ce.deletion)
    local = {old: new for new, old in enumerate(res.original_labels)}
    s, t, d, bound = ce.certificate.violation
    violation = FactorViolation(tuple(local[x] for x in s), tuple(local[x] for x in t), d, bound)
    assert FactorCertificate(False, violation=violation).verify(res.graph, a, b)


def vertex_specs(g, size):
    return [DeletionSpec.vertices(vs) for vs in combinations(range(g.n), size)]


@st.composite
def small_graph_and_bounds(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    if draw(st.booleans()):  # complements reach the minimum degree of E
        edges = [p for p in pairs if p not in edges]
    a = draw(st.integers(1, 3))
    b = draw(st.integers(a + 1, 4))
    return Graph(n, edges), a, b, draw(st.integers(1, 2))


@settings(max_examples=150, deadline=None)
@given(small_graph_and_bounds())
@example((complete_graph(7), 2, 3, 2))  # every statement verified
@example((cycle_graph(6), 2, 3, 1))  # A refuted, D vacuous
# K(3,4) minus two vertices of the 3-side is a star with 4 leaves: the
# pair premise of E fails although the minimum degree reaches a + 2
@example((Graph(7, [(u, v) for u in range(3) for v in range(3, 7)]), 1, 2, 1))
def test_refusal_loop_matches_search_reference(case):
    g, a, b, n = case
    ref = reference_refusal

    def verdict_parts(v):
        ce = v.counterexample
        if ce is not None:
            assert_certifies_deletion(g, ce, a, b)
        return v.premises, v.conclusion_holds, None if ce is None else ce.deletion

    expected_a = ref(g, vertex_specs(g, n), a, b)
    assert verdict_parts(check_vertex_deletion_all(g, a, b, n)) == (
        theorem_premises("A", g, a=a, b=b, n=n), expected_a is None, expected_a
    )
    matchings = [DeletionSpec.matching(m) for m in enumerate_matchings(g, n)]
    expected_c = ref(g, matchings, a, b)
    assert verdict_parts(check_matching_deletion(g, a, b, n)) == (
        theorem_premises("C", g, a=a, b=b, n=n), expected_c is None, expected_c
    )
    # the antecedent of D is the conclusion of A
    expected_d = ref(g, vertex_specs(g, n - 1), a, b)
    detail = (
        f"all {comb(g.n, n)} {n}-subset deletions admit factors"
        if expected_a is None
        else f"G - {list(expected_a.members)} admits no [{a},{b}]-factor"
    )
    premises_d = theorem_premises("D", g, a=a, b=b, n=n) + (
        Premise("antecedent", expected_a is None, detail),
    )
    assert verdict_parts(check_theorem_D(g, a, b, n)) == (
        premises_d, expected_d is None, expected_d
    )
    premises_e = theorem_premises("E", g, a=a, b=b)
    d_min = g.min_degree()
    min_degree = Premise(
        "min_degree", d_min >= a + 2, f"min degree {d_min} {'>=' if d_min >= a + 2 else '<'} {a + 2}"
    )
    pair = ref(g, vertex_specs(g, 2), a, b)
    if not min_degree.holds:
        detail = "not evaluated: the minimum-degree premise already fails"
    elif pair is None:
        detail = f"all {comb(g.n, 2)} vertex-pair deletions admit [{a},{b}]-factors"
    else:
        detail = "G - {{{}, {}}} admits no [{},{}]-factor".format(*pair.members, a, b)
    assert premises_e == (
        min_degree, Premise("pair_deletions", min_degree.holds and pair is None, detail)
    )
    expected_e = ref(g, [DeletionSpec.edge(*e) for e in g.edges], a, b)
    assert verdict_parts(check_theorem_E(g, a, b)) == (
        premises_e, expected_e is None, expected_e
    )


@st.composite
def deletion_cases(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    if draw(st.booleans()):
        edges = [p for p in pairs if p not in edges]
    a, b = draw(st.sampled_from([(1, 2), (2, 3), (1, 3), (2, 4)]))
    return Graph(n, edges), a, b, draw(st.integers(1, min(2, n)))


@settings(max_examples=200, deadline=None)
@given(deletion_cases())
@example((cycle_graph(6), 2, 3, 1))
def test_refusal_loop_agrees_across_deciders(case):
    # full-mode A decides by find_ab_factor, D and E by check_ab_factor:
    # both must name the same first refusal, S, T and deficiency
    g, a, b, n = case
    found, checked = (
        avoidance._first_counterexample(g, vertex_specs(g, n), partial(decide, a=a, b=b))
        for decide in (factors.find_ab_factor, factors.check_ab_factor)
    )
    assert found == checked


@pytest.mark.parametrize(
    "check",
    [lambda: check_theorem_D(complete_graph(6), 2, 3, 1),
     lambda: check_theorem_E(complete_graph(6), 2, 3)],
    ids=["D-antecedent", "E-pair-premise"],
)
def test_premise_refusal_passes_the_certificate_check(monkeypatch, check):
    # a false refusal at S = {}, where nothing is deficient, in the
    # deletions that D's antecedent and E's pair premise decide first
    monkeypatch.setattr(factors, "solve", lambda g, lower, upper: (None, ()))
    with pytest.raises(RuntimeError, match="routes disagree"):
        check()


def test_avoidance_uses_only_public_factor_deciders():
    tree = ast.parse(inspect.getsource(avoidance))
    imported = [
        ((node.module or "").rpartition(".")[2], alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert not [pair for pair in imported if "flow" in pair]
    names = [name for module, name in imported if module == "factors"]
    assert names and not [name for name in names if name.startswith("_")]


TRIANGLE_WITH_TAIL = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


@pytest.mark.parametrize(
    "g",
    [complete_graph(7), cycle_graph(5), star_graph(3), TRIANGLE_WITH_TAIL],
    ids=["K7", "C5", "claw", "triangle-tail"],
)
def test_flow_decided_checks_never_search(monkeypatch, tmp_path, capsys, g):
    def no_matching(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("the blossom matcher ran")

    monkeypatch.setattr(matching, "perfect_matching", no_matching)
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(g) + "\n")
    outcomes = {"verified", "vacuous", "counterexample"}
    for a, b in [(1, 2), (2, 3)]:
        assert check_vertex_deletion_all(g, a, b, 1).outcome in outcomes
        assert check_matching_deletion(g, a, b, 1).outcome in outcomes
        assert check_theorem_D(g, a, b, 2).outcome in outcomes
        assert check_theorem_E(g, a, b).outcome in outcomes
        assert [p.name for p in theorem_premises("E", g, a=a, b=b)] == [
            "min_degree", "pair_deletions"
        ]
        # Lemma H takes its factor of G - e from the flow
        for e in g.edges:
            g_minus_e = Graph(g.n, [x for x in g.edges if x != e])
            verdict = check_edge_avoiding(g, e, a, b)
            assert verdict.conclusion_holds == brute_force_factor(g_minus_e, a, b)
        # and so do find_ab_factor and factor --find for a < b
        found = find_ab_factor(g, a, b)
        assert found.exists == brute_force_factor(g, a, b)
        code = cli.main(["factor", str(path), "--a", str(a), "--b", str(b), "--find"])
        assert code == (0 if found.exists else 1)
        expected = found.to_json_dict()
        if found.exists and a == 1:
            expected["stars"] = find_star_factor(g, b).to_json_dict()
        assert json.loads(capsys.readouterr().out) == expected
    # find_star_factor with m >= 2 peels the flow's [1,m]-factor
    for m in (2, 3, 4):
        forest = find_star_factor(g, m)
        assert (forest is not None) == check_star_factor(g, m).exists
        if forest is not None:
            forest.validate(g, m)

    # B with m >= 2 only decides each G - E', so it builds no forest either
    def no_peel(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a star forest was peeled")

    monkeypatch.setattr(factors, "_peel_stars", no_peel)
    for m in (2, 3, 4):
        verdict = check_edge_deletion_star(g, m, 1)
        assert verdict.conclusion_holds == all(
            check_star_factor(Graph(g.n, [x for x in g.edges if x != e]), m).exists
            for e in g.edges
        )


# -- premises helper ------------------------------------------------------------------------


def test_theorem_premises_match_thresholds():
    g = complete_graph(8)
    prem = theorem_premises("A", g, a=2, b=3, n=1)
    assert all(p.holds for p in prem)
    assert "7/3" in prem[1].detail
    prem_c = theorem_premises("C", g, a=2, b=3, n=1)
    assert "2" in prem_c[1].detail


def test_theorem_premises_unknown_tag():
    with pytest.raises(ValueError):
        theorem_premises("Z", complete_graph(3), a=1, b=2, n=1)


# -- the subset scan as A's oracle ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        generate_random,
        st.integers(1, 9),
        st.fractions(0, 1, max_denominator=20),
        st.integers(0, 2**32 - 1),
    ),
    st.sampled_from([(1, 2), (2, 3), (2, 4)]),
    st.integers(1, 2),
)
@example(Graph(4, [(0, 3), (1, 3), (2, 3)]), (1, 2), 1)  # only the last G - v refuses
def test_vertex_deletion_matches_the_subset_scan(g, ab, n):
    # the exponential scan is A's oracle: some G - V' is refused exactly
    # when some S with |S| >= n has deficiency below b*n in G
    a, b = ab
    verdict = check_vertex_deletion_all(g, a, b, n)
    assert verdict.conclusion_holds == (
        scan_deficiency(g, a, b, bound=b * n, min_size=n) is None
    )
    assert verdict.witnesses == ()
    if not verdict.conclusion_holds:
        ce = verdict.counterexample
        g_del, cert = local_certificate(g, ce)
        assert cert.verify(g_del, a, b)
        v_and_s = ce.deletion.members + ce.certificate.violation.s
        assert delta(g, v_and_s, a, b) < b * n


def test_verdict_json_shape():
    verdict = check_vertex_deletion_all(complete_graph(6), 2, 3, 1)
    d = verdict.to_json_dict()
    assert d["theorem"] == "A"
    assert d["conclusion"] is True
    assert d["outcome"] == "verified"
    assert set(d["premises"]) == {"min_degree", "toughness"}
