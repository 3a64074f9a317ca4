"""Avoidance checks: premises, dual routes, certificates, and the
sharpness construction."""

import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorbench import (
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
    Counterexample,
    Premise,
    _first_rho_violation,
    check_edge_avoiding,
    check_edge_deletion_star,
    check_lemma_D1,
    check_matching_deletion,
    check_theorem_D,
    check_theorem_E,
    check_vertex_deletion_all,
    enumerate_matchings,
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
)
from factorbench.toughness import threshold


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
    ce = verdict.counterexample
    res = delete_vertices(g, ce.deletion.members)
    index = {old: new for new, old in enumerate(res.original_labels)}
    s_local = [index[v] for v in ce.certificate.violation.s]
    assert delta(res.graph, s_local, 2, 3) == ce.certificate.violation.delta < 0


def test_vertex_deletion_routes_and_caps():
    with pytest.raises(CapExceeded):
        check_vertex_deletion_all(complete_graph(6), 2, 3, 1, cap_deletions=3)
    with pytest.raises(CapExceeded):
        check_vertex_deletion_all(Graph(14), 1, 2, 1, cap_n=12)


def test_vertex_deletion_validates_parameters():
    with pytest.raises(ValueError):
        check_vertex_deletion_all(complete_graph(5), 2, 2, 1)
    with pytest.raises(ValueError):
        check_vertex_deletion_all(complete_graph(5), 1, 2, 0)


def test_sharpness_h_fails_with_papers_deletion_and_witness():
    w = build_extremal_H(1, 2, 3, 1)
    assert w.witness_ratio == Fraction(9, 4) < threshold("A", a=2, b=3, n=1)
    verdict = check_vertex_deletion_all(
        w.graph, 2, 3, 1, deletions=[w.default_v0()], witnesses=[w.clique_small]
    )
    assert verdict.outcome == "vacuous"  # premises fail: sharpness, not refutation
    assert not verdict.conclusion_holds
    cert = verdict.counterexample.certificate.violation
    assert set(cert.s) == set(w.clique_small)
    assert set(cert.t) == set(w.isolated_row)
    assert cert.delta == -1


def test_targeted_mode_rejects_overlapping_witness():
    w = build_extremal_H(1, 2, 3, 1)
    v0 = w.default_v0()
    with pytest.raises(ValueError, match="intersects"):
        check_vertex_deletion_all(w.graph, 2, 3, 1, deletions=[v0], witnesses=[v0])


@pytest.mark.parametrize(
    "n, deletions, witnesses, match",
    [
        (1, [(0, 1)], None, "not an n-subset"),
        (2, [(0, 0)], None, r"deletion \(0,\) is not an n-subset"),
        (1, [(99,)], None, "not a vertex"),
        (1, [(0,)], [(99,)], "not a vertex"),
        (1, [(1,), (0,)], [(0, 2)], "intersects"),
    ],
    ids=["wrong-size", "repeated-vertex", "deletion-outside", "witness-outside",
         "second-deletion-overlaps"],
)
def test_targeted_mode_validates_before_premises(monkeypatch, n, deletions, witnesses, match):
    def premises(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premises computed before the inputs were validated")

    monkeypatch.setattr(avoidance, "theorem_premises", premises)
    with pytest.raises(ValueError, match=match):
        check_vertex_deletion_all(
            complete_graph(6), 2, 3, n, deletions=deletions, witnesses=witnesses
        )


def test_targeted_mode_on_positive_instance():
    verdict = check_vertex_deletion_all(
        complete_graph(6), 2, 3, 1, deletions=[(0,)], witnesses=[(1, 2)]
    )
    assert verdict.conclusion_holds


def test_targeted_mode_needs_no_search_budget():
    # the largest sharpness instance: the witness refutes and the flow
    # confirms, where no constructive search runs
    w = build_extremal_H(3, 3, 4, 1)
    verdict = check_vertex_deletion_all(
        w.graph, 3, 4, 1, deletions=[w.default_v0()], witnesses=[w.clique_small]
    )
    assert not verdict.conclusion_holds
    assert verdict.counterexample.certificate.violation.s == w.clique_small
    # no witness at all: the flow decides the positive instance
    verdict = check_vertex_deletion_all(complete_graph(6), 2, 3, 1, deletions=[(0,)])
    assert verdict.conclusion_holds


def test_targeted_mode_witness_against_flow_raises(monkeypatch):
    import factorbench.avoidance as avoidance

    monkeypatch.setattr(avoidance, "ab_factor_exists", lambda g, a, b: True)
    w = build_extremal_H(1, 2, 3, 1)
    with pytest.raises(RuntimeError, match="witness claims a violation"):
        check_vertex_deletion_all(
            w.graph, 2, 3, 1, deletions=[w.default_v0()], witnesses=[w.clique_small]
        )


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
        check_matching_deletion(complete_graph(14), 2, 3, 7, cap_n=16, cap_deletions=500)
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
                # Lemma H: the rho criterion agrees, also where the check skips it
                assert (_first_rho_violation(g, *e, a, b) is None) == direct


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
    assert _first_rho_violation(g, u, v, a, b) == reference_rho_violation(
        g, (u, v), a, b
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
    if not verdict.conclusion_holds:
        cert = verdict.counterexample.certificate
        assert cert.violation.s == reference_rho_violation(g, e, a, b)
        assert cert.verify(g_minus_e, a, b)


def test_edge_avoiding_refusal_without_rho_violation_raises(monkeypatch):
    monkeypatch.setattr(factors, "ab_factor", lambda g, a, b: None)
    with pytest.raises(RuntimeError, match="criterion and flow routes disagree"):
        check_edge_avoiding(complete_graph(4), (0, 1), 2, 3)


def test_edge_avoiding_rejects_an_invalid_direct_factor(monkeypatch):
    # the avoided edge alone; find_ab_factor re-verifies what the flow built
    monkeypatch.setattr(factors, "ab_factor", lambda g, a, b: ((0, 1),))
    with pytest.raises(RuntimeError, match="fails verification"):
        check_edge_avoiding(complete_graph(4), (0, 1), 2, 3)


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
        (complete_graph(7), lambda g: check_vertex_deletion_all(g, 2, 3, 1, cap_n=6),
         "capped at 6 vertices, got 7"),
        (complete_graph(7), lambda g: check_edge_deletion_star(g, 2, 1, cap_n=6),
         "capped at 6 vertices, got 7"),
        (complete_graph(7), lambda g: check_matching_deletion(g, 2, 3, 1, cap_n=6),
         "capped at 6 vertices, got 7"),
        (complete_graph(7), lambda g: check_lemma_D1(g, 2, 3, 1, 2, cap_n=6),
         "capped at 6 vertices, got 7"),
        # K7 has 21 vertex pairs and 21 edges
        (complete_graph(7), lambda g: check_theorem_E(g, 2, 3, cap_deletions=20),
         "21 deletions exceed the cap of 20"),
        # the pair deletions count even with the 7 edges of C7
        (cycle_graph(7), lambda g: check_theorem_E(g, 2, 3, cap_deletions=20),
         "21 deletions"),
        (complete_graph(7), lambda g: check_theorem_E(g, 2, 3, cap_n=6),
         "subset enumeration capped at 6 vertices, got 7"),
        (complete_graph(7), lambda g: check_theorem_D(g, 2, 3, 1, cap_n=6),
         "subset enumeration capped at 6 vertices, got 7"),
        # C(7,2) + C(7,1) = 28 deletions in all
        (complete_graph(7), lambda g: check_theorem_D(g, 2, 3, 2, cap_deletions=27),
         "28 deletions exceed the cap of 27"),
        (complete_graph(7), lambda g: check_edge_avoiding(g, (0, 1), 2, 3, cap_n=6),
         "subset enumeration capped at 6 vertices, got 7"),
    ],
    ids=["A-full", "B", "C", "D1", "E", "E-sparse", "E-order", "D", "D-deletions",
         "LemmaH"],
)
def test_cap_is_checked_before_premises(monkeypatch, g, check, match):
    def no_premise_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premises evaluated before the cap")

    monkeypatch.setattr(avoidance, "theorem_premises", no_premise_work)
    with pytest.raises(CapExceeded, match=match):
        check(g)


@pytest.mark.parametrize(
    "check, match",
    [
        (lambda g: check_vertex_deletion_all(g, 2, 2, 1), r"need 1 <= a < b, got a=2, b=2"),
        (lambda g: check_vertex_deletion_all(g, 2, 3, 0, deletions=[()]),
         "n must be >= 1, got 0"),
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


def reference_counterexample(g, specs, a, b):
    """First deletion whose deleted graph the exhaustive oracle refuses,
    certified by the first S of negative deficiency in size-then-
    lexicographic order, from the public delta and low_set."""
    for spec in specs:
        res = delete(g, spec)
        h = res.graph
        exists = brute_force_factor(h, a, b)
        assert exists == find_ab_factor(h, a, b, cert_cap=0).exists
        if exists:
            continue
        lift = res.original_labels
        for k in range(h.n + 1):
            for s in combinations(range(h.n), k):
                d = delta(h, s, a, b)
                if d < 0:
                    violation = FactorViolation(
                        tuple(lift[x] for x in s), tuple(lift[x] for x in low_set(h, s, a)), d
                    )
                    return Counterexample(spec, FactorCertificate(False, violation=violation))
        raise AssertionError(f"the oracle refuses G - {spec} but no S is deficient")
    return None


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
    ref = reference_counterexample

    def verdict_parts(v):
        return v.premises, v.conclusion_holds, v.counterexample

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
        else f"G - {list(expected_a.deletion.members)} admits no [{a},{b}]-factor"
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
        detail = "G - {{{}, {}}} admits no [{},{}]-factor".format(*pair.deletion.members, a, b)
    assert premises_e == (
        min_degree, Premise("pair_deletions", min_degree.holds and pair is None, detail)
    )
    expected_e = ref(g, [DeletionSpec.edge(*e) for e in g.edges], a, b)
    assert verdict_parts(check_theorem_E(g, a, b)) == (
        premises_e, expected_e is None, expected_e
    )


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


# -- route agreement over a corpus ------------------------------------------------------------


def test_vertex_deletion_route_agreement_random():
    for seed in range(30):
        g = generate_random(7, Fraction(3, 5), seed)
        # both routes are executed and compared inside; completing without
        # a RuntimeError is the agreement check
        verdict = check_vertex_deletion_all(g, 2, 3, 1)
        if verdict.conclusion_holds:
            assert verdict.counterexample is None


def test_verdict_json_shape():
    verdict = check_vertex_deletion_all(complete_graph(6), 2, 3, 1)
    d = verdict.to_json_dict()
    assert d["theorem"] == "A"
    assert d["conclusion"] is True
    assert d["outcome"] == "verified"
    assert set(d["premises"]) == {"min_degree", "toughness"}
