"""Acceptance suite: one test per criterion, each printing a PASS line
with its instance counts and runtime.

Run with `pytest tests/test_acceptance.py -v -s`.  The small-order corpora
are exhaustive; the 7+ vertex corpora are deterministic seeded samples, so
every run checks the same instances.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from factorbench import (
    Graph,
    delete_edges,
    delete_vertices,
    generate_random,
    isolated_count,
)
from factorbench.avoidance import (
    check_edge_avoiding,
    extremal_sharpness,
    rho,
)
from factorbench.campaign import CampaignConfig, run_campaign
from factorbench.factors import (
    brute_force_factor,
    check_ab_factor,
    check_star_factor,
    delta,
    find_ab_factor,
    find_katerinis_pair,
    find_star_factor,
    scan_deficiency,
)
from factorbench.toughness import (
    isolated_toughness,
    isolated_toughness_bruteforce,
    threshold,
)
from oracles import first_rho_violation

AB_PAIRS = [(1, 2), (1, 3), (2, 3)]


def _all_graphs_upto(max_n):
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            out.append(
                Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            )
    return out


@pytest.fixture(scope="module")
def small_graphs():
    return _all_graphs_upto(6)


@pytest.fixture(scope="module")
def random_78():
    # 2000 seeded 7-8 vertex graphs, kept within the brute-force edge cap
    out = []
    seed = 10_000
    ps = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)]
    while len(out) < 2000:
        n = 7 + (seed & 1)
        g = generate_random(n, ps[seed % 3], seed)
        seed += 1
        if g.edge_count <= 25:
            out.append(g)
    return out


@pytest.fixture(scope="module")
def random_712():
    out = []
    ps = [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)]
    for i in range(1000):
        n = 7 + i % 6
        out.append(generate_random(n, ps[i % 4], 20_000 + i))
    return out


def test_criterion_1_oracle_triangle(small_graphs, random_78):
    t0 = time.time()
    checked = 0
    for g in small_graphs + random_78:
        for a, b in AB_PAIRS:
            expected = brute_force_factor(g, a, b)
            assert check_ab_factor(g, a, b).exists == expected, (g, a, b)
            assert (scan_deficiency(g, a, b) is None) == expected, (g, a, b)
            found = find_ab_factor(g, a, b)
            assert found.exists == expected, (g, a, b)
            if found.exists:
                assert found.verify(g, a, b)
            checked += 1
    print(
        f"\n[criterion 1] PASS oracle square: {checked} checks over "
        f"{len(small_graphs) + len(random_78)} graphs, 0 disagreements "
        f"({time.time() - t0:.1f}s)"
    )


def test_criterion_2_toughness_equivalence(small_graphs, random_712):
    t0 = time.time()
    for g in small_graphs + random_712:
        fast = isolated_toughness(g)
        slow = isolated_toughness_bruteforce(g)
        assert fast.value == slow.value, g
        assert fast.verify(g) and slow.verify(g), g
    total = len(small_graphs) + len(random_712)
    print(
        f"\n[criterion 2] PASS toughness equivalence on {total} graphs, "
        f"exact Fraction equality ({time.time() - t0:.1f}s)"
    )


def test_criterion_3_sharpness_reproduction():
    t0 = time.time()
    cases = 0
    for a, b, n in [(2, 3, 1), (2, 4, 2), (3, 4, 1)]:
        for m in (1, 2, 3):
            w, thr, refutation = extremal_sharpness(m, a, b, n)
            ratio = w.witness_ratio
            assert thr == threshold("A", a=a, b=b, n=n)
            assert ratio < thr, (m, a, b, n)
            assert refutation is not None
            assert refutation.deletion.members == w.default_v0()
            cert = refutation.certificate.violation
            assert set(cert.s) == set(w.clique_small)
            # a|T| - d_{G-S}(T) = (mb+1)(a-1) > mb(a-1) = b|S|, exactly
            a_t_minus_d = b * len(cert.s) - cert.delta
            assert a_t_minus_d == (m * b + 1) * (a - 1)
            assert b * len(cert.s) == m * b * (a - 1)
            assert a_t_minus_d > b * len(cert.s)
            cases += 1
    print(
        f"\n[criterion 3] PASS sharpness on {cases} (m,a,b,n) instances, "
        f"exact ratio/threshold and deficiency identities ({time.time() - t0:.1f}s)"
    )


def test_criterion_4_theorem_campaigns():
    t0 = time.time()
    config = CampaignConfig(
        theorems=("A", "B", "C", "E", "D1"),
        n_min=7,
        n_max=10,
        p_list=(Fraction(3, 5), Fraction(3, 4), Fraction(17, 20)),
        seed_list=tuple(range(1, 81)),
        quota=85,
        cap_n=12,
        cap_deletions=3000,
        a_ab=((1, 2), (2, 3)),
        a_n=(1, 2),
        b_m=(2, 3, 4),
        b_n=(1, 2),
        c_ab=((2, 3),),
        c_n=(1, 2),
        e_ab=((2, 3),),
        d1_ab=((2, 3),),
        d1_n=(1,),
        d1_k=(2, "b"),
    )
    report = run_campaign(config)
    agg = report.aggregates
    assert agg["counterexample"] == 0, report.counterexamples
    assert agg["capped"] == 0
    assert agg["total"] == agg["verified"]  # kept instances satisfied premises
    assert agg["total"] >= 1000
    rejected = sum(c["rejected_premise"] for c in report.cells)
    print(
        f"\n[criterion 4] PASS campaigns: {agg['verified']} premise-satisfying "
        f"instances verified across {len(report.cells)} cells, "
        f"{rejected} premise-failed draws excluded, 0 counterexamples "
        f"({time.time() - t0:.1f}s)"
    )


def test_criterion_5_lemma_f(small_graphs, random_78, random_712):
    t0 = time.time()
    checked = 0
    for g in small_graphs + random_78 + random_712:
        base = isolated_count(g)
        for e in g.edges:
            after = isolated_count(delete_edges(g, [e]))
            assert base <= after <= base + 2, (g, e)
            checked += 1
    k2 = Graph(2, [(0, 1)])
    assert isolated_count(delete_edges(k2, [(0, 1)])) == isolated_count(k2) + 2
    print(
        f"\n[criterion 5] PASS isolated-count bounds on {checked} edge "
        f"deletions, including the K2 boundary ({time.time() - t0:.1f}s)"
    )


def test_criterion_6_edge_avoidance_equivalence(small_graphs):
    t0 = time.time()
    checked = 0
    for g in small_graphs:
        if g.n < 2 or g.min_degree() < 1:
            continue
        for e in g.edges:
            for a, b in [(2, 3), (1, 2)]:
                # the check decides G-e by flow and certifies a refusal by
                # the S of the flow's least minimum cut; Lemma H's
                # deficiency-vs-penalty criterion in G, from the test-side
                # oracle, must give the same verdict, and it must hold at
                # the returned S: delta_G(S) < rho(S)
                verdict = check_edge_avoiding(g, e, a, b)
                rho_s = first_rho_violation(g, *e, a, b)
                assert (rho_s is None) == verdict.conclusion_holds
                if not verdict.conclusion_holds:
                    cert = verdict.counterexample.certificate.violation
                    assert delta(g, cert.s, a, b) < rho(g, e, cert.s, a, b).value
                    g_minus_e = delete_edges(g, [e])
                    assert delta(g_minus_e, cert.s, a, b) == cert.delta < 0
                checked += 1
    print(
        f"\n[criterion 6] PASS edge-avoidance equivalence: {checked} "
        f"(graph, edge, bounds) instances, 0 disagreements ({time.time() - t0:.1f}s)"
    )


def test_criterion_7_katerinis_pairs(small_graphs):
    t0 = time.time()
    checked = 0
    for g in small_graphs:
        degs = g.degrees()
        for a in (3, 4):
            if degs and max(degs) > a - 1:
                continue
            classes = [[] for _ in range(a - 1)]
            for v in range(g.n):
                classes[max(g.degree(v), 1) - 1].append(v)
            pair = find_katerinis_pair(g, classes, a)  # raises on a broken bound
            iset = set(pair.independent)
            assert not iset & set(pair.cover)
            assert iset | set(pair.cover) == set(range(g.n))
            for u in iset:
                assert not any(w in iset for w in g.neighbors(u))
            for u in set(range(g.n)) - iset:
                assert any(w in iset for w in g.neighbors(u))  # maximality
            checked += 1
    print(
        f"\n[criterion 7] PASS covering pairs: {checked} degree-ceiling "
        f"partitions, greedy bound never broken ({time.time() - t0:.1f}s)"
    )


def test_criterion_8_star_equivalence(small_graphs, random_78):
    t0 = time.time()
    checked = 0
    for g in small_graphs + random_78:
        for m in (1, 2, 3):
            verdict = check_star_factor(g, m)
            forest = find_star_factor(g, m)
            constructive = forest is not None
            direct = find_ab_factor(g, 1, m).exists
            expected = brute_force_factor(g, 1, m)
            assert verdict.exists == constructive == direct == expected, (g, m)
            if m >= 2:
                assert (scan_deficiency(g, 1, m) is None) == direct, (g, m)
            elif not verdict.exists:
                # networkx recounts the odd components of G - S for the witness S
                h = nx.Graph(g.edges)
                h.add_nodes_from(range(g.n))
                h.remove_nodes_from(verdict.witness)
                odd = sum(len(c) % 2 for c in nx.connected_components(h))
                assert odd == verdict.odd_components > len(verdict.witness), g
            if forest is not None:
                forest.validate(g, m)
            checked += 1
    print(
        f"\n[criterion 8] PASS star equivalence: {checked} (graph, m) "
        f"instances, all forests re-validated ({time.time() - t0:.1f}s)"
    )


def test_criterion_9_deficiency_identity():
    t0 = time.time()
    rng = random.Random(99)
    for i in range(10_000):
        n = rng.randrange(3, 9)
        p = Fraction(rng.randrange(0, 101), 100)
        g = generate_random(n, p, 30_000 + i)
        s = [v for v in range(n) if rng.random() < 0.4]
        a = rng.randrange(1, 5)
        b = a + rng.randrange(1, 4)
        keep = [v for v in range(n) if v not in s]
        deg = {v: sum(1 for w in g.neighbors(v) if w in keep) for v in keep}
        t_prime = [v for v in keep if deg[v] <= a]  # degree <= a, not a-1
        alt = b * len(s) - a * len(t_prime) + sum(deg[v] for v in t_prime)
        assert delta(g, s, a, b) == alt, (g, s, a, b)
    print(
        f"\n[criterion 9] PASS deficiency identity on 10000 random "
        f"(g, S, a, b) samples, exact equality ({time.time() - t0:.1f}s)"
    )
