"""Deletion-avoiding factor checks.

Each check evaluates a conditional statement on a concrete graph: the
premises (minimum degree, isolated-toughness bound, parameter ranges) are
recorded one by one, the conclusion is verified by exhaustive enumeration
of the deleted objects, and any failure is returned as a re-verifiable
certificate.  Every deleted graph is decided through a public decider
of ``factors``: ``check_ab_factor``, or ``find_ab_factor`` where a factor
is built (full-mode A and Lemma H) and re-verified.  Either certifies a
refusal, premise refusals included, by the S of the double-cover flow's
least minimum cut, whose deficiency ``factors`` re-checks; no subset is
enumerated for it, so only D1, the one statement that scans subsets,
takes ``cap_n``.  Wherever an independent criterion route exists
alongside the direct route, the two must agree; a disagreement is a bug,
not a verdict.

``extremal_sharpness`` is not such a check: it is the one check of A at
a chosen deletion, the V0 of the sharpness construction H.  It decides
only whether H - V0 has a factor, with a witness/flow cross-check, and
evaluates no premise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded
from .factors import (
    FactorCertificate,
    FactorViolation,
    check_ab_factor,
    delta,
    find_ab_factor,
    low_set,
    scan_deficiency,
)
from .graphs import (
    DeletionSpec, ExtremalWitness, Graph, build_extremal_H, delete, delete_edges,
    sharpness_order,
)
from .toughness import isolated_toughness, threshold

DEFAULT_CAP_N = 12
DEFAULT_CAP_DELETIONS = 500


@dataclass(frozen=True, slots=True)
class Premise:
    name: str
    holds: bool
    detail: str


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A failing deleted object together with the certificate refuting the
    factor, in the labels of the original graph.  ``deletion`` is None for
    statements about subsets rather than deletions."""

    deletion: DeletionSpec | None
    certificate: FactorCertificate

    def to_json_dict(self) -> dict:
        out = {"certificate": self.certificate.to_json_dict()}
        if self.deletion is not None:
            out["deletion"] = self.deletion.to_json_dict()
        return out


@dataclass(frozen=True, slots=True)
class AvoidanceVerdict:
    """Three-valued outcome of one theorem check on one instance:
    premises-failed instances are vacuous rather than counterexamples."""

    theorem: str
    params: dict
    premises: tuple[Premise, ...]
    conclusion_holds: bool
    counterexample: Counterexample | None = None
    witnesses: tuple = ()

    def __post_init__(self):
        if (self.counterexample is not None) == self.conclusion_holds:
            raise ValueError(
                "a verdict carries a counterexample exactly when its conclusion fails"
            )

    @property
    def premises_hold(self) -> bool:
        return all(p.holds for p in self.premises)

    @property
    def outcome(self) -> str:
        if not self.premises_hold:
            return "vacuous"
        return "verified" if self.conclusion_holds else "counterexample"

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "params": self.params,
            "premises": {
                p.name: {"holds": p.holds, "detail": p.detail} for p in self.premises
            },
            "conclusion": self.conclusion_holds,
            "outcome": self.outcome,
            "witnesses": [list(w) for w in self.witnesses],
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json_dict()
        return out


@dataclass(frozen=True)
class RhoValue:
    """Penalty in {0, 1, 2} for factors avoiding a fixed edge uv, by where
    u and v sit relative to S, the low-degree set T' of (G-e)-S, and the
    rest W'."""

    value: int
    case: str
    u_location: str
    v_location: str


# -- premises -----------------------------------------------------------------


def _min_degree_premise(g: Graph, bound: int) -> Premise:
    d = g.min_degree()
    ok = d >= bound
    return Premise("min_degree", ok, f"min degree {d} {'>=' if ok else '<'} {bound}")


def _toughness_premise(g: Graph, thr, tag: str) -> Premise:
    val = isolated_toughness(g).value
    ok = val >= thr
    return Premise(
        "toughness", ok, f"I(G) = {val} {'>=' if ok else '<'} {thr} (threshold {tag})"
    )


def _degree_and_toughness(tag: str):
    """Premises of A, C and D1: minimum degree a+n and the tag's
    toughness threshold."""

    def premises(g: Graph, *, a, b, n, k, **_) -> tuple[Premise, ...]:
        return (
            _min_degree_premise(g, a + n),
            _toughness_premise(g, threshold(tag, a=a, b=b, n=n, k=k), tag),
        )

    return premises


def _star_premises(g: Graph, *, m, n, **_) -> tuple[Premise, ...]:
    in_range = 1 <= n and 2 * n <= m
    premises = [
        Premise("n_range", in_range, f"requires 1 <= n <= m/2: n={n}, m={m}"),
        _min_degree_premise(g, 1 + n),
    ]
    if m > n:
        # Fraction(1, m-n) equals threshold("B") whenever n is in range
        premises.append(_toughness_premise(g, Fraction(1, m - n), "B"))
    else:
        premises.append(
            Premise("toughness", False, f"threshold 1/(m-n) undefined for m={m}, n={n}")
        )
    return tuple(premises)


def _pair_premises(
    g: Graph, *, a, b, with_pair_deletions, **_
) -> tuple[Premise, ...]:
    min_deg = _min_degree_premise(g, a + 2)
    if not with_pair_deletions:
        return (min_deg,)
    if min_deg.holds:
        return (min_deg, _pair_deletion_premise(g, a, b))
    return (
        min_deg,
        Premise(
            "pair_deletions", False, "not evaluated: the minimum-degree premise already fails"
        ),
    )


@dataclass(frozen=True)
class Theorem:
    """One statement as the campaign and the CLI run it.

    ``check`` names the check function of this module.  It is looked up
    when ``run`` is called, so a replaced module attribute is the one
    that runs.  ``params`` are its positional parameters after the graph
    and ``limits`` the caps it takes by keyword, ``cap_n`` only for D1,
    which scans subsets.  ``premises`` gives the recorded hypotheses for
    ``theorem_premises``.  ``axes`` is the campaign grid, empty for a
    statement the campaign does not run: the config field
    ``<tag>_<axis>`` lists the values, ``ab`` gives a and b together, and
    ``k`` may be the symbolic ``b``.  ``in_grid`` drops cells whose
    parameters no graph can satisfy.  ``mode`` is the ``avoid --mode``
    that runs the statement, if any.
    """

    tag: str
    check: str
    params: tuple[str, ...]
    limits: tuple[str, ...]
    premises: Callable[..., tuple[Premise, ...]]
    axes: tuple[str, ...] = ()
    in_grid: Callable[[dict], bool] = lambda params: True
    mode: str | None = None

    def run(self, g: Graph, params: dict, **limits) -> AvoidanceVerdict:
        check = globals()[self.check]
        return check(
            g, *(params[p] for p in self.params), **{k: limits[k] for k in self.limits}
        )


_DELETIONS = ("cap_deletions",)

THEOREMS = {
    t.tag: t
    for t in (
        Theorem("A", "check_vertex_deletion_all", ("a", "b", "n"), _DELETIONS,
                _degree_and_toughness("A"), ("ab", "n"), mode="vertices"),
        Theorem("B", "check_edge_deletion_star", ("m", "n"), _DELETIONS,
                _star_premises, ("m", "n"), lambda p: 2 * p["n"] <= p["m"], mode="edges"),
        Theorem("C", "check_matching_deletion", ("a", "b", "n"), _DELETIONS,
                _degree_and_toughness("C"), ("ab", "n"), mode="matching"),
        Theorem("D", "check_theorem_D", ("a", "b", "n"), _DELETIONS,
                lambda g, *, a, n, **_: (_min_degree_premise(g, a + n),), ("ab", "n")),
        Theorem("E", "check_theorem_E", ("a", "b"), _DELETIONS, _pair_premises, ("ab",)),
        Theorem("D1", "check_lemma_D1", ("a", "b", "n", "k"), ("cap_n",),
                _degree_and_toughness("D1"), ("ab", "n", "k")),
        Theorem("LemmaH", "check_edge_avoiding", ("edge", "a", "b"), (),
                lambda g, **_: (), mode="edge"),
    )
}


def theorem_premises(
    tag: str,
    g: Graph,
    *,
    a: int | None = None,
    b: int | None = None,
    n: int | None = None,
    m: int | None = None,
    k: int | None = None,
    with_pair_deletions: bool = True,
) -> tuple[Premise, ...]:
    """The recorded hypotheses of one named statement on one graph."""
    if tag not in THEOREMS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    return THEOREMS[tag].premises(
        g, a=a, b=b, n=n, m=m, k=k, with_pair_deletions=with_pair_deletions
    )


def _pair_deletion_premise(g: Graph, a: int, b: int) -> Premise:
    refusal = _first_counterexample(
        g, _vertex_deletions(g, 2), partial(check_ab_factor, a=a, b=b)
    )
    if refusal is not None:
        u, v = refusal.deletion.members
        return Premise(
            "pair_deletions", False, f"G - {{{u}, {v}}} admits no [{a},{b}]-factor"
        )
    total = comb(g.n, 2)
    return Premise(
        "pair_deletions", True, f"all {total} vertex-pair deletions admit [{a},{b}]-factors"
    )


# -- shared route helpers ------------------------------------------------------


def _check_params(params: dict) -> None:
    """Raise ``ValueError`` unless every parameter in ``params`` lies in
    the range its statement is proved for: 1 <= a < b, m >= 2, n >= 1
    and 2 <= k <= b.  Other keys are not checked."""
    if "a" in params and not 1 <= params["a"] < params["b"]:
        raise ValueError(f"need 1 <= a < b, got a={params['a']}, b={params['b']}")
    for name, low in (("m", 2), ("n", 1)):
        if name in params and params[name] < low:
            raise ValueError(f"{name} must be >= {low}, got {params[name]}")
    if "k" in params and not 2 <= params["k"] <= params["b"]:
        raise ValueError(f"need 2 <= k <= b, got k={params['k']}, b={params['b']}")


def _gate(
    g: Graph, params: dict, deletions: Callable[[], int | Iterable] = lambda: 0,
    cap_deletions: int = 0, what: str = "deletions", cap_n: int | None = None,
) -> list | None:
    """The one range and cap check of every statement, run before any
    premise or deletion work: ``params`` first, then a negative cap is
    refused, then the order of ``g`` is checked against ``cap_n`` where
    subsets are scanned (D1), then the deleted objects against
    ``cap_deletions``.
    ``deletions()`` is called only once the parameters and caps pass.  It
    returns their number, or a lazy iterable of them, which is drawn at
    most ``cap_deletions + 1`` times; the drawn list is then returned."""
    _check_params(params)
    for name, cap in (("cap_n", cap_n), ("cap_deletions", cap_deletions)):
        if cap is not None and cap < 0:
            raise ValueError(f"{name} must be >= 0, got {cap}")
    if cap_n is not None and g.n > cap_n:
        raise CapExceeded(f"subset enumeration capped at {cap_n} vertices, got {g.n}")
    count = deletions()
    drawn = None
    if not isinstance(count, int):
        drawn = list(islice(count, cap_deletions + 1))
        count = len(drawn)
    if count > cap_deletions:
        many = count if drawn is None else f"more than {cap_deletions}"
        raise CapExceeded(f"{many} {what} exceed the cap of {cap_deletions}")
    return drawn


def _lifted_refusal(v: FactorViolation, labels: Sequence[int]) -> FactorCertificate:
    """The refusal certified by a violation of a deleted graph, in the
    labels of the original graph."""
    return FactorCertificate(False, violation=FactorViolation(
        tuple(labels[x] for x in v.s), tuple(labels[x] for x in v.t), v.delta, v.bound,
    ))


def _vertex_deletions(g: Graph, size: int) -> Iterable[DeletionSpec]:
    return (DeletionSpec.vertices(vs) for vs in combinations(range(g.n), size))


def _first_counterexample(
    g: Graph, specs: Iterable[DeletionSpec], decide: Callable[[Graph], FactorCertificate]
) -> Counterexample | None:
    """The one refusal loop: the first deletion, in the order given, whose
    deleted graph ``decide`` refuses, with the refusal's violation lifted
    to the labels of G, or None.  ``decide`` is ``check_ab_factor`` or
    ``find_ab_factor`` with a and b bound; both certify a refusal by the S
    of the flow's least minimum cut and raise where its deficiency is not
    negative."""
    for spec in specs:
        res = delete(g, spec)
        cert = decide(res.graph)
        if not cert.exists:
            return Counterexample(spec, _lifted_refusal(cert.violation, res.original_labels))
    return None


# -- vertex deletion -------------------------------------------------------------


def check_vertex_deletion_all(
    g: Graph,
    a: int,
    b: int,
    n: int,
    *,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """Does G - V' have an [a,b]-factor for every n-subset V'?

    Every n-subset is enumerated, at most ``cap_deletions`` of them, and
    each G - V' is decided by ``find_ab_factor``, in polynomial time at
    any order: a factor it returns has passed ``FactorCertificate.verify``,
    and a refusal carries the S of the flow's least minimum cut, whose
    deficiency has been re-checked.  The first refusal is the
    counterexample.  Since delta_G(V' u S) = delta_{G-V'}(S) + b*n, some
    G - V' is refused exactly when some S with |S| >= n has deficiency
    below b*n in G, the criterion the tests scan as an oracle.
    """
    params = {"a": a, "b": b, "n": n}
    _gate(g, params, lambda: comb(g.n, n), cap_deletions)
    premises = theorem_premises("A", g, a=a, b=b, n=n)
    counterexample = _first_counterexample(
        g, _vertex_deletions(g, n), partial(find_ab_factor, a=a, b=b)
    )
    return AvoidanceVerdict("A", params, premises, counterexample is None, counterexample)


def extremal_sharpness(
    m: int, a: int, b: int, n: int
) -> tuple[ExtremalWitness, Fraction, Counterexample | None]:
    """The sharpness construction for A: H(m,a,b,n), the toughness
    threshold of A at (a, b, n), and the refutation of an [a,b]-factor of
    H - V0 for H's default deletion V0, or None when there is none.

    H - V0 is decided by ``check_ab_factor``.  The small clique W is the
    paper's witness, evaluated in H's labels by
    delta_{H-V0}(W) = delta_H(W u V0) - b*n; where it violates, it
    certifies the refusal, and a flow that finds a factor there raises.
    Otherwise a refusal carries the flow's S.  No premise is evaluated;
    I(H) < threshold is what the construction shows, and the witness ratio
    bounds it from above.  A campaign's extremal rows add the premises.
    A quad whose H has no V0 is refused before H is built."""
    sharpness_order(m, a, b, n)
    w = build_extremal_H(m, a, b, n)
    thr = threshold("A", a=a, b=b, n=n)
    v0 = w.default_v0()
    spec = DeletionSpec.vertices(v0)
    res = delete(w.graph, spec)
    cert = check_ab_factor(res.graph, a, b)
    deleted = w.clique_small + v0
    d = delta(w.graph, deleted, a, b) - b * n
    if d < 0:
        if cert.exists:
            raise RuntimeError(
                "witness claims a violation but the flow decision finds a factor"
            )
        viol = FactorViolation(w.clique_small, low_set(w.graph, deleted, a), d, 0)
        return w, thr, Counterexample(spec, FactorCertificate(False, violation=viol))
    if cert.exists:
        return w, thr, None
    return w, thr, Counterexample(spec, _lifted_refusal(cert.violation, res.original_labels))


# -- edge deletion (star factors) ---------------------------------------------------


def check_edge_deletion_star(
    g: Graph,
    m: int,
    n: int,
    *,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """Does G - E' have a spanning star forest with star sizes 1..m for
    every n-subset E' of edges?  The statement is proved for
    1 <= n <= m/2, so m >= 2 and the forest is a [1,m]-factor: each
    G - E' is decided by ``check_ab_factor`` in the shared refusal loop,
    and a refusal carries the S of the refusing flow."""
    params = {"m": m, "n": n}
    _gate(g, params, lambda: comb(g.edge_count, n), cap_deletions)
    premises = theorem_premises("B", g, m=m, n=n)
    specs = map(DeletionSpec.edges, combinations(g.edges, n))
    counterexample = _first_counterexample(g, specs, partial(check_ab_factor, a=1, b=m))
    return AvoidanceVerdict(
        "B", params, premises, counterexample is None, counterexample
    )


# -- matching deletion ---------------------------------------------------------------


def enumerate_matchings(g: Graph, size: int) -> list[tuple[tuple[int, int], ...]]:
    """All matchings of exactly ``size`` edges, by lexicographic
    backtracking over the edge list."""
    if size < 0:
        raise ValueError("matching size must be nonnegative")
    return list(_matchings(g, size))


def _matchings(g: Graph, size: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of ``enumerate_matchings``, lazily and in its order."""
    edges = g.edges
    cur: list[tuple[int, int]] = []

    def rec(start: int, used: int):
        if len(cur) == size:
            yield tuple(cur)
            return
        for i in range(start, len(edges)):
            u, v = edges[i]
            if used >> u & 1 or used >> v & 1:
                continue
            cur.append(edges[i])
            yield from rec(i + 1, used | 1 << u | 1 << v)
            cur.pop()

    return rec(0, 0)


def check_matching_deletion(
    g: Graph,
    a: int,
    b: int,
    n: int,
    *,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """Does G - M have an [a,b]-factor for every n-matching M?  The
    matchings are drawn lazily, so a family beyond ``cap_deletions`` is
    refused after ``cap_deletions + 1`` of them."""
    params = {"a": a, "b": b, "n": n}
    matchings = _gate(g, params, partial(_matchings, g, n), cap_deletions, "matchings")
    premises = theorem_premises("C", g, a=a, b=b, n=n)
    counterexample = _first_counterexample(
        g, map(DeletionSpec.matching, matchings), partial(check_ab_factor, a=a, b=b)
    )
    return AvoidanceVerdict(
        "C", params, premises, counterexample is None, counterexample
    )


# -- single-edge avoidance -------------------------------------------------------------


def rho(g: Graph, e: tuple[int, int], s: Sequence[int], a: int, b: int) -> RhoValue:
    """The 0/1/2 penalty at S for factors avoiding the edge e = uv: 2 when
    both endpoints land in the low-degree set T' of (G-e)-S, 1 when one is
    in T' and the other in W' = G-(S u T'), else 0 (including endpoints
    inside S).  Only the lower bound a enters the classification."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    g_prime = delete_edges(g, [e])
    t_prime = set(low_set(g_prime, s, a))
    s_set = set(s)

    def locate(x: int) -> str:
        if x in s_set:
            return "S"
        return "T'" if x in t_prime else "W'"

    lu, lv = locate(u), locate(v)
    if lu == lv == "T'":
        return RhoValue(2, "both endpoints in T'", lu, lv)
    if {lu, lv} == {"T'", "W'"}:
        return RhoValue(1, "one endpoint in T', the other in W'", lu, lv)
    return RhoValue(0, "otherwise", lu, lv)


def check_edge_avoiding(
    g: Graph,
    e: tuple[int, int],
    a: int,
    b: int,
) -> AvoidanceVerdict:
    """Does G have an [a,b]-factor avoiding the fixed edge e?

    ``find_ab_factor`` decides G - e by the double-cover flow and
    re-verifies the factor it builds.  A refusal is certified by the S of
    the flow's least minimum cut in G - e.  Since
    delta_{G-e}(S) = delta_G(S) - rho(S) for every S, the deficiency of
    that S in G falls below the penalty rho(S) of Lemma H."""
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    params = {"a": a, "b": b, "edge": [u, v]}
    _check_params(params)  # before the edge test
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    counterexample = _first_counterexample(
        g, [DeletionSpec.edge(u, v)], partial(find_ab_factor, a=a, b=b)
    )
    return AvoidanceVerdict("LemmaH", params, (), counterexample is None, counterexample)


# -- hierarchy and pair-deletion statements ----------------------------------------------


def check_theorem_D(
    g: Graph,
    a: int,
    b: int,
    n: int,
    *,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """If every n-subset deletion leaves an [a,b]-factor, so does every
    (n-1)-subset deletion.  The antecedent is recorded as a premise, so a
    false antecedent reports as vacuous."""
    params = {"a": a, "b": b, "n": n}
    _gate(g, params, lambda: comb(g.n, n) + comb(g.n, n - 1), cap_deletions)
    premises = list(theorem_premises("D", g, a=a, b=b, n=n))
    decide = partial(check_ab_factor, a=a, b=b)
    antecedent_fail = _first_counterexample(g, _vertex_deletions(g, n), decide)
    if antecedent_fail is None:
        premises.append(
            Premise("antecedent", True, f"all {comb(g.n, n)} {n}-subset deletions admit factors")
        )
    else:
        premises.append(
            Premise(
                "antecedent",
                False,
                f"G - {list(antecedent_fail.deletion.members)} admits no [{a},{b}]-factor",
            )
        )
    consequent_fail = _first_counterexample(g, _vertex_deletions(g, n - 1), decide)
    return AvoidanceVerdict(
        "D",
        params,
        tuple(premises),
        consequent_fail is None,
        consequent_fail,
    )


def check_theorem_E(
    g: Graph,
    a: int,
    b: int,
    *,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """If the minimum degree reaches a+2 and G minus any vertex pair still
    has an [a,b]-factor, then G - e has one for every edge e.  The C(n,2)
    pair deletions of the premise must fit ``cap_deletions``; the |E| <=
    C(n,2) edge deletions of the conclusion then fit as well."""
    params = {"a": a, "b": b}
    _gate(g, params, lambda: comb(g.n, 2), cap_deletions)
    premises = theorem_premises("E", g, a=a, b=b)
    counterexample = _first_counterexample(
        g, (DeletionSpec.edge(*e) for e in g.edges), partial(check_ab_factor, a=a, b=b)
    )
    return AvoidanceVerdict(
        "E", params, premises, counterexample is None, counterexample
    )


def check_lemma_D1(
    g: Graph,
    a: int,
    b: int,
    n: int,
    k: int,
    *,
    cap_n: int = DEFAULT_CAP_N,
) -> AvoidanceVerdict:
    """Under the stated degree and toughness premises, the deficiency of
    every S with nonempty low-degree set reaches k*n."""
    params = {"a": a, "b": b, "n": n, "k": k}
    _gate(g, params, cap_n=cap_n)
    premises = theorem_premises("D1", g, a=a, b=b, n=n, k=k)
    violation = scan_deficiency(
        g, a, b, bound=k * n, min_size=0, require_t=True, cap_n=cap_n
    )
    if violation is None:
        return AvoidanceVerdict("LemmaD1", params, premises, True, None)
    cert = FactorCertificate(False, violation=violation)
    return AvoidanceVerdict(
        "LemmaD1", params, premises, False, Counterexample(None, cert)
    )
