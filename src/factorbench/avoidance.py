"""Deletion-avoiding factor checks.

Each check evaluates a conditional statement on a concrete graph: the
premises (minimum degree, isolated-toughness bound, parameter ranges) are
recorded one by one, the conclusion is verified by exhaustive enumeration
of the deleted objects, and any failure is returned as a re-verifiable
certificate.  Each deleted graph is decided by the double-cover flow, and
a refusal is certified by its first violating set.  A factor the flow
builds is re-verified, and wherever an independent criterion route
exists alongside the direct route, the two must agree; a disagreement is
a bug, not a verdict.
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
    DEFAULT_SEARCH_BUDGET,
    DegreeBounds,
    FactorCertificate,
    FactorViolation,
    _certify_refusal,
    check_star_factor,
    deficient_sets,
    delta,
    find_ab_factor,
    low_set,
    scan_deficiency,
)
from .flow import ab_factor_exists
from .graphs import (
    DeletionSpec, DeletionResult, ExtremalWitness, Graph, build_extremal_H, delete, delete_edges,
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
            "params": dict(self.params),
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
    and ``limits`` the caps it takes by keyword.  ``premises`` gives the
    recorded hypotheses for ``theorem_premises``.  ``axes`` is the
    campaign grid, empty for a statement the campaign does not run: the
    config field ``<tag>_<axis>`` lists the values, ``ab`` gives a and b
    together, and ``k`` may be the symbolic ``b``.  ``in_grid`` drops
    cells whose parameters no graph can satisfy.  ``mode`` is the
    ``avoid --mode`` that runs the statement, if any.
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


_CAPS = ("cap_n", "cap_deletions")

THEOREMS = {
    t.tag: t
    for t in (
        Theorem("A", "check_vertex_deletion_all", ("a", "b", "n"), _CAPS,
                _degree_and_toughness("A"), ("ab", "n"), mode="vertices"),
        Theorem("B", "check_edge_deletion_star", ("m", "n"), (*_CAPS, "budget"),
                _star_premises, ("m", "n"), lambda p: 2 * p["n"] <= p["m"], mode="edges"),
        Theorem("C", "check_matching_deletion", ("a", "b", "n"), _CAPS,
                _degree_and_toughness("C"), ("ab", "n"), mode="matching"),
        Theorem("D", "check_theorem_D", ("a", "b", "n"), _CAPS,
                lambda g, *, a, n, **_: (_min_degree_premise(g, a + n),), ("ab", "n")),
        Theorem("E", "check_theorem_E", ("a", "b"), _CAPS, _pair_premises, ("ab",)),
        Theorem("D1", "check_lemma_D1", ("a", "b", "n", "k"), ("cap_n",),
                _degree_and_toughness("D1"), ("ab", "n", "k")),
        Theorem("LemmaH", "check_edge_avoiding", ("edge", "a", "b"), ("cap_n",),
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
    refusal = _first_refusal(g, _vertex_deletions(g, 2), a, b)
    if refusal is not None:
        u, v = refusal[0].members
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
    the range its statement is proved for: 1 <= a < b, m >= 1, n >= 1
    and 2 <= k <= b.  Other keys are not checked."""
    if "a" in params and not 1 <= params["a"] < params["b"]:
        raise ValueError(f"need 1 <= a < b, got a={params['a']}, b={params['b']}")
    for name in ("m", "n"):
        if name in params and params[name] < 1:
            raise ValueError(f"{name} must be >= 1, got {params[name]}")
    if "k" in params and not 2 <= params["k"] <= params["b"]:
        raise ValueError(f"need 2 <= k <= b, got k={params['k']}, b={params['b']}")


def _gate(
    g: Graph, params: dict, cap_n: int, deletions: Callable[[], int | Iterable] = lambda: 0,
    cap_deletions: int = 0, what: str = "deletions",
) -> list | None:
    """The one range and cap check of every statement, run before any
    premise or deletion work: ``params`` first, then the order of ``g``
    against ``cap_n``, then the deleted objects against ``cap_deletions``.
    ``deletions()`` is called only once the parameters are in range.  It
    returns their number, or a lazy iterable of them, which is drawn at
    most ``cap_deletions + 1`` times; the drawn list is then returned."""
    _check_params(params)
    if g.n > cap_n:
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


def _lift_violation(v: FactorViolation, labels: Sequence[int]) -> FactorViolation:
    return FactorViolation(
        tuple(labels[x] for x in v.s),
        tuple(labels[x] for x in v.t),
        v.delta,
        v.bound,
    )


def _refusal_cert(g_del: Graph, labels, a: int, b: int, cap_n: int) -> FactorCertificate:
    """Certificate for a deleted graph without an [a,b]-factor: its first
    violating S, lifted to original labels."""
    violation = _certify_refusal(g_del, DegreeBounds.uniform(a, b, g_del.n), cap_n)
    return FactorCertificate(False, violation=_lift_violation(violation, labels))


def _vertex_deletions(g: Graph, size: int) -> Iterable[DeletionSpec]:
    return (DeletionSpec.vertices(vs) for vs in combinations(range(g.n), size))


def _first_refusal(
    g: Graph, specs: Iterable[DeletionSpec], a: int, b: int
) -> tuple[DeletionSpec, DeletionResult] | None:
    """The first deletion, in the order given, whose deleted graph the
    double-cover flow refuses an [a,b]-factor, or None."""
    for spec in specs:
        res = delete(g, spec)
        if not ab_factor_exists(res.graph, a, b):
            return spec, res
    return None


def _first_counterexample(
    g: Graph, specs: Iterable[DeletionSpec], a: int, b: int, cap_n: int
) -> Counterexample | None:
    """``_first_refusal``, certified by the first violating S of the
    refused deleted graph."""
    refusal = _first_refusal(g, specs, a, b)
    if refusal is None:
        return None
    spec, res = refusal
    return Counterexample(spec, _refusal_cert(res.graph, res.original_labels, a, b, cap_n))


# -- vertex deletion -------------------------------------------------------------


def check_vertex_deletion_all(
    g: Graph,
    a: int,
    b: int,
    n: int,
    *,
    deletions: Iterable[Sequence[int]] | None = None,
    witnesses: Iterable[Sequence[int]] | None = None,
    cap_n: int = DEFAULT_CAP_N,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """Does G - V' have an [a,b]-factor for every n-subset V'?

    Default mode enumerates every n-subset and runs two independent
    routes: the direct one decides each G - V' by the double-cover flow,
    and the criterion one demands deficiency >= b*n for every S with
    |S| >= n (each such S contains an n-subset, and conversely).  The two
    verdicts must agree.

    Explicit ``deletions`` restrict the check to chosen n-subsets, e.g.
    the deletion exhibited by the sharpness construction; optional
    ``witnesses`` are candidate violating sets evaluated inside each
    deleted graph, which refute existence without a global scan.  Each
    chosen deletion is also decided by the double-cover flow, which must
    refuse wherever a witness violates; a refusal no witness explains is
    certified by the deficiency scan when G - V' fits ``cap_n``.
    """
    params = {"a": a, "b": b, "n": n}
    if deletions is None:
        _gate(g, params, cap_n, lambda: comb(g.n, n), cap_deletions)
        decide = partial(_vertex_deletion_full, g, a, b, n, cap_n)
    else:
        _check_params(params)
        specs, witness_sets = _targeted_inputs(g, n, deletions, witnesses)
        decide = partial(_vertex_deletion_targeted, g, a, b, specs, witness_sets, cap_n)
    premises = theorem_premises("A", g, a=a, b=b, n=n)
    conclusion, counterexample, witnesses_out = decide()
    return AvoidanceVerdict(
        "A", params, premises, conclusion, counterexample, witnesses_out
    )


def _vertex_deletion_full(g, a, b, n, cap_n):
    direct_failure = _first_counterexample(g, _vertex_deletions(g, n), a, b, cap_n)
    violation = scan_deficiency(g, a, b, bound=b * n, min_size=n, cap_n=cap_n)
    if (direct_failure is None) != (violation is None):
        raise RuntimeError(
            "direct and criterion routes disagree on vertex deletions; "
            f"direct={direct_failure}, criterion={violation}"
        )
    witnesses = (violation.s,) if violation is not None and violation.s else ()
    return direct_failure is None, direct_failure, witnesses


def _targeted_inputs(g, n, deletions, witnesses):
    """The chosen deletions as specs and the witnesses as sorted tuples,
    each checked against G before any premise or deletion work."""
    witness_sets = tuple(tuple(sorted(w)) for w in witnesses or ())
    for w in witness_sets:
        DeletionSpec.vertices(w).validate(g)
    specs = []
    for raw in deletions:
        v0 = tuple(sorted(set(raw)))
        if len(v0) != n:
            raise ValueError(f"deletion {v0} is not an n-subset for n={n}")
        spec = DeletionSpec.vertices(v0)
        spec.validate(g)
        for w in witness_sets:
            if set(w) & set(v0):
                raise ValueError(f"witness {w} intersects the deleted set {v0}")
        specs.append(spec)
    return specs, witness_sets


def _vertex_deletion_targeted(g, a, b, specs, witness_sets, cap_n):
    for spec in specs:
        res = delete(g, spec)
        index = {old: new for new, old in enumerate(res.original_labels)}
        refuted = None
        for w in witness_sets:
            s_local = tuple(index[x] for x in w)
            d = delta(res.graph, s_local, a, b)
            if d < 0:
                viol = FactorViolation(s_local, low_set(res.graph, s_local, a), d, 0)
                refuted = Counterexample(
                    spec,
                    FactorCertificate(
                        False, violation=_lift_violation(viol, res.original_labels)
                    ),
                )
                break
        exists = ab_factor_exists(res.graph, a, b)
        if refuted is None:
            if not exists:
                cert = (
                    _refusal_cert(res.graph, res.original_labels, a, b, cap_n)
                    if res.graph.n <= cap_n
                    else FactorCertificate(False)
                )
                refuted = Counterexample(spec, cert)
        elif exists:
            raise RuntimeError(
                "witness claims a violation but the flow decision finds a factor"
            )
        if refuted is not None:
            return False, refuted, witness_sets
    return True, None, witness_sets


def extremal_sharpness(
    m: int, a: int, b: int, n: int, *, cap_n: int = DEFAULT_CAP_N
) -> tuple[ExtremalWitness, Fraction, AvoidanceVerdict]:
    """The sharpness construction for A: H(m,a,b,n), the toughness
    threshold of A at (a, b, n), and targeted A on H's default deletion V0
    with its small clique as the witness, which must refute the factor."""
    w = build_extremal_H(m, a, b, n)
    verdict = check_vertex_deletion_all(
        w.graph, a, b, n,
        deletions=[w.default_v0()],
        witnesses=[w.clique_small],
        cap_n=cap_n,
    )
    return w, threshold("A", a=a, b=b, n=n), verdict


# -- edge deletion (star factors) ---------------------------------------------------


def check_edge_deletion_star(
    g: Graph,
    m: int,
    n: int,
    *,
    cap_n: int = DEFAULT_CAP_N,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> AvoidanceVerdict:
    """Does G - E' have a spanning star forest with star sizes 1..m for
    every n-subset E' of edges?  For m >= 2 the forest is a [1,m]-factor,
    so each G - E' is decided by the double-cover flow in the shared
    refusal loop and a refusal carries its first violating S.  For m = 1,
    a perfect matching, the constructive search under ``budget`` decides,
    and the odd-component criterion must refuse as well."""
    params = {"m": m, "n": n}
    _gate(g, params, cap_n, lambda: comb(g.edge_count, n), cap_deletions)
    premises = theorem_premises("B", g, m=m, n=n)
    specs = map(DeletionSpec.edges, combinations(g.edges, n))
    if m >= 2:
        counterexample = _first_counterexample(g, specs, 1, m, cap_n)
    else:
        counterexample = None
        for spec in specs:
            h = delete(g, spec).graph
            if find_ab_factor(h, 1, 1, budget=budget, cert_cap=0).exists:
                continue
            if check_star_factor(h, 1, cap_n=cap_n).exists:
                raise RuntimeError(
                    f"criterion and constructive matching routes disagree on {spec.members}"
                )
            # a missing perfect matching carries no deficiency certificate
            counterexample = Counterexample(spec, FactorCertificate(False))
            break
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
    cap_n: int = DEFAULT_CAP_N,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """Does G - M have an [a,b]-factor for every n-matching M?  The
    matchings are drawn lazily, so a family beyond ``cap_deletions`` is
    refused after ``cap_deletions + 1`` of them."""
    params = {"a": a, "b": b, "n": n}
    matchings = _gate(
        g, params, cap_n, partial(_matchings, g, n), cap_deletions, "matchings"
    )
    premises = theorem_premises("C", g, a=a, b=b, n=n)
    counterexample = _first_counterexample(
        g, map(DeletionSpec.matching, matchings), a, b, cap_n
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
    *,
    cap_n: int = DEFAULT_CAP_N,
) -> AvoidanceVerdict:
    """Does G have an [a,b]-factor avoiding the fixed edge e?

    ``find_ab_factor`` decides G - e by the double-cover flow and
    re-verifies the factor it builds.  A refusal is certified by the
    criterion route: the first S (size-then-lexicographic) whose deficiency
    in G falls below the penalty rho(S), reported with its deficiency in
    G - e."""
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    params = {"a": a, "b": b, "edge": [u, v]}
    _check_params(params)  # before the edge test, which comes before the cap
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    _gate(g, params, cap_n)
    g_prime = delete_edges(g, [(u, v)])
    if find_ab_factor(g_prime, a, b, cert_cap=0).exists:
        return AvoidanceVerdict("LemmaH", params, (), True, None)
    violation_s = _first_rho_violation(g, u, v, a, b)
    if violation_s is None:
        raise RuntimeError(
            f"criterion and flow routes disagree for edge ({u}, {v}): the flow "
            f"refuses an [{a},{b}]-factor but no S falls below rho"
        )
    # certificate in G - e at the failing S, where the plain criterion applies
    t_prime = low_set(g_prime, violation_s, a)
    d_prime = delta(g_prime, violation_s, a, b)
    if d_prime >= 0:
        raise RuntimeError(
            f"S={violation_s} falls below rho in G but has deficiency "
            f"{d_prime} >= 0 in G - e"
        )
    cert = FactorCertificate(
        False, violation=FactorViolation(violation_s, t_prime, d_prime, 0)
    )
    return AvoidanceVerdict(
        "LemmaH", params, (), False, Counterexample(DeletionSpec.edge(u, v), cert)
    )


def _first_rho_violation(
    g: Graph, u: int, v: int, a: int, b: int
) -> tuple[int, ...] | None:
    """First S (size-then-lexicographic order) whose deficiency in G falls
    below rho(S) for the edge uv, or None.  Since rho <= 2, only the S of
    deficiency below 2 are read.  With u, v outside S their degrees in
    (G-e)-S are their degrees in G-S minus one."""
    adj = g.adj
    uv = 1 << u | 1 << v
    for s, keep, _, d in deficient_sets(g, DegreeBounds.uniform(a, b, g.n), bound=2):
        penalty = 0
        if keep & uv == uv:
            # x in T' iff deg_{G-S}(x) - 1 <= a - 1
            penalty = ((adj[u] & keep).bit_count() <= a) + (
                (adj[v] & keep).bit_count() <= a
            )
        if d < penalty:
            return s
    return None


# -- hierarchy and pair-deletion statements ----------------------------------------------


def check_theorem_D(
    g: Graph,
    a: int,
    b: int,
    n: int,
    *,
    cap_n: int = DEFAULT_CAP_N,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """If every n-subset deletion leaves an [a,b]-factor, so does every
    (n-1)-subset deletion.  The antecedent is recorded as a premise, so a
    false antecedent reports as vacuous."""
    params = {"a": a, "b": b, "n": n}
    _gate(g, params, cap_n, lambda: comb(g.n, n) + comb(g.n, n - 1), cap_deletions)
    premises = list(theorem_premises("D", g, a=a, b=b, n=n))
    # the antecedent is only recorded, so its refusal needs no certificate
    antecedent_fail = _first_refusal(g, _vertex_deletions(g, n), a, b)
    if antecedent_fail is None:
        premises.append(
            Premise("antecedent", True, f"all {comb(g.n, n)} {n}-subset deletions admit factors")
        )
    else:
        premises.append(
            Premise(
                "antecedent",
                False,
                f"G - {list(antecedent_fail[0].members)} admits no [{a},{b}]-factor",
            )
        )
    consequent_fail = _first_counterexample(g, _vertex_deletions(g, n - 1), a, b, cap_n)
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
    cap_n: int = DEFAULT_CAP_N,
    cap_deletions: int = DEFAULT_CAP_DELETIONS,
) -> AvoidanceVerdict:
    """If the minimum degree reaches a+2 and G minus any vertex pair still
    has an [a,b]-factor, then G - e has one for every edge e.  The C(n,2)
    pair deletions of the premise must fit ``cap_deletions``; the |E| <=
    C(n,2) edge deletions of the conclusion then fit as well."""
    params = {"a": a, "b": b}
    _gate(g, params, cap_n, lambda: comb(g.n, 2), cap_deletions)
    premises = theorem_premises("E", g, a=a, b=b)
    counterexample = _first_counterexample(
        g, (DeletionSpec.edge(*e) for e in g.edges), a, b, cap_n
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
    _gate(g, params, cap_n)
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
