"""The three factorbench benchmark workloads.

Each workload is one process with one closed-loop client: the next call
into the package starts only after the previous one returned.  A workload
has a fixed unit of work, a *pass*, drawn from a pool of ``entries``
distinct passes; ``setup`` builds the pool's inputs from the seed,
``run_pass`` executes one entry and keeps every output, and ``check``
verifies the outputs after the timed phase has ended.

All calls go through module attributes (``fb.factors.check_ab_factor``)
looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter


@dataclass
class Pass:
    """Outputs of one pass of pool entry ``entry``.  ``ops`` are the
    operations completed, ``failed`` the indices of operations that raised
    a cap or budget error or returned a non-zero exit code."""

    entry: int
    wall_s: float
    ops: int
    outputs: list
    failed: set = field(default_factory=set)
    latencies: dict = field(default_factory=dict)  # kind -> [seconds]


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# -- campaign ---------------------------------------------------------------------


class Campaign:
    """``run_campaign`` with one worker on the criterion-4 cell grid.

    The paper's randomized verification: premise sampling, the
    deletion-avoiding checks, graph6 writing and report writing.  The seed
    shifts the candidate seed lists; the quota fixes the pass length.

    One pass runs one campaign per stratum (n, p) of the grid, each with
    the same quota per cell.  A single campaign over the whole grid keeps
    whichever sizes pass the premises first, so the seed would also pick
    the size mix, and the cost of a B(m=4, n=2) instance grows about
    35-fold from 7 to 10 vertices.  Fixing the mix leaves only the
    graphs to the seed.  Each pool entry draws from its own block of
    candidate seeds, so a round verifies ``entries`` times as many
    distinct graphs as one pass holds: the work of a pool of four entries
    still varies by a tenth from seed to seed.
    """

    name = "campaign"
    seeded = True
    SIZES = {"entries": 12, "quota": 1, "n": (7, 8, 9)}
    SEEDS_PER_CELL = 80
    P_LIST = (Fraction(3, 5), Fraction(3, 4), Fraction(17, 20))

    def setup(self, fb, seed: int, sizes: dict, workdir: Path) -> dict:
        entries = []
        for entry in range(sizes["entries"]):
            first = 1 + self.SEEDS_PER_CELL * (sizes["entries"] * seed + entry)
            entries.append(self._configs(fb, sizes, workdir / f"e{entry}", first))
        return {"fb": fb, "entries": entries,
                "seed_list": [entries[0][0].seed_list[0], entries[-1][0].seed_list[-1]]}

    def _configs(self, fb, sizes: dict, prefix: Path, first: int) -> list:
        configs = []
        for n in sizes["n"]:
            for p in self.P_LIST:
                stem = f"{prefix}-n{n}-p{p.numerator}_{p.denominator}"
                configs.append(fb.campaign.CampaignConfig(
                    theorems=("A", "B", "C", "E", "D1"),
                    n_min=n,
                    n_max=n,
                    p_list=(p,),
                    seed_list=tuple(range(first, first + self.SEEDS_PER_CELL)),
                    quota=sizes["quota"],
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
                    output_json=f"{stem}.json",
                    output_csv=f"{stem}.csv",
                ))
        for config in configs:
            config.validate()
        return configs

    def header(self, state: dict) -> dict:
        configs = state["entries"][0]
        return {
            "cells": len(configs[0].cells()),
            "strata": [[c.n_min, str(c.p_list[0])] for c in configs],
            "quota_per_stratum": configs[0].quota,
            "entries": len(state["entries"]),
            "seeds_per_entry": self.SEEDS_PER_CELL,
            "seed_list": state["seed_list"],
            "workers": 1,
        }

    def run_pass(self, state: dict, entry: int) -> Pass:
        fb = state["fb"]
        reports = []
        start = perf_counter()
        for config in state["entries"][entry]:
            reports.append(fb.campaign.run_campaign(config, workers=1))
        wall = perf_counter() - start
        rows = [row for report in reports for row in report.instances]
        failed = {i for i, row in enumerate(rows) if row["outcome"] == "capped"}
        return Pass(entry, wall, len(rows), reports, failed)

    def check(self, state: dict, p: Pass) -> tuple[list[str], set, str]:
        problems = []
        failed = set()
        bodies = []
        offset = 0
        for config, report in zip(state["entries"][p.entry], p.outputs):
            label = f"entry {p.entry} n={config.n_min} p={config.p_list[0]}"
            agg = report.aggregates
            for i, row in enumerate(report.instances):
                if row["outcome"] != "verified":
                    failed.add(offset + i)
                    problems.append(f"{label} instance {row['index']} {row['theorem']}: "
                                    f"{row['outcome']}")
            offset += len(report.instances)
            if report.counterexamples:
                problems.append(f"{label}: {len(report.counterexamples)} counterexamples")
            if agg["verified"] != agg["total"]:
                problems.append(f"{label}: verified {agg['verified']} != total {agg['total']}")
            # a repeated entry rewrites its files; only the timestamp may differ
            with open(config.output_json, encoding="ascii") as fh:
                written = json.load(fh)
            returned = json.loads(report.to_json())
            for doc in (written, returned):
                doc["header"].pop("timestamp")
            if written != returned:
                problems.append(f"{label}: written JSON report differs from the returned one")
            with open(config.output_csv, newline="", encoding="ascii") as fh:
                if len(list(csv.reader(fh))) != len(report.cells) + 1:
                    problems.append(f"{label}: CSV summary does not have one row per cell")
            bodies.append({k: v for k, v in report.to_json_dict().items() if k != "header"})
        return problems, failed, digest(bodies)


# -- sharpness ----------------------------------------------------------------------


class Sharpness:
    """In-process ``factorbench extremal`` for the nine criterion-3
    parameter sets, one pool entry each.  The extremal family is
    deterministic: no seed."""

    name = "sharpness"
    seeded = False
    SIZES = {"params": [(m, a, b, n) for a, b, n in ((2, 3, 1), (2, 4, 2), (3, 4, 1))
                        for m in (1, 2, 3)]}

    def setup(self, fb, seed: int, sizes: dict, workdir: Path) -> dict:
        argvs = [
            ["extremal", "--m", str(m), "--a", str(a), "--b", str(b), "--n", str(n)]
            for m, a, b, n in sizes["params"]
        ]
        return {"fb": fb, "params": list(sizes["params"]), "entries": argvs}

    def header(self, state: dict) -> dict:
        return {"instances": [list(q) for q in state["params"]], "entries": len(state["entries"])}

    def run_pass(self, state: dict, entry: int) -> Pass:
        fb = state["fb"]
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = fb.cli.main(state["entries"][entry])
        wall = perf_counter() - start
        return Pass(entry, wall, 1, [(code, buf.getvalue())], {0} if code != 0 else set())

    def check(self, state: dict, p: Pass) -> tuple[list[str], set, str]:
        m, a, b, n = state["params"][p.entry]
        code, text = p.outputs[0]
        try:
            payload = json.loads(text)
            errors = self._check_one(state["fb"], m, a, b, n, code, payload)
        except (ValueError, KeyError, TypeError) as exc:
            errors = [f"unreadable output ({exc})"]
        problems = [f"H({m},{a},{b},{n}): {e}" for e in errors]
        return problems, {0} if errors else set(), digest(p.outputs)

    @staticmethod
    def _check_one(fb, m, a, b, n, code, payload) -> list[str]:
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if payload["strictlyBelow"] is not True:
            errors.append("witness ratio is not strictly below the threshold")
        viol = payload["violation"]
        if sorted(viol["S"]) != payload["parts"]["cliqueSmall"]:
            errors.append("violating S is not the small clique")
        if not payload["identity"]["aT_minus_d"] > payload["identity"]["bS"]:
            errors.append("a|T| - d_{G-S}(T) does not exceed b|S|")
        h = fb.graphs.parse_graph6(payload["graph6"])
        if h != fb.graphs.build_extremal_H(m, a, b, n).graph:
            errors.append("emitted graph6 is not H(m,a,b,n)")
        # the violation is in the labels of H; re-verify it inside H - V0
        res = fb.graphs.delete_vertices(h, payload["v0"])
        local = {old: new for new, old in enumerate(res.original_labels)}
        cert = fb.factors.FactorCertificate(False, violation=fb.factors.FactorViolation(
            tuple(local[x] for x in viol["S"]),
            tuple(local[x] for x in viol["T"]),
            viol["delta"],
            0,
        ))
        if not cert.verify(res.graph, a, b):
            errors.append("violation certificate does not verify in H - V0")
        return errors


# -- certify --------------------------------------------------------------------------


KINDS = ("toughness", "factor", "edge")


def run_query(fb, query: tuple):
    """One certify query, mirroring one CLI subcommand: parse the graph6
    line, then decide.  Returns the program's output object."""
    kind, line, params = query
    g = fb.graphs.parse_graph6(line)
    if kind == "toughness":
        return fb.toughness.isolated_toughness(g)
    if kind == "factor":
        return fb.factors.check_ab_factor(g, params["a"], params["b"])
    return fb.avoidance.check_edge_avoiding(g, params["edge"], params["a"], params["b"])


class Certify:
    """A seeded stream of graph6 queries interleaved round-robin over
    toughness, factor and edge-avoidance decisions.  The stream is cut
    into ``entries`` consecutive chunks, one per pass; the percentiles
    cover the whole stream."""

    name = "certify"
    seeded = True
    SIZES = {"per_kind": 1000, "entries": 6, "crosscheck_per_kind": 10}
    TOUGHNESS_P = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5))
    FACTOR_P = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    EDGE_P = (Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    # The independent oracles are exponential: cross-check only inputs
    # inside their default caps.
    BRUTE_TOUGHNESS_MAX_N = 14
    BRUTE_FACTOR_MAX_EDGES = 25

    def setup(self, fb, seed: int, sizes: dict, workdir: Path) -> dict:
        rng = random.Random(f"certify:{seed}")
        gr = fb.graphs
        queries = []
        eligible = {k: [] for k in KINDS}  # queries inside the oracles' caps

        def add(kind, g, params, brute_ok):
            if brute_ok:
                eligible[kind].append(len(queries))
            queries.append((kind, gr.emit_graph6(g), params))

        for _ in range(sizes["per_kind"]):
            n = rng.randint(12, 22)
            g = gr.generate_random(n, rng.choice(self.TOUGHNESS_P), rng.randrange(1 << 32))
            add("toughness", g, {}, n <= self.BRUTE_TOUGHNESS_MAX_N)

            n = rng.randint(10, 14)
            a, b = rng.choice(((1, 2), (2, 3), (2, 4)))
            g = gr.generate_random(n, rng.choice(self.FACTOR_P), rng.randrange(1 << 32))
            add("factor", g, {"a": a, "b": b}, g.edge_count <= self.BRUTE_FACTOR_MAX_EDGES)

            n = rng.randint(8, 12)
            a, b = rng.choice(((1, 2), (2, 3)))
            p = rng.choice(self.EDGE_P)
            g = gr.generate_random(n, p, rng.randrange(1 << 32))
            while not g.edges:
                g = gr.generate_random(n, p, rng.randrange(1 << 32))
            add("edge", g, {"a": a, "b": b, "edge": rng.choice(g.edges)},
                g.edge_count - 1 <= self.BRUTE_FACTOR_MAX_EDGES)
        sample_rng = random.Random(f"crosscheck:{seed}")
        crosscheck = set()
        for kind in KINDS:
            k = min(sizes["crosscheck_per_kind"], len(eligible[kind]))
            crosscheck.update(sample_rng.sample(eligible[kind], k))
        chunk = -(-len(queries) // sizes["entries"])
        entries = [range(i, min(i + chunk, len(queries))) for i in range(0, len(queries), chunk)]
        return {"fb": fb, "queries": queries, "crosscheck": crosscheck, "entries": entries}

    def header(self, state: dict) -> dict:
        per_kind = {k: sum(q[0] == k for q in state["queries"]) for k in KINDS}
        return {"queries": per_kind, "crosscheck": len(state["crosscheck"]),
                "entries": len(state["entries"]), "queries_per_entry": len(state["entries"][0])}

    def run_pass(self, state: dict, entry: int) -> Pass:
        fb = state["fb"]
        budget_errors = (fb.errors.CapExceeded, fb.errors.SearchBudgetExceeded)
        outputs = []
        failed = set()
        latencies = {k: [] for k in KINDS}
        start = perf_counter()
        for i, query in enumerate(state["queries"][j] for j in state["entries"][entry]):
            t0 = perf_counter()
            try:
                out = run_query(fb, query)
            except budget_errors as exc:
                out = exc
                failed.add(i)
            latencies[query[0]].append(perf_counter() - t0)
            outputs.append(out)
        wall = perf_counter() - start
        return Pass(entry, wall, len(outputs), outputs, failed, latencies)

    def check(self, state: dict, p: Pass) -> tuple[list[str], set, str]:
        fb = state["fb"]
        problems = []
        failed = set()
        canonical = []
        for i, (j, out) in enumerate(zip(state["entries"][p.entry], p.outputs)):
            query = state["queries"][j]
            if i in p.failed:
                canonical.append(repr(out))
                continue
            canonical.append(self._canonical(query[0], out))
            if not self._verify(fb, query, out):
                failed.add(i)
                problems.append(f"query {j} ({query[0]}): certificate does not verify")
            elif j in state["crosscheck"] and not self._oracle_agrees(fb, query, out):
                failed.add(i)
                problems.append(f"query {j} ({query[0]}): brute-force oracle disagrees")
        return problems, failed, digest(canonical)

    @staticmethod
    def _canonical(kind: str, out):
        if kind == "toughness":
            return [str(out.value), list(out.witness), out.isolated_at_witness]
        return out.to_json_dict()

    @staticmethod
    def _verify(fb, query, out) -> bool:
        kind, line, params = query
        g = fb.graphs.parse_graph6(line)
        if kind == "toughness":
            return out.verify(g)
        if kind == "factor":
            return out.verify(g, params["a"], params["b"])
        if out.conclusion_holds:
            return True
        # the certificate refutes a factor of G - e
        g_minus_e = fb.graphs.delete_edges(g, [params["edge"]])
        return out.counterexample.certificate.verify(g_minus_e, params["a"], params["b"])

    @staticmethod
    def _oracle_agrees(fb, query, out) -> bool:
        kind, line, params = query
        g = fb.graphs.parse_graph6(line)
        if kind == "toughness":
            return fb.toughness.isolated_toughness_bruteforce(g).value == out.value
        if kind == "factor":
            return fb.factors.brute_force_factor(g, params["a"], params["b"]) == out.exists
        g_minus_e = fb.graphs.delete_edges(g, [params["edge"]])
        return (fb.factors.brute_force_factor(g_minus_e, params["a"], params["b"])
                == out.conclusion_holds)


WORKLOADS = {w.name: w for w in (Campaign(), Sharpness(), Certify())}
