"""Outside-in layer trace for the factorbench benchmark.

The tracer wraps the public functions of each package module (a "layer")
at every module attribute that binds them, so calls made through a
re-export (``factorbench.avoidance.find_ab_factor``) are seen as well as
calls made through the defining module.  Nothing inside the package
changes: the wrappers live here and are removed again after the traced
pass.

Each wrapped call is a span.  Spans nest on a stack; a span's self time
is its duration minus the time covered by the spans it caused.  Spans
are aggregated in memory by name and by call path (the chain of span
names from the outermost one), because the hot inner functions run
millions of times and a span log of that size would not fit in memory.
Exact counters (subsets scanned, deletions, premise evaluations by
caller) are computed here from each call's arguments and return value.
"""

from __future__ import annotations

import functools
import sys
from math import comb
from time import perf_counter

# Public functions traced per layer; the layer is the package module.
LAYERS = {
    "graphs": ("parse_graph6", "emit_graph6", "generate_random", "delete", "build_extremal_H"),
    "toughness": ("isolated_toughness",),
    "factors": (
        "scan_deficiency",
        "check_ab_factor",
        "check_star_factor",
        "find_ab_factor",
        "find_star_factor",
        "delta",
    ),
    "avoidance": (
        "check_vertex_deletion_all",
        "check_edge_deletion_star",
        "check_matching_deletion",
        "check_edge_avoiding",
        "check_theorem_E",
        "check_lemma_D1",
        "theorem_premises",
    ),
    "campaign": ("run_campaign",),
    "cli": ("main",),
}

# Deletion-avoiding checks: premise evaluations and deletions made under
# one of these spans are attributed to the check, not to sampling.
CHECKS = tuple(f"avoidance.{name}" for name in LAYERS["avoidance"] if name.startswith("check_"))

# Span names whose calls and self time are reported.  Premise evaluations
# are reported under two names, split by caller.
REPORTED_SPANS = tuple(
    f"{layer}.{name}"
    for layer, names in LAYERS.items()
    for name in names
    if name != "theorem_premises"
) + ("avoidance.theorem_premises", "campaign.premises")

REPORT_WRITERS = ("write_json", "write_csv")


def scan_position(n: int, s, min_size: int = 0) -> int:
    """Subsets a size-then-lexicographic scan starting at size ``min_size``
    visits up to and including ``s``: the C(n, j) terms of the smaller
    sizes plus the lexicographic rank of ``s`` among the |s|-subsets."""
    k = len(s)
    visited = sum(comb(n, j) for j in range(min_size, k))
    prev = -1
    for i, x in enumerate(sorted(s)):
        for y in range(prev + 1, x):
            visited += comb(n - y - 1, k - i - 1)
        prev = x
    return visited + 1


def scan_total(n: int, min_size: int = 0) -> int:
    """Subsets a full scan from size ``min_size`` visits."""
    return sum(comb(n, j) for j in range(min_size, n + 1))


class Tracer:
    """Installs span wrappers on the ``factorbench`` modules and
    aggregates what they record.  Use as a context manager around one
    pass; ``metrics()`` then gives the per-layer numbers."""

    def __init__(self, fb):
        self.fb = fb
        self.stack: list[list] = []  # [start, child_time, path]
        self.paths: dict[tuple, list] = {}  # call path -> [calls, self_s, total_s]
        self.counts = {
            "factors.scan_deficiency.subsets": 0,
            "factors.scan_deficiency.violations": 0,
            "factors.check_star_factor.subsets": 0,
            "factors.find_ab_factor.exists": 0,
            "factors.find_ab_factor.completed": 0,
            "factors.find_ab_factor.budget_exceeded": 0,
            "avoidance.check_edge_avoiding.subsets": 0,
            "avoidance.deletions": 0,
            "campaign.premises.accepted": 0,
        }
        self.write_report_s = 0.0
        self.check_depth = 0
        self.harness_s = 0.0
        self.idle_since = 0.0
        self._installed: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        fb = self.fb
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "factorbench" or name.startswith("factorbench.")]
        for layer, names in LAYERS.items():
            module = getattr(fb, layer)
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._installed.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        report_cls = fb.campaign.CampaignReport
        for name in REPORT_WRITERS:
            original = report_cls.__dict__[name]
            self._installed.append((report_cls, name, original))
            setattr(report_cls, name, self._wrap_writer(original))
        self.idle_since = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.harness_s += perf_counter() - self.idle_since
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        now = perf_counter()
        if self.stack:
            path = self.stack[-1][2] + (name,)
        else:
            self.harness_s += now - self.idle_since
            path = (name,)
        self.stack.append([now, 0.0, path])

    def _exit(self) -> None:
        now = perf_counter()
        start, child, path = self.stack.pop()
        total = now - start
        agg = self.paths.get(path)
        if agg is None:
            self.paths[path] = [1, total - child, total]
        else:
            agg[0] += 1
            agg[1] += total - child
            agg[2] += total
        if self.stack:
            self.stack[-1][1] += total
        else:
            self.idle_since = now

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.split(".")[1], None)
        is_check = name in CHECKS
        is_premise = name == "avoidance.theorem_premises"
        is_delete = name == "graphs.delete"
        budget_error = self.fb.errors.SearchBudgetExceeded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if is_premise and not self.check_depth:
                span = "campaign.premises"  # premise evaluation while sampling
            elif is_delete and self.check_depth:
                self.counts["avoidance.deletions"] += 1
            self._enter(span)
            if is_check:
                self.check_depth += 1
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if name == "factors.find_ab_factor":
                    self.counts["factors.find_ab_factor.budget_exceeded"] += 1
                raise
            finally:
                if is_check:
                    self.check_depth -= 1
                self._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_writer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.write_report_s += perf_counter() - start

        return wrapper

    # -- counters computed from arguments and results ---------------------------

    def _after_scan_deficiency(self, args, kwargs, violation) -> None:
        n = args[0].n
        min_size = kwargs.get("min_size", 0)
        if violation is None:
            self.counts["factors.scan_deficiency.subsets"] += scan_total(n, min_size)
        else:
            self.counts["factors.scan_deficiency.subsets"] += scan_position(n, violation.s, min_size)
            self.counts["factors.scan_deficiency.violations"] += 1

    def _after_check_star_factor(self, args, kwargs, check) -> None:
        n = args[0].n
        self.counts["factors.check_star_factor.subsets"] += (
            scan_total(n) if check.exists else scan_position(n, check.witness)
        )

    def _after_find_ab_factor(self, args, kwargs, cert) -> None:
        self.counts["factors.find_ab_factor.completed"] += 1
        self.counts["factors.find_ab_factor.exists"] += cert.exists

    def _after_theorem_premises(self, args, kwargs, premises) -> None:
        if not self.check_depth:
            self.counts["campaign.premises.accepted"] += all(p.holds for p in premises)

    def _after_check_edge_avoiding(self, args, kwargs, verdict) -> None:
        n = args[0].n
        self.counts["avoidance.check_edge_avoiding.subsets"] += (
            scan_total(n)
            if verdict.conclusion_holds
            else scan_position(n, verdict.counterexample.certificate.violation.s)
        )

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, as name -> (value, unit)."""
        spans: dict[str, list] = {}  # name -> [calls, self_s], over its call paths
        for path, (calls, own, _) in self.paths.items():
            agg = spans.setdefault(path[-1], [0, 0.0])
            agg[0] += calls
            agg[1] += own
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED_SPANS:
            calls, own = spans.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (own, "s")
        c = self.counts
        scans = spans.get("factors.scan_deficiency", (0,))[0]
        out["factors.scan_deficiency.subsets"] = (c["factors.scan_deficiency.subsets"], "count")
        out["factors.scan_deficiency.violation_ratio"] = (
            _ratio(c["factors.scan_deficiency.violations"], scans), "ratio")
        out["factors.check_star_factor.subsets"] = (c["factors.check_star_factor.subsets"], "count")
        out["factors.find_ab_factor.exists_ratio"] = (
            _ratio(c["factors.find_ab_factor.exists"], c["factors.find_ab_factor.completed"]),
            "ratio")
        out["factors.find_ab_factor.budget_exceeded"] = (
            c["factors.find_ab_factor.budget_exceeded"], "count")
        out["avoidance.check_edge_avoiding.subsets"] = (
            c["avoidance.check_edge_avoiding.subsets"], "count")
        out["avoidance.deletions"] = (c["avoidance.deletions"], "count")
        draws = spans.get("campaign.premises", (0,))[0]
        out["campaign.premise_accept_ratio"] = (
            _ratio(c["campaign.premises.accepted"], draws), "ratio")
        out["campaign.write_report_s"] = (self.write_report_s, "s")
        out["harness.self_s"] = (self.harness_s, "s")
        return out

    def path_profile(self) -> list[dict]:
        """Aggregated spans by call path, heaviest total first."""
        rows = [
            {"path": "/".join(path), "calls": calls, "self_s": own, "total_s": total}
            for path, (calls, own, total) in self.paths.items()
        ]
        rows.sort(key=lambda r: -r["total_s"])
        return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
