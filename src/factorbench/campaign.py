"""Campaign orchestration: sample premise-satisfying random instances per
parameter cell, run the matching theorem check on each, and emit a
deterministic JSON report plus a CSV summary.

Premise filtering is rejection sampling: candidates are drawn from the
(seed, p, n) grid in a fixed order, their premises evaluated, and the
first ``quota`` premise-satisfying graphs per cell are kept.  Rejected
draws are tallied per cell; they are not instances.  Sharpness entries
from the extremal family run ``extremal_sharpness`` and are flagged
expected-failure instead of counting as counterexamples.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from math import comb
from typing import NamedTuple

from . import __version__
from .avoidance import (
    DEFAULT_CAP_DELETIONS,
    DEFAULT_CAP_N,
    THEOREMS,
    AvoidanceVerdict,
    _check_params,
    extremal_sharpness,
    theorem_premises,
)
from .errors import CapExceeded
from .graphs import (
    GRAPH6_MAX_N, emit_graph6, generate_random, parse_graph6, sharpness_order,
)

# the outcome counts of every ``cells`` row and of the aggregates
OUTCOMES = ("verified", "vacuous", "counterexample", "capped")


class Cell(NamedTuple):
    theorem: str
    params: dict

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.theorem}({inner})"


@dataclass(frozen=True)
class CampaignConfig:
    """Flat, line-oriented key=value configuration.  Finite grids only;
    every (a, b) pair must satisfy a < b."""

    theorems: tuple = ("A", "B", "C", "E", "D1")
    n_min: int = 7
    n_max: int = 10
    p_list: tuple = (Fraction(3, 5), Fraction(3, 4))
    seed_list: tuple = tuple(range(1, 41))
    quota: int = 25
    cap_n: int = DEFAULT_CAP_N
    cap_deletions: int = DEFAULT_CAP_DELETIONS
    a_ab: tuple = ((1, 2), (2, 3))
    a_n: tuple = (1,)
    b_m: tuple = (2, 3, 4)
    b_n: tuple = (1,)
    c_ab: tuple = ((2, 3),)
    c_n: tuple = (1,)
    d_ab: tuple = ((2, 3),)
    d_n: tuple = (1,)
    e_ab: tuple = ((2, 3),)
    d1_ab: tuple = ((2, 3),)
    d1_n: tuple = (1,)
    d1_k: tuple = (2, "b")
    extremal: tuple = ()
    output_json: str | None = None
    output_csv: str | None = None

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        for t in self.theorems:
            if t not in THEOREMS or not THEOREMS[t].axes:
                raise ValueError(f"config field 'theorems': unknown theorem {t!r}")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("config field 'n_min'/'n_max': need 1 <= n_min <= n_max")
        for p in self.p_list:
            if not 0 <= p <= 1:
                raise ValueError(f"config field 'p_list': {p} outside [0, 1]")
        if self.quota < 1:
            raise ValueError("config field 'quota': must be >= 1")
        for key in ("cap_n", "cap_deletions"):
            if getattr(self, key) < 0:
                raise ValueError(f"config field '{key}': must be >= 0")
        for f in fields(self):
            key = _config_key(f.name)
            axis = key.partition(".")[2]
            if axis == "ab":
                for pair in getattr(self, f.name):
                    if len(pair) != 2:
                        raise ValueError(f"config field '{key}': need a:b pairs, got {pair}")
                    a, b = pair
                    if not 1 <= a < b:
                        raise ValueError(f"config field '{key}': need 1 <= a < b, got {a}:{b}")
            elif axis in ("m", "n"):
                for v in getattr(self, f.name):
                    if v < 1:
                        raise ValueError(f"config field '{key}': need integers >= 1, got {v}")
            elif axis == "k":
                for k in getattr(self, f.name):
                    if k != "b" and (not isinstance(k, int) or k < 2):
                        raise ValueError(
                            f"config field '{key}': need an integer >= 2 or 'b', got {k}"
                        )
        for quad in self.extremal:
            if len(quad) != 4:
                raise ValueError(f"config field 'extremal': need m:a:b:n quads, got {quad}")
            try:
                order = sharpness_order(*quad)
            except ValueError as exc:
                raise ValueError(
                    f"config field 'extremal': invalid parameters {quad}: {exc}"
                ) from None
            if order > GRAPH6_MAX_N:
                raise ValueError(
                    f"config field 'extremal': H{quad} has {order} vertices, and "
                    f"graph6 short form supports at most {GRAPH6_MAX_N}"
                )
        for t in self.theorems:
            axes = THEOREMS[t].axes
            used = [set() for _ in axes]
            for values, params in self._grid_cells(t):
                try:
                    _check_params(params)
                except ValueError as exc:
                    raise ValueError(f"config cell {Cell(t, params).label()}: {exc}") from None
                for seen, value in zip(used, values):
                    seen.add(value)
            # a listed value that yields no cell would be dropped without a word
            for axis, seen in zip(axes, used):
                for value in getattr(self, f"{t.lower()}_{axis}"):
                    if value not in seen:
                        text = _LIST_ITEMS.get(axis, _INT_ITEM)[1](value)
                        raise ValueError(
                            f"config field '{t}.{axis}': value {text} yields no {t} cell"
                        )

    # -- cells -------------------------------------------------------------

    def _grid_cells(self, t: str):
        """Yield (axis values, params) for each cell of theorem ``t`` that
        its ``in_grid`` keeps, in grid order."""
        row = THEOREMS[t]
        grid = (getattr(self, f"{t.lower()}_{axis}") for axis in row.axes)
        for values in product(*grid):
            params: dict = {}
            for axis, value in zip(row.axes, values):
                if axis == "ab":
                    params["a"], params["b"] = value
                else:  # k may be the symbolic b
                    params[axis] = params["b"] if value == "b" else value
            if row.in_grid(params):
                yield values, params

    def cells(self) -> list[Cell]:
        return [Cell(t, params) for t in self.theorems for _, params in self._grid_cells(t)]

    # -- file format ---------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            key = _config_key(f.name)
            value = getattr(self, f.name)
            if f.default is None:
                text = "" if value is None else str(value)
            elif isinstance(f.default, int):
                text = str(value)
            else:
                item = _LIST_ITEMS.get(key.partition(".")[2] or key, _INT_ITEM)[1]
                text = ",".join(item(v) for v in value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CampaignConfig":
        by_key = {_config_key(f.name): f for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in by_key:
                raise ValueError(f"config line {lineno}: unknown field {key!r}")
            f = by_key[key]
            values[f.name] = _parse_value(f, key, value.strip())
        config = cls(**values)
        config.validate()
        return config

    def to_file(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "CampaignConfig":
        with open(path, encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _config_key(name: str) -> str:
    """The config-file key of a field: ``D1.ab`` for ``d1_ab``, which lists
    the ``ab`` axis of D1's campaign grid, else the field name."""
    prefix, _, axis = name.partition("_")
    tag = prefix.upper()
    return f"{tag}.{axis}" if tag in THEOREMS and axis in THEOREMS[tag].axes else name


# (parse, format) of one item of a comma-separated list field, by its key
# or its theorem axis; every other list holds integers
_INT_ITEM = (int, str)
_COLON_ITEM = (
    lambda t: tuple(int(x) for x in t.split(":")),
    lambda v: ":".join(str(x) for x in v),
)
_LIST_ITEMS = {
    "theorems": (str.strip, str),
    "p_list": (lambda t: Fraction(t.strip()), lambda p: str(Fraction(p))),
    "extremal": _COLON_ITEM,
    "ab": _COLON_ITEM,
    "k": (lambda t: "b" if t.strip() == "b" else int(t), str),
}


def _parse_value(f, key: str, text: str):
    try:
        if f.default is None:
            return text or None
        if isinstance(f.default, int):
            return int(text)
        item = _LIST_ITEMS.get(key.partition(".")[2] or key, _INT_ITEM)[0]
        return tuple(item(t) for t in text.split(",") if t.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"config field {key!r}: cannot parse {text!r} ({exc})") from None


# -- evaluation -----------------------------------------------------------------


def _premises_hold(cell: Cell, g, cap_deletions: int) -> bool:
    """Rejection-sampling filter.  An E draw beyond the deletion cap skips
    the C(n,2) pair deletions and is kept on its minimum degree alone; its
    evaluation then reports it capped, before any premise work."""
    with_pairs = comb(g.n, 2) <= cap_deletions
    prem = theorem_premises(cell.theorem, g, with_pair_deletions=with_pairs, **cell.params)
    return all(p.holds for p in prem)


def _evaluate_instance(payload: dict) -> dict:
    """Run one theorem check; module-level so worker pools can pickle it."""
    g = parse_graph6(payload["graph6"])
    theorem = payload["theorem"]
    params = payload["params"]
    cap_n = payload["cap_n"]
    cap_deletions = payload["cap_deletions"]
    row = {
        "index": payload["index"],
        "theorem": theorem,
        "params": params,
        "graph6": payload["graph6"],
        "seed": payload.get("seed"),
        "p": payload.get("p"),
        "expected_failure": False,
    }
    try:
        verdict = THEOREMS[theorem].run(g, params, cap_n=cap_n, cap_deletions=cap_deletions)
    except CapExceeded as exc:
        row["outcome"] = "capped"
        row["error"] = str(exc)
        return row
    row.update(verdict.to_json_dict())
    row["params"] = params
    return row


def _evaluate_extremal(index: int, quad) -> dict:
    m, a, b, n = quad
    w, thr, counterexample = extremal_sharpness(m, a, b, n)
    verdict = AvoidanceVerdict(
        "A", {"a": a, "b": b, "n": n}, theorem_premises("A", w.graph, a=a, b=b, n=n),
        counterexample, witnesses=(w.clique_small,),
    )
    row = {
        "index": index,
        "graph6": emit_graph6(w.graph),
        "expected_failure": True,
        "sharpness": {
            "witness_ratio": str(w.witness_ratio),
            "threshold": str(thr),
            "strictly_below": w.witness_ratio < thr,
            "v0": list(w.default_v0()),
        },
    }
    row.update(verdict.to_json_dict())
    return row


@dataclass
class CampaignReport:
    """Deterministic record of one campaign run.  The timestamp lives in a
    single header field so golden comparisons can drop it.  ``aggregates``
    is counted from ``instances`` whenever it is read."""

    header: dict
    cells: list
    instances: list

    @property
    def aggregates(self) -> dict:
        counts = dict.fromkeys(OUTCOMES, 0)
        for row in self.instances:
            counts[row["outcome"]] += 1
        counts["total"] = len(self.instances)
        return counts

    @property
    def counterexamples(self) -> list:
        return [
            r
            for r in self.instances
            if r["outcome"] == "counterexample" and not r["expected_failure"]
        ]

    def to_json_dict(self) -> dict:
        return {
            "header": self.header,
            "cells": self.cells,
            "instances": self.instances,
            "aggregates": self.aggregates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def write_json(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            counts = ("draws", "rejected_premise", "kept", *OUTCOMES)
            writer.writerow(["cell", *counts])
            for cell in self.cells:
                writer.writerow([cell["label"], *(cell[k] for k in counts)])


def _cell_row(label: str, theorem: str, params: dict, draws: int, kept: int) -> dict:
    """One ``cells`` row with its outcome counts at zero; every draw not
    kept was rejected on its premises."""
    row = {
        "label": label,
        "theorem": theorem,
        "params": params,
        "draws": draws,
        "rejected_premise": draws - kept,
        "kept": kept,
    }
    row.update(dict.fromkeys(OUTCOMES, 0))
    return row


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignReport:
    """Execute the campaign.  Deterministic for a fixed config: candidate
    graphs come from the (seed, p, n) grid in order, and report rows are
    ordered by instance index regardless of worker count."""
    config.validate()
    pending: list[dict] = []
    cell_stats: list[dict] = []
    row_cells: list[int] = []  # the index in cell_stats of each row's cell
    index = 0
    # one p text per p value, and one graph6 string per draw, shared by the
    # rows of every cell that keeps that draw
    p_text = {p: str(Fraction(p)) for p in config.p_list}
    graph6: dict[tuple, str] = {}
    for cell in config.cells():
        draws = 0
        kept = 0
        sizes = range(config.n_min, config.n_max + 1)
        for seed, p, ng in product(config.seed_list, config.p_list, sizes):
            if kept >= config.quota:
                break
            draws += 1
            g = generate_random(ng, p, seed)
            if not _premises_hold(cell, g, config.cap_deletions):
                continue
            kept += 1
            key = (seed, p, ng)
            if key not in graph6:
                graph6[key] = emit_graph6(g)
            pending.append(
                {
                    "index": index,
                    "theorem": cell.theorem,
                    "params": cell.params,  # shared by the cell's rows; read only
                    "graph6": graph6[key],
                    "seed": seed,
                    "p": p_text[p],
                    "cap_n": config.cap_n,
                    "cap_deletions": config.cap_deletions,
                }
            )
            row_cells.append(len(cell_stats))
            index += 1
        cell_stats.append(_cell_row(cell.label(), cell.theorem, cell.params, draws, kept))

    if workers > 1 and pending:
        # imported here: the pool machinery costs a serial run about 2.5 MiB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_instance, pending, chunksize=4))
    else:
        rows = [_evaluate_instance(p) for p in pending]

    for quad in config.extremal:
        rows.append(_evaluate_extremal(index, quad))
        row_cells.append(len(cell_stats))
        index += 1

    if config.extremal:
        quads = len(config.extremal)
        cell_stats.append(_cell_row("extremal", "A", {}, quads, quads))
    for row, cell in zip(rows, row_cells):
        cell_stats[cell][row["outcome"]] += 1

    report = CampaignReport(
        header={
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": config.to_text(),
            "workers": workers,
        },
        cells=cell_stats,
        instances=rows,
    )
    if config.output_json:
        report.write_json(config.output_json)
    if config.output_csv:
        report.write_csv(config.output_csv)
    return report
