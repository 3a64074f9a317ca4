"""Command-line front end.

Subcommands: toughness | factor | avoid | extremal | campaign.
Graphs arrive as graph6 lines on stdin or from a file; machine-readable
output is JSON (certificates, verdicts, reports) plus CSV summaries.

Exit codes: 0 = positive verdict / verified, 1 = negative verdict or
counterexample, 2 = usage, parse, or config error, 3 = enumeration cap
exceeded: a deletion family over ``--cap-deletions``.  No subcommand scans
subsets, so none takes a vertex cap; only campaigns bound D1's scan, by
``cap_n``.

The parser is built once per process, on the first `main` call.  No
environment variable sets a cap: every call refuses a set
FACTORBENCH_CAP_* variable with exit 2 on every subcommand, as an unknown
flag is refused, rather than silently ignoring it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .avoidance import DEFAULT_CAP_DELETIONS, THEOREMS, extremal_sharpness
from .campaign import CampaignConfig, run_campaign
from .errors import CapExceeded, GraphFormatError
from .factors import _peel_stars, check_ab_factor, find_ab_factor
from .graphs import GRAPH6_MAX_N, emit_graph6, extremal_order, parse_graph6
from .toughness import isolated_toughness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_RESOURCE = 3


def _refuse_cap_variables() -> None:
    for name in sorted(os.environ):
        if name.startswith("FACTORBENCH_CAP_"):
            raise ValueError(
                f"environment variable {name} is not read; --cap-deletions is the only cap"
            )


def _cap(text: str) -> int:
    """The ``--cap-deletions`` value: an integer >= 0, checked at parse time."""
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return cap


def _edge(text: str) -> tuple[int, int]:
    """The ``--edge`` value 'u,v' as two integers."""
    try:
        u, v = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two integers as 'u,v', got {text!r}"
        ) from None
    return u, v


def _read_lines(path: str | None):
    if path in (None, "-"):
        return sys.stdin.read().splitlines()
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


def _first_graph(path: str | None):
    for raw in _read_lines(path):
        if raw.strip():
            return parse_graph6(raw)
    raise GraphFormatError("no graph6 line found in input", offset=0)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- subcommands ----------------------------------------------------------------


def cmd_toughness(args) -> int:
    status = EXIT_OK
    for lineno, raw in enumerate(_read_lines(args.input), start=1):
        if not raw.strip():
            continue
        try:
            g = parse_graph6(raw)
            rep = isolated_toughness(g)
        except (GraphFormatError, ValueError) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            status = EXIT_ERROR
            continue
        witness = ",".join(str(v) for v in rep.witness)
        value = rep.value
        print(f"{value.numerator}/{value.denominator} witness={{{witness}}}")
    return status


def cmd_factor(args) -> int:
    g = _first_graph(args.input)
    if args.a < args.b and not args.find:
        cert = check_ab_factor(g, args.a, args.b)
    else:
        cert = find_ab_factor(g, args.a, args.b)
    payload = cert.to_json_dict()
    if args.find and cert.exists and args.a == 1:
        payload["stars"] = _peel_stars(g, cert.factor_edges, args.b).to_json_dict()
    _print_json(payload)
    return EXIT_OK if cert.exists else EXIT_NEGATIVE


def cmd_avoid(args) -> int:
    row = next(t for t in THEOREMS.values() if t.mode == args.mode)
    missing = [f"--{p}" for p in row.params if getattr(args, p) is None]
    if missing:
        raise ValueError(f"avoid --mode {args.mode} requires {', '.join(missing)}")
    params = {p: getattr(args, p) for p in row.params}
    g = _first_graph(args.input)
    verdict = row.run(g, params, cap_deletions=args.cap_deletions)
    _print_json(verdict.to_json_dict())
    return EXIT_OK if verdict.conclusion_holds else EXIT_NEGATIVE


def cmd_extremal(args) -> int:
    order = extremal_order(args.m, args.a, args.b, args.n)
    if order > GRAPH6_MAX_N:
        raise ValueError(
            f"graph6 short form supports at most {GRAPH6_MAX_N} vertices, "
            f"H({args.m},{args.a},{args.b},{args.n}) has {order}"
        )
    w, thr, refutation = extremal_sharpness(args.m, args.a, args.b, args.n)
    cert = refutation.certificate.violation if refutation is not None else None
    payload = {
        "params": {"m": args.m, "a": args.a, "b": args.b, "n": args.n},
        "graph6": emit_graph6(w.graph),
        "parts": {
            "cliqueSmall": list(w.clique_small),
            "isolatedRow": list(w.isolated_row),
            "cliqueLarge": list(w.clique_large),
        },
        "witnessRatio": str(w.witness_ratio),
        "threshold": str(thr),
        "strictlyBelow": w.witness_ratio < thr,
        "v0": list(w.default_v0()),
        "violation": None if refutation is None else refutation.certificate.to_json_dict(),
        "identity": None if cert is None else {
            "aT_minus_d": args.b * len(cert.s) - cert.delta,
            "bS": args.b * len(cert.s),
        },
    }
    _print_json(payload)
    return EXIT_OK if refutation is not None else EXIT_NEGATIVE


def cmd_campaign(args) -> int:
    config = CampaignConfig.from_file(args.config)
    if args.seed is not None:
        config = replace(config, seed_list=(args.seed,))
    if args.output_json:
        config = replace(config, output_json=args.output_json)
    report = run_campaign(config, workers=args.workers)
    agg = report.aggregates
    print(
        f"instances={agg['total']} verified={agg['verified']} "
        f"vacuous={agg['vacuous']} counterexamples={agg['counterexample']} "
        f"capped={agg['capped']}"
    )
    return EXIT_NEGATIVE if report.counterexamples else EXIT_OK


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorbench",
        description="Exact graph-factor workbench: toughness, factor criteria, "
        "deletion-avoiding checks, and verification campaigns.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toughness", help="exact isolated toughness, one graph6 line each")
    p.add_argument("input", nargs="?", default="-", help="graph6 file or - for stdin")
    p.set_defaults(func=cmd_toughness)

    p = sub.add_parser("factor", help="[a,b]-factor existence / construction")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--find", action="store_true", help="construct an explicit factor")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("avoid", help="deletion-avoiding factor checks")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--mode", choices=[t.mode for t in THEOREMS.values() if t.mode],
                   required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--m", type=int, help="star size bound (edges mode)")
    p.add_argument("--n", type=int, help="number of deleted objects")
    p.add_argument("--edge", type=_edge, help="single edge as 'u,v' (edge mode)")
    p.add_argument("--cap-deletions", type=_cap, default=DEFAULT_CAP_DELETIONS,
                   help="max enumerated deletions per instance (default %(default)s)")
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("extremal", help="sharpness construction demo")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    # the flag stays accepted because bench/test_smoke.py passes it
    p.add_argument("--budget", type=int, help="ignored: nothing searches")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("campaign", help="run a verification campaign from a config file")
    p.add_argument("config")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, help="override the config seed list with one seed")
    p.add_argument("--output-json", help="override the config report path")
    p.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    try:
        _refuse_cap_variables()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
