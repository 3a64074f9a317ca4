"""factorbench benchmark command.

    python3 bench/run.py --workload {campaign,sharpness,certify}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the header and every
metric by name and unit.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separately traced round.  The
full results, with the header and the traced call-path profile, are also
written to ``bench/out/``.  The exit code is non-zero when an output check
fails or the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up is timed once before the timed phase, once after every pass and
# then again until there are at least this many samples; the median is
# reported.  Spreading the samples over the run lets them see the same
# stretches of a shared host that the passes see.
MIN_SETUPS = 7
# Percentiles are reported only over at least this many operations, so
# that p99 has ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
# The end-to-end metrics BENCHMARK.json lists: every workload has them and
# none is ever 0.  The others are printed and stored for reading.
GATED = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")


def import_package():
    """Fresh import of ``factorbench`` and its command-line module from the
    checkout's ``src/``: every set-up pays the import a command-line user
    pays."""
    for name in [m for m in sys.modules if m == "factorbench" or m.startswith("factorbench.")]:
        del sys.modules[name]
    importlib.import_module("factorbench.cli")
    fb = sys.modules["factorbench"]
    if not Path(fb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"factorbench was imported from {fb.__file__}, not from {SRC}")
    return fb


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` inside it, or 'unknown'."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def package_modules() -> dict:
    """The package's entries of ``sys.modules``."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "factorbench" or name.startswith("factorbench.")}


def set_up(workload, args, sizes: dict, workdir: Path):
    """One timed set-up: a fresh import of the package and the workload's
    inputs.  Returns (seconds, package, state)."""
    gc.collect()  # garbage of the previous set-up is not this one's cost
    start = perf_counter()
    fb = import_package()
    state = workload.setup(fb, args.seed, sizes, workdir)
    return perf_counter() - start, fb, state


def time_set_up(workload, args, sizes: dict, workdir: Path) -> float:
    """Time one more set-up and throw it away: the package modules in use
    are put back, so the passes keep running on the first set-up's."""
    in_use = package_modules()
    try:
        return set_up(workload, args, sizes, workdir)[0]
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def timed_phase(workload, state, seconds: float, probe_set_up) -> list:
    """One untimed warm-up pass of the first entry, so that lazy set-up in
    the interpreter and the program is not charged to a timed pass; then
    round-robin over the workload's pool: every entry runs at least once,
    and another pass starts only while the last one's duration predicts
    that it ends within ``seconds``.  ``probe_set_up`` runs after each
    pass, outside the pass's time."""
    workload.run_pass(state, 0)
    passes = []
    entries = len(state["entries"])
    start = perf_counter()
    while True:
        gc.collect()  # the previous pass's garbage is not this one's cost
        p = workload.run_pass(state, len(passes) % entries)
        passes.append(p)
        probe_set_up()
        if len(passes) >= entries and perf_counter() - start + p.wall_s > seconds:
            return passes


def end_to_end(passes, setup_times, failed: int, attempted: int) -> dict:
    """Every end-to-end metric that applies, as name -> (value, unit)."""
    # One round of the pool, each entry at the mean of its passes, so that
    # the figure does not depend on how many passes fit into the run.
    times: dict[int, list[float]] = {}
    ops: dict[int, int] = {}
    for p in passes:
        times.setdefault(p.entry, []).append(p.wall_s)
        ops[p.entry] = p.ops
    round_s = sum(statistics.fmean(t) for t in times.values())
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (round_s, "s"),
        "ops_per_s": (sum(ops.values()) / round_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    kinds: dict[str, list[float]] = {}
    for p in passes:
        for kind, values in p.latencies.items():
            kinds.setdefault(kind, []).extend(values)
    groups = {"": [v for values in kinds.values() for v in values]}
    groups.update((f"{kind}.", values) for kind, values in kinds.items())
    for prefix, values in groups.items():
        if len(values) >= MIN_LATENCY_SAMPLES:
            values = sorted(values)
            out[f"{prefix}p50_ms"] = (percentile(values, 0.50) * 1e3, "ms")
            out[f"{prefix}p99_ms"] = (percentile(values, 0.99) * 1e3, "ms")
    return out


def header(workload, state, args) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed if workload.seeded else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "min_setups": MIN_SETUPS,
        "clients": 1,
        "sizes": workload.header(state),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="factorbench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (sharpness has none and ignores it)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase; every pool entry runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes: dict | None = None) -> int:
    """Run one workload; ``sizes`` overrides the workload's input sizes."""
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    sizes = sizes or workload.SIZES
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import factorbench from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        seconds, fb, state = set_up(workload, args, sizes, Path(tmp))
        setup_times = [seconds]

        def probe_set_up():
            setup_times.append(time_set_up(workload, args, sizes, Path(tmp)))

        head = header(workload, state, args)
        print("# header " + json.dumps(head, sort_keys=True), flush=True)

        tracer = None
        pool = range(len(state["entries"]))
        if args.trace:
            # one untraced round, then one traced round over the same inputs
            passes = [workload.run_pass(state, entry) for entry in pool]
            gc.collect()
            with layertrace.Tracer(fb) as tracer:
                passes += [workload.run_pass(state, entry) for entry in pool]
        else:
            passes = timed_phase(workload, state, args.seconds, probe_set_up)

        # output checks, outside the timed phase; a repeated entry must
        # give the same digest as its first pass
        problems = []
        failed = 0
        digests: dict[int, str] = {}
        for p in passes:
            found, bad_ops, dig = workload.check(state, p)
            problems += found
            failed += len(bad_ops | p.failed)
            if digests.setdefault(p.entry, dig) != dig:
                problems.append(f"entry {p.entry}: passes disagree, digests "
                                f"{digests[p.entry]} and {dig}")
            p.outputs = None  # so the set-ups below see the heap the first ones saw
        run_digest = workloads.digest([digests[e] for e in sorted(digests)])

        while len(setup_times) < MIN_SETUPS:
            probe_set_up()
    attempted = sum(p.ops for p in passes)
    if problems and not failed:
        failed = 1  # a check that no single operation explains

    untraced = passes if tracer is None else passes[:len(pool)]
    shown = end_to_end(untraced, setup_times, failed, attempted)
    if tracer is None:
        reported = {k: shown[k] for k in GATED}
    else:
        reported = tracer.metrics()
        traced_wall = sum(p.wall_s for p in passes[len(pool):])
        untraced_wall = sum(p.wall_s for p in untraced)
        # span self times and the harness's own time, against the pass's own clock
        accounted = sum(v for k, (v, _) in reported.items() if k.endswith(".self_s"))
        reported["trace.wall_s"] = (traced_wall, "s")
        reported["trace.accounted_ratio"] = (accounted / traced_wall, "ratio")
        reported["trace.untraced_wall_s"] = (untraced_wall, "s")
        reported["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    for name, (value, unit) in {**shown, **reported}.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"# passes={len(passes)} attempted={attempted} failed={failed} digest={run_digest}")
    for problem in problems:
        print(f"# check failed: {problem}")

    results = {
        "header": head,
        "digest": run_digest,
        "entry_digests": [digests[e] for e in sorted(digests)],
        "problems": problems,
        "passes": [{"entry": p.entry, "wall_s": p.wall_s, "ops": p.ops} for p in passes],
        "setup_s_samples": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    if tracer is not None:
        results["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
        results["call_paths"] = tracer.path_profile()
    seed_tag = f"seed{args.seed}" if workload.seeded else "noseed"
    out_file = OUT_DIR / f"{workload.name}-{seed_tag}-trace{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
