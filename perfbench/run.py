"""Benchmark of ghost-slopes: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload hull-oracle --seed 1 --seconds 25 --trace 0

A run is a fixed number of items per workload, sized to take about 25
seconds (``run_seconds`` in BENCHMARK.json) at the reference speed, so
the work measured does not depend on the program's speed.  ``--seconds``
only sets a safety stop at WALL_CAP times that much wall time per pass.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from a traced replay of
the items an untraced pass ran.  The lines before it name every metric
with its unit, ``failed_ratio`` included, and record the environment.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WALL_CAP = 2.0  # a pass over the items stops after WALL_CAP * --seconds of wall time
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
MODULES = ("cli", "ghost", "polygon", "slopes", "prediction", "distribution", "valuation")
UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s",
    "peak_rss_mb": "MB", "failed_ratio": "ratio",
    "cli.output_bytes": "B", "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("windows_per_call"):
        return "windows/call"
    return "count"


def import_checkout():
    """Import ghost_slopes from this checkout's src/ and refuse any other copy."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    package = importlib.import_module("ghost_slopes")
    if Path(package.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"ghost_slopes imported from {package.__file__}, not {src}")
    mods = {name: importlib.import_module(f"ghost_slopes.{name}") for name in MODULES}
    return types.SimpleNamespace(package=package, **mods)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_items(spec, mods, state, plan, refs, clock, wall_cap: float, tracer=None):
    """Run the workload's warm-up, if it has one, and then the plan's items
    in order, stopping early only once ``wall_cap`` seconds of wall time
    have passed.

    A record is (scaled seconds, wall seconds, CLI output bytes).
    Returns (records, failures, scaled seconds of work that is in no
    record, wall): the warm-up and every collector pause.
    """
    records, failures = [], []
    gc_before = clock.gc_scaled
    t0 = time.perf_counter()
    unrecorded = spec["warm_up"](mods, state, clock) if "warm_up" in spec else 0.0
    for i, item in enumerate(plan):
        if time.perf_counter() - t0 > wall_cap:
            break
        if tracer is not None:
            tracer.item = i
        try:
            records.append(spec["item"](mods, state, item, refs, clock))
        except workloads.Failure as exc:
            failures.append(str(exc))
    unrecorded += clock.gc_scaled - gc_before
    return records, failures, unrecorded, time.perf_counter() - t0


def set_up(spec, seed: int) -> tuple:
    """The import, the input plan and the workload's starting state."""
    mods = import_checkout()
    return mods, spec["plan"](mods, random.Random(seed)), spec["start"](mods)


def timed_setups(workload: str, seed: int, repeats: int) -> list:
    """Scaled seconds from process start to exit of a set-up, each in a
    fresh interpreter, so interpreter start and every import count.  The
    wall time is scaled by the speed probes the child takes, because the
    child may run on another CPU than this process."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--setup-only"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: exit {proc.returncode}: {proc.stderr[-500:]}")
        times.append(wall * 2 * speed.REF_PROBE_S / sum(json.loads(proc.stdout)))
    return times


def latency_sample(spec, records) -> list:
    """Sorted item latencies for p50 and the tail: those after the
    workload's warm-up items, when enough remain for a tail."""
    warm = records[spec.get("warm_after", 0):]
    return sorted(r[0] for r in (warm if len(warm) > TAIL_BEYOND else records))


def end_to_end(spec, records, unrecorded: float, setup_times) -> dict:
    latencies = latency_sample(spec, records)
    out = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(records) / (sum(r[0] for r in records) + unrecorded),
        "item_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(latencies) > TAIL_BEYOND:
        out["item_tail_s"] = latencies[-TAIL_BEYOND - 1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="only the first items of the plan, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; run.py times this in a fresh process")
    args = parser.parse_args(argv)

    if os.environ.get("GHOST_SLOPES_CACHE"):
        print("error: unset GHOST_SLOPES_CACHE; the benchmark must not time disk-cache reads",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        before = speed.probe()
        set_up(spec, args.seed)
        print(json.dumps([before, speed.probe()]))
        return 0
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
    }
    refs = workloads.Refs(json.loads((HERE / "refs.json").read_text())[args.workload])

    clock = speed.ScaledClock()
    mods, plan, state = set_up(spec, args.seed)
    if args.smoke:
        plan = plan[:TAIL_BEYOND + 1]
    setup_times = [] if args.trace else timed_setups(
        args.workload, args.seed, 2 if args.smoke else SETUP_REPEATS)

    wall_cap = WALL_CAP * args.seconds
    records, failures, unrecorded, wall = run_items(spec, mods, state, plan, refs, clock,
                                                    wall_cap)
    attempted = len(records) + len(failures)
    if args.trace:
        tracer = tracing.Tracer(mods)
        tracer.install()
        try:
            t_records, t_failures, _, t_wall = run_items(
                spec, mods, spec["start"](mods), plan[:attempted], refs, clock, wall_cap,
                tracer=tracer)
        finally:
            tracer.uninstall()
        failures += t_failures
        attempted += len(t_records) + len(t_failures)
        metrics = tracing.layer_metrics(tracer.spans, t_wall)
        metrics["cli.output_bytes"] = sum(r[2] for r in t_records)
        metrics["trace.overhead_ratio"] = sum(r[0] for r in t_records) / sum(r[0] for r in records)
    else:
        metrics = end_to_end(spec, records, unrecorded, setup_times) if records else {}
    env["loadavg_after"] = os.getloadavg()

    info = dict(env, workload=args.workload, seed=args.seed, items=len(records),
                planned_items=len(plan), digests_checked=refs.checked,
                wall_s=wall, setup_runs_s=setup_times,
                unrecorded_s=unrecorded)
    if not args.trace and records:
        walls = [r[1] for r in records]
        info["wall_items_per_s"] = len(walls) / sum(walls)
        info["wall_item_p50_s"] = statistics.median(walls)
    if not args.trace and len(records) > TAIL_BEYOND:
        n = len(latency_sample(spec, records))
        info["latency_samples"] = n
        info["item_tail_percentile"] = 100 * (n - TAIL_BEYOND - 1) / (n - 1)
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, info)
        info["spans_file"] = str(path.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    shown = dict(metrics)
    if not args.trace:
        shown["failed_ratio"] = len(failures) / attempted
    for name, value in shown.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
