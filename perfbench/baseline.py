"""Run every workload on several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

It runs every workload on the seeds in SEEDS.  For each workload and
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  It also runs one traced
run per workload, on TRACE_SEED, and keeps its per-layer metrics.  With
``--out`` it writes everything as JSON.  Exits 1 if any run fails or
reports a failed item.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return {"info": json.loads(lines[0][len("info "):]), "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"seeds": list(SEEDS), "trace_seed": TRACE_SEED, "run_seconds": bench["run_seconds"],
              "date": time.strftime("%Y-%m-%d", time.gmtime()), "workloads": {}}
    bad = False
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        bad |= any(r["result"]["failed"] or not r["result"]["correct"] for r in runs)
        entry = {"env": {k: runs[0]["info"][k] for k in ("python", "nproc", "git_sha")},
                 "items": [r["info"]["items"] for r in runs], "metrics": {}}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = entry["metrics"][m["name"]] = dict(summary(values), unit=m["unit"], bound=m["bound"])
            print(f"{workload:12s} {m['name']:12s} median {s['median']:.4g} {m['unit']:4s} "
                  f"spread {s['spread']:.3f} (bound {m['bound']})", flush=True)
        traced = run(workload, TRACE_SEED, bench["run_seconds"], 1)
        bad |= bool(traced["result"]["failed"])
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
