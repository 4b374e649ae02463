"""Self-test of the benchmark harness on the first items of each plan.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that a missing or wrong reference digest fails an item.  For
each workload it runs ``run.py --smoke`` (the first 11 items of the
seed's plan, checked against refs.json) untraced and traced, and checks
that the last line is the result object, that it names every metric
BENCHMARK.json declares for that mode with the declared unit, that no
item failed, that every output matched a reference digest, and that the
lines before it print ``failed_ratio`` as 0.  It also checks that the
benchmark refuses to run while GHOST_SLOPES_CACHE is set.  Exits 1 if
any check failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "25", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)


def check(workload: str, trace: int, declared: list) -> list:
    proc = run(workload, trace)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    if info["digests_checked"] < info["items"]:
        problems.append(f"{info['digests_checked']} of {info['items']} items digest-checked")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}: {proc.stderr[-500:]}")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"metric {m['name']}: {got}, declared unit {m['unit']}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    if not trace and "metric failed_ratio 0 ratio" not in lines:
        problems.append("failed_ratio is not printed as 0")
    return problems


def digest_failures() -> list:
    """The reference cases that must fail an item."""
    cases = {
        "missing reference": workloads.Refs({}),
        "wrong reference": workloads.Refs({"req": "0" * 16}),
    }
    problems = []
    for name, refs in cases.items():
        try:
            refs.check("req", b"output")
            problems.append(f"{name} passed")
        except workloads.Failure:
            pass
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = digest_failures()
    print(f"{'ok' if not problems else 'FAIL'} digest mismatches fail an item")
    for p in problems:
        print(f"  {p}")
    failed = bool(problems)
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, bench[key])
            print(f"{'ok' if not problems else 'FAIL'} {workload} trace={trace}")
            for p in problems:
                print(f"  {p}")
            failed |= bool(problems)
    env = dict(os.environ, GHOST_SLOPES_CACHE=str(ROOT / ".bench_out" / "cache"))
    proc = run("hull-oracle", 0, env)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok' if refused else 'FAIL'} refuses to run with GHOST_SLOPES_CACHE set")
    failed |= not refused
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
