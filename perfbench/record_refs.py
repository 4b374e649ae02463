"""Record the reference output digests in perfbench/refs.json.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_refs.py

Every workload draws its requests from a finite pool, and every request
of each pool is recorded, so the digests cover any seed.  Every identity
check of the benchmark runs while recording, so a failing output is
never recorded.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from run import import_checkout  # noqa: E402

CLOCK = speed.ScaledClock()  # items time themselves; recording ignores the times


def record_dist(mods, refs):
    for phase in range(workloads.DIST_PHASES):
        for window in workloads.dist_windows(mods, phase):
            for fmt in workloads.DIST_FORMATS:
                workloads.dist_item(mods, None, (window, fmt), refs, CLOCK)


def record_big(mods, refs):
    ctx = mods.ghost.GhostContext(7, 2, 1)
    for k in workloads.big_weights(mods):
        workloads.big_item(mods, None, workloads.big_requests(mods, ctx, k), refs, CLOCK)


def record_hull(mods, refs):
    state = workloads.hull_start(mods)
    for item in workloads.hull_plan(mods, random.Random(0)):  # every seed asks these pairs
        workloads.hull_item(mods, state, item, refs, CLOCK)


RECORDERS = {"dist-sweep": record_dist, "big-weight": record_big, "hull-oracle": record_hull}


def main() -> int:
    mods = import_checkout()
    tables = {}
    for name, record in RECORDERS.items():
        refs = workloads.Refs({}, record=True)
        record(mods, refs)
        tables[name] = dict(sorted(refs.table.items()))
        print(f"{name}: {len(refs.table)} digests", file=sys.stderr, flush=True)
    (HERE / "refs.json").write_text(json.dumps(tables, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
