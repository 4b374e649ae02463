"""The three benchmark workloads: input plans, one timed item each, checks.

Every workload is a closed loop with one client: the next item starts
when the previous one has finished.  A run is one plan: a fixed number
of items, drawn from the seed alone.  The seed shifts a low-discrepancy
sequence (Weyl sequences on the golden and plastic ratios) instead of
drawing weights independently, so a plan is spread evenly over its
weight range.  Plans then have almost the same cost mix on every seed:
the seeds change which weights are asked, not how hard the run is.

CLI items call ``ghost_slopes.cli.main`` in-process with ``--jobs 1``.
Each call builds a fresh context, as one process per request would.
``hull-oracle`` items are library calls on one long-lived context per
parameter set, so its caches stay warm across queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

CLI_CTX = ("-p", "7", "-a", "2", "-e", "1")  # the CLI workloads' context, spelled out
GOLDEN = 0.6180339887498949  # 1/phi: the golden Weyl step
PLASTIC = 1.3247179572447460  # plastic number: the R2 sequence in 2-D


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def spread_order(n: int, start: float) -> list:
    """A permutation of range(n) whose every prefix is spread over range(n).

    Step j visits the rank of frac(start + j / phi) among the n points.
    """
    xs = [(start + j * GOLDEN) % 1.0 for j in range(n)]
    rank = {j: r for r, j in enumerate(sorted(range(n), key=xs.__getitem__))}
    return [rank[j] for j in range(n)]


def rational_text(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


class Failure(Exception):
    """An item whose output failed a check."""


def call_cli(mods, clock, argv: list) -> tuple:
    """(scaled seconds, wall seconds, stdout bytes) of one in-process CLI
    request.  A nonzero exit code, or an exception escaping ``main``,
    raises :class:`Failure`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            scaled, wall, rc = clock.measure(mods.cli.main, argv)
        except Exception as exc:  # the item fails; the run goes on
            rc = repr(exc)
    if rc != 0:
        raise Failure(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()[:200]}")
    return scaled, wall, out.getvalue().encode()


class Refs:
    """Reference digests of outputs, keyed by request.

    ``check`` compares an output with its reference.  Every workload draws
    its requests from a pool that refs.json records in full, so a request
    with no reference is a failure.  With ``record`` set, ``check`` stores
    the digest instead.
    """

    def __init__(self, table: dict, record: bool = False):
        self.table = table
        self.record = record
        self.checked = 0

    def check(self, key: str, data: bytes) -> None:
        got = digest(data)
        if self.record:
            self.table[key] = got
            return
        want = self.table.get(key)
        if want is None:
            raise Failure(f"{key}: no reference digest recorded")
        self.checked += 1
        if got != want:
            raise Failure(f"{key}: output digest {got} != reference {want}")


# -- dist-sweep ---------------------------------------------------------------

DIST_FORMATS = ("table", "json", "csv")
DIST_LO, DIST_HI = 10, 1200  # the weights a run sweeps, once
DIST_WINDOWS = 30  # requests per run
DIST_PHASES = 6  # the seed shifts every window boundary by one of these


def dist_windows(mods, phase: int) -> list:
    """Consecutive windows of the class weights in [DIST_LO, DIST_HI],
    each costing about 1/DIST_WINDOWS of the whole; the first is cut short
    by phase/DIST_PHASES of a window, which shifts every boundary.  A
    weight's cost grows about as k**1.2 (measured), so windows are wide at
    small k and narrow at large k, and the requests cost alike."""
    ks = list(mods.ghost.GhostContext(7, 2, 1).class_members(DIST_LO, DIST_HI))
    target = sum(k**1.2 for k in ks) / DIST_WINDOWS
    windows, window, cost = [], [], phase / DIST_PHASES * target
    for k in ks:
        window.append(k)
        cost += k**1.2
        if cost >= target:
            windows.append(window)
            window, cost = [], 0.0
    if window:
        windows[-1].extend(window)
    return windows


def dist_argv(window: list, fmt: str) -> list:
    return ["dist", "--k-range", f"{window[0]}:{window[-1]}", *CLI_CTX,
            "--format", fmt, "--jobs", "1"]


def dist_plan(mods, rng: random.Random) -> list:
    """Every window of one phase, once, each in a seeded format."""
    windows = dist_windows(mods, rng.randrange(DIST_PHASES))
    formats = [rng.choice(DIST_FORMATS) for _ in windows]
    order = spread_order(len(windows), rng.random())
    return [(windows[i], formats[i]) for i in order]


def dist_item(mods, state, item, refs, clock) -> tuple:
    window, fmt = item
    argv = dist_argv(window, fmt)
    scaled, wall, out = call_cli(mods, clock, argv)
    refs.check(" ".join(argv), out)
    if fmt == "table":
        # table rows name no weights; check each row against itself
        if not table_rows_consistent(out):
            raise Failure(f"{' '.join(argv)}: a row's error is not |final moment - 1/(n+1)|")
        return scaled, wall, len(out)
    if fmt == "json":
        seen = {k for row in json.loads(out) for k in row["ks"]}
    else:
        seen = {int(line.split(",", 1)[0]) for line in out.decode().splitlines()[1:]}
    if not seen or not seen <= set(window):
        raise Failure(f"{' '.join(argv)}: rows name weights outside the window")
    return scaled, wall, len(out)


def table_rows_consistent(out: bytes) -> bool:
    """Every row of a ``dist`` table has target 1/(n+1) and final error
    |final moment - target|."""
    rows = [dict(field.split("=", 1) for field in line.split()[1:])
            for line in out.decode().splitlines()]
    return bool(rows) and all(
        Fraction(row["target"]) == Fraction(1, int(row["n"]) + 1)
        and Fraction(row["final_error"]) == abs(Fraction(row["final_moment"]) - Fraction(row["target"]))
        for row in rows)


# -- big-weight ---------------------------------------------------------------


BIG_LO, BIG_HI = 4200, 4600  # the pool: the class weights in this range
BIG_WEIGHTS = 18  # request groups per run


def big_weights(mods) -> list:
    """The pool of large weights."""
    return list(mods.ghost.GhostContext(7, 2, 1).class_members(BIG_LO, BIG_HI))


def big_requests(mods, ctx, k: int) -> list:
    """thresholds, predict, and slopes half a unit below and above M(k)."""
    m = mods.ghost.max_zero_distance(ctx, k).value
    base = [*CLI_CTX, "--format", "json", "--jobs", "1"]
    return [
        ["thresholds", "-k", str(k), *base],
        ["predict", "-k", str(k), *base],
        ["slopes", "-k", str(k), "-r", rational_text(m - Fraction(1, 2)), *base],
        ["slopes", "-k", str(k), "-r", rational_text(m + Fraction(1, 2)), *base],
    ]


def big_plan(mods, rng: random.Random) -> list:
    pool = big_weights(mods)
    ctx = mods.ghost.GhostContext(7, 2, 1)
    order = spread_order(len(pool), rng.random())[:BIG_WEIGHTS]
    return [big_requests(mods, ctx, pool[i]) for i in order]


def check_threshold_relation(thresholds: dict, prediction: dict) -> None:
    """The known L-invariant block is -(closed CS + 1), and the exceptional
    count is the size of the sweep block (global multiplicity 1)."""
    closed = [Fraction(v) for v, prov in zip(thresholds["local"], thresholds["provenance"])
              if prov == "closed"]
    known = [Fraction(v) for v, m in prediction["linv_known"] for _ in range(m)]
    if sorted(-(c + 1) for c in closed) != sorted(known):
        raise Failure(f"k = {thresholds['k']}: linv block != -(closed CS + 1)")
    sweep = thresholds["provenance"].count("sweep")
    if prediction["exceptional"] != sweep:
        raise Failure(f"k = {thresholds['k']}: exceptional count "
                      f"{prediction['exceptional']} != sweep block {sweep}")


def big_item(mods, state, item, refs, clock) -> tuple:
    scaled = wall = 0.0
    outs = []
    for argv in item:
        dt, dw, out = call_cli(mods, clock, argv)
        refs.check(" ".join(argv), out)
        scaled += dt
        wall += dw
        outs.append(out)
    thresholds, prediction, below, above = (json.loads(o) for o in outs)
    check_threshold_relation(thresholds, prediction)
    d_new = len(thresholds["local"])
    if len(below["newslopes"]) != d_new or len(above["newslopes"]) != d_new:
        raise Failure(f"k = {thresholds['k']}: newslope count != threshold count {d_new}")
    return scaled, wall, sum(len(o) for o in outs)


# -- hull-oracle --------------------------------------------------------------

HULL_CONTEXTS = ((7, 2, 1), (11, 6, 9))
HULL_LO, HULL_HI = 20, 2000  # the weight range of the pairs
HULL_PAIRS = 320  # pairs per run
HULL_COLD_PAIRS = 100  # leading pairs, in a fixed order, whose latencies do not count
INF_SHARE = 0.1


def hull_radius(v: float):
    """The radius at v in [0, 1): INF on a tenth of the interval, else a/b
    with a in 1..12 and b in 1..4."""
    if v < INF_SHARE:
        return None
    idx = min(47, int((v - INF_SHARE) / (1 - INF_SHARE) * 48))
    return Fraction(idx // 4 + 1, idx % 4 + 1)


def hull_key(params: tuple, k: int, radius) -> str:
    r = "inf" if radius is None else rational_text(radius)
    return f"{params[0]},{params[1]},{params[2]} k={k} r={r}"


def hull_plan(mods, rng: random.Random) -> list:
    """The same HULL_PAIRS pairs on every seed, alternating between the
    contexts.  Each context asks HULL_PAIRS / 2 distinct weights, spread
    evenly over its class in [HULL_LO, HULL_HI] and visited in
    golden-ratio order, with radii from a Weyl sequence on the plastic
    number.  The first HULL_COLD_PAIRS pairs come in this order; the seed
    shuffles the rest.

    A pool drawn per seed made the tail a draw of its own: the slowest
    pairs differed from seed to seed.  A weight asked twice lets whichever
    of its pairs comes first pay for its tables, so each weight is asked
    once.
    """
    n = HULL_PAIRS // 2
    per_context = []
    for params in HULL_CONTEXTS:
        ctx = mods.ghost.GhostContext(*params)
        members = [k for k in ctx.class_members(HULL_LO, HULL_HI)
                   if mods.ghost.dimensions(ctx, k).d_iw >= 2]
        ks = [members[(2 * i + 1) * len(members) // (2 * n)] for i in range(n)]
        per_context.append([(params, ks[i], hull_radius((0.5 + j / PLASTIC**2) % 1.0))
                            for j, i in enumerate(spread_order(n, 0.5))])
    pairs = [pair for group in zip(*per_context) for pair in group]
    measured = pairs[HULL_COLD_PAIRS:]
    rng.shuffle(measured)
    return pairs[:HULL_COLD_PAIRS] + measured


def hull_start(mods) -> dict:
    return {params: mods.ghost.GhostContext(*params) for params in HULL_CONTEXTS}


def hull_warm_up(mods, state, clock) -> float:
    """Fill each context's derivative polygons for every class weight up
    to 2 * HULL_HI, the weights the pairs' witness scans read; return the
    scaled seconds it took.

    Filled lazily, each polygon was paid for by the first pair whose scan
    read it, so the order of the pairs decided which were slow: the same
    pairs in another order moved the tail by 14% (quartile spread of six
    orders), against 4% after this warm-up.  It takes about 10 s, so it
    is timed a few weights at a time, for the scaling to follow the
    machine's speed.
    """
    def fill(ctx, ks):
        for k in ks:
            mods.slopes.derivative_polygon(ctx, k)

    scaled = 0.0
    for ctx in state.values():
        ks = list(ctx.class_members(2, 2 * HULL_HI))
        for i in range(0, len(ks), 8):
            scaled += clock.measure(fill, ctx, ks[i:i + 8])[0]
    return scaled


def hull_item(mods, state, item, refs, clock) -> tuple:
    params, k, radius = item
    ctx = state[params]
    w = mods.ghost.WeightPoint(k, mods.valuation.INF if radius is None else radius)
    n = mods.ghost.dimensions(ctx, k).d_iw

    def query():
        return (mods.slopes.breakpoints_by_criterion(ctx, w, n),
                mods.slopes.certified_newton_polygon(ctx, w, n))

    scaled, wall, (crit, hull) = clock.measure(query)
    verts = [(x, y) for x, y in hull.vertices if x <= n]  # the certified part
    key = hull_key(params, k, radius)
    if crit != {x for x, _ in verts}:
        raise Failure(f"{key}: criterion {sorted(crit)} != hull vertices {[x for x, _ in verts]}")
    refs.check(key, " ".join(f"{x}:{rational_text(y.value)}" for x, y in verts).encode())
    return scaled, wall, 0


# -- registry -----------------------------------------------------------------

# big-weight uses weights near 4400: a request group at 15000..25000
# takes 13-23 s on a 2 GHz Xeon, so a 25 s run would hold too few items
# for a median and a tail.  A narrow range keeps the cost of its items
# alike, so the median does not depend on which weights a seed draws.
WORKLOADS = {
    "dist-sweep": dict(plan=dist_plan, start=lambda mods: None, item=dist_item),
    "big-weight": dict(plan=big_plan, start=lambda mods: None, item=big_item),
    # The first pairs still fill caches of their own and are the
    # costliest; had they ranked among the 11 slowest, the tail would fall
    # among cold or warm queries by chance.  So p50 and the tail are taken
    # after them, while items_per_s counts every pair, cold ones included.
    "hull-oracle": dict(plan=hull_plan, start=hull_start, warm_up=hull_warm_up,
                        item=hull_item, warm_after=HULL_COLD_PAIRS),
}
