"""Command-line front end: configure a context, run pipelines, verify.

Subcommands map one-to-one onto the library layers: ``ghost`` renders
coefficient polynomials, ``slopes`` evaluates newslopes at a radius,
``thresholds`` and ``predict`` emit the threshold and L-invariant
pipelines, ``dist`` sweeps a weight range for equidistribution tables,
and ``verify`` replays every module's invariant suite and exits nonzero
on any failure.

Output is canonical: identical configuration produces identical bytes,
JSON keys are sorted, and rationals render as "num/den" in lowest
terms.  Exit codes: 0 success, 1 invalid configuration, 2 domain error
during computation, 3 verification failure.

Set GHOST_SLOPES_CACHE to a directory to persist threshold and sweep
output between runs; without it nothing touches the filesystem.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import random
import sys
import tempfile
from fractions import Fraction
from typing import Callable, List, Tuple

from .distribution import (
    SampleKind,
    discrepancy,
    sample,
    sample_difference_bound,
    weyl_csv,
    weyl_moments,
)
from .errors import ConfigError, DomainError, VerificationError
from .ghost import (
    GhostContext,
    WeightPoint,
    dimensions,
    ghost_multiplicity,
    ghost_polynomial,
    ghost_zero_set,
    max_zero_distance,
)
from .polygon import dual_graph, lower_hull
from .prediction import Rel, build_model, exceptional_bound, predict_slopes
from .slopes import (
    breakpoints_by_criterion,
    certified_newton_polygon,
    derivative_polygon,
    k_newslopes,
    k_thresholds,
)
from .valuation import INF, format_rational, weight_distance
from .wedge import (
    ExactMatrix,
    TruncationMode,
    binomial_vandermonde,
    d_matrix_truncated,
    determinant,
    formal_wedge_trace,
    linear_system_roundtrip,
    random_int_matrix,
    wedge_collapse_check,
)

FORMATS = ("json", "csv", "table")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; remap to the config exit code
    def error(self, message):
        raise ConfigError(message)


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"expected lo:hi, got {text!r}") from None
    if lo > hi:
        raise ConfigError(f"empty weight range {text!r}")
    return lo, hi


def _parse_radius(text: str):
    if text.strip() == "inf":
        return INF
    try:
        radius = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"radius must be an integer or num/den, got {text!r}") from None
    if radius <= 0:
        raise ConfigError(f"radius must be > 0, got {text!r}")
    return radius


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("-p", type=int, default=7, help="prime (default 7)")
    common.add_argument("-a", type=int, default=2, help="residual weight parameter")
    common.add_argument("-e", dest="s_eps", type=int, default=1, help="twist exponent s_eps")
    common.add_argument("-m", dest="global_mult", type=int, default=1, help="global multiplicity m(rbar)")
    common.add_argument("--mode", choices=("strict", "exploratory"), default="exploratory")
    common.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled verification")
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes for weight sweeps")

    parser = _Parser(prog="ghost-slopes", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_ghost = sub.add_parser("ghost", parents=[common], help="render ghost polynomials g_1..g_n")
    p_ghost.add_argument("-n", type=int, required=True, help="how many coefficients")

    p_slopes = sub.add_parser("slopes", parents=[common], help="newslopes of a weight at a radius")
    p_slopes.add_argument("-k", type=int, required=True)
    p_slopes.add_argument("-r", dest="radius", required=True, help='radius as "num/den", integer, or inf')

    p_thresh = sub.add_parser("thresholds", parents=[common], help="threshold radii CS_n(k)")
    p_thresh.add_argument("-k", type=int, required=True)

    p_pred = sub.add_parser("predict", parents=[common], help="predicted L-invariant slopes for k")
    p_pred.add_argument("-k", type=int, required=True)

    p_dist = sub.add_parser("dist", parents=[common], help="equidistribution sweep over a weight range")
    p_dist.add_argument("--k-range", dest="k_range", required=True, help="weight range lo:hi")
    p_dist.add_argument("-n", type=int, default=2, help="largest moment order (default 2)")

    p_verify = sub.add_parser("verify", parents=[common], help="run every invariant suite")
    p_verify.add_argument("--k-range", dest="k_range", default="10:600", help="sweep range for sampled checks")

    return parser


def _context(args) -> GhostContext:
    """The context the parsed flags name; GhostContext validates them."""
    return GhostContext(args.p, args.a, args.s_eps, args.global_mult, args.mode)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """Short digest of the package's own .py sources, read once."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def _cached_text(key: str, build: Callable[[], str]) -> str:
    root = os.environ.get("GHOST_SLOPES_CACHE")
    if not root:
        return build()
    try:
        os.makedirs(root, exist_ok=True)
        path = os.path.join(root, f"{_source_digest()}-{key}")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
    except OSError as exc:
        raise ConfigError(f"GHOST_SLOPES_CACHE={root!r} is unusable: {exc}") from None
    text = build()
    # a crash mid-write leaves at most a temp file, never a short entry
    try:
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    except OSError as exc:
        raise ConfigError(f"GHOST_SLOPES_CACHE={root!r}: write failed: {exc}") from None
    return text


def _ctx_key(args) -> str:
    return f"p{args.p}-a{args.a}-e{args.s_eps}-m{args.global_mult}-{args.mode}"


# -- command implementations ------------------------------------------------


def render_ghost_polynomial(gp) -> str:
    """Display form "g_n(w) = (w - w_k)^m ..." with zeros ascending."""
    factors = [
        f"(w - w_{k})" + (f"^{m}" if m > 1 else "") for k, m in gp.zeros
    ]
    return f"g_{gp.n}(w) = " + " ".join(factors)


def cmd_ghost(args) -> str:
    if args.n < 0:
        raise ConfigError("ghost needs -n >= 0")
    ctx = _context(args)
    polys = [ghost_polynomial(ctx, n) for n in range(1, args.n + 1)]
    if args.fmt == "json":
        return _json_text([gp.to_json_dict() for gp in polys])
    if args.fmt == "csv":
        lines = ["n,k,mult"]
        for gp in polys:
            lines.extend(f"{gp.n},{k},{m}" for k, m in gp.zeros)
        return "\n".join(lines) + "\n"
    return "".join(render_ghost_polynomial(gp) + "\n" for gp in polys)


def cmd_slopes(args) -> str:
    ctx = _context(args)
    radius = _parse_radius(args.radius)
    slopes = k_newslopes(ctx, args.k, WeightPoint(args.k, radius))
    rendered = [format_rational(s) for s in slopes]
    if args.fmt == "json":
        return _json_text(
            {"k": args.k, "radius": format_rational(radius), "newslopes": rendered}
        )
    if args.fmt == "csv":
        lines = ["i,slope"]
        lines.extend(f"{i},{s}" for i, s in enumerate(rendered, 1))
        return "\n".join(lines) + "\n"
    return "".join(s + "\n" for s in rendered)


def cmd_thresholds(args) -> str:
    def build() -> str:
        ctx = _context(args)
        tv = k_thresholds(ctx, args.k)
        if args.fmt == "json":
            return _json_text(tv.to_json_dict())
        pairs = list(zip(tv.local_thresholds, tv.provenance))
        if args.fmt == "csv":
            lines = ["n,value,provenance"]
            lines.extend(
                f"{n},{format_rational(v)},{prov}"
                for n, (v, prov) in enumerate(pairs, 1)
            )
            return "\n".join(lines) + "\n"
        return "".join(
            f"CS_{n}({args.k}) = {format_rational(v)} [{prov}]\n"
            for n, (v, prov) in enumerate(pairs, 1)
        )

    return _cached_text(f"thresholds-{_ctx_key(args)}-k{args.k}-{args.fmt}.txt", build)


def cmd_predict(args) -> str:
    ctx = _context(args)
    pred = predict_slopes(ctx, args.k)
    if args.fmt == "json":
        return _json_text(pred.to_json_dict())
    if args.fmt == "csv":
        lines = ["kind,slope,mult"]
        lines.extend(
            f"known,{format_rational(v)},{m}" for v, m in pred.linv_slopes_known
        )
        lines.append(
            f"floor,{format_rational(pred.linv_floor.value)},{pred.exceptional_count}"
        )
        return "\n".join(lines) + "\n"
    lines = [f"k = {pred.k.k}"]
    lines.extend(
        f"linv {format_rational(v)} x{m}" for v, m in pred.linv_slopes_known
    )
    lines.append(
        f"floor {format_rational(pred.linv_floor.value)} x{pred.exceptional_count}"
    )
    return "".join(line + "\n" for line in lines)


def _samples_at(ctx: GhostContext, k: int) -> list:
    """The nonempty samples of weight k, one per kind at most."""
    return [s for kind in SampleKind if (s := sample(ctx, k, kind)).values]


def _sample_task(args, k: int) -> list:
    # a worker process builds its own context from the parsed flags
    return _samples_at(_context(args), k)


def _collect_samples(args, ctx: GhostContext, ks: List[int]) -> list:
    workers = min(args.jobs, len(ks), os.cpu_count() or 1)
    if workers > 1 and len(ks) >= 8:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_sample_task, [args] * len(ks), ks))
    else:
        # one shared context, so degree tables carry over between weights
        groups = [_samples_at(ctx, k) for k in ks]
    return [s for group in groups for s in group]


def cmd_dist(args) -> str:
    lo, hi = _parse_range(args.k_range)
    n_max = args.n
    if n_max < 1:
        raise ConfigError("moment order must be >= 1")

    def build() -> str:
        ctx = _context(args)
        ks = list(ctx.class_members(lo, hi))
        samples = _collect_samples(args, ctx, ks)
        if not samples:
            raise DomainError(f"no nonempty samples for weights in [{lo}, {hi}]")
        if args.fmt == "csv":
            return weyl_csv(samples, n_max)
        by_kind = {}
        for s in samples:
            by_kind.setdefault(s.kind, []).append(s)
        rows = []
        for kind in SampleKind:
            group = by_kind.get(kind, [])
            if len(group) < 3:
                continue
            for rep in weyl_moments(group, n_max):
                rows.append(
                    {
                        "kind": kind.value,
                        "n": rep.n,
                        "target": format_rational(rep.target),
                        "ks": list(rep.ks),
                        "moments": [format_rational(m) for m in rep.moments],
                        "final_error": format_rational(rep.final_error),
                        "trend_monotone": rep.trend_monotone,
                        "final_discrepancy": format_rational(
                            discrepancy(group[-1])
                        ),
                    }
                )
        if not rows:
            raise DomainError("need at least three weights per kind in range")
        if args.fmt == "json":
            return _json_text(rows)
        lines = []
        for r in rows:
            lines.append(
                f"{r['kind']} n={r['n']} target={r['target']} "
                f"final_moment={r['moments'][-1]} final_error={r['final_error']} "
                f"trend={'ok' if r['trend_monotone'] else 'drift'}"
            )
        return "".join(line + "\n" for line in lines)

    key = f"dist-{_ctx_key(args)}-r{lo}-{hi}-n{n_max}-{args.fmt}.txt"
    return _cached_text(key, build)


# -- verification suites ------------------------------------------------------

# each suite raises VerificationError with a pinpointed message


def _suite_ultrametric(ctx, rng, ks):
    for _ in range(40):
        k1, k2, k3 = rng.sample(ks, 3)
        d12 = weight_distance(k1, k2, ctx.p)
        if d12 != weight_distance(k2, k1, ctx.p) or d12 < 1:
            raise VerificationError(f"distance axioms fail at ({k1}, {k2})")
        trio = sorted(
            [d12, weight_distance(k1, k3, ctx.p), weight_distance(k2, k3, ctx.p)]
        )
        if trio[0] != trio[1]:
            raise VerificationError(
                f"ultrametric minimum unique at ({k1}, {k2}, {k3})"
            )


def _suite_dimensions(ctx, rng, ks):
    step = ctx.p**2 - 1
    for k in ks:
        trip = dimensions(ctx, k)
        if trip.d_iw != trip.d_new + 2 * trip.d_ur:
            raise VerificationError(f"d_iw != d_new + 2 d_ur at k = {k}")
        if dimensions(ctx, k + step).d_ur - trip.d_ur != 2:
            raise VerificationError(f"d_ur step != 2 at k = {k}")
        if abs(trip.d_iw - Fraction(2 * k, ctx.p - 1)) > 16:
            raise VerificationError(f"d_iw drifts from 2k/(p-1) at k = {k}")
        if abs(trip.d_new - Fraction(2 * k, ctx.p + 1)) > 16:
            raise VerificationError(f"d_new drifts from 2k/(p+1) at k = {k}")


def _suite_multiplicity_symmetry(ctx, rng, ks):
    for k in rng.sample(ks, min(12, len(ks))):
        d_iw = dimensions(ctx, k).d_iw
        for n in range(1, d_iw):
            if ghost_multiplicity(ctx, n, k) != ghost_multiplicity(ctx, d_iw - n, k):
                raise VerificationError(f"m_n(k) asymmetric at (n, k) = ({n}, {k})")


def _suite_zero_distance_bound(ctx, rng, ks):
    for k in rng.sample(ks, min(15, len(ks))):
        ghost_zero_set(ctx, k)  # raises when M(k) exceeds its log cap


def _suite_hull_idempotence(ctx, rng, ks):
    for _ in range(25):
        pts = [
            (x, Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            for x in range(rng.randint(2, 12))
        ]
        hull = lower_hull(pts)
        again = lower_hull(list(hull.vertices))
        if again.vertices != hull.vertices:
            raise VerificationError(f"hull not idempotent on {pts}")


def _suite_gauss_norm_duality(ctx, rng, ks):
    for _ in range(25):
        vals = [Fraction(rng.randint(0, 30)) for _ in range(rng.randint(2, 10))]
        hull = lower_hull(list(enumerate(vals)))
        r_min = -max(s for s, _ in hull.slopes) - 1
        dg = dual_graph(vals, r_min)
        kinks = [(-r.value, drop) for r, drop in dg.breakpoints()]
        if sorted(kinks) != sorted((s, m) for s, m in hull.slopes):
            raise VerificationError(f"polygon/dual mismatch on {vals}")
        for r_lo, r_hi, n, intercept in dg.segments:
            if intercept != vals[n]:
                raise VerificationError(f"dual intercept != v_p(a_{n}) on {vals}")


def _suite_criterion_vs_hull(ctx, rng, ks):
    radii = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 4, INF]
    for k in rng.sample(ks, min(8, len(ks))):
        trip = dimensions(ctx, k)
        if trip.d_iw < 2:
            continue
        w = WeightPoint(k, rng.choice(radii))
        crit = breakpoints_by_criterion(ctx, w, trip.d_iw)
        hull = certified_newton_polygon(ctx, w, trip.d_iw)
        if crit != {x for x in hull.vertex_xs() if x <= trip.d_iw}:
            raise VerificationError(f"criterion != hull vertices at (k, r) = ({k}, {w.radius})")


def _suite_hatted_duality(ctx, rng, ks):
    for k in rng.sample(ks, min(10, len(ks))):
        derivative_polygon(ctx, k)  # raises when the hatted duality fails


def _suite_slope_integrality(ctx, rng, ks):
    for k in rng.sample(ks, min(20, len(ks))):
        for sl, m in derivative_polygon(ctx, k).slopes:
            if m == 1:
                if (sl - Fraction(ctx.a, 2)).denominator != 1:
                    raise VerificationError(f"unit-mult slope {sl} not in a/2 + Z at k = {k}")
            elif m % 2 or sl.denominator != 1:
                raise VerificationError(f"slope {sl} x{m} breaks parity at k = {k}")


def _suite_threshold_consistency(ctx, rng, ks):
    half_ks = rng.sample(ks, min(5, len(ks)))
    for k in half_ks:
        half = Fraction(k - 2, 2)
        tv = k_thresholds(ctx, k)
        for n, cs in enumerate(tv.local_thresholds, 1):
            cs = cs.value
            above = k_newslopes(ctx, k, WeightPoint(k, cs + 1))
            if above[n - 1] != half:
                raise VerificationError(f"newslope {n} not locked above CS at k = {k}")
            below = cs / 2 if cs <= Fraction(1, 2) else cs - Fraction(1, 2)
            if below > 0 and k_newslopes(ctx, k, WeightPoint(k, below))[n - 1] == half:
                raise VerificationError(f"newslope {n} locked below CS at k = {k}")


def _suite_increment_lower_bound(ctx, rng, ks):
    for k in rng.sample(ks, min(15, len(ks))):
        dp = derivative_polygon(ctx, k)
        for l in range(1, len(dp.raw)):
            if dp.raw[l] - dp.raw[l - 1] < Fraction(3, 2) + Fraction(ctx.p - 1, 2) * (l - 1):
                raise VerificationError(f"increment bound fails at (k, l) = ({k}, {l})")


def _suite_model_and_pattern(ctx, rng, ks):
    for k in rng.sample(ks, min(10, len(ks))):
        model = build_model(ctx, k)  # hull profile asserted internally
        for _, j in model.eq_cells():
            strict = [model.rel(i, j) for i in range(1, model.d + 1)].count(Rel.GT)
            if strict != j - 1:
                raise VerificationError(
                    f"column {j} carries {strict} strict entries at k = {k}"
                )


def _suite_threshold_relation(ctx, rng, ks):
    for k in rng.sample(ks, min(10, len(ks))):
        pred = predict_slopes(ctx, k)
        tv = k_thresholds(ctx, k)
        closed = []
        sweep_count = 0
        for cs, prov in zip(tv.local_thresholds, tv.provenance):
            if prov == "closed":
                closed.extend([cs.value] * ctx.global_mult)
            else:
                sweep_count += ctx.global_mult
        flat = []
        for v, m in pred.linv_slopes_known:
            flat.extend([v] * m)
        if sorted(-(c + 1) for c in closed) != sorted(flat):
            raise VerificationError(f"linv block != -(CS + 1) at k = {k}")
        if pred.exceptional_count != sweep_count:
            raise VerificationError(f"exceptional count != central block at k = {k}")
        if pred.exceptional_count > exceptional_bound(ctx, k):
            raise VerificationError(f"exceptional count above log bound at k = {k}")


def _suite_wedge(ctx, rng, ks):
    for trial in range(5):
        d = 2 + trial % 3
        mats = [random_int_matrix(rng, d) for _ in range(rng.randint(1, d))]
        alpha = Fraction(rng.randint(1, 5))
        n = rng.randint(0, d - len(mats))
        if not wedge_collapse_check(mats, n, alpha, d=d):
            raise VerificationError(f"collapse identity fails for d = {d}")
    for d in range(1, 9):
        for j in range(1, d + 1):
            if determinant(d_matrix_truncated(d, j, TruncationMode.UPPER_LEFT)) != 1:
                raise VerificationError(f"det D_{d}({j}) != 1")
            if j % 2 == 0 and determinant(
                d_matrix_truncated(d, j, TruncationMode.SPLIT)
            ) != 1:
                raise VerificationError(f"det D'_{d}({j}) != 1")
    for n in range(1, 7):
        for n0 in range(0, 4):
            xs = tuple(range(n0 + n - 1, n0 - 1, -1))
            if binomial_vandermonde(xs) != 1:
                raise VerificationError(f"BV{xs} != 1")
    for trial in range(5):
        d = rng.randint(2, 6)
        j = rng.randint(1, d)
        ms = [Fraction(rng.randint(-9, 9)) for _ in range(j)]
        if not linear_system_roundtrip(d, j, Fraction(rng.randint(1, 7)), ms):
            raise VerificationError(f"round trip fails for (d, j) = ({d}, {j})")
    b1, b2 = (random_int_matrix(rng, 3) for _ in range(2))
    lhs = formal_wedge_trace([b1, b2]) + formal_wedge_trace([b2, b1])
    prod = ExactMatrix.from_rows(
        [
            [
                sum(b1.entries[i][t] * b2.entries[t][j] for t in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    tr = lambda m: sum(m.entries[i][i] for i in range(3))
    if lhs != tr(b1) * tr(b2) - tr(prod):
        raise VerificationError("symmetrized pair identity fails")


def _suite_sample_relations(ctx, rng, ks):
    norm_ks = rng.sample(ks, min(8, len(ks)))
    for k in norm_ks:
        st = sample(ctx, k, SampleKind.THRESHOLD)
        sd = sample(ctx, k, SampleKind.DERIVATIVE)
        if not st.values:
            continue
        if ctx.global_mult == 1:
            cut = Fraction(2 * (ctx.p + 1), (ctx.p - 1) * k) * max_zero_distance(
                ctx, k
            ).value
            if [v for v in st.values if v > cut] != [v for v in sd.values if v > cut]:
                raise VerificationError(f"threshold/derivative blocks differ at k = {k}")
            diff = sum(1 for x, y in zip(st.values, sd.values) if x != y)
            if diff > sample_difference_bound(ctx, k):
                raise VerificationError(f"sample difference above bound at k = {k}")
        top = max(sd.values)
        for n in (1, 2, 3):
            if sd.moment(n) > top**n:
                raise VerificationError(f"moment exceeds max-value bound at k = {k}")


def _suite_moment_trend(ctx, rng, ks):
    samples = [sample(ctx, k, SampleKind.THRESHOLD) for k in ks]
    samples = [s for s in samples if s.values]
    if len(samples) < 3:
        raise VerificationError("too few nonempty samples for a trend")
    for n in (1, 2, 3):
        target = Fraction(1, n + 1)
        first = abs(samples[0].moment(n) - target)
        last = abs(samples[-1].moment(n) - target)
        if last >= first:
            raise VerificationError(
                f"moment {n} drifts: |{last}| at k = {samples[-1].k.k} "
                f"vs |{first}| at k = {samples[0].k.k}"
            )


SUITES = (
    ("ultrametric-distance", _suite_ultrametric),
    ("dimension-structure", _suite_dimensions),
    ("multiplicity-symmetry", _suite_multiplicity_symmetry),
    ("zero-distance-bound", _suite_zero_distance_bound),
    ("hull-idempotence", _suite_hull_idempotence),
    ("gauss-norm-duality", _suite_gauss_norm_duality),
    ("criterion-vs-hull", _suite_criterion_vs_hull),
    ("hatted-duality", _suite_hatted_duality),
    ("slope-integrality", _suite_slope_integrality),
    ("threshold-consistency", _suite_threshold_consistency),
    ("increment-lower-bound", _suite_increment_lower_bound),
    ("model-hull-and-pattern", _suite_model_and_pattern),
    ("threshold-relation", _suite_threshold_relation),
    ("wedge-identities", _suite_wedge),
    ("sample-relations", _suite_sample_relations),
    ("moment-trend", _suite_moment_trend),
)


def cmd_verify(args) -> str:
    lo, hi = _parse_range(args.k_range)
    ctx = _context(args)
    ks = list(ctx.class_members(lo, hi))
    if len(ks) < 3:
        raise ConfigError(f"range [{lo}, {hi}] holds fewer than three class weights")
    failures = []
    for name, suite in SUITES:
        rng = random.Random(f"{args.seed}:{name}")
        try:
            suite(ctx, rng, ks)
        except VerificationError as exc:
            failures.append(name)
            sys.stdout.write(f"FAIL {name}: {exc}\n")
        else:
            sys.stdout.write(f"ok {name}\n")
    if failures:
        raise VerificationError(f"{len(failures)} suite(s) failed: {', '.join(failures)}")
    return ""


DISPATCH = {
    "ghost": cmd_ghost,
    "slopes": cmd_slopes,
    "thresholds": cmd_thresholds,
    "predict": cmd_predict,
    "dist": cmd_dist,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        sys.stdout.write(DISPATCH[args.command](args))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"{exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
