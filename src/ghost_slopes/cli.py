"""Command-line front end: configure a context, run pipelines, verify.

Subcommands map one-to-one onto the library layers: ``ghost`` renders
coefficient polynomials, ``slopes`` evaluates newslopes at a radius,
``thresholds`` and ``predict`` emit the threshold and L-invariant
pipelines, ``dist`` sweeps a weight range for equidistribution tables in
one loop, in-process or per pool worker, that shares periods and returns
moment rows, and ``verify`` runs the sampled invariant suites of
:mod:`ghost_slopes.checks`, which the tests share, and exits nonzero on failure.

Output is canonical: identical configuration produces identical bytes,
JSON keys are sorted, and rationals render as "num/den" in lowest terms.
A command returns its lines, which :func:`main` writes one at a time.  All
but ``verify`` compute their answer before they return, so their errors come
before the first byte, and make their lines with one renderer, :func:`_emit`.
Exit codes, which :func:`main` returns, help included: 0 success, 1 invalid
configuration, 2 domain error during computation or out of memory, 3
verification failure, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain, count
from typing import Iterable, Iterator, List, Tuple

from .distribution import SampleKind, discrepancy, sample, weyl_csv, weyl_moments
from .errors import ConfigError, DomainError, VerificationError
from .ghost import K_CEILING, MAX_TABLE_INDEX, GhostContext, WeightPoint, dimensions, ghost_polynomial
from .prediction import predict_slopes
from .slopes import k_thresholds, newslope_runs
from .valuation import INF, format_rational, runs_text

FORMATS = ("json", "csv", "table")

# class weights one dist or verify range may hold; far above the widest
# range in use (1,999 weights in 10:12000 on (7,2,1)), and refused before
# any weight is listed
MAX_RANGE_WEIGHTS = 10_000

# largest ghost -n and dist -n: the polynomials and power sums they ask
# for grow with n, and these are far above the widest in use (8 and 3)
MAX_GHOST_N = 64
MAX_MOMENT_ORDER = 32

# longest -r text; longer texts and exponents are refused before parsing, as
# 1e20000000 takes seconds and 1e-100000 passes Python's int-to-text digit limit
MAX_RADIUS_CHARS = 64


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
    if hi > K_CEILING:
        raise DomainError(f"weight range {text!r} exceeds K_CEILING = {K_CEILING}")
    return lo, hi


def _range_weights(ctx: GhostContext, text: str, lo: int, hi: int) -> List[int]:
    ks = ctx.class_members(lo, hi)
    if len(ks) > MAX_RANGE_WEIGHTS:
        raise DomainError(
            f"weight range {text!r} holds {len(ks)} class weights, "
            f"above MAX_RANGE_WEIGHTS = {MAX_RANGE_WEIGHTS}"
        )
    # the top weight's tables reach its d_iw: past the table cap, refuse before any weight's work
    if ks and (d_iw := dimensions(ctx, ks[-1]).d_iw) > MAX_TABLE_INDEX:
        raise DomainError(f"table index {d_iw} exceeds MAX_TABLE_INDEX = {MAX_TABLE_INDEX}")
    return list(ks)


def _parse_radius(text: str):
    if len(text) > MAX_RADIUS_CHARS or "e" in text.lower():
        raise ConfigError(f"radius needs at most MAX_RADIUS_CHARS = {MAX_RADIUS_CHARS} characters, no exponent")
    if text.strip() == "inf":
        return INF
    try:
        radius = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"radius must be an integer or num/den, got {text!r}") from None
    if radius <= 0:
        raise ConfigError(f"radius must be > 0, got {text!r}")
    return radius


@functools.cache  # one parser per process, built on first use; nothing in it depends on when it was built
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("-p", type=int, default=7, help="prime (default 7)")
    common.add_argument("-a", type=int, default=2, help="residual weight parameter")
    common.add_argument("-e", dest="s_eps", type=int, default=1, help="twist exponent s_eps")
    common.add_argument("-m", dest="global_mult", type=int, default=1, help="global multiplicity m(rbar)")
    common.add_argument("--mode", choices=("strict", "exploratory"), default="exploratory")
    common.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled verification")
    common.add_argument("--jobs", type=int, help="worker processes for weight sweeps (default: CPU count)")

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


def _emit(args, value, header: str, rows: Iterable[tuple], lines: Iterable[str]) -> Iterable[str]:
    """``value`` as sorted JSON, ``header`` and the comma-joined ``rows`` as CSV, or the
    table ``lines``, as ``--format`` asks; newline-ended, each CSV or table line made as written."""
    if args.fmt == "json":
        return [json.dumps(value, sort_keys=True) + "\n"]
    if args.fmt == "csv":
        lines = chain([header], (",".join(map(str, row)) for row in rows))
    return (line + "\n" for line in lines)


# -- command implementations ------------------------------------------------


def render_ghost_polynomial(gp) -> str:
    """Display form "g_n(w) = (w - w_k)^m ..." with zeros ascending, and
    "g_n(w) = 1" for the empty product."""
    factors = [f"(w - w_{k})" + (f"^{m}" if m > 1 else "") for k, m in gp.zeros]
    return f"g_{gp.n}(w) = " + (" ".join(factors) or "1")


def cmd_ghost(args) -> Iterable[str]:
    if not (0 <= args.n <= MAX_GHOST_N):
        raise ConfigError(f"ghost needs 0 <= -n <= MAX_GHOST_N = {MAX_GHOST_N}")
    ctx = _context(args)
    polys = [ghost_polynomial(ctx, n) for n in range(1, args.n + 1)]
    rows = ((gp.n, k, m) for gp in polys for k, m in gp.zeros)
    return _emit(args, [gp.to_json_dict() for gp in polys], "n,k,mult", rows, map(render_ghost_polynomial, polys))


def cmd_slopes(args) -> Iterable[str]:
    ctx = _context(args)
    radius = _parse_radius(args.radius)
    runs = newslope_runs(ctx, args.k, WeightPoint(args.k, radius))
    rendered = runs_text(runs)
    value = {"k": args.k, "radius": format_rational(radius), "newslopes": rendered}
    return _emit(args, value, "i,slope", enumerate(rendered, 1), rendered)


def cmd_thresholds(args) -> Iterable[str]:
    data = k_thresholds(_context(args), args.k).to_json_dict()
    rows = zip(count(1), data["local"], data["provenance"])  # read once, by CSV or by the table
    lines = (f"CS_{n}({args.k}) = {v} [{prov}]" for n, v, prov in rows)
    return _emit(args, data, "n,value,provenance", rows, lines)


def cmd_predict(args) -> Iterable[str]:
    data = predict_slopes(_context(args), args.k).to_json_dict()
    known, floor, n = data["linv_known"], data["floor"], data["exceptional"]
    rows = chain((("known", v, m) for v, m in known), [("floor", floor, n)])  # made as written; JSON reads neither
    lines = chain([f"k = {args.k}"], (f"linv {v} x{m}" for v, m in known), [f"floor {floor} x{n}"])
    return _emit(args, data, "kind,slope,mult", rows, lines)


def _moment_rows(args, ks: List[int]) -> tuple:
    """(rows, last): the (k, kind, moments) row of each nonempty sample of ks, in weight order, and
    the last such sample of each kind.  Each weight samples on a
    context of its own; all read one dict of deg's and S_1's periods, which depend on (p, a, s_eps) alone."""
    rows, last, periods = [], {}, {}
    for k in ks:
        ctx = _context(args)
        ctx._caches["periods"] = periods
        for kind in SampleKind:
            if (s := sample(ctx, k, kind)).nums:
                rows.append((k, kind, s.moments(args.n)))
                last[kind] = s
    return rows, last


def cmd_dist(args) -> Iterable[str]:
    lo, hi = _parse_range(args.k_range)
    if not (1 <= args.n <= MAX_MOMENT_ORDER):
        raise ConfigError(f"moment order must lie in [1, MAX_MOMENT_ORDER = {MAX_MOMENT_ORDER}]")

    ks = _range_weights(_context(args), args.k_range, lo, hi)
    workers = min(args.jobs or os.cpu_count() or 1, len(ks), os.cpu_count() or 1)
    if workers == 1 or len(ks) < 8:
        parts = [_moment_rows(args, ks)]
    else:  # cost grows with k, so each worker takes every workers-th weight
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_moment_rows, [args] * workers, [ks[i::workers] for i in range(workers)]))
    # a stable sort by k keeps each weight's kinds in order; the highest-k sample of a kind comes last
    moment_rows = sorted(chain.from_iterable(rows for rows, _ in parts), key=lambda row: row[0])
    last = {s.kind: s for s in sorted((s for _, held in parts for s in held.values()), key=lambda s: s.k)}
    del parts  # the workers' last samples: the report starts with one of each kind alive
    if not moment_rows:
        raise DomainError(f"no nonempty samples for weights in [{lo}, {hi}]")
    if args.fmt == "csv":
        return [weyl_csv(moment_rows)]
    rows = []
    for kind in SampleKind:
        group = [(k, mo) for k, kind_, mo in moment_rows if kind_ is kind]
        if len(group) < 3:
            continue
        final_discrepancy = format_rational(discrepancy(last[kind]))
        for rep in weyl_moments(group):
            rows.append(
                {
                    "kind": kind.value,
                    "n": rep.n,
                    "target": format_rational(rep.target),
                    "ks": list(rep.ks),
                    "moments": [format_rational(m) for m in rep.moments],
                    "final_error": format_rational(rep.final_error),
                    "trend_monotone": rep.trend_monotone,
                    "final_discrepancy": final_discrepancy,
                }
            )
    if not rows:
        raise DomainError("need at least three weights per kind in range")
    lines = (
        f"{r['kind']} n={r['n']} target={r['target']} "
        f"final_moment={r['moments'][-1]} final_error={r['final_error']} "
        f"trend={'ok' if r['trend_monotone'] else 'drift'}"
        for r in rows
    )
    return _emit(args, rows, "", (), lines)


def cmd_verify(args) -> Iterator[str]:
    lo, hi = _parse_range(args.k_range)
    ctx = _context(args)
    ks = _range_weights(ctx, args.k_range, lo, hi)
    if len(ks) < 3:
        raise ConfigError(f"range [{lo}, {hi}] holds fewer than three class weights")
    import random

    from .checks import SUITES  # random, checks and wedge load for verify alone

    failures = []
    for name, suite in SUITES:
        rng = random.Random(f"{args.seed}:{name}")
        try:
            suite(ctx, rng, ks)
        except VerificationError as exc:
            failures.append(name)
            yield f"FAIL {name}: {exc}\n"
        else:
            yield f"ok {name}\n"
    if failures:
        raise VerificationError(f"{len(failures)} suite(s) failed: {', '.join(failures)}")


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
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # -h printed the help; _Parser.error raises, so no other exit
            return 0
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        sys.stdout.writelines(DISPATCH[args.command](args))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:  # the reader left; the flush at shutdown goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    except MemoryError:  # a request past the machine's memory, like one past a cap
        print("error: out of memory", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"{exc}", file=sys.stderr)
        return 3
