"""Newslopes, derivative polygons, breakpoint criteria, and thresholds.

The derivative polygon of a weight k packages how the anchored ghost
valuations bend around the center index: its hull slopes s_1 < ... < s_N
drive everything else here.  A pair (n, w) is near-Steinberg for k2 when
the distance from w to w_{k2} reaches the l-th hull increment of k2's
derivative polygon (l the offset of n from k2's center); indices that
are near-Steinberg for nobody are exactly the breakpoints of the ghost
Newton polygon at w.  The increments do not decrease with l, so the
indices near-Steinberg for one k2 form an interval around its center,
and the breakpoints are what no such interval covers.  Newslopes follow
a closed form above the zero radius M(k), else the certified polygon,
both on integers as ascending runs (num, den, mult) of reduced slopes;
their lock radii below M(k) come from an exact parametric sweep.

All hull reads from finite windows are certified against the infinite
series: a window is accepted only once every omitted coefficient
provably stays above the supporting line at the right edge of the
region of interest, using the exact lower bound
v_p(g_n(w)) >= min(radius, 1) * deg(g_n) and the periodicity of the
dimension sequences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from typing import Iterable, List, Tuple

from . import ghost
from .errors import DomainError, VerificationError
from .ghost import (
    GhostContext,
    WeightPoint,
    _bullet_bound,
    _degrees,
    _period_span,
    dimensions,
    hatted_valuation_table,
    level_tables,
    max_zero_distance,
    point_distance,
)
from .polygon import RationalPolygon, edge_at, edge_runs, integer_hull, newton_polygon_at
from .valuation import Valuation, ratio_text, vp_int_raw

# -- derivative polygons ------------------------------------------------------


@dataclass(frozen=True)
class DerivativePolygon:
    """A weight's derivative polygon, held as its integer hull over 2.

    ``raw[l]``, the anchored valuation at center + l minus (k-2)/2 * l for
    l = 0..d_new/2, is a half-integer; ``hull`` is the lower hull of the
    points (l, 2 * raw[l]) over 2, and ``raw``, ``slopes`` (distinct
    s_1 < ... < s_N with multiplicities) and ``breakpoints`` (vertex
    abscissae 0 = n_0 < ... < n_N = d_new/2) read it as Fractions.
    ``edges`` holds each s_i on integers, as the reduced pair (num, den)
    with den > 0, and its multiplicity; read once, it stays on the polygon.
    ``M_index`` is the least i with s_i > M(k), else N + 1.
    """

    k: int
    hull: RationalPolygon
    M_index: int
    m_of_k: Valuation

    raw = property(lambda self: tuple(Fraction(y, 2) for y in self.hull.ys))
    slopes = property(lambda self: self.hull.slopes)
    breakpoints = property(lambda self: self.hull.vertex_xs())

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(edge_runs(self.hull.hull, 2, 0, self.hull.hull[-1][0]))


def derivative_polygon(ctx: GhostContext, k: int) -> DerivativePolygon:
    """Derivative polygon of k, with the duality check run on the way.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> dp = derivative_polygon(ctx, 24)
    >>> dp.raw
    (Fraction(17, 1), Fraction(19, 1), Fraction(25, 1), Fraction(34, 1))
    >>> dp.edges
    ((2, 1, 1), (6, 1, 1), (9, 1, 1))
    """
    kb = ctx.bullet(k)
    cache = ctx._cache("derivative")
    if kb in cache:
        return cache[kb]
    trip = dimensions(ctx, k)
    c, h = trip.d_iw // 2, trip.d_new // 2
    table = hatted_valuation_table(ctx, k, trip.d_iw)
    for l in range(1, h + 1):
        if table[c + l] - table[c - l] != (k - 2) * l:
            raise VerificationError(f"anchored-valuation duality fails at k = {k}, offset {l}")
    twice = tuple(2 * table[c + l] - (k - 2) * l for l in range(h + 1))
    hull = integer_hull(range(h + 1), twice, 2)
    m_of_k = max_zero_distance(ctx, k)
    # one hull edge per distinct slope, so the reach of M(k) is vertex M_index - 1
    m_index = 1 + hull.vertex_xs().index(_reach(hull.hull, *_ratio(m_of_k)))
    cache[kb] = dp = DerivativePolygon(k=k, hull=hull, M_index=m_index, m_of_k=m_of_k)
    return dp


def _reach(hull, u: int, v: int) -> int:
    """How many unit increments of a derivative hull (ordinates over 2) are
    at most the distance u / v, INF as 1 / 0: the slopes increase, so x0 on
    the first edge [x0, x1] with (y1 - y0) v > 2 (x1 - x0) u, else the last
    abscissa."""
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if (y1 - y0) * v > 2 * (x1 - x0) * u:
            return x0
    return hull[-1][0]


def _ratio(val: Valuation) -> Tuple[int, int]:
    # val as u / v, INF as 1 / 0, which every cross-multiplication puts on top
    return (1, 0) if val.is_infinite else val.value.as_integer_ratio()


# -- near-Steinberg criterion ---------------------------------------------------


def is_near_steinberg(ctx: GhostContext, n: int, w: WeightPoint, k2: int) -> bool:
    """Whether the pair (n, w) is near-Steinberg for the weight k2.

    True iff n lies strictly between the old-form counts of k2 and the
    distance from w to w_{k2} reaches the derivative-hull increment at
    offset |n - center(k2)|.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> is_near_steinberg(ctx, 4, WeightPoint(24, 7), 24)
    True
    >>> is_near_steinberg(ctx, 1, WeightPoint(24, 7), 24)
    False
    """
    trip = dimensions(ctx, k2)
    if not trip.d_ur < n < trip.d_iw - trip.d_ur:
        return False
    l = abs(n - trip.d_iw // 2)
    need = edge_at(derivative_polygon(ctx, k2).hull.hull, 2, l)[1]
    return point_distance(ctx, w, k2) >= Valuation(need)


def breakpoints_by_criterion(ctx: GhostContext, w: WeightPoint, n_range: int) -> set:
    """Indices n in [0, n_range] that are near-Steinberg for no weight.

    By the breakpoint criterion these are exactly the vertex abscissae
    of the ghost Newton polygon at w; index 0 always qualifies.  For a
    fixed k2 the hull increments do not decrease, so the n that k2 makes
    near-Steinberg form one interval: |n - center(k2)| < L, L the number
    of increments that the distance from w to w_{k2} reaches.  Only
    bullets j congruent to the anchor's k_bullet mod p, below ``bound`` (the
    first with d_ur >= n_range), can reach the 3/2 floor of every increment
    and mark the range, and since the l-th increment is at least
    3/2 + (p-1) l / 4, a center more than 4 * (dist - 3/2) / (p - 1) past
    n_range marks nothing in range.  Off the anchor, dist is at most
    1 + v_p(k_bullet - j) <= D = 1 + floor(log_p max(k_bullet, bound)), as
    0 < |k_bullet - j| <= max(k_bullet, bound); so the walk ends at the
    first center past n_range + 4 (D - 3/2) / (p - 1), the anchor (dist the
    radius) kept.  Distances are integer pairs u / v, INF as 1 / 0.
    """
    p, kb, (ru, rv) = ctx.p, ctx.bullet(w.anchor), _ratio(w.radius)
    bound = _bullet_bound(ctx, n_range)
    d_max = 1 + ghost._floor_log(p, max(kb, bound))  # D
    end = min(bound, n_range + (4 * d_max - 6) // (p - 1) + ctx.delta_eps)
    marked = set()
    for j in chain(range(kb % p, end, p), [kb] if end <= kb < bound else []):
        c, u, v = j + 1 - ctx.delta_eps, ru, rv  # center(k2) = d_iw(k2) / 2
        if j != kb and (d := 1 + vp_int_raw(kb - j, p)) * rv < ru:
            u, v = d, 1
        # dist < 3/2, or c - 4 (dist - 3/2) / (p - 1) > n_range
        if 2 * u < 3 * v or (c - n_range) * (p - 1) * v > 4 * u - 6 * v:
            continue
        reached = _reach(derivative_polygon(ctx, ctx.weight_of_bullet(j)).hull.hull, u, v)
        marked.update(range(max(1, c - reached + 1), min(n_range, c + reached - 1) + 1))
    return {0} | set(range(1, n_range + 1)) - marked


# -- window certification ---------------------------------------------------------

SWEEP_PIECE_GUARD = 100000  # pieces examined per sweep window; a VerificationError names it


def _degree_increment_floor(ctx: GhostContext, n: int) -> int:
    """A provable lower bound for deg g_{m+1} - deg g_m, all m >= n.

    Uses the exact periodicity d_ur(j + p + 1) = d_ur(j) + 2 (and the
    analogue for spans): the count of multiplicity-raising weights at
    level m grows linearly in m with slope (p+1)/2 + (p+1)/(2p).
    """
    p = ctx.p
    max_ur = ctx.dims_of_bullet(p)[1]  # the largest d_ur over bullets 0..p, as d_ur never falls
    max_span = _period_span(ctx)

    def lower(m):
        j1 = (p + 1) * max(0, (m - max_ur) // 2 + 1)
        j2 = (p + 1) * max(0, (m - max_span) // (2 * p) + 1)
        return j1 + j2 - 2 * m

    return min(lower(m) for m in range(n, n + 2 * p))


def _tail_certified(rfac, deg, inc_floor, n_window, q_hi, hull, den) -> bool:
    """Whether every coefficient past the window edge n_window lies above
    the supporting line of ``hull`` (ordinates over ``den``) at q_hi,
    given v_p(g_n) >= rfac * deg(g_n) and deg increments >= inc_floor
    there."""
    y_q, sigma_q = edge_at(hull, den, q_hi)
    return (
        rfac * deg[n_window] >= y_q + sigma_q * (n_window - q_hi)
        and rfac * inc_floor >= sigma_q
    )


def _windows(ctx: GhostContext, k: int, q_hi: int):
    """Yield (n_window, the shared degree table, increment floor), doubling
    from a first window sized to pass :func:`_tail_certified`; a window past
    MAX_TABLE_INDEX raises DomainError, ending the walk.

    Past the anchor's triangle, distance i + 1 weighs on about 1/p^i of
    deg, so a hull's line at q_hi runs near p/(p-1) times deg's tangent
    there.  The first window is the least n in [n0, min(2 n0, cap)], n0 =
    max(q_hi + 8, d_iw(k)), with (p-1) deg[n] above p times the tangent,
    plus n/64 (the estimate alone fell short by one entry at most on
    (7,2,1), (5,1,0) and (11,6,9)), else 2 n0.
    """
    p, n_window = ctx.p, max(q_hi + 8, dimensions(ctx, k).d_iw)
    cap = max(q_hi + 1, min(2 * n_window, ghost.MAX_TABLE_INDEX))
    deg = _degrees(ctx, cap)
    y, s = p * deg[q_hi], p * (deg[q_hi + 1] - deg[q_hi])
    fits = (n for n in range(n_window, cap + 1) if (p - 1) * deg[n] >= y + s * (n - q_hi))
    n_window = next((n + -(-n // 64) for n in fits), 2 * n_window)
    while True:
        yield n_window, _degrees(ctx, n_window), _degree_increment_floor(ctx, n_window)
        n_window *= 2


def certified_newton_polygon(
    ctx: GhostContext, w: WeightPoint, q_hi: int
) -> RationalPolygon:
    """Finite-window ghost Newton polygon whose restriction to [0, q_hi]
    provably equals that of the full series: the hull of the first window
    of :func:`_windows` that passes :func:`_tail_certified` with factor
    min(radius, 1)."""
    rfac = Fraction(1) if w.radius.is_infinite else min(w.radius.value, Fraction(1))
    if rfac <= 0:
        raise DomainError("hull certification needs a positive radius")
    for n_window, deg, inc_floor in _windows(ctx, w.anchor, q_hi):
        np_ = newton_polygon_at(ctx, n_window, w)
        if _tail_certified(rfac, deg, inc_floor, n_window, q_hi, np_.hull, np_.den):
            return np_


# -- k-newslopes -------------------------------------------------------------------


def newslope_runs(ctx: GhostContext, k: int, w: WeightPoint) -> List[Tuple[int, int, int]]:
    """The d_new slopes attached to k on the ghost polygon at w, as runs
    (num, den, mult): the slope num / den in lowest terms, den > 0, mult > 0
    times, strictly ascending.  The closed three-part description applies
    above the zero radius M(k) and off the derivative slopes; elsewhere the
    runs are the certified polygon's edges over [d_ur, d_iw - d_ur].

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> newslope_runs(ctx, 24, WeightPoint(24, 7))
    [(9, 1, 1), (11, 1, 4), (13, 1, 1)]
    """
    if dimensions(ctx, k).d_new == 0:
        return []
    closed = _closed_form_runs(ctx, k, w)
    return _hull_runs(ctx, k, w) if closed is None else closed


def k_newslopes(ctx: GhostContext, k: int, w: WeightPoint) -> List[Fraction]:
    """The d_new slopes attached to k on the ghost polygon at w, ascending:
    the runs of :func:`newslope_runs`, each expanded to its multiplicity.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> k_newslopes(ctx, 24, WeightPoint(24, 10))
    [Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1)]
    >>> k_newslopes(ctx, 24, WeightPoint(24, 7))
    [Fraction(9, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(13, 1)]
    """
    runs = newslope_runs(ctx, k, w)
    return list(chain.from_iterable(repeat(Fraction(a, b), m) for a, b, m in runs))


def _run(num: int, den: int, mult: int) -> Tuple[int, int, int]:
    g = gcd(num, den)
    return num // g, den // g, mult


def _hull_runs(ctx, k, w):
    # the certified polygon's edges over [d_ur, d_iw - d_ur], valid at every radius
    trip = dimensions(ctx, k)
    np_ = certified_newton_polygon(ctx, w, trip.d_iw - trip.d_ur)
    return edge_runs(np_.hull, np_.den, trip.d_ur, trip.d_iw - trip.d_ur)


def _closed_form_runs(ctx, k, w):
    # valid for radius nu > max(M(k), s_{i-1}) strictly between derivative
    # slopes, or at/above max(s_N, M(k)); None signals "out of region"
    dp = derivative_polygon(ctx, k)
    edges, mu = dp.edges, dp.m_of_k.value
    u, v = _ratio(w.radius)  # nu = u / v
    # i is the first index with nu < s_i, N + 1 when nu >= s_N
    i = 1 + bisect_left(edges, True, key=lambda e: e[0] * v > u * e[1])
    over_m = u * mu.denominator - mu.numerator * v  # the sign of nu - M(k)
    if i > len(edges) and over_m >= 0:
        return [_run(k - 2, 2, dimensions(ctx, k).d_new)]
    if over_m <= 0 or (i > 1 and edges[i - 2][0] * v == u * edges[i - 2][1]):
        return None
    # (k-2)/2 -+ (a/b - nu), over 2 b v, for each s_j = a/b with j >= i
    sides = [((k - 2) * b * v, 2 * (a * v - u * b), 2 * b * v, m) for a, b, m in edges[i - 1 :]]
    centre = 2 * dp.hull.hull[i - 1][0]
    low = [_run(c - g, e, m) for c, g, e, m in reversed(sides)]
    mid = [_run(k - 2, 2, centre)] if centre else []
    return low + mid + [_run(c + g, e, m) for c, g, e, m in sides]


# -- thresholds --------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdVector:
    """Radii where each newslope locks to (k-2)/2, with provenance.

    The threshold of newslope n, 1 <= n <= d_new, is ``nums[n-1] / den``:
    integers over one denominator, the lcm of the thresholds' own.
    ``local_thresholds`` reads them as Valuations and ``global_thresholds``
    repeats each global_mult times, one per stretched index.  Entries
    tagged "closed" equal a derivative slope s_j with j >= M_index,
    entries tagged "sweep" come from the exact parametric search below M(k).
    """

    k: int
    nums: Tuple[int, ...]
    den: int
    provenance: Tuple[str, ...]
    global_mult: int

    @property
    def local_thresholds(self) -> Tuple[Valuation, ...]:
        return tuple(Valuation(Fraction(a, self.den)) for a in self.nums)

    @property
    def global_thresholds(self) -> Tuple[Valuation, ...]:
        return tuple(global_stretch(self.local_thresholds, self.global_mult))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "local": [ratio_text(a, self.den) for a in self.nums],
            "provenance": list(self.provenance),
            "global_mult": self.global_mult,
        }


def k_thresholds(ctx: GhostContext, k: int) -> ThresholdVector:
    """All d_new threshold radii for k.

    Indices in the outer blocks take the closed-form value s_j; the
    central 2 * n_{M_index - 1} indices are found by one pass of the
    exact sweep.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> k_thresholds(ctx, 24).to_json_dict()["local"]
    ['9', '6', '2', '1', '6', '9']
    """
    dp = derivative_polygon(ctx, k)
    h, c = dimensions(ctx, k).d_new // 2, dp.breakpoints[dp.M_index - 1]
    swept = _sweep(ctx, k, range(h - c + 1, h + c + 1))
    closed = dp.edges[dp.M_index - 1 :]
    den = lcm(*{b for _, b, _ in closed}, *{r.denominator for r in swept})
    # s_j fills the indices h + n_{j-1} + 1..h + n_j and their mirror images
    right = list(chain.from_iterable(repeat(a * (den // b), m) for a, b, m in closed))
    central = [r.numerator * (den // r.denominator) for r in swept]
    nums, prov = (*right[::-1], *central, *right), ("closed",) * len(right)
    return ThresholdVector(dp.k, nums, den, (*prov, *("sweep",) * (2 * c), *prov), ctx.global_mult)


def global_stretch(local: Iterable, m: int) -> list:
    """Each entry of a slope or threshold multiset repeated m times."""
    if m < 1:
        raise DomainError("global multiplicity must be >= 1")
    out = []
    for v in local:
        out.extend([v] * m)
    return out


def slope_window(ctx: GhostContext, k: int, i: int) -> tuple:
    """(test radius r_i, max newslope, min newslope) over the i-th disc.

    The radius sits just above the left edge max(M(k), s_{i-1}), which is
    M(k) at i = M_index, as s_{M_index - 1} <= M(k), and s_{i-1} above it:
    the midpoint of the gap up to s_i, clipped to within 1 of the edge.  The
    extreme newslopes over the disc of that radius are (k-2)/2 +- (s_N - r_i).
    """
    dp = derivative_polygon(ctx, k)
    n_top = len(dp.edges)
    if not dp.M_index <= i <= n_top:
        raise DomainError(f"index {i} outside [{dp.M_index}, {n_top}]")
    lo = dp.m_of_k.value if i == dp.M_index else Fraction(*dp.edges[i - 2][:2])
    r_i = lo + min(Fraction(1), Fraction(*dp.edges[i - 1][:2]) - lo) / 2
    half, spread = Fraction(k - 2, 2), Fraction(*dp.edges[-1][:2]) - r_i
    return Valuation(r_i), Valuation(half + spread), Valuation(half - spread)


# -- the exact sweep below M(k) ---------------------------------------------------
#
# On each radius interval [level, level + 1] every coefficient valuation
# is A_n + B_n * r with integer tables, so the n-th newslope is piecewise
# linear in r.  The sweep reads only the hull edges over [lo - 1, hi],
# lo..hi the abscissae d_ur + n of the indices asked for, so a piece
# [r1, r2] certifies only the sub-chain of hull vertices from the last one
# at or left of lo - 1 to the first one at or right of hi.  At both
# endpoints every turn inside the sub-chain must be a left turn or
# straight, every window point must lie on or above the line of its own
# edge (left of the sub-chain the first edge's line, right of it the last
# edge's, extended), and the tail must lie above the last edge's line.
# Those lines bound a convex function that every coefficient lies on or
# above and that the sub-chain's vertices touch, so the full series' hull
# runs along the sub-chain over [lo - 1, hi].  Hull shape away from the
# block, which nothing reads, goes unchecked.
#
# The turn and point tests are signs of one orientation test, _turn,
# which is linear in the table and so in r: a sign that holds at both
# endpoints holds on the whole piece.  The midpoint's hull chain over a
# slice around the block proposes the sub-chain.  A test that fails at an
# endpoint splits the piece at its root -_turn(A)/_turn(B) when that lies
# in (r1, r2), else the slice widens 4x.  On the whole window the chain's
# turns are > 0 and its point tests <= 0 at the midpoint, so there every
# root lies in (r1, r2).  All hull comparisons run on values scaled by the
# radius denominator, in plain integers.  Levels start at 1, so the tail
# bound's factor min(r, 1) is always 1.
#
# On a piece the newslope is linear in r, so it is (k-2)/2 on the whole
# piece iff its edge's B-difference is 0 and its A-difference is (k-2)/2
# times the edge width: the lock test needs no radius.  A threshold is the
# largest r2 of a piece where its index is unlocked, else 1.  Walking the
# levels M(k)-1 down to 1, each right to left, meets the r2 in decreasing
# order, so an index is settled exactly at its first unlocked piece.  An
# index locked everywhere needs every level and keeps 1: below radius 1
# the newslope is r times a fixed slope, never locked.  The walk stops
# after the first level that leaves no index open, since _level_pieces
# certifies a whole level at once.


def _turn(T, a, b, c):
    """(T[c] - T[b])(b - a) - (T[b] - T[a])(c - b): positive exactly when
    (a, T[a]), (b, T[b]), (c, T[c]) make a strict left turn, for a < b < c."""
    return (T[c] - T[b]) * (b - a) - (T[b] - T[a]) * (c - b)


def _values(A, B, r: Fraction):
    """v_p(g_q) = A[q] + B[q] * r over every q of the tables, times r's denominator."""
    u, v = r.numerator, r.denominator
    return [a * v + b * u for a, b in zip(A, B)]


def _chain_violation(vn, xs):
    """The first triple (a, b, c) of the sub-chain xs, on values vn, whose
    _turn has the wrong sign: a vertex b of xs that turns right, or a point
    q below the line of its edge [x0, x1], the first edge for q < xs[0] and
    the last for q > xs[-1], as the sorted triple of q, x0 and x1; else None."""
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        if _turn(vn, a, b, c) < 0:
            return (a, b, c)
    bounds = [0, *xs[1:-1], len(vn)]  # edge i judges the points bounds[i]..bounds[i+1]-1
    for q0, q1, x0, x1 in zip(bounds, bounds[1:], xs, xs[1:]):
        e, dy, c0 = x1 - x0, vn[x1] - vn[x0], vn[x0] * x1 - vn[x1] * x0
        # e * (the line at q) is c0 + dy * q; a point on it never fails
        for q in range(q0, q1):
            if vn[q] * e < c0 + dy * q:
                return tuple(sorted((q, x0, x1)))
    return None


def _piece_violation(A, B, deg, xs, r: Fraction, inc_floor):
    """The first certificate of the sub-chain xs on the window 0..len(A)-1
    that fails at radius r: a triple from :func:`_chain_violation`, or
    "tail" when the tail leaves the last edge's line, else None."""
    vn = _values(A, B, r)
    viol = _chain_violation(vn, xs)
    if viol is None:
        last = [(x, vn[x]) for x in xs[-2:]]
        if not _tail_certified(1, deg, inc_floor, len(vn) - 1, xs[-2], last, r.denominator):
            return "tail"
    return viol


def _midpoint_chain(A, B, r: Fraction, lo, hi, pad):
    """The sub-chain over [lo - 1, hi] of the hull at radius r of the slice
    lo - 1 - pad .. hi + pad alone, from its last vertex at or left of lo - 1
    to its first at or right of hi: a proposal that :func:`_level_pieces` certifies."""
    s0, s1 = max(0, lo - 1 - pad), min(len(A) - 1, hi + pad)
    vn = _values(A[s0 : s1 + 1], B[s0 : s1 + 1], r)
    xs = integer_hull(range(s0, s1 + 1), vn, r.denominator).vertex_xs()
    return xs[bisect_right(xs, lo - 1) - 1 : bisect_left(xs, hi) + 1]


def _level_pieces(ctx: GhostContext, k: int, level: int, lo: int, hi: int):
    """Certified pieces of [level, level + 1], for level >= 1, on each of
    which the hull edges over [lo - 1, hi] stay fixed, 1 <= lo <= hi.

    Returns [(r1, r2, vertex_xs, A, B)], consecutive, covering the range,
    with r1 < r2 on every piece and vertex_xs the sub-chain from the last
    vertex at or left of lo - 1 to the first at or right of hi, so
    :func:`_locked_on` decides a lock at any x_pos in lo..hi on a whole
    piece without a radius.  Each piece is certified on the sub-chain
    alone (see the comment above :func:`_turn`), in the first window of
    :func:`_windows` for q_hi = hi whose tail stays above the last edge's
    line.  Nothing is cached: the pieces live only for the sweep that
    builds them.
    """
    for n_window, deg, inc_floor in _windows(ctx, k, hi):
        A, B = level_tables(ctx, k, level, n_window)
        done: list = []
        stack = [(Fraction(level), Fraction(level + 1), 2 * (hi - lo) + 8)]
        guard = 0
        while stack:
            guard += 1
            if guard > SWEEP_PIECE_GUARD:
                raise VerificationError(
                    f"newslope sweep failed to stabilize: SWEEP_PIECE_GUARD = {SWEEP_PIECE_GUARD}"
                )
            r1, r2, pad = stack.pop()
            xs = _midpoint_chain(A, B, (r1 + r2) / 2, lo, hi, pad)
            viol = _piece_violation(A, B, deg, xs, r1, inc_floor) or (
                _piece_violation(A, B, deg, xs, r2, inc_floor)
            )
            if viol is None:
                done.append((r1, r2, xs))
                continue
            if viol == "tail":
                break  # on to a wider window
            rate = _turn(B, *viol)  # the turn is _turn(A) + rate * r
            if rate and r1 < (root := Fraction(-_turn(A, *viol), rate)) < r2:
                stack += [(r1, root, pad), (root, r2, pad)]
            elif pad < max(lo - 1, n_window - hi):  # the slice misses some of the window
                stack.append((r1, r2, 4 * pad))
            else:
                raise VerificationError("sweep certificate root escaped its piece")
        else:
            return [(r1, r2, xs, A, B) for r1, r2, xs in sorted(done)]


def _locked_on(xs, A, B, x_pos, k) -> bool:
    """Whether the newslope over [x_pos - 1, x_pos] is (k-2)/2 on the whole
    piece, read on the one hull edge [x0, x1] that contains that unit
    interval: the edge's slope (dA + dB * r) / (x1 - x0) is constant."""
    i = bisect_right(xs, x_pos - 1) - 1
    x0, x1 = xs[i], xs[i + 1]
    return B[x1] == B[x0] and 2 * (A[x1] - A[x0]) == (k - 2) * (x1 - x0)


def _sweep(ctx: GhostContext, k: int, ns) -> List[Fraction]:
    # lock radii of the newslopes ns, by the walk down from M(k) above
    d_ur = dimensions(ctx, k).d_ur
    settled = [Fraction(1)] * len(ns)
    open_ = dict(enumerate(ns))
    level = int(max_zero_distance(ctx, k).value)
    while open_ and level > 1:
        level -= 1
        pieces = _level_pieces(ctx, k, level, d_ur + min(ns), d_ur + max(ns))
        for r1, r2, xs, A, B in reversed(pieces):
            for i, n in list(open_.items()):
                if not _locked_on(xs, A, B, d_ur + n, k):
                    settled[i] = r2
                    del open_[i]
    return settled


def sweep_threshold(ctx: GhostContext, k: int, n: int) -> Valuation:
    """Exact lock radius of the n-th newslope, searched below M(k).

    The newslope is piecewise linear in the radius; the threshold is the
    right end of the highest piece below M(k) where it is not (k-2)/2
    identically, else 1, found by walking the pieces down from M(k) (see
    :func:`_locked_on` for the radius-free lock test).  :func:`k_thresholds`
    sweeps a weight's whole central block at once.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> sweep_threshold(ctx, 24, 4)
    Valuation(1)
    >>> sweep_threshold(ctx, 24, 3)
    Valuation(2)
    """
    d_new = dimensions(ctx, k).d_new
    if not 1 <= n <= d_new:
        raise DomainError(f"newslope index {n} outside [1, {d_new}]")
    return Valuation(_sweep(ctx, k, [n])[0])
