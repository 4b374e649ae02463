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
a closed form from the zero radius M(k) up, else the certified polygon,
both on integers as ascending runs (num, den, mult) of reduced slopes;
their lock radii below M(k) come from an exact parametric sweep.

All hull reads from finite windows are certified against the infinite
series: a window is accepted only once every omitted coefficient
provably stays above the supporting line at the right edge of the
region of interest, using the exact lower bound
v_p(g_n(w)) >= min(r, 1) deg(g_n) + (min(r, 2) - min(r, 1)) S_1(n) at
radius r (:func:`_tail_certified`), deg(g_n) rising by at least its
increment at the window's edge, and S_1 not falling there (the lemmas of
:func:`ghost._period`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, filterfalse, islice, repeat
from math import gcd
from operator import add, itemgetter
from typing import List, Tuple

from . import ghost
from .errors import DomainError, VerificationError
from .ghost import (
    GhostContext,
    WeightPoint,
    _at,
    _bullet_bound,
    _period,
    _table_index,
    _zero_radius,
    dimensions,
    hatted_steps,
    max_zero_distance,
    point_distance,
    valuation_table_at,
)
from .polygon import RationalPolygon, _chain, _hull_gaps, edge_runs, gap_edges, newton_polygon_at
from .valuation import Valuation, runs_text, vp_int_raw

# -- derivative polygons ------------------------------------------------------


@dataclass(frozen=True)
class DerivativePolygon:
    """A weight's derivative polygon, held as two int64 arrays.

    ``ys[l]`` = 2 raw[l] for l = 0..h = d_new/2, raw[l] the half-integer anchored
    valuation at center + l minus (k-2)/2 * l; ``gaps`` holds, ascending, the l in
    0 < l < h that are not vertices of the lower hull of the points (l, ys[l] / 2):
    its vertices 0 = n_0 < ... < n_N = h, n_i = ``vertex(i)``, are the other l, read on
    demand as ``vertex_xs``.  ``raw`` and ``slopes`` (distinct s_1 < ... < s_N with
    multiplicities) read them as Fractions; ``edges``, kept once read, holds each s_i as
    its reduced (num, den), den > 0, and multiplicity.  ``m_of_k`` is the zero radius
    M(k), an int, and ``M_index`` the least i with s_i > M(k), else N + 1.

    Each ys[l] = v(c + l) + v(c - l) fits in int64, v the hatted table read at
    n <= MAX_TABLE_INDEX and n <= d_iw(k) <= 2 K_CEILING/(p-1) + 2: v(n) weighs each
    bullet j below b = _bullet_bound(n) <= (p+1)(n+3)/2 by m_n(j) <= n times its
    distance 1 + v_p(kb - j) <= 1 + log_p max(kb, b) <= 14 (p >= 5, max(kb, b) <
    4 * 10^9 < 5^14).  So ys[l] <= 14 (p+1) n (n+3) < 3 * 10^16, 300 times below
    2^63, as (p+1) n (n+3) < 2.1 * 10^15 both for p <= 4001 and, by n's bound, past it.
    """

    k: int
    ys: array
    gaps: array
    M_index: int
    m_of_k: int

    raw = property(lambda self: tuple(Fraction(y, 2) for y in self.ys))
    slopes = property(lambda self: tuple((Fraction(a, b), m) for a, b, m in self.edges))
    vertex_xs = property(lambda self: array("q", filterfalse(set(self.gaps).__contains__, range(len(self.ys)))))

    def vertex(self, i: int) -> int:
        # n_i: x less the gaps up to x never falls, and counts the vertices below x at a vertex x
        return bisect_left(range(len(self.ys)), i, key=lambda x: x - bisect_right(self.gaps, x))

    edges = cached_property(lambda self: gap_edges(self.ys, self.gaps))


def derivative_polygon(ctx: GhostContext, k: int) -> DerivativePolygon:
    """Derivative polygon of k, held on the context by bullet, with the duality check run on the way.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> dp = derivative_polygon(ctx, 24)
    >>> dp.raw
    (Fraction(17, 1), Fraction(19, 1), Fraction(25, 1), Fraction(34, 1))
    >>> dp.edges
    ((2, 1, 1), (6, 1, 1), (9, 1, 1))
    """
    kb, cache = ctx.bullet(k), ctx._caches.setdefault("derivative", {})
    if kb not in cache:
        cache[kb] = _derivative_polygon(ctx, k)
    return cache[kb]


def _derivative_polygon(ctx: GhostContext, k: int) -> DerivativePolygon:
    """The polygon of k built afresh, stored nowhere, from the steps s(n) = f(n+1) - 2 f(n) + f(n-1)
    of its hatted table f to c + h, c = d_iw/2, h = d_new/2: the duality f(c + l) = f(c - l) +
    (k-2) l, l <= h, is checked on them, and only f's left half is summed.  With D(n) = f(n+1) - f(n),
    g(l) = f(c + l) - f(c - l) - (k-2) l has g(0) = 0 and rises by e(l) = D(c + l - 1) + D(c - l) -
    (k-2) at l >= 1, and e(l) - e(l-1) = s(c + l - 1) - s(c - l + 1) at l >= 2.  So g, the sum of
    e(1..l), vanishes on 1..h iff e(1) = D(c - 1) + D(c) - (k-2) = 0 and s(c + m) = s(c - m) for
    1 <= m < h, and its first nonzero offset is e's: 1 if e(1) != 0, else 1 + the least such m.
    From l = h down, ys[l] = f(c + l) + f(c - l) = 2 f(c - l) + (k-2) l starts at 2 f(d_ur) +
    (k-2) h and rises first by 2 D(d_ur) - (k-2), each rise 2 s(n) above the last, n = d_ur + 1..c-1.
    So ys's second difference at 0 < l < h is 2 s(c - l), whose signs :func:`polygon._hull_gaps` starts from."""
    d_iw, d_ur = ctx.dims_of_bullet(kb := ctx.bullet(k))
    c, h = d_iw // 2, d_iw // 2 - d_ur
    steps = hatted_steps(ctx, kb, c + h)  # s(0..c + h - 1)
    left = steps[c - 1 : c - h : -1]  # s(c - 1), ..., s(c - h + 1)
    e1 = 2 * sum(islice(steps, c)) + steps[c] - (k - 2) if h else 0  # D(c) = D(c - 1) + s(c)
    if e1 or steps[c + 1 : c + h] != left:
        l = 1 if e1 else next(1 + m for m in range(1, h) if steps[c + m] != steps[c - m])
        raise VerificationError(f"anchored-valuation duality fails at k = {k}, offset {l}")
    y, rise = 2 * sum(accumulate(islice(steps, d_ur))) + (k - 2) * h, 2 * sum(islice(steps, d_ur + 1)) - (k - 2)
    dents = [l for l, s in zip(range(1, h), left) if s <= 0]  # the l with s(c - l) <= 0
    # steps and left live to the return: freed before the arrays are made, their space went to the
    # arrays held and left holes (2,000 polygons on one context peaked 1.3 MB higher)
    left.reverse()
    ys = [*accumulate(accumulate(map(add, left, left), initial=rise), initial=y)]
    del ys[h + 1 :]  # one ordinate when h = 0
    ys.reverse()
    gaps = _hull_gaps(ys, dents)
    ys, m_of_k = array("q", ys), _zero_radius(ctx, k, kb, d_iw)
    # one hull edge per distinct slope, so M_index - 1 counts the vertices below the reach of M(k)
    reach = _reach(ys, gaps, m_of_k, 1)
    m_index = 1 + reach - bisect_left(gaps, reach)
    return DerivativePolygon(k=k, ys=ys, gaps=gaps, M_index=m_index, m_of_k=m_of_k)


def _reach(ys, gaps, u: int, v: int) -> int:
    """How many unit increments of the hull over the ordinates ys (over 2),
    with non-vertex abscissae gaps, are at most the distance u / v, INF as
    1 / 0: the slopes increase, so x0 on the first edge [x0, x1] with
    (ys[x1] - ys[x0]) v > 2 (x1 - x0) u, else the last abscissa h.  Each
    x1 is the first abscissa past x0 that is no gap; INF reaches them all."""
    x0, i, h = 0, 0, len(ys) - 1
    while x0 < h and v:
        x1 = x0 + 1
        while i < len(gaps) and gaps[i] == x1:
            i, x1 = i + 1, x1 + 1
        if (ys[x1] - ys[x0]) * v > 2 * (x1 - x0) * u:
            return x0
        x0 = x1
    return h


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
    dp = derivative_polygon(ctx, k2)  # the increment at offset l is reached iff l < the reach
    return abs(n - trip.d_iw // 2) < _reach(dp.ys, dp.gaps, *_ratio(point_distance(ctx, w, k2)))


def breakpoints_by_criterion(ctx: GhostContext, w: WeightPoint, n_range: int) -> set:
    """Indices n in [0, n_range] that are near-Steinberg for no weight.

    By the breakpoint criterion these are exactly the vertex abscissae
    of the ghost Newton polygon at w; index 0 always qualifies.  For a
    fixed k2 the hull increments do not decrease, so the n that k2 makes
    near-Steinberg form one interval: |n - center(k2)| < L, L the number
    of increments that the distance from w to w_{k2} reaches.  Only
    bullets j congruent to the anchor's k_bullet mod p, below ``bound`` (the
    first with d_ur >= n_range), can reach the 3/2 floor of every increment
    and mark the range.  The l-th increment (from l = 0: the hull slope on
    [l, l + 1]) averages the raw ones on [i - 1, i] over its edge [a, b], each
    at least 3/2 + (p-1)(i-1)/2 as ``increment-lower-bound`` checks, so it is
    at least 3/2 + (p-1)(a + b - 1)/4 >= 3/2 + (p-1) l / 4, and a center more
    than 4 (dist - 3/2) / (p - 1) past n_range marks nothing in range.  Off
    the anchor, dist is at most
    1 + v_p(k_bullet - j) <= D = 1 + floor(log_p max(k_bullet, bound)), as
    0 < |k_bullet - j| <= max(k_bullet, bound); so the walk ends at the
    first center past n_range + 4 (D - 3/2) / (p - 1), the anchor (dist the
    radius) kept.  Distances are integer pairs u / v, INF as 1 / 0.  A walked
    bullet's polygon is read off the context if held, else built and dropped.
    """
    p, kb, (ru, rv) = ctx.p, ctx.bullet(w.anchor), _ratio(w.radius)
    bound = _bullet_bound(ctx, n_range)
    d_max = 1 + ghost._floor_log(p, max(kb, bound))  # D
    end = min(bound, n_range + (4 * d_max - 6) // (p - 1) + ctx.delta_eps)
    held, marked = ctx._caches.get("derivative", {}), set()
    for j in chain(range(kb % p, end, p), [kb] if end <= kb < bound else []):
        c, u, v = j + 1 - ctx.delta_eps, ru, rv  # center(k2) = d_iw(k2) / 2
        if j != kb and (d := 1 + vp_int_raw(kb - j, p)) * rv < ru:
            u, v = d, 1
        # dist < 3/2, or c - 4 (dist - 3/2) / (p - 1) > n_range
        if 2 * u < 3 * v or (c - n_range) * (p - 1) * v > 4 * u - 6 * v:
            continue
        dp = held.get(j) or _derivative_polygon(ctx, ctx.weight_of_bullet(j))
        reached = _reach(dp.ys, dp.gaps, u, v)
        marked.update(range(max(1, c - reached + 1), min(n_range, c + reached - 1) + 1))
    return {0} | set(range(1, n_range + 1)) - marked


# -- window certification ---------------------------------------------------------

SWEEP_PIECE_GUARD = 100000  # pieces examined per sweep window; a VerificationError names it


def _tail_certified(radius, window, q_hi, hull, den) -> bool:
    """Whether every coefficient past the edge n of ``window`` = (n, deg g_n,
    s1, inc_floor) lies above the supporting line of ``hull`` (ordinates over
    ``den``) at q_hi, at ``radius`` (a Fraction, None for INF).  Every distance
    is >= 1, and >= 2 on the bullets j = k_bullet (mod p), so v_p(g_m(w)) >=
    L_r(m) = min(r, 1) deg(m) + c_1 S_1(m), c_1 = min(r, 2) - min(r, 1) (1 at
    INF, as at r = 2).  Past n, deg rises by inc_floor at least and S_1 does not fall."""
    n, deg_n, s1, inc_floor = window
    u, v = (2, 1) if radius is None else (radius.numerator, radius.denominator)  # r = u / v
    (x0, y0), (x1, y1) = hull[(i := bisect_right(hull, q_hi, key=itemgetter(0))) - 1 : i + 1]
    e, low, line_n = (x1 - x0) * den, min(u, v), y0 * (x1 - n) + y1 * (n - x0)  # e * the line at n
    return (low * deg_n + (min(u, 2 * v) - low) * s1) * e >= v * line_n and low * inc_floor * e >= v * (y1 - y0)


def _windows(ctx: GhostContext, k: int, q_hi: int, n_min: int = 0, stride_one: bool = True):
    """Yield :func:`_window` at n for :func:`_tail_certified`, doubling n from a first
    window sized to pass it; past MAX_TABLE_INDEX DomainError ends the walk (before
    anything if n0 + n0/64 is past it), n0 = max(q_hi + 8, n_min) >= 8 > N0 of ghost._period.

    Past the anchor's triangle, distance i + 1 weighs on about 1/p^i of deg,
    so a hull's line at q_hi runs near p/(p-1) times deg's tangent there, and
    L_r = deg + S_1 (r >= 2) near (1 + 1/p) deg: both tests pass from about
    p/(p-1) q_hi on.  The first window is the least n in [n0, cap), cap =
    max(n0 + n0/64, min(2 n0, MAX_TABLE_INDEX)), where deg's increment (never
    falling, so bisected) is p/(p-1) times the one at q_hi, plus n/64, else 2 n0
    (on (7,2,1), (5,1,0) and (11,6,9) the estimate alone fell short by 1 entry at
    most on a sweep and 2 on a hull).
    """
    p, n0 = ctx.p, max(q_hi + 8, n_min)
    deg = _period(ctx, None, cap := _table_index(max(n0 + -(-n0 // 64), min(2 * n0, ghost.MAX_TABLE_INDEX))))
    n = n0 + bisect_left(range(n0, cap), p * _at(deg, q_hi)[1], key=lambda n: (p - 1) * _at(deg, n)[1])
    n_window = n + -(-n // 64) if n < cap else 2 * n0
    while True:
        yield _window(ctx, k, n_window, stride_one)
        n_window *= 2


def _window(ctx: GhostContext, k: int, n: int, stride_one: bool) -> tuple:
    # (n, deg g_n, S_1(n) of k_bullet's residue or 0, deg g_{n+1} - deg g_n), n capped before S_1
    deg_n, inc = _at(_period(ctx, None, _table_index(n) + 1), n)
    return n, deg_n, _at(_period(ctx, ctx.bullet(k) % ctx.p, n + 1), n)[0] if stride_one else 0, inc


def certified_newton_polygon(ctx: GhostContext, w: WeightPoint, q_hi: int) -> RationalPolygon:
    """Finite-window ghost Newton polygon whose restriction to [0, q_hi]
    provably equals that of the full series: the hull of the first window
    of :func:`_windows`, none below d_iw(anchor) as :func:`newton_polygon_at`
    asks, that passes :func:`_tail_certified` at w's radius; S_1 is read
    only where its weight c_1 is > 0, at radii > 1."""
    radius = None if w.radius.is_infinite else w.radius.value
    if radius is not None and radius <= 0:
        raise DomainError("hull certification needs a positive radius")
    for window in _windows(ctx, w.anchor, q_hi, dimensions(ctx, w.anchor).d_iw, radius is None or radius > 1):
        np_ = newton_polygon_at(ctx, window[0], w)
        if _tail_certified(radius, window, q_hi, np_.hull, np_.den):
            return np_


# -- k-newslopes -------------------------------------------------------------------


def newslope_runs(ctx: GhostContext, k: int, w: WeightPoint) -> List[Tuple[int, int, int]]:
    """The d_new slopes attached to k on the ghost polygon at w, as runs
    (num, den, mult): the slope num / den in lowest terms, den > 0, mult > 0
    times, strictly ascending.  From the zero radius M(k) up the closed
    three-part form of :func:`_closed_form_runs` gives them; below M(k), the
    certified polygon's edges over [d_ur, d_iw - d_ur].  The closed form is
    proved on each open interval (max(M(k), s_{i-1}), s_i) and above s_N.
    v_p(g_n(w)) is continuous and piecewise linear in the radius nu; so are
    the hull ordinates at integer x and the newslopes, their differences,
    and so is each interval's formula, which thus holds on the interval's
    closure too: at M(k) and on every derivative slope s_j > M(k).

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


def _hull_runs(ctx, k, w):
    # the certified polygon's edges over [d_ur, d_iw - d_ur], valid at every radius
    trip = dimensions(ctx, k)
    np_ = certified_newton_polygon(ctx, w, trip.d_iw - trip.d_ur)
    return edge_runs(np_.hull, np_.den, trip.d_ur, trip.d_iw - trip.d_ur)


def _closed_form_runs(ctx, k, w):
    # for s_{i-1} <= nu < s_i, i = N + 1 when nu >= s_N: (k-2)/2 -+ (s_j - nu),
    # each with s_j's multiplicity, for j >= i, and (k-2)/2 on the 2 n_{i-1}
    # central indices; valid for every radius nu >= M(k), None when nu < M(k)
    u, v, mu = *_ratio(w.radius), max_zero_distance(ctx, k).value  # nu = u / v; M(k), no table
    if u < mu * v:
        return None
    dp = derivative_polygon(ctx, k)
    i = 1 + bisect_left(dp.edges, True, key=lambda e: e[0] * v > u * e[1])
    # (k-2)/2 -+ (a/b - nu), over 2 b v, for each s_j = a/b with j >= i
    low, high = [], []
    for a, b, m in dp.edges[i - 1 :]:
        c, t, e = (k - 2) * b * v, 2 * (a * v - u * b), 2 * b * v
        g, h = gcd(c - t, e), gcd(c + t, e)
        low.append(((c - t) // g, e // g, m))
        high.append(((c + t) // h, e // h, m))
    if centre := 2 * dp.vertex(i - 1):
        high.insert(0, ((k - 2) // (g := gcd(k - 2, 2)), 2 // g, centre))
    return low[::-1] + high


# -- thresholds --------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdVector:
    """Radii where each newslope locks to (k-2)/2, with provenance, as runs:
    ``closed`` the derivative edges (num, den, mult) from s_{M_index} up, and
    ``swept`` the radii of the central 2 n_{M_index - 1} indices, in index order,
    from the exact sweep below M(k).  Thresholds 1..d_new are the closed edges
    descending, each mult times, ``swept``, then the closed edges ascending, as
    ``local_thresholds`` expands them to ``Fraction``s, each index tagged in
    ``provenance``; each stands for ``global_mult`` stretched indices."""

    k: int
    closed: Tuple[Tuple[int, int, int], ...]
    swept: Tuple[Fraction, ...]
    global_mult: int

    @property
    def provenance(self) -> Tuple[str, ...]:
        side = ("closed",) * sum(m for _, _, m in self.closed)
        return (*side, *("sweep",) * len(self.swept), *side)

    @property
    def local_thresholds(self) -> Tuple[Fraction, ...]:
        right = [Fraction(a, b) for a, b, m in self.closed for _ in range(m)]
        return (*right[::-1], *self.swept, *right)

    def to_json_dict(self) -> dict:
        right = runs_text(self.closed)  # one text per run, shared by its mirror image
        return {
            "k": self.k,
            "local": [*right[::-1], *map(str, self.swept), *right],
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
    h, c = dimensions(ctx, k).d_new // 2, dp.vertex(dp.M_index - 1)
    swept = _sweep(ctx, k, range(h - c + 1, h + c + 1))
    return ThresholdVector(dp.k, dp.edges[dp.M_index - 1 :], tuple(swept), ctx.global_mult)


# -- the exact sweep below M(k) ---------------------------------------------------
#
# On [L, L + 1], L an integer, v_p(g_n(w)) = sum_j m_n(j) min(r, d_j) is
# linear in r, as each distance d_j is an integer or INF: min(r, d) is d if
# d <= L, else r.  So it is V_L[n] (L + 1 - r) + V_{L+1}[n] (r - L), V_L the
# valuation table at the integer radius L, and each newslope is piecewise
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
# linear in the table and so in r: t_L (L + 1 - r) + t_{L+1} (r - L), t_L
# its value on V_L, so a sign that holds at both endpoints holds on the
# whole piece.  The midpoint's hull chain over a slice around the block
# proposes the sub-chain.  A test that fails at an endpoint splits the
# piece at its root L + t_L / (t_L - t_{L+1}) when that lies in (r1, r2),
# else the slice widens 4x.  On the whole window the chain's turns are > 0
# and its point tests <= 0 at the midpoint, so there every root lies in
# (r1, r2).  Values are scaled by the radius denominator, in plain
# integers.  As levels start at 1, the tail bound's min(r, 1) is 1 and
# c_1 = min(r, 2) - 1, and a tail test at both ends covers the piece.
#
# On a piece the newslope is one edge's slope, linear in r on the level,
# so it is (k-2)/2 on the piece iff it is on V_L and on V_{L+1}.  A
# threshold is the largest r2 of a piece where its index is unlocked, else
# 1 (below radius 1 the newslope is r times a fixed slope, never locked).
# Walking the levels M(k)-1 down to 1, each right to left, meets the r2 in
# decreasing order, so an index is settled at its first unlocked piece,
# and the walk stops after the first level that leaves no index open.
# V_L is also level L - 1's upper table, so a sweep builds levels + 1
# tables, and a check passed on the same radius, window and sub-chain, as
# at L when level L - 1's top piece keeps L's bottom one, is not run again.


def _turn(T, a, b, c):
    """(T[c] - T[b])(b - a) - (T[b] - T[a])(c - b): positive exactly when
    (a, T[a]), (b, T[b]), (c, T[c]) make a strict left turn, for a < b < c."""
    return (T[c] - T[b]) * (b - a) - (T[b] - T[a]) * (c - b)


def _values(V0, V1, level: int, r: Fraction):
    """v times v_p(g_q) at r = u / v in [level, level + 1], q over V0 and V1, the tables at
    the radii level and level + 1: V0 ((level + 1) v - u) + V1 (u - level v), V0 or V1 itself at an end."""
    u, v = r.numerator, r.denominator
    c0, c1 = (level + 1) * v - u, u - level * v
    if not (c0 and c1):
        return V1 if c1 else V0
    return [a * c0 + b * c1 for a, b in zip(V0, V1)]


def _piece_violation(V0, V1, level, window, xs, r: Fraction, passed: set):
    """The first certificate of the sub-chain xs on the window 0..len(V0)-1 that fails at
    radius r in [level, level + 1]: a triple whose _turn has the wrong sign, a vertex b of
    xs turning right as (a, b, c) or a point q below its edge's line [x0, x1] (the first
    edge's left of xs, the last's right of it) as the sorted (q, x0, x1); else "tail" if
    the tail leaves the last edge's line, else None.  A check passed adds (u, v, len(V0),
    *xs), r = u / v, to ``passed``, which a sweep holds, and is not run again."""
    if (key := (r.numerator, r.denominator, len(V0), *xs)) in passed:
        return None
    vn = _values(V0, V1, level, r)
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        if _turn(vn, a, b, c) < 0:
            return (a, b, c)
    bounds = [0, *xs[1:-1], len(vn)]  # edge i judges the points bounds[i]..bounds[i+1]-1
    for q0, q1, x0, x1 in zip(bounds, bounds[1:], xs, xs[1:]):
        e, dy, c0 = x1 - x0, vn[x1] - vn[x0], vn[x0] * x1 - vn[x1] * x0
        line = c0 + dy * q0  # e * (the line at q) is c0 + dy * q; a point on it never fails
        for y in vn[q0:q1]:
            if y * e < line:
                return tuple(sorted((next(q for q in range(q0, q1) if vn[q] * e < c0 + dy * q), x0, x1)))
            line += dy
    if not _tail_certified(r, window, xs[-2], [(x, vn[x]) for x in xs[-2:]], r.denominator):
        return "tail"
    passed.add(key)
    return None


def _midpoint_chain(V0, V1, level, r: Fraction, lo, hi, pad):
    """The sub-chain over [lo - 1, hi] of the hull at radius r of the slice
    lo - 1 - pad .. hi + pad alone, from its last vertex at or left of lo - 1
    to its first at or right of hi: a proposal that :func:`_level_pieces` certifies."""
    s0, s1 = max(0, lo - 1 - pad), min(len(V0) - 1, hi + pad)
    vn = _values(V0[s0 : s1 + 1], V1[s0 : s1 + 1], level, r)
    xs = [x for x, _ in _chain(zip(range(s0, s1 + 1), vn))]
    return xs[bisect_right(xs, lo - 1) - 1 : bisect_left(xs, hi) + 1]


def _level_pieces(ctx: GhostContext, k: int, level: int, lo: int, hi: int, held: dict, passed: set):
    """Certified pieces of [level, level + 1], level >= 1, on each of which
    the hull edges over [lo - 1, hi] stay fixed, 1 <= lo <= hi: a list of
    (r1, r2, vertex_xs, V0, V1), consecutive, covering the range, r1 < r2,
    vertex_xs the sub-chain from the last vertex at or left of lo - 1 to the
    first at or right of hi, and V0, V1 the valuation tables at the radii
    level and level + 1 that :func:`_locked_on` reads.  Each piece is
    certified on the sub-chain alone (see the comment above :func:`_turn`),
    in the first window of :func:`_windows` for q_hi = hi whose tail stays
    above the last edge's line.  ``held`` maps (level, n_window) to the
    last V0 built, which the next level reads as its V1, and ``passed``
    holds the checks passed."""
    for window in _windows(ctx, k, hi):
        n_window = window[0]
        V1 = held.pop((level + 1, n_window), None) or valuation_table_at(ctx, k, level + 1, n_window)[0]
        held.clear()
        V0 = held[level, n_window] = valuation_table_at(ctx, k, level, n_window)[0]
        done, guard, stack = [], 0, [(Fraction(level), Fraction(level + 1), 2 * (hi - lo) + 8)]
        while stack:
            if (guard := guard + 1) > SWEEP_PIECE_GUARD:
                raise VerificationError(f"newslope sweep failed to stabilize: SWEEP_PIECE_GUARD = {SWEEP_PIECE_GUARD}")
            r1, r2, pad = stack.pop()
            xs = _midpoint_chain(V0, V1, level, (r1 + r2) / 2, lo, hi, pad)
            viol = _piece_violation(V0, V1, level, window, xs, r1, passed) or _piece_violation(
                V0, V1, level, window, xs, r2, passed)
            if viol is None:
                done.append((r1, r2, xs))
                continue
            if viol == "tail":
                break  # on to a wider window
            t0, t1 = _turn(V0, *viol), _turn(V1, *viol)  # the turn at r is t0 (level + 1 - r) + t1 (r - level)
            if t0 != t1 and r1 < (root := level + Fraction(t0, t0 - t1)) < r2:
                stack += [(r1, root, pad), (root, r2, pad)]
            elif pad < max(lo - 1, n_window - hi):  # the slice misses some of the window
                stack.append((r1, r2, 4 * pad))
            else:
                raise VerificationError("sweep certificate root escaped its piece")
        else:
            return [(r1, r2, xs, V0, V1) for r1, r2, xs in sorted(done)]


def _locked_on(xs, V0, V1, x_pos, k) -> bool:
    """Whether the newslope over [x_pos - 1, x_pos] is (k-2)/2 on the whole
    piece, read on the one hull edge [x0, x1] that contains that unit
    interval: the edge's slope is linear in r on the level, so it is
    (k-2)/2 on the piece iff it is on V0 and on V1, at both integer ends."""
    i = bisect_right(xs, x_pos - 1) - 1
    x0, x1 = xs[i], xs[i + 1]
    return 2 * (V0[x1] - V0[x0]) == (k - 2) * (x1 - x0) == 2 * (V1[x1] - V1[x0])


def _sweep(ctx: GhostContext, k: int, ns) -> List[Fraction]:
    # lock radii of the newslopes ns, by the walk down from M(k) above
    d_ur = dimensions(ctx, k).d_ur
    settled = [Fraction(1)] * len(ns)
    open_ = dict(enumerate(ns))
    level, held, passed = derivative_polygon(ctx, k).m_of_k, {}, set()
    while open_ and level > 1:
        level -= 1
        for r1, r2, xs, V0, V1 in reversed(_level_pieces(ctx, k, level, d_ur + min(ns), d_ur + max(ns), held, passed)):
            for i, n in list(open_.items()):
                if not _locked_on(xs, V0, V1, d_ur + n, k):
                    settled[i] = r2
                    del open_[i]
        del V0, V1  # frees V1 before the next level builds a table
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
