"""Exact lower convex hulls and Newton polygons, each held as its hull alone or as the points it skips.

Every hull runs on integer ordinates over one positive denominator, with
Valuations built only when read: hull membership and vertex
classification are structural facts, never tolerance calls.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .ghost import GhostContext, WeightPoint, dimensions, hatted_valuation_table, valuation_table_at
from .valuation import Valuation, _coerce

Point = Tuple[int, Valuation]


def _chain(points: Iterable[Tuple[int, int]]) -> list:
    """Lower monotone chain of (x, y) int pairs given in increasing x; collinear points
    drop.  The chain keeps the input's pairs, and its top two also sit in locals."""
    stack = list(islice(points := iter(points), 2))
    if len(stack) < 2:
        return stack
    (x1, y1), (x2, y2) = stack
    for point in points:
        x, y = point
        # keep x2 only on a strict left turn
        while (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
            stack.pop()
            x2, y2 = x1, y1
            if len(stack) == 1:
                break
            x1, y1 = stack[-2]
        stack.append(point)
        x1, y1 = x2, y2
        x2, y2 = x, y
    return stack


def _hull_gaps(ys, dents) -> array:
    """The abscissae 0 < l < h = len(ys) - 1, ascending, that are not vertices of the lower hull of
    the points (l, ys[l]), given ``dents``: the l, ascending, where ys's second difference is <= 0.

    The dents drop first.  Then each round drops those kept neighbours b of the last round's drops
    that make no strict left turn with their kept neighbours a < b < c, judged before any drop, until
    a round drops nothing.  This is exact.  Every kept point turns strictly left: as no dent, if no
    point beside it dropped, else as last judged.  So the kept points form a convex chain F.  A run
    of points one round drops turns right or goes straight at each of them, so lies on or above the
    chord between its kept ends, which by induction from the last round back lie on or above F, as
    does the chord, F being convex.  So every point lies on or above F: F is the lower hull, and its
    points are the vertices :func:`_chain` returns.  The kept chain is held as links prv and nxt only
    where a point dropped, defaulting to the next abscissa down and up."""
    prv, nxt, gone, drop = {}, {}, set(), dents
    while drop:
        gone.update(drop)
        beside = set()
        for b in drop:  # unlink b from the kept chain
            a, c = prv.pop(b, b - 1), nxt.pop(b, b + 1)
            nxt[a], prv[c] = c, a
            beside.add(a)
            beside.add(c)
        beside.difference_update(gone, (0, len(ys) - 1))
        drop = []
        for b in beside:  # no strict left turn at b
            a, c = prv.get(b, b - 1), nxt.get(b, b + 1)
            if (ys[c] - ys[b]) * (b - a) <= (ys[b] - ys[a]) * (c - b):
                drop.append(b)
    return array("q", sorted(gone))


def gap_edges(ys, gaps) -> Tuple[Tuple[int, int, int], ...]:
    """(num, d, width) for each edge of the lower hull of the points (x, ys[x] / 2), x = 0..h,
    whose abscissae that are not vertices are ``gaps``, ascending: its slope num / d in lowest
    terms, d > 0.  Each run of gaps from a + 1 to b - 1 gives the edge [a, b], and the unit edges
    run from b to the next run; len(ys) = h + 1 closes the last run."""
    edges, a, b = [], 0, 0
    for g in [*gaps, len(ys)]:
        if g == b:  # the run goes on
            b += 1
            continue
        if b > a:
            e = gcd(dy := ys[b] - ys[a], 2 * (b - a))
            edges.append((dy // e, 2 * (b - a) // e, b - a))
        edges += map(_unit_edge, map(sub, ys[b + 1 : g], ys[b : g - 1]))
        a, b = g - 1, g + 1
    return tuple(edges)


def _unit_edge(dy: int) -> Tuple[int, int, int]:
    # the edge [x, x + 1] with slope dy / 2, reduced
    return (dy, 2, 1) if dy & 1 else (dy >> 1, 1, 1)


def edge_runs(hull: Sequence[Tuple[int, int]], den: int, lo: int, hi: int) -> list:
    """(num, d, width) for each edge of the polyline through the points
    (x_i, y_i / den) of ``hull`` that meets [lo, hi], x_0 <= lo < hi <= x_last
    or lo = hi a vertex: its slope num / d in lowest terms, d > 0, and how
    much of [lo, hi] it covers."""
    i, j = bisect_right(hull, lo, key=itemgetter(0)) - 1, bisect_left(hull, hi, key=itemgetter(0))
    ends, runs = [lo, *(x for x, _ in hull[i + 1 : j]), hi], []
    for (x0, y0), (x1, y1), c0, c1 in zip(hull[i:j], hull[i + 1 : j + 1], ends, ends[1:]):
        g = gcd(y1 - y0, (x1 - x0) * den)
        runs.append(((y1 - y0) // g, (x1 - x0) * den // g, c1 - c0))
    return runs


class RationalPolygon(NamedTuple):
    """A lower convex hull over points with integer x, held as its hull alone.

    ``hull`` is the chain of (x, y) with vertex (x, y / den); the input
    points are not kept.  ``vertices`` are the hull points where the slope
    strictly increases (endpoints always qualify).  ``slopes`` pairs each
    distinct hull slope with its multiplicity (the x-extent it covers),
    strictly increasing.
    """

    den: int
    hull: Tuple[Tuple[int, int], ...]

    @property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple((x, Valuation(Fraction(y, self.den))) for x, y in self.hull)

    @property
    def slopes(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple(
            (Fraction(y1 - y0, (x1 - x0) * self.den), x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.hull, self.hull[1:])
        )

    def vertex_xs(self) -> Tuple[int, ...]:
        """Breakpoint abscissae, ascending."""
        return tuple(x for x, _ in self.hull)


def integer_hull(xs: Sequence[int], ys: Sequence[Optional[int]], den: int) -> RationalPolygon:
    """The polygon of the points (xs[i], ys[i] / den): xs ascending, ys
    ints or None for INFINITY (no constraint), den positive.  Raises
    DomainError when no ordinate is finite."""
    finite = zip(xs, ys) if None not in ys else ((x, y) for x, y in zip(xs, ys) if y is not None)
    if not (hull := tuple(_chain(finite))):
        raise DomainError("no finite ordinate")
    return RationalPolygon(den, hull)


def lower_hull(points: Iterable[Tuple[int, object]]) -> RationalPolygon:
    """Lower convex hull of points with distinct int x.

    Ordinates may be ints, Fractions or Valuations, scaled onto integers
    over the lcm of their denominators; INFINITY ordinates impose no
    constraint and never appear on the hull.  Raises DomainError on a
    non-int or duplicate abscissa or when no ordinate is finite (an
    empty input included), and TypeError on any other ordinate type.

    Examples
    --------
    >>> hull = lower_hull([(0, 0), (1, 5), (2, 6)])
    >>> hull.vertex_xs()
    (0, 2)
    >>> hull.slopes
    ((Fraction(3, 1), 2),)
    """
    pts = [(x, _coerce(y)) for x, y in points]
    if bad := [x for x, _ in pts if not isinstance(x, int)]:
        raise DomainError(f"abscissa {bad[0]!r} is not an int")
    pts.sort()
    if dup := [x for (x, _), (x1, _) in zip(pts, pts[1:]) if x == x1]:
        raise DomainError(f"duplicate abscissa x = {dup[0]}")
    den = lcm(*(y.value.denominator for _, y in pts if not y.is_infinite))
    return integer_hull(
        tuple(x for x, _ in pts),
        tuple(None if y.is_infinite else int(y.value * den) for _, y in pts),
        den,
    )


def newton_polygon_at(ctx: GhostContext, n_range: int, w: WeightPoint) -> RationalPolygon:
    """Newton polygon of the ghost series at w, over coefficients 0..n_range.

    The constant coefficient contributes (0, 0).  At infinite radius
    (w exactly the anchor weight) the coefficients vanishing there sit
    at INFINITY and drop out of the hull.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> np = newton_polygon_at(ctx, 8, WeightPoint(24, 10))
    >>> np.slopes
    ((Fraction(1, 1), 1), (Fraction(11, 1), 6), (Fraction(22, 1), 1))
    """
    trip = dimensions(ctx, w.anchor)
    if n_range < trip.d_iw:
        raise DomainError(f"n_range = {n_range} is below the anchor's full span {trip.d_iw}")
    if w.radius.is_infinite:
        # the coefficients with m_n(anchor) > 0 vanish at w_anchor
        lo, hi = trip.d_ur, trip.d_iw - trip.d_ur
        table = hatted_valuation_table(ctx, w.anchor, n_range)
        nums, den = [None if lo < n < hi else y for n, y in enumerate(table)], 1
    else:
        nums, den = valuation_table_at(ctx, w.anchor, w.radius.value, n_range)
    return integer_hull(range(n_range + 1), nums, den)
