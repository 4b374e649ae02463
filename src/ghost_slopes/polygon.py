"""Exact lower convex hulls, Newton polygons, and Gauss-norm dual graphs.

Every hull runs on integer ordinates over one positive denominator, with
Valuations built only when read: hull membership and vertex
classification are structural facts, never tolerance calls.  The two
transforms determine each other: the dual graph of a power series has a
breakpoint at r exactly when -r is a slope of its Newton polygon, and
the multiplicity of the slope equals the slope drop at the breakpoint.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import DomainError
from .ghost import GhostContext, WeightPoint, dimensions, hatted_valuation_table, valuation_table_at
from .valuation import INF, Valuation, _coerce

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


@dataclass(frozen=True)
class RationalPolygon:
    """A lower convex hull over points with integer x, held on integers.

    Input point i is (xs[i], ys[i] / den), sorted by x, with ys[i] None
    for INFINITY; ``hull`` is the chain of (x, y) with vertex (x, y / den).
    ``points`` is the full input.  ``vertices`` are the hull points where
    the slope strictly increases (endpoints always qualify).  ``slopes``
    pairs each distinct hull slope with its multiplicity (the x-extent it
    covers), strictly increasing.
    """

    xs: Sequence[int]
    ys: Sequence[Optional[int]]
    den: int
    hull: Tuple[Tuple[int, int], ...]

    @property
    def points(self) -> Tuple[Point, ...]:
        return tuple(
            (x, INF if y is None else Valuation(Fraction(y, self.den)))
            for x, y in zip(self.xs, self.ys)
        )

    @property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple((x, Valuation(Fraction(y, self.den))) for x, y in self.hull)

    @cached_property
    def slopes(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple(
            (Fraction(y1 - y0, (x1 - x0) * self.den), x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.hull, self.hull[1:])
        )

    def vertex_xs(self) -> Tuple[int, ...]:
        """Breakpoint abscissae, ascending."""
        return tuple(x for x, _ in self.hull)

    def slope_list(self) -> list:
        """All hull slopes, one per unit of x-extent, non-decreasing."""
        out: list = []
        for s, m in self.slopes:
            out.extend([s] * m)
        return out

    def hull_value(self, x: int) -> Valuation:
        """Exact ordinate of the hull at integer x inside the x-range."""
        (x_first, _), (x_last, y_last) = self.hull[0], self.hull[-1]
        if x < x_first or x > x_last:
            raise DomainError(f"x = {x} outside hull range")
        if x == x_last:
            return Valuation(Fraction(y_last, self.den))
        (x0, y0), (x1, y1) = self.hull[(i := bisect_right(self.hull, x, key=itemgetter(0))) - 1 : i + 1]
        return Valuation(Fraction(y0 * (x1 - x) + y1 * (x - x0), (x1 - x0) * self.den))


def integer_hull(xs: Sequence[int], ys: Sequence[Optional[int]], den: int) -> RationalPolygon:
    """The polygon of the points (xs[i], ys[i] / den): xs ascending, ys
    ints or None for INFINITY (no constraint), den positive.  Raises
    DomainError when no ordinate is finite."""
    finite = zip(xs, ys) if None not in ys else ((x, y) for x, y in zip(xs, ys) if y is not None)
    if not (hull := tuple(_chain(finite))):
        raise DomainError("no finite ordinate")
    return RationalPolygon(xs, ys, den, hull)


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
    >>> np.slope_list()[1:7]
    [Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1)]
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


@dataclass(frozen=True)
class DualGraph:
    """The Gauss-norm profile r -> nu_r(f) = min_n (v_p(a_n) + n r).

    ``segments`` lists (r_lo, r_hi, slope, intercept), increasing in r,
    with nu_r = intercept + slope * r on each piece; the last piece has
    r_hi = INFINITY.  Concavity means the integer slopes strictly
    decrease left to right, and each intercept is exactly v_p(a_slope).
    """

    segments: Tuple[Tuple[Valuation, Valuation, int, Valuation], ...]

    def nu(self, r) -> Valuation:
        """nu_r at any radius >= the graph's left edge."""
        r = _coerce(r)
        if r.is_infinite:
            _, _, slope, intercept = self.segments[-1]
            return INF if slope > 0 else intercept
        if r < self.segments[0][0]:
            raise DomainError(f"radius {r!r} below the graph domain")
        for r_lo, r_hi, slope, intercept in self.segments:
            if r <= r_hi:
                return Valuation(intercept.value + slope * r.value)
        raise AssertionError("unreachable: last segment is unbounded")

    def breakpoints(self) -> Tuple[Tuple[Valuation, int], ...]:
        """(radius, slope drop) at each join, increasing radius."""
        return tuple((left[1], left[2] - right[2]) for left, right in zip(self.segments, self.segments[1:]))


def dual_graph(
    coefficient_valuations: Union[Mapping[int, object], Sequence[object]],
    r_min,
) -> DualGraph:
    """Piecewise-linear nu_r over [r_min, INFINITY) from coefficient data.

    Accepts a sequence (index = coefficient degree) or a mapping from
    degree to valuation; INFINITY entries are skipped.  Needs at least
    one finite entry and a finite r_min.
    """
    mapped = isinstance(coefficient_valuations, Mapping)
    hull = lower_hull(coefficient_valuations.items() if mapped else enumerate(coefficient_valuations))
    if hull.xs[0] < 0:
        raise DomainError(f"coefficient degree {hull.xs[0]} is negative")
    r_min = _coerce(r_min)
    if r_min.is_infinite:
        raise DomainError("r_min must be finite")

    verts = hull.vertices
    # line n_i cuts line n_{i-1} at r = -slope(v_{i-1}, v_i); walking r
    # upward the active degree steps down from n_t to n_0
    cuts = [Valuation(-s) for s, _ in hull.slopes]
    segments = []
    lo: Valuation = r_min
    for i in range(len(verts) - 1, 0, -1):
        hi = cuts[i - 1]
        if hi <= lo:
            continue
        segments.append((lo, hi, *verts[i]))
        lo = hi
    segments.append((lo, INF, *verts[0]))
    return DualGraph(segments=tuple(segments))
