"""Exact lower convex hulls, Newton polygons, and Gauss-norm dual graphs.

Everything here is rational arithmetic: hull membership and vertex
classification are structural facts, never tolerance calls.  The two
transforms determine each other: the dual graph of a power series has a
breakpoint at r exactly when -r is a slope of its Newton polygon, and
the multiplicity of the slope equals the slope drop at the breakpoint.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .errors import DomainError
from .ghost import (
    GhostContext,
    WeightPoint,
    dimensions,
    hatted_valuation_table,
    valuation_table_at,
)
from .valuation import INF, Valuation

Point = Tuple[int, Valuation]


def _as_valuation(y) -> Valuation:
    return y if isinstance(y, Valuation) else Valuation(y)


def _chain(points: Iterable[Tuple[int, object]]) -> list:
    """Lower monotone chain of (x, y) pairs given in increasing x, with
    exact y (int or Fraction); collinear points drop."""
    stack: list = []
    for x, y in points:
        while len(stack) >= 2:
            (x1, y1), (x2, y2) = stack[-2], stack[-1]
            # keep x2 only on a strict left turn
            if (y2 - y1) * (x - x2) < (y - y2) * (x2 - x1):
                break
            stack.pop()
        stack.append((x, y))
    return stack


def _interpolate(xs: Sequence[int], ys: Sequence, x: int):
    """Ordinate at x of the polyline through (xs[i], ys[i]), for
    xs[0] <= x <= xs[-1]."""
    i = bisect_right(xs, x) - 1
    if xs[i] == x:
        return ys[i]
    x0, x1 = xs[i], xs[i + 1]
    return ys[i] + (ys[i + 1] - ys[i]) * Fraction(x - x0, x1 - x0)


@dataclass(frozen=True)
class RationalPolygon:
    """A lower convex hull over points with integer x and exact ordinates.

    ``points`` is the full input (INFINITY ordinates included), sorted by
    x.  ``vertices`` are the hull points where the slope strictly
    increases (endpoints always qualify).  ``slopes`` pairs each distinct
    hull slope with its multiplicity (the x-extent it covers), strictly
    increasing.
    """

    points: Tuple[Point, ...]
    vertices: Tuple[Point, ...]
    slopes: Tuple[Tuple[Fraction, int], ...]

    def vertex_xs(self) -> Tuple[int, ...]:
        """Breakpoint abscissae, ascending."""
        return tuple(x for x, _ in self.vertices)

    def slope_list(self) -> list:
        """All hull slopes, one per unit of x-extent, non-decreasing."""
        out: list = []
        for s, m in self.slopes:
            out.extend([s] * m)
        return out

    def hull_value(self, x: int) -> Valuation:
        """Exact ordinate of the hull at integer x inside the x-range."""
        xs = [vx for vx, _ in self.vertices]
        if not xs or x < xs[0] or x > xs[-1]:
            raise DomainError(f"x = {x} outside hull range")
        return Valuation(_interpolate(xs, [y.value for _, y in self.vertices], x))


def lower_hull(points: Iterable[Tuple[int, object]]) -> RationalPolygon:
    """Lower convex hull of points with distinct integer x.

    Ordinates may be rationals or Valuations; INFINITY ordinates impose
    no constraint and never appear on the hull.  Raises DomainError on
    an empty input, duplicate abscissae, or all-INFINITY ordinates.

    Examples
    --------
    >>> hull = lower_hull([(0, 0), (1, 5), (2, 6)])
    >>> hull.vertex_xs()
    (0, 2)
    >>> hull.slopes
    ((Fraction(3, 1), 2),)
    """
    pts = sorted((int(x), _as_valuation(y)) for x, y in points)
    if not pts:
        raise DomainError("empty point list")
    for i in range(1, len(pts)):
        if pts[i][0] == pts[i - 1][0]:
            raise DomainError(f"duplicate abscissa x = {pts[i][0]}")
    finite = [(x, y.value) for x, y in pts if not y.is_infinite]
    if not finite:
        raise DomainError("every ordinate is infinite")

    stack = _chain(finite)
    slopes = tuple(
        (Fraction(y1 - y0, x1 - x0), x1 - x0)
        for (x0, y0), (x1, y1) in zip(stack, stack[1:])
    )
    return RationalPolygon(
        points=tuple(pts),
        vertices=tuple((x, Valuation(y)) for x, y in stack),
        slopes=slopes,
    )


def newton_polygon_at(ctx: GhostContext, n_range: int, w: WeightPoint) -> RationalPolygon:
    """Newton polygon of the ghost series at w, over coefficients 0..n_range.

    The constant coefficient contributes (0, 0).  At infinite radius
    (w exactly the anchor weight) the coefficients vanishing there sit
    at INFINITY and drop out of the hull.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> np = newton_polygon_at(ctx, 8, WeightPoint(ctx.weight(24), 10))
    >>> np.slope_list()[1:7]
    [Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1), Fraction(11, 1)]
    """
    trip = dimensions(ctx, w.anchor)
    if n_range < trip.d_iw:
        raise DomainError(
            f"n_range = {n_range} is below the anchor's full span {trip.d_iw}"
        )
    if w.radius.is_infinite:
        # the coefficients with m_n(anchor) > 0 vanish at w_anchor
        table = hatted_valuation_table(ctx, w.anchor, n_range)
        pts = [
            (n, INF if trip.d_ur < n < trip.d_iw - trip.d_ur else Valuation(table[n]))
            for n in range(n_range + 1)
        ]
    else:
        nums, den = valuation_table_at(ctx, w.anchor, w.radius.value, n_range)
        pts = [(n, Valuation(Fraction(nums[n], den))) for n in range(n_range + 1)]
    return lower_hull(pts)


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
        r = _as_valuation(r)
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
        out = []
        for left, right in zip(self.segments, self.segments[1:]):
            out.append((left[1], left[2] - right[2]))
        return tuple(out)

    def newton_vertices(self) -> Tuple[Point, ...]:
        """The Newton-polygon vertices (n, v_p(a_n)) this graph encodes."""
        return tuple(
            (slope, intercept) for _, _, slope, intercept in reversed(self.segments)
        )


def dual_graph(
    coefficient_valuations: Union[Mapping[int, object], Sequence[object]],
    r_min,
) -> DualGraph:
    """Piecewise-linear nu_r over [r_min, INFINITY) from coefficient data.

    Accepts a sequence (index = coefficient degree) or a mapping from
    degree to valuation; INFINITY entries are skipped.  Needs at least
    one finite entry and a finite r_min.
    """
    if isinstance(coefficient_valuations, Mapping):
        items = coefficient_valuations.items()
    else:
        items = enumerate(coefficient_valuations)
    coeffs = []
    for n, v in items:
        if n < 0:
            raise DomainError(f"coefficient degree {n} is negative")
        v = _as_valuation(v)
        if not v.is_infinite:
            coeffs.append((n, v))
    if not coeffs:
        raise DomainError("no finite coefficient valuations")
    r_min = _as_valuation(r_min)
    if r_min.is_infinite:
        raise DomainError("r_min must be finite")

    hull = lower_hull(coeffs)
    verts = [(x, y.value) for x, y in hull.vertices]
    # line n_i cuts line n_{i-1} at r = -slope(v_{i-1}, v_i); walking r
    # upward the active degree steps down from n_t to n_0
    cuts = [
        Valuation(-Fraction(y1 - y0, x1 - x0))
        for (x0, y0), (x1, y1) in zip(verts, verts[1:])
    ]
    segments = []
    lo: Valuation = r_min
    for i in range(len(verts) - 1, 0, -1):
        hi = cuts[i - 1]
        if hi <= lo:
            continue
        n, y = verts[i]
        segments.append((lo, hi, n, Valuation(y)))
        lo = hi
    n, y = verts[0]
    segments.append((lo, INF, n, Valuation(y)))
    return DualGraph(segments=tuple(segments))
