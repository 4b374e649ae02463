"""Hulls and Newton polygons: frozen examples, a brute-force hull oracle
built from chords alone, and the Gauss-norm duality check against planted
faults of the hull chain."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ghost_slopes import (
    INF,
    DomainError,
    GhostContext,
    Valuation,
    VerificationError,
    WeightPoint,
    checks,
    lower_hull,
    newton_polygon_at,
    polygon,
)
from ghost_slopes.ghost import dimensions, hatted_valuation_table, valuation_table_at
from ghost_slopes.polygon import _chain
from strategies import RADII, context_and_weight, edge_at, evaluate_ghost_valuation, hull_value, slope_list


@pytest.fixture(scope="module")
def ctx():
    return GhostContext(p=7, a=2, s_eps=1)


# -- lower_hull ----------------------------------------------------------------


def test_already_convex_points_all_vertices():
    hull = lower_hull([(0, 17), (1, 19), (2, 25), (3, 34)])
    assert hull.vertex_xs() == (0, 1, 2, 3)
    assert hull.slopes == ((Fraction(2), 1), (Fraction(6), 1), (Fraction(9), 1))


def test_interior_point_above_hull_dropped():
    hull = lower_hull([(0, 0), (1, 5), (2, 6)])
    assert hull.vertex_xs() == (0, 2)
    assert hull.slopes == ((Fraction(3), 2),)


def test_collinear_point_is_touch_not_vertex():
    hull = lower_hull([(0, 0), (1, 3), (2, 6), (3, 10)])
    assert hull.vertex_xs() == (0, 2, 3)
    assert hull.slopes == ((Fraction(3), 2), (Fraction(4), 1))


def test_single_point_hull():
    hull = lower_hull([(5, Fraction(7, 2))])
    assert hull.vertices == ((5, Valuation(Fraction(7, 2))),)
    assert hull.slopes == ()


def test_infinite_ordinates_skipped():
    hull = lower_hull([(0, 0), (1, INF), (2, 4)])
    assert hull.vertex_xs() == (0, 2)
    assert hull.hull == ((0, 0), (2, 4))  # the hull alone is held, unconstrained at x = 1


def test_hull_errors():
    with pytest.raises(DomainError):
        lower_hull([])
    with pytest.raises(DomainError):
        lower_hull([(0, INF), (1, INF)])
    with pytest.raises(DomainError):
        lower_hull([(0, 0), (0, 1)])


def test_hull_rejects_inexact_input():
    # truncating a float abscissa would put 1.7 at x = 1 and report 0.9
    # as a duplicate of x = 0
    with pytest.raises(DomainError, match="1.7"):
        lower_hull([(0, 0), (1.7, 1), (3, 9)])
    with pytest.raises(DomainError, match="0.9"):
        lower_hull([(0, 0), (0.9, 5), (2, 6)])
    with pytest.raises(DomainError):
        lower_hull([(Fraction(1, 2), 0)])
    # a float ordinate would become a Fraction over 2**55
    with pytest.raises(TypeError):
        lower_hull([(0, 0), (1, 0.1)])


def test_hull_value_and_range():
    hull = lower_hull([(0, 0), (1, 5), (2, 6)])
    assert hull_value(hull, 1) == Valuation(3)
    assert hull_value(hull, 2) == Valuation(6)
    assert (hull.hull[0][0], hull.hull[-1][0]) == (0, 2)


def test_slope_multiplicities_cover_extent():
    hull = lower_hull([(0, 0), (2, 1), (5, 9), (6, 20)])
    assert sum(m for _, m in hull.slopes) == 6
    slopes = slope_list(hull)
    assert slopes == sorted(slopes)


@st.composite
def point_sets(draw):
    xs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=12, unique=True))
    ys = draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=8),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    return list(zip(xs, ys))


@given(point_sets())
def test_hull_idempotent_and_below_points(pts):
    hull = lower_hull(pts)
    again = lower_hull(hull.vertices)
    assert again.vertices == hull.vertices
    assert again.slopes == hull.slopes
    for x, y in sorted(pts):
        assert hull_value(hull, x) <= Valuation(y)
    # vertices are exactly strict slope increases, endpoints included
    slopes = [s for s, _ in hull.slopes]
    assert slopes == sorted(set(slopes))


def brute_hull(pts):
    """(vertices, value) of the lower hull of the finite points of pts,
    from chords alone.

    A finite point is a vertex iff it lies strictly below every chord
    between a finite point on its left and one on its right: iff every
    slope into it from the left is below every slope out of it to the
    right (the extreme finite points always qualify).  value(x) is the
    minimum over the chords (and the points) spanning x.
    """
    fin = sorted((x, Fraction(y)) for x, y in pts if y is not INF)

    def slope(a, b):
        return (b[1] - a[1]) / (b[0] - a[0])

    verts = []
    for j, pt in enumerate(fin):
        into = [slope(a, pt) for a in fin[:j]]
        out = [slope(pt, b) for b in fin[j + 1 :]]
        if not into or not out or max(into) < min(out):
            verts.append(pt)

    def value(x):
        return min(
            a[1] if a == b else a[1] + slope(a, b) * (x - a[0])
            for a in fin
            if a[0] <= x
            for b in fin
            if b[0] >= x and (a != b or a[0] == x)
        )

    return verts, value


@st.composite
def sparse_point_sets(draw):
    """Up to 30 points: non-contiguous and negative x, Fraction ordinates
    over mixed denominators, about one in six INFINITY."""
    xs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=30, unique=True))
    fracs = st.fractions(min_value=-60, max_value=60, max_denominator=12)
    ys = [INF if draw(st.integers(0, 5)) == 0 else draw(fracs) for _ in xs]
    assume(any(y is not INF for y in ys))
    return list(zip(xs, ys))


@given(sparse_point_sets())
@settings(max_examples=100, deadline=None)
def test_lower_hull_matches_brute_force(pts):
    hull = lower_hull(pts)
    verts, value = brute_hull(pts)
    assert hull.vertices == tuple((x, Valuation(y)) for x, y in verts)
    assert hull.slopes == tuple(
        ((y1 - y0) / (x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(verts, verts[1:])
    )
    xs = range(verts[0][0], verts[-1][0] + 1)
    values = [value(x) for x in xs]
    assert [hull_value(hull, x) for x in xs] == [Valuation(v) for v in values]
    assert slope_list(hull) == [b - a for a, b in zip(values, values[1:])]


@st.composite
def near_convex_point_sets(draw):
    """Integer points as the workloads' hulls see them, most of them kept: up
    to 80 points in long strictly convex runs (slopes rising), runs of equal
    slopes (collinear points) and a few dents (a point moved up or down), or
    just 0 to 2 points."""
    n = draw(st.integers(0, 80))
    x = draw(st.integers(-30, 30))
    xs = [x := x + draw(st.integers(1, 3)) for _ in range(n)]
    if n <= 2:
        return [(x, draw(st.integers(-50, 50))) for x in xs]
    slope, ys = draw(st.integers(-20, 20)), [draw(st.integers(-50, 50))]
    for x0, x1 in zip(xs, xs[1:]):
        slope += draw(st.sampled_from((0, 0, 1, 1, 1, 2, 7)))  # 0: collinear
        ys.append(ys[-1] + slope * (x1 - x0))
    for i, dent in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-4, 4)), max_size=3)):
        ys[i] += dent
    return list(zip(xs, ys))


@given(near_convex_point_sets())
@settings(max_examples=200, deadline=None)
def test_chain_on_near_convex_runs_matches_brute_force(pts):
    assert _chain(pts) == [(x, int(y)) for x, y in brute_hull(pts)[0]]
    if pts:
        assert lower_hull(pts).hull == tuple(_chain(pts))


# -- newton_polygon_at -----------------------------------------------------------


def test_newton_polygon_large_radius(ctx):
    np_ = newton_polygon_at(ctx, 8, WeightPoint(24, 10))
    assert slope_list(np_) == [Fraction(s) for s in (1, 11, 11, 11, 11, 11, 11, 22)]


def test_newton_polygon_mid_radius(ctx):
    np_ = newton_polygon_at(ctx, 8, WeightPoint(24, 7))
    assert slope_list(np_) == [Fraction(s) for s in (1, 9, 11, 11, 11, 11, 13, 22)]


def test_newton_polygon_small_radius(ctx):
    nu = Fraction(1, 2)
    np_ = newton_polygon_at(ctx, 8, WeightPoint(24, nu))
    assert slope_list(np_) == [
        nu * c for c in (1, 3, 6, 9, 11, 14, 16, 19)
    ]


def test_newton_polygon_at_exact_anchor(ctx):
    np_ = newton_polygon_at(ctx, 8, WeightPoint(24, INF))
    # coefficients 2..6 vanish at w_24; the hull bridges n = 1 to n = 7
    assert (1, Valuation(1)) in np_.vertices
    assert (7, Valuation(67)) in np_.vertices
    xs = np_.vertex_xs()
    assert all(x <= 1 or x >= 7 for x in xs)


def test_newton_polygon_range_guard(ctx):
    with pytest.raises(DomainError):
        newton_polygon_at(ctx, 5, WeightPoint(24, 3))


def test_newton_polygon_leading_point(ctx):
    np_ = newton_polygon_at(ctx, 10, WeightPoint(6, 2))
    assert np_.vertices[0] == (0, Valuation(0))


@given(case=context_and_weight(), radius=RADII, extra=st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_newton_polygon_matches_brute_force(case, radius, extra):
    # the integer polygon against the chord oracle over pointwise valuations
    ctx, k = case
    w = WeightPoint(k, radius)
    n = dimensions(ctx, k).d_iw + extra
    pts = [(q, evaluate_ghost_valuation(ctx, q, w)) for q in range(n + 1)]
    np_ = newton_polygon_at(ctx, n, w)
    # the table the polygon is built from: at the anchor, the hatted table with
    # the coefficients vanishing there at INFINITY
    if w.radius.is_infinite:
        trip = dimensions(ctx, k)
        vanish = range(trip.d_ur + 1, trip.d_iw - trip.d_ur)
        table = [None if q in vanish else Fraction(y) for q, y in enumerate(hatted_valuation_table(ctx, k, n))]
    else:
        nums, den = valuation_table_at(ctx, k, w.radius.value, n)
        table = [Fraction(y, den) for y in nums]
    assert table == [None if v.is_infinite else v.value for _, v in pts]
    verts, _ = brute_hull([(q, v if v.is_infinite else v.value) for q, v in pts])
    assert np_.vertices == tuple((x, Valuation(y)) for x, y in verts)
    assert np_.slopes == tuple(
        ((y1 - y0) / (x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(verts, verts[1:])
    )
    # the Fraction edge reader of the tail certificate's oracle: value and
    # right-hand slope at every q_hi < n
    slopes = slope_list(np_)
    for q_hi in range(n):
        assert edge_at(np_.hull, np_.den, q_hi) == (hull_value(np_, q_hi).value, slopes[q_hi])


# -- the Gauss-norm duality check ------------------------------------------------

CHAIN = inspect.getsource(polygon._chain)


def planted_chain(line: str, replacement: str):
    """``polygon._chain`` with its one occurrence of ``line`` replaced."""
    assert CHAIN.count(line) == 1
    namespace = dict(vars(polygon))
    exec(CHAIN.replace(line, replacement), namespace)
    return namespace["_chain"]


def parent_rule(vals) -> bool:
    # the rule the duality check replaced: the dual graph built from the hull's
    # own vertices and slopes, its kinks then compared with those same slopes
    hull = lower_hull(enumerate(vals))
    verts, cuts = hull.vertices, [-s for s, _ in hull.slopes]
    segments, lo = [], -max(s for s, _ in hull.slopes) - 1
    for i in range(len(verts) - 1, 0, -1):
        if cuts[i - 1] > lo:
            segments.append((lo, cuts[i - 1], *verts[i]))
            lo = cuts[i - 1]
    segments.append((lo, None, *verts[0]))
    kinks = [(-left[1], left[2] - right[2]) for left, right in zip(segments, segments[1:])]
    return sorted(kinks) == sorted(hull.slopes) and all(y.value == vals[n] for _, _, n, y in segments)


# (source line of _chain, its replacement, an input the plant breaks, whether
# the parent rule passes the broken hull)
CHAIN_PLANTS = {
    # the point at x = 3, a hull vertex, never reaches the chain: a convex but wrong hull
    "index-dropped": ("for point in points:", "for point in (q for q in points if q[0] != 3):",
                      [0, Fraction(1, 2), 0, -3, 0], True),
    # a point on the line through the top two is kept as a vertex
    "collinear-kept": ("(y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1)", "(y2 - y1) * (x - x2) > (y - y2) * (x2 - x1)",
                       [0, 1, 2], False),
    # a new point pops the top point at most, never past the top two
    "no-pop-past-two": ("if len(stack) == 1:", "if stack:", [0, -1, -1, -5], False),
}


@pytest.mark.parametrize("line, replacement, vals, parent_passes", CHAIN_PLANTS.values(), ids=CHAIN_PLANTS)
def test_duality_check_fails_on_planted_chain(monkeypatch, line, replacement, vals, parent_passes):
    checks.check_gauss_norm_duality(vals)
    assert parent_rule(vals)
    monkeypatch.setattr(polygon, "_chain", planted_chain(line, replacement))
    assert lower_hull(enumerate(vals)).vertex_xs() != tuple(x for x, _ in _chain(enumerate(vals)))
    assert parent_rule(vals) == parent_passes
    with pytest.raises(VerificationError, match="polygon/dual mismatch"):
        checks.check_gauss_norm_duality(vals)


def test_duality_check_fails_on_shifted_vertices(monkeypatch):
    # every vertex one higher: the slopes and the kinks stay, the vertices leave the points
    def raised(points):
        hull = lower_hull(points)
        return hull._replace(hull=tuple((x, y + hull.den) for x, y in hull.hull))

    monkeypatch.setattr(checks, "lower_hull", raised)
    with pytest.raises(VerificationError, match="polygon/dual mismatch"):
        checks.check_gauss_norm_duality([0, 1, 4])


@st.composite
def value_lists(draw):
    """Dense lists of negative and fractional values, joined from runs on lines,
    so that collinear points fall on the hull as well as above it."""
    fracs = st.fractions(min_value=-40, max_value=40, max_denominator=6)
    vals = [draw(fracs)]
    for jump, step, length in draw(st.lists(st.tuples(fracs, fracs, st.integers(1, 6)), max_size=6)):
        start = vals[-1] + jump
        vals.extend(start + i * step for i in range(length))
    return vals


@given(value_lists())
def test_duality_check_passes_on_every_hull(vals):
    checks.check_gauss_norm_duality(vals)


# -- the Gauss-norm duality on sparse coefficients --------------------------------
#
# nu_r = min_n (v_n + n r) kinks at r = -s with drop m for each hull slope s of
# multiplicity m; every value and minimiser below is found by brute force


def gauss_norm(coeffs, r):
    return min(Fraction(v) + n * r for n, v in coeffs.items())


def minimisers(coeffs, s) -> list:
    """The degrees n minimising v_n - n s, ascending."""
    heights = {n: Fraction(v) - n * s for n, v in coeffs.items()}
    lowest = min(heights.values())
    return sorted(n for n, h in heights.items() if h == lowest)


def test_dual_graph_single_slope():
    # NP slope -3 with multiplicity 2: a_0 = 6, a_2 = 0
    coeffs = {0: 6, 2: 0}
    assert lower_hull(coeffs.items()).slopes == ((Fraction(-3), 2),)
    assert minimisers(coeffs, -3) == [0, 2]
    assert [gauss_norm(coeffs, r) for r in (0, 3, 10)] == [0, 6, 6]


def test_dual_graph_direct_min():
    coeffs = dict(enumerate([0, 2, 6]))
    assert lower_hull(coeffs.items()).slopes == ((Fraction(2), 1), (Fraction(4), 1))
    assert [minimisers(coeffs, s) for s in (2, 4)] == [[0, 1], [1, 2]]
    assert gauss_norm(coeffs, 1) == 0
    assert gauss_norm(coeffs, -4) == -2  # min(0, -2, -2)


def test_dual_graph_roundtrip_vertices():
    # between adjacent kinks one degree alone attains nu_r, and these degrees
    # are the hull's vertices, right to left as r grows
    coeffs = {0: 0, 1: 2, 3: 3, 7: 5, 2: 100}  # a_2 far above the hull
    hull = lower_hull(coeffs.items())
    cuts = [-s for s, _ in reversed(hull.slopes)]
    probes = [cuts[0] - 1, *((a + b) / 2 for a, b in zip(cuts, cuts[1:])), cuts[-1] + 1]
    attained = [minimisers(coeffs, -r) for r in probes]
    assert attained == [[x] for x in reversed(hull.vertex_xs())]


@st.composite
def coefficient_families(draw):
    degrees = draw(st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True))
    vals = draw(
        st.lists(
            st.fractions(min_value=-40, max_value=40, max_denominator=6),
            min_size=len(degrees),
            max_size=len(degrees),
        )
    )
    return dict(zip(degrees, vals))


@given(coefficient_families())
def test_dual_graph_matches_newton_polygon(coeffs):
    # each NP slope s of multiplicity m, from vertex x0: the minimisers of
    # v_n - n s over the given degrees run from x0 to x0 + m
    hull = lower_hull(coeffs.items())
    for x0, (s, m) in zip(hull.vertex_xs(), hull.slopes):
        low = minimisers(coeffs, s)
        assert (low[0], low[-1]) == (x0, x0 + m)


@given(coefficient_families(), st.fractions(min_value=-30, max_value=30, max_denominator=7))
def test_dual_graph_is_pointwise_min(coeffs, r):
    # the hull's vertices alone attain nu_r
    vertices = lower_hull(coeffs.items()).vertices
    assert gauss_norm(coeffs, r) == min(y.value + x * r for x, y in vertices)
