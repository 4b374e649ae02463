"""Hulls, Newton polygons, and dual graphs: frozen examples, duality, and
a brute-force hull oracle built from chords alone."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ghost_slopes import (
    INF,
    DomainError,
    GhostContext,
    Valuation,
    WeightPoint,
    dual_graph,
    lower_hull,
    newton_polygon_at,
)
from ghost_slopes.ghost import dimensions, evaluate_ghost_valuation
from ghost_slopes.polygon import _chain
from strategies import RADII, context_and_weight, edge_at


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
    assert len(hull.points) == 3  # input retained, hull unconstrained


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
    assert hull.hull_value(1) == Valuation(3)
    assert hull.hull_value(2) == Valuation(6)
    with pytest.raises(DomainError):
        hull.hull_value(3)


def test_slope_multiplicities_cover_extent():
    hull = lower_hull([(0, 0), (2, 1), (5, 9), (6, 20)])
    assert sum(m for _, m in hull.slopes) == 6
    slopes = hull.slope_list()
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
        assert hull.hull_value(x) <= Valuation(y)
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
    assert hull.points == tuple(
        (x, y if y is INF else Valuation(y)) for x, y in sorted(pts, key=lambda pt: pt[0])
    )
    xs = range(verts[0][0], verts[-1][0] + 1)
    values = [value(x) for x in xs]
    assert [hull.hull_value(x) for x in xs] == [Valuation(v) for v in values]
    assert hull.slope_list() == [b - a for a, b in zip(values, values[1:])]


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
    assert np_.slope_list() == [Fraction(s) for s in (1, 11, 11, 11, 11, 11, 11, 22)]


def test_newton_polygon_mid_radius(ctx):
    np_ = newton_polygon_at(ctx, 8, WeightPoint(24, 7))
    assert np_.slope_list() == [Fraction(s) for s in (1, 9, 11, 11, 11, 11, 13, 22)]


def test_newton_polygon_small_radius(ctx):
    nu = Fraction(1, 2)
    np_ = newton_polygon_at(ctx, 8, WeightPoint(24, nu))
    assert np_.slope_list() == [
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
    assert np_.points[0] == (0, Valuation(0))
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
    assert np_.points == tuple(pts)
    verts, _ = brute_hull([(q, v if v.is_infinite else v.value) for q, v in pts])
    assert np_.vertices == tuple((x, Valuation(y)) for x, y in verts)
    assert np_.slopes == tuple(
        ((y1 - y0) / (x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(verts, verts[1:])
    )
    # the Fraction edge reader of the tail certificate's oracle: value and
    # right-hand slope at every q_hi < n
    slopes = np_.slope_list()
    for q_hi in range(n):
        assert edge_at(np_.hull, np_.den, q_hi) == (np_.hull_value(q_hi).value, slopes[q_hi])


# -- dual graphs -----------------------------------------------------------------


def test_dual_graph_single_slope():
    # NP slope -3 with multiplicity 2: a_0 = 6, a_2 = 0
    dg = dual_graph({0: 6, 2: 0}, -10)
    assert dg.breakpoints() == ((Valuation(3), 2),)
    assert dg.nu(3) == Valuation(6)
    assert dg.nu(0) == Valuation(0)
    assert dg.nu(10) == Valuation(6)


def test_dual_graph_direct_min():
    dg = dual_graph([0, 2, 6], -10)
    assert dg.nu(1) == Valuation(0)
    assert [r for r, _ in dg.breakpoints()] == [Valuation(-4), Valuation(-2)]
    assert [d for _, d in dg.breakpoints()] == [1, 1]
    assert dg.nu(-4) == Valuation(-2)  # min(0, -2, -2)


def test_dual_graph_concave_and_continuous():
    dg = dual_graph({0: 0, 1: 2, 3: 3, 7: 5}, -10)
    slopes = [seg[2] for seg in dg.segments]
    assert slopes == sorted(slopes, reverse=True)
    for left, right in zip(dg.segments, dg.segments[1:]):
        r = left[1]
        assert left[3].value + left[2] * r.value == right[3].value + right[2] * r.value


def test_dual_graph_clipping():
    dg = dual_graph([0, 2, 6], 0)  # both breakpoints sit below r_min = 0
    assert dg.segments == ((Valuation(0), INF, 0, Valuation(0)),)
    assert dg.nu(INF) == Valuation(0)


def test_dual_graph_roundtrip_vertices():
    coeffs = {0: 0, 1: 2, 3: 3, 7: 5, 2: 100}  # a_2 far above the hull
    dg = dual_graph(coeffs, -50)
    hull = lower_hull([(n, v) for n, v in coeffs.items()])
    # each segment's slope and intercept are a Newton vertex (n, v_p(a_n))
    assert tuple((n, v) for _, _, n, v in reversed(dg.segments)) == hull.vertices


def test_dual_graph_errors():
    with pytest.raises(DomainError):
        dual_graph({0: INF, 3: INF}, 0)
    with pytest.raises(DomainError):
        dual_graph({}, 0)
    with pytest.raises(DomainError):
        dual_graph({-1: 0}, 0)
    with pytest.raises(DomainError):
        dual_graph({0: 0}, INF)


def test_dual_graph_rejects_inexact_input():
    with pytest.raises(DomainError, match="1.5"):
        dual_graph({0: 0, 1.5: 1, 3: 2}, 0)
    with pytest.raises(TypeError):
        dual_graph([0, 0.5], 0)
    with pytest.raises(TypeError):
        dual_graph([0, 1], 0.5)
    with pytest.raises(TypeError):
        dual_graph([0, 1], 0).nu(0.5)


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
    # slopes of NP with multiplicity == negated breakpoints with slope drop
    hull = lower_hull(list(coeffs.items()))
    dg = dual_graph(coeffs, -1000)
    np_pairs = [(-s, m) for s, m in hull.slopes]
    dual_pairs = [(r.value, d) for r, d in dg.breakpoints()]
    assert sorted(np_pairs) == sorted(dual_pairs)
    assert tuple((n, v) for _, _, n, v in reversed(dg.segments)) == hull.vertices


@given(coefficient_families(), st.fractions(min_value=-30, max_value=30, max_denominator=7))
def test_dual_graph_is_pointwise_min(coeffs, r):
    dg = dual_graph(coeffs, -1000)
    expected = min(Fraction(v) + n * r for n, v in coeffs.items())
    assert dg.nu(r) == Valuation(expected)
