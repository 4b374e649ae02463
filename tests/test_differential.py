"""Every batch table kernel, the integer derivative polygon, the sweep's
radius-free lock test and the interval-marking breakpoint criterion
against their pointwise or Fraction oracles, and the one-pass sweep and
the near-Steinberg criterion against the certified hull, over random
contexts (p, a, s_eps, m) in both modes."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghost_slopes import (
    INF,
    GhostContext,
    Valuation,
    WeightPoint,
    breakpoints_by_criterion,
    derivative_polygon,
    is_near_steinberg,
    k_thresholds,
    lower_hull,
    sweep_threshold,
)
from ghost_slopes import checks
from ghost_slopes.ghost import (
    anchored_valuation,
    degree_table,
    dimensions,
    evaluate_ghost_valuation,
    ghost_polynomial,
    hatted_valuation_table,
    level_tables,
    max_zero_distance,
    support_interval,
    valuation_table_at,
)
from ghost_slopes.slopes import _hull_newslopes, _level_pieces, _locked_on
from strategies import RADII, context_and_weight

N_HI = st.integers(0, 120)


@given(case=context_and_weight(), n_hi=N_HI)
@settings(max_examples=100, deadline=None)
def test_hatted_table_matches_anchored_valuation(case, n_hi):
    ctx, k = case
    table = hatted_valuation_table(ctx, k, n_hi)
    assert table == [anchored_valuation(ctx, n, k) for n in range(n_hi + 1)]


@given(
    case=context_and_weight(),
    n_hi=N_HI,
    num=st.integers(0, 40),
    den=st.integers(1, 9),
)
@settings(max_examples=100, deadline=None)
def test_valuation_table_matches_evaluate(case, n_hi, num, den):
    ctx, k = case
    radius = Fraction(num, den)
    nums, d = valuation_table_at(ctx, k, radius, n_hi)
    point = WeightPoint(k, radius)
    assert [Valuation(Fraction(x, d)) for x in nums] == [
        evaluate_ghost_valuation(ctx, n, point) for n in range(n_hi + 1)
    ]


@given(
    case=context_and_weight(),
    n_hi=N_HI,
    level=st.integers(0, 4),
    step=st.integers(0, 12),
)
@settings(max_examples=100, deadline=None)
def test_level_tables_match_evaluate(case, n_hi, level, step):
    ctx, k = case
    A, B = level_tables(ctx, k, level, n_hi)
    r = level + Fraction(step, 12)  # anywhere in [level, level + 1]
    point = WeightPoint(k, r)
    assert [Valuation(a + b * r) for a, b in zip(A, B)] == [
        evaluate_ghost_valuation(ctx, n, point) for n in range(n_hi + 1)
    ]


@given(case=context_and_weight())
@settings(max_examples=100, deadline=None)
def test_derivative_polygon_matches_fraction_hull(case):
    # the integer hull over 2 * raw against lower_hull over the raw Fractions
    ctx, k = case
    dp = derivative_polygon(ctx, k)
    trip = dimensions(ctx, k)
    c = trip.d_iw // 2
    assert dp.raw == tuple(
        anchored_valuation(ctx, c + l, k) - Fraction((k - 2) * l, 2)
        for l in range(trip.d_new // 2 + 1)
    )
    hull = lower_hull(enumerate(dp.raw))
    assert dp.slopes == hull.slopes
    assert dp.breakpoints == hull.vertex_xs()
    assert dp.increments == tuple(hull.slope_list())


@given(case=context_and_weight(), small=N_HI, extra=st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_degree_table_prefix_matches_polynomials(case, small, extra):
    ctx, _ = case
    big = degree_table(ctx, small + extra)  # built first, so `small` reads its prefix
    table = degree_table(ctx, small)
    assert table == big[: small + 1]
    assert table == [0] + [ghost_polynomial(ctx, n).degree() for n in range(1, small + 1)]


@given(case=context_and_weight())
@settings(max_examples=60, deadline=None)
def test_lock_test_matches_hull_slope(case):
    # the radius-free lock test holds iff the Fraction hull's newslope is
    # (k-2)/2 at both ends of the piece
    ctx, k = case
    trip = dimensions(ctx, k)
    m_int = int(max_zero_distance(ctx, k).value)
    assume(trip.d_new > 0 and m_int >= 2)
    target = Fraction(k - 2, 2)
    q_hi = trip.d_iw - trip.d_ur
    for level in range(1, m_int):
        for r1, r2, xs, A, B in _level_pieces(ctx, k, level, q_hi):
            ends = [
                lower_hull((q, A[q] + B[q] * r) for q in range(len(A))).slope_list()
                for r in (r1, r2)
            ]
            for n in range(1, trip.d_new + 1):
                x_pos = trip.d_ur + n
                locked = all(slopes[x_pos - 1] == target for slopes in ends)
                assert _locked_on(xs, A, B, x_pos, k) == locked, (k, level, r1, r2, n)


@given(case=context_and_weight())
@settings(max_examples=40, deadline=None)
def test_sweep_block_matches_certified_hull(case):
    # every threshold of the one-pass central sweep equals the single-index
    # sweep, and the certified hull's newslope is locked above it up to M(k) + 1
    ctx, k = case
    tv = k_thresholds(ctx, k)
    top = max_zero_distance(ctx, k).value + 1
    target = Fraction(k - 2, 2)
    for n, (cs, prov) in enumerate(zip(tv.local_thresholds, tv.provenance), 1):
        if prov != "sweep":
            continue
        assert sweep_threshold(ctx, k, n) == cs, (k, n)
        for t in (Fraction(1, 3), Fraction(2, 3), 1):
            r = cs.value + t * (top - cs.value)
            assert _hull_newslopes(ctx, k, WeightPoint(k, r))[n - 1] == target, (k, n, r)


# odd a gives first hull increments of exactly 3/2, met by radius 3/2
@example(case=(GhostContext(7, 1, 0), 39), radius=Fraction(3, 2))
@example(case=(GhostContext(5, 1, 0), 7), radius=Fraction(3, 2))
@given(case=context_and_weight(), radius=RADII)
@settings(max_examples=30, deadline=None)
def test_criterion_matches_unpruned_walk(case, radius):
    ctx, k = case
    w = WeightPoint(k, radius)
    d_iw = dimensions(ctx, k).d_iw
    walk = {0} | {
        n
        for n in range(1, d_iw + 1)
        if not any(
            is_near_steinberg(ctx, n, w, ctx.weight_of_bullet(j))
            for j in range(*support_interval(ctx, n))
        )
    }
    assert breakpoints_by_criterion(ctx, w, d_iw) == walk


@given(
    case=context_and_weight(),
    radius=st.one_of(st.just(INF), st.builds(Fraction, st.integers(1, 40), st.integers(1, 9))),
)
@settings(max_examples=150, deadline=None)
def test_criterion_matches_certified_hull(case, radius):
    ctx, k = case
    checks.check_criterion_matches_hull(ctx, WeightPoint(k, radius))
