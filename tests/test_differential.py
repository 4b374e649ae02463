"""Every batch table kernel, the integer derivative polygon, its hull gaps against the monotone
chain, and its build from the steps of half the hatted table, the sweep's
radius-free lock test and its block-local pieces, the interval-marking
breakpoint criterion and the integer thresholds, L model, prediction, their
JSON texts and samples against their pointwise or Fraction oracles, the
one-pass sweep, the newslope runs and the near-Steinberg criterion against
the certified hull, the closed form's region against its rule in Fractions,
the model radius against its two-step definition, the sweep's thresholds against a perturbed
hull that never runs the sweep, and the first certification window
against one 4x wider, over random contexts (p, a, s_eps, m) in both
modes; and the integer sample statistics and the integer tail certificate
against their Fraction definitions over random samples and hulls."""

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, count, product, repeat
from operator import add
from unittest import mock

import pytest
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
from ghost_slopes import checks, ghost, slopes
from ghost_slopes.distribution import DistributionSample, SampleKind, discrepancy, sample, weyl_csv
from ghost_slopes.errors import DomainError, VerificationError
from ghost_slopes.ghost import (
    _bullet_bound,
    _corner_steps,
    _triangle_steps,
    anchored_valuation,
    degree_table,
    dimensions,
    ghost_polynomial,
    hatted_valuation_table,
    level_tables,
    max_zero_distance,
    valuation_table_at,
)
from ghost_slopes.polygon import _chain, _hull_gaps, edge_runs, integer_hull, newton_polygon_at
from ghost_slopes.prediction import build_model, model_radius, predict_slopes
from ghost_slopes.slopes import (
    DerivativePolygon,
    _closed_form_runs,
    _hull_runs,
    _level_pieces,
    _locked_on,
    _reach,
    _sweep,
    _window,
    _windows,
    certified_newton_polygon,
    newslope_runs,
)
from ghost_slopes.valuation import ratio_text
from strategies import (
    RADII,
    ab_level_pieces,
    ab_locked_on,
    ab_sweep,
    context_and_weight,
    edge_at,
    evaluate_ghost_valuation,
    expand_runs,
    high_weight,
    hull_value,
    slope_list,
    table_steps,
)

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


@given(case=context_and_weight(), n_hi=N_HI, level=st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_level_tables_are_the_differences_of_integer_radius_tables(case, n_hi, level):
    # the sweep reads V_L and V_{L+1}, the tables at the integer radii L and L + 1
    # (den 1), in place of the level tables, which are (V_L - L (V_{L+1} - V_L), V_{L+1} - V_L)
    ctx, k = case
    (V0, den0), (V1, den1) = (valuation_table_at(ctx, k, r, n_hi) for r in (level, level + 1))
    assert den0 == den1 == 1
    B = [b - a for a, b in zip(V0, V1)]
    assert level_tables(ctx, k, level, n_hi) == ([a - level * b for a, b in zip(V0, B)], B)


@given(
    case=context_and_weight(),
    n_hi=N_HI,
    small=st.integers(0, 60),
    extra=st.integers(1, 200),
    low=st.builds(Fraction, st.integers(0, 9), st.integers(9, 9)),
    high=st.builds(Fraction, st.integers(10, 40), st.integers(1, 9)),
    level=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_anchored_tables_ignore_the_residue_tables_held(case, n_hi, small, extra, low, high, level):
    # the hatted table, tables at radii <= 1 and > 1 and level A/B tables
    # against their pointwise oracles on a fresh context, then the same
    # tables on contexts that read tables past n_hi, or short then one
    # longer, first: whatever periods a context holds, every entry is exact
    ctx, k = case

    def tables(n, ctx=ctx):
        at = [valuation_table_at(ctx, k, r, n) for r in (low, high)]
        return hatted_valuation_table(ctx, k, n), at, [level_tables(ctx, k, lv, n) for lv in (1, 2, 3)]

    hatted, at, levels = expected = tables(n_hi)
    assert hatted == [anchored_valuation(ctx, n, k) for n in range(n_hi + 1)]
    for r, (nums, den) in zip((low, high), at):
        point = WeightPoint(k, r)
        assert [Valuation(Fraction(x, den)) for x in nums] == [
            evaluate_ghost_valuation(ctx, n, point) for n in range(n_hi + 1)
        ], r
    A, B = levels[level - 1]
    r = level + low  # in [level, level + 1)
    point = WeightPoint(k, r)
    assert [Valuation(a + b * r) for a, b in zip(A, B)] == [
        evaluate_ghost_valuation(ctx, n, point) for n in range(n_hi + 1)
    ], level
    for history in ((n_hi + extra,), (small, small + 1)):
        warm = GhostContext(*ctx)
        for n in history:
            tables(n, warm)
        assert (tables(n_hi, warm), tables(history[-1], warm)) == (expected, tables(history[-1])), history


def test_deep_strides_match_pointwise_oracles():
    # on p = 5 the bullets below the bound of n_hi = 240 reach stride 5^4:
    # the anchor kb = 50, 0 mod 25, has bullet 675 at distance 5 in it
    ctx = GhostContext(5, 1, 0)
    k, n_hi = ctx.weight_of_bullet(50), 240
    assert _bullet_bound(ctx, n_hi) > 675
    assert hatted_valuation_table(ctx, k, n_hi) == [
        anchored_valuation(ctx, n, k) for n in range(n_hi + 1)
    ]
    for radius in (Fraction(1, 3), Fraction(5, 2), Fraction(7)):
        nums, den = valuation_table_at(ctx, k, radius, n_hi)
        point = WeightPoint(k, radius)
        assert [Valuation(Fraction(x, den)) for x in nums] == [
            evaluate_ghost_valuation(ctx, n, point) for n in range(n_hi + 1)
        ], radius
    for level in range(5):
        A, B = level_tables(ctx, k, level, n_hi)
        r = level + Fraction(1, 3)
        point = WeightPoint(k, r)
        assert [Valuation(a + b * r) for a, b in zip(A, B)] == [
            evaluate_ghost_valuation(ctx, n, point) for n in range(n_hi + 1)
        ], level


def _value_assembly(ctx, kb, n_hi, w):
    """An anchored table assembled from value lists, as the kernel once did:
    the strides' own table, plus w(1) times deg's values and w(2) - w(1)
    times S_1's, each list added in turn."""
    p, bound = ctx.p, _bullet_bound(ctx, n_hi)
    values = lambda strides: [0, *accumulate(accumulate(_triangle_steps(ctx, strides, [0] * n_hi)))]
    strides, i, step = [], 2, p * p
    while step <= max(kb, bound):
        strides.append((range(kb % step, bound, step), w(i + 1) - w(i)))
        i, step = i + 1, step * p
    strides.append((range(kb, min(kb + 1, bound)), w(None) - w(i)))
    deg = [0, *accumulate(accumulate(_corner_steps(ctx, n_hi)))]
    s1 = values([(range(kb % p, bound, p), 1)])
    return [f + w(1) * d + (w(2) - w(1)) * s for f, d, s in zip(values(strides), deg, s1)]


@given(case=context_and_weight(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_step_kernel_matches_its_oracles(case, data):
    # every anchored table, summed from the steps of deg and S_1 and the deep
    # strides' corners, against the pointwise oracles and the value assembly,
    # with n_hi past deg's period of 2p, after a shorter read on the same
    # context (test_ghost_series checks the periods themselves)
    ctx, k = case
    kb = ctx.bullet(k)
    n_hi = data.draw(st.integers(2 * ctx.p + 2, 8 * ctx.p + 20), label="n_hi")
    small = data.draw(st.just(n_hi - 1) | st.integers(1, n_hi - 1), label="small")
    radii = (
        data.draw(st.builds(Fraction, st.integers(0, 9), st.just(9)), label="r <= 1"),
        1 + data.draw(st.builds(Fraction, st.integers(1, 8), st.just(9)), label="1 < r < 2"),
        2 + data.draw(st.builds(Fraction, st.integers(0, 40), st.integers(1, 9)), label="r >= 2"),
    )

    def tables(n):
        at = [valuation_table_at(ctx, k, r, n) for r in radii]
        return hatted_valuation_table(ctx, k, n), at, [level_tables(ctx, k, lv, n) for lv in (1, 2, 3)]

    tables(small)
    hatted, at, levels = tables(n_hi)
    ns = range(n_hi + 1)
    assert hatted == [anchored_valuation(ctx, n, k) for n in ns]
    assert hatted == _value_assembly(ctx, kb, n_hi, lambda d: 0 if d is None else d)
    for r, (nums, den) in zip(radii, at):
        point = WeightPoint(k, r)
        assert [Valuation(Fraction(x, den)) for x in nums] == [evaluate_ghost_valuation(ctx, n, point) for n in ns], r
        wt = lambda d: r.numerator if d is None else min(r.numerator, d * r.denominator)
        assert nums == _value_assembly(ctx, kb, n_hi, wt), r
    for level, (A, B) in zip((1, 2, 3), levels):
        point = WeightPoint(k, level + Fraction(1, 3))
        assert [Valuation(a + b * point.radius.value) for a, b in zip(A, B)] == [
            evaluate_ghost_valuation(ctx, n, point) for n in ns
        ], level
        near = lambda d: d is not None and d <= level
        assert A == _value_assembly(ctx, kb, n_hi, lambda d: d if near(d) else 0), level
        assert B == _value_assembly(ctx, kb, n_hi, lambda d: 0 if near(d) else 1), level


@st.composite
def small_prime_context_and_weight(draw):
    """A context on p = 5 or 7 in exploratory mode and a class weight with k_bullet < 12p."""
    p = draw(st.sampled_from((5, 7)))
    ctx = GhostContext(p, draw(st.integers(1, p - 4)), draw(st.integers(0, p - 2)), draw(st.integers(1, 3)))
    return ctx, ctx.weight_of_bullet(draw(st.integers(0, 12 * p - 1)))


@given(case=small_prime_context_and_weight(), data=st.data())
@settings(max_examples=8, deadline=None)
def test_step_kernel_cycles_the_combined_period(case, data):
    # anchored tables that cycle the combined deg + S_1 period of 1 + 2p^2 steps,
    # against the value assembly and the pointwise oracles, at the weights
    # (w(1), w(2) - w(1)) = (1, 1) hatted, (0, 0) at radius 0, (1, 0) at 1/3,
    # (2, 2) at 5/2, (3, 3) at 7/3, and on levels 1-3 (1, -1), (1, 1), (0, 1),
    # (0, 0); S_1 held, to n_hi past two periods, and not held, on a fresh
    # context whose table cap n_hi in (1 + 2p^2, 2(1 + 2p^2)] leaves no room
    ctx, k = case
    kb, period = ctx.bullet(k), 1 + 2 * ctx.p**2
    held_n = data.draw(st.integers(2 * period + 1, 2 * period + 3 * ctx.p), label="held n_hi")
    bare_n = data.draw(st.integers(period + 1, 2 * period), label="not-held n_hi")
    radii = (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(7, 3))
    for c, n_hi, cap in ((ctx, held_n, ghost.MAX_TABLE_INDEX), (GhostContext(*ctx), bare_n, bare_n)):
        with mock.patch.object(ghost, "MAX_TABLE_INDEX", cap):
            hatted = hatted_valuation_table(c, k, n_hi)
            at = [valuation_table_at(c, k, r, n_hi)[0] for r in radii]
            levels = [level_tables(c, k, level, n_hi) for level in (1, 2, 3)]
        assert (kb % c.p in c._caches["periods"]) == (c is ctx), n_hi
        ns = range(n_hi + 1)
        assert hatted == [anchored_valuation(c, n, k) for n in ns]
        assert hatted == _value_assembly(c, kb, n_hi, lambda d: 0 if d is None else d)
        for r, nums in zip(radii, at):
            point = WeightPoint(k, r)
            assert [Fraction(x, r.denominator) for x in nums] == [
                evaluate_ghost_valuation(c, n, point).value for n in ns
            ], r
            wt = lambda d: r.numerator if d is None else min(r.numerator, d * r.denominator)
            assert nums == _value_assembly(c, kb, n_hi, wt), r
        for level, (A, B) in zip((1, 2, 3), levels):
            near = lambda d: d is not None and d <= level
            assert A == _value_assembly(c, kb, n_hi, lambda d: d if near(d) else 0), level
            assert B == _value_assembly(c, kb, n_hi, lambda d: 0 if near(d) else 1), level
            point = WeightPoint(k, level + Fraction(1, 3))
            assert [a + b * point.radius.value for a, b in zip(A, B)] == [
                evaluate_ghost_valuation(c, n, point).value for n in ns
            ], level


def _wider_windows(ctx, k, q_hi, n_min=0, stride_one=True):
    # each window of _windows, 4 times wider
    for window in _windows(ctx, k, q_hi, n_min, stride_one):
        yield _window(ctx, k, 4 * window[0], stride_one)


@given(case=context_and_weight(), radius=RADII)
@settings(max_examples=60, deadline=None)
def test_first_window_matches_a_wider_one(case, radius):
    # the first window of _windows certifies the hull on [0, q_hi], and a
    # window 4x wider shows the same hull there and moves no sweep threshold
    ctx, k = case
    trip = dimensions(ctx, k)
    q_hi = trip.d_iw - trip.d_ur
    w = WeightPoint(k, radius)
    first = next(_windows(ctx, k, q_hi, trip.d_iw))[0]
    hull = certified_newton_polygon(ctx, w, q_hi)
    assert hull.hull[-1][0] == first  # the window's end, finite and a vertex
    wide = newton_polygon_at(ctx, 4 * first, w)
    assert slope_list(hull)[:q_hi] == slope_list(wide)[:q_hi]
    ns = range(1, trip.d_new + 1)
    thresholds = _sweep(ctx, k, ns)
    with mock.patch.object(slopes, "_windows", _wider_windows):
        assert _sweep(ctx, k, ns) == thresholds


@pytest.mark.parametrize(
    "params, k",
    [((7, 2, 1), 49998), ((5, 1, 0), 49999), ((11, 6, 9, 3, "strict"), 49996)],
    ids=["7-2-1", "5-1-0", "11-6-9-m3-strict"],
)
def test_first_window_matches_a_wider_one_at_high_weight(params, k):
    # the certified hull on [0, q_hi] and the central block's sweep thresholds
    # near k = 50,000, where windows run to about 20,000 points, against the
    # same certificates on windows 4x wider; the radii give c_1 = 0 (1/2, 1),
    # a fractional c_1 (3/2) and c_1 = 1 (5/2, INF)
    ctx = GhostContext(*params)
    trip, dp = dimensions(ctx, k), derivative_polygon(ctx, k)
    q_hi = trip.d_iw - trip.d_ur
    for radius in (Fraction(1, 2), 1, Fraction(3, 2), Fraction(5, 2), INF):
        hull = certified_newton_polygon(ctx, WeightPoint(k, radius), q_hi)
        with mock.patch.object(slopes, "_windows", _wider_windows):
            wide = certified_newton_polygon(ctx, WeightPoint(k, radius), q_hi)
        assert wide.hull[-1][0] == 4 * hull.hull[-1][0]
        assert edge_runs(hull.hull, hull.den, 0, q_hi) == edge_runs(wide.hull, wide.den, 0, q_hi), radius
    h, c = trip.d_new // 2, dp.vertex_xs[dp.M_index - 1]
    ns = range(h - c + 1, h + c + 1)
    thresholds = _sweep(ctx, k, ns)
    with mock.patch.object(slopes, "_windows", _wider_windows):
        assert _sweep(ctx, k, ns) == thresholds


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
    assert dp.edges == tuple((s.numerator, s.denominator, m) for s, m in hull.slopes)
    assert tuple(dp.vertex_xs) == hull.vertex_xs()
    assert expand_runs(dp.edges) == slope_list(hull)
    cleared = [i for i, (s, _) in enumerate(hull.slopes, 1) if s > dp.m_of_k]
    assert dp.M_index == (cleared[0] if cleared else len(hull.slopes) + 1)


@pytest.mark.parametrize("mode", ["strict", "exploratory"])
@given(case=context_and_weight())
@settings(max_examples=60, deadline=None)
def test_held_arrays_match_fraction_hull(mode, case):
    # the two int64 arrays a derivative polygon holds, and everything read
    # off them, against lower_hull over the raw Fractions of the pointwise
    # oracle, in each mode
    ctx, k = case
    assume(ctx.mode == mode)
    trip, dp = dimensions(ctx, k), derivative_polygon(ctx, k)
    c = trip.d_iw // 2
    raw = tuple(anchored_valuation(ctx, c + l, k) - Fraction((k - 2) * l, 2) for l in range(trip.d_new // 2 + 1))
    hull = lower_hull(enumerate(raw))
    assert dp.ys.typecode == dp.gaps.typecode == "q"
    assert list(dp.ys) == [2 * r for r in raw]
    assert list(dp.gaps) == [x for x in range(len(raw)) if x not in hull.vertex_xs()]
    assert tuple(dp.vertex_xs) == hull.vertex_xs()
    assert tuple(map(dp.vertex, range(len(hull.hull)))) == hull.vertex_xs()
    assert dp.raw == raw
    assert dp.edges == tuple((s.numerator, s.denominator, m) for s, m in hull.slopes)
    cleared = [i for i, (s, _) in enumerate(hull.slopes, 1) if s > dp.m_of_k]
    assert dp.M_index == (cleared[0] if cleared else len(hull.slopes) + 1)


def _chain_skips(ys) -> list:
    # the abscissae that the monotone chain over the points (x, ys[x]) drops
    kept = {x for x, _ in _chain(enumerate(ys))}
    return [x for x in range(len(ys)) if x not in kept]


def _assert_gaps_are_what_chain_skips(ctx, k):
    dp = slopes._derivative_polygon(ctx, k)
    assert list(dp.gaps) == _chain_skips(dp.ys)


@pytest.mark.parametrize("mode", ["strict", "exploratory"])
@given(case=context_and_weight())
@settings(max_examples=60, deadline=None)
def test_gaps_are_the_abscissae_the_chain_skips(mode, case):
    # the gaps found from the signs of the hatted steps and the later turn
    # rounds against the monotone chain over the same ordinates, in each mode
    ctx, k = case
    assume(ctx.mode == mode)
    _assert_gaps_are_what_chain_skips(ctx, k)


@given(case=high_weight())
@example(case=(GhostContext(5, 1, 0), 49991))  # later turn rounds drop points here
@settings(max_examples=6, deadline=None)
def test_gaps_are_the_abscissae_the_chain_skips_at_high_weight(case):
    _assert_gaps_are_what_chain_skips(*case)


def _dents(ys) -> list:
    # the l in 1..h-1 where the second difference of ys is <= 0
    return [l for l in range(1, len(ys) - 1) if ys[l + 1] - 2 * ys[l] + ys[l - 1] <= 0]


@pytest.mark.parametrize(
    "ys",
    [
        # a run of five dents, and the point beside it that then turns right
        [30, 12, 13, 14, 15, 16, 17, 11, 10, 11, 30],
        # every other point a dent: the kept points between them turn right
        [50, 9, 10, 8, 9, 7, 8, 6, 7, 5, 6, 40],
        # dents at the top of a convex ramp that then falls: later rounds drop
        # the ramp a point at a time (five rounds, and three on the wider one)
        [0, 1, 3, 6, 10, 15, 15, 15, 0, 0],
        [0, 2, 5, 9, 14, 14, 14, 14, 3, 3, 4, 20],
    ],
    ids=["run", "alternate", "ramp", "ramp-wide"],
)
def test_clustered_dents_need_later_rounds(ys):
    # the dents alone leave a chain that is not convex: a later round drops more
    dents = _dents(ys)
    gaps = list(_hull_gaps(ys, dents))
    assert set(gaps) > set(dents)
    assert gaps == _chain_skips(ys)


@given(ys=st.lists(st.integers(0, 6), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_hull_gaps_match_chain_on_small_integers(ys):
    # few distinct ordinates: collinear runs (second difference 0) and
    # clustered dents, which the chain drops and the gaps must hold
    assert list(_hull_gaps(ys, _dents(ys))) == _chain_skips(ys)


def _derivative_polygon_oracle(ctx, k, hatted=hatted_valuation_table) -> DerivativePolygon:
    # the full-table build: the hatted table summed to c + h, its right half compared
    # whole with its left half plus (k - 2) l, and ys the sum of the two halves
    trip = dimensions(ctx, k)
    c, h = trip.d_iw // 2, trip.d_new // 2
    table = hatted(ctx, k, c + h)
    left = table[c - h : c + 1][::-1]
    del table[:c]
    right = list(map(add, left, count(0, k - 2)))
    if table != right:
        l = next(l for l in range(h + 1) if table[l] != right[l])
        raise VerificationError(f"anchored-valuation duality fails at k = {k}, offset {l}")
    ys = list(map(add, right, left))
    xs = [x for x, _ in _chain(zip(range(h + 1), ys))]
    gaps, m_of_k = array("q", sorted(set(range(h + 1)) - set(xs))), max_zero_distance(ctx, k)
    # the hull slopes increase: M_index is one past the edges with slopes up to M(k)
    m_index = 1 + sum(Valuation(Fraction(ys[x1] - ys[x0], 2 * (x1 - x0))) <= m_of_k for x0, x1 in zip(xs, xs[1:]))
    return DerivativePolygon(k=k, ys=array("q", ys), gaps=gaps, M_index=m_index, m_of_k=m_of_k.value)


def _assert_half_table_build_matches_oracle(ctx, k):
    dp, oracle = slopes._derivative_polygon(ctx, k), _derivative_polygon_oracle(ctx, k)
    assert dp.ys == oracle.ys and dp.raw == oracle.raw
    assert (dp.gaps, dp.M_index, dp.m_of_k) == (oracle.gaps, oracle.M_index, oracle.m_of_k)
    assert dp.edges == oracle.edges


@pytest.mark.parametrize("mode", ["strict", "exploratory"])
@given(case=context_and_weight())
@settings(max_examples=60, deadline=None)
def test_half_table_build_matches_full_table_oracle(mode, case):
    # the polygon from the steps and the left half of the hatted table
    # against the full-table build, in each mode
    ctx, k = case
    assume(ctx.mode == mode)
    _assert_half_table_build_matches_oracle(ctx, k)


@pytest.mark.parametrize(
    "params, k",
    [((7, 2, 1), 49998), ((5, 1, 0), 49999), ((11, 6, 9, 3, "strict"), 49996),
     ((7, 2, 1), 1_500_000), ((5, 1, 0), 999_999)],
    ids=["7-2-1", "5-1-0", "11-6-9-m3-strict", "7-2-1-table-cap", "5-1-0-table-cap"],
)
def test_half_table_build_matches_full_table_oracle_at_high_weight(params, k):
    # the class weights in 49996..49999, and the largest under the table cap
    # (d_iw = 500,000 and 499,998), which CI also runs under ulimit -v 200000
    ctx = GhostContext(*params)
    assert k > 49999 or list(ctx.class_members(49996, 49999)) == [k]
    _assert_half_table_build_matches_oracle(ctx, k)


@given(case=context_and_weight(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_step_duality_names_the_offset_of_the_table_check(case, data):
    # up to four hatted table entries moved at random: the check on the
    # planted table's steps fails at the same offset as the full-table
    # check, and the two builds agree when the plants keep the duality
    ctx, k = case
    trip = dimensions(ctx, k)
    c, h = trip.d_iw // 2, trip.d_new // 2
    assume(h >= 1)
    ns = st.integers(max(1, c - h), c + h)
    plants = data.draw(st.dictionaries(ns, st.integers(-3, 3).filter(bool), min_size=1, max_size=4), label="plants")
    table = hatted_valuation_table(ctx, k, c + h)
    for n, shift in plants.items():
        table[n] += shift

    def build(run):
        try:
            return run()
        except VerificationError as err:
            return str(err)

    expected = build(lambda: _derivative_polygon_oracle(ctx, k, lambda *_: list(table)))
    with mock.patch.object(slopes, "hatted_steps", lambda *_: table_steps(table)):
        assert build(lambda: slopes._derivative_polygon(ctx, k)) == expected


def _tail_certified_oracle(radius, window, q_hi, hull, den) -> bool:
    # slopes._tail_certified in Fractions: min(r, 1) and min(r, 2) - min(r, 1)
    # (1 and 1 at INF) against the line of the hull's edge at q_hi and its slope
    n, deg_n, s1, inc_floor = window
    low, c1 = (1, 1) if radius is None else (min(radius, 1), min(radius, 2) - min(radius, 1))
    y_q, sigma_q = edge_at(hull, den, q_hi)
    return low * deg_n + c1 * s1 >= y_q + sigma_q * (n - q_hi) and low * inc_floor >= sigma_q


@given(
    radius=st.one_of(st.none(), st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))),
    ys=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=12),
    den=st.integers(1, 12),
    q=st.integers(0, 10),
    past=st.integers(0, 40),
    window=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**5)),
)
@settings(max_examples=300, deadline=None)
def test_tail_certificate_matches_its_fraction_form(radius, ys, den, q, past, window):
    # the integer tail test against its Fraction form, over random hulls
    # (ordinates over den), windows past q_hi and radii, INF (None) included;
    # deg g_n and the increment floor are also set around the least values
    # that pass each test, so both meet their boundaries
    hull = integer_hull(range(len(ys)), ys, den).hull
    assume(len(hull) >= 2)
    q_hi = min(q, hull[-1][0] - 1)
    n, (deg, s1, inc) = q_hi + past, window
    low, c1 = (1, 1) if radius is None else (min(radius, 1), min(radius, 2) - min(radius, 1))
    y_q, sigma_q = edge_at(hull, den, q_hi)
    deg_0, inc_0 = math.ceil((y_q + sigma_q * (n - q_hi) - c1 * s1) / low), math.ceil(sigma_q / low)
    for case in product([n], (deg, deg_0 - 1, deg_0, deg_0 + 1), [s1], (inc, inc_0 - 1, inc_0, inc_0 + 1)):
        assert slopes._tail_certified(radius, case, q_hi, hull, den) == _tail_certified_oracle(
            radius, case, q_hi, hull, den
        ), case


@given(case=context_and_weight(), radius=RADII)
@settings(max_examples=100, deadline=None)
def test_criterion_reach_matches_fraction_bisect(case, radius):
    # the integer reach of u / v (INF as 1 / 0) against bisect over the
    # Fraction increments, at a random distance, INFINITY, and every
    # increment exactly and just below
    ctx, k = case
    dp = derivative_polygon(ctx, k)
    incs = slope_list(lower_hull(enumerate(dp.raw)))
    dists = [INF, radius if radius is INF else Valuation(radius)]
    for s in incs:
        dists += [Valuation(s), Valuation(s - Fraction(1, 1000))]
    for dist in dists:
        u, v = (1, 0) if dist.is_infinite else dist.value.as_integer_ratio()
        assert _reach(dp.ys, dp.gaps, u, v) == bisect_right(incs, dist), dist


@pytest.mark.parametrize(
    "points, dists",
    [
        (((0, 5),), (0, 1, INF)),
        # one edge, 3/2 over 3 units (the points at x = 1, 2 lie above it)
        (((0, 0), (1, 4), (2, 7), (3, 9)), (1, Fraction(3, 2), 2, INF)),
        # increments 2, 3, 3, 7/2 (the point at x = 2 lies above the hull)
        (((0, 0), (1, 4), (2, 11), (3, 16), (4, 23)), (1, 2, Fraction(5, 2), 3, Fraction(7, 2), 4, INF)),
    ],
    ids=["one-point", "one-edge", "three-edges"],
)
def test_criterion_reach_at_its_boundaries(points, dists):
    # the integer reach of u / v (INF as 1 / 0) on hand-built hulls (ordinates
    # over 2 at x = 0..h, as a derivative polygon holds them) against bisect
    # over their Fraction increments: a distance below the first increment,
    # equal to one, between two, above all, and INF
    xs, ys = zip(*points)
    hull = integer_hull(xs, ys, 2)
    incs, gaps = slope_list(hull), array("q", sorted(set(xs) - set(hull.vertex_xs())))
    for dist in (d if d is INF else Valuation(d) for d in dists):
        u, v = (1, 0) if dist.is_infinite else dist.value.as_integer_ratio()
        assert _reach(array("q", ys), gaps, u, v) == bisect_right(incs, dist), dist


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
    # (k-2)/2 at both ends of the piece, for every index of the full span;
    # the values at r are V0 (level + 1 - r) + V1 (r - level)
    ctx, k = case
    trip = dimensions(ctx, k)
    m_int = int(max_zero_distance(ctx, k).value)
    assume(trip.d_new > 0 and m_int >= 2)
    target = Fraction(k - 2, 2)
    for level in range(1, m_int):
        for r1, r2, xs, V0, V1 in _level_pieces(ctx, k, level, trip.d_ur + 1, trip.d_ur + trip.d_new, {}, set()):
            ends = [
                slope_list(lower_hull((q, V0[q] * (level + 1 - r) + V1[q] * (r - level)) for q in range(len(V0))))
                for r in (r1, r2)
            ]
            for n in range(1, trip.d_new + 1):
                x_pos = trip.d_ur + n
                locked = all(slopes[x_pos - 1] == target for slopes in ends)
                assert _locked_on(xs, V0, V1, x_pos, k) == locked, (k, level, r1, r2, n)


@given(case=context_and_weight(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_level_pieces_match_fraction_hull_on_spans(case, data):
    # on a random span lo..hi and level, the sub-chain of every piece runs
    # along the hull of a window 4x wider, over Fractions, at both ends of
    # the piece: its edge over each x_pos meets that hull at x_pos - 1 and x_pos
    ctx, k = case
    top = max(dimensions(ctx, k).d_iw, 1)
    lo = data.draw(st.integers(1, top), label="lo")
    hi = data.draw(st.integers(lo, top), label="hi")
    level = data.draw(st.integers(1, max(1, int(max_zero_distance(ctx, k).value) - 1)), label="level")
    n_wide = 4 * next(_windows(ctx, k, hi))[0]
    A, B = level_tables(ctx, k, level, n_wide)
    for r1, r2, xs, _, _ in _level_pieces(ctx, k, level, lo, hi, {}, set()):
        assert xs[0] <= lo - 1 and hi <= xs[-1], (lo, hi, xs)
        for r in (r1, r2):
            ys = [A[q] + B[q] * r for q in range(n_wide + 1)]
            hull = lower_hull(enumerate(ys))
            for x_pos in range(lo, hi + 1):
                i = bisect_right(xs, x_pos - 1) - 1
                x0, x1 = xs[i], xs[i + 1]
                for x in (x_pos - 1, x_pos):
                    on_edge = (ys[x0] * (x1 - x) + ys[x1] * (x - x0)) / (x1 - x0)
                    assert hull_value(hull, x) == Valuation(on_edge), (k, level, r, x_pos, xs)


def _assert_sweep_matches_ab_walk(ctx, k) -> int:
    # every level's pieces, their tables, the lock answer at each index of the
    # full span and the settled radii, over the full span and the central block,
    # against the A/B piece walk: levels from M(k) - 1 down, sharing one sweep's
    # held table and passed checks; returns the most pieces on one level
    trip, dp = dimensions(ctx, k), derivative_polygon(ctx, k)
    lo, hi, held, passed, most = trip.d_ur + 1, trip.d_ur + trip.d_new, {}, set(), 0
    for level in range(dp.m_of_k - 1, 0, -1) if trip.d_new else ():
        pieces = _level_pieces(ctx, k, level, lo, hi, held, passed)
        oracle = ab_level_pieces(ctx, k, level, lo, hi)
        assert [piece[:3] for piece in pieces] == [piece[:3] for piece in oracle], (k, level)
        for (*_, xs, V0, V1), (*_, A, B) in zip(pieces, oracle):
            assert (V0, V1) == tuple([a + r * b for a, b in zip(A, B)] for r in (level, level + 1)), (k, level)
            for x_pos in range(lo, hi + 1):
                assert _locked_on(xs, V0, V1, x_pos, k) == ab_locked_on(xs, A, B, x_pos, k), (k, level, x_pos)
        most = max(most, len(pieces))
    h, c = trip.d_new // 2, dp.vertex(dp.M_index - 1)
    for ns in (range(1, trip.d_new + 1), range(h - c + 1, h + c + 1)):
        if ns:
            assert _sweep(ctx, k, ns) == ab_sweep(ctx, k, ns), (k, ns)
    return most


@pytest.mark.parametrize("mode", ("strict", "exploratory"))
@given(case=context_and_weight())
@example(case=(GhostContext(5, 1, 0), 299))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_the_ab_piece_walk(mode, case):
    ctx, k = case
    assume(ctx.mode == mode)
    _assert_sweep_matches_ab_walk(ctx, k)


@pytest.mark.parametrize(
    "params, k", [((5, 1, 0), 23), ((5, 1, 1), 29), ((5, 1, 0, 2), 43), ((7, 1, 0), 93)],
    ids=["5-1-0", "5-1-1", "5-1-0-m2", "7-1-0"],
)
def test_sweep_matches_the_ab_piece_walk_where_pieces_split(params, k):
    # p = 5 (and (7,1,0)) split sweep pieces at roots inside a level, which the
    # strict contexts never do
    assert _assert_sweep_matches_ab_walk(GhostContext(*params), k) >= 2


def _assert_swept_radii_lock_on_full_tables(ctx, k):
    # each swept CS_n as check_threshold_lock reads it: newslope n is (k-2)/2
    # at CS_n + 1 and not at CS_n - 1/2 (CS_n / 2 when CS_n <= 1/2), each read
    # off the hull of one valuation table to 2 d_iw + 64, past every first
    # window, with no window walk, certificate or sweep
    trip, tv, hulls = dimensions(ctx, k), k_thresholds(ctx, k), {}
    target = Fraction(k - 2, 2)

    def newslope(n, r):
        if r not in hulls:
            hulls[r] = newton_polygon_at(ctx, 2 * trip.d_iw + 64, WeightPoint(k, r))
        return edge_at(hulls[r].hull, hulls[r].den, trip.d_ur + n - 1)[1]

    for n, cs in enumerate(tv.swept, 1 + sum(m for *_, m in tv.closed)):
        assert newslope(n, cs + 1) == target, (k, n, cs)
        assert newslope(n, cs / 2 if cs <= Fraction(1, 2) else cs - Fraction(1, 2)) != target, (k, n, cs)


@given(case=high_weight())
@settings(max_examples=6, deadline=None)
def test_swept_radii_lock_on_full_tables_at_high_weight(case):
    _assert_swept_radii_lock_on_full_tables(*case)


@pytest.mark.parametrize("params, k", [((7, 2, 1), 49998), ((5, 1, 0), 49999)], ids=["7-2-1", "5-1-0"])
def test_swept_radii_lock_on_full_tables_near_50000(params, k):
    # the pinned thresholds weights, which CI also runs under ulimit -v 200000
    _assert_swept_radii_lock_on_full_tables(GhostContext(*params), k)


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
            r = cs + t * (top - cs)
            assert expand_runs(_hull_runs(ctx, k, WeightPoint(k, r)))[n - 1] == target, (k, n, r)


@example(case=(GhostContext(11, 2, 0), 4))  # d_new = 0
@given(case=context_and_weight())
@settings(max_examples=40, deadline=None)
def test_newslope_runs_match_certified_hull(case):
    # the runs, expanded, against the certified polygon's Fraction slope list
    # at INF, at M(k), on each derivative slope, between two slopes and below
    # M(k): both the closed form and the hull path, and the region edges
    ctx, k = case
    trip = dimensions(ctx, k)
    lo, hi = trip.d_ur, trip.d_iw - trip.d_ur
    dp = derivative_polygon(ctx, k)
    m_k, ss = dp.m_of_k, [Fraction(a, b) for a, b, _ in dp.edges]
    between = [(max(s, m_k) + t) / 2 for s, t in zip([Fraction(0), *ss], ss) if t > m_k]
    radii = [INF, m_k, *ss, *((s + t) / 2 for s, t in zip(ss, ss[1:])), *between, m_k - 1, m_k / 3]
    for r in (r for r in radii if r > 0):
        w = WeightPoint(k, r)
        runs = newslope_runs(ctx, k, w)
        assert expand_runs(runs) == slope_list(certified_newton_polygon(ctx, w, hi))[lo:hi], (k, r)
        assert all(b > 0 and m > 0 and math.gcd(a, b) == 1 for a, b, m in runs), (k, r)
        assert all(a * d < c * b for (a, b, _), (c, d, _) in zip(runs, runs[1:])), (k, r)


@example(case=(GhostContext(7, 2, 1), 24))
@example(case=(GhostContext(11, 2, 0), 4))  # no derivative slope
@given(case=context_and_weight())
@settings(max_examples=60, deadline=None)
def test_closed_form_region_membership(case):
    # the closed form declines (None) exactly below M(k); probed at INF,
    # M(k), every s_j, the midpoints between them, above the top and below M(k)
    ctx, k = case
    dp = derivative_polygon(ctx, k)
    m_k, ss = dp.m_of_k, [Fraction(a, b) for a, b, _ in dp.edges]
    marks = sorted({m_k, *ss})
    mids = [(s + t) / 2 for s, t in zip(marks, marks[1:])]
    radii = [*marks, *mids, marks[-1] + 1, m_k - 1, m_k / 3, m_k * 2 / 3]
    for r in [INF, *(r for r in radii if r > 0)]:
        declines = r is not INF and r < m_k
        assert (_closed_form_runs(ctx, k, WeightPoint(k, r)) is None) == declines, (k, r)


@example(case=(GhostContext(7, 2, 1), 24))
@example(case=(GhostContext(11, 2, 0), 4))  # no derivative slope
@example(case=(GhostContext(11, 2, 4), 2))  # M(k) = 0
@given(case=context_and_weight())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_hull_at_region_edges(case):
    # the closed form at the ends of its open intervals, M(k) and every
    # s_j >= M(k), where it holds by continuity, against the certified hull;
    # the hull is certified at positive radii only, so a zero M(k) is skipped
    ctx, k = case
    dp = derivative_polygon(ctx, k)
    m_k = dp.m_of_k
    edges = [m_k, *(Fraction(a, b) for a, b, _ in dp.edges if Fraction(a, b) >= m_k)]
    for r in (r for r in edges if r > 0):
        w = WeightPoint(k, r)
        assert _closed_form_runs(ctx, k, w) == _hull_runs(ctx, k, w), (k, r)


@given(case=high_weight(), data=st.data())
@settings(max_examples=8, deadline=None)
def test_closed_form_matches_hull_at_region_edges_at_high_weight(case, data):
    # the same oracle at weights up to 50,000: M(k), s_M, s_N and two drawn
    # closed s_j, each a region edge where the closed form holds by continuity
    ctx, k = case
    dp = derivative_polygon(ctx, k)
    closed = [Fraction(a, b) for a, b, _ in dp.edges[dp.M_index - 1 :]]
    edges = [dp.m_of_k]
    if closed:
        edges += [closed[0], closed[-1], *(data.draw(st.sampled_from(closed)) for _ in range(2))]
    for r in (r for r in edges if r > 0):
        w = WeightPoint(k, r)
        assert _closed_form_runs(ctx, k, w) == _hull_runs(ctx, k, w), (k, r)


# -- the sweep against a perturbed hull -------------------------------------------
#
# A radius r0 + s*eps (s = +1 or -1, eps -> 0+) is handled by symbolic
# perturbation (Edelsbrunner & Muecke, ACM TOG 9(1), 1990): v_p(g_n) is
# linear in r on the unit level holding the radius, so its value there
# is the pair (v(r0), s * dv/dr), compared lexicographically.  Every hull
# test is linear in the ordinates, so the hull on pairs is the hull at
# r0 + s*eps for every small enough eps.


def _pair_chain(ys):
    # lower monotone chain of the points (n, ys[n]) with pair ordinates;
    # a middle point stays only on a strict left turn
    stack = []
    for x, y in enumerate(ys):
        while len(stack) >= 2:
            (x1, y1), (x2, y2) = stack[-2], stack[-1]
            lhs = tuple((b - a) * (x - x2) for a, b in zip(y1, y2))
            rhs = tuple((c - b) * (x2 - x1) for b, c in zip(y2, y))
            if lhs < rhs:
                break
            stack.pop()
        stack.append((x, y))
    return stack


def _pair_edge(hull, x):
    # (left vertex, slope pair) of the hull edge [x0, x1] with x0 <= x < x1
    i = max(j for j, (x0, _) in enumerate(hull[:-1]) if x0 <= x)
    (x0, y0), (x1, y1) = hull[i], hull[i + 1]
    return (x0, y0), tuple((b - a) / (x1 - x0) for a, b in zip(y0, y1))


def _perturbed_newslopes(ctx, k, r0, s):
    """Newslopes 1..d_new at radius r0 + s*eps as (value, rate) pairs, from
    valuation tables at the two ends of the level and a certified window."""
    trip = dimensions(ctx, k)
    q_hi = trip.d_iw - trip.d_ur
    lo = math.floor(r0) if s > 0 else math.ceil(r0) - 1
    rfac = min((Fraction(r0), s), (1, 0))  # min(r, 1) in the tail bound
    n_window = max(q_hi + 8, trip.d_iw)
    for _ in range(20):
        (a, da), (b, db) = (valuation_table_at(ctx, k, r, n_window) for r in (lo, lo + 1))
        ys = []
        for n in range(n_window + 1):
            va, vb = Fraction(a[n], da), Fraction(b[n], db)
            ys.append((va + (r0 - lo) * (vb - va), s * (vb - va)))
        hull = _pair_chain(ys)
        # every omitted point lies above the supporting line at q_hi
        (x0, y0), sigma = _pair_edge(hull, q_hi)
        line = tuple(y + m * (n_window - x0) for y, m in zip(y0, sigma))
        _, deg, _, floor = _window(ctx, k, n_window, False)
        if tuple(f * deg for f in rfac) >= line and tuple(f * floor for f in rfac) >= sigma:
            return [_pair_edge(hull, trip.d_ur + n - 1)[1] for n in range(1, trip.d_new + 1)]
        n_window *= 2
    raise AssertionError(f"no certified window for k = {k} at {r0} {s:+d} eps")


# k = 24 has a threshold 1 (an index locked on every piece); at k = 34 on
# (7,2,0) an outer index meets a piece whose edge has the A-difference of
# a lock but a nonzero B-difference
@example(case=(GhostContext(7, 2, 1), 24))
@example(case=(GhostContext(7, 2, 0), 34))
@given(case=context_and_weight())
@settings(max_examples=40, deadline=None)
def test_sweep_thresholds_match_perturbed_hull(case):
    # each "sweep" threshold c of k_thresholds, and sweep_threshold of every
    # other index: newslope n is (k-2)/2 just above c and just below every
    # integer t in (c, M(k)], and not just below c when c > 1
    ctx, k = case
    tv = k_thresholds(ctx, k)
    m_int = int(max_zero_distance(ctx, k).value)
    locked = (Fraction(k - 2, 2), 0)
    seen = {}

    def newslope(n, r0, s):
        if (r0, s) not in seen:
            seen[r0, s] = _perturbed_newslopes(ctx, k, r0, s)
        return seen[r0, s][n - 1]

    for n, (cs, prov) in enumerate(zip(tv.local_thresholds, tv.provenance), 1):
        c = cs if prov == "sweep" else sweep_threshold(ctx, k, n).value
        probes = [(t, -1) for t in range(math.floor(c) + 1, m_int + 1)]
        if c < m_int:
            probes.append((c, 1))
        for r0, s in probes:
            assert newslope(n, r0, s) == locked, (k, n, c, r0, s)
        if c > 1:
            assert newslope(n, c, -1) != locked, (k, n, c)


# odd a gives first hull increments of exactly 3/2, met by radius 3/2
@example(case=(GhostContext(7, 1, 0), 39), radius=Fraction(3, 2), eighths=8)
@example(case=(GhostContext(5, 1, 0), 7), radius=Fraction(3, 2), eighths=8)
# a center past the prefix [0, 2] still marks index 2
@example(case=(GhostContext(5, 1, 0), 11), radius=Fraction(5), eighths=3)
@given(case=context_and_weight(), radius=RADII, eighths=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_criterion_matches_unpruned_walk(case, radius, eighths):
    # over the full span and over a prefix of it
    ctx, k = case
    w = WeightPoint(k, radius)
    d_iw = dimensions(ctx, k).d_iw
    walk = {0} | {
        n
        for n in range(1, d_iw + 1)
        if not any(
            is_near_steinberg(ctx, n, w, ctx.weight_of_bullet(j))
            for j in range(_bullet_bound(ctx, n))
        )
    }
    assert breakpoints_by_criterion(ctx, w, d_iw) == walk
    n_range = d_iw * eighths // 8
    assert breakpoints_by_criterion(ctx, w, n_range) == {n for n in walk if n <= n_range}


@given(
    case=context_and_weight(),
    radius=st.one_of(st.just(INF), st.builds(Fraction, st.integers(1, 40), st.integers(1, 9))),
)
@settings(max_examples=150, deadline=None)
def test_criterion_matches_certified_hull(case, radius):
    ctx, k = case
    checks.check_criterion_matches_hull(ctx, WeightPoint(k, radius))


@given(case=context_and_weight())
@example(case=(GhostContext(11, 6, 9, 3, "strict"), 36))
@example(case=(GhostContext(13, 5, 11), 41))
@settings(max_examples=60, deadline=None)
def test_model_L_matches_fraction_accumulation(case):
    # the known blocks read off the closed runs, and L read off them and R,
    # against the Fraction slopes and L accumulated step by step in Fractions
    ctx, k = case
    model = build_model(ctx, k)
    known, seq = _oracle_model(ctx, k)
    assert tuple((Fraction(a, b), 2 * model.global_mult * mult) for a, b, mult in reversed(model.closed)) == known
    assert model.L_seq == seq
    assert len(seq) == model.d


@given(case=context_and_weight())
@example(case=(GhostContext(7, 2, 1), 24))
@example(case=(GhostContext(5, 1, 0), 299))
@example(case=(GhostContext(11, 6, 9, 3, "strict"), 36))
@example(case=(GhostContext(13, 5, 11), 41))
@example(case=(GhostContext(7, 2, 1, 2), 90))
@settings(max_examples=100, deadline=None)
def test_model_radius_matches_window_midpoint(case):
    # the closed form against the two-step definition: the midpoint of the
    # test radius r_M, read off the window max(M(k), s_{M-1}) .. s_M, and
    # min(M(k) + 1, s_M); M(k) + 1/2 when no slope clears M(k)
    ctx, k = case
    dp = derivative_polygon(ctx, k)
    m_k, ss = dp.m_of_k, [Fraction(a, b) for a, b, _ in dp.edges]
    if dp.M_index > len(ss):
        assert model_radius(ctx, k) == m_k + Fraction(1, 2)
        return
    s_m = ss[dp.M_index - 1]
    lo = max(m_k, ss[dp.M_index - 2] if dp.M_index >= 2 else Fraction(0))
    r_m = lo + min(Fraction(1), s_m - lo) / 2
    assert model_radius(ctx, k) == (r_m + min(m_k + 1, s_m)) / 2


# -- thresholds, the L model, the prediction and the samples against their Fraction path


def _oracle_thresholds(ctx, k):
    """Local thresholds and provenance, each threshold a Fraction slope, index by index."""
    dp = derivative_polygon(ctx, k)
    h = dimensions(ctx, k).d_new // 2
    ss, ns = [s for s, _ in dp.slopes], dp.vertex_xs
    local, prov = [None] * (2 * h + 1), [None] * (2 * h + 1)
    for j in range(dp.M_index, len(ss) + 1):
        for n in (*range(h - ns[j] + 1, h - ns[j - 1] + 1), *range(h + ns[j - 1] + 1, h + ns[j] + 1)):
            local[n], prov[n] = ss[j - 1], "closed"
    block = range(h - ns[dp.M_index - 1] + 1, h + ns[dp.M_index - 1] + 1)
    for n, cs in zip(block, _sweep(ctx, k, block)):
        local[n], prov[n] = cs, "sweep"
    return tuple(local[1:]), tuple(prov[1:])


def _oracle_model(ctx, k):
    """The known blocks (s_l, width) for l = N down to M_index, and L_1..L_d
    accumulated step by step in Fractions: by s_l for l >= M_index, R below."""
    dp = derivative_polygon(ctx, k)
    R = model_radius(ctx, k)
    r_list = tuple(s if l >= dp.M_index else R for l, (s, _) in enumerate(dp.slopes, 1))
    seq, acc = [], Fraction(0)
    for l in range(len(r_list), 0, -1):
        for _ in range(2 * ctx.global_mult * dp.slopes[l - 1][1]):
            acc += r_list[l - 1]
            seq.append(acc)
    known = tuple((s, 2 * ctx.global_mult * m) for s, m in dp.slopes[dp.M_index - 1 :])[::-1]
    return known, tuple(seq)


def _oracle_prediction(ctx, k):
    """(linv known, linv floor, exceptional count), read off the Fraction
    slopes s_N..s_M and the model radius R."""
    dp = derivative_polygon(ctx, k)
    R = model_radius(ctx, k)
    known = [(s, 2 * ctx.global_mult * m) for s, m in dp.slopes[dp.M_index - 1 :]][::-1]
    return (
        tuple((-s - 1, m) for s, m in known),
        Valuation(-R - 1),
        2 * ctx.global_mult * sum(m for _, m in dp.slopes[: dp.M_index - 1]),
    )


def _oracle_sample(ctx, k, kind):
    """The sample's values, ascending, built from (Fraction value, multiplicity) pairs."""
    if kind is SampleKind.THRESHOLD:
        local, _ = _oracle_thresholds(ctx, k)
        raw = [(cs, ctx.global_mult) for cs in local]
    elif kind is SampleKind.DERIVATIVE:
        raw = [(s, 2 * m) for s, m in derivative_polygon(ctx, k).slopes]
    else:
        raw = [(-v, m) for v, m in _oracle_prediction(ctx, k)[0]]
    norm = Fraction(2 * (ctx.p + 1), (ctx.p - 1) * k)
    return tuple(sorted(norm * v for v, m in raw for _ in range(m)))


def _expanded_thresholds(ctx, k):
    """Threshold n as nums[n - 1] / den over the lcm den of every threshold's
    denominator, with a provenance tag per index: each closed edge expanded to
    its multiplicity and mirrored, around the swept block."""
    dp = derivative_polygon(ctx, k)
    h, c = dimensions(ctx, k).d_new // 2, dp.vertex_xs[dp.M_index - 1]
    swept = _sweep(ctx, k, range(h - c + 1, h + c + 1))
    closed = dp.edges[dp.M_index - 1 :]
    den = math.lcm(*{b for _, b, _ in closed}, *{r.denominator for r in swept})
    right = [a * (den // b) for a, b, m in closed for _ in range(m)]
    central = [r.numerator * (den // r.denominator) for r in swept]
    prov = ("closed",) * len(right)
    return (*right[::-1], *central, *right), den, (*prov, *("sweep",) * (2 * c), *prov)


def _expanded_sample(ctx, k, kind):
    """The values' numerators, one per value and sorted, over one
    denominator: thresholds read from :func:`_expanded_thresholds`."""
    if kind is SampleKind.THRESHOLD:
        nums, lcd, _ = _expanded_thresholds(ctx, k)
        raw = [(a, ctx.global_mult) for a in nums]
    elif kind is SampleKind.DERIVATIVE:
        edges = derivative_polygon(ctx, k).edges
        lcd = math.lcm(*{b for _, b, _ in edges})
        raw = [(a * (lcd // b), 2 * mult) for a, b, mult in edges]
    else:
        linv = _oracle_prediction(ctx, k)[0]
        lcd = math.lcm(*{v.denominator for v, _ in linv})
        raw = [(int(-v * lcd), mult) for v, mult in linv]
    nums = sorted(2 * (ctx.p + 1) * a for a, mult in raw for _ in range(mult))
    return nums, (ctx.p - 1) * k * lcd


def _sorted_moments(nums, den, n_max):
    """Power means of orders 1..n_max over sorted numerators, one power per value."""
    if not nums:
        raise DomainError("no values to average")
    sums, powers = [sum(nums)], nums
    for _ in range(n_max - 1):
        powers = [a * b for a, b in zip(powers, nums)]
        sums.append(sum(powers))
    return tuple(Fraction(s, len(nums) * den**n) for n, s in enumerate(sums, 1))


def _sorted_discrepancy(nums, den):
    """The Kolmogorov distance from uniform, one t = a m - i den per sorted numerator."""
    if not nums:
        raise DomainError("empty sample has no distribution")
    m = len(nums)
    ts = [a * m - i * den for i, a in enumerate(nums)]
    return Fraction(max(0, max(ts), den - min(ts)), m * den)


@given(case=context_and_weight())
@example(case=(GhostContext(5, 1, 0), 383))  # half-integer slopes and a floor over 8
@example(case=(GhostContext(13, 5, 11, 2), 293))
@example(case=(GhostContext(11, 2, 0), 4))  # d_new = 0
@settings(max_examples=80, deadline=None)
def test_runs_match_expanded_oracles(case):
    # thresholds and samples held as runs against the same values expanded
    # one per index and sorted: threshold text, moments and discrepancy
    ctx, k = case
    tv = k_thresholds(ctx, k)
    nums, den, prov = _expanded_thresholds(ctx, k)
    assert tv.local_thresholds == tuple(Fraction(a, den) for a in nums)
    assert tv.provenance == prov
    assert tv.to_json_dict() == {
        "k": k,
        "local": [ratio_text(a, den) for a in nums],
        "provenance": list(prov),
        "global_mult": ctx.global_mult,
    }
    for kind in SampleKind:
        s = sample(ctx, k, kind)
        nums, den = _expanded_sample(ctx, k, kind)
        assert s.den == den and list(chain.from_iterable(map(repeat, s.nums, s.mults))) == nums, kind
        assert s.values == tuple(Fraction(a, den) for a in nums)
        if not nums:
            for stat in (lambda: s.moments(3), lambda: discrepancy(s)):
                with pytest.raises(DomainError):
                    stat()
            continue
        assert s.moments(3) == _sorted_moments(nums, den, 3), kind
        assert discrepancy(s) == _sorted_discrepancy(nums, den), kind


@given(case=context_and_weight())
@settings(max_examples=80, deadline=None)
def test_swept_thresholds_lie_below_closed_ones(case):
    # a THRESHOLD sample concatenates the sorted swept radii and the closed
    # edges with no sort: every swept radius is at most max(1, M(k)), and
    # every closed one exceeds M(k)
    ctx, k = case
    tv = k_thresholds(ctx, k)
    top = max(1, max_zero_distance(ctx, k).value)
    assert all(r <= top for r in tv.swept)
    assert all(Fraction(a, b) > max_zero_distance(ctx, k).value for a, b, _ in tv.closed)
    if tv.swept and tv.closed:
        assert max(tv.swept) < Fraction(*tv.closed[0][:2])


@given(case=context_and_weight())
@example(case=(GhostContext(5, 1, 0), 383))  # half-integer slopes and a floor over 8
@example(case=(GhostContext(13, 5, 11, 2), 293))
@settings(max_examples=80, deadline=None)
def test_integer_paths_match_fraction_oracle(case):
    # thresholds, the L model, the prediction and every sample kind, held on
    # integers, against the same values built from Fraction slopes
    ctx, k = case
    tv = k_thresholds(ctx, k)
    local, prov = _oracle_thresholds(ctx, k)
    assert (tv.local_thresholds, tv.provenance) == (local, prov)
    assert tv.to_json_dict()["local"] == [str(v) for v in local]
    model = build_model(ctx, k)
    known = tuple((Fraction(a, b), 2 * model.global_mult * mult) for a, b, mult in reversed(model.closed))
    assert (known, model.L_seq) == _oracle_model(ctx, k)
    pred = predict_slopes(ctx, k)
    assert (pred.linv_slopes_known, pred.linv_floor, pred.exceptional_count) == _oracle_prediction(ctx, k)
    assert pred.to_json_dict()["linv_known"] == [[str(v), m] for v, m in _oracle_prediction(ctx, k)[0]]
    for kind in SampleKind:
        s = sample(ctx, k, kind)
        assert s.values == _oracle_sample(ctx, k, kind), kind


# -- sample statistics against their Fraction definitions --------------------


def _oracle_moment(vals, n):
    if not vals:
        raise DomainError("no values to average")
    return Fraction(sum(v**n for v in vals), len(vals))


def _oracle_discrepancy(vals):
    if not vals:
        raise DomainError("empty sample has no distribution")
    m = len(vals)
    best = Fraction(0)
    for i, v in enumerate(vals, 1):
        best = max(best, v - Fraction(i - 1, m), Fraction(i, m) - v)
    return best


def _oracle_csv_rows(k, kind, vals, n_max):
    for n in range(1, n_max + 1):
        mo = _oracle_moment(vals, n)
        target = Fraction(1, n + 1)
        err = float(abs(mo - target))
        yield (
            f"{k},{kind},{n},{mo.numerator},{mo.denominator},"
            f"{target.numerator},{target.denominator},{err:.12g}"
        )


@st.composite
def integer_samples(draw):
    """A sample of ascending runs over a random denominator, neighbouring runs
    tied or not."""
    den = draw(st.integers(1, 60))
    nums = draw(st.lists(st.integers(-den, 3 * den), max_size=25))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(nums), max_size=len(nums)))
    return DistributionSample(
        k=24,
        kind=draw(st.sampled_from(SampleKind)),
        nums=tuple(sorted(nums)),
        mults=tuple(mults),
        den=den,
    )


@given(s=integer_samples())
@settings(max_examples=200, deadline=None)
def test_sample_statistics_match_fraction_oracles(s):
    expanded = [a for a, mult in zip(s.nums, s.mults) for _ in range(mult)]
    values = tuple(sorted(Fraction(a, s.den) for a in expanded))
    assert s.values == values == tuple(Fraction(a, s.den) for a in expanded)
    if not values:
        for stat in (lambda: s.moments(1), lambda: discrepancy(s)):
            with pytest.raises(DomainError):
                stat()
        return
    assert s.moments(4) == tuple(_oracle_moment(values, n) for n in range(1, 5))
    assert [s.moments(n)[-1] for n in (1, 3)] == [_oracle_moment(values, n) for n in (1, 3)]
    assert discrepancy(s) == _oracle_discrepancy(values)
    rows = weyl_csv([(s.k, s.kind, s.moments(4))]).splitlines()[1:]
    assert rows == list(_oracle_csv_rows(s.k, s.kind.value, values, 4))
