"""Derivative polygons, near-Steinberg breakpoints, newslopes, thresholds."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghost_slopes import (
    INF,
    DomainError,
    GhostContext,
    VerificationError,
    Valuation,
    WeightPoint,
    breakpoints_by_criterion,
    certified_newton_polygon,
    derivative_polygon,
    dimensions,
    is_near_steinberg,
    k_newslopes,
    k_thresholds,
    lower_hull,
    newton_polygon_at,
    predict_slopes,
    sweep_threshold,
)
from ghost_slopes import checks, ghost, slopes
from ghost_slopes.distribution import SampleKind, sample
from ghost_slopes.ghost import _bullet_bound
from ghost_slopes.slopes import DerivativePolygon, ThresholdVector, _closed_form_runs, _hull_runs
from strategies import ab_piece_violation, context_and_weight, expand_runs, hull_value, planted_steps, slope_list


@pytest.fixture(scope="module")
def ctx():
    return GhostContext(p=7, a=2, s_eps=1)


@pytest.fixture(scope="module")
def wrap_ctx():
    # wraparound branch: a + s_eps >= p - 1, and delta_eps = 1
    return GhostContext(p=11, a=6, s_eps=9)


def _full_scan_witnesses(ctx, n, w, lo_k=None, hi_k=None):
    """Every witness weight, by unpruned scan over every bullet below the bound."""
    out = []
    for j in range(_bullet_bound(ctx, n)):
        k2 = ctx.weight_of_bullet(j)
        if lo_k is not None and k2 <= lo_k:
            continue
        if hi_k is not None and k2 >= hi_k:
            continue
        if is_near_steinberg(ctx, n, w, k2):
            out.append(k2)
    return out


# -- derivative polygons ------------------------------------------------------


def test_derivative_polygon_frozen_k24(ctx):
    dp = derivative_polygon(ctx, 24)
    assert dp.raw == (Fraction(17), Fraction(19), Fraction(25), Fraction(34))
    assert dp.slopes == ((Fraction(2), 1), (Fraction(6), 1), (Fraction(9), 1))
    assert tuple(dp.vertex_xs) == (0, 1, 2, 3)
    assert (list(dp.ys), list(dp.gaps), list(dp.vertex_xs)) == ([34, 38, 50, 68], [], [0, 1, 2, 3])
    assert dp.M_index == 2
    assert type(dp.m_of_k) is int and dp.m_of_k == 2
    assert dp.k == 24


def test_derivative_polygon_wraparound_frozen(wrap_ctx):
    dp = derivative_polygon(wrap_ctx, 276)
    assert dp.raw[:4] == (
        Fraction(1835),
        Fraction(1837),
        Fraction(1847),
        Fraction(1859),
    )
    assert [s for s, _ in dp.slopes[:3]] == [Fraction(2), Fraction(10), Fraction(12)]
    assert dp.slopes[-1] == (Fraction(112), 2)
    assert dp.vertex_xs[-1] == dimensions(wrap_ctx, 276).d_new // 2
    assert dp.M_index == 2
    assert dp.m_of_k == 3


def test_derivative_polygon_empty_when_no_newforms():
    ctx = GhostContext(p=11, a=2, s_eps=0)
    assert dimensions(ctx, 4).d_new == 0
    dp = derivative_polygon(ctx, 4)
    assert dp.slopes == ()
    assert tuple(dp.vertex_xs) == (0,)
    assert dp.edges == () and len(dp.ys) == 1


@pytest.mark.parametrize("side", (1, -1), ids=("right", "left"))
def test_duality_checked_at_every_offset(monkeypatch, side):
    # the duality runs on the table's steps: one table entry off by one at
    # offset l on either side of the centre fails, named at l, for l = 1, h/2 and h
    k = 444
    trip = dimensions(GhostContext(p=7, a=2, s_eps=1), k)
    c, h = trip.d_iw // 2, trip.d_new // 2
    for l in (1, h // 2, h):
        planted = planted_steps(lambda table: [v + (i == c + side * l) for i, v in enumerate(table)])
        monkeypatch.setattr(slopes, "hatted_steps", planted)
        with pytest.raises(VerificationError, match=f"k = {k}, offset {l}$"):
            slopes._derivative_polygon(GhostContext(p=7, a=2, s_eps=1), k)


def test_derivative_polygon_cached(ctx):
    assert derivative_polygon(ctx, 24) is derivative_polygon(ctx, 24)


def test_last_breakpoint_is_half_dnew(ctx):
    for k in ctx.class_members(3, 400):
        dp = derivative_polygon(ctx, k)
        assert dp.vertex_xs[0] == 0
        assert dp.vertex_xs[-1] == dimensions(ctx, k).d_new // 2


@pytest.mark.parametrize(
    "p,a,s",
    [(7, 2, 1), (11, 6, 9), (11, 3, 0)],
)
def test_raw_increment_lower_bound(p, a, s):
    # every raw increment is at least 3/2 + (p-1)(l-1)/2
    ctx = GhostContext(p=p, a=a, s_eps=s)
    for k in ctx.class_members(3, 900):
        checks.check_raw_increments(ctx, k)


@pytest.mark.parametrize(
    "p,a,s",
    [(7, 2, 1), (11, 6, 9), (11, 3, 0)],
)
def test_hull_increment_lower_bound(p, a, s):
    # the criterion's reach bound: hull slope over [l, l+1] >= 3/2 + (p-1) l / 4
    ctx = GhostContext(p=p, a=a, s_eps=s)
    for k in ctx.class_members(3, 900):
        dp = derivative_polygon(ctx, k)
        for l, inc in enumerate(slope_list(lower_hull(enumerate(dp.raw)))):
            assert inc >= Fraction(3, 2) + Fraction((p - 1) * l, 4), (k, l)


def test_raw_minus_hull_log_square_bound(ctx):
    # for p >= 7: raw value exceeds hull value by at most 3 (log_p l)^2
    import math

    for k in ctx.class_members(3, 1200):
        dp = derivative_polygon(ctx, k)
        hull = lower_hull(enumerate(dp.raw))
        for l in range(1, len(dp.raw)):
            gap = dp.raw[l] - hull_value(hull, l).value
            assert gap <= 3 * math.log(l, 7) ** 2 + 1e-12, (k, l, gap)


def test_raw_equals_hull_below_2p_except_p(ctx):
    p = ctx.p
    for k in ctx.class_members(3, 1500):
        dp = derivative_polygon(ctx, k)
        hull = lower_hull(enumerate(dp.raw))
        for l in range(1, min(len(dp.raw), 2 * p)):
            gap = dp.raw[l] - hull_value(hull, l).value
            if l == p:
                assert gap <= 1, (k, l)
            else:
                assert gap == 0, (k, l)


@pytest.mark.parametrize(
    "p,a,s",
    [(7, 2, 1), (11, 6, 9), (11, 3, 0)],
)
def test_slope_integrality_classes(p, a, s):
    # multiplicity-one slopes lie in a/2 + Z; all other slopes have even
    # multiplicity and are integers
    ctx = GhostContext(p=p, a=a, s_eps=s)
    for k in ctx.class_members(3, 1600):
        checks.check_slope_integrality(ctx, k)


# -- near-Steinberg -----------------------------------------------------------


def test_near_steinberg_frozen_examples(ctx):
    w7 = WeightPoint(24, 7)
    assert is_near_steinberg(ctx, 4, w7, 24) is True
    assert is_near_steinberg(ctx, 1, w7, 24) is False  # n <= d_ur
    assert is_near_steinberg(ctx, 7, w7, 24) is False  # n >= d_iw - d_ur
    # central index needs only the first hull increment s_1 = 2
    assert is_near_steinberg(ctx, 4, WeightPoint(24, 2), 24) is True
    assert is_near_steinberg(ctx, 4, WeightPoint(24, Fraction(3, 2)), 24) is False
    # offset 1 needs the second increment s_2 = 6
    assert is_near_steinberg(ctx, 3, WeightPoint(24, 6), 24) is True
    assert is_near_steinberg(ctx, 3, WeightPoint(24, 4), 24) is False
    assert is_near_steinberg(ctx, 5, WeightPoint(24, 6), 24) is True


def test_near_steinberg_central_index_infinite_radius(ctx):
    for k in (24, 48, 174):
        trip = dimensions(ctx, k)
        assert is_near_steinberg(ctx, trip.d_iw // 2, WeightPoint(k, INF), k)


def test_near_steinberg_rejects_foreign_weight(ctx):
    with pytest.raises(DomainError):
        is_near_steinberg(ctx, 4, WeightPoint(24, 7), 25)


def test_triple_equivalence(ctx):
    # (l, raw[l]) is a hull vertex  <=>  no witness below k at c - l
    #                               <=>  no witness above k at c + l
    for k in (24, 90, 174, 366):
        dp = derivative_polygon(ctx, k)
        trip = dimensions(ctx, k)
        c, h = trip.d_iw // 2, trip.d_new // 2
        w_k = WeightPoint(k, INF)
        vx = set(dp.vertex_xs)
        for l in range(h):
            below = _full_scan_witnesses(ctx, c - l, w_k, hi_k=k)
            above = _full_scan_witnesses(ctx, c + l, w_k, lo_k=k)
            assert (l in vx) == (not below), (k, l, below)
            assert (l in vx) == (not above), (k, l, above)


def test_triple_equivalence_wraparound(wrap_ctx):
    k = 276
    dp = derivative_polygon(wrap_ctx, k)
    trip = dimensions(wrap_ctx, k)
    c, h = trip.d_iw // 2, trip.d_new // 2
    w_k = WeightPoint(k, INF)
    vx = set(dp.vertex_xs)
    for l in range(h):
        below = _full_scan_witnesses(wrap_ctx, c - l, w_k, hi_k=k)
        above = _full_scan_witnesses(wrap_ctx, c + l, w_k, lo_k=k)
        assert (l in vx) == (not below), (k, l)
        assert (l in vx) == (not above), (k, l)


# -- breakpoints by criterion --------------------------------------------------


def test_breakpoints_match_hull_vertices(ctx):
    for k, r in [(24, 7), (24, Fraction(1, 2)), (48, 2), (174, Fraction(5, 2)), (174, INF)]:
        checks.check_criterion_matches_hull(ctx, WeightPoint(k, r))


def test_breakpoints_match_hull_vertices_wraparound(wrap_ctx):
    for k, r in [(276, Fraction(5, 2)), (276, 1), (56, 3), (496, INF)]:
        checks.check_criterion_matches_hull(wrap_ctx, WeightPoint(k, r))


def test_pruned_witness_agrees_with_full_scan(ctx):
    for k, r in [(24, 7), (90, 2), (174, Fraction(3, 2)), (366, INF)]:
        w = WeightPoint(k, r)
        d_iw = dimensions(ctx, k).d_iw
        full = {n for n in range(1, d_iw + 1) if not _full_scan_witnesses(ctx, n, w)}
        assert breakpoints_by_criterion(ctx, w, d_iw) == {0} | full, (k, r)


@pytest.mark.parametrize("k", (511, 531, 571))
def test_criterion_prefix_marked_by_centres_past_it(k):
    # every prefix of the span reads the full answer cut to it: a walk that
    # stops at the last centre in the prefix returns 252 at k = 511 with
    # n_range = 252, which bullet 252 (centre 253, dist 4) marks; short
    # prefixes also put the bullet bound below the anchor's bullet
    ctx = GhostContext(p=5, a=1, s_eps=0)
    w, d_iw = WeightPoint(k, INF), dimensions(ctx, k).d_iw
    full = breakpoints_by_criterion(ctx, w, d_iw)
    for n_range in range(d_iw + 1):
        assert breakpoints_by_criterion(ctx, w, n_range) == {x for x in full if x <= n_range}, n_range


def test_dimension_edges_are_breakpoints_at_exact_weight(ctx):
    # at w = w_k the old-form boundary indices survive as breakpoints
    for k in (24, 48, 174):
        trip = dimensions(ctx, k)
        bp = breakpoints_by_criterion(ctx, WeightPoint(k, INF), trip.d_iw)
        assert 0 in bp
        assert trip.d_ur in bp
        assert trip.d_iw - trip.d_ur in bp


# -- k-newslopes --------------------------------------------------------------


NEWSLOPE_TABLES_24 = {
    Fraction(5, 2): [
        Fraction(9, 2),
        Fraction(15, 2),
        Fraction(11),
        Fraction(11),
        Fraction(29, 2),
        Fraction(35, 2),
    ],
    Fraction(4): [6, 9, 11, 11, 13, 16],
    Fraction(7): [9, 11, 11, 11, 11, 13],
    Fraction(10): [11, 11, 11, 11, 11, 11],
}


@pytest.mark.parametrize("nu", sorted(NEWSLOPE_TABLES_24))
def test_newslopes_frozen_tables(ctx, nu):
    expect = [Fraction(s) for s in NEWSLOPE_TABLES_24[nu]]
    w = WeightPoint(24, nu)
    assert k_newslopes(ctx, 24, w) == expect
    for route in (_closed_form_runs, _hull_runs):
        assert expand_runs(route(ctx, 24, w)) == expect


def test_newslopes_infinite_radius_all_central(ctx):
    assert k_newslopes(ctx, 24, WeightPoint(24, INF)) == [Fraction(11)] * 6


def test_newslopes_small_radius_scales_degrees(ctx):
    # below radius 1 the polygon is radius * (degree hull)
    nu = Fraction(1, 2)
    got = k_newslopes(ctx, 24, WeightPoint(24, nu))
    assert got == [nu * c for c in (3, 6, 9, 11, 14, 16)]


def test_newslopes_mid_region_table(ctx):
    # radius 3/2: slopes (4-h, 7-h, 11-2h, 11, 15-h, 18-2h) with h = 1/2
    eta = Fraction(1, 2)
    got = k_newslopes(ctx, 24, WeightPoint(24, Fraction(3, 2)))
    want = [4 - eta, 7 - eta, 11 - 2 * eta, Fraction(11), 15 - eta, 18 - 2 * eta]
    assert got == [Fraction(x) for x in want]


def test_newslopes_full_polygon_rows(ctx):
    # the full 8-slope rows including the old-form edges 1 and 22
    w = WeightPoint(24, Fraction(1, 2))
    hull = certified_newton_polygon(ctx, w, 8)
    nu = Fraction(1, 2)
    assert slope_list(hull)[:8] == [nu * c for c in (1, 3, 6, 9, 11, 14, 16, 19)]
    w = WeightPoint(24, 10)
    hull = certified_newton_polygon(ctx, w, 8)
    assert slope_list(hull)[:8] == [Fraction(x) for x in (1, 11, 11, 11, 11, 11, 11, 22)]


def test_newslopes_closed_hull_agree_many(ctx):
    # closed form and certified hull agree wherever both apply
    for k in (24, 48, 90, 174):
        dp = derivative_polygon(ctx, k)
        ss = [s for s, _ in dp.slopes]
        probes = [Valuation(ss[-1] + 1), INF, Valuation(dp.m_of_k)]
        probes += [Valuation(s) for s in ss if s >= dp.m_of_k]
        for i in range(dp.M_index, len(ss) + 1):
            prev = ss[i - 2] if i >= 2 else Fraction(0)
            lo = max(dp.m_of_k, prev)
            if ss[i - 1] > lo:
                probes.append(Valuation((lo + ss[i - 1]) / 2))
        for r in probes:
            w = WeightPoint(k, r)
            closed = _closed_form_runs(ctx, k, w)
            assert closed is not None and closed == _hull_runs(ctx, k, w), (k, r)


def test_newslopes_sorted_and_counted(ctx):
    for k, r in [(24, Fraction(5, 2)), (90, 1), (174, 3)]:
        got = k_newslopes(ctx, k, WeightPoint(k, r))
        assert got == sorted(got)
        assert len(got) == dimensions(ctx, k).d_new


def test_newslopes_empty_without_newforms():
    ctx = GhostContext(p=11, a=2, s_eps=0)
    assert k_newslopes(ctx, 4, WeightPoint(4, 3)) == []


def test_newslopes_closed_method_errors_off_region(ctx):
    # below M(k) = 2 the closed form is out; on the derivative slope 6 it
    # gives the certified hull's runs
    assert _closed_form_runs(ctx, 24, WeightPoint(24, Fraction(1, 2))) is None
    w = WeightPoint(24, 6)
    assert _closed_form_runs(ctx, 24, w) == _hull_runs(ctx, 24, w)


# -- thresholds ---------------------------------------------------------------


def test_thresholds_frozen_k24(ctx):
    tv = k_thresholds(ctx, 24)
    assert tv.local_thresholds == tuple(map(Fraction, (9, 6, 2, 1, 6, 9)))
    assert all(type(cs) is Fraction for cs in tv.local_thresholds)
    assert tv.provenance == ("closed", "closed", "sweep", "sweep", "closed", "closed")
    assert tv.global_mult == 1
    assert tv.to_json_dict() == {
        "k": 24,
        "local": ["9", "6", "2", "1", "6", "9"],
        "provenance": ["closed", "closed", "sweep", "sweep", "closed", "closed"],
        "global_mult": 1,
    }


def test_threshold_text_over_a_denominator():
    # no class weight up to 3000 on (7,2,1) or (11,6,9) has a threshold denominator
    # above 1, so the text of one comes from a hand-built vector
    tv = ThresholdVector(k=25, closed=((3, 2, 1), (7, 4, 2)), swept=(Fraction(-1), Fraction(0)), global_mult=1)
    assert tv.to_json_dict()["local"] == ["7/4", "7/4", "3/2", "-1", "0", "3/2", "7/4", "7/4"]
    assert tv.to_json_dict()["local"] == list(map(str, tv.local_thresholds))
    assert tv.provenance == ("closed",) * 3 + ("sweep",) * 2 + ("closed",) * 3


# k_thresholds off (7,2,1), recorded before the sweep walked its levels top
# down: (p, a, s_eps, m), k, d_new, the central "sweep" block as
# (first index, values), and the sha256 of the canonical JSON of the whole
# vector.  Each sweep visits only the top one of M(k) - 1 = 3 levels.
FROZEN_THRESHOLDS = [
    ((11, 6, 9, 3), 1246, 208, (104, ["4", "4"]), "372be006bc01762dc6b0a013bd67251f95f460fcfba422f5bc1553c2cb86fb18"),
    ((11, 6, 9, 3), 1466, 244, (122, ["4", "4"]), "e5b52409c89b8a3798f3d5d4c0c3963eaa876fec980646090e6311a330f33a1f"),
    ((11, 6, 9, 3), 1696, 282, (141, ["4", "4"]), "8aa246ae4572752148f8aba12ecfc452474df894ae5392e3850238602596b92e"),
    ((13, 5, 11, 1), 2045, 292, (146, ["7/2", "7/2"]), "d747abe7c0e75b820d3587ae7b8ef17bbbfeaa178d4442213e50c72a93b45ea6"),
    ((13, 5, 11, 1), 2201, 314, (157, ["7/2", "7/2"]), "a0d6279fcb5de7c47b47b6fca55847a339e79a00a1e83aaa9119d2d56690e738"),
    ((13, 5, 11, 1), 2453, 350, (175, ["7/2", "7/2"]), "a7cb828ac631e69a6bf5937f5ffd467308b9ca324462dd23a7f4fa2d415d113c"),
]


@pytest.mark.parametrize(
    "params,k,d_new,block,digest",
    FROZEN_THRESHOLDS,
    ids=[f"{','.join(map(str, params))}:{k}" for params, k, *_ in FROZEN_THRESHOLDS],
)
def test_thresholds_frozen_off_721(params, k, d_new, block, digest):
    tv = k_thresholds(GhostContext(*params), k).to_json_dict()
    first, values = block
    sweep = [n for n, tag in enumerate(tv["provenance"], 1) if tag == "sweep"]
    assert len(tv["local"]) == d_new
    assert sweep == list(range(first, first + len(values)))
    assert tv["local"][first - 1 : first - 1 + len(values)] == values
    assert hashlib.sha256(json.dumps(tv, sort_keys=True).encode()).hexdigest() == digest


def test_sweep_threshold_frozen(ctx):
    assert sweep_threshold(ctx, 24, 4) == Valuation(1)
    assert sweep_threshold(ctx, 24, 3) == Valuation(2)
    with pytest.raises(DomainError):
        sweep_threshold(ctx, 24, 0)
    with pytest.raises(DomainError):
        sweep_threshold(ctx, 24, 7)


def test_sweep_entries_at_most_m(ctx):
    for k in (24, 48, 90, 174):
        tv = k_thresholds(ctx, k)
        m = derivative_polygon(ctx, k).m_of_k
        for cs, tag in zip(tv.local_thresholds, tv.provenance):
            if tag == "sweep":
                assert cs <= m, (k, cs)


def test_closed_form_entries_symmetric(ctx):
    # the closed blocks mirror around the center; sweep entries need not
    # (k = 24 has CS_3 = 2 against CS_4 = 1)
    for k in (24, 48, 90, 174, 366):
        tv = k_thresholds(ctx, k)
        n_idx = range(len(tv.local_thresholds))
        for i, j in zip(n_idx, reversed(n_idx)):
            if tv.provenance[i] == "closed":
                assert tv.provenance[j] == "closed"
                assert tv.local_thresholds[i] == tv.local_thresholds[j]


def test_threshold_consistency(ctx):
    # above CS_n the n-th newslope sits at (k-2)/2; just below it moves
    for k in (24, 48, 90):
        tv = k_thresholds(ctx, k)
        target = Fraction(k - 2, 2)
        for n, cs in enumerate(tv.local_thresholds, start=1):
            got = k_newslopes(ctx, k, WeightPoint(k, cs + Fraction(1, 2)))[n - 1]
            assert got == target, (k, n, "above")
            got = k_newslopes(ctx, k, WeightPoint(k, cs + 2))[n - 1]
            assert got == target, (k, n, "far above")
            if cs > 0:
                probes = [cs - cs / 3**i for i in range(1, 5)]
                vals = [
                    k_newslopes(ctx, k, WeightPoint(k, r))[n - 1]
                    for r in probes
                    if r > 0
                ]
                assert any(v != target for v in vals), (k, n, "below")


def test_thresholds_central_block_size_bound(ctx):
    # 2 n_{M-1} <= 2 ((2 floor(log_p k_bullet) + 5) / (p - 1) + 1)
    import math

    for k in ctx.class_members(20, 700):
        dp = derivative_polygon(ctx, k)
        kb = ctx.bullet(k)
        if kb < 1 or not dp.slopes:
            continue
        central = 2 * dp.vertex_xs[dp.M_index - 1]
        cap = 2 * ((2 * math.floor(math.log(kb, ctx.p)) + 5) / (ctx.p - 1) + 1)
        assert central <= cap, (k, central, cap)


@given(case=context_and_weight(), num=st.integers(1, 12), den=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_no_lock_at_radius_one_or_below(case, num, den):
    # for r <= 1 every valuation is r * degree, so each newslope is r times
    # its value at r = 1: it meets (k-2)/2 at one radius at most and never
    # locks on an interval, which leaves every sweep threshold >= 1
    ctx, k = case
    r = Fraction(min(num, den), den)
    at_one = expand_runs(_hull_runs(ctx, k, WeightPoint(k, 1)))
    at_r = expand_runs(_hull_runs(ctx, k, WeightPoint(k, r)))
    assert at_r == [r * s for s in at_one]
    for n in range(1, len(at_one) + 1):
        assert sweep_threshold(ctx, k, n) >= Valuation(1)


@pytest.mark.parametrize(
    "cap", ("NEWTON_WINDOW_DOUBLINGS", "SWEEP_WINDOW_DOUBLINGS", "SWEEP_PIECE_GUARD")
)
def test_iteration_cap_is_named_in_its_error(monkeypatch, cap):
    # The *_WINDOW_DOUBLINGS cases keep the names of the caps the two window
    # walks once had. Those caps could never fire and are gone: a window's
    # table past MAX_TABLE_INDEX raises DomainError before anything is
    # certified on it, so each walk now ends in an error naming that cap.
    if cap == "SWEEP_PIECE_GUARD":
        monkeypatch.setattr(slopes, cap, 0)
        named, error = cap, VerificationError
    else:
        monkeypatch.setattr(ghost, "MAX_TABLE_INDEX", 0)
        named, error = "MAX_TABLE_INDEX", DomainError
    fresh = GhostContext(p=7, a=2, s_eps=1)
    with pytest.raises(error, match=f"{named} = 0"):
        if cap == "NEWTON_WINDOW_DOUBLINGS":
            certified_newton_polygon(fresh, WeightPoint(24, 7), 8)
        else:
            sweep_threshold(fresh, 24, 3)


def test_windows_end_at_max_table_index(monkeypatch):
    # the window walk starts at its estimate, 16 + 16/64 rounded up, and
    # doubles until its degree table passes the table cap
    monkeypatch.setattr(ghost, "MAX_TABLE_INDEX", 64)
    fresh = GhostContext(p=7, a=2, s_eps=1)
    sizes = []
    with pytest.raises(DomainError, match="MAX_TABLE_INDEX = 64"):
        for n_window, deg_n, _, _ in slopes._windows(fresh, 24, 8):
            assert deg_n == ghost.degree_table(fresh, n_window)[-1]  # deg g_n at the window's edge
            sizes.append(n_window)
    assert sizes == [17, 34]


def test_window_fallback_past_the_cap_is_refused_before_stride_one_grows(monkeypatch):
    # at r = 3/2 below M(k) the hull's first window on k = 1,470,000 (d_iw =
    # 490,000) falls back to 2 d_iw, past the cap: the window refuses it
    # before any stride-1 step or table is built, with deg's period alone held
    built, triangles = [], ghost._triangle_steps
    monkeypatch.setattr(ghost, "_triangle_steps", lambda *args: built.append(args) or triangles(*args))
    k, cap, fresh = 1_470_000, ghost.MAX_TABLE_INDEX, GhostContext(p=7, a=2, s_eps=1)
    with pytest.raises(DomainError, match=f"^table index 980000 exceeds MAX_TABLE_INDEX = {cap}$"):
        slopes.newslope_runs(fresh, k, WeightPoint(k, Fraction(3, 2)))
    assert built == [] and list(fresh._caches["periods"]) == [None]


def test_windows_and_thresholds_ignore_how_far_the_table_grew(monkeypatch):
    # a context holds one period of deg's steps and one of S_1's per residue,
    # so tables it read far past a window must give the same windows,
    # thresholds and MAX_TABLE_INDEX refusals as a fresh context
    def read(ctx, k):
        walk = islice(slopes._windows(ctx, k, dimensions(ctx, k).d_iw), 3)
        return list(walk), k_thresholds(ctx, k)

    ks = (24, 444, 1206)
    first = [read(GhostContext(p=7, a=2, s_eps=1), k) for k in ks]
    warm = GhostContext(p=7, a=2, s_eps=1)
    for k in ks:  # bullets 3, 73 and 200: residues 3 and 4
        ghost.hatted_valuation_table(warm, k, 100_000)
    ghost.degree_table(warm, 100_000)
    held = warm._caches["periods"]  # a first step and one period each: 2p and 2p^2
    assert {r: len(steps) for r, (steps, _) in held.items()} == {None: 15, 3: 99, 4: 99}
    assert [read(warm, k) for k in ks] == first
    monkeypatch.setattr(ghost, "MAX_TABLE_INDEX", 1000)
    assert len(ghost.degree_table(warm, 1000)) == 1001
    with pytest.raises(DomainError, match="MAX_TABLE_INDEX = 1000"):
        ghost.degree_table(warm, 1001)
    for ctx in (warm, GhostContext(p=7, a=2, s_eps=1)):
        with pytest.raises(DomainError, match="MAX_TABLE_INDEX = 1000"):
            ghost.hatted_valuation_table(ctx, 24, 1001)
    assert ctx._caches == {}  # refused before any period is read or built


def test_one_window_per_certification(monkeypatch):
    # the first window passes the tail test: over the sweeps and hull
    # certifications of these weights, at most one call takes a second
    windows, used = slopes._windows, []

    def counted(*args):
        used.append(0)
        for item in windows(*args):
            used[-1] += 1
            yield item

    monkeypatch.setattr(slopes, "_windows", counted)
    fresh = GhostContext(p=7, a=2, s_eps=1)
    ks = fresh.class_members(24, 3000)[::10]
    for k in ks:
        k_thresholds(fresh, k)
        sweeps = len(used)
        for radius in (Fraction(1, 2), Fraction(3, 2), 7, INF):
            certified_newton_polygon(fresh, WeightPoint(k, radius), dimensions(fresh, k).d_iw)
        assert len(used) - sweeps == 4
    assert len(used) - 4 * len(ks) > 50  # the sweeps' levels
    assert sum(n > 1 for n in used) <= 1


@pytest.mark.parametrize("radius, reads", [(Fraction(1, 2), False), (1, False), (Fraction(3, 2), True), (INF, True)])
def test_stride_one_read_only_past_the_lemma_start_and_where_it_weighs(monkeypatch, radius, reads):
    # the tail bound reads S_1 at a window's edge n, sound only where S_1 does
    # not fall past n: from N0 = ceil(4p^2/(p-1)^2) <= 7 on (the lemma of
    # ghost._period), below every window's q_hi + 8; at radii <= 1 its
    # weight c_1 is 0, and no stride-1 period is built
    assert max(-(-4 * p * p // (p - 1) ** 2) for p in range(5, 10_000)) == 7
    assert next(slopes._windows(GhostContext(p=7, a=2, s_eps=1), 24, 0))[0] >= 8
    fresh, built, triangles = GhostContext(p=7, a=2, s_eps=1), [], ghost._triangle_steps
    monkeypatch.setattr(ghost, "_triangle_steps", lambda ctx, strides, steps: built.extend(
        b for b, w in strides if w and b.step == ctx.p) or triangles(ctx, strides, steps))
    trip = dimensions(fresh, 2004)
    certified_newton_polygon(fresh, WeightPoint(2004, radius), trip.d_iw - trip.d_ur)
    assert bool(built) == reads
    assert any(r is not None for r in fresh._caches["periods"]) == reads


# Hand-built tables on the window 0..4 at the integer radii 1 and 2, the value
# V1[x] (2 - r) + V2[x] (r - 1) on [1, 2]; as level tables (A, B), A[x] + B[x] r,
# they are V1 = A + B and V2 = A + 2 B.  Only x = 2 rides the radius: it crosses
# the chord from (0, 0) to (4, 6) at r = 4/3, a hull vertex below that radius
# and above the chord past it.
SWEEP_A, SWEEP_B = (0, 4, -1, 5, 6), (0, 0, 3, 0, 0)
SWEEP_V1, SWEEP_V2 = ([a + level * b for a, b in zip(SWEEP_A, SWEEP_B)] for level in (1, 2))


@pytest.mark.parametrize(
    "xs, r, inc_floor, expected",
    [
        ((0, 2, 4), Fraction(3, 2), 2, (0, 2, 4)),  # vertex 2 turns right
        ((0, 4), Fraction(1), 2, (0, 2, 4)),  # point 2 lies below its edge
        ((2, 4), Fraction(3, 2), 2, (0, 2, 4)),  # point 0 lies below the first edge's line
        ((0, 2), Fraction(7, 5), 2, (0, 2, 4)),  # point 4 lies below the last edge's line
        ((0, 4), Fraction(3, 2), 1, "tail"),  # edge slope 3/2 above the increment floor
        ((0, 2), Fraction(1), 0, "tail"),  # the tail meets the last edge's line, slope 1
        ((0, 4), Fraction(3, 2), 2, None),
        ((0, 2, 4), Fraction(4, 3), 2, None),  # collinear at the root: neither fails
        ((0, 4), Fraction(4, 3), 2, None),
        ((2, 4), Fraction(4, 3), 2, None),
    ],
    ids=[
        "convexity", "point", "left-of-first", "right-of-last", "tail", "tail-last-edge",
        "certified", "vertex-on-root", "point-on-root", "line-on-root",
    ],
)
def test_piece_violation_outcomes(xs, r, inc_floor, expected):
    window = (4, 40, 0, inc_floor)  # deg g_4 = 40, S_1 left out of the tail bound
    passed = set()
    got = slopes._piece_violation(SWEEP_V1, SWEEP_V2, 1, window, xs, r, passed)
    assert got == expected
    assert got == ab_piece_violation(SWEEP_A, SWEEP_B, window, xs, r)  # the A/B walk's answer
    assert passed == ({(r.numerator, r.denominator, 5, *xs)} if got is None else set())
    if isinstance(expected, tuple):
        t1, t2 = slopes._turn(SWEEP_V1, *got), slopes._turn(SWEEP_V2, *got)
        root = 1 + Fraction(t1, t1 - t2)
        assert root == Fraction(4, 3) == Fraction(-slopes._turn(SWEEP_A, *got), slopes._turn(SWEEP_B, *got))
        assert slopes._turn(slopes._values(SWEEP_V1, SWEEP_V2, 1, root), *got) == 0
        # xs is certified at the mirror radius, so the root splits a piece
        # [2 root - r, r] strictly inside
        mirror = 2 * root - r
        assert slopes._piece_violation(SWEEP_V1, SWEEP_V2, 1, window, xs, mirror, passed) is None


@pytest.mark.parametrize(
    "r, s1, expected",
    [(Fraction(3, 2), 0, "tail"), (Fraction(3, 2), 2, None), (Fraction(4, 3), 2, "tail"), (Fraction(4, 3), 3, None)],
)
def test_piece_tail_reads_the_stride_one_term(r, s1, expected):
    # the edge (0, 4) reaches 6 at the window edge 4, which deg = 5 alone
    # misses; 5 + c_1 s1 reaches it once c_1 s1 >= 1, c_1 = min(r, 2) - 1
    window = (4, 5, s1, 2)
    assert slopes._piece_violation(SWEEP_V1, SWEEP_V2, 1, window, (0, 4), r, set()) == expected
    assert ab_piece_violation(SWEEP_A, SWEEP_B, window, (0, 4), r) == expected


def test_piece_check_passed_is_not_run_again():
    # a check passed at a radius on a window and sub-chain is skipped when asked
    # again, and only then: a point planted below the chord afterwards goes unseen
    # by the same key and is found on another window length or sub-chain
    window, V1, V2 = (4, 40, 0, 2), list(SWEEP_V1), list(SWEEP_V2)
    passed = set()
    assert slopes._piece_violation(V1, V2, 1, window, (0, 4), Fraction(3, 2), passed) is None
    V1[1] = V2[1] = -10
    assert slopes._piece_violation(V1, V2, 1, window, (0, 4), Fraction(3, 2), passed) is None
    assert slopes._piece_violation(V1, V2, 1, window, (0, 4), Fraction(5, 3), passed) == (0, 1, 4)
    assert slopes._piece_violation(V1 + [99], V2 + [99], 1, window, (0, 4), Fraction(3, 2), passed) == (0, 1, 4)


def test_midpoint_chain_widens_past_a_far_vertex(monkeypatch):
    # on the convex points (q, q^2) one deep point at q = 30 lies outside
    # the first slice around x = 1..2, below the narrow chain's first-edge
    # line; the tables at both radii are equal, so that test's turn does
    # not move with r and the piece loop widens the slice until the
    # sub-chain runs from 0 to that point
    V = [q * q for q in range(41)]
    monkeypatch.setattr(slopes, "valuation_table_at", lambda ctx, k, r, n: (V, 1))
    window = (40, 4000, 0, 100)  # n_window, deg g_40, S_1 left out, inc_floor: tails certify
    monkeypatch.setattr(slopes, "_windows", lambda *args: iter([window]))
    chain, pads = slopes._midpoint_chain, []

    def spied(*args):
        pads.append(args[-1])
        return chain(*args)

    monkeypatch.setattr(slopes, "_midpoint_chain", spied)
    fresh = GhostContext(p=7, a=2, s_eps=1)
    for deep, widened, xs in ((-1000, [8, 32], [0, 30]), (900, [8], [1, 2])):  # 900: on the parabola
        V[30], pads[:] = deep, []
        assert slopes._level_pieces(fresh, 24, 1, 2, 2, {}, set()) == [(1, 2, xs, V, V)]
        assert pads == widened


def test_sweep_shares_each_level_table_with_the_next(monkeypatch):
    # a sweep of L levels reads L + 1 tables at the integer radii M(k) down to
    # M(k) - L, each once and none a level table, and holds at most two; a level
    # skips its top check when it keeps the sub-chain the level above ended on
    built, held, at, skipped = [], [], ghost.valuation_table_at, []
    monkeypatch.setattr(ghost, "level_tables", lambda *args: pytest.fail("level tables read"))
    monkeypatch.setattr(slopes, "valuation_table_at", lambda ctx, k, r, n: built.append(r) or at(ctx, k, r, n))
    pieces, check = slopes._level_pieces, slopes._piece_violation

    def spied_pieces(ctx, k, level, lo, hi, tables, passed):
        held.append(len(tables))
        return pieces(ctx, k, level, lo, hi, tables, passed)

    def spied_check(V0, V1, level, window, xs, r, passed):
        skipped.append((r.numerator, r.denominator, len(V0), *xs) in passed)
        return check(V0, V1, level, window, xs, r, passed)

    monkeypatch.setattr(slopes, "_level_pieces", spied_pieces)
    monkeypatch.setattr(slopes, "_piece_violation", spied_check)
    fresh = GhostContext(p=7, a=2, s_eps=1)
    for k in (4200, 4602, 49998):
        built[:], held[:], skipped[:] = [], [], []
        m, d_new = derivative_polygon(fresh, k).m_of_k, dimensions(fresh, k).d_new
        slopes._sweep(fresh, k, range(1, d_new + 1))
        levels = len(held)
        assert levels >= 2
        assert built == list(range(m, m - levels - 1, -1)), k
        assert max(held) <= 1 and any(skipped), k


def test_context_keeps_only_reread_caches():
    # derivative polygons are re-read across weights, and the periods of deg's
    # and S_1's steps by every table; nothing else a query builds may stay on
    # the context
    fresh = GhostContext(p=7, a=2, s_eps=1)
    for k in (24, 66, 120, 444):
        k_thresholds(fresh, k)
        predict_slopes(fresh, k)
        for kind in SampleKind:
            sample(fresh, k, kind)
        trip = dimensions(fresh, k)
        certified_newton_polygon(fresh, WeightPoint(k, Fraction(3, 2)), trip.d_iw - trip.d_ur)
        breakpoints_by_criterion(fresh, WeightPoint(k, 3), trip.d_iw)
    assert set(fresh._caches) == {"derivative", "periods"}


@pytest.mark.parametrize("radius", (Fraction(3, 2), 7, INF))
def test_criterion_scan_caches_integer_polygons(radius, monkeypatch):
    # a derivative polygon holds its ordinates and its non-vertex abscissae as int64
    # arrays and nothing else; the criterion scan stores none, and reads one
    # the context holds without building it again or reading its edges
    assert [f.name for f in dataclasses.fields(DerivativePolygon)] == [
        "k", "ys", "gaps", "M_index", "m_of_k",
    ]
    fresh, w = GhostContext(p=7, a=2, s_eps=1), WeightPoint(120, radius)
    walk = breakpoints_by_criterion(fresh, w, 400)
    assert not fresh._caches.get("derivative")
    built, build = [], slopes._derivative_polygon
    monkeypatch.setattr(slopes, "_derivative_polygon", lambda ctx, k: built.append(k) or build(ctx, k))
    breakpoints_by_criterion(fresh, w, 400)
    for k in built:
        derivative_polygon(fresh, k)
    held, built[:] = list(fresh._caches["derivative"].values()), []
    assert len(held) > 1
    assert breakpoints_by_criterion(fresh, w, 400) == walk and built == []
    for dp in held:
        assert dp.ys.typecode == dp.gaps.typecode == "q"
        assert "edges" not in vars(dp)


def test_thresholds_wraparound_runs(wrap_ctx):
    tv = k_thresholds(wrap_ctx, 56)
    assert len(tv.local_thresholds) == dimensions(wrap_ctx, 56).d_new
    assert all(v is not None for v in tv.local_thresholds)


def test_thresholds_global_stretch(ctx):
    # the threshold sample holds each of the 6 values global_mult = 3 times
    ctx3 = GhostContext(p=7, a=2, s_eps=1, global_mult=3)
    tv = k_thresholds(ctx3, 24)
    assert tv.global_mult == 3
    stretched = sample(ctx3, 24, SampleKind.THRESHOLD).values
    assert len(stretched) == 18
    assert stretched == tuple(v for v in sample(ctx, 24, SampleKind.THRESHOLD).values for _ in range(3))
    assert tv.to_json_dict()["global_mult"] == 3


# -- slope windows ------------------------------------------------------------


def _slope_window(ctx, k, dp, i):
    # r_i sits halfway from max(M(k), s_{i-1}) toward s_i, within 1 of that
    # edge; returns r_i and the extreme newslopes over the disc of radius r_i
    ss = [Fraction(a, b) for a, b, _ in dp.edges]
    lo = dp.m_of_k if i == dp.M_index else ss[i - 2]
    r_i = lo + min(Fraction(1), ss[i - 1] - lo) / 2
    got = k_newslopes(ctx, k, WeightPoint(k, r_i))
    return r_i, max(got), min(got)


def test_slope_window_frozen(ctx):
    dp = derivative_polygon(ctx, 24)
    assert _slope_window(ctx, 24, dp, 2) == (Fraction(5, 2), Fraction(35, 2), Fraction(9, 2))
    assert _slope_window(ctx, 24, dp, 3) == (Fraction(13, 2), Fraction(27, 2), Fraction(17, 2))
    assert dp.M_index == 2 and len(dp.edges) == 3


def test_slope_window_bounds_realized(ctx):
    # over the disc of radius r_i the newslopes reach (k-2)/2 +- (s_N - r_i)
    for k in (24, 90, 174):
        dp = derivative_polygon(ctx, k)
        s_top = Fraction(*dp.edges[-1][:2])
        for i in range(dp.M_index, len(dp.edges) + 1):
            r_i, s_hi, s_lo = _slope_window(ctx, k, dp, i)
            assert s_hi + s_lo == k - 2
            assert s_hi >= s_lo
            spread = s_top - r_i
            assert (s_hi, s_lo) == (Fraction(k - 2, 2) + spread, Fraction(k - 2, 2) - spread)


# -- certified windows --------------------------------------------------------


def test_certified_polygon_matches_plain_window(ctx):
    for k, r in [(24, 7), (24, Fraction(1, 2)), (48, 2)]:
        w = WeightPoint(k, r)
        trip = dimensions(ctx, k)
        cert = certified_newton_polygon(ctx, w, trip.d_iw)
        plain = newton_polygon_at(ctx, 3 * trip.d_iw, w)
        cx = [v for v in cert.vertex_xs() if v <= trip.d_iw]
        px = [v for v in plain.vertex_xs() if v <= trip.d_iw]
        assert cx == px
        for x in cx:
            assert hull_value(cert, x) == hull_value(plain, x)


def test_certified_polygon_needs_positive_radius(ctx):
    with pytest.raises(DomainError):
        certified_newton_polygon(ctx, WeightPoint(24, 0), 8)
