"""Acceptance gate: one test per criterion, each timed against its budget.

Every test prints a single "criterion N PASS" line (visible under -s, and
captured otherwise); a failing criterion fails its test with the exact
mismatch.  Budgets are wall-clock seconds for the whole criterion.
"""

import json
import random
import time
from fractions import Fraction

from strategies import slope_list
from test_ghost_series import FROZEN_ZERO_TABLES

from ghost_slopes import checks
from ghost_slopes.cli import main
from ghost_slopes.distribution import SampleKind, discrepancy, sample
from ghost_slopes.ghost import GhostContext, WeightPoint, dimensions, max_zero_distance
from ghost_slopes.slopes import (
    certified_newton_polygon,
    derivative_polygon,
    k_newslopes,
    k_thresholds,
)
from ghost_slopes.valuation import INF
from ghost_slopes.wedge import random_int_matrix

CTX = GhostContext(7, 2, 1)


def _finish(n: int, budget: float, started: float, what: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n}: {elapsed:.2f}s >= {budget:g}s budget"
    print(f"criterion {n} PASS ({elapsed:.2f}s < {budget:g}s): {what}")


def test_criterion_1_polynomial_tables(capsys):
    t0 = time.perf_counter()
    assert main(["ghost", "-n", "8", "--format", "json"]) == 0
    polys = json.loads(capsys.readouterr().out)
    assert len(polys) == 8
    for gp in polys:
        table = {z["k"]: z["mult"] for z in gp["zeros"]}
        assert table == FROZEN_ZERO_TABLES[gp["n"]], f"g_{gp['n']} mismatch"
    with capsys.disabled():
        _finish(1, 1.0, t0, "g_1..g_8 zero sets and multiplicities exact")


def test_criterion_2_weight_24_tables():
    t0 = time.perf_counter()
    trip = dimensions(CTX, 24)
    assert (trip.d_iw, trip.d_ur, trip.d_new) == (8, 1, 6)
    assert max_zero_distance(CTX, 24).value == 2
    dp = derivative_polygon(CTX, 24)
    assert dp.raw == (17, 19, 25, 34)
    assert dp.slopes == ((Fraction(2), 1), (Fraction(6), 1), (Fraction(9), 1))
    rows = {
        Fraction(10): [Fraction(11)] * 6,
        Fraction(7): [9, 11, 11, 11, 11, 13],
        Fraction(4): [6, 9, 11, 11, 13, 16],
        Fraction(5, 2): [
            Fraction(9, 2),
            Fraction(15, 2),
            11,
            11,
            Fraction(29, 2),
            Fraction(35, 2),
        ],
    }
    for nu, expected in rows.items():
        got = k_newslopes(CTX, 24, WeightPoint(24, nu))
        assert got == [Fraction(v) for v in expected], f"newslopes at nu = {nu}"
    _finish(2, 1.0, t0, "k = 24 dimensions, polygon, and newslope rows exact")


def test_criterion_3_threshold_tables():
    t0 = time.perf_counter()
    tv = k_thresholds(CTX, 24)
    assert list(tv.local_thresholds) == [9, 6, 2, 1, 6, 9]
    for nu, expected in (
        (
            Fraction(1, 2),
            [Fraction(c, 2) for c in (1, 3, 6, 9, 11, 14, 16, 19)],
        ),
        (
            Fraction(3, 2),
            [
                Fraction(1),
                Fraction(7, 2),
                Fraction(13, 2),
                Fraction(10),
                Fraction(11),
                Fraction(29, 2),
                Fraction(17),
                Fraction(41, 2),
            ],
        ),
    ):
        hull = certified_newton_polygon(CTX, WeightPoint(24, nu), 8)
        assert slope_list(hull)[:8] == expected, f"slope table at nu = {nu}"
    _finish(3, 5.0, t0, "thresholds (9,6,2,1,6,9) and both 8-slope tables exact")


def test_criterion_4_breakpoint_oracle():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    checked = 0
    for p, a, e in ((7, 2, 1), (11, 6, 9)):
        ctx = GhostContext(p, a, e)
        ks = list(ctx.class_members(10, 2000))
        for _ in range(110):
            k = rng.choice(ks)
            radius = (
                INF
                if rng.random() < 0.1
                else Fraction(rng.randint(1, 12), rng.randint(1, 4))
            )
            checks.check_criterion_matches_hull(ctx, WeightPoint(k, radius))
            checked += 1
    assert checked >= 200
    _finish(4, 60.0, t0, f"{checked} sampled (k, radius) pairs, criterion == hull")


def test_criterion_5_duality_and_integrality_sweep():
    t0 = time.perf_counter()
    for k in CTX.class_members(6, 5000):
        # derivative_polygon checks the hatted duality of k as it builds
        checks.check_slope_integrality(CTX, k)
    _finish(5, 120.0, t0, "duality and slope integrality, zero exceptions to k = 5000")


def test_criterion_6_zero_distance_log_bound():
    t0 = time.perf_counter()
    for k in CTX.class_members(2, 100000):
        max_zero_distance(CTX, k)  # raises above floor(log_p k_bullet) + 3
    _finish(6, 600.0, t0, "M(k) <= floor(log_p k_bullet) + 3 through k = 100000")


def test_criterion_7_wedge_algebra_suite():
    t0 = time.perf_counter()
    rng = random.Random(77)
    ran = 0
    for _ in range(12):  # small d: every subset/permutation term exercised
        d = rng.randint(2, 4)
        m = rng.randint(1, d)
        mats = [random_int_matrix(rng, d) for _ in range(m)]
        n = rng.randint(0, d - m)
        checks.check_collapse(mats, n, Fraction(rng.randint(1, 5)))
        ran += 1
    for _ in range(8):  # spot checks at larger d with small wedge degree
        d = rng.randint(5, 8)
        m = rng.randint(1, 2)
        mats = [random_int_matrix(rng, d) for _ in range(m)]
        n = rng.randint(0, min(2, d - m))
        checks.check_collapse(mats, n, Fraction(rng.randint(1, 5)))
        ran += 1
    assert ran == 20
    for d in range(1, 11):
        checks.check_truncated_determinants(d)
        for j in range(2, d + 1, 2):
            checks.check_minor_unit(d, j)
    for n in range(1, 9):
        for n0 in range(0, 6):
            checks.check_bv_consecutive(n, n0)
    for _ in range(20):
        d = rng.randint(1, 8)
        j = rng.randint(1, d)
        ms = [Fraction(rng.randint(-9, 9)) for _ in range(j)]
        checks.check_roundtrip(d, j, Fraction(rng.randint(1, 7)), ms)
    _finish(7, 30.0, t0, "collapse, determinant, cofactor, BV, and round-trip identities exact")


def test_criterion_8_equidistribution_trend():
    t0 = time.perf_counter()
    small = sample(CTX, 1002, SampleKind.THRESHOLD)
    big = sample(CTX, 49998, SampleKind.THRESHOLD)
    for n in (1, 2):
        target = Fraction(1, n + 1)
        err_small = abs(small.moments(n)[-1] - target)
        err_big = abs(big.moments(n)[-1] - target)
        assert err_big < Fraction(5, 100), f"moment {n} off target: {float(err_big)}"
        assert err_big < err_small, f"moment {n} trend reversed"
    assert discrepancy(big) < discrepancy(small), "discrepancy did not decrease"
    _finish(8, 900.0, t0, "moments n = 1, 2 within 0.05 and shrinking; discrepancy down")


def test_criterion_9_threshold_cross_consistency():
    t0 = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    for (p, a, e, m), count in (((7, 2, 1, 1), 30), ((11, 6, 9, 1), 20)):
        ctx = GhostContext(p, a, e, m)
        ks = list(ctx.class_members(10, 1500))
        for k in rng.sample(ks, count):
            checks.check_threshold_relation(ctx, k)
            checked += 1
    assert checked == 50
    _finish(9, 60.0, t0, "linv block = -(CS+1), exceptional = central block, in bound")
