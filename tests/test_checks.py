"""Every shared check and in-line guard fails on a planted violation.

Each case passes as is, then fails with VerificationError once
monkeypatch replaces the quantity it reads by one that breaks its
invariant; so no check that ``verify`` and the tests share is vacuous.
"""

import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ghost_slopes import GhostContext, VerificationError, WeightPoint, checks, ghost, prediction, slopes
from ghost_slopes.cli import main
from ghost_slopes.distribution import DistributionSample, SampleKind
from ghost_slopes.ghost import DimensionTriple
from ghost_slopes.polygon import lower_hull
from ghost_slopes.prediction import PredictionModel, Rel
from ghost_slopes.wedge import formal_wedge_trace, random_int_matrix

B = random_int_matrix(random.Random(1), 3)
HATTED, PREDICT, SAMPLE = slopes.hatted_valuation_table, checks.predict_slopes, checks.sample


def top_shifted(ctx, k, kind):
    # the top threshold value up by 1: one more differing entry, still within the bound
    s = SAMPLE(ctx, k, kind)
    return replace(s, nums=s.nums[:-1] + (s.nums[-1] + s.den * (kind is SampleKind.THRESHOLD),))


def spread(ctx, k, kind):
    return DistributionSample(None, kind, (-3, 1), 1, 0, 0)


# (check of a weight, module or class, attribute, planted value)
WEIGHT_PLANTS = [
    (checks.check_dimensions, checks, "dimensions", lambda ctx, k: DimensionTriple(8, 1, 5)),
    (checks.check_multiplicity_symmetry, checks, "ghost_multiplicity", lambda ctx, n, k: n),
    (ghost.max_zero_distance, ghost, "floor_log_bullet", lambda ctx, k: -2),
    (slopes.derivative_polygon, slopes, "hatted_valuation_table",
     lambda ctx, k, n: [v + i for i, v in enumerate(HATTED(ctx, k, n))]),
    (checks.check_slope_integrality, checks, "derivative_polygon",
     lambda ctx, k: SimpleNamespace(slopes=((Fraction(1, 3), 1),))),
    (checks.check_threshold_lock, checks, "k_newslopes", lambda ctx, k, w: [Fraction(0)] * 6),
    (checks.check_raw_increments, checks, "derivative_polygon", lambda ctx, k: SimpleNamespace(hull=SimpleNamespace(ys=(0, 2)))),
    (prediction.build_model, prediction, "model_radius", lambda ctx, k: Fraction(100)),
    (checks.check_model_pattern, PredictionModel, "rel", lambda self, i, j: Rel.GE),
    # one plant per fact of the threshold relation, each breaking that fact alone
    pytest.param(checks.check_threshold_relation, PredictionModel, "linv_slopes_known", property(lambda self: ()),
                 id="check_threshold_relation-known_block"),
    pytest.param(checks.check_threshold_relation, checks, "predict_slopes",
                 lambda ctx, k: replace(model := PREDICT(ctx, k), d=model.known_size),
                 id="check_threshold_relation-exceptional_count"),
    pytest.param(checks.check_threshold_relation, checks, "exceptional_bound", lambda ctx, k: -1,
                 id="check_threshold_relation-exceptional_bound"),
    # one plant per fact of the sample relation, each breaking that fact alone
    pytest.param(checks.check_sample_relation, checks, "sample", top_shifted, id="check_sample_relation-blocks"),
    pytest.param(checks.check_sample_relation, checks, "sample_difference_bound", lambda ctx, k: -1,
                 id="check_sample_relation-difference"),
    (checks.check_sample_moments, checks, "sample", spread),
]

# (call of the check, module, attribute, planted value)
ITEM_PLANTS = {
    "ultrametric": (lambda: checks.check_ultrametric(7, 6, 12, 18),
                    checks, "weight_distance", lambda a, b, p: 1 + (a < b)),
    "hull-idempotent": (lambda: checks.check_hull_idempotent([(0, 0), (1, -1), (2, 0), (3, 5)]),
                        checks, "lower_hull", lambda pts: lower_hull(list(pts)[:-1])),
    "gauss-norm-duality": (lambda: checks.check_gauss_norm_duality([Fraction(v) for v in (0, 1, 4)]),
                           checks, "lower_hull", lambda pts: lower_hull([(x, y + (x == 1)) for x, y in pts])),
    "criterion-vs-hull": (lambda: checks.check_criterion_matches_hull(GhostContext(7, 2, 1), WeightPoint(24, 7)),
                          checks, "breakpoints_by_criterion", lambda ctx, w, n: {0}),
    "collapse": (lambda: checks.check_collapse([B], 1, 2), checks, "wedge_collapse_check", lambda *a: False),
    "determinants": (lambda: checks.check_truncated_determinants(3), checks, "determinant", lambda m: 2),
    "bv": (lambda: checks.check_bv_consecutive(3, 1), checks, "binomial_vandermonde", lambda xs: 0),
    "roundtrip": (lambda: checks.check_roundtrip(3, 2, 1, [Fraction(1), Fraction(2)]),
                  checks, "linear_system_roundtrip", lambda *a: False),
    "symmetrized-pair": (lambda: checks.check_symmetrized_pair(B, B),
                         checks, "formal_wedge_trace", lambda mats: formal_wedge_trace(mats) + 1),
}


@pytest.mark.parametrize(
    "check, owner, attr, planted", WEIGHT_PLANTS,
    ids=[getattr(c, "id", None) or c[0].__name__ for c in WEIGHT_PLANTS],
)
def test_planted_violation_fails_weight_check(monkeypatch, check, owner, attr, planted):
    check(GhostContext(7, 2, 1), 24)
    monkeypatch.setattr(owner, attr, planted)
    with pytest.raises(VerificationError):
        check(GhostContext(7, 2, 1), 24)  # a fresh context: no cached polygon hides the plant


@pytest.mark.parametrize("call, owner, attr, planted", ITEM_PLANTS.values(), ids=ITEM_PLANTS)
def test_planted_violation_fails_item_check(monkeypatch, call, owner, attr, planted):
    call()
    monkeypatch.setattr(owner, attr, planted)
    with pytest.raises(VerificationError):
        call()


def test_verify_reports_a_planted_violation(monkeypatch, capsys):
    monkeypatch.setattr(checks, "ghost_multiplicity", lambda ctx, n, k: n)
    assert main(["verify"]) == 3
    assert "FAIL multiplicity-symmetry: m_n(k) asymmetric" in capsys.readouterr().out


def test_moment_trend_needs_three_nonempty_samples():
    # on (11, 2, 0) the threshold sample of k = 4 is empty, wherever it sits in ks
    ctx = GhostContext(11, 2, 0)
    for ks in ([4, 14, 24], [14, 4, 24], [14, 24, 4]):
        with pytest.raises(VerificationError, match="too few"):
            checks._suite_moment_trend(ctx, None, ks)
