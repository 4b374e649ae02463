"""Every shared check and in-line guard fails on a planted violation.

Each case passes as is, then fails with VerificationError once
monkeypatch replaces the quantity it reads by one that breaks its
invariant; so no check that ``verify`` and the tests share is vacuous.
"""

import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import context_and_weight, planted_steps

from ghost_slopes import GhostContext, VerificationError, WeightPoint, checks, ghost, prediction, slopes
from ghost_slopes.cli import main
from ghost_slopes.distribution import DistributionSample, SampleKind
from ghost_slopes.ghost import DimensionTriple
from ghost_slopes.polygon import lower_hull
from ghost_slopes.prediction import PredictionModel, Rel
from ghost_slopes.wedge import formal_wedge_trace, random_int_matrix, solve_unit_system

B = random_int_matrix(random.Random(1), 3)
PREDICT, SAMPLE = checks.predict_slopes, checks.sample
# every hatted table entry n raised by n: the duality fails at offset 1
TILTED = planted_steps(lambda table: [v + i for i, v in enumerate(table)])


def top_shifted(ctx, k, kind):
    # one copy of the top threshold value up by 1, split off its run as a run of
    # its own: one more differing entry, still within the bound
    s = SAMPLE(ctx, k, kind)
    if kind is not SampleKind.THRESHOLD:
        return s
    return replace(s, nums=s.nums + (s.nums[-1] + s.den,), mults=s.mults[:-1] + (s.mults[-1] - 1, 1))


def spread(ctx, k, kind):
    return DistributionSample(None, kind, (-3, 1), (1, 1), 1, 0, 0)


# (check of a weight, module or class, attribute, planted value)
WEIGHT_PLANTS = [
    (checks.check_dimensions, checks, "dimensions", lambda ctx, k: DimensionTriple(8, 1, 5)),
    (checks.check_multiplicity_symmetry, checks, "ghost_multiplicity", lambda ctx, n, k: n),
    (ghost.max_zero_distance, ghost, "floor_log_bullet", lambda ctx, k: -2),
    (slopes.derivative_polygon, slopes, "hatted_steps", TILTED),
    (checks.check_slope_integrality, checks, "derivative_polygon",
     lambda ctx, k: SimpleNamespace(slopes=((Fraction(1, 3), 1),))),
    (checks.check_threshold_lock, checks, "newslope_runs", lambda ctx, k, w: [(0, 1, 6)]),
    (checks.check_raw_increments, checks, "derivative_polygon", lambda ctx, k: SimpleNamespace(ys=(0, 2))),
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
    "collapse": (lambda: checks.check_collapse([B], 1, 2),
                 checks, "formal_wedge_trace", lambda mats: formal_wedge_trace(mats) + 1),
    "determinants": (lambda: checks.check_truncated_determinants(3), checks, "determinant", lambda m: 2),
    "bv": (lambda: checks.check_bv_consecutive(3, 1), checks, "binomial_vandermonde", lambda xs: 0),
    "roundtrip": (lambda: checks.check_roundtrip(3, 2, 1, [Fraction(1), Fraction(2)]),
                  checks, "solve_unit_system", lambda mat, rhs: [x + 1 for x in solve_unit_system(mat, rhs)]),
    "minor-unit": (lambda: checks.check_minor_unit(6, 2), checks, "determinant", lambda m: 2),
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


@given(case=context_and_weight(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_threshold_lock_names_one_raised_threshold(case, data):
    # the lock reads each radius's runs once for every index; a threshold
    # raised by 1 at one index is still caught at that index alone
    ctx, k = case
    local = checks.k_thresholds(ctx, k).local_thresholds
    assume(local)
    n = data.draw(st.integers(1, len(local)))
    raised = SimpleNamespace(local_thresholds=local[: n - 1] + (local[n - 1] + 1,) + local[n:])
    with patch.object(checks, "k_thresholds", lambda ctx, k: raised), pytest.raises(VerificationError) as err:
        checks.check_threshold_lock(ctx, k)
    assert str(err.value) == f"newslope {n} locked below CS at k = {k}"


@given(case=context_and_weight(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_model_pattern_names_one_weakened_column(case, data):
    # each equality column is counted once; a bottom-row entry turned from GT
    # to GE in one column is caught in that column
    ctx, k = case
    columns = sorted({j for _, j in prediction.build_model(ctx, k).eq_cells})
    assume(columns)
    j = data.draw(st.sampled_from(columns))
    rel = PredictionModel.rel
    weakened = lambda model, i, c: Rel.GE if (i, c) == (model.d, j) else rel(model, i, c)
    with patch.object(PredictionModel, "rel", weakened), pytest.raises(VerificationError) as err:
        checks.check_model_pattern(ctx, k)
    assert str(err.value) == f"column {j} carries {j - 2} strict entries at k = {k}"


def test_dimensions_checked_near_k_ceiling_on_a_large_prime():
    # d_ur of weight k + p^2 - 1 is read off its bullet: at p = 31607 that
    # weight passes K_CEILING while k does not, and k is checked, not refused
    ctx = GhostContext(31607, 2, 1)
    k = ctx.class_members(ghost.K_CEILING - 10**6, ghost.K_CEILING)[-1]
    assert k + ctx.p**2 - 1 > ghost.K_CEILING
    checks.check_dimensions(ctx, k)


def test_hatted_duality_suite_checks_a_cached_weight(monkeypatch):
    # a polygon cached on the given context does not spare a weight the
    # duality: the suite rebuilds each weight it draws on a context of its own
    ctx = GhostContext(7, 2, 1)
    slopes.derivative_polygon(ctx, 24)
    monkeypatch.setattr(slopes, "hatted_steps", TILTED)
    with pytest.raises(VerificationError, match="k = 24, offset 1"):
        dict(checks.SUITES)["hatted-duality"](ctx, random.Random(0), [24])


@pytest.mark.parametrize("name, suite", checks.SUITES, ids=[name for name, _ in checks.SUITES])
def test_suite_leaves_no_polygon_on_its_context(name, suite):
    # every weight is checked on a context of its own, so the one ``verify``
    # passes each suite holds no derivative polygon afterwards
    ctx = GhostContext(7, 2, 1)
    suite(ctx, random.Random(f"0:{name}"), list(ctx.class_members(10, 200)))
    assert not ctx._caches.get("derivative"), name


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
