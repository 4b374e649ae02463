"""Tests for the slope-prediction model, comparison rule, and floors."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghost_slopes import (
    GhostContext,
    Valuation,
    build_model,
    derivative_polygon,
    exceptional_bound,
    predict_slopes,
)
from ghost_slopes import VerificationError, checks, prediction
from ghost_slopes.polygon import lower_hull
from ghost_slopes.prediction import PredictionModel, model_radius
from strategies import Rel, context_and_weight, eq_cells, pattern_strict_counts_oracle, rel

CTX = GhostContext(7, 2, 1)
CTX_WRAP = GhostContext(11, 6, 9)
CTX_ODD = GhostContext(11, 3, 0)


def sample_weights(ctx, lo, hi, count, seed):
    import random

    rng = random.Random(seed)
    pool = list(ctx.class_members(lo, hi))
    return sorted(rng.sample(pool, min(count, len(pool))))


def pattern(m):
    """The d x d comparison table, entry by entry through the per-cell rule ``rel``."""
    return tuple(
        tuple(rel(m, i, j) for j in range(1, m.d + 1)) for i in range(1, m.d + 1)
    )


# -- the model ----------------------------------------------------------------


def test_model_frozen_k24():
    # the model is its closed runs and R: no per-index sequence is stored
    assert PredictionModel._fields == ("k", "d", "closed", "global_mult", "R")
    m = build_model(CTX, 24)
    assert m.d == 6
    assert m.R == Fraction(11, 4)
    assert (m.closed, m.global_mult) == (((6, 1, 1), (9, 1, 1)), 1)
    assert m.closed == derivative_polygon(CTX, 24).edges[1:]
    assert m.L_seq == (
        Fraction(9),
        Fraction(18),
        Fraction(24),
        Fraction(30),
        Fraction(30) + Fraction(11, 4),
        Fraction(30) + 2 * Fraction(11, 4),
    )
    assert m.known_size == 4


def test_model_radius_frozen_k24():
    assert model_radius(CTX, 24) == Fraction(11, 4)


def test_model_radius_bracket():
    for ctx, ks in (
        (CTX, sample_weights(CTX, 20, 1200, 12, seed=5)),
        (CTX_WRAP, sample_weights(CTX_WRAP, 40, 1200, 8, seed=6)),
    ):
        for k in ks:
            dp = derivative_polygon(ctx, k)
            if not dp.raw or dp.M_index > len(dp.slopes):
                continue
            r = model_radius(ctx, k)
            m_val = dp.m_of_k
            assert m_val < r < m_val + 1
            assert r < dp.slopes[dp.M_index - 1][0]


def test_model_L_increments_are_known_steps_then_R():
    for k in (24, 90, 366):
        m = build_model(CTX, k)
        diffs = [m.L_seq[0]] + [
            m.L_seq[j + 1] - m.L_seq[j] for j in range(m.d - 1)
        ]
        expected = [Fraction(a, b) for a, b, mult in reversed(m.closed) for _ in range(2 * m.global_mult * mult)]
        assert diffs == expected + [m.R] * m.exceptional_count
        # increments never increase, so the negated hull is convex
        assert diffs == sorted(diffs, reverse=True)


def test_model_hull_profile_frozen_k24():
    m = build_model(CTX, 24)
    hull = lower_hull([(0, Fraction(0))] + [(j, -L) for j, L in enumerate(m.L_seq, 1)])
    assert hull.slopes == (
        (Fraction(-9), 2),
        (Fraction(-6), 2),
        (Fraction(-11, 4), 2),
    )


def test_model_hull_asserted_across_contexts():
    for ctx, ks in (
        (CTX, (24, 48, 90, 174, 366, 708)),
        (CTX_WRAP, (56, 276, 496)),
        (CTX_ODD, (5, 115, 1535)),
    ):
        for k in ks:
            build_model(ctx, k)  # raises VerificationError on a bad hull


def _hull_check(model):
    """The model hull checked by a hull: L_1..L_d are d values, and the lower
    hull of {(j, -L_j)} and the origin has the edges (-step, width) of the
    known blocks, then (-R, the rest of d)."""
    if len(model.L_seq) != model.d:
        raise VerificationError(f"L has {len(model.L_seq)} entries, d = {model.d}")
    hull = lower_hull([(0, Fraction(0))] + [(j, -L) for j, L in enumerate(model.L_seq, 1)])
    expected = [(-Fraction(a, b), 2 * model.global_mult * mult) for a, b, mult in reversed(model.closed)]
    if flat := model.exceptional_count:
        expected.append((-model.R, flat))
    if list(hull.slopes) != expected:
        raise VerificationError(f"{list(hull.slopes)} != {expected}")


# planted model faults: (plant, its error at k = 24 on (7,2,1), where d = 6 and
# the steps are 9, 6 and 11/4, top block first; the top block is the last run)
MODEL_PLANTS = {
    # the second block steps by the top block's slope, so a hull merges them
    "equal-adjacent-blocks": (lambda m: m._replace(closed=(*m.closed[:-2], (*m.closed[-1][:2], m.closed[-2][2]),
                                                          m.closed[-1])),
                              "block 2 expects step below 9, found 9"),
    # the top block widened by 2 m d, so L runs past d
    "known-past-d": (lambda m: m._replace(closed=(*m.closed[:-1], (*m.closed[-1][:2], m.closed[-1][2] + m.d))),
                     "the known blocks run past d = 6"),
}


@pytest.mark.parametrize("plant, message", MODEL_PLANTS.values(), ids=MODEL_PLANTS)
def test_model_hull_proof_fails_on_planted_faults(plant, message):
    for ctx, k in ((CTX, 24), (CTX, 366), (CTX_WRAP, 276), (CTX_ODD, 1535)):
        model = build_model(ctx, k)
        assert len(model.closed) >= 2  # two known blocks to merge
        _hull_check(model)
        planted = plant(model)
        with pytest.raises(VerificationError, match=message if k == 24 else "model hull mismatch"):
            prediction._assert_model_hull(planted)
        with pytest.raises(VerificationError):
            _hull_check(planted)


def test_model_empty_when_no_new_dimension():
    ctx = GhostContext(11, 2, 0)
    m = build_model(ctx, 4)
    assert m.d == 0
    assert m.L_seq == ()
    assert pattern(m) == ()
    assert predict_slopes(ctx, 4).exceptional_count == 0


# -- the comparison rule ------------------------------------------------------


def test_pattern_frozen_k24():
    GT, GE, EQ = Rel.GT, Rel.GE, Rel.EQ
    m = build_model(CTX, 24)
    assert pattern(m) == (
        (GE, EQ, GT, GT, GT, GT),
        (GE, GE, GE, EQ, GT, GT),
        (GE, GE, GE, GE, GE, GE),
        (GE, GE, GE, EQ, GT, GT),
        (GE, EQ, GT, GT, GT, GT),
        (GT, GT, GT, GT, GT, GT),
    )
    assert tuple(sorted(eq_cells(m))) == ((1, 2), (2, 4), (4, 4), (5, 2))


def test_pattern_all_known_depth_four():
    # d = 8 with four unit blocks, every slope cleared: equalities walk the
    # doubled diagonal and mirror back up, bottom row strict throughout
    # rel reads only d and the known widths
    m = PredictionModel(k=None, d=8, closed=((0, 1, 1),) * 4, global_mult=1, R=Fraction(0))
    rows = pattern(m)
    text = ["".join({Rel.GT: ">", Rel.GE: "e", Rel.EQ: "="}[r] for r in row) for row in rows]
    assert text == [
        "e=>>>>>>",
        "eee=>>>>",
        "eeeee=>>",
        "eeeeeee=",
        "eeeee=>>",
        "eee=>>>>",
        "e=>>>>>>",
        ">>>>>>>>",
    ]


def test_pattern_row_mirror():
    for ctx, k in ((CTX, 174), (CTX_WRAP, 276), (CTX_ODD, 115)):
        m = build_model(ctx, k)
        rows = pattern(m)
        for i in range(1, m.d // 2 + 1):
            assert rows[i - 1] == rows[m.d - i - 1]


def test_pattern_equality_count():
    for ctx, k in ((CTX, 24), (CTX, 366), (CTX_WRAP, 276), (CTX_ODD, 1535)):
        m = build_model(ctx, k)
        enumerated = 2 * len(m.closed)
        overlap = 1 if m.known_size == m.d else 0
        assert len(eq_cells(m)) == enumerated - overlap


def test_pattern_strict_count_in_equality_columns():
    # each column holding an equality carries exactly j - 1 strict entries
    for ctx, k in ((CTX, 24), (CTX, 90), (CTX_WRAP, 276), (CTX_ODD, 1535)):
        m = build_model(ctx, k)
        for j in sorted({c for _, c in eq_cells(m)}):
            col = [rel(m, i, j) for i in range(1, m.d + 1)]
            assert col.count(Rel.GT) == j - 1
            assert col.count(Rel.EQ) in (1, 2)


def test_pattern_last_row_strict():
    for k in (24, 48, 90):
        m = build_model(CTX, k)
        assert set(pattern(m)[-1]) == {Rel.GT}


@example(case=(GhostContext(7, 2, 1), 24))
@example(case=(GhostContext(11, 2, 0), 4))  # no known block
@given(case=context_and_weight())
@settings(max_examples=100, deadline=None)
def test_pattern_counted_off_the_blocks_matches_per_cell_rule(case):
    # every equality column of a built model reads j - 1 under the per-cell
    # rule, as the hull that build_model asserts implies
    m = build_model(*case)
    assert all(strict == j - 1 for j, strict in pattern_strict_counts_oracle(m))


@example(d=1, halves=[1])  # 2*acc > d, yet the one column counts j - 1
@example(d=6, halves=[0, 2, 0, 1])  # zero-width blocks repeat a column, the first one 0
@given(d=st.integers(0, 40), halves=st.lists(st.integers(0, 12), max_size=8))
@settings(max_examples=300, deadline=None)
def test_pattern_count_matches_per_cell_rule_on_synthetic_blocks(d, halves):
    # any d and widths, blocks that run past d included: an equality column
    # j = 2*acc counts j - 1 strict entries exactly when 2*acc <= d, but for a
    # column 0 and at d = acc = 1.  So blocks of width >= 2 that fit in d, which
    # build_model's hull assertion requires, give every column j - 1
    m = PredictionModel(k=None, d=d, closed=tuple((0, 1, w) for w in reversed(halves)), global_mult=1, R=Fraction(0))
    for j, strict in pattern_strict_counts_oracle(m):
        assert (strict == j - 1) == (0 < j <= d or j == 2 == 2 * d), (d, j, strict)


# -- predictions --------------------------------------------------------------


def test_predict_frozen_k24():
    p = predict_slopes(CTX, 24)
    assert p.linv_slopes_known == ((Fraction(-10), 2), (Fraction(-7), 2))
    assert p.linv_floor == Valuation(Fraction(-15, 4))
    assert p.exceptional_count == 2


def test_predict_json_k24():
    blob = json.dumps(predict_slopes(CTX, 24).to_json_dict(), sort_keys=True)
    assert json.loads(blob) == {
        "k": 24,
        "linv_known": [["-10", 2], ["-7", 2]],
        "floor": "-15/4",
        "exceptional": 2,
    }


def test_prediction_partition():
    for ctx, ks in (
        (CTX, sample_weights(CTX, 20, 2000, 15, seed=7)),
        (GhostContext(11, 6, 9, global_mult=3), (56, 276, 496)),
    ):
        for k in ks:
            p = predict_slopes(ctx, k)
            total = sum(mult for _, mult in p.linv_slopes_known)
            m = build_model(ctx, k)
            assert total + p.exceptional_count == m.d
            assert [v for v, _ in p.linv_slopes_known] == sorted(
                v for v, _ in p.linv_slopes_known
            )


def test_known_block_matches_thresholds():
    # closed-form threshold entries, negated and shifted by one, are the
    # known L-invariant block, multiplicity for multiplicity
    for ctx, ks in (
        (CTX, (24, 48, 90, 174, 366)),
        (CTX_WRAP, (56, 276)),
    ):
        for k in ks:
            checks.check_threshold_relation(ctx, k)


def test_exceptional_count_matches_sweep_block():
    for ctx, ks in (
        (CTX, (24, 48, 90, 174)),
        (GhostContext(11, 6, 9, global_mult=3), (56, 276)),
    ):
        for k in ks:
            checks.check_threshold_relation(ctx, k)


def test_exceptional_bound_frozen_k24():
    assert exceptional_bound(CTX, 24) == Fraction(11, 3)


def test_exceptional_within_bound():
    for ctx, ks in (
        (CTX, sample_weights(CTX, 20, 5000, 25, seed=8)),
        (CTX_ODD, sample_weights(CTX_ODD, 25, 5000, 15, seed=9)),
        (GhostContext(11, 6, 9, global_mult=3), (56, 276, 496, 1046)),
    ):
        for k in ks:
            checks.check_threshold_relation(ctx, k)


# -- integrality --------------------------------------------------------------


def outside_half_weight_class(ctx, k):
    """The known L-invariant slopes (value, multiplicity) outside Z + k/2."""
    half = Fraction(k, 2)
    return [(v, m) for v, m in predict_slopes(ctx, k).linv_slopes_known if (v - half).denominator != 1]


# (context, last weight drawn): a even and odd, m = 3 in strict mode, and p = 5
INTEGRALITY_CONTEXTS = (
    (GhostContext(7, 2, 1), 2000),
    (GhostContext(11, 6, 9, global_mult=3, mode="strict"), 2000),
    (GhostContext(13, 5, 11), 2000),
    (GhostContext(17, 5, 3), 2000),
    (GhostContext(13, 7, 2), 2000),
    (GhostContext(11, 3, 0), 2000),
    (GhostContext(5, 1, 0), 1200),
)


@pytest.mark.parametrize(
    "ctx, hi", INTEGRALITY_CONTEXTS, ids=[f"{c.p}-{c.a}-{c.s_eps}" for c, _ in INTEGRALITY_CONTEXTS]
)
def test_linv_integrality_follows_from_checked_facts(ctx, hi):
    # the known L-invariant slopes are -(s + 1) of the derivative slopes s from
    # M_index up, with multiplicity twice m times theirs; slope-integrality puts
    # a unit-multiplicity s in a/2 + Z and every other s in Z; and k = a mod 2.
    # So -(s + 1) lies in Z + k/2 unless k is odd and s has multiplicity >= 2.
    for k in ctx.class_members(0, hi)[::7]:
        dp = derivative_polygon(ctx, k)
        closed = dp.slopes[dp.M_index - 1 :][::-1]
        known = tuple((-(s + 1), 2 * ctx.global_mult * mult) for s, mult in closed)
        assert predict_slopes(ctx, k).linv_slopes_known == known, k
        checks.check_slope_integrality(ctx, k)
        assert k % 2 == ctx.a % 2
        expected = [slope for slope, (_, mult) in zip(known, closed) if k % 2 and mult > 1]
        assert outside_half_weight_class(ctx, k) == expected, k


def test_integrality_frozen_k24():
    # the slopes -10 and -7, each of multiplicity 2 (test_predict_frozen_k24)
    assert outside_half_weight_class(CTX, 24) == []


def test_integrality_even_a_clean():
    for ctx, ks in (
        (CTX, sample_weights(CTX, 20, 2000, 12, seed=10)),
        (CTX_WRAP, (56, 276, 496)),
    ):
        for k in ks:
            assert outside_half_weight_class(ctx, k) == []


def test_integrality_odd_a_even_multiplicity_exception():
    # with a odd the half-weight class is half-integral, but doubled hull
    # slopes are integers, so they fall outside it; frozen witness
    assert outside_half_weight_class(CTX_ODD, 1535) == [(Fraction(-609), 4)]


def test_integrality_odd_a_unit_multiplicity_clean():
    # unit-multiplicity slopes land in a/2 + Z, which is the half-weight class
    for k in sample_weights(CTX_ODD, 25, 900, 10, seed=11):
        assert all(m != 2 for _, m in outside_half_weight_class(CTX_ODD, k))
