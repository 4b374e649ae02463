"""Tests for the slope-prediction model, comparison rule, and floors."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghost_slopes import (
    GhostContext,
    Valuation,
    build_model,
    derivative_polygon,
    exceptional_bound,
    gs_translate,
    integrality_report,
    predict_slopes,
    slope_window,
)
from ghost_slopes import VerificationError, checks, prediction
from ghost_slopes.polygon import integer_hull, lower_hull
from ghost_slopes.prediction import PredictionModel, Rel, model_radius

CTX = GhostContext(7, 2, 1)
CTX_WRAP = GhostContext(11, 6, 9)
CTX_ODD = GhostContext(11, 3, 0)


def sample_weights(ctx, lo, hi, count, seed):
    import random

    rng = random.Random(seed)
    pool = list(ctx.class_members(lo, hi))
    return sorted(rng.sample(pool, min(count, len(pool))))


def pattern(m):
    """The d x d comparison table, entry by entry through ``rel``."""
    return tuple(
        tuple(m.rel(i, j) for j in range(1, m.d + 1)) for i in range(1, m.d + 1)
    )


# -- the model ----------------------------------------------------------------


def test_model_frozen_k24():
    m = build_model(CTX, 24)
    assert m.d == 6
    assert m.M_index == 2
    assert m.R == Fraction(11, 4)
    assert m.block_sizes == (1, 1, 1)
    assert m.r_list == (Fraction(11, 4), Fraction(6), Fraction(9))
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
            m_val = dp.m_of_k.value
            assert m_val < r < m_val + 1
            assert r < dp.slopes[dp.M_index - 1][0]
            assert slope_window(ctx, k, dp.M_index)[0].value < r


def test_model_L_increments_match_r_list():
    for k in (24, 90, 366):
        m = build_model(CTX, k)
        diffs = [m.L_seq[0]] + [
            m.L_seq[j + 1] - m.L_seq[j] for j in range(m.d - 1)
        ]
        expected = []
        for l in range(len(m.block_sizes), 0, -1):
            expected.extend([m.r_list[l - 1]] * (2 * m.block_sizes[l - 1]))
        assert diffs == expected
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
    """The model hull checked by a hull: the lower hull of {(j, -L_j)} and
    the origin has the edges (-r_l, 2 * block l) for l = N..M_index, then
    (-R, the rest of d)."""
    hull = integer_hull(range(model.d + 1), [0, *(-a for a in model.L_nums)], model.L_den)
    expected = [
        (-model.r_list[l - 1], 2 * model.block_sizes[l - 1])
        for l in range(len(model.block_sizes), model.M_index - 1, -1)
    ]
    if flat := model.d - model.known_size:
        expected.append((-model.R, flat))
    if list(hull.slopes) != expected:
        raise VerificationError(f"{list(hull.slopes)} != {expected}")


def _with_steps(model, steps):
    blocks = (repeat(steps[l], 2 * model.block_sizes[l]) for l in reversed(range(len(steps))))
    return replace(model, steps=steps, L_nums=tuple(accumulate(chain.from_iterable(blocks))))


# planted model faults: (plant, its error at k = 24 on (7,2,1), where L_den = 4
# and the steps are 36, 24 and 11, top block first)
MODEL_PLANTS = {
    # L_2 - L_1, inside the top block, grows by 1 / L_den
    "step-inside-block": (lambda m: replace(m, L_nums=(m.L_nums[0], *(a + 1 for a in m.L_nums[1:]))),
                          "block 1 expects step 9, found 37/4"),
    # the second block steps by the top block's slope, so a hull merges them
    "equal-adjacent-blocks": (lambda m: _with_steps(m, m.steps[:-2] + m.steps[-1:] * 2),
                              "block 2 expects step below 9, found 9"),
    "L-one-short": (lambda m: replace(m, L_nums=m.L_nums[:-1]),
                    "block 3 expects step 11/4, found the end of L"),
}


@pytest.mark.parametrize("plant, message", MODEL_PLANTS.values(), ids=MODEL_PLANTS)
def test_model_hull_proof_fails_on_planted_faults(plant, message):
    for ctx, k in ((CTX, 24), (CTX, 366), (CTX_WRAP, 276), (CTX_ODD, 1535)):
        model = build_model(ctx, k)
        assert len(model.steps) - model.M_index >= 1  # two known blocks to merge
        _hull_check(model)
        planted = plant(model)
        with pytest.raises(VerificationError, match=message if k == 24 else "model hull mismatch"):
            prediction._assert_model_hull(planted)
        with pytest.raises(VerificationError):
            _hull_check(planted)


def test_model_hull_proof_fails_on_an_entry_past_d():
    # a hull over the abscissae 0..d never reads L_{d+1}; the proof does
    model = build_model(CTX, 24)
    planted = replace(model, L_nums=model.L_nums + (model.L_nums[-1] + model.steps[0],))
    with pytest.raises(VerificationError, match="L runs past d = 6"):
        prediction._assert_model_hull(planted)


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
    assert tuple(sorted(m.eq_cells)) == ((1, 2), (2, 4), (4, 4), (5, 2))


def test_pattern_all_known_depth_four():
    # d = 8 with four unit blocks, every slope cleared: equalities walk the
    # doubled diagonal and mirror back up, bottom row strict throughout
    # rel reads only d, block_sizes and M_index
    m = PredictionModel(
        k=None, d=8, steps=(), L_nums=(), L_den=1, R=Fraction(0),
        M_index=1, block_sizes=(1, 1, 1, 1),
    )
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
        n_top = len(m.block_sizes)
        enumerated = 2 * (n_top - m.M_index + 1)
        overlap = 1 if m.known_size == m.d else 0
        assert len(m.eq_cells) == enumerated - overlap


def test_pattern_strict_count_in_equality_columns():
    # each column holding an equality carries exactly j - 1 strict entries
    for ctx, k in ((CTX, 24), (CTX, 90), (CTX_WRAP, 276), (CTX_ODD, 1535)):
        m = build_model(ctx, k)
        for j in sorted({c for _, c in m.eq_cells}):
            col = [m.rel(i, j) for i in range(1, m.d + 1)]
            assert col.count(Rel.GT) == j - 1
            assert col.count(Rel.EQ) in (1, 2)


def test_pattern_last_row_strict():
    for k in (24, 48, 90):
        m = build_model(CTX, k)
        assert set(pattern(m)[-1]) == {Rel.GT}


# -- predictions --------------------------------------------------------------


def test_predict_frozen_k24():
    p = predict_slopes(CTX, 24)
    assert p.a1_slopes_known == ((Fraction(13), 2), (Fraction(16), 2))
    assert p.a1_floor == Valuation(Fraction(77, 4))
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


def test_prediction_values_mirror_a1():
    for k in (24, 90, 174, 366):
        p = predict_slopes(CTX, k)
        for (a_val, a_mult), (l_val, l_mult) in zip(
            p.a1_slopes_known, p.linv_slopes_known
        ):
            assert a_mult == l_mult
            assert a_val == (k - 2) + l_val + 1
        assert p.a1_floor.value == (k - 2) + p.linv_floor.value + 1


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


# -- the eigenvalue translation -----------------------------------------------


def test_gs_translate_frozen():
    assert gs_translate(24, [(Fraction(13), 2)]) == ((Fraction(-8), 2),)
    assert gs_translate(24, [(Fraction(0), 1)]) == ((Fraction(-21), 1),)


def test_gs_translate_preserves_multiplicities():
    p = predict_slopes(CTX, 366)
    out = gs_translate(366, p.a1_slopes_known)
    assert [m for _, m in out] == [m for _, m in p.a1_slopes_known]
    assert len({v for v, _ in out}) == len(out)


def test_gs_translate_offset_against_threshold_relation():
    # the translated values sit exactly 2 above the threshold relation
    for k in (24, 90, 174):
        p = predict_slopes(CTX, k)
        translated = gs_translate(k, p.a1_slopes_known)
        for (t_val, _), (l_val, _) in zip(translated, p.linv_slopes_known):
            assert t_val - l_val == 2


@given(shift=st.integers(min_value=-50, max_value=50))
@settings(max_examples=40, deadline=None)
def test_gs_translate_is_a_shift(shift):
    base = [(Fraction(shift), 3), (Fraction(shift + 5, 2), 1)]
    out = gs_translate(30, base)
    assert all(o - b == -(30 - 3) for (o, _), (b, _) in zip(out, base))


# -- integrality --------------------------------------------------------------


def test_integrality_frozen_k24():
    rep = integrality_report(CTX, 24)
    assert rep.entries == (
        (Fraction(-10), 2, True),
        (Fraction(-7), 2, True),
    )
    assert rep.exception_count == 0
    assert rep.exceptional_count == 2


def test_integrality_even_a_clean():
    for ctx, ks in (
        (CTX, sample_weights(CTX, 20, 2000, 12, seed=10)),
        (CTX_WRAP, (56, 276, 496)),
    ):
        for k in ks:
            assert integrality_report(ctx, k).exception_count == 0


def test_integrality_odd_a_even_multiplicity_exception():
    # with a odd the half-weight class is half-integral, but doubled hull
    # slopes are integers, so they are flagged; frozen witness
    rep = integrality_report(CTX_ODD, 1535)
    flagged = [(v, m) for v, m, ok in rep.entries if not ok]
    assert flagged == [(Fraction(-609), 4)]
    assert rep.exception_count == 4


def test_integrality_odd_a_unit_multiplicity_clean():
    # unit-multiplicity slopes land in a/2 + Z, which is the half-weight class
    for k in sample_weights(CTX_ODD, 25, 900, 10, seed=11):
        rep = integrality_report(CTX_ODD, k)
        for v, m, ok in rep.entries:
            if m == 2:  # doubled unit multiplicity
                assert ok
