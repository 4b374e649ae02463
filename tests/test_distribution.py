"""Tests for normalized slope distributions and Weyl-moment reports."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghost_slopes import checks, lower_hull
from ghost_slopes.distribution import (
    DistributionSample,
    SampleKind,
    discrepancy,
    sample,
    sample_difference_bound,
    weyl_csv,
    weyl_moments,
)
from ghost_slopes.errors import DomainError
from ghost_slopes.ghost import GhostContext
from ghost_slopes.slopes import derivative_polygon

CTX = GhostContext(7, 2, 1)
CTX_WRAP = GhostContext(11, 6, 9)


def sample_weights(ctx, lo, hi, count, seed):
    pool = list(ctx.class_members(lo, hi))
    rng = random.Random(seed)
    return sorted(rng.sample(pool, min(count, len(pool))))


def make_sample(values, floor_value=Fraction(0), floor_count=0):
    # hand-built sample for statistics-only tests, over the lcm of the
    # denominators: one run per value, ties kept as neighbouring runs
    den = lcm(floor_value.denominator, *(v.denominator for v in values))
    return DistributionSample(
        k=24,
        kind=SampleKind.THRESHOLD,
        nums=tuple(sorted(int(v * den) for v in values)),
        mults=(1,) * len(values),
        den=den,
        floor_num=int(floor_value * den),
        floor_count=floor_count,
    )


class TestSampleValues:
    def test_threshold_values_frozen(self):
        s = sample(CTX, 24, SampleKind.THRESHOLD)
        assert s.values == (
            Fraction(1, 9),
            Fraction(2, 9),
            Fraction(2, 3),
            Fraction(2, 3),
            Fraction(1),
            Fraction(1),
        )

    def test_threshold_first_moment_frozen(self):
        s = sample(CTX, 24, SampleKind.THRESHOLD)
        assert s.moments(1)[-1] == Fraction(11, 18)

    def test_derivative_values_frozen(self):
        s = sample(CTX, 24, SampleKind.DERIVATIVE)
        assert s.values == (
            Fraction(2, 9),
            Fraction(2, 9),
            Fraction(2, 3),
            Fraction(2, 3),
            Fraction(1),
            Fraction(1),
        )

    def test_derivative_duplicates_hull_slopes(self):
        for k in sample_weights(CTX, 10, 600, 6, seed=11):
            s = sample(CTX, k, SampleKind.DERIVATIVE)
            norm = Fraction(2 * (CTX.p + 1), (CTX.p - 1) * k)
            expected = []
            for sl in lower_hull(enumerate(derivative_polygon(CTX, k).raw)).slope_list():
                expected.extend([norm * sl, norm * sl])
            assert s.values == tuple(sorted(expected))

    def test_linv_values_frozen(self):
        s = sample(CTX, 24, SampleKind.LINV)
        assert s.values == (
            Fraction(5, 12),
            Fraction(5, 12),
            Fraction(7, 9),
            Fraction(7, 9),
            Fraction(10, 9),
            Fraction(10, 9),
        )
        assert Fraction(s.floor_num, s.den) == Fraction(5, 12)
        assert s.floor_count == 2
        assert tuple(Fraction(a, s.den) for a in s.nums) == (Fraction(7, 9), Fraction(10, 9))
        assert s.mults == (2, 2)

    def test_linv_moment_excludes_floor_by_default(self):
        s = sample(CTX, 24, SampleKind.LINV)
        assert s.moments(1)[-1] == Fraction(17, 18)

    def test_floor_only_sample_has_no_numerators(self):
        # (5,1,0) k = 7 predicts only floor stand-ins
        s = sample(GhostContext(5, 1, 0), 7, SampleKind.LINV)
        assert s.nums == () and s.floor_count > 0
        assert s.values == (Fraction(s.floor_num, s.den),) * s.floor_count
        with pytest.raises(DomainError):
            s.moments(1)
        with pytest.raises(DomainError):
            discrepancy(s)

    def test_floor_sits_below_known_block(self):
        # the model radius is below every closed-form slope, so the
        # floor stand-in can never collide with a genuine value
        for ctx in (CTX, CTX_WRAP):
            for k in sample_weights(ctx, 10, 500, 5, seed=3):
                s = sample(ctx, k, SampleKind.LINV)
                if s.floor_count and s.nums:
                    assert s.floor_num < s.nums[0]

    def test_sizes(self):
        for ctx in (CTX, CTX_WRAP):
            for k in sample_weights(ctx, 10, 500, 5, seed=5):
                d_new = 2 * sum(
                    m for _, m in derivative_polygon(ctx, k).slopes
                )
                m = ctx.global_mult
                assert len(sample(ctx, k, SampleKind.THRESHOLD).values) == m * d_new
                assert len(sample(ctx, k, SampleKind.DERIVATIVE).values) == d_new
                assert len(sample(ctx, k, SampleKind.LINV).values) == m * d_new

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            sample(CTX, 24, "threshold")

    def test_empty_sample(self):
        ctx = GhostContext(11, 2, 0)
        s = sample(ctx, 4, SampleKind.THRESHOLD)
        assert s.values == ()
        with pytest.raises(DomainError):
            s.moments(1)
        with pytest.raises(DomainError):
            discrepancy(s)


class TestThresholdDerivativeComparison:
    def test_known_blocks_agree(self):
        # entries above the normalized zero-distance cutoff coincide, and
        # check_sample_relation also bounds the differing entries
        assert CTX.global_mult == 1
        for k in sample_weights(CTX, 10, 800, 8, seed=7):
            checks.check_sample_relation(CTX, k)

    def test_difference_count_within_bound(self):
        for k in sample_weights(CTX, 10, 2000, 12, seed=9):
            checks.check_sample_relation(CTX, k)

    def test_difference_bound_frozen(self):
        assert sample_difference_bound(CTX, 24) == Fraction(11, 3)
        st_ = sample(CTX, 24, SampleKind.THRESHOLD)
        sd = sample(CTX, 24, SampleKind.DERIVATIVE)
        assert sum(1 for a, b in zip(st_.values, sd.values) if a != b) == 1


class TestDiscrepancy:
    def test_uniform_grid(self):
        for m in (1, 2, 5, 10, 50):
            grid = [Fraction(2 * i - 1, 2 * m) for i in range(1, m + 1)]
            assert discrepancy(make_sample(grid)) == Fraction(1, 2 * m)

    def test_single_point_at_one(self):
        assert discrepancy(make_sample([Fraction(1)])) == Fraction(1)

    def test_threshold_sample_frozen(self):
        assert discrepancy(sample(CTX, 24, SampleKind.THRESHOLD)) == Fraction(1, 3)

    def test_include_floor_frozen(self):
        s = sample(CTX, 24, SampleKind.LINV)
        assert discrepancy(s) == Fraction(7, 9)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1), min_size=1, max_size=30
        )
    )
    def test_bounds(self, vals):
        d = discrepancy(make_sample(vals))
        assert Fraction(1, 2 * len(vals)) <= d <= 1


def moment_rows(samples, n_max):
    """The (k, moments) rows the report reads, one per sample."""
    return [(s.k, s.moments(n_max)) for s in samples]


class TestWeylMoments:
    def test_reports(self):
        samples = [
            sample(CTX, k, SampleKind.THRESHOLD)
            for k in list(CTX.class_members(10, 400))
        ]
        reports = weyl_moments(moment_rows(samples, 3))
        assert [r.n for r in reports] == [1, 2, 3]
        for r in reports:
            assert r.target == Fraction(1, r.n + 1)
            assert r.ks == tuple(s.k for s in samples)
            assert r.moments == tuple(s.moments(r.n)[-1] for s in samples)
            assert r.final_error == abs(r.moments[-1] - r.target)

    def test_needs_three_samples(self):
        samples = [sample(CTX, k, SampleKind.THRESHOLD) for k in (24, 30)]
        with pytest.raises(DomainError):
            weyl_moments(moment_rows(samples, 1))

    def test_trend_flag(self):
        ks = list(CTX.class_members(10, 200))[:4]
        means = [(Fraction(1, 2) + Fraction(1, 10 + i),) for i in range(4)]
        assert weyl_moments(list(zip(ks, means)))[0].trend_monotone
        assert not weyl_moments(list(zip(ks, reversed(means))))[0].trend_monotone


class TestCsv:
    def test_header_and_rows(self):
        s = sample(CTX, 24, SampleKind.THRESHOLD)
        text = weyl_csv([(24, s.kind, s.moments(2))])
        lines = text.strip().split("\n")
        assert lines[0] == (
            "k,kind,n,moment_num,moment_den,target_num,target_den,"
            "abs_error_decimal"
        )
        assert len(lines) == 3
        assert lines[1].startswith("24,threshold,1,11,18,1,2,")
        assert lines[2].startswith("24,threshold,2,239,486,1,3,")
        err = float(lines[1].rsplit(",", 1)[1])
        assert abs(err - abs(11 / 18 - 1 / 2)) < 1e-12

    def test_rows_sorted_by_weight(self):
        rows = [
            (k, SampleKind.THRESHOLD, sample(CTX, k, SampleKind.THRESHOLD).moments(1))
            for k in (102, 24, 66)
        ]
        lines = weyl_csv(rows).strip().split("\n")[1:]
        assert [int(line.split(",", 1)[0]) for line in lines] == [24, 66, 102]
