"""Equidistribution statistics for normalized slope multisets.

Each sample normalizes a weight's slope data by 2(p+1)/((p-1)k), which
squeezes the full threshold profile into (roughly) the unit interval.
THRESHOLD samples normalize the stretched threshold vector, DERIVATIVE
samples duplicate each derivative-polygon hull slope twice, and LINV
samples normalize the predicted inverse L-invariant valuations, with
the exceptional block standing in at its floor value.  Floor stand-ins
are bounds rather than values: a sample counts them beside its
numerators, and they stay out of moments and the discrepancy.

A sample holds its genuine values as sorted integer numerators over one
denominator, (p-1)k times the lcm of the raw denominators, and builds
``Fraction``s only when they are read.  Moments are exact rationals,
one ``Fraction`` per order from integer power sums; the Weyl table and
CSV read them as one (k, kind, moments) row per sample and compare them
to the uniform-limit targets 1/(n+1).  The discrepancy is the exact
two-sided Kolmogorov distance of the empirical distribution from uniform
on [0, 1], found on the numerators.  ``dist`` keeps one row per sample
and whole only the last sample of each kind, for its discrepancy, so its
memory no longer grows with the samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Tuple

from .errors import DomainError
from .ghost import GhostContext, floor_log_bullet
from .prediction import predict_slopes
from .slopes import derivative_polygon, k_thresholds


class SampleKind(Enum):
    THRESHOLD = "threshold"
    DERIVATIVE = "derivative"
    LINV = "linv"


@dataclass(frozen=True)
class DistributionSample:
    """A normalized slope multiset with exact power means.

    Genuine value i is ``nums[i] / den``, ``nums`` sorted ascending.  The
    ``floor_count`` floor stand-ins at ``floor_num`` (LINV only; zero
    otherwise) are bounds, not values, so they are counted beside ``nums``,
    not in it.  ``values`` reads every value, stand-ins included, ascending,
    and :meth:`genuine_values` only ``nums``, as ``Fraction``s;
    :meth:`moments` and :func:`discrepancy` read ``nums`` alone.
    """

    k: int
    kind: SampleKind
    nums: Tuple[int, ...]
    den: int
    floor_num: int
    floor_count: int

    @property
    def values(self) -> Tuple[Fraction, ...]:
        nums = sorted(self.nums + (self.floor_num,) * self.floor_count)
        return tuple(Fraction(a, self.den) for a in nums)

    @property
    def floor_value(self) -> Fraction:
        return Fraction(self.floor_num, self.den)

    def genuine_values(self) -> Tuple[Fraction, ...]:
        """The genuine values, floor stand-ins left out."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def moments(self, n_max: int) -> Tuple[Fraction, ...]:
        """Power means of orders 1..n_max over the m genuine values,
        sum(a**n) / (m * den**n) over their numerators a; the powers of
        each order are one elementwise product on those of the last."""
        if not (nums := self.nums):
            raise DomainError("no values to average")
        sums = [sum(nums)]
        powers = nums
        for _ in range(n_max - 1):
            powers = list(map(mul, powers, nums))
            sums.append(sum(powers))
        m = len(nums)
        return tuple(Fraction(s, m * self.den**n) for n, s in enumerate(sums, 1))


def sample(ctx: GhostContext, k: int, kind: SampleKind) -> DistributionSample:
    """Normalized multiset of thresholds, derivative slopes, or L-data.

    >>> ctx = GhostContext(7, 2, 1)
    >>> sample(ctx, 24, SampleKind.THRESHOLD).values
    (Fraction(1, 9), Fraction(2, 9), Fraction(2, 3), Fraction(2, 3), Fraction(1, 1), Fraction(1, 1))
    """
    # (numerator, multiplicity) pairs of the raw values over their lcm lcd,
    # each value then scaled by 2(p+1)/((p-1)k)
    floor_num = floor_count = 0
    if kind is SampleKind.THRESHOLD:
        tv = k_thresholds(ctx, k)
        lcd, raw = tv.den, [(a, tv.global_mult) for a in tv.nums]
    elif kind is SampleKind.DERIVATIVE:
        edges = derivative_polygon(ctx, k).edges
        lcd = lcm(*{b for _, b, _ in edges})
        raw = [(a * (lcd // b), 2 * mult) for a, b, mult in edges]
    elif kind is SampleKind.LINV:
        # the known block -(s + 1) and the floor -(R + 1), negated
        model = predict_slopes(ctx, k)
        floor_raw, floor_count = model.R + 1, model.exceptional_count
        lcd = lcm(model.L_den, floor_raw.denominator)
        floor_num = floor_raw.numerator * (lcd // floor_raw.denominator)
        raw = [((a + model.L_den) * (lcd // model.L_den), mult) for a, mult in model.known]
    else:
        raise DomainError(f"unknown sample kind {kind!r}")
    scale = 2 * (ctx.p + 1)
    nums = []
    for a, mult in raw:
        nums += [scale * a] * mult
    nums.sort()
    return DistributionSample(
        k=k,
        kind=kind,
        nums=tuple(nums),
        den=(ctx.p - 1) * k * lcd,
        floor_num=scale * floor_num,
        floor_count=floor_count,
    )


@dataclass(frozen=True)
class MomentReport:
    """One Weyl-criterion row: a moment order against its limit."""

    n: int
    ks: Tuple[int, ...]
    moments: Tuple[Fraction, ...]
    target: Fraction
    final_error: Fraction
    trend_monotone: bool


def weyl_moments(rows: Sequence[Tuple[int, Tuple[Fraction, ...]]]) -> tuple:
    """Moment sequences with limit targets 1/(n+1) and trend flags.

    ``rows`` are one kind's ``(k, moments)`` pairs in ascending k.  The
    trend flag records whether the distance to the target is
    non-increasing over the second half of the sequence.
    """
    if len(rows) < 3:
        raise DomainError("need at least three samples for a trend")
    ks, table = zip(*rows)
    reports = []
    for n, moments in enumerate(zip(*table), 1):
        target = Fraction(1, n + 1)
        errs = [abs(m - target) for m in moments]
        half = errs[len(errs) // 2 :]
        trend = all(b <= a for a, b in zip(half, half[1:]))
        reports.append(
            MomentReport(
                n=n,
                ks=ks,
                moments=moments,
                target=target,
                final_error=errs[-1],
                trend_monotone=trend,
            )
        )
    return tuple(reports)


def discrepancy(sample_: DistributionSample) -> Fraction:
    """Exact Kolmogorov distance of the sample from uniform on [0, 1].

    >>> ctx = GhostContext(7, 2, 1)
    >>> discrepancy(sample(ctx, 24, SampleKind.THRESHOLD))
    Fraction(1, 3)
    """
    nums, den = sample_.nums, sample_.den
    if not nums:
        raise DomainError("empty sample has no distribution")
    m = len(nums)
    # with v = a / den, v - (i-1)/m = t / (m den) and i/m - v = (den - t) / (m den)
    ts = [a * m - i * den for i, a in enumerate(nums)]
    return Fraction(max(0, max(ts), den - min(ts)), m * den)


def sample_difference_bound(ctx: GhostContext, k: int) -> Fraction:
    """Cap on how many entries thresholds and derivative data can differ."""
    log_kb = floor_log_bullet(ctx, k)
    return Fraction(4 * log_kb + 10, ctx.p - 1) + 2


def weyl_csv(rows: Sequence[Tuple[int, SampleKind, Tuple[Fraction, ...]]]) -> str:
    """CSV of exact moments against targets, one row per (k, kind, n),
    from ``(k, kind, moments)`` rows in any order."""
    lines = [
        "k,kind,n,moment_num,moment_den,target_num,target_den,abs_error_decimal"
    ]
    for k, kind, moments in sorted(rows, key=lambda r: (r[0], r[1].value)):
        for n, mo in enumerate(moments, 1):
            target = Fraction(1, n + 1)
            err = float(abs(mo - target))
            lines.append(
                f"{k},{kind.value},{n},{mo.numerator},{mo.denominator},"
                f"{target.numerator},{target.denominator},{err:.12g}"
            )
    return "\n".join(lines) + "\n"
