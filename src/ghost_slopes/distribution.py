"""Equidistribution statistics for normalized slope multisets.

Each sample normalizes a weight's slope data by 2(p+1)/((p-1)k), which
squeezes the full threshold profile into (roughly) the unit interval.
THRESHOLD samples normalize the stretched threshold vector, DERIVATIVE
samples duplicate each derivative-polygon hull slope twice, and LINV
samples normalize the known inverse L-invariant valuations, read off the
L model's closed runs.  The exceptional block's floor is a bound, not a
value, so no sample holds it.

A sample holds its values as ascending runs of integer numerators
with multiplicities over one denominator, (p-1)k times the lcm of the raw
denominators, and builds ``Fraction``s only when they are read.  Moments
are exact rationals, one ``Fraction`` per order from integer power sums
over the runs; the Weyl table and CSV read them as one (k, kind, moments)
row per sample and compare them to the uniform-limit targets 1/(n+1).  The
discrepancy is the exact two-sided Kolmogorov distance from uniform on
[0, 1], read at each run's first and last index.  Every ``dist`` worker, the
in-process loop included, shares its weights' periods and returns one moment row per
sample and whole only its last sample of each kind, for the discrepancy.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence, Tuple

from .errors import DomainError
from .ghost import GhostContext, floor_log_bullet
from .prediction import predict_slopes
from .slopes import derivative_polygon, k_thresholds


class SampleKind(Enum):
    THRESHOLD = "threshold"
    DERIVATIVE = "derivative"
    LINV = "linv"


class DistributionSample(NamedTuple):
    """A normalized slope multiset with exact power means, held as runs.

    Run j is the value ``nums[j] / den`` ``mults[j]`` times; the runs ascend,
    neighbours may tie.  ``values`` reads every value, ascending, as
    ``Fraction``s; :meth:`moments` and :func:`discrepancy` read the runs."""

    k: int
    kind: SampleKind
    nums: Tuple[int, ...]
    mults: Tuple[int, ...]
    den: int

    @property
    def values(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in chain.from_iterable(map(repeat, self.nums, self.mults)))

    def moments(self, n_max: int) -> Tuple[Fraction, ...]:
        """Power means of orders 1..n_max over the m values,
        sum(mult * a**n) / (m * den**n) over the runs (a, mult); the terms
        of each order are one elementwise product on those of the last."""
        if not (nums := self.nums):
            raise DomainError("no values to average")
        terms = list(map(mul, self.mults, nums))
        sums = [sum(terms)]
        for _ in range(n_max - 1):
            terms = list(map(mul, terms, nums))
            sums.append(sum(terms))
        m = sum(self.mults)
        return tuple(Fraction(s, m * self.den**n) for n, s in enumerate(sums, 1))


def sample(ctx: GhostContext, k: int, kind: SampleKind) -> DistributionSample:
    """Normalized multiset of thresholds, derivative slopes, or L-data, as runs
    concatenated in ascending order with no sort: DERIVATIVE the edges s_1 < ...
    < s_N, each at twice its multiplicity; LINV s + 1 over the model's closed
    runs s_M < ... < s_N, each at 2 m mult, m = global_mult; THRESHOLD the swept
    radii, sorted, each at m, then the closed edges s_M < ... < s_N, each at
    2 m mult for its two mirror images.  A swept radius is the right end of a sweep piece within
    [1, M(k)], else 1, so at most max(1, M(k)), and every closed s_j > M(k).  A
    swept radius needs s_1 <= M(k), and s_1 >= 3/2 as every raw increment is
    (``increment-lower-bound``); so then every swept radius is <= M(k) < s_M.

    >>> ctx = GhostContext(7, 2, 1)
    >>> sample(ctx, 24, SampleKind.THRESHOLD).values
    (Fraction(1, 9), Fraction(2, 9), Fraction(2, 3), Fraction(2, 3), Fraction(1, 1), Fraction(1, 1))
    """
    # runs (num, den, mult) of the raw values, then held over their lcm lcd,
    # each value scaled by 2(p+1)/((p-1)k)
    if kind is SampleKind.THRESHOLD:
        tv, m = k_thresholds(ctx, k), ctx.global_mult
        runs = [(r.numerator, r.denominator, m) for r in sorted(tv.swept)]
        runs += [(a, b, 2 * m * mult) for a, b, mult in tv.closed]
    elif kind is SampleKind.DERIVATIVE:
        runs = [(a, b, 2 * mult) for a, b, mult in derivative_polygon(ctx, k).edges]
    elif kind is SampleKind.LINV:
        model = predict_slopes(ctx, k)
        runs = [(a + b, b, 2 * model.global_mult * mult) for a, b, mult in model.closed]
    else:
        raise DomainError(f"unknown sample kind {kind!r}")
    lcd, scale = lcm(*{b for _, b, _ in runs}), 2 * (ctx.p + 1)
    return DistributionSample(
        k=k,
        kind=kind,
        nums=tuple(scale * a * (lcd // b) for a, b, _ in runs),
        mults=tuple(mult for _, _, mult in runs),
        den=(ctx.p - 1) * k * lcd,
    )


class MomentReport(NamedTuple):
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
    nums, mults, den = sample_.nums, sample_.mults, sample_.den
    if not nums:
        raise DomainError("empty sample has no distribution")
    m, ends = sum(mults), list(accumulate(mults))
    # value i from 0 has v - i/m = t / (m den) and (i+1)/m - v = (den - t) / (m den), t = a m - i den,
    # largest at a run's first index and least at its last
    high = max(a * m - (e - c) * den for a, c, e in zip(nums, mults, ends))
    low = max(e * den - a * m for a, e in zip(nums, ends))
    return Fraction(max(0, high, low), m * den)


def sample_difference_bound(ctx: GhostContext, k: int) -> Fraction:
    """Cap on how many entries thresholds and derivative data can differ."""
    log_kb = floor_log_bullet(ctx, k)
    return Fraction(4 * log_kb + 10, ctx.p - 1) + 2


def weyl_csv(rows: Sequence[Tuple[int, SampleKind, Tuple[Fraction, ...]]]) -> str:
    """CSV of exact moments against targets, one row per (k, kind, n),
    from ``(k, kind, moments)`` rows in any order."""
    lines = ["k,kind,n,moment_num,moment_den,target_num,target_den,abs_error_decimal"]
    for k, kind, moments in sorted(rows, key=lambda r: (r[0], r[1].value)):
        for n, mo in enumerate(moments, 1):
            target = Fraction(1, n + 1)
            err = float(abs(mo - target))
            lines.append(
                f"{k},{kind.value},{n},{mo.numerator},{mo.denominator},"
                f"{target.numerator},{target.denominator},{err:.12g}"
            )
    return "\n".join(lines) + "\n"
