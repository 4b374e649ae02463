"""Equidistribution statistics for normalized slope multisets.

Each sample normalizes a weight's slope data by 2(p+1)/((p-1)k), which
squeezes the full threshold profile into (roughly) the unit interval.
THRESHOLD samples normalize the stretched threshold vector, DERIVATIVE
samples duplicate each derivative-polygon hull slope twice, and LINV
samples normalize the predicted inverse L-invariant valuations, with
the exceptional block standing in at its floor value.  Floor stand-ins
are tracked separately and stay out of moments and the discrepancy,
since they are bounds rather than values.

Moments are exact rationals; the Weyl table compares them to the
uniform-limit targets 1/(n+1), and the discrepancy is the exact
two-sided Kolmogorov distance of the empirical distribution from
uniform on [0, 1].
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import DomainError
from .ghost import GhostContext, WeightIndex, floor_log_bullet
from .prediction import predict_slopes
from .slopes import derivative_polygon, k_thresholds


class SampleKind(Enum):
    THRESHOLD = "threshold"
    DERIVATIVE = "derivative"
    LINV = "linv"


@dataclass(frozen=True)
class DistributionSample:
    """A normalized slope multiset with exact power means.

    ``values`` is sorted ascending and includes ``floor_count`` floor
    stand-ins (LINV only; zero otherwise).  ``moment`` computes the
    power mean of any order over the genuine values.
    """

    k: WeightIndex
    kind: SampleKind
    values: Tuple[Fraction, ...]
    floor_value: Fraction
    floor_count: int

    def genuine_values(self) -> Tuple[Fraction, ...]:
        """The values with floor stand-ins removed: every stand-in equals
        ``floor_value``, so they form one block of the sorted values."""
        i = bisect_left(self.values, self.floor_value)
        return self.values[:i] + self.values[i + self.floor_count :]

    def moment(self, n: int) -> Fraction:
        vals = self.genuine_values()
        if not vals:
            raise DomainError("no values to average")
        return Fraction(sum(v**n for v in vals), len(vals))


def _norm(ctx: GhostContext, k: int) -> Fraction:
    return Fraction(2 * (ctx.p + 1), (ctx.p - 1) * k)


def sample(ctx: GhostContext, k: int, kind: SampleKind) -> DistributionSample:
    """Normalized multiset of thresholds, derivative slopes, or L-data.

    >>> ctx = GhostContext(7, 2, 1)
    >>> sample(ctx, 24, SampleKind.THRESHOLD).values
    (Fraction(1, 9), Fraction(2, 9), Fraction(2, 3), Fraction(2, 3), Fraction(1, 1), Fraction(1, 1))
    """
    norm = _norm(ctx, k)
    floor_value = Fraction(0)
    floor_count = 0
    if kind is SampleKind.THRESHOLD:
        tv = k_thresholds(ctx, k)
        vals = [norm * cs.value for cs in tv.global_thresholds]
    elif kind is SampleKind.DERIVATIVE:
        dp = derivative_polygon(ctx, k)
        vals = []
        for s in dp.increments:
            vals.extend([norm * s, norm * s])
    elif kind is SampleKind.LINV:
        pred = predict_slopes(ctx, k)
        vals = []
        for v, mult in pred.linv_slopes_known:
            vals.extend([norm * (-v)] * mult)
        floor_value = norm * (-pred.linv_floor.value)
        floor_count = pred.exceptional_count
        vals.extend([floor_value] * floor_count)
    else:
        raise DomainError(f"unknown sample kind {kind!r}")
    return DistributionSample(
        k=ctx.weight(k),
        kind=kind,
        values=tuple(sorted(vals)),
        floor_value=floor_value,
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


def weyl_moments(samples: Sequence[DistributionSample], n_max: int) -> tuple:
    """Moment sequences with limit targets 1/(n+1) and trend flags.

    The trend flag records whether the distance to the target is
    non-increasing over the second half of the (k-sorted) sequence.
    """
    if len(samples) < 3:
        raise DomainError("need at least three samples for a trend")
    ordered = sorted(samples, key=lambda s: s.k.k)
    ks = tuple(s.k.k for s in ordered)
    reports = []
    for n in range(1, n_max + 1):
        target = Fraction(1, n + 1)
        moments = tuple(s.moment(n) for s in ordered)
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
    vals = sample_.genuine_values()
    if not vals:
        raise DomainError("empty sample has no distribution")
    m = len(vals)
    best = Fraction(0)
    for i, v in enumerate(vals, 1):
        best = max(best, v - Fraction(i - 1, m), Fraction(i, m) - v)
    return best


def sample_difference_bound(ctx: GhostContext, k: int) -> Fraction:
    """Cap on how many entries thresholds and derivative data can differ."""
    log_kb = floor_log_bullet(ctx, k)
    return Fraction(4 * log_kb + 10, ctx.p - 1) + 2


def weyl_csv(samples: Sequence[DistributionSample], n_max: int) -> str:
    """CSV of exact moments against targets, one row per (k, kind, n)."""
    lines = [
        "k,kind,n,moment_num,moment_den,target_num,target_den,abs_error_decimal"
    ]
    for s in sorted(samples, key=lambda s: (s.k.k, s.kind.value)):
        for n in range(1, n_max + 1):
            mo = s.moment(n)
            target = Fraction(1, n + 1)
            err = float(abs(mo - target))
            lines.append(
                f"{s.k.k},{s.kind.value},{n},{mo.numerator},{mo.denominator},"
                f"{target.numerator},{target.denominator},{err:.12g}"
            )
    return "\n".join(lines) + "\n"
