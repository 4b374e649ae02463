"""The L model of a weight and the L-invariant slopes it predicts.

The L model of a weight is its known blocks and the model radius R: the
sequence L_1 < ... < L_d grows by s_N on the first 2*d_N steps, then by
s_{N-1}, and so on down to s_M, then by R on the last
d - 2*(d_N + ... + d_M) steps, so the hull of {(j, -L_j)} and the origin
replays the known derivative slopes and then flattens at -R.  The model
holds the blocks as (step, width) pairs and R, and reads L off them;
``checks.pattern_strict_counts`` counts its comparison pattern off d and the widths.

Predicted slopes are facts of the same model, which ``predict_slopes``
returns: a known block read off the closed threshold relation
(L-invariant slope = -(threshold + 1)) plus a floor for the central
block, whose size is the exceptional count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from math import lcm
from typing import Tuple

from .errors import VerificationError
from .ghost import GhostContext, dimensions, floor_log_bullet
from .slopes import derivative_polygon
from .valuation import format_rational, ratio_text


@dataclass(frozen=True)
class PredictionModel:
    """The L model of one weight.

    ``known`` holds the blocks l = N down to M_index, top block first, as
    (step numerator over ``L_den``, width): the step is the derivative
    slope s_l, the width twice its stretched multiplicity.  R steps the
    remaining :attr:`exceptional_count` of the d steps, and ``L_den`` is
    the lcm of R's and the steps' denominators.  :attr:`L_seq` reads L_1..L_d off the blocks.

    The known multiset reads ``known`` as ``Fraction``s, values ascending:
    the L-invariant slope -(s + 1).  The floor -R - 1 bounds every
    remaining slope from below; ``exceptional_count`` is how many slopes
    it accounts for.
    """

    k: int
    d: int
    known: Tuple[Tuple[int, int], ...]
    L_den: int
    R: Fraction

    @property
    def L_seq(self) -> Tuple[Fraction, ...]:
        """L_1..L_d: each known block's step over its width, then R."""
        steps = chain.from_iterable(repeat(Fraction(a, self.L_den), w) for a, w in self.known)
        return tuple(accumulate(chain(steps, repeat(self.R, self.exceptional_count))))

    @cached_property
    def known_size(self) -> int:
        """Total multiplicity 2*(d_N + ... + d_M) of the known block."""
        return sum(w for _, w in self.known)

    @property
    def exceptional_count(self) -> int:
        """Size d - known_size of the central block the floor accounts for."""
        return self.d - self.known_size

    @property
    def linv_slopes_known(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple((Fraction(-a - self.L_den, self.L_den), m) for a, m in self.known)

    linv_floor = property(lambda self: -self.R - 1)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "linv_known": [[ratio_text(-a - self.L_den, self.L_den), m] for a, m in self.known],
            "floor": format_rational(self.linv_floor),
            "exceptional": self.exceptional_count,
        }


def model_radius(ctx: GhostContext, k: int) -> Fraction:
    """The shared radius R = M(k) + 3/4 * min(1, s_M - M(k)), s_M the first
    derivative slope above M(k), or M(k) + 1/2 when no slope clears M(k).

    That is the midpoint of min(M(k) + 1, s_M) and the test radius r_M =
    M(k) + 1/2 * min(1, s_M - M(k)), halfway from M(k) toward s_M but within
    1 of M(k), as s_{M_index - 1} <= M(k).  So M(k) < R < M(k) + 1, R < s_M.
    """
    dp = derivative_polygon(ctx, k)
    m_val = dp.m_of_k.value
    if dp.M_index > len(dp.edges):
        return m_val + Fraction(1, 2)
    a, b, _ = dp.edges[dp.M_index - 1]
    return m_val + 3 * min(Fraction(1), Fraction(a, b) - m_val) / 4


def _assert_model_hull(model: PredictionModel) -> None:
    # L steps by one constant per block and R fills the steps left to d, so the hull of
    # {(j, -L_j)} u {(0,0)} replays -s_N < ... < -s_M < -R, its vertices the block ends,
    # iff the block steps strictly fall, R last, and the known blocks fit in d
    head = f"model hull mismatch at k = {model.k}:"
    if model.exceptional_count < 0:
        raise VerificationError(f"{head} the known blocks run past d = {model.d}")
    steps = [a for a, _ in model.known] + [int(model.R * model.L_den)]
    text = partial(ratio_text, den=model.L_den)
    for i, (above, r) in enumerate(zip(steps, steps[1:]), 2):
        if r >= above:
            raise VerificationError(f"{head} block {i} expects step below {text(above)}, found {text(r)}")


def build_model(ctx: GhostContext, k: int) -> PredictionModel:
    """Assemble the known blocks of the model for k, read off the
    derivative slopes from M(k) up, and its radius R.

    >>> ctx = GhostContext(7, 2, 1)
    >>> build_model(ctx, 24).L_seq[:4]
    (Fraction(9, 1), Fraction(18, 1), Fraction(24, 1), Fraction(30, 1))
    """
    dp = derivative_polygon(ctx, k)
    R = model_radius(ctx, k)
    closed = dp.edges[dp.M_index - 1 :]
    L_den = lcm(R.denominator, *(b for _, b, _ in closed))
    model = PredictionModel(
        k=dp.k,
        d=ctx.global_mult * dimensions(ctx, k).d_new,
        known=tuple((a * (L_den // b), 2 * ctx.global_mult * mult) for a, b, mult in reversed(closed)),
        L_den=L_den,
        R=R,
    )
    _assert_model_hull(model)
    return model


def predict_slopes(ctx: GhostContext, k: int) -> PredictionModel:
    """The L model of the weight k, read as its known slope block plus a floor.

    The known L-invariant block applies the threshold relation
    -(threshold + 1) to the closed-form threshold values s_N..s_M.
    Multiplicities are the doubled stretched hull multiplicities.

    >>> ctx = GhostContext(7, 2, 1)
    >>> predict_slopes(ctx, 24).linv_slopes_known
    ((Fraction(-10, 1), 2), (Fraction(-7, 1), 2))
    """
    return build_model(ctx, k)


def exceptional_bound(ctx: GhostContext, k: int) -> Fraction:
    """Logarithmic cap on the exceptional count at weight k."""
    log_kb = floor_log_bullet(ctx, k)
    return 2 * ctx.global_mult * (Fraction(2 * log_kb + 5, ctx.p - 1) + 1)

