"""The L model of a weight and the L-invariant slopes it predicts.

The L model of a weight is its known blocks and the model radius R: the
sequence L_1 < ... < L_d grows by s_N on the first 2*d_N steps, then by
s_{N-1}, and so on down to s_M, then by R on the last
d - 2*(d_N + ... + d_M) steps, so the hull of {(j, -L_j)} and the origin
replays the known derivative slopes and then flattens at -R.  The model
holds the blocks as closed derivative runs and R, and reads L off them.
``build_model`` asserts that hull, which fixes the model's comparison
pattern: entry (i, j) compares v_p(F_{i,j}) with i*(k-2) - L_j.

Predicted slopes are facts of the same model, which ``predict_slopes``
returns: a known block read off the closed threshold relation
(L-invariant slope = -(threshold + 1)) plus a floor for the central
block, whose size is the exceptional count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import NamedTuple, Tuple

from .errors import VerificationError
from .ghost import GhostContext, dimensions, floor_log_bullet
from .slopes import derivative_polygon
from .valuation import format_rational, ratio_text


class PredictionModel(NamedTuple):
    """The L model of one weight.

    ``closed`` holds the derivative slopes s_M < ... < s_N as runs (a, b, mult) of
    reduced a/b: the slice ``dp.edges[dp.M_index - 1:]``, which ``ThresholdVector.closed``
    holds too.  Run l, read from the top, is the block that steps by s_l over a width of
    2 * ``global_mult`` * mult; R steps the remaining :attr:`exceptional_count` of the
    d steps.  :attr:`L_seq` reads L_1..L_d off the runs.

    The known multiset reads ``closed`` as ``Fraction``s, values ascending:
    the L-invariant slope -(s + 1).  The floor -R - 1 bounds every
    remaining slope from below; ``exceptional_count`` is how many slopes
    it accounts for.
    """

    k: int
    d: int
    closed: Tuple[Tuple[int, int, int], ...]
    global_mult: int
    R: Fraction

    @property
    def L_seq(self) -> Tuple[Fraction, ...]:
        """L_1..L_d: each closed run's step over its block's width, top run first, then R."""
        steps = (Fraction(a, b) for a, b, m in reversed(self.closed) for _ in range(2 * self.global_mult * m))
        return tuple(accumulate(chain(steps, repeat(self.R, self.exceptional_count))))

    @property
    def known_size(self) -> int:
        """Total multiplicity 2*(d_N + ... + d_M) of the known block."""
        return 2 * self.global_mult * sum(mult for _, _, mult in self.closed)

    @property
    def exceptional_count(self) -> int:
        """Size d - known_size of the central block the floor accounts for."""
        return self.d - self.known_size

    @property
    def linv_slopes_known(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple((Fraction(-a - b, b), 2 * self.global_mult * m) for a, b, m in reversed(self.closed))

    linv_floor = property(lambda self: -self.R - 1)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "linv_known": [[ratio_text(-a - b, b), 2 * self.global_mult * m] for a, b, m in reversed(self.closed)],
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
    if dp.M_index > len(dp.edges):
        return dp.m_of_k + Fraction(1, 2)
    a, b, _ = dp.edges[dp.M_index - 1]
    return dp.m_of_k + 3 * min(Fraction(1), Fraction(a, b) - dp.m_of_k) / 4


def _assert_model_hull(model: PredictionModel) -> None:
    # L steps by one constant per block and R fills the steps left to d, so the hull of
    # {(j, -L_j)} u {(0,0)} replays -s_N < ... < -s_M < -R, its vertices the block ends,
    # iff the block steps strictly fall, R last, and the known blocks fit in d.  Blocks of
    # width >= 2 that fit in d give every equality column j of the pattern j - 1 strict entries
    head = f"model hull mismatch at k = {model.k}:"
    if model.exceptional_count < 0:
        raise VerificationError(f"{head} the known blocks run past d = {model.d}")
    steps = [run[:2] for run in reversed(model.closed)] + [model.R.as_integer_ratio()]
    for i, ((a0, b0), (a1, b1)) in enumerate(zip(steps, steps[1:]), 2):
        if a1 * b0 >= a0 * b1:
            raise VerificationError(
                f"{head} block {i} expects step below {ratio_text(a0, b0)}, found {ratio_text(a1, b1)}")


def build_model(ctx: GhostContext, k: int) -> PredictionModel:
    """Assemble the known blocks of the model for k, read off the
    derivative slopes from M(k) up, and its radius R.

    >>> ctx = GhostContext(7, 2, 1)
    >>> build_model(ctx, 24).L_seq[:4]
    (Fraction(9, 1), Fraction(18, 1), Fraction(24, 1), Fraction(30, 1))
    """
    dp = derivative_polygon(ctx, k)
    model = PredictionModel(
        k=dp.k,
        d=ctx.global_mult * dimensions(ctx, k).d_new,
        closed=dp.edges[dp.M_index - 1 :],
        global_mult=ctx.global_mult,
        R=model_radius(ctx, k),
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

