"""Predicted slope multisets for the derivative matrix and L-invariants.

The model sequence L_1 < ... < L_d grows by r_N = s_N on the first
2*d_N steps, then by s_{N-1}, and so on down to the model radius R on
the last d - 2*(d_N + ... + d_M) steps, so the hull of {(j, -L_j)} and
the origin replays the known derivative slopes and then flattens at -R.
The comparison rule ``PredictionModel.rel`` says, entry by entry, how
v_p(F_{i,j}) compares to i*(k-2) - L_j: equality exactly on the
breakpoint diagonal cells and their mirror rows, strict above the
doubled index, the bottom row strict everywhere.

Predicted slopes come in a known block read off the closed threshold
relation (L-invariant slope = -(threshold + 1)) plus a floor for the
central block, whose size is the exceptional count.  A separate
translation by k - 3 is provided; it disagrees with the threshold
relation by a constant 2, and both are kept, labeled by their origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import lcm
from typing import Iterable, Tuple

from .errors import VerificationError
from .ghost import GhostContext, WeightIndex, floor_log_bullet
from .polygon import integer_hull
from .slopes import derivative_polygon, slope_window
from .valuation import Valuation, format_rational


class Rel(Enum):
    """Comparison kind between v_p(F_{i,j}) and (k-2)i - L_j."""

    GT = ">"
    GE = ">="
    EQ = "="


@dataclass(frozen=True)
class PredictionModel:
    """The L model and its comparison rule for one weight.

    ``r_list[l-1]`` is the block slope r_l: the derivative slope s_l for
    l >= M_index and the model radius R below.  L_1..L_d, built block by
    block from the top slope down, are held as integers ``L_nums`` over
    one denominator ``L_den``, the lcm of the r_l denominators;
    ``L_seq`` reads them as ``Fraction``s.  ``block_sizes[l-1]`` is the
    stretched multiplicity of s_l.  :meth:`rel` gives the comparison
    kind of each entry of the d x d pattern.
    """

    k: WeightIndex
    d: int
    r_list: Tuple[Fraction, ...]
    L_nums: Tuple[int, ...]
    L_den: int
    R: Fraction
    M_index: int
    block_sizes: Tuple[int, ...]

    @property
    def L_seq(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(a, self.L_den) for a in self.L_nums)

    @cached_property
    def _known_size(self) -> int:
        return 2 * sum(self.block_sizes[self.M_index - 1 :])

    @cached_property
    def _eq_cells(self) -> frozenset:
        cells = set()
        acc = 0
        for size in reversed(self.block_sizes[self.M_index - 1 :]):
            acc += size
            cells.update(((acc, 2 * acc), (self.d - acc, 2 * acc)))
        return frozenset(cells)

    def known_size(self) -> int:
        """Total multiplicity 2*(d_N + ... + d_M) of the known block."""
        return self._known_size

    def eq_cells(self) -> Tuple[Tuple[int, int], ...]:
        """(row, column) positions of the equality entries, sorted: each
        running total acc of the known blocks, top slope first, marks
        (acc, 2*acc) and (d - acc, 2*acc), never on row d."""
        return tuple(sorted(self._eq_cells))

    def rel(self, i: int, j: int) -> Rel:
        """Comparison kind of the pattern entry (i, j), 1 <= i, j <= d.

        The bottom row is GT and the :meth:`eq_cells` are EQ; right of
        column 2*i in the top known rows, and of column 2*(d - i) in the
        bottom known rows, entries are GT; every other entry is GE.
        """
        d, known = self.d, self._known_size // 2
        if i == d:
            return Rel.GT
        if (i, j) in self._eq_cells:
            return Rel.EQ
        if (i <= known and j > 2 * i) or (i >= d - known and j > 2 * (d - i)):
            return Rel.GT
        return Rel.GE


@dataclass(frozen=True)
class SlopePrediction:
    """Known slope blocks and floors for one weight.

    The known multisets pair each value with its multiplicity, values
    ascending; the floors bound every remaining slope from below.
    ``exceptional_count`` is how many slopes the floors account for.
    """

    k: WeightIndex
    a1_slopes_known: Tuple[Tuple[Fraction, int], ...]
    a1_floor: Valuation
    linv_slopes_known: Tuple[Tuple[Fraction, int], ...]
    linv_floor: Valuation
    exceptional_count: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k.k,
            "linv_known": [
                [format_rational(v), m] for v, m in self.linv_slopes_known
            ],
            "floor": format_rational(self.linv_floor.value),
            "exceptional": self.exceptional_count,
        }


@dataclass(frozen=True)
class IntegralityReport:
    """Half-weight integrality flags for the known L-invariant slopes.

    Each entry is (slope, multiplicity, lies in Z + k/2).  Exceptions
    are counted with multiplicity; the floor block of size
    ``exceptional_count`` is never checked.
    """

    k: WeightIndex
    entries: Tuple[Tuple[Fraction, int, bool], ...]
    exception_count: int
    exceptional_count: int


def model_radius(ctx: GhostContext, k: int) -> Fraction:
    """The shared radius R: midpoint of (r_M, min(M(k) + 1, s_M)).

    r_M is the test radius of the M_index-th disc, which always sits
    strictly between M(k) and both caps, so M(k) < R < M(k) + 1 and
    R < s_M.  When no slope clears M(k) the caps collapse and R is
    M(k) + 1/2.
    """
    dp = derivative_polygon(ctx, k)
    m_val = dp.m_of_k.value
    ss = dp.distinct_slopes()
    if dp.M_index > len(ss):
        return m_val + Fraction(1, 2)
    r_dag = slope_window(ctx, k, dp.M_index)[0].value
    return (r_dag + min(m_val + 1, ss[dp.M_index - 1])) / 2


def _assert_model_hull(model: PredictionModel) -> None:
    # the hull of {(j, -L_j)} u {(0,0)} must replay -s_N < ... < -s_M < -R
    if model.d == 0:
        return
    hull = integer_hull(
        range(model.d + 1), [0, *(-a for a in model.L_nums)], model.L_den
    )
    # (r, m): the hull edge with slope -r and x-extent m, in order
    expected = []
    for l in range(len(model.block_sizes), model.M_index - 1, -1):
        expected.append((model.r_list[l - 1], 2 * model.block_sizes[l - 1]))
    flat = model.d - model.known_size()
    if flat:
        expected.append((model.R, flat))
    edges = list(zip(hull.hull, hull.hull[1:]))
    # edge slope (y1 - y0) / ((x1 - x0) L_den) = -r, cross-multiplied in integers
    if len(edges) != len(expected) or any(
        x1 - x0 != m or (y0 - y1) * r.denominator != r.numerator * m * model.L_den
        for ((x0, y0), (x1, y1)), (r, m) in zip(edges, expected)
    ):
        want = [(-r, m) for r, m in expected]
        raise VerificationError(
            f"model hull mismatch at k = {model.k.k}: {list(hull.slopes)} != {want}"
        )


def build_model(ctx: GhostContext, k: int) -> PredictionModel:
    """Assemble the L sequence and block data of the model for k.

    >>> ctx = GhostContext(7, 2, 1)
    >>> build_model(ctx, 24).L_seq[:4]
    (Fraction(9, 1), Fraction(18, 1), Fraction(24, 1), Fraction(30, 1))
    """
    dp = derivative_polygon(ctx, k)
    kw = ctx.weight(k)
    ss = dp.distinct_slopes()
    block_sizes = tuple(ctx.global_mult * m for _, m in dp.slopes)
    d = 2 * sum(block_sizes)
    R = model_radius(ctx, k)
    r_list = tuple(
        ss[l - 1] if l >= dp.M_index else R for l in range(1, len(ss) + 1)
    )
    # L grows by r_l on each of the 2 * block_sizes[l-1] steps of block l, top block first
    L_den = lcm(*(r.denominator for r in r_list))
    steps = [r.numerator * (L_den // r.denominator) for r in r_list]
    blocks = (repeat(steps[l], 2 * block_sizes[l]) for l in reversed(range(len(ss))))
    model = PredictionModel(
        k=kw,
        d=d,
        r_list=r_list,
        L_nums=tuple(accumulate(chain.from_iterable(blocks))),
        L_den=L_den,
        R=R,
        M_index=dp.M_index,
        block_sizes=block_sizes,
    )
    _assert_model_hull(model)
    return model


def predict_slopes(ctx: GhostContext, k: int) -> SlopePrediction:
    """Known slope blocks plus floors for the weight k.

    The known L-invariant block applies the threshold relation
    -(threshold + 1) to the closed-form threshold values s_N..s_M; the
    derivative-matrix block mirrors it at k - 2 - s.  Multiplicities
    are the doubled stretched hull multiplicities.

    >>> ctx = GhostContext(7, 2, 1)
    >>> predict_slopes(ctx, 24).linv_slopes_known
    ((Fraction(-10, 1), 2), (Fraction(-7, 1), 2))
    """
    model = build_model(ctx, k)
    dp = derivative_polygon(ctx, k)
    ss = dp.distinct_slopes()
    a1 = []
    linv = []
    for l in range(len(ss), model.M_index - 1, -1):
        mult = 2 * model.block_sizes[l - 1]
        a1.append((k - 2 - ss[l - 1], mult))
        linv.append((-ss[l - 1] - 1, mult))
    return SlopePrediction(
        k=model.k,
        a1_slopes_known=tuple(a1),
        a1_floor=Valuation(k - 2 - model.R),
        linv_slopes_known=tuple(linv),
        linv_floor=Valuation(-model.R - 1),
        exceptional_count=model.d - model.known_size(),
    )


def exceptional_bound(ctx: GhostContext, k: int) -> Fraction:
    """Logarithmic cap on the exceptional count at weight k."""
    log_kb = floor_log_bullet(ctx, k)
    return 2 * ctx.global_mult * (Fraction(2 * log_kb + 5, ctx.p - 1) + 1)


def gs_translate(k: int, a1_slopes: Iterable) -> tuple:
    """Shift derivative-matrix slopes by -(k - 3), keeping multiplicities.

    This is the eigenvalue translation; it lands 2 above the threshold
    relation used for the known block, and both are exposed on purpose.

    >>> gs_translate(24, [(Fraction(13), 2)])
    ((Fraction(-8, 1), 2),)
    """
    return tuple((Fraction(v) - (k - 3), m) for v, m in a1_slopes)


def integrality_report(ctx: GhostContext, k: int) -> IntegralityReport:
    """Flag each known L-invariant slope for membership in Z + k/2.

    >>> ctx = GhostContext(7, 2, 1)
    >>> integrality_report(ctx, 24).exception_count
    0
    """
    pred = predict_slopes(ctx, k)
    entries = []
    bad = 0
    for v, m in pred.linv_slopes_known:
        ok = (v - Fraction(k, 2)).denominator == 1
        entries.append((v, m, ok))
        if not ok:
            bad += m
    return IntegralityReport(
        k=pred.k,
        entries=tuple(entries),
        exception_count=bad,
        exceptional_count=pred.exceptional_count,
    )
