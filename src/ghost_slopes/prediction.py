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
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from math import lcm
from operator import sub
from typing import Iterable, Tuple

from .errors import VerificationError
from .ghost import GhostContext, floor_log_bullet
from .slopes import derivative_polygon
from .valuation import Valuation, format_rational, ratio_text


class Rel(Enum):
    """Comparison kind between v_p(F_{i,j}) and (k-2)i - L_j."""

    GT = ">"
    GE = ">="
    EQ = "="


@dataclass(frozen=True)
class PredictionModel:
    """The L model and its comparison rule for one weight.

    The block slope r_l is the derivative slope s_l for l >= M_index and
    the model radius R below.  The steps r_l and L_1..L_d, built block by
    block from the top slope down, are held as integers ``steps`` and
    ``L_nums`` over one denominator ``L_den``, the lcm of the r_l
    denominators; ``r_list`` and ``L_seq`` read them as ``Fraction``s.
    ``block_sizes[l-1]`` is the stretched multiplicity of s_l.
    :meth:`rel` gives the comparison kind of each entry of the d x d
    pattern.
    """

    k: int
    d: int
    steps: Tuple[int, ...]
    L_nums: Tuple[int, ...]
    L_den: int
    R: Fraction
    M_index: int
    block_sizes: Tuple[int, ...]

    @property
    def r_list(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(a, self.L_den) for a in self.steps)

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

    def known_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """(step numerator over L_den, width 2 * block size) of the blocks
        l = N down to M_index, whose steps are the derivative slopes."""
        known = reversed(range(self.M_index - 1, len(self.steps)))
        return tuple((self.steps[l], 2 * self.block_sizes[l]) for l in known)

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

    ``known`` pairs each closed threshold s_N > ... > s_M, as a numerator
    over ``den``, with its multiplicity.  The known multisets read it as
    ``Fraction``s, values ascending: the L-invariant slope -(s + 1) and
    the derivative-matrix slope k - 2 - s.  The floors, read off the
    model radius R, bound every remaining slope from below;
    ``exceptional_count`` is how many slopes they account for.
    """

    k: int
    known: Tuple[Tuple[int, int], ...]
    den: int
    R: Fraction
    exceptional_count: int

    @property
    def a1_slopes_known(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple((Fraction((self.k - 2) * self.den - a, self.den), m) for a, m in self.known)

    @property
    def linv_slopes_known(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple((Fraction(-a - self.den, self.den), m) for a, m in self.known)

    a1_floor = property(lambda self: Valuation(self.k - 2 - self.R))
    linv_floor = property(lambda self: Valuation(-self.R - 1))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "linv_known": [[ratio_text(-a - self.den, self.den), m] for a, m in self.known],
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

    k: int
    entries: Tuple[Tuple[Fraction, int, bool], ...]
    exception_count: int
    exceptional_count: int


def model_radius(ctx: GhostContext, k: int) -> Fraction:
    """The shared radius R = M(k) + 3/4 * min(1, s_M - M(k)), s_M the first
    derivative slope above M(k), or M(k) + 1/2 when no slope clears M(k).

    That is the midpoint of min(M(k) + 1, s_M) and the test radius r_M =
    M(k) + 1/2 * min(1, s_M - M(k)) of :func:`slope_window`, whose window
    starts at M(k) as s_{M_index - 1} <= M(k).  So M(k) < R < M(k) + 1, R < s_M.
    """
    dp = derivative_polygon(ctx, k)
    m_val = dp.m_of_k.value
    if dp.M_index > len(dp.edges):
        return m_val + Fraction(1, 2)
    a, b, _ = dp.edges[dp.M_index - 1]
    return m_val + 3 * min(Fraction(1), Fraction(a, b) - m_val) / 4


def _assert_model_hull(model: PredictionModel) -> None:
    # the hull of {(j, -L_j)} u {(0,0)} replays -s_N < ... < -s_M < -R iff
    # L steps by a constant r on each of these blocks, r strictly falls
    # from one block to the next and the blocks end at d: the block ends
    # are then the hull's vertices and every other point lies on an edge
    blocks = list(model.known_blocks())
    if flat := model.d - model.known_size():
        blocks.append((int(model.R * model.L_den), flat))
    L = (0, *model.L_nums)
    steps, end = list(map(sub, L[1:], L)), 0
    text = partial(ratio_text, den=model.L_den)
    for i, (r, width) in enumerate(blocks, 1):
        seen, end = steps[end : end + width], end + width
        if i > 1 and r >= blocks[i - 2][0]:
            want, found = f"below {text(blocks[i - 2][0])}", text(r)
        elif seen != [r] * width:
            want, found = text(r), next((text(a) for a in seen if a != r), "the end of L")
        else:
            continue
        raise VerificationError(
            f"model hull mismatch at k = {model.k}: block {i} expects step {want}, found {found}"
        )
    if end != len(steps):
        raise VerificationError(f"model hull mismatch at k = {model.k}: L runs past d = {end}")


def build_model(ctx: GhostContext, k: int) -> PredictionModel:
    """Assemble the L sequence and block data of the model for k.

    >>> ctx = GhostContext(7, 2, 1)
    >>> build_model(ctx, 24).L_seq[:4]
    (Fraction(9, 1), Fraction(18, 1), Fraction(24, 1), Fraction(30, 1))
    """
    dp = derivative_polygon(ctx, k)
    R = model_radius(ctx, k)
    m = dp.M_index - 1
    # r_l = s_l = a / b for l >= M_index and R below, each a numerator over their lcm
    pairs = [(R.numerator, R.denominator)] * m + [(a, b) for a, b, _ in dp.edges[m:]]
    L_den = lcm(*{b for _, b in pairs})
    steps = tuple(a * (L_den // b) for a, b in pairs)
    block_sizes = tuple(ctx.global_mult * mult for _, _, mult in dp.edges)
    # L grows by r_l on each of the 2 * block_sizes[l-1] steps of block l, top block first
    blocks = (repeat(steps[l], 2 * block_sizes[l]) for l in reversed(range(len(steps))))
    model = PredictionModel(
        k=dp.k,
        d=2 * sum(block_sizes),
        steps=steps,
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
    return SlopePrediction(
        k=model.k,
        known=model.known_blocks(),
        den=model.L_den,
        R=model.R,
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
