"""Hypothesis strategies and helpers shared by the property tests."""

from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import itemgetter, sub

from hypothesis import strategies as st

from ghost_slopes import INF, GhostContext, Valuation, slopes
from ghost_slopes.errors import VerificationError
from ghost_slopes.ghost import _zeros, dimensions, hatted_valuation_table, level_tables, max_zero_distance
from ghost_slopes.polygon import _chain
from ghost_slopes.valuation import vp_int_raw

# radii of weight points: the anchor itself, the 3/2 floor of every
# derivative-hull increment, and num/den with num in 1..40, den in 1..9
RADII = st.one_of(
    st.just(INF),
    st.just(Fraction(3, 2)),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 9)),
)


@st.composite
def context_and_weight(draw, k_max: int = 300):
    """A random context (p, a, s_eps, m) in either mode and a class weight <= k_max."""
    mode = draw(st.sampled_from(("strict", "exploratory")))
    p = draw(st.sampled_from((11, 13) if mode == "strict" else (5, 7, 11, 13)))
    a = draw(st.integers(2, p - 5) if mode == "strict" else st.integers(1, p - 4))
    ctx = GhostContext(
        p, a, draw(st.integers(0, p - 2)), draw(st.integers(1, 3)), mode
    )
    return ctx, draw(st.sampled_from(list(ctx.class_members(ctx.k_eps, k_max))))


def high_weight():
    """A random context, drawn as :func:`context_and_weight` draws it, and a class weight
    <= 50,000, where the derivative polygons, windows and sweep blocks reach the sizes
    the point commands serve; for the oracles that stay cheap there, with few examples
    and no deadline."""
    return context_and_weight(k_max=50_000)


def expand_runs(runs) -> list:
    """Newslope runs (num, den, mult) as the ascending list of their Fractions."""
    return [Fraction(a, b) for a, b, m in runs for _ in range(m)]


def edge_at(hull, den: int, x: int):
    """(value, slope) at x, as Fractions, of the polyline through the points
    (x_i, y_i / den) of ``hull``, read on the edge [x_i, x_{i+1}] with
    x_i <= x < x_{i+1}."""
    i = bisect_right(hull, x, key=itemgetter(0)) - 1
    (x0, y0), (x1, y1) = hull[i], hull[i + 1]
    e = (x1 - x0) * den
    return Fraction(y0 * (x1 - x) + y1 * (x - x0), e), Fraction(y1 - y0, e)


def slope_list(polygon) -> list:
    """All hull slopes of a RationalPolygon, one per unit of x-extent, non-decreasing."""
    return [s for s, m in polygon.slopes for _ in range(m)]


def hull_value(polygon, x: int) -> Valuation:
    """Exact ordinate of a RationalPolygon's hull at integer x inside its x-range."""
    (x_first, _), (x_last, y_last) = polygon.hull[0], polygon.hull[-1]
    assert x_first <= x <= x_last, (x, x_first, x_last)
    if x == x_last:
        return Valuation(Fraction(y_last, polygon.den))
    return Valuation(edge_at(polygon.hull, polygon.den, x)[0])


def evaluate_ghost_valuation(ctx, n: int, w) -> Valuation:
    """v_p(g_n(w_*)) = sum over zeros k' of m_n(k') * v_p(w_* - w_{k'}), zero by zero.

    INFINITY exactly when w_* is a ghost zero of g_n (infinite radius at
    an anchor with m_n(anchor) > 0).
    """
    if n == 0:
        return Valuation(0)
    anchor_b = ctx.bullet(w.anchor)
    radius_scaled, den = (None, 1) if w.radius.is_infinite else w.radius.value.as_integer_ratio()
    total = 0
    for j, m in _zeros(ctx, n):
        if j == anchor_b:
            if radius_scaled is None:
                return INF  # anchor itself is a zero: g_n(w_k) = 0
            total += m * radius_scaled  # min(radius, INF) = radius
            continue
        d = 1 + vp_int_raw(anchor_b - j, ctx.p)
        total += m * (d if radius_scaled is None else min(radius_scaled, d * den))
    return Valuation(Fraction(total, den))


def table_steps(table) -> list:
    """The steps f(n+1) - 2 f(n) + f(n-1), n = 0..n_hi - 1 (f(-1) = 0), of ``table`` = [f(0) = 0,
    ..., f(n_hi)]: the inverse of the double sum that ``ghost._anchored_table`` takes."""
    rises = list(map(sub, table[1:], table))
    return list(map(sub, rises, [0, *rises[:-1]]))


def planted_steps(plant):
    """A stand-in for ``ghost.hatted_steps(ctx, kb, n_hi)``: the steps of the hatted table to n_hi
    with ``plant(table)`` applied to it (at entries n >= 1: the double sum puts f(0) = 0)."""
    return lambda ctx, kb, n_hi: table_steps(plant(hatted_valuation_table(ctx, ctx.weight_of_bullet(kb), n_hi)))


class Rel(Enum):
    """Comparison kind between v_p(F_{i,j}) and (k-2)i - L_j."""

    GT = ">"
    GE = ">="
    EQ = "="


@cache
def eq_cells(model) -> frozenset:
    """(row, column) positions of the equality entries of the model's pattern: each
    running total acc of the known blocks' half widths m * mult, top slope first,
    marks (acc, 2*acc) and (d - acc, 2*acc), never on row d."""
    cells, acc = set(), 0
    for *_, mult in reversed(model.closed):
        acc += model.global_mult * mult
        cells.update(((acc, 2 * acc), (model.d - acc, 2 * acc)))
    return frozenset(cells)


def rel(model, i: int, j: int) -> Rel:
    """The per-cell rule: comparison kind of the pattern entry (i, j), 1 <= i <= d.

    The bottom row is GT and the :func:`eq_cells` are EQ; right of column 2*i in
    the top known rows, and of column 2*(d - i) in the bottom known rows, entries
    are GT; every other entry is GE.  The j - 1 count that ``build_model``'s hull
    assertion implies is read off this rule in ``tests/test_prediction.py``.
    """
    d, known = model.d, model.known_size // 2
    if i == d:
        return Rel.GT
    if (i, j) in eq_cells(model):
        return Rel.EQ
    if (i <= known and j > 2 * i) or (i >= d - known and j > 2 * (d - i)):
        return Rel.GT
    return Rel.GE


def pattern_strict_counts_oracle(model) -> list:
    """(j, strict entries) of each equality column j, ascending, counted cell by cell."""
    columns = sorted({j for _, j in eq_cells(model)})
    return [(j, [rel(model, i, j) for i in range(1, model.d + 1)].count(Rel.GT)) for j in columns]


# -- the sweep's A/B piece walk: the oracle of slopes._level_pieces, _locked_on and _sweep
#
# Each level [L, L + 1] builds the pair of level tables (A, B), v_p(g_n) = A[n] + B[n] r,
# evaluates A + B r over the whole window at both ends of every piece, splits a piece at the
# root -_turn(A) / _turn(B), and locks an index where its edge's B-difference is 0 and its
# A-difference (k-2)/2 times the edge width.  No table is shared and no check is skipped.


def ab_values(A, B, r: Fraction) -> list:
    """v_p(g_q) = A[q] + B[q] * r over every q of the tables, times r's denominator."""
    u, v = r.numerator, r.denominator
    return [a * v + b * u for a, b in zip(A, B)]


def ab_chain_violation(vn, xs):
    """The first triple of the sub-chain xs, on values vn, whose turn has the
    wrong sign: a vertex b that turns right as (a, b, c), or a point q below the
    line of its edge [x0, x1] (the first edge's for q < xs[0], the last's for
    q > xs[-1]) as the sorted (q, x0, x1); else None."""
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        if slopes._turn(vn, a, b, c) < 0:
            return (a, b, c)
    bounds = [0, *xs[1:-1], len(vn)]
    for q0, q1, x0, x1 in zip(bounds, bounds[1:], xs, xs[1:]):
        e, dy, c0 = x1 - x0, vn[x1] - vn[x0], vn[x0] * x1 - vn[x1] * x0
        for q in range(q0, q1):
            if vn[q] * e < c0 + dy * q:
                return tuple(sorted((q, x0, x1)))
    return None


def ab_piece_violation(A, B, window, xs, r: Fraction):
    """The first certificate of xs on the window 0..len(A)-1 that fails at r:
    a triple from :func:`ab_chain_violation`, "tail", or None."""
    vn = ab_values(A, B, r)
    viol = ab_chain_violation(vn, xs)
    if viol is None:
        last = [(x, vn[x]) for x in xs[-2:]]
        if not slopes._tail_certified(r, window, xs[-2], last, r.denominator):
            return "tail"
    return viol


def ab_midpoint_chain(A, B, r: Fraction, lo, hi, pad) -> list:
    """The sub-chain over [lo - 1, hi] of the hull at r of the slice lo - 1 - pad .. hi + pad."""
    s0, s1 = max(0, lo - 1 - pad), min(len(A) - 1, hi + pad)
    vn = ab_values(A[s0 : s1 + 1], B[s0 : s1 + 1], r)
    xs = [x for x, _ in _chain(zip(range(s0, s1 + 1), vn))]
    return xs[bisect_right(xs, lo - 1) - 1 : bisect_left(xs, hi) + 1]


def ab_level_pieces(ctx, k, level, lo, hi, tables=level_tables) -> list:
    """[(r1, r2, vertex_xs, A, B)], the certified pieces of [level, level + 1]
    over [lo - 1, hi], on the level tables ``tables(ctx, k, level, n_window)``."""
    for window in slopes._windows(ctx, k, hi):
        n_window = window[0]
        A, B = tables(ctx, k, level, n_window)
        done, guard, stack = [], 0, [(Fraction(level), Fraction(level + 1), 2 * (hi - lo) + 8)]
        while stack:
            if (guard := guard + 1) > slopes.SWEEP_PIECE_GUARD:
                raise VerificationError("newslope sweep failed to stabilize")
            r1, r2, pad = stack.pop()
            xs = ab_midpoint_chain(A, B, (r1 + r2) / 2, lo, hi, pad)
            viol = ab_piece_violation(A, B, window, xs, r1) or ab_piece_violation(A, B, window, xs, r2)
            if viol is None:
                done.append((r1, r2, xs))
                continue
            if viol == "tail":
                break
            rate = slopes._turn(B, *viol)
            if rate and r1 < (root := Fraction(-slopes._turn(A, *viol), rate)) < r2:
                stack += [(r1, root, pad), (root, r2, pad)]
            elif pad < max(lo - 1, n_window - hi):
                stack.append((r1, r2, 4 * pad))
            else:
                raise VerificationError("sweep certificate root escaped its piece")
        else:
            return [(r1, r2, xs, A, B) for r1, r2, xs in sorted(done)]


def ab_locked_on(xs, A, B, x_pos, k) -> bool:
    """Whether the edge over [x_pos - 1, x_pos] has slope (k-2)/2 at every r of the level."""
    i = bisect_right(xs, x_pos - 1) - 1
    x0, x1 = xs[i], xs[i + 1]
    return B[x1] == B[x0] and 2 * (A[x1] - A[x0]) == (k - 2) * (x1 - x0)


def ab_sweep(ctx, k, ns) -> list:
    """Lock radii of the newslopes ns: each level's pieces, from M(k) - 1 down, right to left."""
    d_ur = dimensions(ctx, k).d_ur
    settled, open_ = [Fraction(1)] * len(ns), dict(enumerate(ns))
    level = int(max_zero_distance(ctx, k).value)
    while open_ and level > 1:
        level -= 1
        for r1, r2, xs, A, B in reversed(ab_level_pieces(ctx, k, level, d_ur + min(ns), d_ur + max(ns))):
            for i, n in list(open_.items()):
                if not ab_locked_on(xs, A, B, d_ur + n, k):
                    settled[i] = r2
                    del open_[i]
    return settled
