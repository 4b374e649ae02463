"""Hypothesis strategies and helpers shared by the property tests."""

from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import itemgetter, sub

from hypothesis import strategies as st

from ghost_slopes import INF, GhostContext, Valuation
from ghost_slopes.ghost import _zeros, hatted_valuation_table
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
    running total acc of the known blocks' half widths, top slope first, marks
    (acc, 2*acc) and (d - acc, 2*acc), never on row d."""
    cells, acc = set(), 0
    for _, w in model.known:
        acc += w // 2
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
