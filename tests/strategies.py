"""Hypothesis strategies and helpers shared by the property tests."""

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter

from hypothesis import strategies as st

from ghost_slopes import INF, GhostContext

# radii of weight points: the anchor itself, the 3/2 floor of every
# derivative-hull increment, and num/den with num in 1..40, den in 1..9
RADII = st.one_of(
    st.just(INF),
    st.just(Fraction(3, 2)),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 9)),
)


@st.composite
def context_and_weight(draw):
    """A random context (p, a, s_eps, m) in either mode and a class weight <= 300."""
    mode = draw(st.sampled_from(("strict", "exploratory")))
    p = draw(st.sampled_from((11, 13) if mode == "strict" else (5, 7, 11, 13)))
    a = draw(st.integers(2, p - 5) if mode == "strict" else st.integers(1, p - 4))
    ctx = GhostContext(
        p, a, draw(st.integers(0, p - 2)), draw(st.integers(1, 3)), mode
    )
    return ctx, draw(st.sampled_from(list(ctx.class_members(ctx.k_eps, 300))))


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
