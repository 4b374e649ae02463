"""Hypothesis strategies and helpers shared by the property tests."""

from fractions import Fraction

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
