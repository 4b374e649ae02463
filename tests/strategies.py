"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from ghost_slopes import GhostContext


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
