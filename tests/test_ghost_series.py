"""Ghost contexts, dimensions, multiplicities, zero sets, batch kernels.

Expected values were frozen from hand computation with the raw defining
formulas (dimension triples, triangle multiplicities, distance sums) for
the context (p=7, a=2, s_eps=1) before the kernels were written.
"""

import doctest
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghost_slopes import checks, ghost
from ghost_slopes.cli import MAX_GHOST_N, main
from ghost_slopes.errors import ConfigError, DomainError
from ghost_slopes.ghost import (
    GhostContext,
    WeightPoint,
    _anchored_table,
    _at,
    _bullet_bound,
    _corner_steps,
    _period,
    _triangle_steps,
    _walk_end,
    anchored_valuation,
    degree_table,
    dimensions,
    ghost_multiplicity,
    ghost_polynomial,
    hatted_valuation_table,
    level_tables,
    max_zero_distance,
    valuation_table_at,
)
from ghost_slopes.slopes import _window, derivative_polygon
from ghost_slopes.valuation import INF, Valuation, weight_distance
from strategies import context_and_weight, evaluate_ghost_valuation


@pytest.fixture(scope="module")
def ctx():
    return GhostContext(p=7, a=2, s_eps=1)


# -- context construction ----------------------------------------------------


def test_derived_constants(ctx):
    assert (ctx.k_eps, ctx.delta_eps, ctx.t1, ctx.t2) == (6, 0, 1, 5)


def test_strict_mode_accepts_supported_range():
    c = GhostContext(p=11, a=2, s_eps=0, mode="strict")
    assert c.k_eps == 4


@pytest.mark.parametrize(
    "p, a, s, expected",
    [
        # (k_eps, delta_eps, t1, t2) for classes where a + s_eps wraps past p-1
        (11, 6, 9, (6, 1, 7, 11)),
        (13, 5, 11, (5, 1, 6, 13)),
        (7, 2, 4, (6, 0, 1, 5)),
        (5, 1, 3, (5, 0, 1, 4)),
        (11, 2, 8, (10, 0, 1, 9)),
    ],
)
def test_derived_constants_wraparound_classes(p, a, s, expected):
    c = GhostContext(p=p, a=a, s_eps=s)
    assert (c.k_eps, c.delta_eps, c.t1, c.t2) == expected
    # jump residues pair up around the class weight mod p+1; the duality
    # of anchored valuations fails without this
    assert (c.t1 + c.t2 - c.k_eps) % (p + 1) == 0


def test_dimensions_nonnegative_everywhere():
    for c in (
        GhostContext(p=7, a=2, s_eps=1),
        GhostContext(p=7, a=2, s_eps=4),
        GhostContext(p=11, a=6, s_eps=9, mode="strict"),
        GhostContext(p=13, a=5, s_eps=11, mode="strict"),
        GhostContext(p=11, a=2, s_eps=8, mode="strict"),
        GhostContext(p=5, a=1, s_eps=3),
    ):
        for j in range(0, 200):
            d_iw, d_ur = c.dims_of_bullet(j)
            assert 0 <= d_ur and 2 * d_ur <= d_iw, (c.p, c.a, c.s_eps, j)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=7, a=2, s_eps=1, mode="strict"),  # p too small for strict
        dict(p=11, a=7, s_eps=0, mode="strict"),  # a > p-5
        dict(p=11, a=1, s_eps=0, mode="strict"),  # a < 2
        dict(p=4, a=1, s_eps=0),  # p not prime
        dict(p=3, a=1, s_eps=0),  # p < 5 even exploratory
        dict(p=7, a=4, s_eps=0),  # a > p-4 exploratory
        dict(p=7, a=2, s_eps=7),  # s_eps out of [0, p-2]
        dict(p=7, a=2, s_eps=-1),
        dict(p=7, a=2, s_eps=1, global_mult=0),
        dict(p=7, a=2, s_eps=1, mode="fast"),
    ],
)
def test_invalid_contexts_rejected(kwargs):
    with pytest.raises(ConfigError):
        GhostContext(**kwargs)


def test_class_membership(ctx):
    assert ctx.in_class(6) and ctx.in_class(24) and ctx.in_class(600)
    assert not ctx.in_class(7) and not ctx.in_class(25) and not ctx.in_class(0)
    assert ctx.bullet(24) == 3
    assert ctx.weight_of_bullet(3) == 24
    with pytest.raises(DomainError):
        ctx.bullet(25)
    assert list(ctx.class_members(1, 30)) == [6, 12, 18, 24, 30]
    assert list(ctx.class_members(7, 18)) == [12, 18]


# -- dimensions ---------------------------------------------------------------


def test_dimension_triples(ctx):
    t24 = dimensions(ctx, 24)
    assert (t24.d_iw, t24.d_ur, t24.d_new) == (8, 1, 6)
    t6 = dimensions(ctx, 6)
    assert (t6.d_iw, t6.d_ur, t6.d_new) == (2, 0, 2)


def test_dimension_table_first_bullets(ctx):
    # hand table for j = 0..17 (weights 6, 12, ..., 108)
    d_ur = [0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5]
    for j, expected in enumerate(d_ur):
        trip = dimensions(ctx, ctx.weight_of_bullet(j))
        assert trip.d_ur == expected
        assert trip.d_iw == 2 * j + 2


def test_dur_period_growth(ctx):
    # adding p^2 - 1 to the weight always adds exactly 2 to d_ur
    for j in range(0, 60):
        assert (
            ctx.dims_of_bullet(j + ctx.p + 1)[1] == ctx.dims_of_bullet(j)[1] + 2
        )


def test_dimension_identity_and_monotonicity(ctx):
    prev_ur, prev_span = None, None
    for j in range(0, 300):
        d_iw, d_ur = ctx.dims_of_bullet(j)
        assert d_iw == (d_iw - 2 * d_ur) + 2 * d_ur
        if prev_ur is not None:
            assert d_ur >= prev_ur
            assert d_iw - d_ur >= prev_span
        prev_ur, prev_span = d_ur, d_iw - d_ur


def _dimension_classes(p_below):
    """One context per (p, t1, t2, delta_eps), all that dims_of_bullet
    reads, over every exploratory (p, a, s_eps) with p < p_below."""
    classes = {}
    for p in range(5, p_below):
        if all(p % d for d in range(2, p)):
            for a in range(1, p - 3):
                for s in range(p - 1):
                    c = GhostContext(p, a, s)
                    classes.setdefault((p, c.t1, c.t2, c.delta_eps), c)
    return list(classes.values())


def test_bullets_past_zero_are_ghost_zeros():
    # d_ur rises by 2 and d_new by 2p - 2 over each period of p + 1
    # bullets, so two periods carry both facts to every bullet
    for c in _dimension_classes(100):
        period = c.p + 1
        assert all(c.dims_of_bullet(j)[1] >= 0 for j in range(2 * period)), c
        assert all(_is_zero_bullet(c, j) for j in range(1, 2 * period)), c


def test_bullet_ranges_match_scan():
    for c in _dimension_classes(32):
        n_top = 4 * (c.p + 1)
        dims = [c.dims_of_bullet(0)]
        while dims[-1][1] < n_top:
            dims.append(c.dims_of_bullet(len(dims)))
        ur = [d_ur for _, d_ur in dims]
        span = [d_iw - d_ur for d_iw, d_ur in dims]
        assert ur == sorted(ur) and span == sorted(span), c
        # d_ur is non-decreasing, so one pointer scans the bound: the first d_ur >= n
        hi = 0
        for n in range(n_top):
            while ur[hi] < n:
                hi += 1
            assert _bullet_bound(c, n) == hi, (c, n)


@given(case=context_and_weight(), n=st.integers(4 * 32, 10**6))
@settings(max_examples=100, deadline=None)
def test_bullet_ranges_at_large_n(case, n):
    # past the scan above: the bound is the first bullet at which the
    # non-decreasing d_ur reaches n
    c, _ = case
    d_ur = lambda j: c.dims_of_bullet(j)[1]
    hi = _bullet_bound(c, n)
    assert d_ur(hi - 1) < n <= d_ur(hi)


# -- ghost multiplicities and polynomials -------------------------------------

# zero -> multiplicity tables for g_1 .. g_8, frozen from the triangle rule
FROZEN_ZERO_TABLES = {
    1: {6: 1},
    2: {12: 1, 18: 1, 24: 1, 30: 1},
    3: {18: 2, 24: 2, 30: 2, 36: 1, 42: 1, 48: 1, 54: 1},
    4: {18: 1, 24: 3, 30: 3, 36: 2, 42: 2, 48: 2, 54: 2, 60: 1, 66: 1, 72: 1, 78: 1},
    5: {
        24: 2, 30: 4,
        36: 3, 42: 3, 48: 3, 54: 3,
        60: 2, 66: 2, 72: 2, 78: 2,
        84: 1, 90: 1, 96: 1, 102: 1,
    },
    6: {
        24: 1, 30: 3,
        36: 4, 42: 4, 48: 4, 54: 4,
        60: 3, 66: 3, 72: 3, 78: 3,
        84: 2, 90: 2, 96: 2, 102: 2,
        108: 1, 114: 1, 120: 1, 126: 1,
    },
    7: {
        30: 2, 36: 3,
        42: 5, 48: 5, 54: 5,
        60: 4, 66: 4, 72: 4, 78: 4,
        84: 3, 90: 3, 96: 3, 102: 3,
        108: 2, 114: 2, 120: 2, 126: 2,
        132: 1, 138: 1, 144: 1, 150: 1,
    },
    8: {
        30: 1, 36: 2, 42: 4, 48: 6, 54: 6,
        60: 5, 66: 5, 72: 5, 78: 5,
        84: 4, 90: 4, 96: 4, 102: 4,
        108: 3, 114: 3, 120: 3, 126: 3,
        132: 2, 138: 2, 144: 2, 150: 2,
        156: 1, 162: 1, 168: 1, 174: 1,
    },
}


def test_ghost_polynomial_tables(ctx):
    for n, table in FROZEN_ZERO_TABLES.items():
        g = ghost_polynomial(ctx, n)
        assert dict(g.zeros) == table, f"g_{n} mismatch"
        assert [k for k, _ in g.zeros] == sorted(table)


def test_ghost_multiplicity_values(ctx):
    assert ghost_multiplicity(ctx, 4, 24) == 3
    assert ghost_multiplicity(ctx, 1, 24) == 0
    assert ghost_multiplicity(ctx, 6, 36) == 4
    assert ghost_multiplicity(ctx, 8, 48) == 6
    assert ghost_multiplicity(ctx, 2, 6) == 0
    with pytest.raises(DomainError):
        ghost_multiplicity(ctx, 0, 24)


def test_multiplicity_symmetry(ctx):
    for k in ctx.class_members(6, 120):
        checks.check_multiplicity_symmetry(ctx, k)


def _naive_polynomial(ctx, n):
    # the triangle rule bullet by bullet, up to the first bullet with d_ur >= n
    # (d_ur never falls, so no later bullet is a zero): no _bullet_bound read
    out, j = {}, 0
    while (dims := ctx.dims_of_bullet(j))[1] < n:
        d_iw, d_ur = dims
        if n < d_iw - d_ur:
            out[ctx.weight_of_bullet(j)] = min(n - d_ur, d_iw - d_ur - n)
        j += 1
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 9, 17, 40])
def test_polynomial_matches_naive_scan(ctx, n):
    assert dict(ghost_polynomial(ctx, n).zeros) == _naive_polynomial(ctx, n)


def test_polynomial_matches_naive_scan_other_contexts():
    # every n that ``ghost -n`` serves, on the six contexts CI's verify runs and one more
    for c in (
        GhostContext(p=7, a=2, s_eps=1),
        GhostContext(p=11, a=6, s_eps=9, global_mult=3, mode="strict"),
        GhostContext(p=13, a=5, s_eps=11),
        GhostContext(p=5, a=1, s_eps=0),
        GhostContext(p=11, a=3, s_eps=0),
        GhostContext(p=13, a=7, s_eps=2),
        GhostContext(p=11, a=2, s_eps=0, mode="strict"),
    ):
        for n in range(1, MAX_GHOST_N + 1):
            assert dict(ghost_polynomial(c, n).zeros) == _naive_polynomial(c, n), (c, n)


def test_json_schema(capsys):
    assert main(["ghost", "-n", "3", "--format", "json"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump[0] == {"n": 1, "zeros": [{"k": 6, "mult": 1}]}
    assert [entry["n"] for entry in dump] == [1, 2, 3]
    assert all(
        isinstance(z["k"], int) and isinstance(z["mult"], int)
        for entry in dump
        for z in entry["zeros"]
    )


# -- zero sets and M(k) --------------------------------------------------------


@dataclass(frozen=True)
class GhostZeroSet:
    """Zeros of g_1 .. g_{d_iw(k)} together with M(k), the largest
    distance from w_k to another zero (the good-region radius)."""

    k: int
    zeros: tuple  # ascending weights, k itself included when it is a zero
    m_of_k: Valuation


def _is_zero_bullet(ctx, j: int) -> bool:
    d_iw, d_ur = ctx.dims_of_bullet(j)
    # a zero of some g_n with n >= 1 needs a nonempty triangle meeting n >= 1
    return d_iw - 2 * d_ur >= 2 and d_iw - d_ur >= 2


def ghost_zero_set(ctx, k: int) -> GhostZeroSet:
    """GZ(k), listed bullet by bullet, with its good-region radius M(k): the
    pointwise oracle of :func:`max_zero_distance`'s closed form.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> ghost_zero_set(ctx, 24).m_of_k
    Valuation(2)
    """
    bound = _walk_end(ctx, _bullet_bound(ctx, dimensions(ctx, k).d_iw))
    zeros = tuple(ctx.weight_of_bullet(j) for j in range(bound) if _is_zero_bullet(ctx, j))
    return GhostZeroSet(k=k, zeros=zeros, m_of_k=max_zero_distance(ctx, k))


def test_zero_set_oracle_example():
    # the oracle's docstring example, run as the library's are
    result = doctest.testmod(sys.modules[__name__])
    assert (result.failed, result.attempted) == (0, 2)


def test_ghost_zero_set_24(ctx):
    gz = ghost_zero_set(ctx, 24)
    assert gz.m_of_k == Valuation(2)
    assert gz.zeros == tuple(range(6, 175, 6))  # every class weight through 174
    assert 24 in gz.zeros
    # distance-2 neighbours inside the zero set
    assert [z for z in gz.zeros if weight_distance(24, z, 7) == Valuation(2)] == [
        66, 108, 150,
    ]


def test_m_of_k_small_weights(ctx):
    assert max_zero_distance(ctx, 6) == Valuation(1)
    assert max_zero_distance(ctx, 12) == Valuation(2)
    assert max_zero_distance(ctx, 24) == Valuation(2)


def _naive_m_of_k(c, k):
    gz = ghost_zero_set(c, k)
    best = Valuation(0)
    for z in gz.zeros:
        if z != k:
            best = max(best, weight_distance(k, z, c.p))
    return best


def test_m_of_k_matches_naive(ctx):
    for k in ctx.class_members(6, 1200):
        assert max_zero_distance(ctx, k) == _naive_m_of_k(ctx, k), k


def test_m_of_k_matches_naive_other_context():
    c = GhostContext(p=11, a=6, s_eps=9, mode="strict")
    for k in c.class_members(2, 800):
        assert max_zero_distance(c, k) == _naive_m_of_k(c, k), k


@given(case=context_and_weight())
# weights whose farthest zero lies p^e - 1 bullets away, one short of
# raising M(k)
@example(case=(GhostContext(5, 1, 2), 23))
@example(case=(GhostContext(7, 1, 4), 47))
@settings(max_examples=150, deadline=None)
def test_m_of_k_matches_naive_random_contexts(case):
    c, k = case
    assert max_zero_distance(c, k) == _naive_m_of_k(c, k)


# -- anchored valuations (hatted coefficients) ---------------------------------

# v_p(g_{n,24-hat}(w_24)) for n = 0..8, from the distance-weighted sums
# (deg g_8 = 79 plus the distance-2 bonus at 66, 108, 150 gives 89)
HATTED_24 = [0, 1, 3, 8, 17, 30, 47, 67, 89]


def test_anchored_valuation_frozen(ctx):
    for n, expected in enumerate(HATTED_24):
        assert anchored_valuation(ctx, n, 24) == expected


def test_hatted_table_matches_pointwise(ctx):
    assert hatted_valuation_table(ctx, 24, 8) == HATTED_24
    for k in (6, 12, 30, 102, 600):
        d_iw = dimensions(ctx, k).d_iw
        table = hatted_valuation_table(ctx, k, d_iw)
        assert table == [anchored_valuation(ctx, n, k) for n in range(d_iw + 1)]


def test_hatted_table_other_contexts():
    for c in (
        GhostContext(p=5, a=1, s_eps=0),
        GhostContext(p=11, a=6, s_eps=9, mode="strict"),
    ):
        for k in list(c.class_members(2, 40 * c.p)):
            d_iw = dimensions(c, k).d_iw
            if d_iw < 1:
                continue
            table = hatted_valuation_table(c, k, d_iw)
            assert table == [anchored_valuation(c, n, k) for n in range(d_iw + 1)]


def test_ghost_duality(ctx):
    # derivative_polygon raises unless v(c+l) - v(c-l) = (k-2) * l with
    # c = d_iw/2, for l up to d_new/2
    for k in ctx.class_members(6, 400):
        derivative_polygon(ctx, k)


def test_ghost_duality_wraparound_classes():
    for c in (
        GhostContext(p=11, a=6, s_eps=9, mode="strict"),
        GhostContext(p=13, a=5, s_eps=11, mode="strict"),
        GhostContext(p=11, a=2, s_eps=8, mode="strict"),
        GhostContext(p=7, a=2, s_eps=4),
    ):
        for k in c.class_members(2, 30 * c.p):
            derivative_polygon(c, k)


def test_degree_table(ctx):
    assert degree_table(ctx, 8) == [0, 1, 4, 10, 19, 30, 44, 60, 79]
    table = degree_table(ctx, 40)
    for n in (1, 2, 3, 9, 17, 40):
        assert table[n] == ghost_polynomial(ctx, n).degree()


PERIOD_CASES = [(p, mode) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
                for mode in ("strict", "exploratory") if p >= 11 or mode == "exploratory"]


def period_contexts(p, mode):
    """(a, s_eps, context) for up to four parameter sets at p."""
    lo = 2 if mode == "strict" else 1
    hi = p - 3 - lo
    for a, s_eps in {(lo, 0), (hi, p - 2), ((lo + hi) // 2, (p - 1) // 2), (lo, p - 2)}:
        yield a, s_eps, GhostContext(p, a, s_eps, mode=mode)


@pytest.mark.parametrize("p, mode", PERIOD_CASES)
def test_degree_table_past_its_period(p, mode):
    # a first step and then one period of 2p steps, cycled; built at once or
    # read short first (below one period, at it, past it), it equals the walk
    for a, s_eps, ctx in period_contexts(p, mode):
        n = 12 * p + 5
        walk = [0, *accumulate(accumulate(_triangle_steps(ctx, [(range(_bullet_bound(ctx, n)), 1)], [0] * n)))]
        assert degree_table(ctx, n) == walk, (a, s_eps)
        grown = GhostContext(p, a, s_eps, mode=mode)
        for m in (p, 2 * p + 1, n):
            assert degree_table(grown, m) == walk[: m + 1], (a, s_eps, m)
        assert len(grown._caches["periods"][None][0]) == 2 * p + 1


def test_residue_tables_held_stay_under_the_table_cap():
    # tables to one period of S_1 on every residue at p = 61 and 67, and to
    # 3000 on 200 residues at p = 1009: S_1's reads are held, with their
    # values, until the next would take the entries held past MAX_TABLE_INDEX;
    # it drops them all, deg's too, and the count starts again; the steps
    # held total at most MAX_TABLE_INDEX + 2p + 1, the last read is held,
    # and every table equals one built on a fresh context
    for p in (61, 67, 1009):
        ctx = GhostContext(p, 1, 0)
        n_hi, residues = (2 * p * p + 1, range(p)) if p < 100 else (3000, range(100, 300))
        for kb in residues:
            k = ctx.weight_of_bullet(kb)
            assert hatted_valuation_table(ctx, k, n_hi) == hatted_valuation_table(GhostContext(p, 1, 0), k, n_hi), k
        held = ctx._caches["periods"]
        assert sum(len(steps) for steps, _ in held.values()) <= ghost.MAX_TABLE_INDEX + 2 * p + 1, p
        assert sum(len(steps) + len(values) for steps, values in held.values()) <= ghost.MAX_TABLE_INDEX, p
        fit = (ghost.MAX_TABLE_INDEX - 4 * p - 3) // (2 * n_hi + 1)  # after deg's 2p + 1 steps, 2p + 2 values
        assert (fit, len(held) - 1) == {61: (33, 28), 67: (27, 13), 1009: (82, 36)}[p], p
        assert (residues[-1] % p) in held and len(held) - 1 == (len(residues) - 1) % fit + 1, p


def test_a_read_past_the_cap_drops_the_held_ones_or_is_not_held(monkeypatch):
    # under MAX_TABLE_INDEX = 1000 at p = 101 (S_1's period: 20,403 steps), a
    # read to 300 (601 entries with its values) drops the one before it, and
    # a read to 600 (1201 entries) is not held and drops nothing
    monkeypatch.setattr(ghost, "MAX_TABLE_INDEX", 1000)
    ctx = GhostContext(101, 2, 1)
    for r in (0, 1):
        assert _period(ctx, r, 300)[1] is not None and list(ctx._caches["periods"]) == [r]
    steps, values = _period(ctx, 2, 600)
    assert len(steps) == 600 and values is None and list(ctx._caches["periods"]) == [1]


def test_held_residue_reads_grow_to_twice_their_length(monkeypatch):
    # a held S_1 read that a longer read outgrows is rebuilt to twice its
    # length, never past one period (1 + 2p^2 = 99 at p = 7) nor short of the
    # read; where that would not fit beside what is held (a first read to 10
    # holds 21 entries), the read is built to its own length, and held
    ctx = GhostContext(7, 2, 1)
    assert [len(_period(ctx, 3, n)[0]) for n in (10, 11, 30, 90, 99, 200)] == [10, 20, 40, 90, 99, 99]
    for cap, size in ((61, 11), (62, 20)):
        monkeypatch.setattr(ghost, "MAX_TABLE_INDEX", cap)
        ctx = GhostContext(7, 2, 1)
        _period(ctx, 3, 10)
        steps, values = _period(ctx, 3, 11)
        assert (len(steps), len(values), list(ctx._caches["periods"])) == (size, size + 1, [3]), cap


@st.composite
def rise_contexts(draw):
    """A context in either mode, its prime drawn from 5, 7, 11, 13 and 101."""
    mode = draw(st.sampled_from(("strict", "exploratory")))
    p = draw(st.sampled_from((11, 13, 101) if mode == "strict" else (5, 7, 11, 13, 101)))
    a = draw(st.integers(2, p - 5) if mode == "strict" else st.integers(1, p - 4))
    return GhostContext(p, a, draw(st.integers(0, p - 2)), mode=mode)


@example(ctx=GhostContext(5, 1, 0))
@example(ctx=GhostContext(101, 7, 40, mode="strict"))
@given(ctx=rise_contexts())
@settings(max_examples=6, deadline=None)
def test_residue_tables_rise_from_the_lemma_start(ctx):
    # the lemma of _period, which the window certificate's S_1 term rests on:
    # past N0 = ceil(4p^2/(p-1)^2) no stride-1 table falls, for any residue
    n0 = -(-4 * ctx.p**2 // (ctx.p - 1) ** 2)
    assert n0 <= 7
    for r in range(ctx.p):
        table = _anchored_table(ctx, r, 20_000, lambda d: int(d != 1))  # S_1 on j = r (mod p)
        assert all(map(le, table[n0:-1], table[n0 + 1 :])), (ctx, r)


@example(ctx=GhostContext(5, 1, 0))
@example(ctx=GhostContext(101, 7, 40, mode="strict"))
@given(ctx=rise_contexts())
@settings(max_examples=8, deadline=None)
def test_periods_match_their_oracles(ctx):
    # the period law of _period: deg's table and S_1's, each cycled from one
    # period by the table kernel, against the values summed from _corner_steps
    # and from _triangle_steps over the whole residue class, 3 periods past
    # step 0, every residue for p <= 13 and three for p = 101; and deg(n),
    # deg(n+1) - deg(n) and S_1(n) from _at, read short first, against the
    # same values (every n, or every 1999th at p = 101)
    p = ctx.p
    for r in [None, *(range(p) if p <= 13 else (0, ctx.a, p - 1))]:
        top = 1 + 3 * (2 * p if r is None else 2 * p * p)
        if r is None:
            oracle = _corner_steps(ctx, top)
        else:
            oracle = _triangle_steps(ctx, [(range(r, _bullet_bound(ctx, top), p), 1)], [0] * top)
        values = [0, *accumulate(accumulate(oracle))]
        for n in range(0, top - 1, 1 if p <= 13 or r is None else 1999):
            assert _at(_period(ctx, r, n + 1), n) == (values[n], values[n + 1] - values[n]), (r, n)
        assert (degree_table(ctx, top) if r is None else _anchored_table(ctx, r, top, lambda d: int(d != 1))) == values, r


def test_reads_not_held_match_held_ones(monkeypatch):
    # with no room under MAX_TABLE_INDEX no S_1 read is held: _at sums a read
    # within a period from its steps, reads one past it from the period's
    # values, and keeps neither; both equal what a context holding them reads
    held, bare = GhostContext(7, 2, 1), GhostContext(7, 2, 1)
    want = {(r, n): _at(_period(held, r, n + 1), n) for r in [None, *range(7)] for n in range(300)}
    monkeypatch.setattr(ghost, "MAX_TABLE_INDEX", 0)
    assert all(_at(_period(bare, r, n + 1), n) == value for (r, n), value in want.items())
    assert list(bare._caches["periods"]) == [None] and len(held._caches["periods"]) == 8


@pytest.mark.parametrize("p, mode", PERIOD_CASES)
def test_degree_increment_floor_is_exact(p, mode):
    # the convexity lemma of _period: t2 - t1 lies in [3, p-2], and past step
    # 0 deg's steps are >= 1, so an increment is the least of the 30p from it
    for a, s_eps, ctx in period_contexts(p, mode):
        assert 3 <= ctx.t2 - ctx.t1 <= p - 2, (a, s_eps)
        steps = _corner_steps(ctx, 12 * p + 30 * p)
        assert min(steps[1:]) >= 1, (a, s_eps)
        incs = list(accumulate(steps))
        for n in range(12 * p):
            assert _at(_period(ctx, None, n + 1), n)[1] == min(incs[n : n + 30 * p]), (a, s_eps, n)


@given(ctx=rise_contexts())
@settings(max_examples=10, deadline=None)
def test_window_increment_floor_is_the_least_increment_past_it(ctx):
    # the certificate's floor, the last entry of a window at n: the least of
    # the next 30p increments of deg, summed from _corner_steps
    p = ctx.p
    incs = list(accumulate(_corner_steps(ctx, 36 * p + 11)))
    for n in range(6 * p + 11):
        assert _window(ctx, ctx.k_eps, n, False)[3] == min(incs[n : n + 30 * p]), n


# -- pointwise evaluation -------------------------------------------------------


def test_weight_point_validation():
    wp = WeightPoint(anchor=24, radius=Fraction(3, 2))
    assert wp.radius == Valuation(Fraction(3, 2))
    assert WeightPoint(anchor=24, radius=INF).radius.is_infinite
    with pytest.raises(DomainError):
        WeightPoint(anchor=24, radius=-1)


# V_n at radius 1 < nu < 2 around w_24: A[n] + B[n]*nu, frozen by hand
LEVEL1_A = [0, 1, 3, 8, 15, 26, 39, 53, 69]
LEVEL1_B = [0, 0, 1, 2, 4, 4, 5, 7, 10]


def test_evaluate_mid_level(ctx):
    for nu in (Fraction(3, 2), Fraction(5, 4), Fraction(9, 8)):
        wp = WeightPoint(anchor=24, radius=nu)
        for n in range(9):
            expected = Valuation(LEVEL1_A[n] + LEVEL1_B[n] * nu)
            assert evaluate_ghost_valuation(ctx, n, wp) == expected


def test_evaluate_small_radius_is_degree_times_radius(ctx):
    nu = Fraction(1, 3)
    wp = WeightPoint(anchor=24, radius=nu)
    deg = degree_table(ctx, 8)
    for n in range(9):
        assert evaluate_ghost_valuation(ctx, n, wp) == Valuation(deg[n] * nu)


def test_evaluate_beyond_m_of_k(ctx):
    # for r >= M(24) = 2 only the anchor multiplicity keeps growing
    m24 = [ghost_multiplicity(ctx, n, 24) if n else 0 for n in range(9)]
    for nu in (Fraction(2), Fraction(7, 2), Fraction(100)):
        wp = WeightPoint(anchor=24, radius=nu)
        for n in range(9):
            expected = Valuation(HATTED_24[n] + m24[n] * nu)
            assert evaluate_ghost_valuation(ctx, n, wp) == expected


def test_evaluate_at_ghost_zero_is_infinite(ctx):
    wp = WeightPoint(anchor=24, radius=INF)
    for n in range(9):
        val = evaluate_ghost_valuation(ctx, n, wp)
        if 1 < n < 7:
            assert val.is_infinite
        else:
            assert val == Valuation(HATTED_24[n])
    trip = dimensions(ctx, 24)
    assert (trip.d_ur, trip.d_iw - trip.d_ur) == (1, 7)
    assert hatted_valuation_table(ctx, 24, 8) == HATTED_24


def test_valuation_table_matches_evaluate(ctx):
    for radius in (Fraction(1, 2), Fraction(3, 2), Fraction(13, 5), 4):
        nums, den = valuation_table_at(ctx, 24, radius, 12)
        wp = WeightPoint(anchor=24, radius=radius)
        for n in range(13):
            assert Valuation(Fraction(nums[n], den)) == evaluate_ghost_valuation(
                ctx, n, wp
            )


def test_level_tables(ctx):
    a0, b0 = level_tables(ctx, 24, 0, 8)
    assert a0 == [0] * 9
    assert b0 == degree_table(ctx, 8)
    a1, b1 = level_tables(ctx, 24, 1, 8)
    assert (a1, b1) == (LEVEL1_A, LEVEL1_B)
    a2, b2 = level_tables(ctx, 24, 2, 8)
    assert a2 == HATTED_24
    assert b2 == [0, 0, 1, 2, 3, 2, 1, 0, 0]  # the anchor triangle


def test_level_tables_consistent_at_integer_radii(ctx):
    for k in (24, 54, 96):
        for level in range(4):
            a_lo, b_lo = level_tables(ctx, k, level, 10)
            a_hi, b_hi = level_tables(ctx, k, level + 1, 10)
            r = level + 1
            for n in range(11):
                assert a_lo[n] + b_lo[n] * r == a_hi[n] + b_hi[n] * r


# -- property-based checks -------------------------------------------------------


@given(n=st.integers(min_value=1, max_value=60), j=st.integers(min_value=0, max_value=80))
@settings(max_examples=120, deadline=None)
def test_multiplicity_matches_raw_formula(n, j):
    c = GhostContext(p=7, a=2, s_eps=1)
    k = c.weight_of_bullet(j)
    d_iw, d_ur = c.dims_of_bullet(j)
    expected = (
        min(n - d_ur, d_iw - d_ur - n) if d_ur < n < d_iw - d_ur else 0
    )
    assert ghost_multiplicity(c, n, k) == max(expected, 0)


@given(
    n=st.integers(min_value=1, max_value=30),
    num=st.integers(min_value=0, max_value=40),
    den=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_evaluate_matches_naive_sum(n, num, den):
    c = GhostContext(p=7, a=2, s_eps=1)
    radius = Fraction(num, den)
    wp = WeightPoint(anchor=24, radius=radius)
    total = Fraction(0)
    for k2, m in ghost_polynomial(c, n).zeros:
        if k2 == 24:
            total += m * radius
        else:
            total += m * min(radius, Fraction(weight_distance(24, k2, 7).value))
    assert evaluate_ghost_valuation(c, n, wp) == Valuation(total)
