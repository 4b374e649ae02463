"""Exact valuation arithmetic and weight distances."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghost_slopes import checks
from ghost_slopes.valuation import (
    INF,
    Valuation,
    ratio_text,
    runs_text,
    vp_int_raw,
    weight_distance,
)


def test_basic_ordering():
    assert Valuation(1) < Valuation(2)
    assert Valuation(Fraction(3, 2)) < Valuation(2)
    assert Valuation(2) < INF
    assert not (INF < INF)
    assert INF <= INF
    assert max(Valuation(5), INF) is not None


def test_equality_and_hash():
    assert Valuation(2) == Valuation(Fraction(4, 2))
    assert Valuation(2) == 2
    assert INF == INF
    assert INF != Valuation(10**9)
    assert len({Valuation(1), Valuation(Fraction(2, 2)), INF, INF}) == 2


def test_hash_agrees_with_equal_numbers():
    # equal values must find each other in sets and dicts, in both directions
    assert Valuation(3) in {3}
    assert 3 in {Valuation(3)}
    assert Valuation(Fraction(1, 2)) in {Fraction(1, 2)}
    assert {Fraction(1, 2): 1}.get(Valuation(Fraction(1, 2))) == 1
    assert {Valuation(-4): "v"}.get(-4) == "v"
    assert {Valuation(Fraction(6, 3)): "v"}.get(Fraction(2)) == "v"
    assert len({3, Valuation(3), Fraction(3)}) == 1
    assert INF not in {Valuation(0)}
    assert {INF: 1}.get(INF) == 1


def test_value_access():
    assert Valuation(Fraction(7, 3)).value == Fraction(7, 3)
    with pytest.raises(ValueError):
        INF.value


@pytest.mark.parametrize(
    "n,p,v",
    [(1, 7, 0), (7, 7, 1), (98, 7, 2), (-49, 7, 2), (343, 7, 3), (10, 5, 1), (12, 5, 0)],
)
def test_vp_int_values(n, p, v):
    assert vp_int_raw(n, p) == v


def test_vp_int_zero_is_infinite():
    # v_p(0) is INF, which no int holds: the int kernel refuses it
    with pytest.raises(ValueError):
        vp_int_raw(0, 7)


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0))
def test_vp_definition(n):
    p = 7
    v = vp_int_raw(n, p)
    assert n % p**v == 0
    assert n % p ** (v + 1) != 0


def test_weight_distance():
    # distance is 1 + v_p of the difference, infinite on the diagonal
    assert weight_distance(24, 66, 7) == Valuation(2)  # 42 = 6*7
    assert weight_distance(24, 30, 7) == Valuation(1)
    assert weight_distance(24, 24, 7).is_infinite
    assert weight_distance(24, 108, 7) == 2
    assert weight_distance(24, 318, 7) == 3  # 294 = 6*49


@given(
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=0, max_value=10**5),
)
def test_weight_distance_ultrametric(a, b, c):
    checks.check_ultrametric(5, a, b, c)


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**12), st.integers(-(10**6), 10**6))
def test_ratio_text_matches_fraction_text(num, den, quotient):
    # negative numerators, and denominators that divide the numerator
    assert ratio_text(num, den) == str(Fraction(num, den))
    assert ratio_text(quotient * den, den) == str(quotient)


def _reduced(num, den, mult):
    g = gcd(num, den)
    return num // g, den // g, mult


# runs in lowest terms: num of either sign or 0 (which reduces to den 1), den >= 1 coprime to it
REDUCED_RUNS = st.lists(
    st.builds(_reduced, st.integers(-(10**30), 10**30), st.just(1) | st.integers(1, 10**12), st.integers(1, 6)),
    max_size=8,
)


@given(REDUCED_RUNS)
def test_runs_text_matches_ratio_text(runs):
    expanded = [(a, b) for a, b, m in runs for _ in range(m)]
    texts = runs_text(runs)
    assert texts == [ratio_text(a, b) for a, b in expanded]
    assert texts == [str(Fraction(a, b)) for a, b in expanded]
