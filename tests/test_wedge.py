"""Tests for the exact wedge-trace and binomial-determinant algebra and its identity checks."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghost_slopes import DomainError
from ghost_slopes import checks
from ghost_slopes.wedge import (
    ExactMatrix,
    TruncationMode,
    binomial_vandermonde,
    d_matrix,
    d_matrix_truncated,
    determinant,
    formal_wedge_trace,
    random_int_matrix,
    solve_unit_system,
)

B22 = ExactMatrix.from_rows([[1, 2], [3, 4]])


# -- wedge traces -------------------------------------------------------------


def test_pair_wedge_equals_det_for_two_by_two():
    assert formal_wedge_trace([B22, B22]) == Fraction(-2)


def test_single_factor_is_trace():
    assert formal_wedge_trace([B22]) == Fraction(5)
    M = ExactMatrix.from_rows([[7, 1, 0], [0, -2, 5], [1, 1, 1]])
    assert formal_wedge_trace([M]) == Fraction(6)


def test_identity_wedges_count_minors():
    I4 = ExactMatrix.identity(4)
    assert [formal_wedge_trace([I4] * j) for j in range(5)] == [
        Fraction(comb(4, j)) for j in range(5)
    ]


def test_empty_wedge_is_one():
    assert formal_wedge_trace([]) == Fraction(1)


def test_wedge_errors():
    with pytest.raises(DomainError):
        formal_wedge_trace([B22] * 3)
    with pytest.raises(DomainError):
        formal_wedge_trace([B22, ExactMatrix.identity(3)])
    with pytest.raises(DomainError):
        formal_wedge_trace([ExactMatrix.identity(9)])


def test_wedge_matches_elementary_symmetric_of_char_poly():
    # coefficients of det(xI - B), found by exact interpolation, carry
    # the principal-minor sums with alternating signs
    d = 4
    rng = random.Random(3)
    for _ in range(5):
        B = random_int_matrix(rng, d)
        es = [formal_wedge_trace([B] * n) for n in range(d + 1)]
        xs = [Fraction(x) for x in range(d + 1)]
        ys = []
        for x in xs:
            M = ExactMatrix.from_rows(
                [
                    [
                        (x if r == c else Fraction(0)) - B.entries[r][c]
                        for c in range(d)
                    ]
                    for r in range(d)
                ]
            )
            ys.append(determinant(M))
        # Lagrange interpolation, exact
        coeffs = [Fraction(0)] * (d + 1)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            basis = [Fraction(1)]
            denom = Fraction(1)
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                denom *= xi - xj
                basis = [Fraction(0)] + basis[:]
                for t in range(len(basis) - 1):
                    basis[t] -= xj * basis[t + 1]
            for t in range(len(basis)):
                coeffs[t] += yi * basis[t] / denom
        for n in range(d + 1):
            assert coeffs[d - n] == (-1) ** n * es[n]


def test_symmetrized_pair_identity():
    # tr(A^B) + tr(B^A) = tr(A)tr(B) - tr(AB)
    rng = random.Random(11)
    for _ in range(6):
        d = rng.randint(2, 4)
        A = random_int_matrix(rng, d)
        checks.check_symmetrized_pair(A, random_int_matrix(rng, d))


def test_wedge_multilinearity():
    rng = random.Random(13)
    d = 3
    A = random_int_matrix(rng, d)
    A2 = random_int_matrix(rng, d)
    B = random_int_matrix(rng, d)
    summed = ExactMatrix.from_rows(
        [
            [A.entries[r][c] + A2.entries[r][c] for c in range(d)]
            for r in range(d)
        ]
    )
    assert formal_wedge_trace([summed, B]) == formal_wedge_trace(
        [A, B]
    ) + formal_wedge_trace([A2, B])


# -- the collapse identity ----------------------------------------------------


def test_collapse_two_by_two_by_hand():
    alpha = Fraction(5)
    aI = ExactMatrix.identity(2, alpha)
    lhs = formal_wedge_trace([B22, aI]) + formal_wedge_trace([aI, B22])
    assert lhs == alpha * formal_wedge_trace([B22])
    checks.check_collapse([B22], 1, alpha)


def test_collapse_all_identity():
    for d, n in ((3, 2), (4, 0), (5, 5)):
        checks.check_collapse([], n, Fraction(2, 3), d=d)


def test_collapse_seeded_instances():
    rng = random.Random(42)
    for _ in range(20):
        d = rng.randint(2, 4)
        m = rng.randint(0, d)
        n = rng.randint(0, d - m)
        mats = [random_int_matrix(rng, d) for _ in range(m)]
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        checks.check_collapse(mats, n, alpha, d=d)


def test_collapse_spot_checks_at_cap():
    rng = random.Random(17)
    mats = [random_int_matrix(rng, 8) for _ in range(2)]
    checks.check_collapse(mats, 1, Fraction(3))
    checks.check_collapse([random_int_matrix(rng, 8)], 2, Fraction(1, 2))


def test_collapse_errors():
    with pytest.raises(DomainError):
        checks.check_collapse([], 2, 1)  # size unknown
    with pytest.raises(DomainError):
        checks.check_collapse([B22], 2, 1)  # m + n > d


# -- binomial matrices --------------------------------------------------------


def test_d_matrix_frozen_three():
    assert d_matrix(3).entries == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(1)),
    )


def test_d_matrix_unit_lower_triangular():
    for d in (1, 4, 7, 10):
        M = d_matrix(d)
        for i in range(d):
            assert M.entries[i][i] == 1
            for j in range(i + 1, d):
                assert M.entries[i][j] == 0


def test_truncated_determinants_are_units():
    for d in range(1, 11):
        checks.check_truncated_determinants(d)


def test_truncation_shapes_and_errors():
    sp = d_matrix_truncated(7, 4, TruncationMode.SPLIT)
    assert (sp.rows, sp.cols) == (4, 4)
    ul = d_matrix_truncated(7, 3, TruncationMode.UPPER_LEFT)
    assert (ul.rows, ul.cols) == (3, 3)
    with pytest.raises(DomainError):
        d_matrix_truncated(7, 3, TruncationMode.SPLIT)
    with pytest.raises(DomainError):
        d_matrix_truncated(7, 8, TruncationMode.UPPER_LEFT)


def test_split_rows_come_from_both_ends():
    d, j = 6, 4
    sp = d_matrix_truncated(d, j, TruncationMode.SPLIT)
    full = d_matrix(d)
    assert sp.entries[0] == full.entries[0][:j]
    assert sp.entries[1] == full.entries[1][:j]
    assert sp.entries[2] == full.entries[4][:j]
    assert sp.entries[3] == full.entries[5][:j]


# -- binomial Vandermonde -----------------------------------------------------


def test_bv_consecutive_descending_is_one():
    for n in range(1, 9):
        for n0 in range(6):
            checks.check_bv_consecutive(n, n0)


def test_bv_small_values():
    assert binomial_vandermonde((3, 1, 0)) == Fraction(3)
    assert binomial_vandermonde((5,)) == Fraction(1)
    assert binomial_vandermonde(()) == Fraction(1)
    assert binomial_vandermonde((2, 2)) == Fraction(0)


@given(
    xs=st.lists(
        st.integers(min_value=-12, max_value=12), min_size=1, max_size=6, unique=True
    )
)
@settings(max_examples=60, deadline=None)
def test_bv_sign_relation(xs):
    n = len(xs)
    vand = Fraction(1)
    for i, j in combinations(range(n), 2):
        vand *= xs[j] - xs[i]
    denom = 1
    for i in range(n):
        denom *= factorial(i)
    expected = (-1) ** (n * (n - 1) // 2) * Fraction(vand, denom)
    assert binomial_vandermonde(tuple(xs)) == expected


# -- unit minors and the linear system ----------------------------------------


def test_minor_unit_examples():
    checks.check_minor_unit(6, 2)
    checks.check_minor_unit(8, 4)
    checks.check_minor_unit(6, 6)
    for d in range(2, 11):
        for j in range(2, d + 1, 2):
            checks.check_minor_unit(d, j)
    with pytest.raises(DomainError):
        checks.check_minor_unit(6, 3)


def test_solve_unit_system_roundtrip():
    M = d_matrix_truncated(5, 3, TruncationMode.UPPER_LEFT)
    x = [Fraction(2, 3), Fraction(-1), Fraction(7, 2)]
    rhs = [
        sum(M.entries[i][c] * x[c] for c in range(3)) for i in range(3)
    ]
    assert solve_unit_system(M, rhs) == x


def test_roundtrip_single_unknown():
    checks.check_roundtrip(5, 1, Fraction(7), [Fraction(9, 4)])


def test_roundtrip_seeded_instances():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(1, 8)
        j = rng.randint(1, d)
        alpha = Fraction(rng.randint(1, 50), rng.randint(1, 7))
        ms = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(j)]
        checks.check_roundtrip(d, j, alpha, ms)


def test_roundtrip_errors():
    with pytest.raises(DomainError):
        checks.check_roundtrip(4, 2, 0, [Fraction(1), Fraction(2)])
    with pytest.raises(DomainError):
        checks.check_roundtrip(4, 2, 1, [Fraction(1)])


# -- the expansion identity ---------------------------------------------------


def _mixed_trace(mats_by_index, composition):
    return formal_wedge_trace([mats_by_index[k] for k in composition])


def test_quadratic_family_expansion():
    # coefficient of u^j in tr(wedge^i of A0 + A1 u + A2 u^2), summed by
    # brute force over compositions, equals the scalar-collapsed form
    rng = random.Random(29)
    for d in (2, 3, 4):
        alpha = Fraction(rng.randint(1, 9))
        A = {
            0: ExactMatrix.identity(d, alpha),
            1: random_int_matrix(rng, d),
            2: random_int_matrix(rng, d),
        }
        for i in range(1, d + 1):
            for j in range(0, 2 * i + 1):
                brute = sum(
                    (
                        _mixed_trace(A, ks)
                        for ks in product((0, 1, 2), repeat=i)
                        if sum(ks) == j
                    ),
                    Fraction(0),
                )
                if j == 0:
                    assert brute == comb(d, i) * alpha**i
                    continue
                collapsed = Fraction(0)
                for l in range(1, min(i, j) + 1):
                    mixed = sum(
                        (
                            _mixed_trace(A, ks)
                            for ks in product((1, 2), repeat=l)
                            if sum(ks) == j
                        ),
                        Fraction(0),
                    )
                    collapsed += comb(d - l, i - l) * alpha ** (i - l) * mixed
                assert brute == collapsed
