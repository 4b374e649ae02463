"""Exact linear algebra behind the wedge-trace and binomial-determinant identities.

Everything here is desk-scale linear algebra over exact rationals: the
formal wedge trace of a tuple of matrices, the unit-determinant binomial
matrices that link characteristic-series coefficients to the top wedge
trace and their truncations, determinants, the binomial Vandermonde
determinants behind their minors, and an exact solver for the binomial
systems.  The identities themselves (the scalar-slot collapse, the unit
determinants and cofactor, the round trip through the binomial system)
are checks in ``checks``, which ``verify`` and the tests share.  The
brute-force summations are capped at d <= 8; this module exists to
certify identities, not to compute fast.

Binomial Vandermonde rows carry descending column indices (top row
C(x_j, n-1), bottom row C(x_j, 0)), the layout these determinants take
as minors of the binomial matrices; with it the consecutive descending
arguments give exactly +1 and the general value is
(-1)^(n(n-1)/2) * Vandermonde(xs) / (0! 1! ... (n-1)!).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from typing import List, Sequence, Tuple

from .errors import DomainError

WEDGE_CAP = 8


class TruncationMode(Enum):
    UPPER_LEFT = "upper_left"
    SPLIT = "split"


@dataclass(frozen=True)
class ExactMatrix:
    """An immutable matrix with exact rational entries."""

    rows: int
    cols: int
    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise DomainError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(row) != self.cols for row in self.entries):
            raise DomainError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, grid: Sequence[Sequence]) -> "ExactMatrix":
        entries = tuple(tuple(Fraction(x) for x in row) for row in grid)
        if not entries:
            raise DomainError("matrix needs at least one row")
        return cls(len(entries), len(entries[0]), entries)

    @classmethod
    def identity(cls, d: int, scale=1) -> "ExactMatrix":
        s = Fraction(scale)
        return cls.from_rows([[s if i == j else 0 for j in range(d)] for i in range(d)])

    def is_square(self) -> bool:
        return self.rows == self.cols


def _perm_sign(perm: Tuple[int, ...]) -> int:
    flips = sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm)))
    return -1 if flips % 2 else 1


def formal_wedge_trace(mats: Sequence[ExactMatrix]) -> Fraction:
    """Trace of the formal wedge product of n same-size square matrices.

    Sums sgn(sigma) * prod_m t^(m)[i_m, sigma(i_m)] over all n-subsets
    i_1 < ... < i_n and bijections sigma of the subset.  The empty
    product is 1.  For n copies of one matrix this is the sum of its
    principal n x n minors.

    >>> B = ExactMatrix.from_rows([[1, 2], [3, 4]])
    >>> formal_wedge_trace([B, B])
    Fraction(-2, 1)
    """
    n = len(mats)
    if n == 0:
        return Fraction(1)
    d = mats[0].rows
    if any(not m.is_square() or m.rows != d for m in mats):
        raise DomainError("wedge factors must be square and share a size")
    if d > WEDGE_CAP:
        raise DomainError(f"d = {d} exceeds the d <= {WEDGE_CAP} brute-force cap")
    if n > d:
        raise DomainError(f"cannot wedge {n} factors in size {d}")
    total = Fraction(0)
    for subset in combinations(range(d), n):
        for perm in permutations(range(n)):
            term = _perm_sign(perm)
            prod = Fraction(1)
            for m in range(n):
                prod *= mats[m].entries[subset[m]][subset[perm[m]]]
            total += term * prod
    return total


def d_matrix(d: int) -> ExactMatrix:
    """The unit lower-triangular binomial matrix with entries C(d-j, d-i).

    >>> d_matrix(3).entries
    ((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))
    """
    if d < 1:
        raise DomainError("size must be positive")
    return ExactMatrix.from_rows(
        [[comb(d - j, d - i) for j in range(1, d + 1)] for i in range(1, d + 1)]
    )


def d_matrix_truncated(d: int, j: int, mode: TruncationMode) -> ExactMatrix:
    """First j columns of the binomial matrix with rows kept by mode.

    UPPER_LEFT keeps rows 1..j.  SPLIT keeps rows 1..j/2 and the last
    j/2 rows (j even only): the system whose middle equations were
    discarded.
    """
    if not 1 <= j <= d:
        raise DomainError(f"need 1 <= {j} <= {d}")
    full = d_matrix(d)
    if mode is TruncationMode.UPPER_LEFT:
        keep = list(range(j))
    elif mode is TruncationMode.SPLIT:
        if j % 2:
            raise DomainError("the split form needs an even column count")
        keep = list(range(j // 2)) + list(range(d - j // 2, d))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return ExactMatrix.from_rows(
        [[full.entries[i][c] for c in range(j)] for i in keep]
    )


def determinant(mat: ExactMatrix) -> Fraction:
    """Exact determinant by Gaussian elimination over rationals."""
    if not mat.is_square():
        raise DomainError("determinant needs a square matrix")
    n = mat.rows
    rows = [list(r) for r in mat.entries]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


def binomial_vandermonde(xs: Sequence[int]) -> Fraction:
    """det of the square array C(x_j, n-1) down to C(x_j, 0), by rows.

    Consecutive descending integers give exactly 1; in general the value
    is (-1)^(n(n-1)/2) times the plain Vandermonde of xs over
    0! 1! ... (n-1)!.

    >>> binomial_vandermonde((4, 3, 2, 1))
    Fraction(1, 1)
    >>> binomial_vandermonde((3, 1, 0))
    Fraction(3, 1)
    """
    n = len(xs)
    if n == 0:
        return Fraction(1)
    grid = [[_binom_poly(x, n - 1 - i) for x in xs] for i in range(n)]
    return determinant(ExactMatrix.from_rows(grid))


def _binom_poly(x: int, k: int) -> Fraction:
    # binomial polynomial x(x-1)...(x-k+1)/k!, valid for any integer x
    num = 1
    for t in range(k):
        num *= x - t
    return Fraction(num, factorial(k))


def solve_unit_system(mat: ExactMatrix, rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve mat * x = rhs exactly (square, invertible) by Cramer's rule:
    x_c is det(mat with column c replaced by rhs) / det(mat)."""
    if not mat.is_square() or mat.rows != len(rhs):
        raise DomainError("system shape mismatch")
    det = determinant(mat)
    if not det:
        raise DomainError("singular system")
    return [
        determinant(ExactMatrix.from_rows([r[:c] + (v,) + r[c + 1 :] for r, v in zip(mat.entries, rhs)]))
        / det
        for c in range(mat.cols)
    ]


def random_int_matrix(rng, d: int) -> ExactMatrix:
    """Seeded d x d matrix of integers in -9..9 for reproducible identity checks."""
    return ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)])
