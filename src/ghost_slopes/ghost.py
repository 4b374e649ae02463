"""Ghost series for a fixed (p, a, eps): dimensions, multiplicities, zeros.

A ghost context fixes a prime p, a residual parameter a, and a twist
exponent s_eps.  Weights live in the congruence class k = k_eps mod (p-1);
the class member with index j ("bullet") is k = k_eps + j*(p-1).  The
ghost series is G(w, t) = 1 + sum_n g_n(w) t^n where each coefficient
g_n(w) = prod_k (w - w_k)^{m_n(k)} is a product over ghost zeros, and the
multiplicity pattern m_n(k) is the triangle

    m_n(k) = min(n - d_ur(k), d_iw(k) - d_ur(k) - n)   clipped at 0,

built from the dimension triple (d_iw, d_ur, d_new) of each weight.

Everything here is exact integer/rational arithmetic.  The module also
provides batch kernels (valuation tables over all n at once) used by the
polygon and threshold layers: each table is the double cumulative sum of
its second differences ("steps", small ints), one combined period of deg and
S_1 cycled, so for N zeros up to n_hi an anchor costs O(N/p^2 + n_hi).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import isqrt
from operator import add
from typing import NamedTuple

from .errors import ConfigError, DomainError, VerificationError
from .valuation import Valuation, vp_int_raw, weight_distance

#: Largest weight a query may name, and the largest weight a walk over
#: bullets one at a time may reach; either raises past it.  Strided table
#: walks visit about n_hi / 2 bullets per stride and answer to
#: MAX_TABLE_INDEX instead.
K_CEILING = 10**9

#: Largest global multiplicity m(rbar) a context accepts: every threshold
#: and L-invariant block is stretched m times, so m bounds the output.
MAX_GLOBAL_MULT = 32

#: Largest index n a valuation table may reach, refused by :func:`_table_index`
#: before any table is read, allocated or grown.
MAX_TABLE_INDEX = 500_000


def _is_prime(n: int) -> bool:
    return n == 2 or n > 2 and n % 2 == 1 and all(n % f for f in range(3, isqrt(n) + 1, 2))


def _floor_log(base: int, n: int) -> int:
    """floor(log_base(n)) for n >= 1 exactly, and 0 for n = 0."""
    if n < 0:
        raise ValueError("log of a negative integer")
    e, power = 0, base
    while power <= n:
        e, power = e + 1, power * base
    return e


class DimensionTriple(NamedTuple):
    """(d_iw, d_ur, d_new) for one weight; d_iw = d_new + 2*d_ur always.

    d_ur >= 0 for every weight.  Bullet 0 is degenerate, with d_new = 0,
    when s_eps = 0 or delta_eps = 1, and then d_iw = 0 too in the latter
    case; its multiplicity triangle is empty, so no clamping is applied.
    """

    d_iw: int
    d_ur: int
    d_new: int


class _WeightPointFields(NamedTuple):
    anchor: int
    radius: Valuation


class WeightPoint(_WeightPointFields):
    """A generic point w_* of weight space, located by its distance to an
    anchor weight: radius = v_p(w_* - w_anchor), INFINITY meaning w_* is
    w_anchor exactly.

    Under the generic-position convention the distance to any other ghost
    weight k' is min(radius, weight_distance(anchor, k')).
    """

    __slots__ = ()

    def __new__(cls, anchor: int, radius):
        radius = radius if isinstance(radius, Valuation) else Valuation(radius)
        if radius < 0:
            raise DomainError("weight point radius must be >= 0")
        return super().__new__(cls, anchor, radius)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace coerces and checks too


class GhostPolynomial(NamedTuple):
    """g_n(w) as a sparse zero -> multiplicity map (absent means zero)."""

    n: int
    zeros: tuple  # ((k, mult), ...) ascending in k

    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "zeros": [{"k": k, "mult": m} for k, m in self.zeros]}


class _ContextFields(NamedTuple):
    p: int
    a: int
    s_eps: int
    global_mult: int = 1
    mode: str = "exploratory"


class GhostContext(_ContextFields):
    """Immutable parameters of one ghost series, plus derived constants.

    Parameters
    ----------
    p : prime
    a : int
        Residual weight parameter.
    s_eps : int
        Twist exponent in [0, p-2].
    global_mult : int
        The global multiplicity stretch m(rbar), default 1.
    mode : str
        "strict" enforces p >= 11 and 2 <= a <= p-5, the range where
        every slope statement is unconditional; "exploratory" allows
        p >= 5 and 1 <= a <= p-4 (the combinatorics is defined there).
        Output is the same in both modes.

    A context is the tuple of these five, by which it hashes and compares;
    ``GhostContext(*ctx)`` is an equal context with empty caches.  The derived
    constants k_eps, delta_eps, t1 and t2 are attributes, set once here.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1, mode="exploratory")
    >>> ctx.k_eps, ctx.delta_eps, ctx.t1, ctx.t2
    (6, 0, 1, 5)
    """

    def __new__(cls, p: int, a: int, s_eps: int, global_mult: int = 1, mode: str = "exploratory"):
        s = s_eps
        if mode not in ("strict", "exploratory"):
            raise ConfigError(f"unknown mode {mode!r}")
        if p > K_CEILING:
            raise ConfigError(f"p = {p} exceeds K_CEILING = {K_CEILING}")
        if not _is_prime(p):
            raise ConfigError(f"p = {p} is not prime")
        if mode == "strict":
            if p < 11:
                raise ConfigError(f"strict mode requires p >= 11, got {p}")
            if not (2 <= a <= p - 5):
                raise ConfigError(f"strict mode requires 2 <= a <= p-5, got a={a}")
        else:
            if p < 5:
                raise ConfigError(f"p must be at least 5, got {p}")
            if not (1 <= a <= p - 4):
                raise ConfigError(f"a must satisfy 1 <= a <= p-4, got a={a}")
        if not (0 <= s <= p - 2):
            raise ConfigError(f"s_eps must lie in [0, p-2], got {s}")
        if not (1 <= global_mult <= MAX_GLOBAL_MULT):
            raise ConfigError(
                f"global_mult must lie in [1, MAX_GLOBAL_MULT = {MAX_GLOBAL_MULT}], "
                f"got {global_mult}"
            )

        self = super().__new__(cls, p, a, s_eps, global_mult, mode)
        pm1 = p - 1
        bar = lambda x: x % pm1  # representative in [0, p-2]
        self.k_eps = 2 + bar(a + 2 * s)
        self.delta_eps = delta = (s + bar(a + s)) // pm1
        if a + s < pm1:
            self.t1, self.t2 = s + delta, a + s + delta + 2
        else:
            # t2 here makes t1 + t2 = k_eps mod (p+1), which the duality
            # of anchored valuations forces; it also keeps both dimension
            # counts nonnegative for every weight k >= 2 of the class.
            self.t1, self.t2 = bar(a + s) + delta + 1, s + delta + 1
        # only what later calls re-read: "derivative" polygons by bullet, which derivative_polygon
        # alone fills, and the "periods" of deg's and S_1's steps, which _period fills (dist shares them)
        self._caches = {}
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates and derives too

    # -- congruence-class bookkeeping -------------------------------------

    def in_class(self, k: int) -> bool:
        return k >= 2 and (k - self.k_eps) % (self.p - 1) == 0

    def bullet(self, k: int) -> int:
        """k_bullet with k = k_eps + k_bullet*(p-1), the inverse of :meth:`weight_of_bullet`;
        raises DomainError for a weight outside the class or past K_CEILING."""
        if not self.in_class(k):
            raise DomainError(f"k = {k} is not in the class k = {self.k_eps} + {self.p - 1}j, j >= 0")
        if k > K_CEILING:
            raise DomainError(f"weight k = {k} exceeds K_CEILING = {K_CEILING}")
        return (k - self.k_eps) // (self.p - 1)

    def weight_of_bullet(self, j: int) -> int:
        return self.k_eps + j * (self.p - 1)

    def class_members(self, lo: int, hi: int) -> range:
        """Weights of the class in [lo, hi], ascending, as a lazy range."""
        pm1 = self.p - 1
        start = lo + (self.k_eps - lo) % pm1
        return range(max(start, self.k_eps), hi + 1, pm1)

    # -- dimensions --------------------------------------------------------

    def dims_of_bullet(self, j: int) -> tuple:
        """(d_iw, d_ur) of the weight with bullet index j (uncached O(1))."""
        q = (j - self.t1) // (self.p + 1)
        rem = j - (self.p + 1) * q
        d_ur = 2 * q + 1 + (1 if rem >= self.t2 else 0)
        d_iw = 2 * j + 2 - 2 * self.delta_eps
        return d_iw, d_ur


def dimensions(ctx: GhostContext, k: int) -> DimensionTriple:
    """Dimension triple (d_iw, d_ur, d_new) of a weight in the class.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> dimensions(ctx, 24)
    DimensionTriple(d_iw=8, d_ur=1, d_new=6)
    >>> dimensions(ctx, 6)
    DimensionTriple(d_iw=2, d_ur=0, d_new=2)
    """
    d_iw, d_ur = ctx.dims_of_bullet(ctx.bullet(k))
    return DimensionTriple(d_iw=d_iw, d_ur=d_ur, d_new=d_iw - 2 * d_ur)


def _walk_end(ctx: GhostContext, j_end: int) -> int:
    """j_end, for a walk over the bullets below it one at a time, refused
    (after it is found, before it is walked) once their weights pass
    K_CEILING, with two bullets of slack."""
    if j_end > K_CEILING // (ctx.p - 1) + 2:
        raise DomainError(
            f"bullet walk to weight {ctx.weight_of_bullet(j_end)} exceeds K_CEILING = {K_CEILING}"
        )
    return j_end


def _bullet_bound(ctx: GhostContext, n_hi: int) -> int:
    """First bullet with d_ur >= n_hi; later ones vanish on 0..n_hi: as t1 < t2 <= t1 + p, d_ur = 2q
    + 1 + [rem >= t2] on j = (p+1)q + rem, rem in [t1, t1 + p], is 2q + 1 first at rem = t1, 2q + 2 at t2."""
    return max(0, (ctx.t1 if n_hi % 2 else ctx.t2) + (ctx.p + 1) * ((n_hi - 1) // 2))


def _multiplicity(d_iw: int, d_ur: int, n: int) -> int:
    # the ghost multiplicity triangle at n of a weight with dimensions (d_iw, d_ur)
    return max(0, min(n - d_ur, d_iw - d_ur - n))


def _zeros(ctx: GhostContext, n: int):
    """(bullet j, m_n(bullet j)) for each zero of g_n, ascending: every bullet below
    :func:`_bullet_bound` is walked, and those with m_n > 0 are kept."""
    for j in range(_walk_end(ctx, _bullet_bound(ctx, n))):
        m = _multiplicity(*ctx.dims_of_bullet(j), n)
        if m:
            yield j, m


def ghost_multiplicity(ctx: GhostContext, n: int, k: int) -> int:
    """m_n(k), the multiplicity of w_k as a zero of g_n: the triangle of
    the module docstring.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> ghost_multiplicity(ctx, 4, 24)
    3
    >>> ghost_multiplicity(ctx, 1, 24)
    0
    """
    if n < 1:
        raise DomainError(f"ghost index n must be >= 1, got {n}")
    trip = dimensions(ctx, k)
    return _multiplicity(trip.d_iw, trip.d_ur, n)


def ghost_polynomial(ctx: GhostContext, n: int) -> GhostPolynomial:
    """The n-th ghost coefficient g_n(w) as its zero/multiplicity list.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> [k for k, m in ghost_polynomial(ctx, 2).zeros]
    [12, 18, 24, 30]
    """
    if n < 1:
        raise DomainError(f"ghost index n must be >= 1, got {n}")
    zeros = tuple((ctx.weight_of_bullet(j), m) for j, m in _zeros(ctx, n))
    return GhostPolynomial(n=n, zeros=zeros)


# -- the good-region radius M(k) ----------------------------------------------


def floor_log_bullet(ctx: GhostContext, k: int) -> int:
    """floor(log_p k_bullet) for a class weight k, 0 when k_bullet = 0:
    the logarithmic term of the caps on M(k) and the exceptional count.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> floor_log_bullet(ctx, 6), floor_log_bullet(ctx, 42), floor_log_bullet(ctx, 48)
    (0, 0, 1)
    """
    return _floor_log(ctx.p, ctx.bullet(k))


def max_zero_distance(ctx: GhostContext, k: int) -> Valuation:
    """M(k): the largest weight distance from w_k to another ghost zero
    of g_1 .. g_{d_iw(k)}.  Returns 0 when no other zero exists.

    Runs in O(log k): the zeros are the bullets below ``bound``, the first
    with d_ur >= d_iw(k), bullet 0 perhaps excepted, and bound - 1 is the
    one farthest from k_bullet, so
    the largest v_p(k_bullet - j) over the zeros j != k_bullet is
    floor(log_p(bound - 1 - k_bullet)).  Raises VerificationError when
    M(k) exceeds the good-region bound floor(log_p k_bullet) + 3, which
    would be an implementation bug.
    """
    # Every bullet j >= 1 is a zero.  With q = (j - t1) // (p + 1), in
    # either branch of GhostContext.__new__:
    # - j < t1: q = -1 and j + p + 1 >= t2, so d_ur = 0 <= j - delta_eps;
    # - q >= 1: d_ur <= 2q + 2 < q(p + 1) <= j - delta_eps;
    # - q = 0: d_ur <= j - delta_eps fails only at j = 0 with s_eps = 0,
    #   in the a + s_eps < p - 1 branch.
    # So for j >= 1, d_new = 2(j + 1 - delta_eps - d_ur) >= 2 and
    # d_iw - d_ur >= 2.  And bound - 1 is the farthest zero: d_ur(j) <=
    # d_iw(j)/2 = j + 1 - delta_eps, so bound >= 2 k_bullet + 1 - delta_eps,
    # and the lowest zero is at least delta_eps (d_iw = 0 at bullet 0 when
    # delta_eps = 1).
    kb = ctx.bullet(k)
    return Valuation(_zero_radius(ctx, k, kb, ctx.dims_of_bullet(kb)[0]))


def _zero_radius(ctx: GhostContext, k: int, kb: int, d_iw: int) -> int:
    # M(k) as an int, k of bullet kb and d_iw(k) given, checked against its log bound
    reach = _bullet_bound(ctx, d_iw) - 1 - kb
    m_of_k = 1 + _floor_log(ctx.p, reach) if reach >= 1 else 0
    if m_of_k > (cap := floor_log_bullet(ctx, k) + 3):
        raise VerificationError(f"M({k}) = {m_of_k} exceeds the log bound {cap}")
    return m_of_k


# -- pointwise evaluation ---------------------------------------------------


def point_distance(ctx: GhostContext, w: WeightPoint, k2: int) -> Valuation:
    """v_p(w_* - w_{k2}) under the generic convention."""
    if k2 == w.anchor:
        return w.radius
    return min(w.radius, weight_distance(w.anchor, k2, ctx.p))


def anchored_valuation(ctx: GhostContext, n: int, k: int) -> int:
    """v_p of the hatted coefficient g_{n, k-hat} at w_k: the full sum of
    m_n(k') * weight_distance(k, k') over zeros k' != k.  Always an integer.

    Examples
    --------
    >>> ctx = GhostContext(p=7, a=2, s_eps=1)
    >>> anchored_valuation(ctx, 4, 24)
    17
    """
    kb = ctx.bullet(k)
    return sum(m * (1 + vp_int_raw(kb - j, ctx.p)) for j, m in _zeros(ctx, n) if j != kb)


# -- batch kernels ----------------------------------------------------------
#
# A table f(n) = sum_j wt(j) * m_n(bullet j), n = 0..n_hi, is the double
# cumulative sum of its steps: bullet j's triangle has slope +w on
# [d_ur, mid) and -w on [mid, d_iw - d_ur), mid = d_iw/2.
#
# An anchored table weighs bullet j != kb by w(1 + v_p(kb - j)) and kb by
# w_anchor.  With S_i(n) the sum of m_n over stride i, the bullets
# j = kb (mod p^i) below bound = _bullet_bound(n_hi), the weights telescope:
#
#     f(n) = w(1) * deg g_n + sum_{i=1}^{I-1} (w(i+1) - w(i)) * S_i(n)
#            + (w_anchor - w(I)) * m_n(kb),
#
# for any I >= 2 with p^I > max(kb, bound), where stride I holds only kb.
# Each stride adds one constant weight, none when it is 0.  w(1) deg + (w(2) - w(1)) S_1 is
# summed over one period of 2p^2 steps, which deg's 2p divides (_period), and cycled out to n_hi
# as one list; a table then walks only N/(p(p-1)) of the N ~ (p+1)/2 * n_hi bullets, the
# strides p^2, p^3, ..., adds their corners to it in place and accumulates the steps twice.


def _table_index(n: int) -> int:
    # n, refused past MAX_TABLE_INDEX
    if n > MAX_TABLE_INDEX:
        raise DomainError(f"table index {n} exceeds MAX_TABLE_INDEX = {MAX_TABLE_INDEX}")
    return n


def _triangle_steps(ctx, strides, steps: list) -> list:
    """``steps`` with w times the steps of m_n(bullet j) added in place for each j in
    bullets, (bullets, w) in ``strides``, every j below _bullet_bound(ctx, len(steps))."""
    P, t1, t2, lift, n_hi = ctx.p + 1, ctx.t1, ctx.t2, 1 - ctx.delta_eps, len(steps)
    for bullets, w in strides:
        for j in bullets if w else ():
            # ctx.dims_of_bullet inline: d_ur < n_hi below the bound, and an
            # empty triangle's corners d_ur = mid = d_iw - d_ur cancel
            q = (j - t1) // P
            d_ur, mid = 2 * q + 1 + (j - P * q >= t2), j + lift
            steps[d_ur] += w
            if mid < n_hi:
                steps[mid] -= 2 * w
                if 2 * mid - d_ur < n_hi:
                    steps[2 * mid - d_ur] += w
    return steps


def _corner_steps(ctx: GhostContext, n: int) -> list:
    """deg's steps [dg(0), ..., dg(n-1)], the corners of every bullet j >= 0 (see :func:`_period`;
    d_new >= 0, so an empty triangle's cancel): bullet j + p + 1 has d_ur 2 and d_iw - d_ur 2p
    higher, so the counts of bullets 0..p, carried along residues mod 2 and mod 2p, give all."""
    ur, end = [0] * n, [0] * n
    for j in range(_walk_end(ctx, min(ctx.p + 1, _bullet_bound(ctx, n)))):
        d_iw, d_ur = ctx.dims_of_bullet(j)  # d_ur < n below the bullet bound
        ur[d_ur] += 1
        if d_iw - d_ur < n:
            end[d_iw - d_ur] += 1
    for counts, rise in ((ur, 2), (end, 2 * ctx.p)):
        for m in range(rise, n):
            counts[m] += counts[m - rise]
    return [u - 2 * (m + ctx.delta_eps >= 1) + e for m, (u, e) in enumerate(zip(ur, end))]


def _period(ctx: GhostContext, r, n_hi: int) -> tuple:
    """(steps, values): at least the first min(n_hi, 1 + L) steps of deg (r None, L = 2p) or of S_1
    on the bullets j = r (mod p) (L = 2p^2), at most 1 + L, and their values if held, else None.
    ctx._caches["periods"] holds the longest read of each, rebuilt to a longer read's length (S_1's
    to twice its held length, at most 1 + L, if that fits); an S_1 read that would take the steps
    and values held past MAX_TABLE_INDEX drops them all first, and is not held if it alone would.

    Period law: past step 0 the steps have period L.  Over all integers j, d_ur and end =
    d_iw - d_ur add 1 and mid = j + 1 - delta_eps adds -2; j + p + 1 has d_ur 2 and end 2p
    higher, so the three counts have periods 2, 2p and 1, and over j = r (mod p), moved by
    p(p+1) or p, periods 2p, 2p^2 and p.  No j < 0 has a corner at n >= 1: q = (j - t1) // (p+1)
    <= -1 gives d_ur <= 2q + 2 <= 0 and mid <= 0, and end(j) <= end(-1) = 1 - 2 delta_eps -
    [p >= t2] <= 0 (t2 <= p + delta_eps), as d_ur never falls and rises 2 over p + 1 bullets.

    Convexity: deg's steps past step 0 are U(n) - 2 + E(n) >= 1, U(n) the j with d_ur(j) = n:
    d_ur = 2q + 1 + [rem >= t2] on rem = j - (p+1)q in [t1, t1 + p], so U(n) is t2 - t1 or
    p + 1 - (t2 - t1), and t2 - t1 is a + 2 or p - 1 - a, in [3, p-2].  So deg's increments
    rise, and the least one past n is deg g_{n+1} - deg g_n.

    S_1 does not fall on [N0, inf), N0 = ceil(4p^2/(p-1)^2) <= 7 (p >= 5).
    S_1(n+1) - S_1(n) = R - F, R (F) the bullets j = r (mod p) whose triangle
    rises (falls) on [n, n+1]: d_ur(j) <= n < mid(j) (mid(j) <= n < end(j)).  As
    2(j - t1)/(p+1) - 1 < d_ur(j) <= 2(j - t1)/(p+1) + 2, R holds the class on
    [n + delta_eps, (n-2)(p+1)/2 + t1] and F lies in it on ((n - 2 + 2 delta_eps)(p+1)/(2p)
    - t1/p, n - 1 + delta_eps].  A class mod p meets [a, b] at least (b - a + 2 - p)/p times
    and (a, b] at most (b - a + p)/p times, so as t1 >= delta_eps, p (R - F) >= n (p-1)^2/(2p)
    - 3p + 1 - 1/p > -p once n (p-1)^2 >= 4p^2, and the integer R - F is >= 0."""
    held, p = ctx._caches.setdefault("periods", {}), ctx.p
    size = min(n_hi, 1 + (2 * p if r is None else 2 * p * p))
    record = held.get(r)
    if record is None or len(record[0]) < size:
        room = MAX_TABLE_INDEX - sum(len(s) + len(v) for s, v in held.values())
        if r is not None and record and 2 * (grown := min(1 + 2 * p * p, 2 * len(record[0]))) + 1 <= room:
            size = max(size, grown)
        steps = (_corner_steps(ctx, size) if r is None else
                 _triangle_steps(ctx, [(range(r, _bullet_bound(ctx, size), p), 1)], [0] * size))
        if r is not None:
            if 2 * size + 1 > MAX_TABLE_INDEX:
                return steps, None
            if 2 * size + 1 > room:
                held.clear()
        record = held[r] = (steps, [0, *accumulate(accumulate(steps))])
    return record


def _at(period: tuple, n: int) -> tuple:
    """(f(n), f(n+1) - f(n)), f the table of ``period`` (:func:`_period` to n + 1 at least): with L
    its period, n = cL + m and rise = f(L+1) - f(L) - f(1) what a period adds to the increment,
    f(n) = f(m) + c f(L) + rise (L c(c-1)/2 + c m), in O(1) from a held period's values; a read
    of one not held sums its steps within a period, and keeps nothing."""
    steps, values = period
    if values is None:
        if n < len(steps):
            return sum(accumulate(islice(steps, n))), sum(islice(steps, n + 1))
        values = [0, *accumulate(accumulate(steps))]
    L, rise = len(steps) - 1, values[-1] - values[-2] - values[1]
    c, m = divmod(n, L) if n > L else (0, n)
    return values[m] + c * values[L] + rise * (L * c * (c - 1) // 2 + c * m), values[m + 1] - values[m] + c * rise


def _anchored_table(ctx: GhostContext, kb: int, n_hi: int, weight_of_distance, summed: bool = True) -> list:
    """[f(0), ..., f(n_hi)] with f(n) = sum_j w(dist(kb, j)) * m_n(bullet j), where dist is
    1 + v_p(kb - j) and ``weight_of_distance(None)`` weighs the anchor j = kb itself, or, unless
    ``summed``, its n_hi steps f(n+1) - 2 f(n) + f(n-1), n < n_hi (f(-1) = 0): the sum above, I >= 2,
    with w(1) deg + (w(2) - w(1)) S_1 summed over one period (2p^2, which deg's 2p divides; 2p if
    w(2) = w(1)) or the first n_hi steps if fewer, and cycled to n_hi in one list."""
    bound, w = _bullet_bound(ctx, _table_index(n_hi)), weight_of_distance
    strides, i, step = [], 2, ctx.p**2
    while step <= max(kb, bound):
        strides.append((range(kb % step, bound, step), w(i + 1) - w(i)))
        i, step = i + 1, step * ctx.p
    strides.append((range(kb, min(kb + 1, bound)), w(None) - w(i)))
    w1, dw = w(1), w(2) - w(1)
    deg = _period(ctx, None, n_hi)[0] if w1 else [0, 0]  # zeros stand in for deg unread
    s1 = _period(ctx, kb % ctx.p, n_hi)[0][:n_hi] if dw else deg[:n_hi]  # sets the period's length
    deg = deg[:1] + deg[1:] * -(-len(s1) // max(1, len(deg) - 1))
    period = list(map(add, deg if w1 == 1 else map(w1.__mul__, deg), s1 if dw == 1 else map(dw.__mul__, s1)))
    steps = period[1:] * -(-(n_hi - 1) // max(1, len(period) - 1))
    steps[:0] = period[:1]
    del steps[n_hi:]
    steps = _triangle_steps(ctx, strides, steps)
    return [0, *accumulate(accumulate(steps))] if summed else steps


def degree_table(ctx: GhostContext, n_hi: int) -> list:
    """deg g_n for n = 0..n_hi (deg g_0 = 0), as a list of the caller's own."""
    return _anchored_table(ctx, 0, n_hi, lambda d: 1)


def hatted_valuation_table(ctx: GhostContext, k: int, n_hi: int) -> list:
    """[v_p(g_{n, k-hat}(w_k))]_{n=0..n_hi} as plain ints.

    Matches :func:`anchored_valuation` pointwise.
    """
    return _anchored_table(ctx, ctx.bullet(k), n_hi, _hatted)


def hatted_steps(ctx: GhostContext, kb: int, n_hi: int) -> list:
    """The n_hi steps of :func:`hatted_valuation_table` on the weight of bullet kb."""
    return _anchored_table(ctx, kb, n_hi, _hatted, summed=False)


def _hatted(d):
    return 0 if d is None else d  # the hatted weight of a distance, 0 on the anchor


def valuation_table_at(ctx: GhostContext, k: int, radius, n_hi: int) -> tuple:
    """(numerators, den) with v_p(g_n(w_*)) = numerators[n]/den for a point
    at finite rational ``radius`` from anchor k, n = 0..n_hi."""
    radius = Fraction(radius)
    if radius < 0:
        raise DomainError("radius must be >= 0")
    num, den = radius.numerator, radius.denominator
    wt = lambda d: num if d is None else min(num, d * den)
    return _anchored_table(ctx, ctx.bullet(k), n_hi, wt), den


def level_tables(ctx: GhostContext, k: int, level: int, n_hi: int) -> tuple:
    """(A, B) with v_p(g_n(w_*)) = A[n] + B[n]*r exactly for every radius r in [level, level+1]
    (level >= 0): distances <= level contribute their full weight to A, strictly larger ones ride the
    radius in B.  The sweep reads A + level B and A + (level + 1) B instead, the tables at the radii
    level and level + 1; these are its tier-1 oracle, and ``perfbench/tracing.py`` traces this name."""
    kb, near = ctx.bullet(k), lambda d: d is not None and d <= level
    A = _anchored_table(ctx, kb, n_hi, lambda d: d if near(d) else 0)
    return A, _anchored_table(ctx, kb, n_hi, lambda d: 0 if near(d) else 1)
