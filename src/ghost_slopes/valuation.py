"""Exact p-adic valuations.

Valuations are either exact rationals (``fractions.Fraction``) or the
distinguished infinite value ``INF``.  Infinity is a tagged variant of
:class:`Valuation`, never a float sentinel, so comparisons stay total and
exact: ``INF > v`` for every finite ``v``.  A Valuation is a value to
order, hash and print, not to compute with: the library computes on
integers and builds one only where a result is compared or printed.

The normalization is v_p(p) = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Tuple, Union

Rational = Union[int, Fraction]


class Valuation:
    """An exact valuation: a rational number or positive infinity.

    Instances are immutable.  Construct finite values with ``Valuation(q)``
    and use the module constant :data:`INF` for the infinite one.

    Examples
    --------
    >>> Valuation(Fraction(7, 2))
    Valuation(7/2)
    >>> min(INF, Valuation(5))
    Valuation(5)
    >>> INF.is_infinite
    True
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[Rational, None] = None, *, _infinite: bool = False):
        if value is None and not _infinite:
            raise TypeError("finite Valuation requires a rational value")
        self._value = None if _infinite else Fraction(value)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        """The finite rational value; raises on INF."""
        if self._value is None:
            raise ValueError("infinite valuation has no finite value")
        return self._value

    def _key(self):
        # Order key: finite values by magnitude, INF above everything.
        return (1,) if self._value is None else (0, self._value)

    def __eq__(self, other) -> bool:
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other) -> bool:
        return self._key() < _coerce(other)._key()

    def __le__(self, other) -> bool:
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other) -> bool:
        return self._key() > _coerce(other)._key()

    def __ge__(self, other) -> bool:
        return self._key() >= _coerce(other)._key()

    def __hash__(self):
        # a finite value hashes as its Fraction, so it agrees with the
        # equal int or Fraction in sets and dict keys
        return hash(self._key() if self._value is None else self._value)

    def __repr__(self):
        return "INF" if self._value is None else f"Valuation({self._value})"


def _coerce(x) -> Valuation:
    if isinstance(x, Valuation):
        return x
    if isinstance(x, (int, Fraction)):
        return Valuation(x)
    raise TypeError(f"cannot interpret {x!r} as a Valuation")


#: The infinite valuation (valuation of 0).
INF = Valuation(_infinite=True)


def vp_int_raw(n: int, p: int) -> int:
    """v_p(n) of a nonzero integer n as a plain int; n = 0 (v_p = INF) raises.

    >>> vp_int_raw(98, 7), vp_int_raw(12, 5)
    (2, 0)
    """
    if n == 0:
        raise ValueError("vp_int_raw requires nonzero n")
    n, e = abs(n), 0
    while n % p == 0:
        n, e = n // p, e + 1
    return e


def weight_distance(k1: int, k2: int, p: int) -> Valuation:
    """Valuation of the difference of the weight-space points of k1 and k2.

    For weights in a fixed congruence class mod p-1 this is
    1 + v_p(k1 - k2); equal weights give INF.  The identity
    v_p(k1 - k2) = v_p((k1 - k_eps)/(p-1) - (k2 - k_eps)/(p-1)) holds
    because p does not divide p - 1, so callers may pass either the
    weights themselves or their bullet indices scaled back up.

    Examples
    --------
    >>> weight_distance(24, 66, 7)
    Valuation(2)
    >>> weight_distance(24, 24, 7)
    INF
    """
    return INF if k1 == k2 else Valuation(1 + vp_int_raw(k1 - k2, p))


def ratio_text(num: int, den: int) -> str:
    """The text of num / den, ints with den > 0: "num/den" in lowest terms,
    bare "num" when that denominator is 1, the bytes of str(Fraction(num, den)).
    Every rational the library prints goes through here, but for runs already
    in lowest terms, which :func:`runs_text` prints with no gcd.

    Examples
    --------
    >>> ratio_text(-22, 4), ratio_text(12, 4), ratio_text(0, 7)
    ('-11/2', '3', '0')
    """
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def runs_text(runs: Iterable[Tuple[int, int, int]]) -> List[str]:
    """The text of each run (num, den, mult) already in lowest terms, den > 0,
    mult times in order: the bytes of :func:`ratio_text`, with no gcd.

    >>> runs_text([(-11, 2, 1), (3, 1, 2), (0, 1, 1)])
    ['-11/2', '3', '3', '0']
    """
    texts = []
    for num, den, mult in runs:
        text = str(num) if den == 1 else f"{num}/{den}"
        if mult == 1:
            texts.append(text)
        else:
            texts += [text] * mult
    return texts


def format_rational(x) -> str:
    """Canonical string for an int, Fraction or Valuation: the text of
    :func:`ratio_text` for a finite value, "inf" for INF.

    Examples
    --------
    >>> format_rational(Fraction(22, 4))
    '11/2'
    >>> format_rational(Valuation(3))
    '3'
    >>> format_rational(INF)
    'inf'
    """
    if isinstance(x, Valuation):
        if x.is_infinite:
            return "inf"
        x = x.value
    return ratio_text(x.numerator, x.denominator)
