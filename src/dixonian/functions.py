"""Construction of the Dixonian pair sm, cm and derived series.

The pair is defined by the first-order system

    sm' = cm^2,   cm' = -sm^2,   sm(0) = 0,  cm(0) = 1,

solved here two independent ways.  The construction runs the system's
coefficient recurrence in EGF form, where every n! [z^n] sm and
n! [z^n] cm is an integer; those cached tables are the only place the
coefficients are computed.  With them the system and the Fermat cubic
sm^3 + cm^3 = 1 give every product the continued fractions and P need,
still in integers: sm^2 = -cm', sm^2 cm = -sm''/2, and through
u = sm cm, which solves u'' = -6 u^2 on a table of its own,
sm^3 = (1 - u')/2 and P = -u(-z).  The binomial convolution of the
tables remains for the general sm^p cm^q and as the oracle for those
identities.  The rational series are the tables divided by n!.  The
cross-check reverts a hypergeometric integral and never touches the ODE.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from dixonian.core import DEFAULT_ORDER, GrowingTable, PowerSeries, series_revert

__all__ = [
    "DixonPair",
    "dixon_series",
    "dixon_egf_integers",
    "dixon_egf_product",
    "dixon_egf_table",
    "hyp2f1_series",
    "sm_via_hypergeometric",
    "weierstrass_P",
    "weierstrass_P_via_hypergeometric",
    "dumont_R",
]


class DixonPair(NamedTuple):
    """The truncated sm, cm series and their hyperbolic companions."""

    sm: PowerSeries
    cm: PowerSeries

    @property
    def order(self) -> int:
        return self.sm.order

    @property
    def smh(self) -> PowerSeries:
        """-sm(-z): the companion with all-positive coefficients."""
        return _from_egf(dixon_egf_table("smh", self.order))

    @property
    def cmh(self) -> PowerSeries:
        """cm(-z)."""
        return _from_egf(dixon_egf_table("cmh", self.order))


def _binomial_sum(n: int, start: int, stop: int, f: Sequence[int], g: Sequence[int]) -> int:
    """Sum of C(n, i) f[i] g[n - i] over i = start, start + 3, ... below stop.

    Every table here lives on one residue class mod 3, hence the stride.
    The binomial is carried along the row, C(n, i + 3) from C(n, i),
    rather than recomputed for every term.
    """
    c = math.comb(n, start)
    total = 0
    for i in range(start, stop, 3):
        total += c * f[i] * g[n - i]
        c = c * (n - i) * (n - i - 1) * (n - i - 2) // ((i + 1) * (i + 2) * (i + 3))
    return total


def _binomial_square(n: int, start: int, f: Sequence[int]) -> int:
    """_binomial_sum(n, start, n + 1, f, f), from the lower half of the row."""
    total = 2 * _binomial_sum(n, start, (n + 1) // 2, f, f)
    if n % 2 == 0 and (n // 2 - start) % 3 == 0:
        total += math.comb(n, n // 2) * f[n // 2] ** 2
    return total


def _egf_step(a: list[int], b: list[int]) -> None:
    """Append n! [z^n] sm and n! [z^n] cm at n = len(a)."""
    n = len(a) - 1
    a.append(_binomial_square(n, 0, b) if n % 3 == 0 else 0)
    b.append(-_binomial_square(n, 1, a) if n % 3 == 2 else 0)


# The integer EGF tables of sm and cm, from (0, 1) and (1, 0), grown on
# demand and shared by every caller, with no cap.
_EGF_TABLES = GrowingTable(_egf_step, (0, 1), (1, 0))


def dixon_egf_integers(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer tables (n! [z^n] sm, n! [z^n] cm) for n = 0..n_max.

    The system in EGF form reads a(n+1) = sum C(n,i) b(i) b(n-i) and
    b(n+1) = -sum C(n,i) a(i) a(n-i), all in integers; only sm indices
    = 1 mod 3 and cm indices = 0 mod 3 are nonzero.  Both tables are
    grown once per process, as far as the largest n_max asked (there is
    no cap), and shared between calls and threads: each call returns
    prefixes of the shared immutable tuples, which need no copy.
    """
    a, b = _EGF_TABLES.columns(n_max)
    return a[: n_max + 1], b[: n_max + 1]


def _u_step(u: list[int]) -> None:
    """Append n! [z^n] u at n = len(u), for u = sm cm.

    u' = cm^3 - sm^3 and so u'' = -6 u^2 (the equianharmonic Weierstrass
    equation): u(n + 2) = -6 sum C(n,i) u(i) u(n-i), a square on the
    indices = 1 mod 3, where alone u is nonzero.
    """
    n = len(u) - 2
    u.append(-6 * _binomial_square(n, 1, u) if n % 3 == 2 else 0)


# The integer EGF table of u = sm cm, from (0, 1).  It is a table of its
# own so that callers of dixon_egf_integers alone never grow it.
_U_TABLE = GrowingTable(_u_step, (0, 1))


def dixon_egf_product(p: int, q: int, n_max: int) -> list[int]:
    """Integers n! [z^n] sm^p cm^q for n = 0..n_max, for any p, q >= 0.

    The EGF of a product is the binomial convolution of the factors'
    tables, so every power stays in integers.  dixon_egf_table reads the
    products it names off the tables instead; this is their oracle.
    """
    if p < 0 or q < 0:
        raise ValueError(f"sm^p cm^q needs p, q >= 0, got p={p}, q={q}")
    sm, cm = dixon_egf_integers(n_max)
    factors = [(sm, 1)] * p + [(cm, 0)] * q
    out, r = factors.pop(0) if factors else ((1,) + (0,) * n_max, 0)
    for f, s in factors:
        out = _convolve(out, r, f, s, n_max)
        r = (r + s) % 3
    return list(out)


def _convolve(f: Sequence[int], r: int, g: Sequence[int], s: int, n_max: int) -> list[int]:
    """n! [z^n] of the product of two EGFs for n = 0..n_max, from their
    integer tables f, nonzero only on n = r mod 3, and g, only on n = s
    mod 3 (with 0 <= r < 3); the product lives on n = r + s mod 3."""
    return [
        _binomial_sum(n, r, n + 1, f, g) if (n - r - s) % 3 == 0 else 0
        for n in range(n_max + 1)
    ]


def _sm(n_max: int) -> Sequence[int]:
    return dixon_egf_integers(n_max)[0]


def _cm(n_max: int) -> Sequence[int]:
    return dixon_egf_integers(n_max)[1]


def _u(n_max: int) -> Sequence[int]:
    return _U_TABLE.columns(n_max)[0][: n_max + 1]


# name -> (p, n_max -> n! [z^n] sm^p cm^q for n = 0..n_max), each a shift
# of sm, cm or u = sm cm by Dixon's system: sm^2 = -cm',
# sm^2 cm = -(cm^2)'/2 = -sm''/2, and sm^3 = (1 - u')/2 since
# u' = cm^3 - sm^3 = 1 - 2 sm^3 on the Fermat cubic.
_EGF_PRODUCTS: dict[str, tuple[int, Callable[[int], Sequence[int]]]] = {
    "sm": (1, _sm),
    "cm": (0, _cm),
    "sm2": (2, lambda n_max: [-c for c in _cm(n_max + 1)[1:]]),
    "sm3": (3, lambda n_max: [((n == 0) - c) // 2 for n, c in enumerate(_u(n_max + 1)[1:])]),
    "smcm": (1, _u),
    "sm2cm": (2, lambda n_max: [-c // 2 for c in _sm(n_max + 2)[2:]]),
}

# The hyperbolic companions smh = -sm(-z) and cmh = cm(-z) give
# smh^p cmh^q = (-1)^p (sm^p cm^q)(-z); P is smh cmh.
_HYPERBOLIC = {"smh": "sm", "cmh": "cm", "P": "smcm"}


def dixon_egf_table(name: str, n_max: int) -> list[int]:
    """n! [z^n] for n = 0..n_max of sm, cm, sm2 = sm^2, sm3 = sm^3,
    smcm = sm cm, sm2cm = sm^2 cm, or of smh, cmh and P = smh cmh."""
    if name not in _EGF_PRODUCTS and name not in _HYPERBOLIC:
        names = ", ".join([*_EGF_PRODUCTS, *_HYPERBOLIC])
        raise ValueError(f"unknown table {name!r}: expected one of {names}")
    p, table = _EGF_PRODUCTS[_HYPERBOLIC.get(name, name)]
    if name in _HYPERBOLIC:
        return [c if (p + n) % 2 == 0 else -c for n, c in enumerate(table(n_max))]
    return list(table(n_max))


def _from_egf(table: Sequence[int]) -> PowerSeries:
    """The series whose n-th coefficient is table[n] / n!."""
    return PowerSeries(
        [Fraction(c, math.factorial(n)) for n, c in enumerate(table)], len(table) - 1
    )


@lru_cache(maxsize=8)
def dixon_series(order: int = DEFAULT_ORDER) -> DixonPair:
    """The exact truncated pair, read off the integer EGF tables."""
    sm, cm = dixon_egf_integers(order)
    return DixonPair(sm=_from_egf(sm), cm=_from_egf(cm))


def hyp2f1_series(a: Fraction, b: Fraction, c: Fraction, order: int) -> PowerSeries:
    """Gauss hypergeometric series 2F1(a, b; c; x) to the given order."""
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(order):
        term *= (a + k) * (b + k)
        term /= (c + k) * (k + 1)
        coeffs.append(term)
    return PowerSeries(coeffs, order)


def _revert_on_cubes(b: Fraction, scale: int, order: int) -> PowerSeries:
    """The reversion of Y * 2F1(1/3, b; 4/3; scale Y^3) to the given order.

    The 2F1 coefficient of x^k is laid out on the exponent 3k + 1, times
    scale^k; the slot past the order, if any, is cut by the truncation.
    """
    F = hyp2f1_series(Fraction(1, 3), b, Fraction(4, 3), order // 3)
    coeffs = [Fraction(0)] * (order + 2)
    coeffs[1::3] = [ck * scale**k for k, ck in enumerate(F.coeffs)]
    return series_revert(PowerSeries(coeffs, order))


def sm_via_hypergeometric(order: int = DEFAULT_ORDER) -> PowerSeries:
    """sm as the reversion of z * 2F1(1/3, 2/3; 4/3; z^3).

    The reverted series is the incomplete integral of (1 - t^3)^(-2/3),
    i.e. the inverse function of sm; this route never touches the ODE.
    """
    return _revert_on_cubes(Fraction(2, 3), 1, order)


def weierstrass_P(order: int = DEFAULT_ORDER) -> PowerSeries:
    """The product smh * cmh = -u(-z) with u = sm cm, which solves
    P'^2 = 4 P^3 + 1."""
    return _from_egf(dixon_egf_table("P", order))


def weierstrass_P_via_hypergeometric(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Same series by reverting Y * 2F1(1/3, 1/2; 4/3; -4 Y^3)."""
    return _revert_on_cubes(Fraction(1, 2), -4, order)


def dumont_R(order: int = DEFAULT_ORDER) -> PowerSeries:
    """The ratio 3 (1 - cm) / sm, which solves R'^2 = 4 R - R^4 / 27.

    Both numerator and denominator vanish at 0, so the common factor z is
    cancelled explicitly before dividing; the result is exact to
    order - 1 and starts z^2 + ...
    """
    pair = dixon_series(order)
    num = (PowerSeries.one(order) - pair.cm) * 3
    if num.coeffs[:3] != (0, 0, 0) or pair.sm.coeffs[0] != 0:
        raise AssertionError("unexpected valuations in the Dumont ratio")
    t = PowerSeries(num.coeffs[3:], order - 3)
    s = PowerSeries(pair.sm.coeffs[1:], order - 1).truncate(order - 3)
    q = t / s
    return PowerSeries([Fraction(0), Fraction(0), *q.coeffs], order - 1)
