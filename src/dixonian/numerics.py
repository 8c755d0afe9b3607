"""Validated numeric evaluation: quadrature, constants, and sm/cm values.

Every routine returns a :class:`NumericValue`, a number together with a
rigorously propagated error bound.  The period pi3 comes from an AGM and is
checked once per process against quadrature of its defining integral.
sm and cm are summed from their Taylor series up to pi3/6, where the
series ratio is at most 1/2, and reflected through z -> pi3/3 - z beyond
it.  Series evaluation keeps truncation honest by an integer ratio test on
the exact EGF tables, and the reported bound includes both the geometric
tail and floating-point rounding slack; a series cut short at
``_MAX_SERIES_ORDER`` terms warns with the places it still certifies.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath
from mpmath import mp, mpf

from dixonian.functions import dixon_egf_integers

__all__ = [
    "NumericValue",
    "tanh_sinh_quad",
    "pi3",
    "zeta0",
    "abelian_I",
    "eval_sm",
    "eval_cm",
    "eval_smh",
    "eval_cmh",
]

# Growth bound for the EGF tail: |c(n+3)/c(n)| <= RHO**3 with RHO = 29/50,
# checked exactly on integers before every use.  The true limit of the
# ratio is (3 / pi3)**3, about 0.1814; RHO**3 = 0.195112 leaves margin.
_RHO_NUM, _RHO_DEN = 29, 50
_MAX_SERIES_ORDER = 1200


@dataclass(frozen=True)
class NumericValue:
    """A computed value with an explicit absolute error bound."""

    value: mpmath.mpf
    error_bound: mpmath.mpf

    def decimal_places(self) -> int:
        """Largest d such that rounding to d places is justified."""
        if self.error_bound <= 0:
            return 10**6
        d = int(mpmath.floor(-mpmath.log10(2 * self.error_bound)))
        return max(d, 0)

    def to_string(self, places: int) -> str:
        """Fixed-point rendering, truncated toward zero and clamped to the
        justified precision."""
        places = min(places, self.decimal_places())
        # Every digit of the integer part and of the places must survive
        # the scaling, whatever the caller's working precision.
        with mp.workdps(places + max(mpmath.mag(self.value), 0) // 3 + 10):
            scaled = int(self.value * mpf(10) ** places)
        sign = "-" if scaled < 0 else ""
        digits = str(abs(scaled)).rjust(places + 1, "0")
        if places == 0:
            return sign + digits
        return f"{sign}{digits[:-places]}.{digits[-places:]}"

    def __float__(self) -> float:
        return float(self.value)


def _as_mpf(x: object) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, (int, float, mpmath.mpf)):
        return mpf(x)
    if isinstance(x, str):
        return mpf(x)
    raise TypeError(f"cannot interpret {x!r} as a real number")


def tanh_sinh_quad(f, a: object, b: object, dps: int = 30) -> NumericValue:
    """Integrate f over [a, b] by tanh-sinh quadrature with step halving.

    The substitution x = tanh((pi/2) sinh u) pushes the endpoints to
    infinity, so integrable endpoint singularities cost nothing.  Levels
    are refined until two successive trapezoid sums agree; the bound is
    their difference plus rounding slack.

    Working precision is three times the target: abscissas saturate at
    distance ~eps_work from the endpoints, so an algebraic singularity as
    strong as (b - x)^(-2/3) leaves a dropped tail of order eps_work^(1/3),
    which the tripling pushes below the requested accuracy.
    """
    with mp.workdps(3 * dps + 20):
        A, B = _as_mpf(a), _as_mpf(b)
        c1, c2 = (A + B) / 2, (B - A) / 2
        eps = mpf(10) ** (-(dps + 3))
        stop_eps = mpf(10) ** (-(dps + 8))
        half_pi = mp.pi / 2

        def row_sum(h: mpmath.mpf) -> mpmath.mpf:
            total = mpf(0)
            j = 0
            while True:
                u = j * h
                s = mp.sinh(u)
                t = mp.tanh(half_pi * s)
                w = half_pi * mp.cosh(u) / mp.cosh(half_pi * s) ** 2
                xp = c1 + c2 * t
                xm = c1 - c2 * t
                if xp >= B or xm <= A:
                    break
                if j == 0:
                    term = c2 * w * f(xp)
                else:
                    term = c2 * w * (f(xp) + f(xm))
                total += term
                if j > 8 and abs(term) < stop_eps * (1 + abs(total)):
                    break
                j += 1
            return total * h

        prev = None
        value = mpf(0)
        diff = mpf("inf")
        for level in range(2, 14):
            h = mpf(1) / 2**level
            value = row_sum(h)
            if prev is not None:
                diff = abs(value - prev)
                if diff < eps * (1 + abs(value)):
                    break
            prev = value
        bound = diff + mpf(10) ** (-(dps + 2)) * (1 + abs(value))
        return NumericValue(value=+value, error_bound=+bound)


_PI3_CHECK_DPS = 25
_pi3_lock = threading.Lock()
_pi3_checked = False


def _pi3_agm(dps: int) -> mpmath.mpf:
    """pi3 = 2^(1/3) 3^(1/4) pi / AGM(1, (sqrt 6 + sqrt 2)/4) to dps + 10 digits."""
    with mp.workdps(dps + 10):
        k_prime = (mp.sqrt(6) + mp.sqrt(2)) / 4
        return mp.cbrt(2) * mp.root(3, 4) * mp.pi / mp.agm(1, k_prime)


@lru_cache(maxsize=16)
def pi3(dps: int = 30) -> NumericValue:
    """The cubic analogue of pi: 3 * integral of (1 - t^3)^(-2/3) over [0, 1].

    pi3 = Gamma(1/3)^3 sqrt(3) / (2 pi), and Borwein & Zucker's reduction
    of Gamma(1/3) to a complete elliptic integral of modulus sin 15 degrees
    turns it into the AGM form of :func:`_pi3_agm`.  The AGM route is
    cross-checked once per process against tanh-sinh quadrature of the
    defining integral; a disagreement beyond the bounds raises.
    """
    global _pi3_checked
    with mp.workdps(dps + 10):
        closed = _pi3_agm(dps)
        bound = abs(closed) * mpf(10) ** (-(dps + 7))
        result = NumericValue(value=+closed, error_bound=+bound)
    if not _pi3_checked:
        # The flag goes up only once the check has passed, so no thread
        # can return a value that was never checked.
        with _pi3_lock:
            if not _pi3_checked:
                q = tanh_sinh_quad(
                    lambda t: (1 - t**3) ** (mpf(-2) / 3), 0, 1, dps=_PI3_CHECK_DPS
                )
                with mp.workdps(_PI3_CHECK_DPS + 10):
                    # Compared at the quadrature's precision: a caller's dps
                    # below it would leave the AGM value too coarse to match.
                    gap = abs(3 * q.value - _pi3_agm(_PI3_CHECK_DPS))
                    if gap > 3 * q.error_bound + mpf(10) ** (-(_PI3_CHECK_DPS + 1)):
                        raise AssertionError(
                            "quadrature and closed form for pi3 disagree beyond bounds"
                        )
                _pi3_checked = True
    return result


def zeta0(dps: int = 30) -> NumericValue:
    """The real period 2 pi3 / 3 of the degenerate cubic pencil."""
    p = pi3(dps)
    with mp.workdps(dps + 10):
        return NumericValue(value=p.value * 2 / 3, error_bound=p.error_bound)


def abelian_I(y: object, dps: int = 30) -> NumericValue:
    """The incomplete integral of (1 + w^3)^(-2/3) from 0 to y, for y >= 0."""
    with mp.workdps(dps + 10):
        yv = _as_mpf(y)
        if yv < 0:
            raise ValueError("abelian_I is defined here for y >= 0 only")
        if yv == 0:
            return NumericValue(value=mpf(0), error_bound=mpf(0))
    # The raw y is passed through so the quadrature converts it at its own
    # (higher) working precision.
    return tanh_sinh_quad(lambda w: (1 + w**3) ** (mpf(-2) / 3), 0, y, dps=dps)


# -- sm / cm evaluation ----------------------------------------------


def _ratio_check(table: Sequence[int], lo: int, hi: int) -> None:
    """Verify |a(n+3)| * DEN^3 <= NUM^3 (n+1)(n+2)(n+3) |a(n)| exactly."""
    num3 = _RHO_NUM**3
    den3 = _RHO_DEN**3
    for n in range(lo, hi - 2):
        an = table[n]
        if not an:
            continue
        an3 = table[n + 3]
        lhs = den3 * abs(an3)
        rhs = num3 * (n + 1) * (n + 2) * (n + 3) * abs(an)
        if lhs > rhs:
            raise ArithmeticError(
                f"EGF growth bound failed at index {n}; cannot certify the tail"
            )


def _eval_direct(kind: str, z: mpmath.mpf, digits: int) -> NumericValue:
    """Direct series sum for 0 <= z <= (pi3/3) / 2, with certified tail.

    There the ratio z / (pi3/3) is at most 1/2, so about 3.3 terms per
    digit suffice.  The sum stays valid further out, but its term count
    grows without bound as z nears pi3/3, so callers reflect instead.
    """
    base = 1 if kind == "sm" else 0
    if z == 0:
        return NumericValue(value=mpf(base == 0), error_bound=mpf(0))
    prec = digits + 15
    with mp.workdps(prec):
        a_third = pi3(prec).value / 3
        ratio = z / a_third
        need = ((digits + 8) * math.log(10) + 5) / -math.log(float(ratio))
        M = base + 3 * math.ceil((max(36, int(need) + 12) - base) / 3)
        clamped = M > _MAX_SERIES_ORDER
        M = min(M, _MAX_SERIES_ORDER)
        tables = dixon_egf_integers(M + 30)
        table = tables[0] if kind == "sm" else tables[1]
        _ratio_check(table, 30, M + 30)

        total = mpf(0)
        abs_total = mpf(0)
        last_term = mpf(0)
        power = z**base
        z3 = z**3
        fact = math.factorial(base)
        n = base
        terms = 0
        while n <= M:
            if table[n]:
                t = mpf(table[n]) / mpf(fact) * power
                total += t
                abs_total += abs(t)
                last_term = t
                terms += 1
            power *= z3
            fact *= (n + 1) * (n + 2) * (n + 3)
            n += 3
        q = (mpf(_RHO_NUM) / _RHO_DEN * z) ** 3
        if q >= 1:
            raise AssertionError("direct evaluation called outside its region")
        tail = abs(last_term) * q / (1 - q)
        rounding = 10 * (terms + 2) * abs_total * mpf(10) ** (-prec)
        result = NumericValue(value=+total, error_bound=+(tail + rounding))
    if clamped:
        warnings.warn(
            f"{kind} series cut at _MAX_SERIES_ORDER = {_MAX_SERIES_ORDER} terms; "
            f"only {result.decimal_places()} places remain certified",
            RuntimeWarning,
            stacklevel=2,
        )
    return result


def _eval_nonneg(kind: str, z: mpmath.mpf, digits: int) -> NumericValue:
    """Evaluate sm or cm on [0, pi3/3] with the reflection hand-off."""
    prec = digits + 15
    with mp.workdps(prec):
        p = pi3(prec)
        a_third = p.value / 3
        a_err = p.error_bound / 3 + mpf(10) ** (-prec + 1)
        if z > a_third * (1 + mpf(10) ** (-prec + 2)):
            raise ValueError("argument exceeds the first zero pi3/3")
        if z <= a_third / 2:
            return _eval_direct(kind, z, digits)
        # sm and cm trade places under z -> pi3/3 - z; both have unit
        # Lipschitz constant on the interval, so the uncertainty in the
        # reflection point adds straight onto the bound.
        w = a_third - z
        if w < 0:
            w = mpf(0)
        other = "cm" if kind == "sm" else "sm"
        inner = _eval_direct(other, w, digits)
        return NumericValue(
            value=inner.value, error_bound=+(inner.error_bound + a_err)
        )


def _eval_signed(kind: str, z: object, digits: int) -> NumericValue:
    prec = digits + 15
    with mp.workdps(prec):
        zv = _as_mpf(z)
    if zv >= 0:
        return _eval_nonneg(kind, zv, digits)
    with mp.workdps(prec):
        v = -zv
        p = _eval_nonneg("sm", v, digits + 3)
        q = _eval_nonneg("cm", v, digits + 3)
        denom = abs(q.value) - q.error_bound
        if denom <= 0:
            raise ValueError("argument too close to the pole at -pi3/3")
        if kind == "sm":
            # sm(-v) = -sm(v)/cm(v)
            val = -p.value / q.value
            bound = (p.error_bound + abs(val) * q.error_bound) / denom
        else:
            # cm(-v) = 1/cm(v)
            val = 1 / q.value
            bound = q.error_bound / (denom * abs(q.value))
        # Both quotients are rounded once, and both move by at most
        # 1/cm(v)^2 per unit of v, which was rounded when it was read in.
        ulp = mpf(2) ** (1 - mp.prec)
        bound += abs(val) * ulp + abs(v) * ulp / denom**2
        return NumericValue(value=+val, error_bound=+bound)


def eval_sm(z: object, digits: int = 30) -> NumericValue:
    """sm(z) for real z in (-pi3/3, pi3/3]; poles bound the domain below."""
    return _eval_signed("sm", z, digits)


def eval_cm(z: object, digits: int = 30) -> NumericValue:
    """cm(z) for real z in (-pi3/3, pi3/3]."""
    return _eval_signed("cm", z, digits)


def eval_smh(z: object, digits: int = 30) -> NumericValue:
    """smh(z) = -sm(-z) for real z in [-pi3/3, pi3/3); pole at pi3/3."""
    with mp.workdps(digits + 15):
        zv = -_as_mpf(z)
        inner = _eval_signed("sm", zv, digits)
        return NumericValue(value=-inner.value, error_bound=inner.error_bound)


def eval_cmh(z: object, digits: int = 30) -> NumericValue:
    """cmh(z) = cm(-z) for real z in [-pi3/3, pi3/3)."""
    with mp.workdps(digits + 15):
        zv = -_as_mpf(z)
    return _eval_signed("cm", zv, digits)
