"""Validated numeric evaluation: quadrature, constants, and sm/cm values.

Every routine returns a :class:`NumericValue`, a number together with a
rigorously propagated error bound.  The period pi3 comes from an AGM and is
checked once per process against quadrature of its defining integral.
sm and cm never need it: their argument is halved until the Taylor
series converges fast, and the series is summed from the exact EGF
tables in fixed-point integers with a counted rounding error.  From
there on everything is an integer ball, a midpoint and a radius at one
fixed scale 2^-B: a Cauchy majorant bounds the tail, Dixon's
duplication formulas double the argument back, and each product or
quotient rounds only in its floor, so the bound is the final ball's
radius.  The domain check uses a rational bound on pi3/3, and no
precision is out of reach.

Each routine imports mpmath where it runs, so the exact parts of the
package, which import this module, start without loading it.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from dixonian.functions import dixon_egf_integers

if TYPE_CHECKING:
    import mpmath

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


class NumericValue(NamedTuple):
    """A computed value with an explicit absolute error bound."""

    value: mpmath.mpf
    error_bound: mpmath.mpf

    def decimal_places(self) -> int:
        """Largest d such that rounding to d places is justified."""
        if self.error_bound <= 0:
            return 10**6
        import mpmath

        d = int(mpmath.floor(-mpmath.log10(2 * self.error_bound)))
        return max(d, 0)

    def to_string(self, places: int) -> str:
        """Fixed-point rendering, truncated toward zero and clamped to the
        justified precision."""
        import mpmath
        from mpmath import mp, mpf

        places = min(places, self.decimal_places())
        # Every digit of the integer part and of the places must survive
        # the scaling, whatever the caller's working precision.
        with mp.workdps(places + max(mpmath.mag(self.value), 0) // 3 + 10):
            scaled = int(self.value * mpf(10) ** places)
        sign = "-" if scaled < 0 else ""
        digits = _decimal(abs(scaled)).rjust(places + 1, "0")
        if places == 0:
            return sign + digits
        return f"{sign}{digits[:-places]}.{digits[-places:]}"

    def __float__(self) -> float:
        return float(self.value)


_BLOCK = 10**600


def _decimal(n: int) -> str:
    """str(n), in blocks of 600 digits: Python refuses to turn an integer
    longer than 4300 digits into a string, a limit a program may lower to
    640."""
    if n < 0:
        return "-" + _decimal(-n)
    blocks = []
    while n >= _BLOCK:
        n, low = divmod(n, _BLOCK)
        blocks.append(f"{low:0600d}")
    return str(n) + "".join(reversed(blocks))


def _as_mpf(x: object) -> mpmath.mpf:
    import mpmath
    from mpmath import mpf

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
    their difference plus rounding slack.  Halving the step keeps every
    node of the level before, so each level adds only its odd-index nodes
    to the previous sum, and each node takes sinh, cosh, tanh and sech^2
    from two exponentials.

    Working precision is three times the target: abscissas saturate at
    distance ~eps_work from the endpoints, so an algebraic singularity as
    strong as (b - x)^(-2/3) leaves a dropped tail of order eps_work^(1/3),
    which the tripling pushes below the requested accuracy.
    """
    from mpmath import mp, mpf

    with mp.workdps(3 * dps + 20):
        A, B = _as_mpf(a), _as_mpf(b)
        c1, c2 = (A + B) / 2, (B - A) / 2
        eps = mpf(10) ** (-(dps + 3))
        stop_eps = mpf(10) ** (-(dps + 8))
        half_pi = mp.pi / 2

        def add_nodes(h: mpmath.mpf, j: int, step: int, total: mpmath.mpf) -> mpmath.mpf:
            """total plus the terms at u = j h, (j + step) h, ..., until
            the abscissas reach the endpoints or the terms fall below
            stop_eps."""
            while True:
                # sinh u, cosh u from e^u; tanh v, sech^2 v from e^v, where
                # v = (pi/2) sinh u.
                eu = mp.exp(j * h)
                eu_inv = 1 / eu
                ev = mp.exp(half_pi * (eu - eu_inv) / 2)
                ev_inv = 1 / ev
                t = (ev - ev_inv) / (ev + ev_inv)
                w = half_pi * (eu + eu_inv) * 2 / (ev + ev_inv) ** 2
                xp = c1 + c2 * t
                xm = c1 - c2 * t
                if xp >= B or xm <= A:
                    return total
                if j == 0:
                    term = c2 * w * f(xp)
                else:
                    term = c2 * w * (f(xp) + f(xm))
                total += term
                if j > 8 and abs(term) < stop_eps * (1 + abs(total)):
                    return total
                j += step

        prev = None
        total = mpf(0)
        value = mpf(0)
        diff = mpf("inf")
        for level in range(2, 14):
            h = mpf(1) / 2**level
            if prev is None:
                total = add_nodes(h, 0, 1, total)
            else:
                total = add_nodes(h, 1, 2, total)
            value = total * h
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
    from mpmath import mp

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
    from mpmath import mp, mpf

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
    from mpmath import mp

    p = pi3(dps)
    with mp.workdps(dps + 10):
        return NumericValue(value=p.value * 2 / 3, error_bound=p.error_bound)


def abelian_I(y: object, dps: int = 30) -> NumericValue:
    """The incomplete integral of (1 + w^3)^(-2/3) from 0 to y, for y >= 0."""
    from mpmath import mp, mpf

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

# A rational upper bound on pi3/3, above it by less than 1e-50; the tests
# pin it against pi3 and the Gamma form.  The domain check needs nothing
# more of pi3, so evaluation never computes it.
_THIRD_PERIOD = Fraction("1.76663875028544995731368949964843870257186853820256")


def _exact(x: object) -> Fraction:
    """x as an exact rational: floats and mpf values are dyadic."""
    import mpmath

    if isinstance(x, (float, mpmath.mpf)) and not mpmath.isfinite(x):
        raise ValueError(f"cannot evaluate at {x}")
    if isinstance(x, mpmath.mpf):
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))
    if isinstance(x, (Fraction, int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a real number")


def _taylor(table: Sequence[int], start: int, num: int, den: int, top: int,
            prec: int) -> tuple[int, int]:
    """Fixed-point sum of table[n] w^(n - start) / n! over n = start mod 3
    up to top, for the exact w = num / den with |w| < 1; start is 0 or 1,
    so start! = 1.

    Horner's rule runs on integers scaled by 2^prec: each step multiplies
    by w^3 / ((n + 1)(n + 2)(n + 3)) with one floor division and adds the
    next scaled table entry exactly.  Returns (S, e) with
    |2^prec sum - S| <= e, in units of 2^-prec.

    Proof of the radius: let E be the error carried into a step.  The
    step multiplies it by |w|^3 / ((n + 1)(n + 2)(n + 3)) < 1/6 and its
    floor adds f in [0, 1), with f = 0 exactly when the division has no
    remainder.  So |E| < 1 + 1/6 + 1/36 + ... = 6/5 after every step,
    and e = 2 bounds it; when every division is exact, E = 0 and e = 0.
    """
    num3, den3 = num**3, den**3
    n = start + 3 * ((top - start) // 3)
    acc = table[n] << prec
    exact = True
    while n > start:
        n -= 3
        acc, rem = divmod(acc * num3, den3 * ((n + 1) * (n + 2) * (n + 3)))
        exact = exact and not rem
        acc += table[n] << prec
    return acc, 0 if exact else 2


Ball = tuple[int, int]


def _mul(a: Ball, b: Ball, bits: int) -> Ball:
    """The product of two balls (mid, rad) at scale 2^-bits.

    Proof of the radius: points a + x and b + y with |x| <= ra and
    |y| <= rb have |(a + x)(b + y) - a b| <= |a| rb + |b| ra + ra rb, at
    scale 2^-2bits; dividing by 2^bits and rounding up covers every point
    product.  The floor of the midpoint moves it by less than one unit,
    which is added only when the floor had a remainder, so exact inputs
    keep radius 0 whenever their product is exact at this scale.
    """
    (am, ar), (bm, br) = a, b
    product = am * bm
    mid = product >> bits
    rad = -(-(abs(am) * br + abs(bm) * ar + ar * br) >> bits)
    return mid, rad + (mid << bits != product)


def _div(a: Ball, b: Ball, bits: int) -> Ball:
    """The quotient of two balls at scale 2^-bits, for a denominator ball
    that lies above zero.

    Proof of the radius: with points a + x and b + y as for :func:`_mul`
    and b - rb > 0, (a + x)/(b + y) - a/b = (b x - a y) / (b (b + y)),
    which is at most (|a| rb + b ra) / (b (b - rb)) in size; scaled by
    2^bits and rounded up it covers every point quotient, and the floor
    of the midpoint adds its remainder unit as in :func:`_mul`.  In the
    doublings the denominator ball reaches zero only near or past the
    pole.
    """
    (am, ar), (bm, br) = a, b
    if bm - br <= 0:
        raise ValueError("argument too close to the pole at -pi3/3")
    mid, rem = divmod(am << bits, bm)
    rad = -(-((abs(am) * br + bm * ar) << bits) // (bm * (bm - br)))
    return mid, rad + (rem != 0)


def _halve_and_double(z: Fraction, k: int, prec: int) -> tuple[Ball, Ball, int]:
    """Balls around (sm(z), cm(z)) at scale 2^-bits, and bits, from the
    series at w = z / 2^k and k doublings, aimed at prec bits.

    The two Taylor sums run in fixed point on the exact w (see
    :func:`_taylor`) and come out as balls at that scale; the product by
    w, the tail and the doublings stay on integer balls, which round only
    in their floors (:func:`_mul`, :func:`_div`).  The product by
    w = num / den is floor(S num / den), with radius e |num| / den rounded
    up plus the floor's remainder unit, for a sum S of radius e.

    The system sm' = cm^2, cm' = -sm^2 is dominated coefficientwise by
    Y' = Y^2, Y(0) = 1, that is Y = 1/(1 - z) (Cauchy's majorant method),
    so |[z^n] sm| and |[z^n] cm| are at most 1 and the tail after index N
    is at most |w|^(N+1) / (1 - |w|), which joins both radii rounded up,
    computed exactly in integers.  Dixon's duplication formulas, from his
    addition theorem (Quart. J. Pure Appl. Math. 24, 1890),

        sm 2u = sm u (1 + cm^3 u) / (cm u (1 + sm^3 u)),
        cm 2u = (cm^3 u - sm^3 u) / (cm u (1 + sm^3 u)),

    then carry w back to z.  Their common denominator is positive for
    u in (-pi3/6, pi3/3), so a ball that is not above zero shows z at or
    past the pole at -pi3/3.
    """
    num, den = z.numerator, z.denominator << k
    mag = abs(num)
    # -log2 |w| exceeds e, so N terms leave a tail below 2^-(prec + 1).
    e = den.bit_length() - 1 - mag.bit_length()
    top = (prec + 2) // e + 1
    sm_table, cm_table = dixon_egf_integers(top)
    # Sixteen guard bits keep the rounding of the sums and the balls far
    # below the 2^-prec the caller aims at.
    bits = prec + 16
    # |w|^(top + 1) / (1 - |w|) = |num|^(top + 1) / (den^top (den - |num|)).
    tail = -(-(mag ** (top + 1) << bits) // (den**top * (den - mag)))
    total, radius = _taylor(sm_table, 1, num, den, top, bits)
    mid, rem = divmod(total * num, den)
    s = mid, -(-radius * mag // den) + (rem != 0) + tail
    total, radius = _taylor(cm_table, 0, num, den, top, bits)
    c = total, radius + tail
    one = 1 << bits
    for _ in range(k):
        s3 = _mul(_mul(s, s, bits), s, bits)
        c3 = _mul(_mul(c, c, bits), c, bits)
        d = _mul(c, (one + s3[0], s3[1]), bits)
        s, c = (_div(_mul(s, (one + c3[0], c3[1]), bits), d, bits),
                _div((c3[0] - s3[0], c3[1] + s3[1]), d, bits))
    return s, c, bits


def _numeric(mid: int, rad: int, bits: int) -> NumericValue:
    """The ball (mid, rad) at scale 2^-bits as two exact mpf values."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    return NumericValue(value=mp.make_mpf(from_man_exp(mid, -bits)),
                        error_bound=mp.make_mpf(from_man_exp(rad, -bits)))


def _sm_cm(z: object, digits: int) -> tuple[Ball, Ball, int]:
    """Balls around sm(z) and cm(z) at scale 2^-bits, and bits, with
    radii aimed at 10^-(digits + 3).

    The argument is halved k times, with k about half the square root of
    the precision in bits, which balances the series' length against the
    doublings; each doubling costs about two bits of radius.  Near the
    pole the values, and with them the radii, grow, and a second pass
    adds the bits the first one fell short by.  sm and cm are analytic
    across their zero pi3/3, so that end of the domain admits an argument
    rounded from pi3/3 at the caller's precision; the pole end does not.
    """
    z = _exact(z)
    if z > _THIRD_PERIOD + Fraction(1, 10 ** (digits + 3)):
        raise ValueError("argument exceeds the first zero pi3/3")
    if z < -_THIRD_PERIOD:
        raise ValueError("argument lies past the pole at -pi3/3")
    target = math.ceil((digits + 3) * math.log2(10))
    m = max(4, math.isqrt(target) // 2)
    k = max(0, m + abs(z.numerator).bit_length() - z.denominator.bit_length() + 1)
    prec = target + 3 * k + 20
    for _ in range(2):
        s, c, bits = _halve_and_double(z, k, prec)
        widest = max(s[1], c[1])
        if widest <= 1 << (bits - target):
            break
        # The widest radius is below 2^(widest.bit_length() - bits).
        prec += widest.bit_length() - bits + target + 12
    return s, c, bits


def eval_sm(z: object, digits: int = 30) -> NumericValue:
    """sm(z) for real z in (-pi3/3, pi3/3]; poles bound the domain below."""
    s, _, bits = _sm_cm(z, digits)
    return _numeric(*s, bits)


def eval_cm(z: object, digits: int = 30) -> NumericValue:
    """cm(z) for real z in (-pi3/3, pi3/3]."""
    _, c, bits = _sm_cm(z, digits)
    return _numeric(*c, bits)


def eval_smh(z: object, digits: int = 30) -> NumericValue:
    """smh(z) = -sm(-z) for real z in [-pi3/3, pi3/3); pole at pi3/3."""
    (mid, rad), _, bits = _sm_cm(-_exact(z), digits)
    return _numeric(-mid, rad, bits)


def eval_cmh(z: object, digits: int = 30) -> NumericValue:
    """cmh(z) = cm(-z) for real z in [-pi3/3, pi3/3)."""
    _, c, bits = _sm_cm(-_exact(z), digits)
    return _numeric(*c, bits)
