"""Validated numeric evaluation: sm/cm values, the period pi3, quadrature.

Every routine returns a :class:`NumericValue`, an integer ball: a
midpoint and a radius at one scale 2^-bits.  sm and cm never need pi3:
their argument is halved until the Taylor series converges fast, and the
series is summed from the exact EGF tables in fixed-point integers with a
counted rounding error.  From there on everything is an integer ball that
rounds only in its floors: a Cauchy majorant bounds the tail, and Dixon's
duplication formulas double the argument back, so the bound is the final
ball's radius.  The domain check uses a rational bound on pi3/3, and no
precision is out of reach.

pi3 = 2^(1/3) 3^(1/4) pi / AGM(1, (sqrt 6 + sqrt 2)/4) runs in integers
as well: floored roots, a Machin series for pi and an AGM on floors, each
with a counted error.  Once per process it is checked against the first
zero of cm, which the sm/cm evaluator brackets: mathematics independent
of the AGM reduction.  e^-t, which the Yule values need, is a ball too.

Every argument, the quadrature's endpoints included, enters through one
exact converter, which refuses NaN and infinities.  Only the quadrature,
the Abelian integral and the mpf views of a ball (``value`` and
``error_bound``) import mpmath, where they run; evaluating sm, cm and pi3
and printing their digits never load it.
"""

from __future__ import annotations

import math
import sys
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

_LOG10_2 = math.log10(2)


def _mpf(man: int, bits: int) -> mpmath.mpf:
    """man * 2^-bits as an exact mpf."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    return mp.make_mpf(from_man_exp(man, -bits))


class NumericValue(NamedTuple):
    """A computed value with an explicit absolute error bound: the ball of
    midpoint mid * 2^-bits and radius rad * 2^-bits."""

    mid: int
    rad: int
    bits: int

    @classmethod
    def from_mpf(cls, value: mpmath.mpf, bound: mpmath.mpf) -> NumericValue:
        """The ball of two finite mpf values, exactly, at their finer scale."""
        parts = []
        for x in (value, bound):
            sign, man, exp, _ = x._mpf_
            if not man and exp:
                raise ValueError(f"cannot hold {x} in a ball")
            parts.append((-man if sign else man, exp))
        (vm, ve), (bm, be) = parts
        e = min(ve, be)
        return cls(vm << (ve - e), bm << (be - e), -e)

    @property
    def value(self) -> mpmath.mpf:
        """The midpoint as an exact mpf; reading it imports mpmath."""
        return _mpf(self.mid, self.bits)

    @property
    def error_bound(self) -> mpmath.mpf:
        """The radius as an exact mpf; reading it imports mpmath."""
        return _mpf(self.rad, self.bits)

    def decimal_places(self) -> int:
        """Largest d >= 0 with 2 * error_bound <= 10^-d, so that rounding
        to d places is justified; decided by exact integer comparison."""
        if self.rad <= 0:
            return 10**6
        # 2 rad 10^d <= 2^bits, with a negative bits moved to the left.
        twice, bits = 2 * self.rad << max(0, -self.bits), max(0, self.bits)
        one = 1 << bits
        # 2^bits / twice exceeds 2^(bits - twice.bit_length()), so this d
        # is at or below the answer, a float error in the log included.
        d = max(0, math.floor((bits - twice.bit_length()) * _LOG10_2) - 1)
        scaled = twice * 10**d
        if scaled > one:
            return 0
        while scaled * 10 <= one:
            scaled *= 10
            d += 1
        return d

    def to_string(self, places: int) -> str:
        """Fixed-point rendering, truncated toward zero and clamped to the
        justified precision."""
        places = min(places, self.decimal_places())
        magnitude = abs(self.mid) * 10**places
        if self.bits >= 0:
            scaled = magnitude >> self.bits
        else:
            scaled = magnitude << -self.bits
        sign = "-" if self.mid < 0 and scaled else ""
        digits = _decimal(scaled).rjust(places + 1, "0")
        if places == 0:
            return sign + digits
        return f"{sign}{digits[:-places]}.{digits[-places:]}"

    def __float__(self) -> float:
        # Integer true division rounds correctly, to nearest, as mpmath does.
        if self.bits <= 0:
            return float(self.mid << -self.bits)
        return self.mid / (1 << self.bits)


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
    from mpmath import mp, mpf, mpmathify

    with mp.workdps(3 * dps + 20):
        A, B = mpmathify(_exact(a)), mpmathify(_exact(b))
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
        return NumericValue.from_mpf(+value, +bound)


Ball = tuple[int, int]


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n > 0, by Newton's method from above: each step
    stays at or above the floor of the root, by the inequality of the
    means, and falls until it reaches it."""
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _machin_pi(bits: int) -> Ball:
    """A ball around pi at scale 2^-bits: pi = 16 arctan(1/5) - 4 arctan(1/239).

    Proof of the radius: arctan(1/x) is the sum of the alternating terms
    1 / ((2j + 1) x^(2j + 1)).  The loop holds p = floor(2^bits / x^(2j + 1))
    exactly, since a floor divided by an integer and floored again is the
    floor of the quotient, and adds floor(p / (2j + 1)), within one unit
    of the scaled term.  It stops at the first J with p = 0, where the
    term is below one unit, and the alternating tail of falling terms from
    there is smaller than that term.  So each sum is within J + 1 units,
    and the radius is 16 (J + 1) + 4 (J' + 1) for the two term counts.
    """
    mid = rad = 0
    for x, weight in ((5, 16), (239, -4)):
        power, x2, total, j = (1 << bits) // x, x * x, 0, 0
        while power:
            term = power // (2 * j + 1)
            total += -term if j & 1 else term
            power //= x2
            j += 1
        mid += weight * total
        rad += abs(weight) * (j + 1)
    return mid, rad


def _pi3_ball(bits: int) -> Ball:
    """A ball around pi3 = 2^(1/3) 3^(1/4) pi / AGM(1, k') at scale
    2^-bits, with k' = (sqrt 6 + sqrt 2)/4.

    The roots are floors, within one unit below their values, and pi comes
    from :func:`_machin_pi`.  The AGM runs on floors, from a = 2^bits and
    b = floor((floor(sqrt 6) + floor(sqrt 2)) / 4) at this scale, which
    lies less than 3/2 units below k'.  Proof of its radius: the AGM M is
    increasing in each argument and homogeneous of degree one, so lowering
    arguments of at least m by less than x lowers M(a, b) by less than
    x M(a, b) / m <= x max(a, b) / m.  Every argument here lies between
    k' less two units and 1, a ratio below 1.04, so the start loses less
    than 2 units of M and each floored step less than 2 more, while none
    gains.  After N
    steps the pair a >= b brackets its own AGM, so M lies in
    [b, a + 2 (N + 1)].  :func:`_mul` and :func:`_div` combine the balls.
    """
    a = 1 << bits
    b = (math.isqrt(6 << 2 * bits) + math.isqrt(2 << 2 * bits)) >> 2
    steps = 0
    while a - b > 1:
        a, b = (a + b) >> 1, math.isqrt(a * b)
        steps += 1
    agm = b, a - b + 2 * (steps + 1)
    cbrt2 = _icbrt(2 << 3 * bits), 1
    root3 = math.isqrt(math.isqrt(3 << 4 * bits)), 1
    return _div(_mul(_mul(cbrt2, root3, bits), _machin_pi(bits), bits), agm, bits)


def _pi3_bits(dps: int) -> int:
    """Working bits for pi3 with a radius below 10^-(dps + 7): the Machin
    sums lose about log2(bits) + 3 bits, which the guard covers."""
    target = math.ceil((dps + 7) / _LOG10_2)
    return target + 2 * target.bit_length() + 8


_PI3_CHECK_DPS = 25
# The check's slack on each side of pi3/3: a third of an error of 1e-20
# in pi3 already exceeds it.
_PI3_CHECK_GAP = Fraction(1, 10**22)


@lru_cache(maxsize=None)
def _check_pi3() -> None:
    """Raise unless the first zero of cm lies within 1e-22 of the pi3/3
    ball that :func:`_pi3_ball` gives at _PI3_CHECK_DPS digits.

    Near pi3/3, cm' = -sm^2 < 0, and pi3/3 is the only zero of cm in
    (0, 2 pi3/3).  So balls with cm(lo) > 0 > cm(hi), at lo and hi the
    ends of the pi3/3 ball widened by the gap, put the zero between them.
    The points come straight to :func:`_halve_and_double`: its denominators
    stay positive up to 2 pi3/3, past the domain that eval_cm admits.
    Six halvings and 160 bits leave radii near 1e-48, far below the
    1e-22 by which cm moves over the gap, for sm stays near 1 there.
    """
    bits = _pi3_bits(_PI3_CHECK_DPS)
    mid, rad = _pi3_ball(bits)
    lo = Fraction(mid - rad, 3 << bits) - _PI3_CHECK_GAP
    hi = Fraction(mid + rad, 3 << bits) + _PI3_CHECK_GAP
    for z, sign in ((lo, 1), (hi, -1)):
        _, (c, rc), _ = _halve_and_double(z, 6, 160)
        if sign * c - rc <= 0:
            raise AssertionError("pi3 from the AGM misses the first zero of cm")


@lru_cache(maxsize=16)
def pi3(dps: int = 30) -> NumericValue:
    """The cubic analogue of pi: 3 * integral of (1 - t^3)^(-2/3) over [0, 1].

    pi3 = Gamma(1/3)^3 sqrt(3) / (2 pi), and Borwein & Zucker's reduction
    of Gamma(1/3) to a complete elliptic integral of modulus sin 15 degrees
    turns it into the AGM form of :func:`_pi3_ball`, evaluated in integers
    to a radius below 10^-(dps + 7).  The AGM route is checked once per
    process against the first zero of cm (:func:`_check_pi3`); a miss
    raises.
    """
    if dps < 0:
        raise ValueError(f"digits must be nonnegative, got {dps}")
    # lru_cache keeps no exception, so a failed check raises on every call.
    _check_pi3()
    bits = _pi3_bits(dps)
    return NumericValue(*_pi3_ball(bits), bits)


def zeta0(dps: int = 30) -> NumericValue:
    """The real period 2 pi3 / 3 of the degenerate cubic pencil: the pi3
    ball times 2/3, whose floor adds one unit when it has a remainder."""
    mid, rad, bits = pi3(dps)
    third, rem = divmod(2 * mid, 3)
    return NumericValue(third, -(-2 * rad // 3) + (rem != 0), bits)


def abelian_I(y: object, dps: int = 30) -> NumericValue:
    """The incomplete integral of (1 + w^3)^(-2/3) from 0 to y, for y >= 0."""
    from mpmath import mpf

    y = _exact(y)
    if y < 0:
        raise ValueError("abelian_I is defined here for y >= 0 only")
    if y == 0:
        return NumericValue(0, 0, 0)
    return tanh_sinh_quad(lambda w: (1 + w**3) ** (mpf(-2) / 3), 0, y, dps=dps)


# -- sm / cm evaluation ----------------------------------------------

# A rational upper bound on pi3/3, above it by less than 1e-50; the tests
# pin it against pi3 and the Gamma form.  The domain check needs nothing
# more of pi3, so evaluation never computes it.
_THIRD_PERIOD = Fraction("1.76663875028544995731368949964843870257186853820256")


def _exact(x: object) -> Fraction:
    """x as an exact rational, the one way an argument enters: floats and
    mpf values are dyadic, and NaN and infinities are refused.  An mpf can
    only arrive once mpmath is loaded, so this never loads it."""
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and isinstance(x, mpmath.mpf):
        if not mpmath.isfinite(x):
            raise ValueError(f"cannot evaluate at {x}")
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot evaluate at {x}")
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
        raise ValueError("the denominator ball reaches zero")
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


def _sm_cm(z: object, digits: int, flip: bool = False) -> tuple[Ball, Ball, int]:
    """Balls around sm(z) and cm(z), or with flip around sm(-z) and cm(-z),
    at scale 2^-bits, and bits, with radii aimed at 10^-(digits + 3).

    The argument is halved k times, with k about half the square root of
    the precision in bits, which balances the series' length against the
    doublings; each doubling costs about two bits of radius.  Near the
    pole the values, and with them the radii, grow, and a second pass
    adds the bits the first one fell short by.  sm and cm are analytic
    across their zero pi3/3, so that end of the domain admits an argument
    rounded from pi3/3 at the caller's precision; the pole end does not.
    A domain error names the end in the caller's frame, z or -z.
    """
    if digits < 0:
        raise ValueError(f"digits must be nonnegative, got {digits}")
    z, zero, pole = (-_exact(z), "-pi3/3", "pi3/3") if flip else (_exact(z), "pi3/3", "-pi3/3")
    if z > _THIRD_PERIOD + Fraction(1, 10 ** (digits + 3)):
        raise ValueError(f"argument lies past the first zero {zero}")
    if z < -_THIRD_PERIOD:
        raise ValueError(f"argument lies past the pole at {pole}")
    target = math.ceil((digits + 3) * math.log2(10))
    m = max(4, math.isqrt(target) // 2)
    k = max(0, m + abs(z.numerator).bit_length() - z.denominator.bit_length() + 1)
    prec = target + 3 * k + 20
    try:
        for _ in range(2):
            s, c, bits = _halve_and_double(z, k, prec)
            widest = max(s[1], c[1])
            if widest <= 1 << (bits - target):
                break
            # The widest radius is below 2^(widest.bit_length() - bits).
            prec += widest.bit_length() - bits + target + 12
    except ValueError:  # only _div raises: a doubling's denominator reached zero
        raise ValueError(f"argument too close to the pole at {pole}") from None
    return s, c, bits


def eval_sm(z: object, digits: int = 30) -> NumericValue:
    """sm(z) for real z in (-pi3/3, pi3/3]; poles bound the domain below."""
    s, _, bits = _sm_cm(z, digits)
    return NumericValue(*s, bits)


def eval_cm(z: object, digits: int = 30) -> NumericValue:
    """cm(z) for real z in (-pi3/3, pi3/3]."""
    _, c, bits = _sm_cm(z, digits)
    return NumericValue(*c, bits)


def eval_smh(z: object, digits: int = 30) -> NumericValue:
    """smh(z) = -sm(-z) for real z in [-pi3/3, pi3/3); pole at pi3/3."""
    (mid, rad), _, bits = _sm_cm(z, digits, flip=True)
    return NumericValue(-mid, rad, bits)


def eval_cmh(z: object, digits: int = 30) -> NumericValue:
    """cmh(z) = cm(-z) for real z in [-pi3/3, pi3/3)."""
    _, c, bits = _sm_cm(z, digits, flip=True)
    return NumericValue(*c, bits)


# -- e^-t ----------------------------------------------------------------


def _exp_neg(t: Fraction, bits: int) -> Ball:
    """A ball around e^-t at scale 2^-bits for rational t >= 0, whose
    midpoint lies in [0, 2^bits].

    t is halved j times, to s = t / 2^j < 2^-3, the series of e^-s is
    summed forward in fixed point at a finer scale, and j squarings by
    :func:`_mul` carry it back to e^-t.  Proof of the series radius: each
    term T_i = floor(T_(i-1) s / i) lies below its scaled value by less
    than 2 units, since it inherits at most an eighth of the error before
    it and adds its own floor's.  The sum stops at the first T_I = 0,
    whose term is then below 2 units, and the alternating tail of falling
    terms from there is smaller than that term: 2 I + 2 units in all.
    The terms never rise, so the sum, and each square of it, stays in
    [0, 1]; the final floor to 2^-bits adds one unit.
    """
    num, den = t.numerator, t.denominator
    if not num:
        return 1 << bits, 0
    # Halvings and series terms balance near half the root of the bits.
    j = max(0, num.bit_length() - den.bit_length() + max(4, math.isqrt(bits) // 2))
    den <<= j
    # Each squaring at most doubles the radius and adds a unit.
    work = bits + j + 2 * bits.bit_length() + 4
    term = total = 1 << work
    i = 0
    while term:
        i += 1
        term = term * num // (den * i)
        total += -term if i & 1 else term
    ball = total, 2 * i + 2
    for _ in range(j):
        ball = _mul(ball, ball, work)
    mid, rad = ball
    shift = work - bits
    return mid >> shift, -(-rad >> shift) + 1
