import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from dixonian import numerics
from dixonian.cli import main
from dixonian.functions import dixon_egf_integers
from dixonian.numerics import (
    NumericValue,
    abelian_I,
    eval_cm,
    eval_cmh,
    eval_sm,
    eval_smh,
    pi3,
    tanh_sinh_quad,
    zeta0,
)

PI3_REF = mpf("5.2999162508")
SMH1_REF = mpf("1.2054151514")


def third_zero():
    with mp.workdps(40):
        return pi3(35).value / 3


def test_tanh_sinh_polynomial():
    q = tanh_sinh_quad(lambda t: t**2, 0, 1, dps=30)
    with mp.workdps(45):
        assert abs(q.value - mpf(1) / 3) < mpf("1e-28")
    assert q.error_bound < mpf("1e-25")


@pytest.mark.parametrize("a, b, want", [(1, 0, -1), (2, 1, -1), (0, 1, 1), (1, 1, 0), ("1/3", "1/3", 0)])
def test_tanh_sinh_orientation(a, b, want):
    # The integral from a to b is minus the one from b to a.
    q = tanh_sinh_quad(lambda t: 1, a, b, dps=15)
    assert abs(q.value - want) <= q.error_bound < mpf("1e-15")


def test_tanh_sinh_endpoint_singularity():
    q = tanh_sinh_quad(lambda t: 1 / mpmath.sqrt(t), 0, 1, dps=30)
    with mp.workdps(45):
        assert abs(q.value - 2) < mpf("1e-25")


def test_pi3_value_and_bound():
    p = pi3(30)
    assert abs(p.value - PI3_REF) <= mpf("1e-9")
    assert p.error_bound < mpf("1e-30")


def test_pi3_matches_gamma_closed_form():
    # The library takes pi3 from an AGM; the Gamma form
    # Gamma(1/3)^3 sqrt(3) / (2 pi) = B(1/3, 1/3) is the independent oracle.
    for d in (15, 100, 300, 600):
        p = pi3(d)
        with mp.workdps(d + 30):
            ref = mpmath.beta(mpf(1) / 3, mpf(1) / 3)
            assert abs(p.value - ref) <= p.error_bound, f"pi3 off at {d} digits"


def test_pi3_fixed_point_rendering():
    assert pi3(30).to_string(10) == "5.2999162508"


def test_zeta0_is_two_thirds_pi3():
    z = zeta0(30)
    p = pi3(30)
    with mp.workdps(40):
        assert abs(z.value - 2 * p.value / 3) < mpf("1e-35")
    assert abs(z.value - mpf("3.5332775006")) <= mpf("2e-9")


def test_abelian_integral_against_library_quadrature():
    mine = abelian_I(Fraction(7, 10), dps=30)
    with mp.workdps(45):
        end = mpf(7) / 10
        ref = mpmath.quad(lambda w: (1 + w**3) ** (mpf(-2) / 3), [0, end])
        assert abs(mine.value - ref) < mpf("1e-25")
    assert abelian_I(0).value == 0
    with pytest.raises(ValueError):
        abelian_I(-1)
    # every point enters through _exact, in this process too
    with pytest.raises(ValueError, match="^cannot evaluate at nan$"):
        numerics._exact(mpf("nan"))
    with pytest.raises(TypeError, match="^cannot interpret <object"):
        numerics._exact(object())


_NOT_FINITE = """
import math
from mpmath import mpf
from dixonian.numerics import abelian_I, tanh_sinh_quad
cases = [lambda: abelian_I(math.nan), lambda: abelian_I(math.inf),
         lambda: abelian_I(-math.inf), lambda: abelian_I(mpf("nan")),
         lambda: tanh_sinh_quad(lambda t: t, 0, math.nan),
         lambda: tanh_sinh_quad(lambda t: t, math.inf, 1),
         lambda: tanh_sinh_quad(lambda t: t, mpf("-inf"), 0)]
for case in cases:
    try:
        case()
        print("returned")
    except ValueError as exc:
        print(str(exc).replace(" ", "_"))
"""


def test_quadrature_refuses_non_finite_points(run_fresh):
    # Before they were refused, a NaN endpoint kept the quadrature
    # running: a fresh interpreter with a timeout fails instead of hanging.
    want = ["cannot_evaluate_at_" + x for x in ("nan", "inf", "-inf", "nan", "nan", "inf", "-inf")]
    assert run_fresh(_NOT_FINITE, timeout=20) == want


def test_eval_at_origin():
    assert eval_sm(0).value == 0
    assert eval_cm(0).value == 1
    assert eval_sm(0).error_bound == 0


def test_eval_at_first_zero():
    a = third_zero()
    s = eval_sm(a, digits=20)
    c = eval_cm(a, digits=20)
    with mp.workdps(30):
        assert abs(s.value - 1) <= s.error_bound + mpf("1e-25")
        assert abs(c.value) <= c.error_bound + mpf("1e-25")


def test_midpoint_symmetry():
    # sm and cm cross at half the first zero, where both equal 2^(-1/3).
    a = third_zero()
    with mp.workdps(40):
        mid = a / 2
    s = eval_sm(mid, digits=25)
    c = eval_cm(mid, digits=25)
    with mp.workdps(40):
        ref = mpf(2) ** (mpf(-1) / 3)
        assert abs(s.value - ref) < mpf("1e-22")
        assert abs(c.value - ref) < mpf("1e-22")


def test_smh_at_one():
    v = eval_smh(1, digits=15)
    assert abs(v.value - SMH1_REF) <= mpf("1e-9")


def test_cubic_identity_on_grid():
    a = third_zero()
    with mp.workdps(30):
        for i in range(1, 21):
            z = a * i / 20
            s = eval_sm(z, digits=12)
            c = eval_cm(z, digits=12)
            gap = abs(s.value**3 + c.value**3 - 1)
            allowance = 5 * (s.error_bound + c.error_bound) + mpf("1e-13")
            assert gap <= allowance, f"identity failed at grid point {i}"


def taylor_sum(table, z: Fraction, top: int) -> Fraction:
    """The plain Taylor sum of table[n] z^n / n! up to n = top, in exact rationals."""
    total, fact = Fraction(0), 1
    for n in range(top + 1):
        if n:
            fact *= n
        if table[n]:
            total += Fraction(table[n], fact) * z**n
    return total


def test_taylor_sum_matches_halving():
    # Two routes to sm and cm far from the origin (0.6 pi3/3 is about
    # 1.06): the Taylor series summed at z itself, with no halving and no
    # doubling, and the library's series at z / 2^k doubled back by Dixon's
    # formulas.  The terms fall like (z / (pi3/3))^n, so summing until that
    # ratio's power is below 1e-15 leaves a tail far below the 1e-10 asked
    # of the comparison.
    for z in (Fraction(106, 100), Fraction(5, 4), Fraction(3, 2), Fraction(17, 10),
              Fraction(-3, 2), Fraction(-17, 10)):
        with mp.workdps(30):
            ratio = abs(mpf(z.numerator) / z.denominator) / third_zero()
            top = int(15 * mpmath.log(10) / -mpmath.log(ratio)) + 3
        sm_table, cm_table = dixon_egf_integers(top)
        for fn, table in ((eval_sm, sm_table), (eval_cm, cm_table)):
            v = fn(z, 20)
            plain = taylor_sum(table, z, top)
            with mp.workdps(40):
                gap = abs(v.value - mpf(plain.numerator) / plain.denominator)
                assert gap <= v.error_bound + mpf("1e-10"), f"{fn.__name__}({z}): routes disagree"


@pytest.mark.parametrize("prec", [8, 24, 64])
def test_fixed_point_taylor_sum_is_within_its_radius(prec):
    # The fixed-point Horner sum against the same sum in exact rationals:
    # off by at most its radius (and below the 6/5 units of its proof),
    # with radius 0 exactly when every scaled Horner value is an integer,
    # that is, when every division was exact.
    sm_table, cm_table = dixon_egf_integers(40)
    radii = set()
    for num, den in ((1, 7), (-1, 7), (5, 16), (-5, 16), (0, 3)):
        w = Fraction(num, den)
        for table, start in ((sm_table, 1), (cm_table, 0)):
            for top in (start, start + 3, 12, 40):
                total, radius = numerics._taylor(table, start, num, den, top, prec)
                n = start + 3 * ((top - start) // 3)
                exact = Fraction(table[n] << prec)
                integral = True
                while n > start:
                    n -= 3
                    exact = exact * w**3 / ((n + 1) * (n + 2) * (n + 3)) + (table[n] << prec)
                    integral = integral and exact.denominator == 1
                err = abs(exact - total)
                assert err <= radius and err < Fraction(6, 5), (w, start, top)
                assert (radius == 0) == integral, (w, start, top)
                radii.add(radius)
    assert radii == {0, 2}


def test_tanh_sinh_reproduces_pi3_within_its_bound():
    # Quadrature of the defining integral against the integer AGM.
    for dps in (15, 25, 40):
        q = tanh_sinh_quad(lambda t: (1 - t**3) ** (mpf(-2) / 3), 0, 1, dps=dps)
        p = pi3(dps + 10)
        with mp.workdps(dps + 20):
            assert abs(3 * q.value - p.value) <= 3 * q.error_bound + p.error_bound


def test_tail_majorant_premise():
    # The tail bound |w|^(N+1) / (1 - |w|) rests on |[z^n] sm| <= 1 and
    # |[z^n] cm| <= 1, which the majorant Y' = Y^2, Y(0) = 1 promises;
    # checked exactly on the integer tables n! [z^n].
    sm_table, cm_table = dixon_egf_integers(600)
    fact = 1
    for n in range(601):
        if n:
            fact *= n
        assert abs(sm_table[n]) <= fact and abs(cm_table[n]) <= fact, f"index {n}"


def test_hyperbolic_identities_numeric():
    with mp.workdps(30):
        s = eval_sm(mpf("0.5"), digits=20)
        c = eval_cm(mpf("0.5"), digits=20)
        sh = eval_smh(mpf("0.5"), digits=20)
        ch = eval_cmh(mpf("0.5"), digits=20)
        assert abs(sh.value - s.value / c.value) < mpf("1e-15")
        assert abs(ch.value * c.value - 1) < mpf("1e-15")


def test_domain_errors():
    a = third_zero()
    with pytest.raises(ValueError):
        eval_sm(float(a) + 0.01)
    with pytest.raises(ValueError):
        eval_smh(float(a) + 0.001)
    with pytest.raises(ValueError):
        eval_cm(-(float(a) + 0.01))
    # negative digits are refused; 0 digits still evaluate
    from dixonian.urn import yule_value

    negative = [lambda: eval_smh(Fraction(1, 2), -4), lambda: eval_cm(0, -1),
                lambda: pi3(-30), lambda: pi3(-10), lambda: zeta0(-1),
                lambda: yule_value("yuleX", Fraction(1), -1), lambda: abelian_I(1, dps=-5),
                lambda: tanh_sinh_quad(lambda t: t * t, 0, 1, dps=-5)]
    for route in negative:
        with pytest.raises(ValueError, match="^digits must be nonnegative"):
            route()
    with pytest.raises(ValueError, match="^expr must be yuleX or yuleY, got 'foo'$"):
        yule_value("foo", Fraction(1), 10)
    assert pi3(0).bits and eval_smh(Fraction(1, 2), 0).bits
    # The urn's points enter through the same exact converter as eval_smh:
    # a float or a string is read as its rational, NaN and infinities raise.
    from dixonian.urn import history_composition_residual, history_egf_partial

    for t in (Fraction(1, 2), 0.5, "1/2"):
        assert yule_value("yuleX", t, 15).to_string(15) == "0.241102598543608"
    partial = history_egf_partial(0.5, "1/3", 5)
    assert type(partial) is Fraction
    assert partial == history_egf_partial(Fraction(1, 2), Fraction(1, 3), 5)
    for bad in (math.nan, math.inf, -math.inf):
        for route in (lambda: yule_value("yuleX", bad, 15),
                      lambda: yule_value("yuleY", bad, 15),
                      lambda: history_egf_partial(bad, Fraction(1, 3), 5),
                      lambda: history_egf_partial(Fraction(1, 2), bad, 5),
                      lambda: history_composition_residual(bad, Fraction(1, 3), 5),
                      lambda: history_composition_residual(Fraction(1, 3), bad, 5)):
            with pytest.raises(ValueError, match="^cannot evaluate at"):
                route()


def test_pole_is_found_by_the_doubling():
    # U lies past smh's pole at pi3/3 by less than 1e-50, and U - 1e-45
    # lies before it by about 1e-45: the range check admits both, and the
    # doubling's denominator interval must then reach or cross zero.
    U = numerics._THIRD_PERIOD
    for z in (U, U - Fraction(1, 10**45)):
        with pytest.raises(ValueError, match="too close to the pole"):
            eval_smh(z, 20)
    far = eval_smh(U - Fraction(1, 10**30), 20)
    assert far.value > 10**29 and far.decimal_places() >= 20


def test_numeric_value_clamps_rendering():
    v = NumericValue.from_mpf(mpf("1.23456"), mpf("0.001"))
    assert v.decimal_places() == 2
    assert v.to_string(5) == "1.23"
    exact = NumericValue.from_mpf(mpf(3), mpf(0))
    assert exact.to_string(2) == "3.00"
    # a ball at a coarse scale: 3 * 2^2 with no error
    assert NumericValue(3, 0, -2).to_string(0) == "12"
    # Past the 4300 digits Python will turn into a string in one piece.
    assert NumericValue.from_mpf(mpf(-1.25), mpf(0)).to_string(6000) == "-1.25" + "0" * 5998
    with pytest.raises(ValueError, match="places must be nonnegative, got -1"):
        v.to_string(-1)


def test_mpf_views_are_the_exact_ball():
    v = NumericValue.from_mpf(mpf("-1.23456"), mpf("0.001"))
    assert v.value == mpf("-1.23456") and v.error_bound == mpf("0.001")
    assert NumericValue(5, 3, -2).value == 20 and NumericValue(5, 3, -2).error_bound == 12
    assert float(NumericValue(-3, 0, 2)) == -0.75 and float(NumericValue(3, 0, -1)) == 6.0
    with pytest.raises(ValueError):
        NumericValue.from_mpf(mpf("inf"), mpf(0))


def _just(side: int, d: int) -> NumericValue:
    """A dyadic bound within 2^-400 of 10^-d / 2, on the given side."""
    bits = 400 + 4 * d
    half = (1 << bits) // (2 * 10**d) + (side > 0)
    return NumericValue(0, half, bits)


@pytest.mark.parametrize("d", [0, 1, 5, 19, 20, 21, 100, 1000])
def test_decimal_places_is_exact_at_powers_of_ten(d):
    # A bound b justifies d places exactly when 2 b <= 10^-d: just below
    # half of 10^-d it does, just above it justifies one place fewer.
    assert _just(-1, d).decimal_places() == d
    assert _just(+1, d).decimal_places() == max(d - 1, 0)


def test_decimal_places_at_half_a_unit_and_a_hair():
    # b = 10^-20 (1 + 10^-25) / 2: 2 b exceeds 10^-20, so only 19 places
    # are justified, though a 53-bit logarithm of 2 b reads exactly -20.
    with mp.workdps(80):
        b = mpf(10) ** -20 * (1 + mpf(10) ** -25) / 2
    assert NumericValue.from_mpf(mpf(1), b).decimal_places() == 19
    assert NumericValue(1, 1, 1).decimal_places() == 0
    assert NumericValue(1, 1, -3).decimal_places() == 0
    assert NumericValue(1, 0, 7).decimal_places() == 10**6


def smh_by_inversion(x: Fraction, guess: str) -> mpmath.mpf:
    # smh inverts y -> y 2F1(1/3, 2/3; 4/3; -y^3), the integral of
    # (1 + t^3)^(-2/3) from 0 to y; Newton's method solves for y = smh(x)
    # at the caller's working precision.
    third = mpf(1) / 3
    target = mpf(x.numerator) / x.denominator
    return mpmath.findroot(
        lambda y: y * mpmath.hyp2f1(third, 2 * third, 4 * third, -(y**3)) - target,
        mpf(guess),
        solver="newton",
        df=lambda y: (1 + y**3) ** (-2 * third),
    )


def test_smh_against_hypergeometric_inversion():
    for digits in (100, 1000):
        v = eval_smh(Fraction(1, 2), digits)
        with mp.workdps(digits + 40):
            assert abs(v.value - smh_by_inversion(Fraction(1, 2), "0.51")) <= v.error_bound


def test_cli_smh_prints_every_place_it_is_asked_for(capsys):
    # smh(3/2) sits on the pole side, 0.27 from the pole at pi3/3.
    assert main(["eval", "smh", "3/2", "--digits", "100"]) == 0
    value, claim = capsys.readouterr().out.splitlines()
    assert claim == "error < 2e-100"
    assert len(value.split(".")[1]) == 100
    with mp.workdps(140):
        ref = smh_by_inversion(Fraction(3, 2), "3.7")
        assert abs(mpf(value) - ref) < mpf("2e-100")


@pytest.mark.parametrize("arg, digits", [("0.88", 400), ("1/2", 2000), ("1/2", 5000)])
def test_cli_smh_has_no_term_cap(capsys, arg, digits):
    # No term cap: near pi3/6 and at thousands of digits every place asked
    # for is printed, with nothing on stderr.
    assert main(["eval", "smh", arg, "--digits", str(digits)]) == 0
    out, err = capsys.readouterr()
    value, claim = out.splitlines()
    assert err == ""
    assert claim == f"error < 2e-{digits}"
    assert len(value.split(".")[1]) == digits
    # The first 400 places against the 2F1 inversion.
    with mp.workdps(440):
        ref = smh_by_inversion(Fraction(arg), value[:10])
        assert abs(mpf(value[:402]) - ref) < 2 * mpf(10) ** -400


@pytest.mark.parametrize("fn", [eval_smh, eval_cmh], ids=["smh", "cmh"])
def test_bounds_are_honest_on_grid(fn):
    # Up to both ends of the domain, the pole at pi3/3 included, the
    # 30-digit value must lie within its bound of an 80-digit one, and the
    # 80-digit value within its bound of a 1000-digit one.
    for k in range(-88, 89):
        z = Fraction(k, 50)
        lo, hi = fn(z, 30), fn(z, 80)
        with mp.workdps(120):
            gap = abs(lo.value - hi.value)
            assert gap <= lo.error_bound + hi.error_bound, f"bound broken at z = {z}"
    for k in (-85, -68, -51, -34, -17, 17, 34, 51, 68, 85):
        z = Fraction(k, 50)
        lo, hi = fn(z, 80), fn(z, 1000)
        with mp.workdps(1040):
            gap = abs(lo.value - hi.value)
            assert gap <= lo.error_bound + hi.error_bound, f"bound broken at z = {z}, 1000 digits"


@pytest.mark.parametrize("digits", [30, 80])
def test_bounds_meet_the_precision_contract_on_grid(digits):
    # The CLI asks for digits + 5 and prints digits places, so a bound at
    # or below 10^-(digits + 3) is what keeps every place it prints.
    for fn in (eval_smh, eval_cmh):
        for k in range(-88, 89):
            v = fn(Fraction(k, 50), digits)
            assert v.error_bound <= mpf(10) ** -(digits + 3), f"{fn.__name__}({k}/50)"


def test_evaluation_is_thread_safe():
    # A 1000-digit evaluation shares the process with 30-digit ones: no
    # precision one of them sets may reach another, or mpmath's contexts.
    iv_prec = mpmath.iv.prec
    done = threading.Event()
    bounds = []

    def high():
        try:
            for _ in range(40):
                bounds.append(eval_cmh(Fraction(-8, 5), 1000).error_bound)
        finally:
            done.set()

    def low(offset):
        k = offset
        while not done.is_set():
            eval_cmh(Fraction(k % 151 - 75, 50), 30)
            k += 7

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=high)]
        threads += [threading.Thread(target=low, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert len(bounds) == 40 and all(b <= mpf(10) ** -1003 for b in bounds)
    assert mpmath.iv.prec == iv_prec


balls = st.tuples(st.integers(-(2**80), 2**80), st.integers(0, 2**40))


def point(ball, t: Fraction) -> Fraction:
    """The point at t in [-1, 1] across the ball (mid, rad)."""
    return ball[0] + t * ball[1]


unit = st.fractions(-1, 1, max_denominator=1000)


@settings(max_examples=200, deadline=None)
@given(balls, balls, st.integers(0, 64), unit, unit)
def test_ball_product_holds_every_point_product(a, b, bits, s, t):
    mid, rad = numerics._mul(a, b, bits)
    assert abs(point(a, s) * point(b, t) / 2**bits - mid) <= rad


@settings(max_examples=200, deadline=None)
@given(balls, balls, st.integers(0, 64), unit, unit)
def test_ball_quotient_holds_every_point_quotient(a, b, bits, s, t):
    # The denominator ball moved above zero, keeping its radius.
    b = (abs(b[0]) + b[1] + 1, b[1])
    mid, rad = numerics._div(a, b, bits)
    assert abs(point(a, s) / point(b, t) * 2**bits - mid) <= rad


@settings(max_examples=100, deadline=None)
@given(st.integers(-(2**80), 2**80), st.integers(1, 2**80), st.integers(0, 64))
def test_exact_balls_round_only_in_the_floor(x, y, bits):
    # Radius 0 when the result is exact at the scale, else the one unit
    # of the floor's remainder.
    assert numerics._mul((x << bits, 0), (y, 0), bits) == (x * y, 0)
    assert numerics._div((x * y, 0), (y, 0), bits) == (x << bits, 0)
    mid, rad = numerics._mul((x, 0), (y, 0), bits)
    assert rad == (mid << bits != x * y)
    mid, rad = numerics._div((x, 0), (y, 0), bits)
    assert rad == (mid * y != x << bits)


@given(balls, st.integers(-(2**40), 0), st.integers(0, 2**40), st.integers(0, 64))
def test_quotient_by_a_ball_reaching_zero_raises(a, low, rad, bits):
    # A denominator ball whose lower end low is at or below zero.
    with pytest.raises(ValueError, match="the denominator ball reaches zero"):
        numerics._div(a, (low + rad, rad), bits)


_NO_IV = """
import mpmath
class Gone:
    def __getattribute__(self, name):
        raise AssertionError(f"mpmath.iv.{name} was read")
mpmath.iv = Gone()
from fractions import Fraction as F
import dixonian.numerics as n
for d in (15, 30, 100, 1000):
    print(n.eval_smh(F(1, 2), d).to_string(d), n.eval_cmh(F(-8, 5), d).to_string(d))
"""


def test_evaluation_uses_no_interval_arithmetic(run_fresh):
    # sm and cm run on integer balls: with mpmath.iv unreadable, a fresh
    # interpreter still prints what this one does.
    want = [fn(z, d).to_string(d) for d in (15, 30, 100, 1000)
            for fn, z in ((eval_smh, Fraction(1, 2)), (eval_cmh, Fraction(-8, 5)))]
    assert run_fresh(_NO_IV) == want


def test_third_period_bound_is_tight():
    # The domain check reads a rational U with pi3/3 <= U <= pi3/3 + 1e-50,
    # pinned here against the AGM pi3 and the Gamma form.
    U = numerics._THIRD_PERIOD
    p = pi3(60)
    with mp.workdps(90):
        u = mpf(U.numerator) / U.denominator
        gamma_third = mpmath.gamma(mpf(1) / 3) ** 3 * mpmath.sqrt(3) / (2 * mp.pi) / 3
        for third, err in ((p.value / 3, p.error_bound / 3), (gamma_third, mpf("1e-80"))):
            assert third + err <= u <= third - err + mpf("1e-50")


_PI3_THREADS = """
import threading
import dixonian.numerics as numerics
ball = numerics._pi3_ball
numerics._pi3_ball = lambda bits: (lambda m, r: (m + m // 10**12, r))(*ball(bits))
barrier = threading.Barrier(4)
outcomes = [None] * 4
def ask(i):
    barrier.wait()
    try:
        numerics.pi3(30 + i)
        outcomes[i] = "returned"
    except AssertionError:
        outcomes[i] = "raised"
threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
    assert not t.is_alive()
print(" ".join(outcomes))
"""


def test_pi3_check_holds_under_threads(run_fresh):
    # A corrupted closed form must be caught by every thread that asks for
    # pi3 while the one-time check is still running.
    assert run_fresh(_PI3_THREADS) == ["raised"] * 4


_QUAD_THREADS = """
import sys
import threading
from fractions import Fraction
from dixonian.numerics import tanh_sinh_quad
sys.setswitchinterval(1e-5)
done = threading.Event()
def low():
    while not done.is_set():
        tanh_sinh_quad(lambda t: t * t, 0, 1, dps=5)
outcomes = []
def high():
    try:
        for _ in range(4):
            q = tanh_sinh_quad(lambda t: t * t, 0, 1, dps=40)
            third = Fraction(2) ** q.bits / 3
            outcomes.append("held" if abs(q.mid - third) <= q.rad else "missed")
    except ValueError:
        outcomes.append("raised")
    finally:
        done.set()
threads = [threading.Thread(target=task) for task in (low, low, high)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
    assert not t.is_alive()
print(" ".join(outcomes))
"""


def test_quadrature_bounds_hold_under_threads(run_fresh):
    # mpmath's precision is one setting per process: 5-digit quadratures
    # looping in two threads must not cut a 40-digit one in a third below
    # its bound.  Unguarded, the 40-digit calls miss or crawl for seconds.
    assert run_fresh(_QUAD_THREADS, timeout=20) == ["held"] * 4


def test_evaluation_never_computes_pi3(run_fresh):
    # sm and cm check their domain against a rational bound, so neither
    # they nor the Yule closed form run the one-time pi3 check.
    code = (
        "from fractions import Fraction as F\n"
        "import dixonian.numerics as n, dixonian.urn as u\n"
        "n.eval_smh(F(1, 2)); n.eval_cmh(F(17, 10)); u.yule_closed_form(1.0)\n"
        "print(n._check_pi3.cache_info().currsize); n.pi3(30)\n"
        "print(n._check_pi3.cache_info().currsize)"
    )
    assert run_fresh(code) == ["0", "1"]


def test_pi3_check_passes_at_low_precision(run_fresh):
    # The first pi3 of a process may ask for fewer digits than the check
    # carries; the check must not mistake that for a fault.
    assert run_fresh("import dixonian.numerics as n; print(n.pi3(5).to_string(5))") == ["5.29991"]


_PI3_SHIFTED = """
import sys
import dixonian.numerics as numerics
ball = numerics._pi3_ball
shift = {shift}
numerics._pi3_ball = lambda bits: (lambda m, r: (m + (shift << bits) // 10**20, r))(*ball(bits))
try:
    print(numerics.pi3(30).to_string(5))
except AssertionError:
    print("raised")
print("mpmath" in sys.modules)
"""


@pytest.mark.parametrize("shift, outcome", [(0, "5.29991"), (1, "raised"), (-1, "raised")])
def test_pi3_check_catches_one_unit_in_the_20th_digit(run_fresh, shift, outcome):
    # The zero of cm brackets pi3/3 to 1e-22 on each side, so an integer
    # pi3 moved by 1e-20 either way fails the one-time check; the check
    # itself loads no mpmath.
    assert run_fresh(_PI3_SHIFTED.format(shift=shift)) == [outcome, "False"]


def test_pi3_and_zeta0_load_no_mpmath(run_fresh):
    code = (
        "import sys, dixonian.numerics as n\n"
        "print(n.pi3(600).to_string(3), n.zeta0(30).to_string(3), 'mpmath' in sys.modules)"
    )
    assert run_fresh(code) == ["5.299", "3.533", "False"]


def test_integer_roots_and_machin_pi():
    for n in (1, 2, 7, 8, 26, 27, 28, 10**30, 10**30 + 1, 3 * 2**600 + 5):
        r = numerics._icbrt(n)
        assert r**3 <= n < (r + 1) ** 3, n
    for bits in (10, 64, 333, 2000):
        mid, rad = numerics._machin_pi(bits)
        with mp.workprec(bits + 64):
            assert abs(mpf(mid) / 2**bits - mp.pi) <= mpf(rad) / 2**bits, bits


@pytest.mark.parametrize("bits", [20, 80, 300, 2000])
def test_exp_ball_holds_the_exponential(bits):
    # The integer e^-t against mpmath's, at far higher precision.
    for t in (Fraction(0), Fraction(1, 10**9), Fraction(1, 10), Fraction(1, 3), Fraction(1),
              Fraction(5, 2), Fraction(40), Fraction(1000)):
        mid, rad = numerics._exp_neg(t, bits)
        assert 0 <= mid <= 1 << bits
        with mp.workprec(bits + 80):
            gap = abs(mpf(mid) / 2**bits - mp.exp(-mpf(t.numerator) / t.denominator))
            assert gap <= mpf(rad) / 2**bits, (t, bits)
        assert rad <= 4 or t == 0, (t, bits)
