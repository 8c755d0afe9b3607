from fractions import Fraction

import mpmath
import pytest
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
    for d in (15, 100, 300):
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
    v = NumericValue(value=mpf("1.23456"), error_bound=mpf("0.001"))
    assert v.decimal_places() == 2
    assert v.to_string(5) == "1.23"
    exact = NumericValue(value=mpf(3), error_bound=mpf(0))
    assert exact.to_string(2) == "3.00"
    # Past the 4300 digits Python will turn into a string in one piece.
    assert NumericValue(mpf(-1.25), mpf(0)).to_string(6000) == "-1.25" + "0" * 5998


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
import mpmath
import dixonian.numerics as numerics
agm = mpmath.mp.agm
mpmath.mp.agm = lambda a, b: agm(a, b) * (1 + mpmath.mpf(10) ** -12)
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
    # pi3 while the one-time quadrature check is still running.
    assert run_fresh(_PI3_THREADS) == ["raised"] * 4


def test_evaluation_never_computes_pi3(run_fresh):
    # sm and cm check their domain against a rational bound, so neither
    # they nor the Yule closed form run the one-time quadrature check.
    code = (
        "from fractions import Fraction as F\n"
        "import dixonian.numerics as n, dixonian.urn as u\n"
        "n.eval_smh(F(1, 2)); n.eval_cmh(F(17, 10)); u.yule_closed_form(1.0)\n"
        "print(n._pi3_checked); n.pi3(30); print(n._pi3_checked)"
    )
    assert run_fresh(code) == ["False", "True"]


def test_pi3_check_passes_at_low_precision(run_fresh):
    # The first pi3 of a process may ask for fewer digits than the
    # quadrature check carries; the check must not mistake that for a fault.
    assert run_fresh("import dixonian.numerics as n; print(n.pi3(5).to_string(5))") == ["5.29991"]
