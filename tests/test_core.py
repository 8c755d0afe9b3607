from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dixonian.core import (
    BivariatePoly,
    InvalidUrnStateError,
    PowerSeries,
    _series_div,
    delta_apply,
    format_rational,
    series_binomial_pow,
    series_compose,
    series_derive,
    series_integrate,
    series_mul,
    series_revert,
)


class Rule:
    def __init__(self, a, b, s):
        self.a, self.b, self.s = a, b, s


RULE_M12 = Rule(1, 1, 1)
RULE_T23 = Rule(2, 3, 1)

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def series(order, *, unit=False, root=False):
    """Strategy for a random exact series of the given order."""
    def build(cs):
        if unit:
            cs = [Fraction(1)] + cs
        elif root:
            cs = [Fraction(0)] + cs
        return PowerSeries(cs, order)

    n = order if (unit or root) else order + 1
    return st.lists(rationals, min_size=n, max_size=n).map(build)


# -- basic invariants ------------------------------------------------


def test_order_and_padding():
    f = PowerSeries([1, 2], 5)
    assert f.order == 5
    assert f.coeffs == (1, 2, 0, 0, 0, 0)
    with pytest.raises(IndexError):
        f.coefficient(6)


def test_rational_round_trip():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-2, 63)) == "-2/63"


def test_geometric_product():
    one_minus = PowerSeries([1, -1], 6)
    geom = PowerSeries([1] * 7, 6)
    assert series_mul(one_minus, geom) == PowerSeries.one(6)


def test_mul_truncates_to_min_order():
    a = PowerSeries([1, 1], 3)
    b = PowerSeries([1, 1], 7)
    assert series_mul(a, b).order == 3


def test_division_requires_unit():
    with pytest.raises(ZeroDivisionError):
        PowerSeries.one(4) / PowerSeries.identity(4)


def test_compose_requires_root():
    with pytest.raises(ValueError):
        series_compose(PowerSeries.one(4), PowerSeries.one(4))


def test_integrate_derive_orders():
    f = PowerSeries([1, 2, 3], 4)
    assert series_integrate(f).order == 5
    assert series_derive(f).order == 3
    assert series_derive(series_integrate(f)) == f


def test_revert_moebius():
    # z/(1-z) inverts to z/(1+z).
    f = PowerSeries([0] + [1] * 10, 10)
    g = series_revert(f)
    expect = PowerSeries([0] + [(-1) ** k for k in range(10)], 10)
    assert g == expect


def newton_revert(f: PowerSeries) -> PowerSeries:
    """Oracle for the Bell recurrence: Newton iteration over Fraction.

    g <- g - (f(g) - z) / f'(g) by Horner composition and series division,
    doubling the number of exact coefficients each round.
    """
    n = f.order
    fp = series_derive(f)
    g = PowerSeries([0, Fraction(1) / f.coeffs[1]], 1)
    known = 1
    while known < n:
        known = min(2 * known, n)
        gk = PowerSeries(g.coeffs, known)
        err = series_compose(f.truncate(known), gk) - PowerSeries.identity(known)
        fpg = series_compose(fp.truncate(min(known, fp.order)), gk)
        # err has valuation >= 2, so the quotient never reads fpg's top
        # coefficient and padding it to full order is safe.
        g = gk - _series_div(err, PowerSeries(fpg.coeffs, known))
    return PowerSeries(g.coeffs, n)


def test_revert_scaled_denominators():
    # 2! r_2 = 2/3 and 3! r_3 = 6/5, so the integer scaling is lam = 15.
    f = PowerSeries([0, 1, Fraction(1, 3), Fraction(1, 5), Fraction(-2, 7)], 4)
    g = series_revert(f)
    assert g.coeffs[:4] == (0, 1, Fraction(-1, 3), Fraction(1, 45))
    assert g == newton_revert(f)
    assert series_compose(f, g) == PowerSeries.identity(4)


def test_revert_negative_rational_lead():
    f = PowerSeries([0, Fraction(-3, 2), Fraction(1, 4), 0, Fraction(-5, 7), 2], 9)
    g = series_revert(f)
    assert g.coefficient(1) == Fraction(-2, 3)
    assert g == newton_revert(f)
    assert series_compose(f, g) == PowerSeries.identity(9)


def test_revert_order_one():
    assert series_revert(PowerSeries([0, Fraction(-2, 5)], 1)) == PowerSeries(
        [0, Fraction(-5, 2)], 1
    )


def test_revert_rejects_bad_series():
    with pytest.raises(ValueError, match=r"f\(0\) = 0"):
        series_revert(PowerSeries([1, 1], 3))
    with pytest.raises(ValueError, match=r"f'\(0\) != 0"):
        series_revert(PowerSeries([0, 0, 1], 3))
    with pytest.raises(ValueError, match=r"f'\(0\) != 0"):
        series_revert(PowerSeries.zero(0))


def test_binomial_pow_cube_root():
    # (1 - t^3)^(-1/3) = 1 + t^3/3 + 2 t^6/9 + ...
    f = PowerSeries([1, 0, 0, -1], 9)
    h = series_binomial_pow(f, Fraction(-1, 3))
    assert h.coefficient(0) == 1
    assert h.coefficient(3) == Fraction(1, 3)
    assert h.coefficient(6) == Fraction(2, 9)
    assert h.coefficient(1) == 0 and h.coefficient(2) == 0


def test_integer_pow_matches_repeated_mul():
    f = PowerSeries([1, 2, -1, Fraction(1, 2)], 8)
    assert f**3 == series_mul(series_mul(f, f), f)
    assert f**0 == PowerSeries.one(8)


def test_evaluate_horner():
    f = PowerSeries([1, 2, 3], 2)
    assert f.evaluate(Fraction(1, 2)) == Fraction(1, 1) + 1 + Fraction(3, 4)


# -- property tests --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(series(6), series(6), series(6))
def test_ring_axioms(a, b, c):
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
    assert series_mul(a, b + c) == series_mul(a, b) + series_mul(a, c)


@settings(max_examples=40, deadline=None)
@given(series(8, root=True))
def test_revert_round_trips(f):
    if f.coefficient(1) == 0:
        with pytest.raises(ValueError):
            series_revert(f)
        return
    g = series_revert(f)
    assert series_compose(f, g) == PowerSeries.identity(8)
    assert series_revert(g) == f


@settings(max_examples=60, deadline=None)
@given(series(8, root=True))
def test_revert_matches_newton(f):
    assume(f.coefficient(1) != 0)
    assert series_revert(f) == newton_revert(f)


@settings(max_examples=40, deadline=None)
@given(series(7, unit=True), st.integers(-5, 5), st.integers(1, 3))
def test_binomial_pow_consistency(f, p, q):
    h = series_binomial_pow(f, Fraction(p, q))
    if p >= 0:
        assert h**q == f**p
    else:
        assert series_mul(h**q, f ** (-p)) == PowerSeries.one(7)


@settings(max_examples=40, deadline=None)
@given(series(6, unit=True))
def test_division_inverts_mul(f):
    g = PowerSeries.one(6) / f
    assert series_mul(f, g) == PowerSeries.one(6)


# -- delta operator --------------------------------------------------


def poly_strategy():
    term = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return st.dictionaries(term, st.integers(-5, 5), max_size=5).map(BivariatePoly)


def delta_apply_dict(p, rule):
    """The delta step monomial by monomial over an exponent-keyed dict:
    the oracle for the row-wise step."""
    a, b, s = rule.a, rule.b, rule.s
    out: dict = {}
    for (pe, qe), c in p.terms.items():
        if pe:
            np_, nq = pe - a, qe + s + a
            if np_ < 0 or nq < 0:
                raise InvalidUrnStateError(
                    f"delta on x^{pe} y^{qe} gives exponent pair ({np_}, {nq})"
                )
            out[(np_, nq)] = out.get((np_, nq), 0) + c * pe
        if qe:
            np_, nq = pe + s + b, qe - b
            if np_ < 0 or nq < 0:
                raise InvalidUrnStateError(
                    f"delta on x^{pe} y^{qe} gives exponent pair ({np_}, {nq})"
                )
            out[(np_, nq)] = out.get((np_, nq), 0) + c * qe
    return BivariatePoly(out)


# x^3 - y^3 and x^6 - y^6 are first integrals of the M12 and T23 flows, so
# delta sends them to zero and their multiples make terms cancel.
INVARIANTS = (
    (RULE_M12, BivariatePoly({(3, 0): 1, (0, 3): -1})),
    (RULE_T23, BivariatePoly({(6, 0): 1, (0, 6): -1})),
)


def test_delta_basic_values():
    x = BivariatePoly.monomial(1, 1, 0)
    xy2 = BivariatePoly.monomial(1, 1, 2)
    assert delta_apply(x, RULE_M12) == BivariatePoly.monomial(1, 0, 2)
    assert delta_apply(xy2, RULE_M12) == BivariatePoly(
        {(0, 4): 1, (3, 1): 2}
    )
    assert delta_apply(BivariatePoly.monomial(1, 0, 0), RULE_M12).is_zero()


def test_delta_t23_square():
    x2 = BivariatePoly.monomial(1, 2, 0)
    assert delta_apply(x2, RULE_T23) == BivariatePoly.monomial(2, 0, 3)


def test_delta_invalid_state():
    x = BivariatePoly.monomial(1, 1, 0)
    with pytest.raises(InvalidUrnStateError):
        delta_apply(x, RULE_T23)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), st.integers(-4, 4))
def test_delta_linear(p, q, c):
    try:
        lhs = delta_apply(p + q.scale(c), RULE_M12)
    except InvalidUrnStateError:
        return
    rhs = delta_apply(p, RULE_M12) + delta_apply(q, RULE_M12).scale(c)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
def test_delta_leibniz_on_monomials(p1, q1, p2, q2):
    # delta(fg) = delta(f) g + f delta(g), checked on monomial pairs, which
    # extends to everything by linearity.
    def mono_mul(a, b):
        out: dict = {}
        for (pa, qa), ca in a.terms.items():
            for (pb, qb), cb in b.terms.items():
                k = (pa + pb, qa + qb)
                out[k] = out.get(k, 0) + ca * cb
        return BivariatePoly(out)

    f = BivariatePoly.monomial(2, p1, q1)
    g = BivariatePoly.monomial(3, p2, q2)
    lhs = delta_apply(mono_mul(f, g), RULE_M12)
    rhs = mono_mul(delta_apply(f, RULE_M12), g) + mono_mul(f, delta_apply(g, RULE_M12))
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), st.integers(-3, 3), max_size=8
    ).map(BivariatePoly),
    st.integers(-2, 2),
    st.sampled_from(INVARIANTS),
)
def test_delta_rows_match_dict_oracle(p, k, rule_and_invariant):
    # Mixed degrees, and (through the invariant) terms that cancel in the
    # image; a polynomial that leaves the state space must raise on both.
    rule, invariant = rule_and_invariant
    p = p + invariant.scale(k)
    try:
        want = delta_apply_dict(p, rule)
    except InvalidUrnStateError:
        with pytest.raises(InvalidUrnStateError):
            delta_apply(p, rule)
        return
    assert delta_apply(p, rule) == want


def test_delta_kills_the_invariants():
    for rule, invariant in INVARIANTS:
        assert delta_apply_dict(invariant, rule).is_zero()
        assert delta_apply(invariant, rule).is_zero()


@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (1, 1), (1, 2), (3, 2), (0, 2)])
def test_delta_dead_state_messages_match_oracle(p, q):
    mono = BivariatePoly.monomial(1, p, q)
    with pytest.raises(InvalidUrnStateError) as want:
        delta_apply_dict(mono, RULE_T23)
    with pytest.raises(InvalidUrnStateError) as got:
        delta_apply(mono, RULE_T23)
    assert str(got.value) == str(want.value)
