from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dixonian.core import (
    GrowingTable,
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


def monomial(c, p, q):
    """c x^p y^q as a row."""
    row = [0] * (p + q + 1)
    row[p] = c
    return row


def row_terms(row):
    """A row of degree D as the exponent-keyed dict {(j, D - j): c}."""
    d = len(row) - 1
    return {(j, d - j): c for j, c in enumerate(row) if c}


def rows_by_degree(terms):
    """A dict of mixed degrees split into one row per degree."""
    rows: dict = {}
    for (pe, qe), c in terms.items():
        rows.setdefault(pe + qe, [0] * (pe + qe + 1))[pe] += c
    return rows


def delta_apply_dict(terms, rule):
    """The delta step monomial by monomial over an exponent-keyed dict, of
    any mix of degrees: the oracle for the row-wise step."""
    a, b, s = rule.a, rule.b, rule.s
    out: dict = {}
    for (pe, qe), c in terms.items():
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
    return {k: c for k, c in out.items() if c}


def rows(degree, coeffs=st.integers(-5, 5)):
    """Rows of one degree, drawn by hypothesis."""
    return st.lists(coeffs, min_size=degree + 1, max_size=degree + 1)


# x^3 - y^3 and x^6 - y^6 are first integrals of the M12 and T23 flows, so
# delta sends them to zero and their multiples make terms cancel.
INVARIANTS = (
    (RULE_M12, [-1, 0, 0, 1]),
    (RULE_T23, [-1, 0, 0, 0, 0, 0, 1]),
)


def row_mul(f, g):
    """The product of two homogeneous polynomials, held as rows."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_delta_basic_values():
    assert delta_apply(monomial(1, 1, 0), RULE_M12) == monomial(1, 0, 2)
    assert delta_apply(monomial(1, 1, 2), RULE_M12) == [1, 0, 0, 2, 0]
    assert delta_apply([1], RULE_M12) == [0, 0]


def test_delta_t23_square():
    assert delta_apply(monomial(1, 2, 0), RULE_T23) == monomial(2, 0, 3)


def test_delta_invalid_state():
    with pytest.raises(InvalidUrnStateError):
        delta_apply(monomial(1, 1, 0), RULE_T23)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(lambda d: st.tuples(rows(d), rows(d))), st.integers(-4, 4))
def test_delta_linear(pq, c):
    p, q = pq
    lhs = delta_apply([a + c * b for a, b in zip(p, q)], RULE_M12)
    rhs = [a + c * b for a, b in zip(delta_apply(p, RULE_M12), delta_apply(q, RULE_M12))]
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
def test_delta_leibniz_on_monomials(p1, q1, p2, q2):
    # delta(fg) = delta(f) g + f delta(g), checked on monomial pairs, which
    # extends to everything by linearity.
    f = monomial(2, p1, q1)
    g = monomial(3, p2, q2)
    lhs = delta_apply(row_mul(f, g), RULE_M12)
    rhs = map(sum, zip(
        row_mul(delta_apply(f, RULE_M12), g), row_mul(f, delta_apply(g, RULE_M12))
    ))
    assert lhs == list(rhs)


@st.composite
def rows_with_invariant(draw):
    """A rule and a row of degree 0-8; from the invariant's degree up, the
    row carries a monomial multiple of the invariant, whose image cancels
    in part."""
    rule, invariant = draw(st.sampled_from(INVARIANTS))
    d = draw(st.integers(0, 8))
    row = draw(rows(d, st.integers(-3, 3)))
    top = d - (len(invariant) - 1)
    if top >= 0:
        i = draw(st.integers(0, top))
        cofactor = monomial(draw(st.integers(-2, 2)), i, top - i)
        row = [a + b for a, b in zip(row, row_mul(cofactor, invariant))]
    return rule, row


@settings(max_examples=150, deadline=None)
@given(rows_with_invariant())
def test_delta_rows_match_dict_oracle(rule_and_row):
    # A row that leaves the state space must raise on both sides.
    rule, row = rule_and_row
    try:
        want = delta_apply_dict(row_terms(row), rule)
    except InvalidUrnStateError:
        with pytest.raises(InvalidUrnStateError):
            delta_apply(row, rule)
        return
    assert row_terms(delta_apply(row, rule)) == want


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.integers(-3, 3).filter(bool),
        max_size=8,
    ),
    st.sampled_from((RULE_M12, RULE_T23)),
)
def test_delta_steps_each_degree_of_a_mixed_dict(terms, rule):
    # delta keeps degrees apart, so the oracle on a mixed dict is the
    # union of the row steps of its homogeneous parts.
    try:
        want = delta_apply_dict(terms, rule)
    except InvalidUrnStateError:
        with pytest.raises(InvalidUrnStateError):
            for row in rows_by_degree(terms).values():
                delta_apply(row, rule)
        return
    got: dict = {}
    for row in rows_by_degree(terms).values():
        got.update(row_terms(delta_apply(row, rule)))
    assert got == want


def test_delta_kills_the_invariants():
    for rule, invariant in INVARIANTS:
        assert delta_apply_dict(row_terms(invariant), rule) == {}
        assert not any(delta_apply(invariant, rule))


@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (1, 1), (1, 2), (3, 2), (0, 2)])
def test_delta_dead_state_messages_match_oracle(p, q):
    with pytest.raises(InvalidUrnStateError) as want:
        delta_apply_dict({(p, q): 1}, RULE_T23)
    with pytest.raises(InvalidUrnStateError) as got:
        delta_apply(monomial(1, p, q), RULE_T23)
    assert str(got.value) == str(want.value)


# -- grown tables ------------------------------------------------------


def test_growing_table_steps_each_entry_once_and_stops_at_the_cap():
    steps = []

    def step(squares, roots):
        steps.append(len(roots))
        roots.append(len(roots))
        squares.append(roots[-1] ** 2)

    table = GrowingTable(step, [0], [0], cap=6)
    assert table.columns(3) == ((0, 1, 4, 9), (0, 1, 2, 3))
    assert table.columns(2) == table.columns(3)
    assert steps == [1, 2, 3]
    # Past the cap the walk goes on from the stored entries in private lists.
    squares, roots = table.columns(9)
    assert (squares, roots) == ([n * n for n in range(10)], list(range(10)))
    assert len(table) == 6
    assert table.columns(9) == [squares, roots]
    assert steps == [1, 2, 3, 4, 5] + [6, 7, 8, 9] * 2


def test_growing_table_keeps_its_entries_when_a_step_raises():
    def step(rows):
        if len(rows) == 3:
            raise InvalidUrnStateError("no third step")
        rows.append(rows[-1] + 1)

    table = GrowingTable(step, [0])
    assert table.columns(1) == ((0, 1),)
    for _ in range(2):
        with pytest.raises(InvalidUrnStateError):
            table.columns(5)
        assert len(table) == 2
    assert table.columns(2) == ((0, 1, 2),)
