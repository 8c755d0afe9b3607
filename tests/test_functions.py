import copy
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import dixonian
from dixonian.core import PowerSeries, series_derive, series_integrate, series_mul
from dixonian.functions import (
    _convolve,
    dixon_egf_integers,
    dixon_egf_product,
    dixon_egf_table,
    dixon_series,
    dumont_R,
    hyp2f1_series,
    sm_via_hypergeometric,
    weierstrass_P,
    weierstrass_P_via_hypergeometric,
)
from dixonian.permutations import andre_polynomials
from dixonian.urn import M12, history_count_table, history_polynomials
from test_contfrac import laplace_shifted

# Frozen reference values.  Derived once from the defining system by hand
# (coefficient recurrence on paper) before any code existed, then locked.
SM_TABLE = {
    1: Fraction(1),
    4: Fraction(-1, 6),
    7: Fraction(2, 63),
    10: Fraction(-13, 2268),
    13: Fraction(23, 22113),
}
CM_TABLE = {
    0: Fraction(1),
    3: Fraction(-1, 3),
    6: Fraction(1, 18),
    9: Fraction(-23, 2268),
    12: Fraction(25, 13608),
}
SM_EGF = {1: 1, 4: -4, 7: 160, 10: -20800, 13: 6476800}
# The n = 12 entry is sometimes mistyped as 8880000 in circulating tables;
# Picard, the EGF recurrence, and the hypergeometric reversion all agree on
# 880000, so that is what this suite pins.
CM_EGF = {0: 1, 3: -2, 6: 40, 9: -3680, 12: 880000}


@pytest.fixture(scope="module")
def pair():
    return dixon_series(60)


def test_taylor_tables(pair):
    for n, c in SM_TABLE.items():
        assert pair.sm.coefficient(n) == c
    for n, c in CM_TABLE.items():
        assert pair.cm.coefficient(n) == c


def test_egf_tables(pair):
    for n, v in SM_EGF.items():
        assert pair.sm.egf_coefficient(n) == v
    for n, v in CM_EGF.items():
        assert pair.cm.egf_coefficient(n) == v


def test_support_patterns(pair):
    for n in range(61):
        if n % 3 != 1:
            assert pair.sm.coefficient(n) == 0
        if n % 3 != 0:
            assert pair.cm.coefficient(n) == 0


def test_fermat_identity(pair):
    cubes = pair.sm**3 + pair.cm**3
    assert cubes == PowerSeries.one(60)


def test_hyperbolic_signs(pair):
    assert all(c >= 0 for c in pair.smh.coeffs)
    assert all(c >= 0 for c in pair.cmh.coeffs)
    assert pair.smh.coefficient(4) == Fraction(1, 6)
    assert pair.cmh.coefficient(3) == Fraction(1, 3)


def test_hyperbolic_quotients(pair):
    # smh = sm/cm and cmh = 1/cm hold exactly, coefficient by coefficient.
    assert pair.smh == pair.sm / pair.cm
    assert pair.cmh == PowerSeries.one(60) / pair.cm


def picard(order):
    """Oracle for the EGF recurrence: Picard iteration over Fraction.

    Each round substitutes the current pair into sm = int cm^2 and
    cm = 1 - int sm^2.  Feeding the refreshed sm straight into the cm
    update extends the agreement with the true solution by three orders
    per round, so order // 3 + 2 rounds suffice; one more round must then
    be a fixed point.
    """
    sm = PowerSeries.zero(order)
    cm = PowerSeries.one(order)
    for _ in range(order // 3 + 2):
        sm = series_integrate(series_mul(cm, cm)).truncate(order)
        cm = PowerSeries.one(order) - series_integrate(series_mul(sm, sm)).truncate(order)
    assert series_integrate(series_mul(cm, cm)).truncate(order) == sm
    assert PowerSeries.one(order) - series_integrate(series_mul(sm, sm)).truncate(order) == cm
    return sm, cm


def test_egf_integer_recurrence_matches_picard():
    for order in (60, 90):
        sm, cm = picard(order)
        pair = dixon_series(order)
        assert (pair.sm, pair.cm) == (sm, cm)
        a, b = dixon_egf_integers(order)
        for n in range(order + 1):
            assert sm.egf_coefficient(n) == a[n]
            assert cm.egf_coefficient(n) == b[n]


@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (4, 2)])
def test_egf_product_matches_cauchy_product(pair, p, q):
    # Binomial convolution of integer tables against the Fraction product.
    prod = pair.sm**p * pair.cm**q
    assert dixon_egf_product(p, q, 60) == [prod.egf_coefficient(n) for n in range(61)]


@pytest.mark.parametrize("name, p, q", [("sm2", 2, 0), ("sm3", 3, 0), ("smcm", 1, 1), ("sm2cm", 2, 1)])
def test_dixon_identities_match_the_convolution(name, p, q):
    # The named tables are shifts of sm, cm and u = sm cm (u'' = -6 u^2)
    # by Dixon's system; the binomial convolution is their oracle.
    assert dixon_egf_table(name, 300) == dixon_egf_product(p, q, 300)


def test_P_is_minus_u_at_minus_z():
    # P = smh cmh, by the convolution of the hyperbolic tables, and
    # -u(-z) with u = sm cm by the convolution of sm and cm.
    n_max = 300
    smh, cmh = dixon_egf_table("smh", n_max), dixon_egf_table("cmh", n_max)
    product = _convolve(smh, 1, cmh, 0, n_max)
    u = dixon_egf_product(1, 1, n_max)
    assert dixon_egf_table("P", n_max) == product == [-((-1) ** n) * c for n, c in enumerate(u)]


@pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-2, 3)])
def test_egf_product_refuses_negative_powers(p, q):
    with pytest.raises(ValueError, match="p, q >= 0"):
        dixon_egf_product(p, q, 10)


def test_egf_table_names_the_valid_tables():
    with pytest.raises(ValueError, match="sm, cm, sm2, sm3, smcm, sm2cm, smh, cmh, P"):
        dixon_egf_table("sm4", 10)


_THREADED_BUILD = """
import hashlib, sys, threading
from dixonian.functions import dixon_egf_integers, dixon_egf_table
from dixonian.permutations import andre_polynomials
from dixonian.urn import M12, history_polynomials
sys.setswitchinterval(1e-5)
barrier = threading.Barrier(4)
results = [None] * 4
def ask(i):
    barrier.wait()
    results[i] = (dixon_egf_integers(600), dixon_egf_table("P", 600),
                  history_polynomials(M12, 1, 0, 160), andre_polynomials(80))
threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
    assert not t.is_alive()
results.append((dixon_egf_integers(600), dixon_egf_table("P", 600),
                history_polynomials(M12, 1, 0, 160), andre_polynomials(80)))
for r in results:
    print(*(hashlib.sha256(repr(part).encode()).hexdigest() for part in r))
"""


def test_egf_tables_are_thread_safe():
    # Four threads grow cold caches at once, in a fresh interpreter: the EGF
    # tables of sm, cm and u = sm cm, the urn rows from x and the André rows.  Each of them, and a
    # later call, must see the single-threaded tables.
    src = os.path.dirname(os.path.dirname(dixonian.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _THREADED_BUILD],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    expected = [
        hashlib.sha256(repr(part).encode()).hexdigest()
        for part in (dixon_egf_integers(600), dixon_egf_table("P", 600),
                     history_polynomials(M12, 1, 0, 160), andre_polynomials(80))
    ]
    assert out == expected * 5


def test_results_are_fresh_containers():
    # The tables behind these calls are shared; what a call returns is not,
    # so changing it leaves every later result alone.
    calls = [
        lambda: history_polynomials(M12, 1, 0, 12),
        lambda: history_count_table(M12, 0, 1, 12),
        lambda: andre_polynomials(12),
        lambda: dixon_egf_table("smh", 40),
    ]
    for call in calls:
        first, want = call(), copy.deepcopy(call())
        for entry in first[1:]:
            if isinstance(entry, list):
                entry.append(-1)
                entry[0] += 1
            elif isinstance(entry, dict):
                entry[0] = entry.get(0, 0) + 1
        first.append(first[0])
        first[0] = None
        assert call() == want


def test_hypergeometric_route():
    sm = sm_via_hypergeometric(120)
    assert sm == dixon_series(120).sm


def test_hypergeometric_route_every_order():
    sm = dixon_series(120).sm
    for order in range(24, 120):
        assert sm_via_hypergeometric(order) == sm.truncate(order)


def test_hyp2f1_geometric_special_case():
    # 2F1(1, b; b; x) is the geometric series.
    F = hyp2f1_series(Fraction(1), Fraction(5, 7), Fraction(5, 7), 8)
    assert F == PowerSeries([1] * 9, 8)


def test_laplace_exponential():
    # The shifted transfer of exp(z) = sum z^n/n! is x/(1 - x).
    exp = PowerSeries([Fraction(1, math.factorial(n)) for n in range(9)], 8)
    assert laplace_shifted(exp) == PowerSeries([0] + [1] * 9, 9)


def test_weierstrass_product_and_odes(pair):
    P = weierstrass_P(60)
    assert P == series_mul(pair.smh, pair.cmh)
    Pp = series_derive(P)
    lhs = series_mul(Pp, Pp)
    rhs = (P**3) * 4 + 1
    assert lhs == rhs.truncate(59)
    Ppp = series_derive(Pp)
    assert Ppp == ((P**2) * 6).truncate(58)
    assert Pp == (pair.smh**3 * 2 + 1).truncate(59)


def test_weierstrass_hypergeometric_route():
    assert weierstrass_P_via_hypergeometric(90) == weierstrass_P(90)


def test_dumont_ratio():
    R = dumont_R(60)
    assert R.coefficient(2) == 1
    assert R.coefficient(8) == Fraction(-1, 756)
    Rp = series_derive(R)
    lhs = series_mul(Rp, Rp)
    rhs = R * 4 - (R**4) / 27
    assert lhs == rhs.truncate(58)
