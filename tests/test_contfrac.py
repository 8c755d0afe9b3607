import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixonian.contfrac import (
    J_FAMILIES,
    J_WINDOW_OFFSET,
    S_FAMILIES,
    S_TRIPLE_OFFSET,
    RationalFunction,
    contract_s_to_j,
    conrad_j_reference,
    conrad_s_reference,
    convergent_j,
    convergent_s,
    doubled_sequence,
    family_ogf,
    jfraction_extract,
    jfraction_to_series,
    meixner_denominator,
    scd_transforms,
    sfraction_extract,
    sfraction_to_series,
    snake_width_gf,
    valent_ops,
    verify_conrad,
)
from dixonian.core import PowerSeries, series_mul
from dixonian.functions import dixon_series


def laplace_shifted(f: PowerSeries) -> PowerSeries:
    """Shifted Borel-Laplace transfer: [x^(m+1)] result = m! [z^m] f.

    This is the index convention under which the fraction prefactors come
    out as coeff * x^power; the library reads the same integers straight
    off its EGF tables.
    """
    return PowerSeries(
        [0, *(c * math.factorial(m) for m, c in enumerate(f.coeffs))], f.order + 1
    )

# -- reference extractions on classical series -------------------------


def test_factorial_series_jfraction():
    f = PowerSeries([math.factorial(n) for n in range(11)], 10)
    j = jfraction_extract(f, 5)
    assert list(j.cs) == [1, 3, 5, 7, 9]
    assert list(j.as_) == [1, 4, 9, 16]


def test_shifted_factorial_series_jfraction():
    f = PowerSeries([math.factorial(n + 1) for n in range(9)], 8)
    j = jfraction_extract(f, 4)
    assert list(j.cs) == [2, 4, 6, 8]
    assert list(j.as_) == [2, 6, 12]


TANGENT = [1, 2, 16, 272, 7936, 353792, 22368256]
SECANT = [1, 1, 5, 61, 1385, 50521]


def test_tangent_series_jfraction():
    f = PowerSeries(TANGENT, 6)
    inv = PowerSeries.one(6) / f
    assert [inv.coefficient(k) for k in range(4)] == [1, -2, -12, -216]
    j = jfraction_extract(f, 3)
    assert list(j.cs) == [2, 18, 50]
    assert j.as_[0] == 12


def test_secant_series_sfraction_and_contraction():
    f = PowerSeries(SECANT, 5)
    s = sfraction_extract(f, 4)
    assert list(s.ds) == [-1, -4, -9, -16]
    cs, as_ = contract_s_to_j(s.ds)
    assert cs[0] == 1 and cs[1] == 13
    assert as_[0] == 4


# -- the six J-families and three S-families ---------------------------


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_j_family_tables(family):
    report = verify_conrad("j", family, 8)
    assert report.ok, report.first_message()


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_s_family_tables(family):
    report = verify_conrad("s", family, 16)
    assert report.ok, report.first_message()


def test_fault_injection_is_detected():
    assert not verify_conrad("j", "sm", 3, inject_fault=True).ok
    assert not verify_conrad("s", "cm", 5, inject_fault=True).ok


def test_sm_extraction_leading_values():
    series = family_ogf("sm", 6)
    j = jfraction_extract(series, 2)
    assert j.cs[0] == -4
    assert j.as_[0] == 144
    assert j.cs[1] == -136


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_contraction_links_s_to_j(family):
    ds = conrad_s_reference(family, 16).ds
    cs, as_ = contract_s_to_j(ds)
    # 16 partial denominators contract to eight (c, a) pairs.
    ref = conrad_j_reference(family, 8)
    assert cs == list(ref.cs)[:8]
    assert as_ == list(ref.as_)[:8]


def test_builder_reproduces_family_series():
    ref = conrad_j_reference("sm", 8)
    built = jfraction_to_series(ref.cs, ref.as_, 17)
    assert built == family_ogf("sm", 17)


def test_family_prefactor_indexing():
    # The reduced series really does sit behind coeff * x^power in the
    # full shifted transfer of the underlying product.
    pair = dixon_series(60)
    full = laplace_shifted(series_mul(pair.sm, pair.sm))
    g = family_ogf("sm2", 10)
    for m in range(11):
        assert full.coefficient(3 * m + 3) == 2 * g.coefficient(m)


# -- doubled-integer structure ------------------------------------------


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_j_coefficients_tile_doubled_integers(family):
    _, a_fn, _ = J_FAMILIES[family]
    off = J_WINDOW_OFFSET[family]
    d = doubled_sequence(off + 6 * 8 + 6)
    for n in range(1, 9):
        window = d[off + 6 * (n - 1) : off + 6 * n]
        assert math.prod(window) == a_fn(n)


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_s_coefficients_tile_doubled_integers(family):
    _, d_fn = S_FAMILIES[family]
    off = S_TRIPLE_OFFSET[family]
    d = doubled_sequence(off + 3 * 16 + 3)
    for k in range(1, 17):
        window = d[off + 3 * (k - 1) : off + 3 * k]
        assert math.prod(window) == d_fn(k)


# -- round-trip properties -----------------------------------------------

small_nonzero = st.integers(-6, 6).filter(lambda x: x != 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4), st.data())
def test_jfraction_roundtrip(cs, data):
    as_ = data.draw(
        st.lists(small_nonzero, min_size=len(cs) - 1, max_size=len(cs) - 1)
    )
    series = jfraction_to_series(cs, as_, 2 * len(cs) + 2)
    j = jfraction_extract(series, len(cs))
    assert list(j.cs) == cs
    assert list(j.as_) == as_


@settings(max_examples=40, deadline=None)
@given(st.lists(small_nonzero, min_size=1, max_size=6))
def test_sfraction_roundtrip(ds):
    series = sfraction_to_series(ds, len(ds) + 2)
    s = sfraction_extract(series, len(ds))
    assert list(s.ds) == ds


@settings(max_examples=30, deadline=None)
@given(st.lists(small_nonzero, min_size=2, max_size=6))
def test_contraction_matches_series(ds):
    # The contracted J-fraction must expand to the same series.
    order = len(ds) + 2
    s_series = sfraction_to_series(ds, order)
    cs, as_ = contract_s_to_j(ds)
    j_series = jfraction_to_series(cs, as_, order)
    k = min(2 * len(cs) - 1, order, len(ds))
    for m in range(k + 1):
        assert s_series.coefficient(m) == j_series.coefficient(m)


# -- convergents ---------------------------------------------------------


def test_depth_one_cm_convergent():
    ref = conrad_j_reference("cm", 0)
    conv = convergent_j(ref.cs, ref.as_, 1)
    assert conv == RationalFunction(num=(Fraction(1),), den=(Fraction(1), Fraction(2)))


def test_snake_width_list():
    expected = [
        ((1,), (1,)),
        ((1,), (1, 0, -1)),
        ((1, 0, -4), (1, 0, -5)),
        ((1, 0, -13), (1, 0, -14, 0, 9)),
    ]
    for h, (num, den) in enumerate(expected, start=1):
        w = snake_width_gf(h)
        assert tuple(w.num) == tuple(Fraction(c) for c in num)
        assert tuple(w.den) == tuple(Fraction(c) for c in den)


def test_snake_width_series_prefix():
    # The depth-(h-1) convergent agrees with the secant numbers through
    # index h-1 in w = z^2.
    for h in range(2, 7):
        series = snake_width_gf(h).to_series(2 * (h - 1))
        for m in range(h):
            expected = SECANT[m] if m <= h - 1 else None
            if expected is not None:
                assert series.coefficient(2 * m) == expected, (h, m)


def test_meixner_denominators_match_snake_widths():
    for h in range(1, 7):
        w = snake_width_gf(h)
        den = list(w.den)
        while len(den) > 1 and den[-1] == 0:
            den.pop()
        assert tuple(den) == meixner_denominator(h), f"h = {h}"


# -- orthogonal polynomial sequence ---------------------------------------


VALENT_PRINTED = [
    [1],
    [2, 1],
    [160, 100, 1],
    [62720, 42960, 672, 1],
    [68992000, 49755200, 963600, 2420, 1],
]


def test_valent_recurrence_matches_printed_table():
    polys = valent_ops(4, route="recurrence")
    assert [[int(c) for c in p] for p in polys] == VALENT_PRINTED


def test_valent_gf_route_agrees():
    rec = valent_ops(6, route="recurrence")
    gf = valent_ops(6, route="gf")
    assert rec == gf


# -- transfer ladder S/C/D ------------------------------------------------


@pytest.fixture(scope="module")
def ladder():
    return scd_transforms(10, 60)


def x_mono(order=60):
    return PowerSeries.monomial(1, 1, order)


def x3_mono(order=60):
    return PowerSeries.monomial(1, 3, order)


def test_ladder_base_cases(ladder):
    S, C, D = ladder["S"], ladder["C"], ladder["D"]
    x = x_mono()
    assert S[0] == x
    assert C[0] == x - series_mul(x, S[2])
    assert D[0] == x - 2 * series_mul(x, C[2])


def test_ladder_recurrences(ladder):
    S, C, D = ladder["S"], ladder["C"], ladder["D"]
    x = x_mono()
    for n in range(1, 7):
        assert S[n] == n * series_mul(x, D[n - 1]), f"S recurrence at {n}"
        assert C[n] == n * series_mul(x, S[n - 1]) - (n + 1) * series_mul(
            x, S[n + 2]
        ), f"C recurrence at {n}"
        assert D[n] == n * series_mul(x, C[n - 1]) - (n + 2) * series_mul(
            x, C[n + 2]
        ), f"D recurrence at {n}"


def test_ladder_d_collapses_to_s(ladder):
    S, D = ladder["S"], ladder["D"]
    x = x_mono()
    for n in range(0, 10):
        assert (n + 1) * series_mul(x, D[n]) == S[n + 1]


def test_unified_s_relation(ladder):
    # Unrolling S_n = n x D_{n-1} twice closes the ladder on itself.  For
    # n <= 2 the chain bottoms out on the seed transforms instead of
    # S_{n-3}, leaving the inhomogeneous term n! x^(n+1).
    S = ladder["S"]
    x3 = x3_mono()
    one = PowerSeries.one(60)
    for n in range(1, 7):
        lhs = series_mul(S[n], one + 2 * n * (n * n + 1) * x3) - n * (n + 1) * (
            n + 2
        ) * series_mul(x3, S[n + 3])
        if n >= 3:
            rhs = n * (n - 1) * (n - 2) * series_mul(x3, S[n - 3])
        else:
            rhs = PowerSeries.monomial(math.factorial(n), n + 1, 60)
        assert lhs == rhs, f"S relation at {n}"


def test_unified_c_relation(ladder):
    C = ladder["C"]
    x3 = x3_mono()
    one = PowerSeries.one(60)
    for n in range(0, 7):
        beta = (n - 1) * n * n + (n + 1) ** 2 * (n + 2)
        lhs = series_mul(C[n], one + beta * x3) - (n + 1) * (n + 2) * (
            n + 3
        ) * series_mul(x3, C[n + 3])
        if n >= 3:
            rhs = n * (n - 1) * (n - 2) * series_mul(x3, C[n - 3])
        else:
            rhs = PowerSeries.monomial(math.factorial(n), n + 1, 60)
        assert lhs == rhs, f"C relation at {n}"
