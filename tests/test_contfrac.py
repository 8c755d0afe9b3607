import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dixonian.contfrac import (
    J_FAMILIES,
    J_WINDOW_OFFSET,
    S_FAMILIES,
    S_TRIPLE_OFFSET,
    JFraction,
    RationalFunction,
    SFraction,
    _chebyshev,
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
    motzkin_rows,
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

    This is the index convention under which the fraction prefactor of
    sm^p cm^q comes out as p! x^(p+1); the library reads the same integers
    straight off its EGF tables.
    """
    return PowerSeries(
        [0, *(c * math.factorial(m) for m, c in enumerate(f.coeffs))], f.order + 1
    )


# -- oracles: peeling and nested division -------------------------------
# The library reads coefficients off the moments by the Chebyshev
# algorithm and expands fractions as weighted Motzkin path sums.  These
# are the textbook series routes, kept as references at small depth.


def peel_jfraction(series: PowerSeries, depth: int) -> JFraction:
    """Invert the current tail, read c off the linear term, and divide
    the remainder by a w^2 to expose the next tail; stop at a(n) = 0."""
    cs: list[Fraction] = []
    as_: list[Fraction] = []
    f = series
    for level in range(depth):
        h = PowerSeries.one(f.order) / f
        c = -h.coefficient(1)
        cs.append(c)
        if level == depth - 1:
            break
        r = PowerSeries.one(f.order) - PowerSeries.monomial(c, 1, f.order) - h
        assert r.coefficient(0) == 0 and r.coefficient(1) == 0
        a = r.coefficient(2)
        if a == 0:
            break
        as_.append(a)
        f = PowerSeries(r.coeffs[2:], f.order - 2) / a
    return JFraction(cs=tuple(cs), as_=tuple(as_))


def peel_sfraction(series: PowerSeries, depth: int) -> SFraction:
    """Peel d1..d(depth) off a series, plus convention; stop at d = 0."""
    ds: list[Fraction] = []
    g = series
    for _ in range(depth):
        h = PowerSeries.one(g.order) / g
        d = h.coefficient(1)
        if d == 0:
            break
        ds.append(d)
        g = PowerSeries((h - PowerSeries.one(h.order)).coeffs[1:], h.order - 1) / d
    return SFraction(ds=tuple(ds))


def chebyshev_fraction(moments, top: int):
    """Oracle for the narrowed kernel: the Chebyshev algorithm with every
    moment, mixed moment and coefficient a Fraction."""
    prev = [Fraction(0)] * (top + 1)
    row = [Fraction(m) for m in moments[: top + 1]]
    a = Fraction(0)
    shift = Fraction(0)
    k = 0
    while 2 * k + 1 <= top:
        c = row[k + 1] / row[k] - shift
        yield c
        if 2 * k + 2 > top:
            return
        nxt = [Fraction(0)] * (k + 1) + [
            row[l + 1] - c * row[l] - a * prev[l] for l in range(k + 1, top - k)
        ]
        a = nxt[k + 1] / row[k]
        if a == 0:
            return
        yield a
        shift = row[k + 1] / row[k]
        prev, row = row, nxt
        k += 1


def nested_jfraction_series(cs, as_, order: int) -> PowerSeries:
    """Expand a J-fraction by series division from the deepest level up."""
    tail = PowerSeries.one(order)
    for i in range(len(cs) - 1, -1, -1):
        body = PowerSeries.one(order) - PowerSeries.monomial(Fraction(cs[i]), 1, order)
        if i < len(as_):
            body = body - PowerSeries.monomial(Fraction(as_[i]), 2, order) * tail
        tail = PowerSeries.one(order) / body
    return tail


def nested_sfraction_series(ds, order: int) -> PowerSeries:
    g = PowerSeries.one(order)
    for d in reversed(list(ds)):
        g = PowerSeries.one(order) + PowerSeries.monomial(Fraction(d), 1, order) / g
    return PowerSeries.one(order) / g


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


def test_geometric_series_terminates():
    # 1/(1 - w) has c0 = 1 and a1 = 0; 1/(1 + w) has d1 = 1 and d2 = 0.
    ones = PowerSeries([1] * 9, 8)
    assert jfraction_extract(ones, 4) == JFraction(cs=(1,), as_=())
    assert peel_jfraction(ones, 4) == JFraction(cs=(1,), as_=())
    alternating = PowerSeries([(-1) ** n for n in range(9)], 8)
    assert sfraction_extract(alternating, 8) == SFraction(ds=(1,))
    assert peel_sfraction(alternating, 8) == SFraction(ds=(1,))


def test_extraction_rejects_bad_series():
    with pytest.raises(ValueError, match="^J-fraction extraction requires a series starting at 1$"):
        jfraction_extract(PowerSeries([2, 1, 1], 2), 1)
    with pytest.raises(ValueError, match="^depth 2 needs 5 coefficients, got 3$"):
        jfraction_extract(PowerSeries([1, 1, 1], 2), 2)
    with pytest.raises(ValueError, match="^S-fraction extraction requires a series starting at 1$"):
        sfraction_extract(PowerSeries([0, 1], 1), 1)
    with pytest.raises(ValueError, match="^depth 3 needs 4 coefficients$"):
        sfraction_extract(PowerSeries([1, 1, 1], 2), 3)


# -- the six J-families and three S-families ---------------------------


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_j_family_tables(family):
    report = verify_conrad("j", family, 8)
    assert report.ok, report.message


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_s_family_tables(family):
    report = verify_conrad("s", family, 16)
    assert report.ok, report.message


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_j_extraction_matches_peeling(family):
    for depth in range(1, 13):
        series = family_ogf(family, 2 * depth)
        assert jfraction_extract(series, depth) == peel_jfraction(series, depth)


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_s_extraction_matches_peeling(family):
    for depth in range(1, 25):
        series = family_ogf(family, depth)
        assert sfraction_extract(series, depth) == peel_sfraction(series, depth)


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_j_family_tables_deep(family):
    report = verify_conrad("j", family, 60)
    assert report.ok, report.message


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_s_family_tables_deep(family):
    report = verify_conrad("s", family, 120)
    assert report.ok, report.message


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_chebyshev_matches_fraction_kernel_j(family):
    moments = family_ogf(family, 80).coeffs
    values = list(_chebyshev(moments, 79))
    assert len(values) == 79
    assert values == list(chebyshev_fraction(moments, 79))
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_chebyshev_matches_fraction_kernel_s(family):
    moments = family_ogf(family, 60).coeffs
    values = list(_chebyshev(moments, 60))
    assert values == list(chebyshev_fraction(moments, 60))
    assert all(type(v) is int for v in values)
    ds = sfraction_extract(PowerSeries(moments, 60), 60).ds
    assert len(ds) == 60 and all(type(d) is int for d in ds)


def test_chebyshev_laguerre_moments_stay_ints():
    # n! are the Laguerre moments: c(n) = 2n + 1, a(n) = n^2.
    values = list(_chebyshev([math.factorial(n) for n in range(21)], 20))
    assert values[0::2] == [2 * n + 1 for n in range(10)]
    assert values[1::2] == [n * n for n in range(1, 11)]
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize(
    "moments",
    [
        [Fraction(1, n + 1) for n in range(21)],  # shifted Legendre: c(n) = 1/2
        [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],  # integer moments, rational values
        [Fraction(4), 2, Fraction(-6, 3), 8, 0, 16, Fraction(1, 2)],
    ],
)
def test_chebyshev_rational_values_stay_exact(moments):
    top = len(moments) - 1
    values = list(_chebyshev(moments, top))
    assert values == list(chebyshev_fraction(moments, top))
    assert any(type(v) is Fraction for v in values)
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1)


@pytest.mark.parametrize("kind, family, max_n, message", [
    ("j", "bogus", 4, "one of sm, sm2, sm3, cm, smcm, sm2cm$"),
    ("s", "sm2", 4, "one of sm, cm, smcm$"),
    ("j", "sm", -1, ">= 0"),
    ("s", "cm", 0, ">= 1"),
    ("t", "sm", 4, "kind"),
])
def test_verify_conrad_refuses_misuse(kind, family, max_n, message):
    # An unknown family or a depth that compares no coefficient is an
    # error, never a vacuous "all coefficients match".
    with pytest.raises(ValueError, match=message):
        verify_conrad(kind, family, max_n)


def test_verify_conrad_shallowest_depths_compare():
    assert verify_conrad("j", "sm", 0).ok and verify_conrad("s", "sm", 1).ok
    assert not verify_conrad("j", "sm", 0, inject_fault=True).ok
    assert not verify_conrad("s", "sm", 1, inject_fault=True).ok


def test_family_ogf_refuses_unknown_family():
    with pytest.raises(ValueError, match="one of sm, sm2, sm3, cm, smcm, sm2cm$"):
        family_ogf("sm4", 4)


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


@pytest.mark.parametrize(
    "family, p, q",
    [("sm", 1, 0), ("sm2", 2, 0), ("sm3", 3, 0), ("cm", 0, 1), ("smcm", 1, 1), ("sm2cm", 2, 1)],
)
def test_family_prefactor_indexing(family, p, q):
    # The reduced series really does sit behind p! x^(p+1) in the full
    # shifted transfer of sm^p cm^q, and nothing else is there.
    pair = dixon_series(40)
    product = PowerSeries.one(40)
    for factor in [pair.sm] * p + [pair.cm] * q:
        product = series_mul(product, factor)
    full = laplace_shifted(product)
    g = family_ogf(family, 10)
    for k in range(3 * 10 + p + 2):
        m, r = divmod(k - p - 1, 3)
        expected = math.factorial(p) * g.coefficient(m) if r == 0 and m >= 0 else 0
        assert full.coefficient(k) == expected, k


# -- doubled-integer structure ------------------------------------------


@pytest.mark.parametrize("family", sorted(J_FAMILIES))
def test_j_coefficients_tile_doubled_integers(family):
    a_fn, _ = J_FAMILIES[family]
    off = J_WINDOW_OFFSET[family]
    d = doubled_sequence(off + 6 * 8 + 6)
    for n in range(1, 9):
        window = d[off + 6 * (n - 1) : off + 6 * n]
        assert math.prod(window) == a_fn(n)


@pytest.mark.parametrize("family", sorted(S_FAMILIES))
def test_s_coefficients_tile_doubled_integers(family):
    d_fn = S_FAMILIES[family]
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
    order = 2 * len(cs) + 2
    series = jfraction_to_series(cs, as_, order)
    assert series == nested_jfraction_series(cs, as_, order)
    j = jfraction_extract(series, len(cs))
    assert list(j.cs) == cs
    assert list(j.as_) == as_
    assert j == peel_jfraction(series, len(cs))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_nonzero, min_size=1, max_size=6))
def test_sfraction_roundtrip(ds):
    order = len(ds) + 2
    series = sfraction_to_series(ds, order)
    assert series == nested_sfraction_series(ds, order)
    s = sfraction_extract(series, len(ds))
    assert list(s.ds) == ds
    assert s == peel_sfraction(series, len(ds))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=0, max_size=4),
    st.lists(st.integers(-6, 6), min_size=0, max_size=5),
    st.integers(2, 10),
)
@example([3, -1, 2], [2, 5, 4], 12)
def test_jfraction_to_series_matches_nested_division(cs, as_, order):
    # Any lengths: as_ as long as cs adds a level with c = 0, a shorter
    # as_ cuts the fraction at the first missing a(n).  The oracle needs
    # order >= 2 for its w^2 monomials.
    assert jfraction_to_series(cs, as_, order) == nested_jfraction_series(cs, as_, order)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=0, max_size=6))
def test_contraction_matches_series(ds):
    # The contracted J-fraction expands to the S-fraction's series, as
    # nested division computes it; with a zero appended it is exact.
    order = len(ds) + 2
    s_series = nested_sfraction_series(ds, order)
    assert sfraction_to_series(ds, order) == s_series
    cs, as_ = contract_s_to_j(ds)
    j_series = jfraction_to_series(cs, as_, order)
    k = min(2 * len(cs) - 1, order, len(ds))
    for m in range(k + 1):
        assert s_series.coefficient(m) == j_series.coefficient(m)


def brute_rows(up, level, down, steps):
    """Every step sequence of each length, walked one at a time: entry l
    of row n sums the weights of the length-n paths that end at l."""
    height = len(level) - 1
    rows = []
    for n in range(steps + 1):
        row = [0] * (min(n, height) + 1)
        for moves in itertools.product((-1, 0, 1), repeat=n):
            alt, weight = 0, 1
            for move in moves:
                if move == 1:
                    if alt == height:
                        break
                    weight *= up[alt]
                elif move == -1:
                    if alt == 0:
                        break
                    weight *= down[alt - 1]
                else:
                    weight *= level[alt]
                alt += move
            else:
                row[alt] += weight
        rows.append(row)
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 6), st.data())
def test_motzkin_rows_match_path_enumeration(height, steps, data):
    weights = st.lists(st.integers(-5, 5), min_size=height, max_size=height)
    up = data.draw(weights)
    down = data.draw(weights)
    level = data.draw(st.lists(st.integers(-5, 5), min_size=height + 1, max_size=height + 1))
    assert list(motzkin_rows(up, level, down, steps)) == brute_rows(up, level, down, steps)


# -- exact number types ----------------------------------------------------


@pytest.mark.parametrize("scale", [1, Fraction(2, 3)])
def test_fraction_layer_keeps_ints_and_fractions(scale):
    # integer input stays int all the way through; rational input gives
    # ints and Fractions; nothing is ever a float
    cs = [scale * c for c in (2, -3, 5)]
    as_ = [scale * a for a in (4, -1)]
    ds = [scale * d for d in (1, -2, 3, 7)]
    conv_j = convergent_j(cs, as_, 3)
    conv_s = convergent_s(ds, 4)
    values = [*conv_j.num, *conv_j.den, *conv_s.num, *conv_s.den]
    for part in contract_s_to_j(ds):
        values += part
    kinds = (int,) if scale == 1 else (int, Fraction)
    assert values and all(type(v) in kinds for v in values)


def test_references_valent_and_widths_are_ints():
    values = []
    for family in J_FAMILIES:
        ref = conrad_j_reference(family, 6)
        values += [*ref.cs, *ref.as_]
    for family in S_FAMILIES:
        values += conrad_s_reference(family, 9).ds
    for poly in valent_ops(6, route="recurrence") + valent_ops(6, route="gf"):
        values += poly
    for h in range(1, 8):
        width = snake_width_gf(h)
        values += [*width.num, *width.den, *meixner_denominator(h)]
    assert all(type(v) is int for v in values)


# -- convergents ---------------------------------------------------------


def test_depth_one_cm_convergent():
    ref = conrad_j_reference("cm", 0)
    conv = convergent_j(ref.cs, ref.as_, 1)
    assert conv == RationalFunction(num=(Fraction(1),), den=(Fraction(1), Fraction(2)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6), st.data())
def test_jfraction_convergent_expands_to_path_sum(cs, data):
    # A convergent of full depth is the finite fraction itself, so its
    # series agrees with the Motzkin path sum at every order.
    as_ = data.draw(st.lists(st.integers(-6, 6), min_size=len(cs) - 1, max_size=len(cs) - 1))
    order = 2 * len(cs) + 4
    conv = convergent_j(cs, as_, len(cs))
    assert conv.to_series(order) == jfraction_to_series(cs, as_, order)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=8))
def test_sfraction_convergent_expands_to_path_sum(ds):
    order = len(ds) + 4
    conv = convergent_s(ds, len(ds))
    assert conv.to_series(order) == sfraction_to_series(ds, order)


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
    for h in range(1, 25):
        w = snake_width_gf(h)
        den = list(w.den)
        while len(den) > 1 and den[-1] == 0:
            den.pop()
        assert tuple(den) == meixner_denominator(h), f"h = {h}"


@pytest.mark.parametrize("h", [0, -1])
def test_width_routes_refuse_h_below_one(h):
    for route in (snake_width_gf, meixner_denominator):
        with pytest.raises(ValueError, match="^h >= 1$"):
            route(h)


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
    for max_n in (0, 1, 6, 20):
        assert valent_ops(max_n, route="gf") == valent_ops(max_n, route="recurrence")


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
