"""Headline results, one test per claim.

Every other file in this directory exercises a module in isolation.  This
one pins the numbers and identities the whole library is organized
around: the frozen Taylor tables, the cube identity, agreement between
independent construction routes, the nine continued-fraction families,
the combinatorial models, and the evaluated constants with explicit
tolerances.  Each test prints a single pass/fail line under `pytest -v`.

Where a claim is also a ``dixonian verify`` target, the test runs that
target through the CLI, so the comparison is written once and the rule
that every target turns red under fault injection covers it too.
"""

import math
from fractions import Fraction

from mpmath import mp

from dixonian.cli import main
from dixonian.contfrac import (
    S_FAMILIES,
    contract_s_to_j,
    conrad_s_reference,
    family_ogf,
    jfraction_extract,
    scd_transforms,
    snake_width_gf,
    valent_ops,
)
from dixonian.core import PowerSeries, series_derive, series_mul
from dixonian.functions import (
    dixon_egf_integers,
    dixon_series,
    dumont_R,
    sm_via_hypergeometric,
    weierstrass_P,
)
from dixonian.numerics import eval_smh, pi3
from dixonian.permutations import (
    andre_weights,
    motzkin_path_total,
    parity_class_members,
    permutation_path_total,
    polarized_total,
    y_shape_counts,
)
from dixonian.urn import (
    M12,
    histogram_summary,
    history_composition_residual,
    history_count_table,
    history_counts,
    is_unimodal,
    t23_opposite_counts,
    yule_closed_form,
    yule_rk4,
)

# Frozen targets.  SM_GOLDEN and CM_GOLDEN are the n! [z^n] integers of
# sm and cm at the first nonzero indices past the leading terms.  The
# n = 12 cm entry is 880000, not 8880000: the defining recurrence, the
# cube identity, the fraction families, and the urn history counts all
# agree on the smaller value.
SM_GOLDEN = {4: -4, 7: 160, 10: -20800, 13: 6476800}
CM_GOLDEN = {3: -2, 6: 40, 9: -3680, 12: 880000}

TANGENT = [1, 2, 16, 272, 7936]
SECANT = [1, 1, 5, 61, 1385]

# Width generating functions for heights 1..4, as ascending coefficient
# tuples (numerator, denominator).
WIDTH_TABLE = [
    ((1,), (1,)),
    ((1,), (1, 0, -1)),
    ((1, 0, -4), (1, 0, -5)),
    ((1, 0, -13), (1, 0, -14, 0, 9)),
]

# Monic orthogonal polynomials attached to the cm moment sequence,
# ascending coefficients.
VALENT_TABLE = [
    [1],
    [2, 1],
    [160, 100, 1],
    [62720, 42960, 672, 1],
    [68992000, 49755200, 963600, 2420, 1],
]


def run_verify(capsys, *argv):
    """Run ``dixonian verify`` and require a PASS."""
    code = main(["verify", *argv])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[-1] == "PASS", out


def test_criterion_01_taylor_tables():
    sm_ints, cm_ints = dixon_egf_integers(13)
    assert sm_ints[1] == 1 and cm_ints[0] == 1
    for n, value in SM_GOLDEN.items():
        assert sm_ints[n] == value, f"sm integer at n = {n}"
    for n, value in CM_GOLDEN.items():
        assert cm_ints[n] == value, f"cm integer at n = {n}"
    for n in range(14):
        if n % 3 != 1:
            assert sm_ints[n] == 0
        if n % 3 != 0:
            assert cm_ints[n] == 0


def test_criterion_02_fermat_cube_identity():
    pair = dixon_series(60)
    assert pair.sm**3 + pair.cm**3 == PowerSeries.one(60)


def test_criterion_03_hypergeometric_route_matches_ode():
    assert sm_via_hypergeometric(120) == dixon_series(120).sm


def test_criterion_04_fraction_families(capsys):
    run_verify(capsys, "conrad-j", "--depth", "8")
    run_verify(capsys, "conrad-s", "--depth", "16")
    for family in sorted(S_FAMILIES):
        # Contracting the depth-16 S-fraction two levels at a time must
        # reproduce the J-fraction extracted from the same series.
        ccs, cas = contract_s_to_j(conrad_s_reference(family, 16).ds)
        extracted = jfraction_extract(family_ogf(family, 16), 8)
        assert ccs == list(extracted.cs), family
        assert cas[: len(extracted.as_)] == list(extracted.as_), family


def test_criterion_05_transform_ladder():
    table = scd_transforms(8, 60)
    S, C, D = table["S"], table["C"], table["D"]
    x = PowerSeries.monomial(1, 1, 60)
    assert S[0] == x
    assert C[0] == x - series_mul(x, S[2])
    assert D[0] == x - 2 * series_mul(x, C[2])
    for n in range(1, 7):
        assert S[n] == n * series_mul(x, D[n - 1]), f"S at n = {n}"
        assert C[n] == n * series_mul(x, S[n - 1]) - (n + 1) * series_mul(
            x, S[n + 2]
        ), f"C at n = {n}"
        assert D[n] == n * series_mul(x, C[n - 1]) - (n + 2) * series_mul(
            x, C[n + 2]
        ), f"D at n = {n}"


def test_criterion_06_constants():
    p3 = pi3(30)
    assert abs(p3.value - mp.mpf("5.2999162508")) < 1e-9
    assert abs(eval_smh(1, 20).value - mp.mpf("1.2054151514")) < 1e-9
    sm = dixon_series(31).sm
    q = abs(sm.coefficient(28) / sm.coefficient(31))
    with mp.workdps(40):
        ratio = mp.cbrt(mp.mpf(q.numerator) / mp.mpf(q.denominator))
        assert abs(ratio - mp.mpf("1.7666387502")) < 1.5e-9
        assert abs(ratio - p3.value / 3) < 2e-9


def test_criterion_07_urn_histories(capsys):
    run_verify(capsys, "urn", "--n", "8")
    table = history_count_table(M12, 1, 0, 30)
    sm_ints, cm_ints = dixon_egf_integers(30)
    for n in range(1, 31):
        counts = table[n]
        assert sum(counts.values()) == math.factorial(n)
        assert counts.get(0, 0) == abs(sm_ints[n]), f"all-opposite at n = {n}"
        assert counts.get(n + 1, 0) == abs(cm_ints[n]), f"all-original at n = {n}"


def test_criterion_08_yule_embedding():
    checkpoints = (0.25, 0.5, 1.0, 2.0)
    targets = {t: yule_closed_form(t) for t in checkpoints}
    for steps in (25000, 50000, 100000, 200000):
        grid = yule_rk4(steps, checkpoints)
        for t in checkpoints:
            got_x, got_y = grid[t]
            want_x, want_y = targets[t]
            assert abs(got_x - want_x) < 1e-9, (steps, t)
            assert abs(got_y - want_y) < 1e-9, (steps, t)


def test_criterion_09_composition_identity():
    for x0, z in ((Fraction(3, 10), Fraction(2, 5)), (Fraction(1, 2), Fraction(3, 10))):
        assert history_composition_residual(x0, z, 40) < 1e-9, (x0, z)


def test_criterion_10_parity_classes_exhaustive(capsys, monkeypatch):
    # Counting the placements at n = 10 sits one past the default brute-force cap.
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "10")
    run_verify(capsys, "parity", "--n", "10")
    assert set(parity_class_members("Y", 3)) == {(2, 1, 3), (3, 1, 2)}
    assert set(parity_class_members("X", 4)) == {
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (3, 2, 4, 1),
        (4, 2, 3, 1),
    }
    assert y_shape_counts(3) == [
        math.comb(4 * nu, nu) // (3 * nu + 1) for nu in range(4)
    ]


def test_criterion_11_polarized_counts():
    sm_ints, _ = dixon_egf_integers(7)
    for n in (1, 4, 7):
        assert polarized_total(n) == abs(sm_ints[n]), f"n = {n}"


def test_criterion_12_path_diagrams():
    assert [permutation_path_total(n, alternating=True) for n in (1, 3, 5, 7, 9)] == TANGENT
    assert [
        permutation_path_total(n, open_right=True, alternating=True)
        for n in (0, 2, 4, 6, 8)
    ] == SECANT
    for n in range(9):
        assert permutation_path_total(n) == math.factorial(n)
        assert permutation_path_total(n, open_right=True) == math.factorial(n)
    sm_ints, _ = dixon_egf_integers(19)
    for nu in range(7):
        total = motzkin_path_total(
            nu,
            lambda level: andre_weights(level)[0],
            lambda level: andre_weights(level)[1],
            lambda level: andre_weights(level)[2],
        )
        assert total == abs(sm_ints[3 * nu + 1]), f"nu = {nu}"


def test_criterion_13_width_convergents(capsys):
    for h, (num, den) in enumerate(WIDTH_TABLE, start=1):
        gf = snake_width_gf(h)
        assert tuple(gf.num) == num, f"numerator at h = {h}"
        assert tuple(gf.den) == den, f"denominator at h = {h}"
    run_verify(capsys, "width", "--max-n", "6")


def test_criterion_14_valent_polynomials(capsys):
    run_verify(capsys, "valent", "--max-n", "4")
    rec = valent_ops(4, route="recurrence")
    assert rec == VALENT_TABLE
    for n, poly in enumerate(rec):
        assert len(poly) == n + 1 and poly[-1] == 1, f"Q{n} is not monic"
    # The first three fraction levels z+2, z+98, z+572 with coupling
    # weights 36 and 14400 generate Q1..Q3 as convergent denominators.
    bs = [Fraction(2), Fraction(98), Fraction(572)]
    as_ = [Fraction(36), Fraction(14400)]
    qs = [[Fraction(1)], [bs[0], Fraction(1)]]
    for b, a in zip(bs[1:], as_):
        prev, cur = qs[-2], qs[-1]
        nxt = [b * c for c in cur] + [Fraction(0)]
        for i, c in enumerate(cur):
            nxt[i + 1] += c
        for i, c in enumerate(prev):
            nxt[i] -= a * c
        qs.append(nxt)
    assert qs == rec[:4]


def test_criterion_15_weierstrass_and_dumont():
    P = weierstrass_P(60)
    dP = series_derive(P)
    lhs = series_mul(dP, dP)
    cube = P**3
    square = series_mul(P, P)
    ddP = series_derive(dP)
    for n in range(58):
        want = 1 if n == 0 else 0
        assert lhs.coefficient(n) - 4 * cube.coefficient(n) == want, f"n = {n}"
        assert ddP.coefficient(n) == 6 * square.coefficient(n), f"n = {n}"
    for nu, want in enumerate(t23_opposite_counts(3)):
        scale = math.factorial(3 * nu + 1) * 2 ** (nu + 1)
        assert scale * P.coefficient(3 * nu + 1) == want, f"nu = {nu}"
    R = dumont_R(60)
    dR = series_derive(R)
    dR2 = series_mul(dR, dR)
    quartic = R**4
    for n in range(58):
        assert dR2.coefficient(n) == 4 * R.coefficient(n) - quartic.coefficient(n) / 27


def test_criterion_16_histogram_shape_substitute():
    # The distributional limit itself is out of reach at desk scale; the
    # stand-in checks the exact n = 50 histogram for a single peak and
    # near-zero skew.
    counts = history_counts(M12, 1, 0, 50)
    assert is_unimodal(counts)
    stats = histogram_summary(counts)
    lo, hi = min(counts), max(counts)
    assert abs(stats["mean"] - stats["mode"]) <= 0.05 * (hi - lo)
    assert abs(stats["skewness"]) < 0.05
