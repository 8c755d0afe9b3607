import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import delta_apply_dict

from dixonian.core import InvalidUrnStateError, delta_apply
from dixonian.permutations import parity_class_counts_dp
from dixonian.functions import dixon_egf_integers, dixon_series, weierstrass_P
from dixonian import urn
from dixonian.urn import (
    BRUTE_CAP_ENV,
    DEFAULT_BRUTE_CAP,
    M12,
    T23,
    UrnRule,
    brute_cap,
    enumerate_histories,
    histogram_summary,
    history_composition_residual,
    history_count_table,
    history_counts,
    history_egf_partial,
    history_polynomials,
    is_unimodal,
    t23_opposite_counts,
    ternary_path_counts,
    xi_series,
    yule_closed_form,
    yule_rk4,
    yule_size_law,
)

# -- rules --------------------------------------------------------------


def test_rule_shapes_and_validation():
    assert M12.matrix == ((-1, 2), (2, -1))
    assert T23.matrix == ((-2, 3), (4, -3))
    assert UrnRule.from_matrix(M12.matrix) == M12
    assert UrnRule.from_matrix(T23.matrix) == T23
    with pytest.raises(ValueError):
        UrnRule(a=0, b=1, s=1)
    with pytest.raises(ValueError):
        UrnRule(a=1, b=1, s=0)
    with pytest.raises(ValueError):
        UrnRule.from_matrix(((-1, 2), (3, -1)))
    with pytest.raises(ValueError):
        UrnRule.from_matrix(((1, 0), (2, -1)))
    with pytest.raises(AttributeError):
        M12.a = 2
    assert M12 == UrnRule(1, 1, 1) != T23 and hash(M12) == hash(UrnRule(1, 1, 1))


def test_operator_iterates_from_one_ball():
    # row j of delta^n[x] is the coefficient of x^j y^(n + 1 - j)
    polys = history_polynomials(M12, 1, 0, 4)
    assert polys[0] == [0, 1]
    assert polys[1] == [1, 0, 0]
    assert polys[3] == [0, 4, 0, 0, 2]
    assert polys[4] == [4, 0, 0, 20, 0, 0]


def test_starting_configuration_must_be_nonempty():
    with pytest.raises(ValueError):
        history_polynomials(M12, 0, 0, 3)
    with pytest.raises(ValueError):
        history_polynomials(T23, -1, 2, 3)


def dict_histories(rule, p, q, n_max):
    """delta^n[x^p y^q] for n = 0 .. n_max through the dict oracle."""
    polys = [{(p, q): 1}]
    for _ in range(n_max):
        polys.append(delta_apply_dict(polys[-1], rule))
    return polys


@pytest.mark.parametrize("rule", [M12, T23], ids=["M12", "T23"])
@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (1, 1), (2, 0)])
def test_history_rows_match_dict_oracle(rule, p, q):
    # Under T23 the starts x, y and xy die at the first draw; x^2 lives on.
    try:
        want = dict_histories(rule, p, q, 30)
    except InvalidUrnStateError:
        with pytest.raises(InvalidUrnStateError):
            history_polynomials(rule, p, q, 30)
        return
    rows = history_polynomials(rule, p, q, 30)
    assert len(rows) == 31
    for n, (row, poly) in enumerate(zip(rows, want)):
        d = p + q + n * rule.s
        assert len(row) == d + 1
        assert {(j, d - j): c for j, c in enumerate(row) if c} == poly


def test_parity_walk_matches_dict_oracle():
    polys = dict_histories(M12, 1, 0, 60)
    for n, poly in enumerate(polys):
        assert parity_class_counts_dp(n) == (
            poly.get((0, n + 1), 0), poly.get((n + 1, 0), 0)
        )


def test_request_past_the_cap_walks_on_without_storing():
    n = urn._URN_ROWS_STORED + 20
    rows = [[1, 0]]
    for _ in range(n):
        rows.append(delta_apply(rows[-1], M12))
    assert history_polynomials(M12, 0, 1, n) == rows
    assert history_counts(M12, 0, 1, n) == {j: c for j, c in enumerate(rows[-1]) if c}
    assert len(urn._history_table(M12, 0, 1)) == urn._URN_ROWS_STORED
    assert urn._history_table.cache_info().maxsize == urn._URN_STARTS_STORED


def test_dead_t23_starts_raise_on_every_call():
    # The stored rows stop at the seed, so a repeated call walks, and dies, again.
    for p, q in ((1, 0), (0, 1), (1, 1)):
        for _ in range(2):
            with pytest.raises(InvalidUrnStateError):
                history_polynomials(T23, p, q, 5)
            with pytest.raises(InvalidUrnStateError):
                history_counts(T23, p, q, 5)
        assert history_polynomials(T23, p, q, 0) == [[int(j == p) for j in range(p + q + 1)]]
    assert history_polynomials(T23, 2, 0, 30)[:11] == history_polynomials(T23, 2, 0, 10)


# -- brute enumeration --------------------------------------------------


def rewrite_words(n, start):
    """Every length-n history as its own word, duplicates kept: each draw
    rewrites every position of every word in the list."""
    words = [start]
    for _ in range(n):
        step = []
        for w in words:
            for i, ch in enumerate(w):
                step.append(w[:i] + ("yy" if ch == "x" else "xx") + w[i + 1 :])
        words = step
    return words


def x_tally(words):
    """Histories by final number of x balls, weighting each word by the
    number of histories that leave it."""
    tally = Counter()
    for w, mult in words.items():
        tally[w.count("x")] += mult
    return tally


def test_two_draw_words():
    assert sorted(enumerate_histories(2).elements()) == ["xxy", "yxx"]


def test_three_draw_words_keep_duplicates():
    words = enumerate_histories(3)
    assert words.total() == 6
    # Two distinct draw orders both leave the all-x word.
    assert words["xxxx"] == 2
    # 9! histories leave only 341 distinct words.
    assert len(enumerate_histories(9)) == 341


@pytest.mark.parametrize("start", ["x", "y", "xy", "yyx"])
def test_multiset_matches_rewriting_oracle(start):
    for n in range(8):
        assert enumerate_histories(n, start=start) == Counter(rewrite_words(n, start))


@pytest.mark.parametrize("start", ["x", "y"])
def test_brute_matches_operator(start):
    p, q = (1, 0) if start == "x" else (0, 1)
    table = history_count_table(M12, p, q, 8)
    for n in range(9):
        words = enumerate_histories(n, start=start)
        assert words.total() == math.factorial(n)
        assert x_tally(words) == table[n]


def test_brute_cap_respects_environment(monkeypatch):
    monkeypatch.delenv(BRUTE_CAP_ENV, raising=False)
    assert brute_cap() == DEFAULT_BRUTE_CAP
    with pytest.raises(ValueError):
        enumerate_histories(DEFAULT_BRUTE_CAP + 1)
    monkeypatch.setenv(BRUTE_CAP_ENV, "3")
    assert brute_cap() == 3
    assert enumerate_histories(3).total() == 6
    with pytest.raises(ValueError):
        enumerate_histories(4)
    monkeypatch.setenv(BRUTE_CAP_ENV, "4x")
    with pytest.raises(ValueError):
        brute_cap()


@settings(max_examples=25, deadline=None)
@given(
    st.text(alphabet="xy", min_size=1, max_size=3),
    st.integers(0, 8),
)
def test_word_multiset_matches_operator(start, n):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BRUTE_CAP_ENV, "8")
        words = enumerate_histories(n, start=start)
    length = len(start)
    rising = math.prod(range(length, length + n)) if n else 1
    assert words.total() == rising
    counts = history_counts(M12, start.count("x"), start.count("y"), n)
    assert x_tally(words) == counts


# -- monochrome slices --------------------------------------------------


def test_monochrome_slices_match_hyperbolic_egfs():
    sm_int, cm_int = dixon_egf_integers(31)
    table = history_count_table(M12, 1, 0, 30)
    for n in range(31):
        counts = table[n]
        # smh and cmh flip the signs of sm and cm to all-positive.
        assert counts.get(0, 0) == abs(sm_int[n])
        assert counts.get(n + 1, 0) == abs(cm_int[n])


def test_parity_and_totals():
    table = history_count_table(M12, 1, 0, 30)
    for n in range(31):
        counts = table[n]
        assert sum(counts.values()) == math.factorial(n)
        assert all(k % 3 == (1 - n) % 3 for k in counts)
        assert all(c > 0 for c in counts.values())


def test_partial_egf_at_zero_is_the_opposite_slice():
    z = Fraction(2, 5)
    smh = dixon_series(40).smh
    assert history_egf_partial(Fraction(0), z, 40) == smh.evaluate(z)
    assert history_egf_partial(Fraction(3, 10), Fraction(0), 12) == Fraction(3, 10)


def test_partial_egf_matches_dict_oracle_exactly():
    x0, z = Fraction(3, 10), Fraction(2, 5)
    want = sum(
        z**n / math.factorial(n) * sum(c * x0**p for (p, _q), c in poly.items())
        for n, poly in enumerate(dict_histories(M12, 1, 0, 12))
    )
    assert history_egf_partial(x0, z, 12) == want


# -- the 2-3 urn --------------------------------------------------------


def test_t23_single_step_and_dead_states():
    assert delta_apply([0, 0, 1], T23) == [2, 0, 0, 0]
    # One lone x ball cannot pay the removal cost of two.
    with pytest.raises(InvalidUrnStateError):
        delta_apply([0, 1], T23)


def test_t23_all_opposite_counts():
    counts = t23_opposite_counts(3)
    P = weierstrass_P(10)
    expected = []
    for nu in range(4):
        n = 3 * nu + 1
        value = math.factorial(n) * 2 ** (nu + 1) * P.coefficient(n)
        assert value.denominator == 1
        expected.append(int(value))
    assert counts == expected
    assert counts[0] == 2


# -- depletion paths -----------------------------------------------------


def test_depletion_paths_are_ternary_trees():
    counts = ternary_path_counts(4)
    assert counts == [1, 1, 3, 12, 55]
    for nu, c in enumerate(counts):
        assert c == math.comb(3 * nu, nu) // (2 * nu + 1)


def test_xi_series_coefficients_and_cubic_equation():
    xi = xi_series(14)
    support = {m: xi.coefficient(m) for m in range(15) if xi.coefficient(m)}
    assert support == {2: 1, 5: 1, 8: 3, 11: 12, 14: 55}
    from dixonian.core import PowerSeries, series_mul

    x = PowerSeries.identity(14)
    lhs = series_mul(x, xi) - xi**3
    assert lhs == PowerSeries.monomial(1, 3, 14)


# -- Yule embedding -----------------------------------------------------


def test_rk4_agrees_with_closed_form():
    grid = yule_rk4(25000, (0.25, 0.5, 1.0, 2.0))
    for t, (x, y) in grid.items():
        cx, cy = yule_closed_form(t)
        assert abs(x - cx) < 1e-9
        assert abs(y - cy) < 1e-9


def test_rk4_matches_drift_function_oracle():
    # The drift written out in each stage gives the same floats, bit for
    # bit, as a classical RK4 that calls a drift function.
    def drift(x, y):
        return (y * y - x, x * x - y)

    steps, h = 800, 2.0 / 800
    x, y = 0.0, 1.0
    want = {}
    for i in range(1, steps + 1):
        k1x, k1y = drift(x, y)
        k2x, k2y = drift(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = drift(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = drift(x + h * k3x, y + h * k3y)
        x += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        if i in (200, 800):
            want[i / 400] = (x, y)
    assert yule_rk4(steps, (0.5, 2.0)) == want


def test_rk4_rejects_off_grid_checkpoints():
    with pytest.raises(ValueError):
        yule_rk4(1000, (0.33333,))


def test_closed_form_initial_state():
    x0, y0 = yule_closed_form(0.0)
    assert x0 == 0.0 and abs(y0 - 1.0) < 1e-15


def test_size_law_is_geometric():
    t = 0.7
    probs = [yule_size_law(k, t) for k in range(1, 401)]
    assert probs[0] == pytest.approx(math.exp(-t))
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    mean = sum(k * p for k, p in enumerate(probs, start=1))
    assert mean == pytest.approx(math.exp(t), abs=1e-9)
    with pytest.raises(ValueError):
        yule_size_law(0, t)


# -- composition identity ----------------------------------------------


@pytest.mark.parametrize(
    "x0,z",
    [(Fraction(3, 10), Fraction(2, 5)), (Fraction(1, 2), Fraction(3, 10))],
)
def test_history_egf_composition(x0, z):
    assert history_composition_residual(x0, z, n_max=40) < 1e-9


# -- histogram shape ----------------------------------------------------


def test_history_histogram_shape_at_fifty():
    counts = history_counts(M12, 1, 0, 50)
    assert is_unimodal(counts)
    stats = histogram_summary(counts)
    lo, hi = min(counts), max(counts)
    assert abs(stats["mean"] - stats["mode"]) <= 0.05 * (hi - lo)
    assert abs(stats["skewness"]) < 0.05
