import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixonian import permutations
from dixonian.contfrac import jfraction_extract, jfraction_to_series
from dixonian.core import PowerSeries, series_compose, series_derive
from dixonian.functions import dixon_egf_integers, dixon_series
from dixonian.permutations import (
    DOUBLE_FALL,
    DOUBLE_RISE,
    PEAK,
    VALLEY,
    TreeNode,
    andre_polynomials,
    andre_weights,
    classify,
    code_by_value,
    fv_decode,
    fv_encode,
    in_parity_classes,
    increasing_tree,
    is_r_repeated,
    markable_windows,
    motzkin_path_total,
    parity_class_counts,
    parity_class_counts_dp,
    parity_class_members,
    permutation_path_total,
    polarized_c,
    polarized_total,
    repeated_count_brute,
    repeated_jfraction_tables,
    repeated_series,
    sweepline_altitudes,
    tree_levels,
    tree_shape,
    valley_peak_only,
    y_shape_counts,
)

TANGENT = [1, 2, 16, 272, 7936]  # odd sizes 1, 3, 5, 7, 9
SECANT = [1, 1, 5, 61, 1385]  # even sizes 0, 2, 4, 6, 8


def perms(n):
    return itertools.permutations(range(1, n + 1))


# -- local classification --------------------------------------------------


def test_classify_small_cases():
    assert classify((2, 1, 3)) == (PEAK, VALLEY, PEAK)
    assert classify((1, 2)) == (DOUBLE_RISE, PEAK)
    assert classify((2, 1)) == (PEAK, DOUBLE_FALL)
    # the open border turns the final descent into a valley
    assert classify((2, 1), open_right=True) == (PEAK, VALLEY)
    assert classify((1, 2), open_right=True) == (DOUBLE_RISE, DOUBLE_RISE)


def test_classify_rejects_non_permutations():
    with pytest.raises(ValueError):
        classify((1, 3))
    with pytest.raises(ValueError):
        classify((1, 1, 2))


def test_code_by_value_reindexes():
    perm = (3, 1, 2)
    codes = classify(perm)
    by_value = code_by_value(perm)
    for i, v in enumerate(perm):
        assert by_value[v - 1] == codes[i]


# -- increasing trees ------------------------------------------------------


def test_increasing_tree_shape():
    leaf2 = TreeNode(2, None, None)
    leaf3 = TreeNode(3, None, None)
    assert increasing_tree((2, 1, 3)) == TreeNode(1, leaf2, leaf3)
    assert increasing_tree(()) is None
    assert tree_levels((2, 1, 3)) == [0, 1, 1]


def _depths_from_tree(perm):
    out = [0] * len(perm)

    def walk(node, d):
        if node is None:
            return
        out[node.value - 1] = d
        walk(node.left, d + 1)
        walk(node.right, d + 1)

    walk(increasing_tree(perm), 0)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_levels_match_tree_depths(n):
    # the nearest-smaller-value route never builds the tree
    for perm in perms(n):
        assert tree_levels(perm) == _depths_from_tree(perm)


def _children_by_value(perm):
    out = {}

    def walk(node):
        if node is None:
            return
        out[node.value] = (node.left is not None, node.right is not None)
        walk(node.left)
        walk(node.right)

    walk(increasing_tree(perm))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_codes_dictate_children(n):
    """Valley = doubled node, peak = leaf, fall = left only, rise = right
    only, with closed borders."""
    expect = {
        VALLEY: (True, True),
        PEAK: (False, False),
        DOUBLE_FALL: (True, False),
        DOUBLE_RISE: (False, True),
    }
    for perm in perms(n):
        children = _children_by_value(perm)
        for i, v in enumerate(perm):
            assert children[v] == expect[classify(perm)[i]]


# -- the parity classes ----------------------------------------------------


def test_parity_witnesses():
    assert parity_class_members("Y", 3) == [(2, 1, 3), (3, 1, 2)]
    assert parity_class_members("X", 4) == [
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (3, 2, 4, 1),
        (4, 2, 3, 1),
    ]
    assert parity_class_members("X", 1) == [(1,)]
    assert parity_class_members("Y", 1) == []
    with pytest.raises(ValueError):
        parity_class_members("Z", 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_placement_counts_match_member_listing(n, monkeypatch):
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", str(n))
    x_members = parity_class_members("X", n)
    y_members = parity_class_members("Y", n)
    assert parity_class_counts(n) == (len(x_members), len(y_members))


def test_placements_dp_and_taylor_agree():
    sm_ints, cm_ints = dixon_egf_integers(8)
    for n in range(1, 9):
        expected = (abs(sm_ints[n]), abs(cm_ints[n]))
        assert parity_class_counts(n) == expected
        assert parity_class_counts_dp(n) == expected


# -- oracle: the two-stack sweep -------------------------------------------


def stack_sweep_counts(n):
    """(|X_n|, |Y_n|) by the sweep over S_n in one-line notation: two
    stack passes give each position its nearest smaller values, and half
    of S_n, the permutations with perm[0] < perm[-1], is counted twice."""
    x_total = 0
    y_total = 0
    last = n - 1
    weight = 2 if n > 1 else 1
    level = [0] * (n + 1)
    lsv = [0] * n
    rsv = [0] * n
    pos = [0] * (n + 1)
    for perm in perms(n):
        if perm[0] > perm[last]:
            continue
        stack = []
        for i in range(n):
            v = perm[i]
            while stack and stack[-1] > v:
                stack.pop()
            lsv[i] = stack[-1] if stack else 0
            stack.append(v)
            pos[v] = i
        stack = []
        for i in range(last, -1, -1):
            v = perm[i]
            while stack and stack[-1] > v:
                stack.pop()
            rsv[i] = stack[-1] if stack else 0
            stack.append(v)
        in_x = True
        in_y = True
        for v in range(1, n + 1):
            i = pos[v]
            a = lsv[i]
            b = rsv[i]
            parent = a if a > b else b
            lv = level[parent] + 1 if parent else 0
            level[v] = lv
            if 0 < i < last and perm[i - 1] > v and perm[i + 1] > v:
                continue
            if lv & 1:
                in_x = False
                if not in_y:
                    break
            else:
                in_y = False
                if not in_x:
                    break
        if in_x:
            x_total += weight
        if in_y:
            y_total += weight
    return x_total, y_total


@pytest.mark.parametrize("n", range(1, 9))
def test_placements_match_stack_oracle_and_definition(n):
    memberships = [in_parity_classes(p) for p in perms(n)]
    by_definition = tuple(sum(m[slot] for m in memberships) for slot in (0, 1))
    assert parity_class_counts(n) == stack_sweep_counts(n) == by_definition


def test_ten_value_classes_via_dp():
    assert parity_class_counts_dp(10) == (20800, 0)


def test_member_listing_respects_cap(monkeypatch):
    routes = [
        (lambda: len(parity_class_members("X", 4)), 4),
        (lambda: parity_class_counts(4), (4, 0)),
        (lambda: repeated_count_brute(4, 1), 24),
        (lambda: polarized_total(4), 4),
    ]
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "3")
    for route, _ in routes:
        with pytest.raises(ValueError, match="DIXONIAN_BRUTE_CAP"):
            route()
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "4")
    for route, expected in routes:
        assert route() == expected


def test_class_counts_refuse_past_the_cap_before_placing(monkeypatch):
    placed = []

    def spy(parity):
        def keep(v, code, level, codes):
            placed.append(v)
            return True

        return keep

    monkeypatch.setattr(permutations, "_parity_keep", spy)
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "5")
    with pytest.raises(ValueError, match="DIXONIAN_BRUTE_CAP"):
        parity_class_counts(6)
    with pytest.raises(ValueError):
        parity_class_counts(0)
    assert placed == []
    # the spy is live.  The subtree prune alone already bars every
    # placement that keep would reject, so keeping everything still gives
    # the class sizes; at n = 2 it bars both classes before keep is asked.
    assert parity_class_counts(4) == (4, 0)
    assert placed


@pytest.mark.parametrize("n", range(8))
def test_placements_match_definition(n):
    """The pruned placements against the definitions filtered over S_n."""
    every = list(perms(n))
    for slot, which in enumerate("XY"):
        expected = [p for p in every if in_parity_classes(p)[slot]]
        assert parity_class_members(which, n) == expected
    for r in (1, 2, 3):
        for open_right in (False, True):
            expected = sum(1 for p in every if is_r_repeated(p, r, open_right))
            assert repeated_count_brute(n, r, open_right) == expected
    weighted = sum(1 << markable_windows(p) for p in every if is_r_repeated(p, 3))
    assert polarized_total(n) == weighted


@pytest.mark.parametrize("n", range(1, 12))
def test_empty_classes_never_consult_keep(n, monkeypatch):
    """By the subtree lemma X lives only at n = 1 (mod 3) and Y at n = 0
    (mod 3); the other class is refused before its first placement."""
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "11")
    calls = [0, 0]
    real = permutations._parity_keep

    def spy(parity):
        keep = real(parity)

        def counted(*args):
            calls[parity] += 1
            return keep(*args)

        return counted

    monkeypatch.setattr(permutations, "_parity_keep", spy)
    counts = parity_class_counts(n)
    assert counts == parity_class_counts_dp(n)
    for parity in (0, 1):
        assert (calls[parity] == 0) == (counts[parity] == 0)
    assert calls[0] == 0 or n % 3 == 1
    assert calls[1] == 0 or n % 3 == 0


@pytest.mark.parametrize("n", [10, 11])
def test_placement_counts_match_slot_walk(n, monkeypatch):
    # n = 11 lies past the n = 10 of criterion 10
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", str(n))
    assert parity_class_counts(n) == parity_class_counts_dp(n)


def test_placement_routes_reject_negative_sizes():
    with pytest.raises(ValueError):
        parity_class_members("Y", -1)
    with pytest.raises(ValueError):
        repeated_count_brute(-1, 2)
    with pytest.raises(ValueError):
        polarized_total(-1)
    with pytest.raises(ValueError):
        parity_class_counts_dp(-1)
    assert parity_class_members("Y", 0) == [()]
    assert repeated_count_brute(0, 2) == polarized_total(0) == 1


# -- unlabeled shapes ------------------------------------------------------


def test_y_shape_counts_match_closed_form():
    counts = y_shape_counts(4)
    assert counts == [1, 1, 4, 22, 140]
    for nu, c in enumerate(counts):
        assert c == math.comb(4 * nu, nu) // (3 * nu + 1)


def test_shapes_of_small_y_members():
    assert len({tree_shape(p) for p in parity_class_members("Y", 3)}) == 1
    members = parity_class_members("Y", 6)
    assert len(members) == 40
    assert len({tree_shape(p) for p in members}) == 4


# -- histories -------------------------------------------------------------


@pytest.mark.parametrize("open_right", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_history_letters_follow_codes(n, open_right):
    upto = n if open_right else n - 1
    for perm in perms(n):
        letters = [step[0] for step in fv_encode(perm, open_right)]
        assert tuple(letters) == code_by_value(perm, open_right)[:upto]


@pytest.mark.parametrize("open_right", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_history_roundtrip_exhaustive(n, open_right):
    for perm in perms(n):
        steps = fv_encode(perm, open_right)
        assert fv_decode(steps, n, open_right) == perm


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=7, max_value=8).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    ),
    st.booleans(),
)
def test_history_roundtrip_random(perm, open_right):
    perm = tuple(perm)
    steps = fv_encode(perm, open_right)
    assert fv_decode(steps, len(perm), open_right) == perm


@pytest.mark.parametrize("open_right", [False, True])
def test_histories_are_distinct(open_right):
    seen = {tuple(fv_encode(p, open_right)) for p in perms(5)}
    assert len(seen) == math.factorial(5)


def test_decode_rejects_malformed_histories():
    with pytest.raises(ValueError):
        fv_decode([(VALLEY, 0)], 3)  # too short
    with pytest.raises(ValueError):
        fv_decode([(PEAK, 0), (PEAK, 0)], 3)  # slot vanished
    with pytest.raises(ValueError):
        fv_decode([(VALLEY, 0), (VALLEY, 0)], 3)  # altitude stays up
    with pytest.raises(ValueError):
        fv_decode([(PEAK, 0)], 1, open_right=True)  # closes the border
    with pytest.raises(ValueError):
        fv_decode([(DOUBLE_FALL, 0)], 1, open_right=True)
    with pytest.raises(ValueError):
        fv_decode([("Q", 0), (VALLEY, 0)], 3)


def test_zigzag_history_example():
    perm = (7, 1, 4, 2, 6, 3, 5)
    letters = "".join(step[0] for step in fv_encode(perm))
    assert letters == "VVVPPP"
    assert sweepline_altitudes(perm) == [0, 1, 2, 3, 2, 1, 0]


@pytest.mark.parametrize("n", range(1, 7))
def test_sweepline_matches_history_profile(n):
    rise = {VALLEY: 1, PEAK: -1, DOUBLE_FALL: 0, DOUBLE_RISE: 0}
    for perm in perms(n):
        altitude = 0
        profile = [0]
        for letter, _ in fv_encode(perm):
            altitude += rise[letter]
            profile.append(altitude)
        assert sweepline_altitudes(perm) == profile


# -- weighted paths --------------------------------------------------------


@pytest.mark.parametrize("open_right", [False, True])
def test_unweighted_path_totals_are_factorials(open_right):
    for n in range(9):
        assert permutation_path_total(n, open_right) == math.factorial(n)


def test_barred_paths_count_zigzags():
    assert [
        permutation_path_total(n, alternating=True) for n in (1, 3, 5, 7, 9)
    ] == TANGENT
    assert [
        permutation_path_total(n, open_right=True, alternating=True)
        for n in (0, 2, 4, 6, 8)
    ] == SECANT
    # a zigzag with both borders closed needs odd length
    assert permutation_path_total(2, alternating=True) == 0


def test_zigzags_alternate_downward_first():
    assert [p for p in perms(3) if valley_peak_only(p)] == [(2, 1, 3), (3, 1, 2)]


@pytest.mark.parametrize("open_right", [False, True])
def test_brute_zigzags_match_barred_paths(open_right):
    for n in range(1, 8):
        brute = sum(1 for p in perms(n) if valley_peak_only(p, open_right))
        assert brute == permutation_path_total(n, open_right, alternating=True)


def test_generic_path_weights_see_every_altitude():
    # cross-check the DP against a direct Motzkin count: unit weights
    # give the Motzkin numbers themselves
    totals = [
        motzkin_path_total(n, lambda l: 1, lambda l: 1, lambda l: 1)
        for n in range(7)
    ]
    assert totals == [1, 1, 2, 4, 9, 21, 51]
    with pytest.raises(ValueError):
        motzkin_path_total(-1, lambda l: 1, lambda l: 1, lambda l: 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 9),
    st.lists(st.integers(-4, 4), min_size=11, max_size=11),
    st.lists(st.integers(-4, 4), min_size=11, max_size=11),
    st.lists(st.integers(-4, 4), min_size=11, max_size=11),
)
def test_path_total_is_the_jfraction_coefficient(n, alpha, beta, gamma):
    # pins the up and down indexing: the pair of an up step from l and
    # its down step from l + 1 weighs alpha(l) beta(l + 1)
    total = motzkin_path_total(n, alpha.__getitem__, beta.__getitem__, gamma.__getitem__)
    as_ = [alpha[l] * beta[l + 1] for l in range(10)]
    assert total == jfraction_to_series(gamma, as_, n).coefficient(n)


# -- block-repeated permutations -------------------------------------------


def test_every_permutation_is_one_repeated():
    for n in range(1, 6):
        assert repeated_count_brute(n, 1) == math.factorial(n)
        assert repeated_count_brute(n, 1, open_right=True) == math.factorial(n)
    assert repeated_jfraction_tables(1, 4) == ([2, 4, 6, 8], [2, 6, 12])
    assert repeated_jfraction_tables(1, 4, open_right=True) == (
        [1, 3, 5, 7],
        [1, 4, 9],
    )
    closed = repeated_series(1, 5)
    opened = repeated_series(1, 5, open_right=True)
    for nu in range(5):
        assert closed.coefficient(nu) == math.factorial(nu + 1)
        assert opened.coefficient(nu) == math.factorial(nu)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_repeated_series_at_shallow_depths(r):
    # Depth 1 and 2 give series of order 0 and 1, shorter than a w^2 term.
    assert repeated_series(r, 1).coeffs == (1,)
    assert repeated_series(r, 1, open_right=True).coeffs == (1,)
    assert repeated_series(r, 2).coeffs == (1, 2)
    assert repeated_series(r, 2, open_right=True).coeffs == (1, 1)


def test_two_repeated_counts_match_fraction():
    closed = repeated_series(2, 4)
    for nu, n in enumerate((1, 3, 5, 7)):
        assert repeated_count_brute(n, 2) == closed.coefficient(nu)
    opened = repeated_series(2, 5, open_right=True)
    for nu, n in enumerate((0, 2, 4, 6, 8)):
        assert repeated_count_brute(n, 2, open_right=True) == opened.coefficient(nu)


def test_three_repeated_counts_match_fraction():
    closed = repeated_series(3, 4)
    assert closed.coefficient(0) == 1
    assert repeated_count_brute(4, 3) == closed.coefficient(1) == 2
    assert repeated_count_brute(7, 3) == closed.coefficient(2) == 148
    assert closed.coefficient(3) == 19016
    opened = repeated_series(3, 3, open_right=True)
    assert repeated_count_brute(3, 3, open_right=True) == opened.coefficient(1) == 1
    assert repeated_count_brute(6, 3, open_right=True) == opened.coefficient(2)


def test_three_repeated_members_are_monotone_at_four():
    members = [p for p in perms(4) if is_r_repeated(p, 3)]
    assert members == [(1, 2, 3, 4), (4, 3, 2, 1)]
    with pytest.raises(ValueError):
        is_r_repeated((1, 2), 0)


def test_thirteen_value_example():
    sigma = (4, 10, 7, 1, 5, 11, 8, 2, 6, 12, 9, 3, 13)
    assert code_by_value(sigma) == (
        VALLEY,
        VALLEY,
        VALLEY,
        DOUBLE_RISE,
        DOUBLE_RISE,
        DOUBLE_RISE,
        DOUBLE_FALL,
        DOUBLE_FALL,
        DOUBLE_FALL,
        PEAK,
        PEAK,
        PEAK,
        PEAK,
    )
    assert is_r_repeated(sigma, 3)
    assert not is_r_repeated(sigma, 2)
    assert markable_windows(sigma) == 0


# -- polarized blocks ------------------------------------------------------


def test_polarized_totals_hit_golden_integers():
    sm_ints, _ = dixon_egf_integers(7)
    for n in (1, 4, 7):
        assert polarized_total(n) == abs(sm_ints[n])


def test_polarized_window_weights_at_four():
    assert markable_windows((1, 2, 3, 4)) == 1
    assert markable_windows((4, 3, 2, 1)) == 1
    assert markable_windows((2, 1, 3, 4)) == 0
    assert polarized_total(4) == 4


def test_polarized_fraction_weights_match_extraction():
    sm_ints, _ = dixon_egf_integers(19)
    series = PowerSeries([abs(sm_ints[3 * nu + 1]) for nu in range(7)], 6)
    frac = jfraction_extract(series, 3)
    assert list(frac.cs) == [4, 136, 700]
    assert list(frac.as_) == [144, 25200]
    for ell in range(3):
        assert polarized_c(ell) == frac.cs[ell]
        assert polarized_c(ell) == andre_weights(ell)[2]
    for ell in range(2):
        alpha = andre_weights(ell)[0]
        beta_next = andre_weights(ell + 1)[1]
        assert alpha * beta_next == frac.as_[ell]


# -- derivative polynomials ------------------------------------------------


def test_first_derivative_polynomials():
    polys = andre_polynomials(2)
    assert polys[0] == {1: 1}
    assert polys[1] == {1: 4, 4: 6}
    assert polys[2][1] == 160
    for k, poly in enumerate(polys):
        assert all(m % 3 == 1 for m in poly)
        assert max(poly) == 3 * k + 1
        assert all(c > 0 for c in poly.values())


def andre_recurrence(k_max):
    """The derivative recurrence of :func:`andre_polynomials`, stepped on
    sparse coefficient maps: the oracle for the walk."""
    polys = [{1: 1}]
    for _ in range(k_max):
        nxt = {}
        for m, c in polys[-1].items():
            if m >= 3:
                nxt[m - 3] = nxt.get(m - 3, 0) + (m - 2) * (m - 1) * m * c
            nxt[m] = nxt.get(m, 0) + 2 * m * (m * m + 1) * c
            nxt[m + 3] = nxt.get(m + 3, 0) + (m + 2) * (m + 1) * m * c
        polys.append({m: c for m, c in nxt.items() if c})
    return polys


def test_walk_matches_derivative_recurrence():
    assert andre_polynomials(60) == andre_recurrence(60)


def test_walk_past_the_stored_rows_matches_the_recurrence():
    k_max = permutations._ANDRE_ROWS_STORED + 4
    assert andre_polynomials(k_max) == andre_recurrence(k_max)
    assert len(permutations._ANDRE_ROWS) == permutations._ANDRE_ROWS_STORED
    assert len(permutations._ANDRE_ROWS.columns(0)) == 1


def test_polynomials_reproduce_derivatives():
    """d^(3k) smh / dz^(3k) equals P_k composed with smh itself."""
    order = 60
    smh = dixon_series(order).smh
    polys = andre_polynomials(12)
    d = smh
    for k in range(13):
        target = order - 3 * k
        outer = PowerSeries(
            [Fraction(polys[k].get(m, 0)) for m in range(target + 1)], target
        )
        inner = PowerSeries(smh.coeffs[: target + 1], target)
        assert series_compose(outer, inner).coeffs == d.coeffs
        if k < 12:
            for _ in range(3):
                d = series_derive(d)


def test_polynomial_taylor_starts_and_path_weights():
    sm_ints, _ = dixon_egf_integers(19)
    polys = andre_polynomials(6)
    for nu in range(7):
        golden = abs(sm_ints[3 * nu + 1])
        assert polys[nu].get(1, 0) == golden
        total = motzkin_path_total(
            nu,
            lambda l: andre_weights(l)[0],
            lambda l: andre_weights(l)[1],
            lambda l: andre_weights(l)[2],
        )
        assert total == golden
