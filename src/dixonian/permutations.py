"""Permutation families whose counting series are sm and cm.

Everything here grows out of one classification: each value of a
permutation is a valley, peak, double fall, or double rise relative to
its position neighbours, with a virtual minus-infinity on the left and
either border sign on the right.  The classification drives increasing
binary trees and their level parities, the Francon-Viennot path
encoding, block-repeated value patterns, and the polarized weights, and
each family is counted twice: by direct enumeration and by a closed
form (weighted Motzkin paths, a continued fraction, or a polynomial
recurrence).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

from dixonian.contfrac import jfraction_to_series, motzkin_rows, motzkin_step
from dixonian.core import GrowingTable, PowerSeries, series_mul
from dixonian.urn import BRUTE_CAP_ENV, M12, _history_rows, brute_cap

__all__ = [
    "VALLEY",
    "PEAK",
    "DOUBLE_FALL",
    "DOUBLE_RISE",
    "classify",
    "code_by_value",
    "TreeNode",
    "increasing_tree",
    "tree_levels",
    "in_parity_classes",
    "parity_class_counts",
    "parity_class_counts_dp",
    "parity_class_members",
    "tree_shape",
    "y_shape_counts",
    "fv_encode",
    "fv_decode",
    "sweepline_altitudes",
    "motzkin_path_total",
    "permutation_path_total",
    "valley_peak_only",
    "is_r_repeated",
    "repeated_count_brute",
    "repeated_jfraction_tables",
    "repeated_series",
    "markable_windows",
    "polarized_total",
    "polarized_c",
    "andre_weights",
    "andre_polynomials",
]

VALLEY = "V"
PEAK = "P"
DOUBLE_FALL = "F"
DOUBLE_RISE = "R"


def _check_perm(perm: Sequence[int]) -> int:
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("expected a permutation of 1..n")
    return n


def classify(perm: Sequence[int], open_right: bool = False) -> tuple[str, ...]:
    """Local type of each position: valley, peak, double fall, or rise.

    The left border is always minus infinity (smaller than everything);
    ``open_right`` switches the right border from minus to plus infinity.
    """
    n = _check_perm(perm)
    out = []
    for i, v in enumerate(perm):
        left = perm[i - 1] if i else 0
        right = perm[i + 1] if i + 1 < n else (n + 1 if open_right else 0)
        if left > v and right > v:
            out.append(VALLEY)
        elif left < v and right < v:
            out.append(PEAK)
        elif left > v > right:
            out.append(DOUBLE_FALL)
        else:
            out.append(DOUBLE_RISE)
    return tuple(out)


def code_by_value(perm: Sequence[int], open_right: bool = False) -> tuple[str, ...]:
    """The same types as :func:`classify`, reindexed by value v = 1..n."""
    codes = classify(perm, open_right)
    out = [""] * len(perm)
    for i, v in enumerate(perm):
        out[v - 1] = codes[i]
    return tuple(out)


def _placements(
    n: int,
    keep: Callable[[int, str, int, list[str]], bool],
    open_right: bool = False,
) -> Iterator[tuple[int, ...]]:
    """The permutations of 1..n whose every value passes ``keep``.

    Values 1..n land in increasing order on the fixed positions 1..n, as
    in :func:`fv_encode`, so the positions filled when v lands at p hold
    exactly the smaller values.  Everything about v is then final: its
    local type follows from whether p - 1 and p + 1 are filled (the left
    border counts as filled, the right border as filled unless
    ``open_right``), and its parent in the increasing tree is the larger
    of the nearest filled values on either side, the nearest-smaller rule
    of :func:`tree_levels`.  ``keep(v, code, level, codes)``, where
    ``codes[u - 1]`` is the type of each u < v, therefore rejects a prefix
    the moment it fails.  Every placement is explicit and checked: no
    counts are multiplied and no states merged, so the route stays
    independent of the weighted path sums.

    Sizes are checked before the search starts: n must be nonnegative and
    at most the brute enumeration cap.
    """
    if n < 0:
        raise ValueError("negative sizes make no sense")
    limit = brute_cap()
    if n > limit:
        raise ValueError(
            f"enumerating n = {n} exceeds the enumeration cap {limit}; "
            f"set {BRUTE_CAP_ENV} to raise it"
        )
    # word[p] is the value at position p = 1..n, 0 while empty; word[n + 1] stays 0
    word = [0] * (n + 2)
    level = [0] * (n + 1)
    codes: list[str] = []

    def place(v: int) -> Iterator[tuple[int, ...]]:
        if v > n:
            yield tuple(word[1 : n + 1])
            return
        a = 0
        p = 1
        while p <= n:
            if word[p]:
                a = word[p]
                p += 1
                continue
            # every position of the empty run s..e has a and b (0 past a
            # border) as its nearest filled values, so they share a parent
            s = p
            while p <= n and not word[p]:
                p += 1
            e = p - 1
            b = word[p]
            parent = a if a > b else b
            lv = level[parent] + 1 if parent else 0
            closed = e < n or not open_right
            for q in range(s, e + 1):
                # only the run's ends touch a filled neighbour or a border
                left = q == s
                right = q == e and closed
                if left:
                    code = PEAK if right else DOUBLE_RISE
                else:
                    code = DOUBLE_FALL if right else VALLEY
                if keep(v, code, lv, codes):
                    word[q] = v
                    level[v] = lv
                    codes.append(code)
                    yield from place(v + 1)
                    codes.pop()
                    word[q] = 0

    return place(1)


# -- increasing binary trees ---------------------------------------------


class TreeNode(NamedTuple):
    value: int
    left: "TreeNode | None"
    right: "TreeNode | None"


def increasing_tree(perm: Sequence[int]) -> TreeNode | None:
    """The increasing binary tree: the minimum is the root and the two
    sides of its position recurse.  Values grow along every branch."""
    _check_perm(perm)

    def build(lo: int, hi: int) -> TreeNode | None:
        if lo > hi:
            return None
        m = lo
        for i in range(lo + 1, hi + 1):
            if perm[i] < perm[m]:
                m = i
        return TreeNode(perm[m], build(lo, m - 1), build(m + 1, hi))

    return build(0, len(perm) - 1)


def _nearest_smaller(perm: Sequence[int]) -> tuple[list[int], list[int]]:
    """Nearest smaller value to the left / right of each position, 0 when
    there is none."""
    n = len(perm)
    lsv = [0] * n
    rsv = [0] * n
    stack: list[int] = []
    for i, v in enumerate(perm):
        while stack and stack[-1] > v:
            stack.pop()
        lsv[i] = stack[-1] if stack else 0
        stack.append(v)
    stack.clear()
    for i in range(n - 1, -1, -1):
        v = perm[i]
        while stack and stack[-1] > v:
            stack.pop()
        rsv[i] = stack[-1] if stack else 0
        stack.append(v)
    return lsv, rsv


def tree_levels(perm: Sequence[int]) -> list[int]:
    """Depth of each value in the increasing tree, indexed by v - 1.

    The parent of v is the larger of its two nearest smaller values, so
    levels fill in increasing-value order without building the tree.
    """
    n = _check_perm(perm)
    lsv, rsv = _nearest_smaller(perm)
    pos = [0] * (n + 1)
    for i, v in enumerate(perm):
        pos[v] = i
    level = [0] * (n + 1)
    for v in range(1, n + 1):
        i = pos[v]
        parent = lsv[i] if lsv[i] > rsv[i] else rsv[i]
        level[v] = level[parent] + 1 if parent else 0
    return level[1:]


# -- the two parity classes ----------------------------------------------


def in_parity_classes(perm: Sequence[int]) -> tuple[bool, bool]:
    """Whether every odd-level (X) or every even-level (Y) tree node is
    a doubled node, read through the valley dictionary."""
    codes = classify(perm)
    levels = tree_levels(perm)
    in_x = True
    in_y = True
    for i, v in enumerate(perm):
        if codes[i] == VALLEY:
            continue
        if levels[v - 1] % 2:
            in_x = False
        else:
            in_y = False
    return in_x, in_y


def _parity_keep(parity: int) -> Callable[[int, str, int, list[str]], bool]:
    """Placement rule of class X (parity 0) or Y (parity 1): every
    non-valley sits at a level of that parity."""

    def keep(v: int, code: str, level: int, codes: list[str]) -> bool:
        return code == VALLEY or level % 2 == parity

    return keep


def parity_class_counts(n: int) -> tuple[int, int]:
    """(|X_n|, |Y_n|) by counting the pruned placements of each class.

    A value's local type and level are final once it is placed, so the
    first non-doubled node at a forbidden level condemns every completion
    of its prefix at once, and the cost follows the classes rather than
    n!.  Every member is still placed and checked on its own, which keeps
    the count independent of :func:`parity_class_counts_dp`.  The brute
    enumeration cap applies.
    """
    if n < 1:
        raise ValueError("the parity classes need at least one value")

    def count(parity: int) -> int:
        return sum(1 for _ in _placements(n, _parity_keep(parity)))

    return count(0), count(1)


def parity_class_counts_dp(n: int) -> tuple[int, int]:
    """The same pair through the free-slot parity walk.

    Values 1..n drop into the free slots of a growing binary tree; a
    slot at even or odd depth spawns two slots of the other parity.
    X needs every leftover slot at odd depth, Y at even depth.  With x
    counting even slots and y odd ones, the walk is the sacrificial urn
    grown from one x ball, so the pair is read off delta^n[x] as the
    coefficients of y^(n+1) and x^(n+1), the two ends of its row.  This
    route is independent of any permutation scan.  The rows are the urn
    rows that :func:`dixonian.urn.history_polynomials` shares, walked once
    per process; both ends are read in place, without a copy.
    """
    if n < 0:
        raise ValueError("negative sizes make no sense")
    slots = _history_rows(M12, 1, 0, n)[n]
    return slots[0], slots[-1]


def parity_class_members(which: str, n: int) -> list[tuple[int, ...]]:
    """All members of class X or Y in lexicographic order.  The brute
    enumeration cap applies.

    Placement prunes a prefix as soon as one value is a non-valley at a
    forbidden level, so the cost follows the class rather than n!; the
    same placements, counted without being listed, are
    :func:`parity_class_counts`."""
    parity = {"X": 0, "Y": 1}.get(which.upper())
    if parity is None:
        raise ValueError("the class is X or Y")
    return sorted(_placements(n, _parity_keep(parity)))


# -- unlabeled Y shapes ---------------------------------------------------


def tree_shape(perm: Sequence[int]) -> str:
    """Canonical string of the increasing-tree shape, labels dropped."""

    def walk(node: TreeNode | None) -> str:
        if node is None:
            return "."
        return "(" + walk(node.left) + walk(node.right) + ")"

    return walk(increasing_tree(perm))


def y_shape_counts(nu_max: int) -> list[int]:
    """Shapes available to Y-class trees on 3 nu nodes, nu = 0 .. nu_max.

    The shape grammar doubles every even-level node, which reads as
    Y = 1 + u Y^4 with u marking three nodes; the coefficients are the
    quartic analogues of the Catalan numbers, binom(4 nu, nu)/(3 nu + 1).
    """
    if nu_max < 0:
        raise ValueError("negative sizes make no sense")
    if nu_max == 0:
        return [1]
    one = PowerSeries.one(nu_max)
    u = PowerSeries.monomial(1, 1, nu_max)
    y = one
    for _ in range(nu_max + 1):
        y = one + series_mul(u, y**4)
    return [int(c) for c in y.coeffs]


# -- Francon-Viennot paths ------------------------------------------------


class _Hole:
    __slots__ = ()


def fv_encode(
    perm: Sequence[int], open_right: bool = False
) -> list[tuple[str, int]]:
    """History of a permutation as (letter, slot index) steps.

    Values are placed in increasing order; at each moment the unplaced
    positions form maximal runs, and the letter records what the new
    value does to its run: V splits it, P closes it, F chops its right
    end, R its left end.  With the closed right border the last value is
    forced and omitted (n - 1 steps); with the open border a virtual
    always-unplaced position n + 1 rides along and all n values step.
    """
    n = _check_perm(perm)
    pos = [0] * (n + 1)
    for i, v in enumerate(perm):
        pos[v] = i + 1
    intervals: list[list[int]] = [[1, n + 1 if open_right else n]]
    steps: list[tuple[str, int]] = []
    upto = n if open_right else n - 1
    for v in range(1, upto + 1):
        p = pos[v]
        idx = next(i for i, (lo, hi) in enumerate(intervals) if lo <= p <= hi)
        lo, hi = intervals[idx]
        left_open = p > lo
        right_open = p < hi
        if left_open and right_open:
            intervals[idx : idx + 1] = [[lo, p - 1], [p + 1, hi]]
            steps.append((VALLEY, idx))
        elif not left_open and not right_open:
            del intervals[idx]
            steps.append((PEAK, idx))
        elif left_open:
            intervals[idx] = [lo, p - 1]
            steps.append((DOUBLE_FALL, idx))
        else:
            intervals[idx] = [p + 1, hi]
            steps.append((DOUBLE_RISE, idx))
    if open_right:
        assert intervals == [[n + 1, n + 1]]
    else:
        assert intervals == [[pos[n], pos[n]]]
    return steps


def fv_decode(
    steps: Sequence[tuple[str, int]], n: int, open_right: bool = False
) -> tuple[int, ...]:
    """Inverse of :func:`fv_encode`: rebuild the permutation from its
    history.  Slots are symbolic holes whose extents emerge as later
    values land in them; an ill-formed history raises ValueError."""
    expected = n if open_right else n - 1
    if len(steps) != expected:
        raise ValueError(f"a history of {n} needs {expected} steps")
    first = _Hole()
    layout: list[object] = [first]
    holes: list[_Hole] = [first]
    for v, (letter, idx) in enumerate(steps, start=1):
        if not 0 <= idx < len(holes):
            raise ValueError(f"step {v} points at a missing slot")
        ghost = open_right and idx == len(holes) - 1
        hole = holes[idx]
        at = layout.index(hole)
        if letter == VALLEY:
            a, b = _Hole(), _Hole()
            layout[at : at + 1] = [a, v, b]
            holes[idx : idx + 1] = [a, b]
        elif letter == PEAK:
            if ghost:
                raise ValueError("the border slot cannot be closed")
            layout[at : at + 1] = [v]
            del holes[idx]
        elif letter == DOUBLE_FALL:
            if ghost:
                raise ValueError("the border slot has no placed right edge")
            layout[at : at + 1] = [hole, v]
        elif letter == DOUBLE_RISE:
            layout[at : at + 1] = [v, hole]
        else:
            raise ValueError(f"unknown step letter {letter!r}")
    if len(holes) != 1:
        raise ValueError("the history does not return to altitude zero")
    at = layout.index(holes[0])
    if open_right:
        del layout[at]
    else:
        layout[at] = n
    return tuple(layout)  # type: ignore[arg-type]


def sweepline_altitudes(perm: Sequence[int]) -> list[int]:
    """Altitude profile by a value sweep, closed borders: one less than
    the number of maximal runs of positions holding values above t, for
    t = 0 .. n - 1.  Matches the running altitude of :func:`fv_encode`.
    """
    n = _check_perm(perm)
    out = []
    for t in range(n):
        comps = 0
        prev = False
        for v in perm:
            cur = v > t
            if cur and not prev:
                comps += 1
            prev = cur
        out.append(comps - 1)
    return out


# -- weighted Motzkin paths ----------------------------------------------


def motzkin_path_total(
    length: int,
    alpha: Callable[[int], int],
    beta: Callable[[int], int],
    gamma: Callable[[int], int],
) -> int:
    """Total weight of nonnegative lattice paths of the given length
    from altitude 0 back to 0.  Each step is weighted by its starting
    altitude: alpha up, beta down, gamma level.  This is [w^length] of
    the J-fraction with c(l) = gamma(l) and a(l+1) = alpha(l) beta(l+1),
    read at altitude 0 of the last row of :func:`motzkin_rows`."""
    if length < 0:
        raise ValueError("paths have nonnegative length")
    height = length // 2
    up = [alpha(lvl) for lvl in range(height)]
    down = [beta(lvl + 1) for lvl in range(height)]
    level = [gamma(lvl) for lvl in range(height + 1)]
    *_, last = motzkin_rows(up, level, down, length)
    return last[0]


def permutation_path_total(
    n: int, open_right: bool = False, alternating: bool = False
) -> int:
    """Path count matching the slot weights of :func:`fv_encode`.

    Closed border: length n - 1, alpha = beta = l + 1, gamma = 2l + 2.
    Open border: length n, alpha = l + 1, beta = l, gamma = 2l + 1.
    ``alternating`` bars the level steps, leaving the valley-peak-only
    permutations: tangent counts on the closed side, secant on the open.
    """
    if n < 0:
        raise ValueError("negative sizes make no sense")
    zero = lambda lvl: 0  # noqa: E731
    if open_right:
        gamma = zero if alternating else (lambda lvl: 2 * lvl + 1)
        return motzkin_path_total(n, lambda lvl: lvl + 1, lambda lvl: lvl, gamma)
    if n == 0:
        return 1
    gamma = zero if alternating else (lambda lvl: 2 * lvl + 2)
    return motzkin_path_total(
        n - 1, lambda lvl: lvl + 1, lambda lvl: lvl + 1, gamma
    )


def valley_peak_only(perm: Sequence[int], open_right: bool = False) -> bool:
    """True when no value is a double fall or double rise: the zig-zag
    permutations of the chosen border convention."""
    return all(c in (VALLEY, PEAK) for c in classify(perm, open_right))


# -- block-repeated values ------------------------------------------------


def is_r_repeated(perm: Sequence[int], r: int, open_right: bool = False) -> bool:
    """True when each value block {jr + 1, ..., (j+1)r} (the last one
    possibly partial) carries a single local type."""
    if r < 1:
        raise ValueError("the block width is at least one")
    codes = code_by_value(perm, open_right)
    for base in range(0, len(codes), r):
        block = codes[base : base + r]
        if any(c != block[0] for c in block):
            return False
    return True


def _block_keep(r: int) -> Callable[[int, str, int, list[str]], bool]:
    """Placement rule of the r-repeated permutations: each value takes the
    type of the first value of its block."""
    if r < 1:
        raise ValueError("the block width is at least one")

    def keep(v: int, code: str, level: int, codes: list[str]) -> bool:
        first = (v - 1) // r * r
        return first == v - 1 or code == codes[first]

    return keep


def repeated_count_brute(n: int, r: int, open_right: bool = False) -> int:
    """Number of r-repeated permutations of n, by placing values and
    pruning each prefix whose newest value breaks its block.  The brute
    enumeration cap applies."""
    return sum(1 for _ in _placements(n, _block_keep(r), open_right))


def repeated_jfraction_tables(
    r: int, depth: int, open_right: bool = False
) -> tuple[list[int], list[int]]:
    """Closed-form partial quotients of the r-repeated counting series
    in w = z^r.

    Closed border (counts R at n = r nu + 1):
        c_j = 2 (jr + 1)^r,
        a_{j+1} = (jr+1) (jr+2)^2 ... (jr+r)^2 (jr+r+1).
    Open border (counts R* at n = r nu):
        c_j = (jr)^r + (jr+1)^r,
        a_{j+1} = ((jr+1) (jr+2) ... (jr+r))^2.
    """
    if r < 1 or depth < 1:
        raise ValueError("need a positive block width and depth")
    cs = []
    as_ = []
    for j in range(depth):
        base = j * r
        if open_right:
            cs.append(base**r + (base + 1) ** r)
        else:
            cs.append(2 * (base + 1) ** r)
    for j in range(depth - 1):
        base = j * r
        if open_right:
            prod = math.prod(base + i for i in range(1, r + 1))
            as_.append(prod * prod)
        else:
            inner = math.prod((base + i) ** 2 for i in range(2, r + 1))
            as_.append((base + 1) * inner * (base + r + 1))
    return cs, as_


def repeated_series(r: int, depth: int, open_right: bool = False) -> PowerSeries:
    """Expansion of the closed-form fraction, exact to order depth - 1
    in w."""
    cs, as_ = repeated_jfraction_tables(r, depth, open_right)
    return jfraction_to_series(cs, as_, depth - 1)


# -- polarized three-blocks ----------------------------------------------


def markable_windows(perm: Sequence[int]) -> int:
    """Number of value windows {3j+1, 3j+2, 3j+3} sitting on consecutive
    positions in ascending or descending order."""
    n = _check_perm(perm)
    pos = [0] * (n + 1)
    for i, v in enumerate(perm):
        pos[v] = i
    count = 0
    for j in range(n // 3):
        p1, p2, p3 = pos[3 * j + 1], pos[3 * j + 2], pos[3 * j + 3]
        if (p2 == p1 + 1 and p3 == p2 + 1) or (p2 == p1 - 1 and p3 == p2 - 1):
            count += 1
    return count


def polarized_total(n: int) -> int:
    """Sum of 2^(markable windows) over the 3-repeated permutations, which
    are placed as in :func:`repeated_count_brute` and under the same cap.
    This reproduces the smh coefficients at n = 1, 4, 7, ...
    """
    return sum(1 << markable_windows(perm) for perm in _placements(n, _block_keep(3)))


def polarized_c(ell: int) -> int:
    """Level weight of the polarized fraction: 2(3l+1)^3 + 2(3l+1)."""
    m = 3 * ell + 1
    return 2 * m**3 + 2 * m


# -- the derivative polynomials -------------------------------------------


def andre_weights(ell: int) -> tuple[int, int, int]:
    """Path weights induced by the derivative recurrence at level l:
    alpha up, beta down, gamma level.  They refactor the polarized
    fraction as c_l = gamma_l and a_{l+1} = alpha_l beta_{l+1}."""
    m = 3 * ell + 1
    alpha = m * (m + 1) * (m + 2)
    beta = (m - 2) * (m - 1) * m
    gamma = 2 * m * (m * m + 1)
    return alpha, beta, gamma


def andre_polynomials(k_max: int) -> list[dict[int, int]]:
    """P_k with d^(3k)/dz^(3k) smh = P_k(smh), as sparse coefficient
    maps.  P_0 = w and

        p_{k+1, m} = (m+1)(m+2)(m+3) p_{k, m+3}
                   + 2m(m^2+1) p_{k, m}
                   + (m-1)(m-2)(m-3) p_{k, m-3}.

    The support stays on m = 1 mod 3, so this is the weighted Motzkin
    walk of :func:`andre_weights` read at altitude l = (m - 1)/3: the
    coefficient of w^(3l+1) in P_k is the weight of the k-step paths
    that end at l, and P_k ends at w^(3k+1).

    The walk is grown once per process and shared: its first 128 rows
    are stored, and a longer request steps on from the last stored row
    without storing.  The dicts are fresh on every call.
    """
    if k_max < 0:
        raise ValueError("negative orders make no sense")
    rows = _ANDRE_ROWS.columns(k_max)[0]
    return [{3 * l + 1: c for l, c in enumerate(rows[k])} for k in range(k_max + 1)]


def _andre_step(
    rows: list[list[int]], up: list[int], level: list[int], down: list[int]
) -> None:
    """Append row k + 1 of the André walk after rows 0..k, and first the
    weights it reads one altitude higher: alpha_k, gamma_(k+1) and beta_(k+1)."""
    k = len(rows) - 1
    up.append(andre_weights(k)[0])
    _, beta, gamma = andre_weights(k + 1)
    level.append(gamma)
    down.append(beta)
    rows.append(motzkin_step(rows[-1], up, level, down))


# The André rows, with the up, level and down weights that reach them.
# The first 128 rows are stored, about 2.3 MB.
_ANDRE_ROWS_STORED = 128
_ANDRE_ROWS = GrowingTable(_andre_step, [[1]], [], [andre_weights(0)[2]], [],
                           cap=_ANDRE_ROWS_STORED)
