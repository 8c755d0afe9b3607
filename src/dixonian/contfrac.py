"""Continued fractions attached to the Dixonian pair.

Six ordinary generating functions built from sm and cm by the shifted
Borel-Laplace transfer admit J-fractions (and three of them S-fractions)
whose coefficients are explicit polynomial products of consecutive
integers.  This module builds the generating functions exactly, reads
J-fraction coefficients off their moments by the Chebyshev algorithm
(S-fractions through the contraction), expands fractions back as
weighted Motzkin path sums, carries the closed-form tables, and folds
convergents into exact rational functions by one Wallis recurrence.

Conventions, fixed once and used everywhere:

* J-fraction (standard form, all series in the reduced variable w):

      F(w) = 1 / (1 - c0 w - a1 w^2 / (1 - c1 w - a2 w^2 / (1 - ...)))

* S-fraction (plus convention):

      F(w) = 1 / (1 + d1 w / (1 + d2 w / (1 + ...)))

The closed-form tables list positive b(n) with c(n) = -b(n); the a(n) are
taken as printed.  Extraction from the actual series confirms the signs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from dixonian.core import DEFAULT_ORDER, PowerSeries
from dixonian.functions import _convolve, dixon_egf_product, dixon_egf_table

__all__ = [
    "JFraction",
    "SFraction",
    "RationalFunction",
    "J_FAMILIES",
    "S_FAMILIES",
    "family_ogf",
    "conrad_j_reference",
    "conrad_s_reference",
    "jfraction_extract",
    "sfraction_extract",
    "motzkin_rows",
    "motzkin_step",
    "jfraction_to_series",
    "sfraction_to_series",
    "contract_s_to_j",
    "verify_conrad",
    "VerifyReport",
    "convergent_j",
    "convergent_s",
    "snake_width_gf",
    "meixner_denominator",
    "valent_ops",
    "scd_transforms",
    "doubled_sequence",
    "J_WINDOW_OFFSET",
    "S_TRIPLE_OFFSET",
]


_Poly = list[Fraction | int]  # coefficients, low first


class JFraction(NamedTuple):
    cs: tuple[Fraction | int, ...]
    as_: tuple[Fraction | int, ...]


class SFraction(NamedTuple):
    ds: tuple[Fraction | int, ...]


# -- closed-form coefficient tables -----------------------------------

# J-families: name -> (a(n) for n >= 1, b(n) for n >= 0), with the
# fraction coefficient c(n) = -b(n).
J_FAMILIES: dict[str, tuple[Callable[[int], int], Callable[[int], int]]] = {
    "sm": (
        lambda n: (3 * n - 2) * (3 * n - 1) ** 2 * (3 * n) ** 2 * (3 * n + 1),
        lambda n: 2 * (3 * n + 1) * ((3 * n + 1) ** 2 + 1),
    ),
    "sm2": (
        lambda n: (3 * n - 1) * (3 * n) ** 2 * (3 * n + 1) ** 2 * (3 * n + 2),
        lambda n: 2 * (3 * n + 2) * ((3 * n + 2) ** 2 + 1),
    ),
    "sm3": (
        lambda n: (3 * n) * (3 * n + 1) ** 2 * (3 * n + 2) ** 2 * (3 * n + 3),
        lambda n: 2 * (3 * n + 3) * ((3 * n + 3) ** 2 + 1),
    ),
    "cm": (
        lambda n: (3 * n - 2) ** 2 * (3 * n - 1) ** 2 * (3 * n) ** 2,
        lambda n: (3 * n - 1) * (3 * n) ** 2 + (3 * n + 1) ** 2 * (3 * n + 2),
    ),
    "smcm": (
        lambda n: (3 * n - 1) ** 2 * (3 * n) ** 2 * (3 * n + 1) ** 2,
        lambda n: (3 * n) * (3 * n + 1) ** 2 + (3 * n + 2) ** 2 * (3 * n + 3),
    ),
    "sm2cm": (
        lambda n: (3 * n) ** 2 * (3 * n + 1) ** 2 * (3 * n + 2) ** 2,
        lambda n: (3 * n + 1) * (3 * n + 2) ** 2 + (3 * n + 3) ** 2 * (3 * n + 4),
    ),
}

# S-families: name -> d(k) for k >= 1, split by parity of k.
def _s_sm(k: int) -> int:
    r = (k + 1) // 2
    if k % 2:
        return (3 * r - 2) * (3 * r - 1) ** 2
    return (3 * r) ** 2 * (3 * r + 1)


def _s_cm(k: int) -> int:
    r = (k + 1) // 2
    if k % 2:
        return (3 * r - 2) ** 2 * (3 * r - 1)
    return (3 * r - 1) * (3 * r) ** 2


def _s_smcm(k: int) -> int:
    r = (k + 1) // 2
    if k % 2:
        return (3 * r - 1) ** 2 * (3 * r)
    return (3 * r) * (3 * r + 1) ** 2


S_FAMILIES: dict[str, Callable[[int], int]] = {"sm": _s_sm, "cm": _s_cm, "smcm": _s_smcm}

# Each family transforms the product sm^p cm^q that dixon_egf_table knows
# by the family's name; it starts at z^p, so the family's prefactor is
# p! x^(p+1).  This maps the name to p.
_FAMILY_P: dict[str, int] = {"sm": 1, "sm2": 2, "sm3": 3, "cm": 0, "smcm": 1, "sm2cm": 2}

# The doubled integers 1,1,2,2,3,3,... tile every coefficient table: each
# J-fraction a(n) is a six-element window at these offsets (stride 6), and
# each S-fraction d(k) is a three-element window after the same discard.
J_WINDOW_OFFSET = {"sm": 1, "sm2": 3, "sm3": 5, "cm": 0, "smcm": 2, "sm2cm": 4}
S_TRIPLE_OFFSET = {"sm": 1, "cm": 0, "smcm": 2}


def doubled_sequence(length: int) -> list[int]:
    return [k // 2 + 1 for k in range(length)]


# -- series construction ----------------------------------------------


def family_ogf(family: str, m_max: int) -> PowerSeries:
    """The reduced series G(w) with F(x) = p! x^(p+1) G(x^3), G(0) = 1.

    F is the shifted transfer of sm^p cm^q for the family's (p, q), so
    [x^(n+1)] F is the integer n! [z^n] sm^p cm^q, read off the sm, cm
    and sm cm tables through Dixon's system; the reduction divides out
    the prefactor and reads every third coefficient.
    """
    if family not in _FAMILY_P:
        raise ValueError(f"unknown family {family!r}: expected one of {', '.join(_FAMILY_P)}")
    p = _FAMILY_P[family]
    moments = dixon_egf_table(family, 3 * m_max + p)
    lead = math.factorial(p)
    g = PowerSeries([Fraction(moments[3 * m + p], lead) for m in range(m_max + 1)], m_max)
    if g.coefficient(0) != 1:
        raise AssertionError(f"family {family} did not normalize to G(0) = 1")
    return g


# -- extraction and rebuilding -----------------------------------------


def _narrow(x: Fraction | int) -> Fraction | int:
    """x as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def _quotient(p: Fraction | int, q: Fraction | int) -> Fraction | int:
    """p / q exactly: an int when it is integral, and never a float."""
    if isinstance(p, int) and isinstance(q, int):
        quo, rem = divmod(p, q)
        return Fraction(p, q) if rem else quo
    return _narrow(p / q)


def _chebyshev(moments: Sequence[Fraction | int], top: int) -> Iterator[Fraction | int]:
    """Yield c0, a1, c1, a2, ... of the J-fraction of sum moments[n] w^n.

    Gautschi's Chebyshev algorithm on the mixed moments
    s(k, l) = L(p_k w^l) of the monic orthogonal polynomials
    p_(k+1) = (w - c_k) p_k - a_k p_(k-1):

        s(k, l) = s(k-1, l+1) - c(k-1) s(k-1, l) - a(k-1) s(k-2, l),
        c(k) = s(k, k+1)/s(k, k) - s(k-1, k)/s(k-1, k-1),
        a(k) = s(k, k)/s(k-1, k-1).

    The j-th value yielded is the first one that needs moments[j], so
    moments[0..top] give at most top values.  A vanishing a(n) means the
    fraction terminates: it is not yielded, and nothing after it.

    Integral moments, c, a and shifts are carried as ints, so integer
    moments with integral coefficients never build a Fraction; other
    values stay Fractions.
    """
    prev: list[Fraction | int] = [0] * (top + 1)
    row = [_narrow(m) for m in moments[: top + 1]]
    a: Fraction | int = 0
    shift: Fraction | int = 0  # s(k-1, k)/s(k-1, k-1)
    k = 0
    while 2 * k + 1 <= top:
        ratio = _quotient(row[k + 1], row[k])
        c = _narrow(ratio - shift)
        yield c
        if 2 * k + 2 > top:
            return
        nxt = [0] * (k + 1) + [
            row[l + 1] - c * row[l] - a * prev[l] for l in range(k + 1, top - k)
        ]
        a = _quotient(nxt[k + 1], row[k])
        if a == 0:
            return
        yield a
        shift = ratio
        prev, row = row, nxt
        k += 1


def jfraction_extract(series: PowerSeries, depth: int) -> JFraction:
    """Read c0..c(depth-1) and a1..a(depth-1) off a series with G(0) = 1.

    The coefficients come from the Chebyshev algorithm on the moments
    (the series coefficients), in O(depth^2) exact operations.  A
    vanishing a(n) means the fraction terminates; extraction stops there.
    """
    if series.coefficient(0) != 1:
        raise ValueError("J-fraction extraction requires a series starting at 1")
    if series.order < 2 * depth:
        raise ValueError(
            f"depth {depth} needs {2 * depth + 1} coefficients, "
            f"got {series.order + 1}"
        )
    values = list(_chebyshev(series.coeffs, 2 * depth - 1))
    return JFraction(cs=tuple(values[0::2]), as_=tuple(values[1::2]))


def sfraction_extract(series: PowerSeries, depth: int) -> SFraction:
    """Read d1..d(depth) off a series with G(0) = 1, plus convention.

    The J pass on the same moments is unzipped through the contraction:
    d1 = -c0, d(2n) = a(n)/d(2n-1), d(2n+1) = -c(n) - d(2n).  Since d(m)
    needs the moments up to m only, the J pass reads moments 0..depth.
    Extraction stops at the first vanishing d(k).
    """
    if series.coefficient(0) != 1:
        raise ValueError("S-fraction extraction requires a series starting at 1")
    if series.order < depth:
        raise ValueError(f"depth {depth} needs {depth + 1} coefficients")
    ds: list[Fraction | int] = []
    for j, value in enumerate(_chebyshev(series.coeffs, depth)):
        if j == 0:
            d = -value
        elif j % 2:
            d = _quotient(value, ds[-1])
        else:
            d = -value - ds[-1]
        if d == 0:
            break
        ds.append(d)
    return SFraction(ds=tuple(ds))


def motzkin_rows(
    up: Sequence[Fraction | int], level: Sequence[Fraction | int],
    down: Sequence[Fraction | int], steps: int,
) -> Iterator[_Poly]:
    """Yield rows 0..steps of the weighted Motzkin walk from altitude 0.

    Entry l of row n is the total weight of the length-n paths that end
    at altitude l: a level step at l weighs level[l], an up step from l
    to l+1 weighs up[l], and a down step from l+1 to l weighs down[l].
    The height is capped at len(level) - 1, so row n has
    min(n, len(level) - 1) + 1 entries.  Integer weights give int rows.
    """
    row: _Poly = [1]
    yield row
    for _ in range(steps):
        row = motzkin_step(row, up, level, down)
        yield row


def motzkin_step(
    row: Sequence[Fraction | int], up: Sequence[Fraction | int],
    level: Sequence[Fraction | int], down: Sequence[Fraction | int],
) -> _Poly:
    """The row after ``row`` in :func:`motzkin_rows`, as a new list.

    It gains an entry while len(row) < len(level), so the weights must
    cover the altitudes 0..len(row) - 1, and up[len(row) - 1] too when
    the row grows.
    """
    top = len(row) - 1
    new = [level[l] * c for l, c in enumerate(row)]
    for l in range(top):
        new[l] += down[l] * row[l + 1]
        new[l + 1] += up[l] * row[l]
    if top + 1 < len(level):
        new.append(up[top] * row[top])
    return new


def jfraction_to_series(
    cs: Sequence[Fraction | int], as_: Sequence[Fraction | int], order: int
) -> PowerSeries:
    """Expand a J-fraction as a sum over weighted Motzkin paths.

    By Flajolet's path theorem [w^n] is the total weight of the paths of
    length n from altitude 0 back to 0: a level step at altitude l weighs
    c(l), and an up step from l, paired with its down step, weighs
    a(l+1).  The levels stop at the first missing coefficient; an as_ as
    long as cs adds one more level with c = 0.
    """
    levels = list(cs[: len(as_) + 1])
    if len(as_) >= len(cs):
        levels.append(0)
    walk = motzkin_rows(as_, levels, [1] * (len(levels) - 1), order)
    return PowerSeries([row[0] for row in walk], order)


def sfraction_to_series(ds: Sequence[Fraction | int], order: int) -> PowerSeries:
    """Expand an S-fraction through its contraction; the appended zero
    makes the contraction exact for a finite fraction."""
    return jfraction_to_series(*contract_s_to_j([*ds, 0]), order)


def contract_s_to_j(ds: Sequence[Fraction | int]) -> tuple[_Poly, _Poly]:
    """Even-odd contraction of an S-fraction into its J-fraction.

    c0 = -d1, c(n) = -(d(2n) + d(2n+1)), a(n) = d(2n-1) d(2n).
    """
    d = list(ds)
    if not d:
        return [], []
    cs = [-d[0]]
    as_: _Poly = []
    n = 1
    while 2 * n <= len(d):
        as_.append(d[2 * n - 2] * d[2 * n - 1])
        if 2 * n + 1 <= len(d):
            cs.append(-(d[2 * n - 1] + d[2 * n]))
        n += 1
    return cs, as_


def conrad_j_reference(family: str, max_n: int) -> JFraction:
    a_fn, b_fn = J_FAMILIES[family]
    cs = tuple(-b_fn(n) for n in range(max_n + 1))
    as_ = tuple(a_fn(n) for n in range(1, max_n + 1))
    return JFraction(cs=cs, as_=as_)


def conrad_s_reference(family: str, max_k: int) -> SFraction:
    d_fn = S_FAMILIES[family]
    return SFraction(ds=tuple(d_fn(k) for k in range(1, max_k + 1)))


class VerifyReport(NamedTuple):
    ok: bool
    message: str


def verify_conrad(
    kind: str, family: str, max_n: int, inject_fault: bool = False
) -> VerifyReport:
    """Extract fraction coefficients from the series and compare tables;
    the message names the first mismatch.

    ``inject_fault`` corrupts one extracted value first, to prove the
    comparison actually bites.
    """
    families = {"j": J_FAMILIES, "s": S_FAMILIES}.get(kind)
    if families is None:
        raise ValueError(f"unknown fraction kind {kind!r}")
    if family not in families:
        raise ValueError(
            f"unknown {kind}-fraction family {family!r}: expected one of {', '.join(families)}"
        )
    least = 0 if kind == "j" else 1  # any less compares no coefficient
    if max_n < least:
        raise ValueError(f"max_n must be >= {least} for a {kind}-fraction")
    if kind == "j":
        ref = conrad_j_reference(family, max_n)
        got = jfraction_extract(family_ogf(family, 2 * (max_n + 1)), max_n + 1)
        # (slot, index of the first entry, expected, extracted)
        slots = [("c", 0, ref.cs, list(got.cs)), ("a", 1, ref.as_, list(got.as_))]
    else:
        ds = sfraction_extract(family_ogf(family, max_n + 1), max_n).ds
        slots = [("d", 1, conrad_s_reference(family, max_n).ds, list(ds))]
    if inject_fault:
        slots[0][3][-1] += 1
    name = f"{kind}-fraction {family}"
    for slot, first, wanted, have in slots:
        for i, want in enumerate(wanted):
            if have[i] != want:
                found = f"{slot}({first + i}) expected {want}, extracted {have[i]}"
                return VerifyReport(False, f"{name}: {found}")
    return VerifyReport(True, f"{name}: all coefficients match")


# -- convergents --------------------------------------------------------


def _wallis(steps: Sequence[tuple[_Poly, _Poly]], before: _Poly) -> Iterator[_Poly]:
    """Yield X(1), X(2), ... of X(k) = D(k) X(k-1) + B(k) X(k-2), with
    X(0) = 1, X(-1) = before and steps[k-1] = (D(k), B(k)).

    These are the denominators of a fraction's convergents; trailing
    zeros are dropped, and zero terms are skipped in the products.
    """
    older, old = before, [1]
    for d, b in steps:
        new: _Poly = [0] * (max(len(d) + len(old), len(b) + len(older)) - 1)
        for factor, x in ((d, old), (b, older)):
            for i, f in enumerate(factor):
                if f:
                    for j, y in enumerate(x):
                        if y:
                            new[i + j] += f * y
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        older, old = old, new
        yield new


def _j_steps(
    cs: Sequence[Fraction | int], as_: Sequence[Fraction | int], depth: int
) -> list[tuple[_Poly, _Poly]]:
    """Wallis steps of a J-fraction: D(k) = 1 - c(k-1) w, B(k) = -a(k-1) w^2,
    and B(1) = 0, since it would multiply X(-1) = 0."""
    return [
        ([1, -cs[k]], [0, 0, -as_[k - 1] if k else 0])
        for k in range(depth)
    ]


def _convergent(steps: Sequence[tuple[_Poly, _Poly]], before: _Poly) -> RationalFunction:
    """The convergent over all the steps: the numerator is the denominator
    of the tail fraction, which starts one step later."""
    num = den = [1]
    for num in _wallis(steps[1:], before):
        pass
    for den in _wallis(steps, before):
        pass
    return RationalFunction(num=tuple(num), den=tuple(den))


class RationalFunction(NamedTuple):
    """An exact num/den pair of polynomials (coefficient lists, low first)."""

    num: tuple[Fraction | int, ...]
    den: tuple[Fraction | int, ...]

    def to_series(self, order: int) -> PowerSeries:
        return PowerSeries(list(self.num), order) / PowerSeries(list(self.den), order)

    def substitute_square(self) -> "RationalFunction":
        """Replace the variable w by z^2 (interleave zero coefficients)."""

        def spread(p: tuple[Fraction | int, ...]) -> tuple[Fraction | int, ...]:
            out: list[Fraction | int] = [0] * (2 * len(p) - 1)
            for i, c in enumerate(p):
                out[2 * i] = c
            return tuple(out)

        return RationalFunction(num=spread(self.num), den=spread(self.den))


def convergent_j(
    cs: Sequence[Fraction | int], as_: Sequence[Fraction | int], depth: int
) -> RationalFunction:
    """Exact depth-level truncation of a J-fraction (depth >= 1 uses c0..)."""
    return _convergent(_j_steps(cs, as_, depth), [0])


def convergent_s(ds: Sequence[Fraction | int], depth: int) -> RationalFunction:
    """Exact depth-level truncation of an S-fraction, plus convention:
    D(k) = 1 and B(k) = d(k) w from X(-1) = 1."""
    steps = [([1], [0, ds[k]]) for k in range(depth)]
    return _convergent(steps, [1])


def snake_width_gf(h: int) -> RationalFunction:
    """Width generating function of depth-h zigzag profiles, in z.

    The h-th function is the depth-(h-1) convergent of the S-fraction with
    d(j) = -j^2 (the secant numbers' fraction), read in w = z^2.
    """
    if h < 1:
        raise ValueError("h >= 1")
    ds = [-(j * j) for j in range(1, h)]
    conv = convergent_s(ds, h - 1)
    return conv.substitute_square()


def meixner_denominator(h: int) -> tuple[int, ...]:
    """Reversed h! [t^h] of (1+t^2)^(-1/2) exp(z arctan t), a polynomial in z.

    Both factors have integer EGF rows: (-1)^k ((2k-1)!!)^2 at t^(2k) and
    (-1)^k (2k)! at t^(2k+1).  The coefficient of z^j is entry h of the row
    of (1+t^2)^(-1/2) arctan^j / j!; step j of the ladder convolves the
    row of step j - 1 by the arctan row and divides exactly by j, since
    arctan^j / j! has integer EGF rows.  The z^h coefficient is 1, so the
    result starts at 1.
    Matches the denominator of snake_width_gf(h) for every h.
    """
    if h < 1:
        raise ValueError("h >= 1")
    row, atan = [0] * (h + 1), [0] * (h + 1)
    row[0] = atan[1] = 1
    for n in range(2, h + 1):  # odd entries of row, even ones of atan, stay 0
        row[n] = -row[n - 2] * (n - 1) ** 2
        atan[n] = -atan[n - 2] * (n - 1) * (n - 2)
    q = [row[h]]  # q[j] is the coefficient of z^j
    for j in range(1, h + 1):
        row = [
            sum(math.comb(n, k) * row[k] * atan[n - k] for k in range(n)) // j
            for n in range(h + 1)
        ]
        q.append(row[h])
    while q[0] == 0:  # Q_h is odd for odd h; q[h] == 1 ends the loop
        del q[0]
    return tuple(reversed(q))


# -- orthogonal polynomial sequence ------------------------------------


def valent_ops(max_n: int, route: str = "recurrence") -> list[_Poly]:
    """Monic polynomial sequence tied to the cm family, two independent ways.

    ``recurrence``: Q(n+1) = (z + b(n)) Q(n) - a(n) Q(n-1) with the cm
    J-fraction tables, so Q(n) is the depth-n convergent's denominator
    reversed (the Wallis recurrence read in z = 1/w).  ``gf``: coefficient
    of z^m in Q(n) read off as (3n)!/(3m)! [t^(3n)] ((1-t^3)^(-1/3)
    theta(t)^(3m)), where theta is the incomplete integral of
    (1-w^3)^(-2/3).  Both factors have integer EGF rows, prod_{i<=j}
    (3i-2)^2 (3i-1) at t^(3j) and (3i-2)(3i-1)^2 at t^(3j+1), convolved in
    integers; theta^k / k! has integer EGF rows, so (3m)! divides exactly.
    """
    if route == "recurrence":
        ref = conrad_j_reference("cm", max_n)
        dens = [[1], *_wallis(_j_steps(ref.cs, ref.as_, max_n), [0])]
        return [(den + [0] * (n + 1 - len(den)))[::-1] for n, den in enumerate(dens)]
    if route == "gf":
        order = 3 * max_n
        base, theta = [0] * (order + 2), [0] * (order + 2)
        b = t = 1
        for j in range(max_n + 1):
            base[3 * j], theta[3 * j + 1] = b, t
            b, t = b * (3 * j + 1) ** 2 * (3 * j + 2), t * (3 * j + 1) * (3 * j + 2) ** 2
        theta3 = _convolve(_convolve(theta, 1, theta, 1, order), 2, theta, 1, order)
        cols = [base]  # base * theta^(3m), one column per m
        for m in range(max_n):
            cols.append(_convolve(cols[-1], 0, theta3, 0, order))
        return [
            [cols[m][3 * n] // math.factorial(3 * m) for m in range(n + 1)]
            for n in range(max_n + 1)
        ]
    raise ValueError(f"unknown route {route!r}")


# -- transfer triangle S/C/D -------------------------------------------


def scd_transforms(max_n: int, order: int = DEFAULT_ORDER) -> dict[str, list[PowerSeries]]:
    """Shifted transfers of sm^n, sm^n cm, sm^n cm^2 for n = 0..max_n.

    Everything is computed directly from the exact integer moments; the
    recurrences that link the three ladders are the subject of the tests,
    not inputs to this construction.
    """
    return {
        name: [
            PowerSeries([0, *dixon_egf_product(n, q, order - 1)], order)
            for n in range(max_n + 1)
        ]
        for name, q in (("S", 0), ("C", 1), ("D", 2))
    }
