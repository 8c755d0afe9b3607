"""Continued fractions attached to the Dixonian pair.

Six ordinary generating functions built from sm and cm by the shifted
Borel-Laplace transfer admit J-fractions (and three of them S-fractions)
whose coefficients are explicit polynomial products of consecutive
integers.  This module builds the generating functions exactly, extracts
fraction coefficients by peeling, carries the closed-form tables, and
folds convergents into exact rational functions.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from dixonian.core import (
    DEFAULT_ORDER,
    PowerSeries,
    series_binomial_pow,
    series_integrate,
    series_mul,
)
from dixonian.functions import dixon_egf_product

__all__ = [
    "Monomial",
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


@dataclass(frozen=True)
class Monomial:
    """A prefactor coeff * x^power standing in front of a fraction in w = x^3."""

    coeff: Fraction
    power: int


@dataclass(frozen=True)
class JFraction:
    prefactor: Monomial | None
    cs: tuple[Fraction, ...]
    as_: tuple[Fraction, ...]

    @property
    def depth(self) -> int:
        return len(self.cs)

    def to_series(self, order: int) -> PowerSeries:
        return jfraction_to_series(self.cs, self.as_, order)


@dataclass(frozen=True)
class SFraction:
    prefactor: Monomial | None
    ds: tuple[Fraction, ...]

    @property
    def depth(self) -> int:
        return len(self.ds)

    def to_series(self, order: int) -> PowerSeries:
        return sfraction_to_series(self.ds, order)


# -- closed-form coefficient tables -----------------------------------

# J-families: name -> (prefactor, a(n) for n >= 1, b(n) for n >= 0), with
# the fraction coefficient c(n) = -b(n).
J_FAMILIES: dict[str, tuple[Monomial, Callable[[int], int], Callable[[int], int]]] = {
    "sm": (
        Monomial(Fraction(1), 2),
        lambda n: (3 * n - 2) * (3 * n - 1) ** 2 * (3 * n) ** 2 * (3 * n + 1),
        lambda n: 2 * (3 * n + 1) * ((3 * n + 1) ** 2 + 1),
    ),
    "sm2": (
        Monomial(Fraction(2), 3),
        lambda n: (3 * n - 1) * (3 * n) ** 2 * (3 * n + 1) ** 2 * (3 * n + 2),
        lambda n: 2 * (3 * n + 2) * ((3 * n + 2) ** 2 + 1),
    ),
    "sm3": (
        Monomial(Fraction(6), 4),
        lambda n: (3 * n) * (3 * n + 1) ** 2 * (3 * n + 2) ** 2 * (3 * n + 3),
        lambda n: 2 * (3 * n + 3) * ((3 * n + 3) ** 2 + 1),
    ),
    "cm": (
        Monomial(Fraction(1), 1),
        lambda n: (3 * n - 2) ** 2 * (3 * n - 1) ** 2 * (3 * n) ** 2,
        lambda n: (3 * n - 1) * (3 * n) ** 2 + (3 * n + 1) ** 2 * (3 * n + 2),
    ),
    "smcm": (
        Monomial(Fraction(1), 2),
        lambda n: (3 * n - 1) ** 2 * (3 * n) ** 2 * (3 * n + 1) ** 2,
        lambda n: (3 * n) * (3 * n + 1) ** 2 + (3 * n + 2) ** 2 * (3 * n + 3),
    ),
    "sm2cm": (
        Monomial(Fraction(2), 3),
        lambda n: (3 * n) ** 2 * (3 * n + 1) ** 2 * (3 * n + 2) ** 2,
        lambda n: (3 * n + 1) * (3 * n + 2) ** 2 + (3 * n + 3) ** 2 * (3 * n + 4),
    ),
}

# S-families: name -> (prefactor, d(k) for k >= 1), split by parity of k.
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


S_FAMILIES: dict[str, tuple[Monomial, Callable[[int], int]]] = {
    "sm": (Monomial(Fraction(1), 2), _s_sm),
    "cm": (Monomial(Fraction(1), 1), _s_cm),
    "smcm": (Monomial(Fraction(1), 2), _s_smcm),
}

# Which sm^p cm^q product each family transforms; the product starts at z^p.
_FAMILY_PRODUCT: dict[str, tuple[int, int]] = {
    "sm": (1, 0), "sm2": (2, 0), "sm3": (3, 0), "cm": (0, 1), "smcm": (1, 1), "sm2cm": (2, 1),
}

# The doubled integers 1,1,2,2,3,3,... tile every coefficient table: each
# J-fraction a(n) is a six-element window at these offsets (stride 6), and
# each S-fraction d(k) is a three-element window after the same discard.
J_WINDOW_OFFSET = {"sm": 1, "sm2": 3, "sm3": 5, "cm": 0, "smcm": 2, "sm2cm": 4}
S_TRIPLE_OFFSET = {"sm": 1, "cm": 0, "smcm": 2}


def doubled_sequence(length: int) -> list[int]:
    return [k // 2 + 1 for k in range(length)]


# -- series construction ----------------------------------------------


def family_ogf(family: str, m_max: int) -> PowerSeries:
    """The reduced series G(w) with F(x) = prefactor * G(x^3), G(0) = 1.

    F is the shifted transfer of sm^p cm^q for the family's (p, q), so
    [x^(n+1)] F is the integer n! [z^n] sm^p cm^q; the reduction divides
    out the prefactor and reads every third coefficient.
    """
    p, q = _FAMILY_PRODUCT[family]
    pre = (J_FAMILIES[family][0] if family in J_FAMILIES else S_FAMILIES[family][0])
    moments = dixon_egf_product(p, q, 3 * m_max + p)
    g = PowerSeries([moments[3 * m + p] / pre.coeff for m in range(m_max + 1)], m_max)
    if g.coefficient(0) != 1:
        raise AssertionError(f"family {family} did not normalize to G(0) = 1")
    return g


# -- extraction and rebuilding -----------------------------------------


def jfraction_extract(series: PowerSeries, depth: int) -> JFraction:
    """Peel c0..c(depth-1) and a1..a(depth-1) off a series with G(0) = 1.

    Each level inverts the current tail, reads c off the linear term, and
    divides the remainder by a w^2 to expose the next tail.  A vanishing
    a(n) means the fraction terminates; extraction stops there.
    """
    if series.coefficient(0) != 1:
        raise ValueError("J-fraction extraction requires a series starting at 1")
    if series.order < 2 * depth:
        raise ValueError(
            f"depth {depth} needs {2 * depth + 1} coefficients, "
            f"got {series.order + 1}"
        )
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
        if r.coefficient(0) != 0 or r.coefficient(1) != 0:
            raise AssertionError("peeling produced a remainder of wrong valuation")
        a = r.coefficient(2)
        if a == 0:
            break
        as_.append(a)
        f = PowerSeries(r.coeffs[2:], f.order - 2) / a
    return JFraction(prefactor=None, cs=tuple(cs), as_=tuple(as_))


def sfraction_extract(series: PowerSeries, depth: int) -> SFraction:
    """Peel d1..d(depth) off a series with G(0) = 1, plus convention."""
    if series.coefficient(0) != 1:
        raise ValueError("S-fraction extraction requires a series starting at 1")
    if series.order < depth:
        raise ValueError(f"depth {depth} needs {depth + 1} coefficients")
    ds: list[Fraction] = []
    g = series
    for _ in range(depth):
        h = PowerSeries.one(g.order) / g
        d = h.coefficient(1)
        if d == 0:
            break
        ds.append(d)
        g = PowerSeries((h - PowerSeries.one(h.order)).coeffs[1:], h.order - 1) / d
    return SFraction(prefactor=None, ds=tuple(ds))


def jfraction_to_series(
    cs: Sequence[Fraction | int], as_: Sequence[Fraction | int], order: int
) -> PowerSeries:
    """Expand a J-fraction to a series; exact to order 2*len(cs)-1 at least."""
    tail = PowerSeries.one(order)
    k = len(cs)
    for i in range(k - 1, -1, -1):
        body = PowerSeries.one(order) - PowerSeries.monomial(Fraction(cs[i]), 1, order)
        if i < len(as_):
            body = body - PowerSeries.monomial(Fraction(as_[i]), 2, order) * tail
        tail = PowerSeries.one(order) / body
    return tail


def sfraction_to_series(ds: Sequence[Fraction | int], order: int) -> PowerSeries:
    g = PowerSeries.one(order)
    for d in reversed(list(ds)):
        g = PowerSeries.one(order) + PowerSeries.monomial(Fraction(d), 1, order) / g
    return PowerSeries.one(order) / g


def contract_s_to_j(ds: Sequence[Fraction | int]) -> tuple[list[Fraction], list[Fraction]]:
    """Even-odd contraction of an S-fraction into its J-fraction.

    c0 = -d1, c(n) = -(d(2n) + d(2n+1)), a(n) = d(2n-1) d(2n).
    """
    d = [Fraction(x) for x in ds]
    if not d:
        return [], []
    cs = [-d[0]]
    as_: list[Fraction] = []
    n = 1
    while 2 * n <= len(d):
        as_.append(d[2 * n - 2] * d[2 * n - 1])
        if 2 * n + 1 <= len(d):
            cs.append(-(d[2 * n - 1] + d[2 * n]))
        n += 1
    return cs, as_


def conrad_j_reference(family: str, max_n: int) -> JFraction:
    pre, a_fn, b_fn = J_FAMILIES[family]
    cs = tuple(Fraction(-b_fn(n)) for n in range(max_n + 1))
    as_ = tuple(Fraction(a_fn(n)) for n in range(1, max_n + 1))
    return JFraction(prefactor=pre, cs=cs, as_=as_)


def conrad_s_reference(family: str, max_k: int) -> SFraction:
    pre, d_fn = S_FAMILIES[family]
    return SFraction(
        prefactor=pre, ds=tuple(Fraction(d_fn(k)) for k in range(1, max_k + 1))
    )


@dataclass
class VerifyReport:
    ok: bool
    kind: str
    family: str
    depth: int
    mismatches: list[dict] = field(default_factory=list)

    def first_message(self) -> str:
        if self.ok:
            return f"{self.kind}-fraction {self.family}: all coefficients match"
        m = self.mismatches[0]
        return (
            f"{self.kind}-fraction {self.family}: {m['slot']}({m['index']}) "
            f"expected {m['expected']}, extracted {m['got']}"
        )


def verify_conrad(
    kind: str, family: str, max_n: int, inject_fault: bool = False
) -> VerifyReport:
    """Extract fraction coefficients from the series and compare tables.

    ``inject_fault`` corrupts one extracted value first, to prove the
    comparison actually bites.
    """
    mismatches: list[dict] = []
    if kind == "j":
        ref = conrad_j_reference(family, max_n)
        series = family_ogf(family, 2 * (max_n + 1))
        got = jfraction_extract(series, max_n + 1)
        got_cs = list(got.cs)
        got_as = list(got.as_)
        if inject_fault and got_cs:
            got_cs[-1] += 1
        for n in range(max_n + 1):
            if got_cs[n] != ref.cs[n]:
                mismatches.append(
                    {
                        "slot": "c",
                        "index": n,
                        "expected": str(ref.cs[n]),
                        "got": str(got_cs[n]),
                    }
                )
        for n in range(1, max_n + 1):
            if got_as[n - 1] != ref.as_[n - 1]:
                mismatches.append(
                    {
                        "slot": "a",
                        "index": n,
                        "expected": str(ref.as_[n - 1]),
                        "got": str(got_as[n - 1]),
                    }
                )
    elif kind == "s":
        ref = conrad_s_reference(family, max_n)
        series = family_ogf(family, max_n + 1)
        got_s = sfraction_extract(series, max_n)
        got_ds = list(got_s.ds)
        if inject_fault and got_ds:
            got_ds[-1] += 1
        for k in range(1, max_n + 1):
            if got_ds[k - 1] != ref.ds[k - 1]:
                mismatches.append(
                    {
                        "slot": "d",
                        "index": k,
                        "expected": str(ref.ds[k - 1]),
                        "got": str(got_ds[k - 1]),
                    }
                )
    else:
        raise ValueError(f"unknown fraction kind {kind!r}")
    return VerifyReport(
        ok=not mismatches,
        kind=kind,
        family=family,
        depth=max_n,
        mismatches=mismatches,
    )


# -- convergents --------------------------------------------------------


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_scale(a: list[Fraction], c: Fraction) -> list[Fraction]:
    if c == 0:
        return [Fraction(0)]
    return [c * x for x in a]


@dataclass(frozen=True)
class RationalFunction:
    """An exact num/den pair of polynomials (coefficient lists, low first)."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def to_series(self, order: int) -> PowerSeries:
        return PowerSeries(list(self.num), order) / PowerSeries(list(self.den), order)

    def substitute_square(self) -> "RationalFunction":
        """Replace the variable w by z^2 (interleave zero coefficients)."""

        def spread(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
            out = [Fraction(0)] * (2 * len(p) - 1)
            for i, c in enumerate(p):
                out[2 * i] = c
            return tuple(out)

        return RationalFunction(num=spread(self.num), den=spread(self.den))


def convergent_j(
    cs: Sequence[Fraction | int], as_: Sequence[Fraction | int], depth: int
) -> RationalFunction:
    """Exact depth-level truncation of a J-fraction (depth >= 1 uses c0..)."""
    if depth < 1:
        return RationalFunction(num=(Fraction(1),), den=(Fraction(1),))
    num = [Fraction(1)]
    den = [Fraction(1), -Fraction(cs[depth - 1])]
    for i in range(depth - 2, -1, -1):
        one_minus = [Fraction(1), -Fraction(cs[i])]
        new_den = _poly_add(
            _poly_mul(one_minus, den),
            _poly_scale([Fraction(0), Fraction(0)] + num, -Fraction(as_[i])),
        )
        num, den = den, new_den
    return RationalFunction(num=tuple(num), den=tuple(den))


def convergent_s(ds: Sequence[Fraction | int], depth: int) -> RationalFunction:
    """Exact depth-level truncation of an S-fraction, plus convention."""
    if depth < 1:
        return RationalFunction(num=(Fraction(1),), den=(Fraction(1),))
    num = [Fraction(1)]
    den = [Fraction(1), Fraction(ds[depth - 1])]
    for i in range(depth - 2, -1, -1):
        new_den = _poly_add(den, _poly_scale([Fraction(0)] + num, Fraction(ds[i])))
        num, den = den, new_den
    return RationalFunction(num=tuple(num), den=tuple(den))


def snake_width_gf(h: int) -> RationalFunction:
    """Width generating function of depth-h zigzag profiles, in z.

    The h-th function is the depth-(h-1) convergent of the S-fraction with
    d(j) = -j^2 (the secant numbers' fraction), read in w = z^2.
    """
    if h < 1:
        raise ValueError("h >= 1")
    ds = [Fraction(-(j * j)) for j in range(1, h)]
    conv = convergent_s(ds, h - 1)
    return conv.substitute_square()


def meixner_denominator(h: int) -> tuple[Fraction, ...]:
    """Reversed, constant-normalized [t^h] of (1+t^2)^(-1/2) exp(z arctan t).

    Matches the denominator of snake_width_gf(h) for every h.
    """
    # Series in t whose coefficients are polynomials in z, kept as lists.
    order = h
    inv_sqrt = series_binomial_pow(
        PowerSeries([1, 0, 1], order), Fraction(-1, 2)
    )  # (1+t^2)^(-1/2)
    atan = series_integrate(
        PowerSeries.one(order - 1) / PowerSeries([1, 0, 1], order - 1)
    )  # arctan t
    # exp(z * atan) = sum_j z^j atan^j / j!; collect polynomials in z per t-power.
    polys: list[list[Fraction]] = [[Fraction(0)] for _ in range(order + 1)]
    power = PowerSeries.one(order)
    for j in range(order + 1):
        fact = math.factorial(j)
        for tpow in range(order + 1):
            c = power.coefficient(tpow) / fact
            if c:
                while len(polys[tpow]) <= j:
                    polys[tpow].append(Fraction(0))
                polys[tpow][j] += c
        power = series_mul(power, atan.truncate(order))
    # Multiply by (1+t^2)^(-1/2) in the t-direction.
    q_h = [Fraction(0)] * (h + 1)
    for tpow in range(h + 1):
        w = inv_sqrt.coefficient(h - tpow)
        if not w:
            continue
        for j, c in enumerate(polys[tpow]):
            if c:
                q_h[j] += w * c
    # q_h is Q_h(z); reverse and normalize the constant to 1.
    rev = list(reversed(q_h))
    lead = rev[0]
    if lead == 0:
        raise AssertionError("leading coefficient vanished")
    rev = [c / lead for c in rev]
    while len(rev) > 1 and rev[-1] == 0:
        rev.pop()
    return tuple(rev)


# -- orthogonal polynomial sequence ------------------------------------


def valent_ops(max_n: int, route: str = "recurrence") -> list[list[Fraction]]:
    """Monic polynomial sequence tied to the cm family, two independent ways.

    ``recurrence``: Q(n+1) = (z + b(n)) Q(n) - a(n) Q(n-1) with the cm
    J-fraction tables.  ``gf``: coefficient of z^m in Q(n) read off as
    (3n)!/(3m)! [t^(3n)] ((1-t^3)^(-1/3) theta(t)^(3m)), where theta is
    the incomplete integral of (1-w^3)^(-2/3).
    """
    if route == "recurrence":
        _, a_fn, b_fn = J_FAMILIES["cm"]
        polys = [[Fraction(1)]]
        if max_n >= 1:
            polys.append([Fraction(b_fn(0)), Fraction(1)])
        for n in range(1, max_n):
            z_plus_b = [Fraction(b_fn(n)), Fraction(1)]
            nxt = _poly_add(
                _poly_mul(z_plus_b, polys[n]),
                _poly_scale(polys[n - 1], Fraction(-a_fn(n))),
            )
            polys.append(nxt)
        return polys
    if route == "gf":
        if max_n == 0:
            return [[Fraction(1)]]
        order = 3 * max_n
        base = series_binomial_pow(
            PowerSeries([1, 0, 0, -1], order), Fraction(-1, 3)
        )  # (1-t^3)^(-1/3)
        theta = series_integrate(
            series_binomial_pow(PowerSeries([1, 0, 0, -1], order - 1), Fraction(-2, 3))
        )
        theta3 = theta**3
        polys = []
        cur = base  # base * theta^(3m), starting at m = 0
        cols: list[list[Fraction]] = []
        for m in range(max_n + 1):
            cols.append([cur.coefficient(3 * n) for n in range(max_n + 1)])
            if m < max_n:
                cur = series_mul(cur, theta3)
        for n in range(max_n + 1):
            poly = [
                Fraction(math.factorial(3 * n), math.factorial(3 * m)) * cols[m][n]
                for m in range(n + 1)
            ]
            polys.append(poly)
        return polys
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
