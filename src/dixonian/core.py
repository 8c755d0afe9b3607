"""Exact truncated power series and the urn operator delta.

Series construction and continued-fraction extraction run on integer
tables, the EGF rows n! [z^n] f and the moments read off them; the exact
:class:`PowerSeries` over ``fractions.Fraction`` hands their results out
and carries the independent routes.  The urn histories are integer
coefficient rows stepped by :func:`delta_apply`.  Nothing here rounds.

Reversion runs in integers: ``series_revert`` rescales f by
lam = lcm of the denominators of k! f_k / f_1 so that its EGF coefficients
are integers, solves the partial Bell polynomial recurrence for the
inverse's integer EGF coefficients in O(n^3) integer operations, and
builds one ``Fraction`` per coefficient at the end.

Tables whose entry n + 1 follows from the entries before it (the integer
EGF tables of sm and cm, the urn history rows, the André rows) are grown
once per process by :class:`GrowingTable` and shared by every caller.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Sequence

__all__ = [
    "DEFAULT_ORDER",
    "GrowingTable",
    "PowerSeries",
    "InvalidUrnStateError",
    "series_mul",
    "series_compose",
    "series_revert",
    "series_binomial_pow",
    "series_integrate",
    "series_derive",
    "delta_apply",
]

#: Truncation order used when callers do not ask for anything else.  High
#: enough for every golden table in the test suite, with headroom.
DEFAULT_ORDER = 60


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class PowerSeries:
    """A truncated formal power series with exact rational coefficients.

    ``order`` is the largest exponent whose coefficient is guaranteed
    correct; ``coeffs`` always has length ``order + 1``.  Asking for a
    coefficient beyond the order raises, it never silently returns 0.
    Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[object], order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            cs = [Fraction(0)]
        self._coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        return cls([1], order)

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        """The series z."""
        return cls([0, 1], order)

    @classmethod
    def monomial(cls, coeff: object, power: int, order: int = DEFAULT_ORDER) -> "PowerSeries":
        if power > order:
            raise ValueError("monomial power exceeds requested order")
        cs = [Fraction(0)] * (power + 1)
        cs[power] = _as_fraction(coeff)
        return cls(cs, order)

    # -- accessors -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("negative exponent")
        if n > self.order:
            raise IndexError(
                f"coefficient {n} requested but the series is only exact to order {self.order}"
            )
        return self._coeffs[n]

    def egf_coefficient(self, n: int) -> Fraction:
        """n! times the n-th coefficient (the EGF reading of the series)."""
        return self.coefficient(n) * math.factorial(n)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a series past its guaranteed order")
        return PowerSeries(self._coeffs[: order + 1], order)

    def evaluate(self, x: object) -> Fraction:
        """Exact Horner evaluation of the truncated polynomial at a rational."""
        xv = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * xv + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: object) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(
                [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)], n
            )
        q = _as_fraction(other)
        cs = list(self._coeffs)
        cs[0] += q
        return PowerSeries(cs, self.order)

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self._coeffs], self.order)

    def __sub__(self, other: object) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return self + (-other)
        return self + (-_as_fraction(other))

    def __rsub__(self, other: object) -> "PowerSeries":
        return (-self) + _as_fraction(other)

    def __mul__(self, other: object) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return series_mul(self, other)
        q = _as_fraction(other)
        return PowerSeries([c * q for c in self._coeffs], self.order)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return _series_div(self, other)
        q = _as_fraction(other)
        return self * (Fraction(1) / q)

    def __pow__(self, e: int) -> "PowerSeries":
        if not isinstance(e, int) or e < 0:
            raise ValueError("integer power >= 0 only; use series_binomial_pow otherwise")
        result = PowerSeries.one(self.order)
        base = self
        k = e
        while k:
            if k & 1:
                result = series_mul(result, base)
            k >>= 1
            if k:
                base = series_mul(base, base)
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(map(str, self._coeffs[:6]))
        tail = ", ..." if self.order > 5 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = ac[i]
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = bc[j]
            if bj:
                out[i + j] += ai * bj
    return PowerSeries(out, n)


def series_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner(z)), requiring inner(0) = 0, truncated at the min order."""
    if inner.coeffs[0] != 0:
        raise ValueError("series_compose requires inner constant term 0")
    n = min(outer.order, inner.order)
    inner_t = inner.truncate(n) if inner.order != n else inner
    acc = PowerSeries.monomial(outer.coeffs[n], 0, n)
    for k in range(n - 1, -1, -1):
        acc = series_mul(acc, inner_t) + outer.coeffs[k]
    return acc


def _series_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """a/b for b with unit (nonzero) constant term.  No Laurent fallback."""
    if b.coeffs[0] == 0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    n = min(a.order, b.order)
    b0inv = Fraction(1) / b.coeffs[0]
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(1, k + 1):
            bj = b.coeffs[j]
            if bj:
                acc -= bj * out[k - j]
        out.append(acc * b0inv)
    return PowerSeries(out, n)


def series_revert(f: PowerSeries) -> PowerSeries:
    """Compositional inverse g with f(g(z)) = z, in integers.

    Requires f(0) = 0 and f'(0) != 0.  The result keeps f's order: the first
    ``order`` coefficients of the inverse are exact.

    With c = f_1 and r_k = f_k / c, let lam be the lcm over k >= 2 of the
    denominators of k! r_k.  Then f~(w) = f(lam w) / (c lam) has integer
    EGF coefficients F_k = k! r_k lam^(k-1) and F_1 = 1, so its inverse
    g~ has integer EGF coefficients G_m too.  They follow from the partial
    Bell polynomials B(m, j) = m! [z^m] g~^j / j! (Comtet, Advanced
    Combinatorics, 3.8):

        B(m, j) = sum_i C(m-1, i-1) G_i B(m-i, j-1),
        G_m = -sum_(j >= 2) F_j B(m, j),

    the second because m! [z^m] f~(g~) = sum_j F_j B(m, j) vanishes for
    m >= 2.  Undoing the scaling, g_m = G_m / (m! c^m lam^(m-1)).  The
    cost is O(n^3) integer operations, fewer when f is sparse: zero G_i
    and zero table entries are skipped.
    """
    fc = f.coeffs
    if fc[0] != 0:
        raise ValueError("series_revert requires f(0) = 0")
    if f.order < 1 or fc[1] == 0:
        raise ValueError("series_revert requires f'(0) != 0")
    n = f.order
    p, q = fc[1].numerator, fc[1].denominator
    # k! r_k = k! f_k q / p as (num, den) in lowest terms, den > 0.
    scaled: list[tuple[int, int]] = []
    fact = 1
    for k in range(2, n + 1):
        fact *= k
        num, den = fact * fc[k].numerator * q, fc[k].denominator * p
        if den < 0:
            num, den = -num, -den
        common = math.gcd(num, den)
        scaled.append((num // common, den // common))
    lam = math.lcm(*(den for _, den in scaled))
    # F_k = (num / den) lam^(k-1), an integer since den divides lam.
    F = [0, 1] + [
        num * (lam // den) * lam ** (k - 2) for k, (num, den) in enumerate(scaled, 2)
    ]
    # bell[m] lists the nonzero (j, B(m, j)).
    bell: list[list[tuple[int, int]]] = [[(0, 1)], [(1, 1)]]
    G = [0, 1]
    for m in range(2, n + 1):
        row = [0] * (m + 1)
        for i in range(1, m):
            if G[i]:
                w = math.comb(m - 1, i - 1) * G[i]
                for j, b in bell[m - i]:
                    row[j + 1] += w * b
        row[1] = g_m = -sum(F[j] * row[j] for j in range(2, m + 1) if row[j])
        G.append(g_m)
        bell.append([(j, b) for j, b in enumerate(row) if b])
    out = [Fraction(0)]
    fact, qm, pm, lam_m = 1, 1, 1, 1
    for m in range(1, n + 1):
        fact, qm, pm = fact * m, qm * q, pm * p
        out.append(Fraction(G[m] * qm, fact * pm * lam_m))
        lam_m *= lam
    return PowerSeries(out, n)


def series_binomial_pow(f: PowerSeries, e: object) -> PowerSeries:
    """f**e for rational e and f(0) = 1, via the first-order ODE f h' = e f' h.

    The coefficient recurrence n h_n = sum_{j=1..n} ((e+1) j - n) f_j h_{n-j}
    follows by comparing [z^{n-1}] on both sides; it is exact and O(n^2).
    """
    if f.coeffs[0] != 1:
        raise ValueError("series_binomial_pow requires f(0) = 1")
    ev = _as_fraction(e)
    n = f.order
    fc = f.coeffs
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            fj = fc[j]
            if fj:
                acc += ((ev + 1) * j - m) * fj * out[m - j]
        out.append(acc / m)
    return PowerSeries(out, n)


def series_integrate(f: PowerSeries) -> PowerSeries:
    """Termwise antiderivative with constant 0; order grows by one."""
    out = [Fraction(0)]
    out.extend(c / (i + 1) for i, c in enumerate(f.coeffs))
    return PowerSeries(out, f.order + 1)


def series_derive(f: PowerSeries) -> PowerSeries:
    """Termwise derivative; order drops by one (never below zero)."""
    if f.order == 0:
        return PowerSeries.zero(0)
    out = [i * c for i, c in enumerate(f.coeffs)][1:]
    return PowerSeries(out, f.order - 1)


class InvalidUrnStateError(ValueError):
    """A delta step produced a negative exponent on a nonzero term."""


def delta_apply(row: list[int], rule) -> list[int]:
    """One delta step:  x^{1-a} y^{s+a} d/dx + x^{s+b} y^{1-b} d/dy.

    ``rule`` carries the balanced-urn shifts as integer attributes a, b, s
    (the M12 urn is a = b = s = 1, i.e. delta[x] = y^2, delta[y] = x^2).
    delta raises the total degree by s and the urn histories it counts are
    homogeneous, so a polynomial of degree D is held as the dense row
    ``row[j] = [x^j y^(D-j)]``, and the result is the row of degree D + s.

    Term x^j y^(D-j) moves to x^(j-a) with weight j and to x^(j+s+b) with
    weight D - j.  Read on exponent pairs, this is the weighted quadrant
    walk with steps (-a, s + a) and (s + b, -b), each weighted by the
    exponent it lowers; the urn tables and the free-slot parity walk run
    through it.  A nonzero entry with 0 < j < a or 0 < D - j < b would
    need a negative exponent: the urn left its reachable state space, and
    :class:`InvalidUrnStateError` names the lowest such term.
    """
    a, b, s = rule.a, rule.b, rule.s
    d = len(row) - 1
    out = [0] * (d + s + 1)
    for j in compress(range(d + 1), row):
        c = row[j]
        if 0 < j < a:
            raise InvalidUrnStateError(
                f"delta on x^{j} y^{d - j} gives exponent pair ({j - a}, {d - j + s + a})"
            )
        if 0 < d - j < b:
            raise InvalidUrnStateError(
                f"delta on x^{j} y^{d - j} gives exponent pair ({j + s + b}, {d - j - b})"
            )
        # No earlier term reaches slot j + s + b, so the d/dy move assigns
        # it; of slot j - a only the d/dy move of j - a - s - b came first.
        if j < d:
            out[j + s + b] = (d - j) * c
        if j:
            out[j - a] += j * c
    return out


class GrowingTable:
    """Parallel columns whose entry n + 1 follows from entries 0..n, grown
    on demand and shared by every caller.

    ``step(*columns)`` receives the columns as lists holding entries 0..n
    and appends entry n + 1 to each.  Growth runs under a lock and is
    published as one tuple of column tuples, so a reader never sees a
    half-grown table and no entry is stepped twice; a step that raises
    leaves the published table as it was.  At most ``cap`` entries are
    stored: a request past them steps on from the last stored entry in
    private lists, and stores nothing.  The columns are shared, so a
    caller that hands entries out copies them first.
    """

    __slots__ = ("_columns", "_step", "_cap", "_lock")

    def __init__(
        self, step: Callable[..., None], *seed: Sequence, cap: int | None = None
    ) -> None:
        self._columns = tuple(map(tuple, seed))
        self._step = step
        self._cap = cap
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """The number of entries stored so far."""
        return len(self._columns[0])

    def columns(self, n: int) -> Sequence[Sequence]:
        """The columns, each holding at least the entries 0..n: the shared
        tuples up to the cap, private lists past it.  A negative n raises."""
        if n < 0:
            raise ValueError(f"table sizes start at 0, got {n}")
        columns = self._columns
        if len(columns[0]) > n:
            return columns
        keep = n if self._cap is None else min(n, self._cap - 1)
        if len(columns[0]) <= keep:
            with self._lock:
                columns = self._columns
                if len(columns[0]) <= keep:
                    self._columns = columns = tuple(map(tuple, self._walk(columns, keep)))
        return columns if len(columns[0]) > n else self._walk(columns, n)

    def _walk(self, columns: tuple[Sequence, ...], n: int) -> list[list]:
        grown = [list(c) for c in columns]
        while len(grown[0]) <= n:
            self._step(*grown)
        return grown
