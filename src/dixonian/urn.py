"""Balanced two-colour urns whose histories are counted by sm and cm.

A replacement rule is iterated in two independent ways: as the
differential operator delta from :mod:`dixonian.core`, stepping the
integer coefficient rows of the homogeneous history polynomials (read on
exponent pairs, the weighted walk on the quadrant of ball counts), and as
in-place rewriting of words over {x, y}.  The monochrome slices of the
resulting history table reproduce the hyperbolic Dixonian coefficients,
and a continuous time embedding of the same urn solves the ODE system
X' = Y^2 - X, Y' = X^2 - Y.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, partial

from dixonian.core import GrowingTable, PowerSeries, delta_apply
from dixonian.numerics import NumericValue, abelian_I, eval_cmh, eval_smh

__all__ = [
    "UrnRule",
    "M12",
    "T23",
    "BRUTE_CAP_ENV",
    "DEFAULT_BRUTE_CAP",
    "brute_cap",
    "enumerate_histories",
    "history_polynomials",
    "history_count_table",
    "history_counts",
    "t23_opposite_counts",
    "xi_series",
    "ternary_path_counts",
    "yule_rk4",
    "yule_closed_form",
    "yule_value",
    "yule_size_law",
    "history_egf_partial",
    "history_composition_residual",
    "histogram_summary",
    "is_unimodal",
]

BRUTE_CAP_ENV = "DIXONIAN_BRUTE_CAP"
DEFAULT_BRUTE_CAP = 9


class UrnRule:
    """Replacement matrix of a balanced two-colour urn, in (a, b, s) form.

    Drawing an x ball removes a of them and adds s + a y balls; drawing a
    y ball removes b of them and adds s + b x balls.  Both rows of
    :attr:`matrix` sum to s, so every history of n draws ends with the
    same total of p + q + n s balls.
    """

    __slots__ = ("a", "b", "s")

    def __init__(self, a: int, b: int, s: int) -> None:
        if min(a, b) < 1:
            raise ValueError("each drawn colour must lose at least one ball")
        if s < 1:
            raise ValueError("only strictly growing balanced urns are modelled")
        for name, value in (("a", a), ("b", b), ("s", s)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("an UrnRule is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UrnRule):
            return NotImplemented
        return (self.a, self.b, self.s) == (other.a, other.b, other.s)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.s))

    def __repr__(self) -> str:
        return f"UrnRule(a={self.a}, b={self.b}, s={self.s})"

    @property
    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((-self.a, self.s + self.a), (self.s + self.b, -self.b))

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]]) -> "UrnRule":
        ((xx, xy), (yx, yy)) = rows
        if xx + xy != yx + yy:
            raise ValueError("replacement rows must share one balance")
        if xx >= 0 or yy >= 0:
            raise ValueError("the drawn colour must be removed")
        if xy < 0 or yx < 0:
            raise ValueError("off-diagonal additions cannot be negative")
        return cls(a=-xx, b=-yy, s=xx + xy)


M12 = UrnRule(a=1, b=1, s=1)
T23 = UrnRule(a=2, b=3, s=1)


# -- history tables through the operator ------------------------------


# Rows stored per urn start, and starts kept: the M12 rows from x up to
# n = 199 take about 1.4 MB.  A longer request walks on without storing.
_URN_ROWS_STORED = 200
_URN_STARTS_STORED = 8


def _delta_step(rule: UrnRule, rows: list[list[int]]) -> None:
    # delta_apply is looked up when the step runs, so a wrapper installed
    # on this module's name sees every step.
    rows.append(delta_apply(rows[-1], rule))


# Two threads that miss the cache together may each make a table for one
# start; both walk the same rows, and the cache keeps one of them.
@lru_cache(maxsize=_URN_STARTS_STORED)
def _history_table(rule: UrnRule, p: int, q: int) -> GrowingTable:
    row = [0] * (p + q + 1)
    row[p] = 1
    return GrowingTable(partial(_delta_step, rule), [row], cap=_URN_ROWS_STORED)


def _history_rows(rule: UrnRule, p: int, q: int, n: int) -> Sequence[list[int]]:
    """The rows delta^k[x^p y^q] for k = 0 .. n at least, shared with
    every other caller: read them, never change them."""
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("the urn needs a nonempty starting configuration")
    return _history_table(rule, p, q).columns(n)[0]


def history_polynomials(
    rule: UrnRule, p: int, q: int, n_max: int
) -> list[list[int]]:
    """delta^n[x^p y^q] for n = 0 .. n_max, each as a dense row.

    Balance makes every history polynomial homogeneous, of degree
    D = p + q + n s, so the n-th entry is the list whose j-th item is the
    coefficient of x^j y^(D-j): the number of length-n histories that
    end with j balls of the first colour and D - j of the second.

    The rows of each start (rule, p, q) are walked once per process and
    shared: the first 200 rows are stored, for the 8 starts asked last,
    and a longer walk steps on from the last stored row without storing.
    Each call returns fresh lists.
    """
    rows = _history_rows(rule, p, q, n_max)
    return [list(row) for row in rows[: max(n_max, 0) + 1]]


def history_count_table(
    rule: UrnRule, p: int, q: int, n_max: int
) -> list[dict[int, int]]:
    """History counts for every length 0 .. n_max, keyed by the final
    number of x balls.  The y count is redundant under balance.  The
    rows are read off :func:`history_polynomials`, and the dicts are
    fresh on every call."""
    return [
        {j: c for j, c in enumerate(row) if c}
        for row in history_polynomials(rule, p, q, n_max)
    ]


def history_counts(rule: UrnRule, p: int, q: int, n: int) -> dict[int, int]:
    """The counts of :func:`history_count_table` for length n alone."""
    row = _history_rows(rule, p, q, n)[max(n, 0)]
    return {j: c for j, c in enumerate(row) if c}


def t23_opposite_counts(nu_max: int) -> list[int]:
    """Coefficient of y^(3 nu + 3) in delta^(3 nu + 1)[x^2] for the 2-3
    urn, nu = 0 .. nu_max: the histories from two x balls that end all-y.

    These grow as (3 nu + 1)! 2^(nu + 1) times the EGF coefficients of
    smh * cmh, which is what the tests pin them against.
    """
    rows = history_polynomials(T23, 2, 0, 3 * nu_max + 1)
    return [rows[3 * nu + 1][0] for nu in range(nu_max + 1)]


# -- brute-force word enumeration --------------------------------------


def brute_cap() -> int:
    """Ceiling on brute-force draw counts, overridable through the
    DIXONIAN_BRUTE_CAP environment variable."""
    raw = os.environ.get(BRUTE_CAP_ENV)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BRUTE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"{BRUTE_CAP_ENV} must be nonnegative")
    return cap


def enumerate_histories(n: int, start: str = "x") -> Counter[str]:
    """Every length-n history of the sacrificial urn, as rewrite words.

    One draw replaces a single letter in place, x -> yy or y -> xx, so the
    word grows by one letter per draw and a start of length L admits
    L (L+1) ... (L+n-1) histories.  Different draw orders can leave the
    same word, so the histories come back as a multiset: each word maps
    to the number of histories that leave it, which is what the operator
    route counts.  Every position of each distinct word is rewritten and
    the new word inherits its multiplicity, so 9 draws from "x" end on
    341 distinct words rather than 9! = 362880 copies.
    """
    if n < 0:
        raise ValueError("cannot run a negative number of draws")
    if not start or set(start) - {"x", "y"}:
        raise ValueError("the starting word must be nonempty over {x, y}")
    limit = brute_cap()
    if n > limit:
        raise ValueError(
            f"{n} draws exceed the enumeration cap {limit}; "
            f"set {BRUTE_CAP_ENV} to raise it"
        )
    words = Counter({start: 1})
    for _ in range(n):
        step: Counter[str] = Counter()
        for w, mult in words.items():
            for i, ch in enumerate(w):
                nxt = w[:i] + ("yy" if ch == "x" else "xx") + w[i + 1 :]
                step[nxt] += mult
        words = step
    return words


# -- depletion paths ---------------------------------------------------


def xi_series(order: int) -> PowerSeries:
    """OGF of the depletion paths of the x count, indexed by length + 1.

    A depletion path follows the first coordinate alone: it starts at 1,
    steps by -1 or +2, and hits 0 for the first time at its final step.
    The support sits at powers 3 nu + 2 with the ternary-tree counts
    binom(3 nu, nu)/(2 nu + 1), and the series satisfies the tree
    equation x xi = x^3 + xi^3.
    """
    coeffs = [Fraction(0)] * (order + 1)
    # state[p] counts the prefixes that have stayed >= 1 so far; a path
    # first hits zero by stepping down from 1, so the path count at
    # length n is the weight on p = 1 after n - 1 constrained steps.
    state = {1: 1}
    for n in range(1, order):
        coeffs[n + 1] = Fraction(state.get(1, 0))
        nxt: dict[int, int] = {}
        for p, c in state.items():
            if p > 1:
                nxt[p - 1] = nxt.get(p - 1, 0) + c
            nxt[p + 2] = nxt.get(p + 2, 0) + c
        state = nxt
    return PowerSeries(coeffs, order)


def ternary_path_counts(nu_max: int) -> list[int]:
    """Depletion paths of length 3 nu + 1 for nu = 0 .. nu_max; equal to
    the ternary-tree numbers."""
    xi = xi_series(3 * nu_max + 2)
    return [int(xi.coefficient(3 * nu + 2)) for nu in range(nu_max + 1)]


# -- the Yule embedding -------------------------------------------------


def yule_rk4(
    steps: int, checkpoints: Sequence[float], t_max: float = 2.0
) -> dict[float, tuple[float, float]]:
    """Classical fixed-step Runge-Kutta for X' = Y^2 - X, Y' = X^2 - Y
    from (0, 1), reporting the state at each checkpoint.  The drift of the
    normalized two-type Yule composition is written out in each stage.

    Checkpoints must sit exactly on the step grid so the comparison with
    the closed form carries no interpolation error.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    h = t_max / steps
    want: dict[int, float] = {}
    for t in checkpoints:
        idx = round(t / h)
        if not 0 <= idx <= steps or abs(idx * h - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"checkpoint {t} is not on the integration grid")
        want[idx] = t
    out: dict[float, tuple[float, float]] = {}
    x, y = 0.0, 1.0
    if 0 in want:
        out[want[0]] = (x, y)
    for i in range(1, steps + 1):
        k1x, k1y = y * y - x, x * x - y
        sx, sy = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        k2x, k2y = sy * sy - sx, sx * sx - sy
        sx, sy = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        k3x, k3y = sy * sy - sx, sx * sx - sy
        sx, sy = x + h * k3x, y + h * k3y
        k4x, k4y = sy * sy - sx, sx * sx - sy
        x += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        if i in want:
            out[want[i]] = (x, y)
    return out


def yule_value(expr: str, t: Fraction, digits: int) -> NumericValue:
    """Certified X(t) (``expr`` "yuleX") or Y(t) ("yuleY") to ``digits``
    places: X(t) = e^-t smh(1 - e^-t) and Y(t) = e^-t cmh(1 - e^-t)."""
    from mpmath import mp, mpf

    if t < 0:
        raise ValueError("the embedding runs forward in time")
    with mp.workdps(digits + 15):
        decay = mp.exp(-mpf(t.numerator) / t.denominator)
        u = 1 - decay
        inner = eval_smh(u, digits + 5) if expr == "yuleX" else eval_cmh(u, digits + 5)
        value = decay * inner.value
        bound = decay * inner.error_bound + mpf(10) ** (-(digits + 10))
    return NumericValue(value=value, error_bound=bound)


def yule_closed_form(t: float, dps: int = 25) -> tuple[float, float]:
    """(X(t), Y(t)) as floats, read off :func:`yule_value`."""
    x, y = (float(yule_value(e, Fraction(t), dps).value) for e in ("yuleX", "yuleY"))
    return x, y


def yule_size_law(k: int, t: float) -> float:
    """Probability that a tagged clade has size k at time t: the
    geometric law e^-t (1 - e^-t)^(k-1), with mean e^t."""
    if k < 1:
        raise ValueError("clade sizes start at one")
    if t < 0:
        raise ValueError("the embedding runs forward in time")
    decay = math.exp(-t)
    return decay * (1.0 - decay) ** (k - 1)


# -- the bivariate closed form ------------------------------------------


def history_egf_partial(x0: Fraction, z: Fraction, n_max: int = 40) -> Fraction:
    """Exact truncation of the bivariate history EGF of the sacrificial
    urn grown from one x ball: sum over n <= n_max of z^n/n! times
    sum_k H_{n,k} x0^k."""
    total = Fraction(0)
    for n, row in enumerate(history_polynomials(M12, 1, 0, n_max)):
        at_x0 = sum(c * x0**j for j, c in enumerate(row) if c)
        total += z**n * at_x0 / math.factorial(n)
    return total


def history_composition_residual(
    x0: Fraction, z: Fraction, n_max: int = 40, dps: int = 30
) -> float:
    """|partial history EGF - closed form| at a rational point.

    The closed form is Delta * smh(Delta z + I(x0 / Delta)) with
    Delta = (1 - x0^3)^(1/3) and I the inverse of smh (the incomplete
    integral of (1 + w^3)^(-2/3)): the first integral X^3 - Y^3 of the
    associated ODE system pins Delta, and the shift places the initial
    condition X(0) = x0.
    """
    from mpmath import mp, mpf

    x0f, zf = Fraction(x0), Fraction(z)
    if not 0 <= x0f < 1:
        raise ValueError("x0 must sit in [0, 1) for the real closed form")
    lhs = history_egf_partial(x0f, zf, n_max)
    with mp.workdps(dps + 10):
        delta3 = 1 - x0f**3
        delta = (mpf(delta3.numerator) / delta3.denominator) ** (mpf(1) / 3)
        arg = (mpf(x0f.numerator) / x0f.denominator) / delta
    shift = abelian_I(arg, dps=dps)
    with mp.workdps(dps + 10):
        inner = delta * (mpf(zf.numerator) / zf.denominator) + shift.value
    closed = eval_smh(inner, digits=dps)
    with mp.workdps(dps + 10):
        rhs = delta * closed.value
        lhs_v = mpf(lhs.numerator) / lhs.denominator
        return float(abs(lhs_v - rhs))


# -- histogram shape ----------------------------------------------------


def histogram_summary(counts: Mapping[int, int]) -> dict[str, float]:
    """Mean, modal bin, spread, and skewness of a k -> count table,
    computed exactly before the final float conversion."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("the histogram is empty")
    mean = Fraction(sum(k * c for k, c in counts.items()), total)
    m2 = sum(c * (Fraction(k) - mean) ** 2 for k, c in counts.items()) / total
    m3 = sum(c * (Fraction(k) - mean) ** 3 for k, c in counts.items()) / total
    mode = max(sorted(counts), key=lambda k: counts[k])
    spread = math.sqrt(float(m2))
    skewness = float(m3) / spread**3 if spread else 0.0
    return {
        "mean": float(mean),
        "mode": float(mode),
        "spread": spread,
        "skewness": skewness,
    }


def is_unimodal(counts: Mapping[int, int]) -> bool:
    """True when the counts rise to a single peak and fall after it,
    read along increasing k."""
    values = [counts[k] for k in sorted(counts)]
    if not values:
        return False
    peak = values.index(max(values))
    rising = values[: peak + 1]
    falling = values[peak:]
    ok_up = all(a <= b for a, b in zip(rising, rising[1:]))
    ok_down = all(a >= b for a, b in zip(falling, falling[1:]))
    return ok_up and ok_down
