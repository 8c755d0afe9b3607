"""Reference values computed apart from the program under test.

Nothing here imports ``dixonian``.  Exact tables come from the benchmark's
own integer recurrences; numeric values come from mpmath by routes that
never touch a Taylor series of sm or cm.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp, mpf


# -- exact EGF tables -------------------------------------------------------


def dixon_egf(n_max: int) -> tuple[list[int], list[int]]:
    """(n! [z^n] sm, n! [z^n] cm) for n = 0..n_max.

    sm' = cm^2 and cm' = -sm^2 read on EGF integers as
    sm(n+1) = sum C(n,i) cm(i) cm(n-i) and cm(n+1) = -sum C(n,i) sm(i) sm(n-i),
    with the binomials taken from Pascal rows.
    """
    sm, cm = [0], [1]
    row = [1]
    for n in range(n_max):
        sm.append(sum(row[i] * cm[i] * cm[n - i] for i in range(n + 1)))
        cm.append(-sum(row[i] * sm[i] * sm[n - i] for i in range(n + 1)))
        row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]
    return sm, cm


def egf_mul(f: list[int], g: list[int], n_max: int) -> list[int]:
    """EGF product on integer tables: binomial convolution."""
    out = []
    row = [1]
    for n in range(n_max + 1):
        out.append(sum(row[i] * f[i] * g[n - i] for i in range(n + 1)))
        row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]
    return out


class Tables:
    """EGF integer tables of sm, cm, smh, cmh and P = smh cmh to one order."""

    def __init__(self, n_max: int):
        self.sm, self.cm = dixon_egf(n_max)
        self.smh = [(-1) ** (n + 1) * c for n, c in enumerate(self.sm)]
        self.cmh = [(-1) ** n * c for n, c in enumerate(self.cm)]
        self.P = egf_mul(self.smh, self.cmh, n_max)

    def table(self, name: str) -> list[int]:
        return getattr(self, name)


def ode_residual(name: str, t: dict[str, list[int]], n_max: int) -> int | None:
    """First index at which the printed tables break their differential
    equation, or None when they satisfy it up to n_max.

    sm' = cm^2, cm' = -sm^2, smh' = cmh^2 and P'^2 = 4 P^3 + 1, all on EGF
    integers.  ``t`` maps function names to printed tables.
    """
    if name in ("sm", "cm"):
        other = t["cm" if name == "sm" else "sm"]
        sq = egf_mul(other, other, n_max - 1)
        sign = 1 if name == "sm" else -1
        f = t[name]
        bad = [n for n in range(n_max) if f[n + 1] != sign * sq[n]]
    elif name == "smh":
        sq = egf_mul(t["cmh"], t["cmh"], n_max - 1)
        f = t["smh"]
        bad = [n for n in range(n_max) if f[n + 1] != sq[n]]
    elif name == "P":
        p = t["P"]
        dp = p[1:]
        lhs = egf_mul(dp, dp, n_max - 1)
        cube = egf_mul(egf_mul(p, p, n_max - 1), p, n_max - 1)
        rhs = [4 * c for c in cube]
        rhs[0] += 1
        bad = [n for n in range(n_max) if lhs[n] != rhs[n]]
    else:
        raise ValueError(name)
    return bad[0] if bad else None


# -- continued-fraction moments from the paper's closed forms ------------

# Each family transforms sm^p cm^q; the paper's coefficient tables follow.
FAMILY_POWERS = {
    "sm": (1, 0), "sm2": (2, 0), "sm3": (3, 0),
    "cm": (0, 1), "smcm": (1, 1), "sm2cm": (2, 1),
}

J_CLOSED = {
    "sm": (lambda n: (3*n - 2) * (3*n - 1)**2 * (3*n)**2 * (3*n + 1),
           lambda n: 2 * (3*n + 1) * ((3*n + 1)**2 + 1)),
    "sm2": (lambda n: (3*n - 1) * (3*n)**2 * (3*n + 1)**2 * (3*n + 2),
            lambda n: 2 * (3*n + 2) * ((3*n + 2)**2 + 1)),
    "sm3": (lambda n: (3*n) * (3*n + 1)**2 * (3*n + 2)**2 * (3*n + 3),
            lambda n: 2 * (3*n + 3) * ((3*n + 3)**2 + 1)),
    "cm": (lambda n: (3*n - 2)**2 * (3*n - 1)**2 * (3*n)**2,
           lambda n: (3*n - 1) * (3*n)**2 + (3*n + 1)**2 * (3*n + 2)),
    "smcm": (lambda n: (3*n - 1)**2 * (3*n)**2 * (3*n + 1)**2,
             lambda n: (3*n) * (3*n + 1)**2 + (3*n + 2)**2 * (3*n + 3)),
    "sm2cm": (lambda n: (3*n)**2 * (3*n + 1)**2 * (3*n + 2)**2,
              lambda n: (3*n + 1) * (3*n + 2)**2 + (3*n + 3)**2 * (3*n + 4)),
}


def _s_closed(family: str, k: int) -> int:
    r = (k + 1) // 2
    odd = k % 2 == 1
    if family == "sm":
        return (3*r - 2) * (3*r - 1)**2 if odd else (3*r)**2 * (3*r + 1)
    if family == "cm":
        return (3*r - 2)**2 * (3*r - 1) if odd else (3*r - 1) * (3*r)**2
    return (3*r - 1)**2 * (3*r) if odd else (3*r) * (3*r + 1)**2


def motzkin_moments(level, updown, k_max: int) -> list[int]:
    """Moments of 1/(1 - level(0) w - updown(1) w^2/(1 - level(1) w - ...)):
    weighted Motzkin paths, a down step from height h weighted updown(h)."""
    out = []
    state = {0: 1}
    for _ in range(k_max + 1):
        out.append(state.get(0, 0))
        nxt: dict[int, int] = {}
        for h, c in state.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + c
            nxt[h] = nxt.get(h, 0) + c * level(h)
            if h:
                nxt[h - 1] = nxt.get(h - 1, 0) + c * updown(h)
        state = nxt
    return out


def dyck_moments(lam, k_max: int) -> list[int]:
    """Moments of 1/(1 - lam(1) w/(1 - lam(2) w/(1 - ...))): Dyck paths of
    length 2k, a down step from height h weighted lam(h)."""
    out = [1]
    state = {0: 1}
    for step in range(1, 2 * k_max + 1):
        nxt: dict[int, int] = {}
        for h, c in state.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + c
            if h:
                nxt[h - 1] = nxt.get(h - 1, 0) + c * lam(h)
        state = nxt
        if step % 2 == 0:
            out.append(state.get(0, 0))
    return out


def family_moments(tables: Tables, family: str, k_max: int) -> list[Fraction]:
    """Coefficients of the reduced series G(w) of a fraction family, read
    off the EGF of sm^p cm^q at indices 3k + valuation."""
    p, q = FAMILY_POWERS[family]
    n_max = 3 * k_max + p
    f = [1] + [0] * n_max
    for _ in range(p):
        f = egf_mul(f, tables.sm, n_max)
    for _ in range(q):
        f = egf_mul(f, tables.cm, n_max)
    lead = f[p]
    return [Fraction(f[3 * k + p], lead) for k in range(k_max + 1)]


def conrad_claim_holds(tables: Tables, kind: str, family: str, depth: int) -> bool:
    """Whether the closed-form table of one family reproduces the series
    moments that fix its coefficients through the given depth."""
    if kind == "j":
        a, b = J_CLOSED[family]
        k_max = 2 * depth + 1
        closed = motzkin_moments(lambda h: -b(h), a, k_max)
    else:
        k_max = depth
        closed = dyck_moments(lambda h: -_s_closed(family, h), k_max)
    return closed == family_moments(tables, family, k_max)


def repeated_counts(r: int, open_right: bool, k_max: int) -> list[int]:
    """r-repeated permutation counts from the paper's J-fraction tables,
    summed as Motzkin paths; entry k counts sizes r k (+ 1 when closed)."""
    if open_right:
        def level(j):
            return (j * r) ** r + (j * r + 1) ** r

        def updown(j):
            base = (j - 1) * r
            prod = 1
            for i in range(1, r + 1):
                prod *= base + i
            return prod * prod
    else:
        def level(j):
            return 2 * (j * r + 1) ** r

        def updown(j):
            base = (j - 1) * r
            prod = (base + 1) * (base + r + 1)
            for i in range(2, r + 1):
                prod *= (base + i) ** 2
            return prod
    return motzkin_moments(level, updown, k_max)


def secant_numbers(k_max: int) -> list[int]:
    """E(0), E(2), ..., E(2 k_max) by the Seidel boustrophedon triangle."""
    row = [1]
    zigzag = [1]
    for n in range(1, 2 * k_max + 1):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        zigzag.append(row[-1])
    return zigzag[::2]


def quadrant_walks(start: tuple[int, int], n: int) -> list[dict[int, int]]:
    """Sacrificial-urn histories of k = 0..n draws by final number of x
    balls: the weighted walk (p, q) -> (p-1, q+2) with weight p and
    (p, q) -> (p+2, q-1) with weight q."""
    state = {start: 1}
    out = []
    for k in range(n + 1):
        hist: dict[int, int] = {}
        for (p, _q), c in state.items():
            hist[p] = hist.get(p, 0) + c
        out.append(hist)
        if k == n:
            break
        nxt: dict[tuple[int, int], int] = {}
        for (p, q), c in state.items():
            if p:
                nxt[(p - 1, q + 2)] = nxt.get((p - 1, q + 2), 0) + c * p
            if q:
                nxt[(p + 2, q - 1)] = nxt.get((p + 2, q - 1), 0) + c * q
        state = nxt
    return out


def in_class(perm: tuple[int, ...], which: str) -> bool:
    """Class X (Y): in the increasing binary tree every node at odd (even)
    depth has two children.  The tree is built by splitting at minima."""
    want = 1 if which == "X" else 0
    stack = [(0, len(perm), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if lo >= hi:
            continue
        m = min(range(lo, hi), key=perm.__getitem__)
        if depth % 2 == want and (m == lo or m == hi - 1):
            return False
        stack.append((lo, m, depth + 1))
        stack.append((m + 1, hi, depth + 1))
    return True


def orthogonality_defect(poly: list[Fraction], moments: list[Fraction]) -> int | None:
    """First j < deg with L[poly * w^j] != 0 under L[w^k] = moments[k], or
    the degree itself when L[poly * w^deg] vanishes; None if orthogonal."""
    n = len(poly) - 1
    for j in range(n + 1):
        s = sum(c * moments[i + j] for i, c in enumerate(poly))
        if (s != 0) != (j == n):
            return j
    return None


# -- numeric references -----------------------------------------------------

def pi3(dps: int) -> mpf:
    """pi3 = B(1/3, 1/3)."""
    with mp.workdps(dps):
        return mpmath.beta(mpf(1) / 3, mpf(1) / 3)


def _sm_small(z: mpf, dps: int) -> mpf:
    """Solve y 2F1(1/3, 2/3; 4/3; y^3) = z for 0 <= z <= pi3/6 by Newton.

    The left side is the incomplete integral of (1 - t^3)^(-2/3), which is
    convex in y, so Newton from y = z descends monotonically onto the root.
    """
    a, b, c = mpf(1) / 3, mpf(2) / 3, mpf(4) / 3

    def newton(y):
        f = y * mpmath.hyp2f1(a, b, c, y**3) - z
        return y - f * (1 - y**3) ** (mpf(2) / 3)

    y = z
    prec = 30
    with mp.workdps(prec):
        for _ in range(8):
            y = newton(y)
    while prec < dps:
        prec = min(2 * prec, dps)
        with mp.workdps(prec + 10):
            y = newton(newton(y))
    return y


def sm_cm(z, dps: int) -> tuple[mpf, mpf]:
    """(sm(z), cm(z)) for real z in (-pi3/3, pi3/3], to dps digits.

    Above pi3/6 the inversion runs on the reflected point, using
    sm(pi3/3 - w) = cm(w); below 0 it uses sm(-v) = -sm(v)/cm(v) and
    cm(-v) = 1/cm(v).
    """
    work = dps + 20
    with mp.workdps(work):
        z = mpf(z)
        if z < 0:
            s, c = sm_cm(-z, dps + 10)
            return -s / c, 1 / c
        third = pi3(work) / 3
        if z <= third / 2:
            s = _sm_small(z, work)
            return s, mpmath.cbrt(1 - s**3)
        c = _sm_small(third - z, work)
        return mpmath.cbrt(1 - c**3), c


def eval_reference(expr: str, arg: Fraction | None, dps: int) -> mpf:
    """Reference value of one CLI eval expression."""
    work = dps + 20
    with mp.workdps(work):
        if expr == "pi3":
            return pi3(work)
        x = mpf(arg.numerator) / arg.denominator
        if expr == "smh":
            return -sm_cm(-x, work)[0]
        if expr == "cmh":
            return sm_cm(-x, work)[1]
        decay = mpmath.exp(-x)
        s, c = sm_cm(decay - 1, work)
        return decay * (-s if expr == "yuleX" else c)
