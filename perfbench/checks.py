"""Checks of the program's outputs against the references.

Each check returns an ``Outcome``: whether the output is right, and how
many decimal digits of the numbers it carries were verified.  A check
never consults a stored copy of the program's output.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

import reference as ref


@dataclass(frozen=True)
class Outcome:
    ok: bool
    digits: int
    detail: str = ""


def _digits(n: int) -> int:
    return len(str(abs(n))) if n else 0


def agreeing_places(value: mpf, truth: mpf, cap: int) -> int:
    """Decimal places on which value agrees with truth, at most cap."""
    with mp.workdps(cap + 30):
        diff = abs(value - truth)
        if diff == 0:
            return cap
        return max(0, min(cap, int(mpmath.floor(-mpmath.log10(diff)))))


class Context:
    """References shared by the checks of one run."""

    def __init__(self, n_max: int = 250):
        self.tables = ref.Tables(n_max)
        self._walks: dict[tuple[int, int], list[dict[int, int]]] = {}
        self._conrad: dict[tuple[str, str, int], bool] = {}
        self._evals: dict[tuple, mpf] = {}

    def walks(self, start: tuple[int, int], n: int) -> list[dict[int, int]]:
        have = self._walks.get(start, [])
        if len(have) <= n:
            have = ref.quadrant_walks(start, n)
            self._walks[start] = have
        return have

    def conrad(self, kind: str, family: str, depth: int) -> bool:
        key = (kind, family, depth)
        if key not in self._conrad:
            self._conrad[key] = ref.conrad_claim_holds(self.tables, kind, family, depth)
        return self._conrad[key]

    def eval_value(self, expr: str, arg: Fraction | None, dps: int) -> mpf:
        key = (expr, arg, dps)
        if key not in self._evals:
            self._evals[key] = ref.eval_reference(expr, arg, dps)
        return self._evals[key]


# -- CLI outputs --------------------------------------------------------------


def _lines(stdout: str) -> list[str]:
    return stdout.rstrip("\n").split("\n") if stdout.strip() else []


def _verdict(lines: list[str], rc: int, expected: bool = True) -> str | None:
    """None when the PASS/FAIL line and exit code say what was expected."""
    want = ("PASS", 0) if expected else ("FAIL", 1)
    got = lines[-1].split(":")[0] if lines else ""
    if (got, rc) != want:
        return f"expected {want[0]} with exit {want[1]}, got {got!r} with exit {rc}"
    return None


def check_series(ctx: Context, name: str, order: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    if rc != 0 or len(lines) != order + 1:
        return Outcome(False, 0, f"exit {rc}, {len(lines)} rows for order {order}")
    printed = []
    for n, line in enumerate(lines):
        parts = line.split(", ")
        if len(parts) != 3 or parts[0] != str(n) or not re.fullmatch(r"-?\d+", parts[2]):
            return Outcome(False, 0, f"row {n} malformed: {line!r}")
        k = int(parts[2])
        mid = "0" if k == 0 else (str(k) if n == 0 else f"{k}/{n}!")
        if parts[1] != mid:
            return Outcome(False, 0, f"row {n}: coefficient {parts[1]!r} vs integer {k}")
        printed.append(k)
    truth = ctx.tables.table(name)[: order + 1]
    if printed != truth:
        n = next(i for i, (a, b) in enumerate(zip(printed, truth)) if a != b)
        return Outcome(False, 0, f"{name}[{n}] = {printed[n]}, recurrence gives {truth[n]}")
    # The partner in the equation (cm for sm, cmh for smh) comes from the
    # recurrence; P's equation involves P alone.
    t = ctx.tables
    bad = ref.ode_residual(name, {"sm": t.sm, "cm": t.cm, "cmh": t.cmh, name: printed}, order)
    if bad is not None:
        return Outcome(False, 0, f"{name} breaks its differential equation at {bad}")
    return Outcome(True, sum(_digits(k) for k in printed))


def check_conrad(ctx: Context, kind: str, depth: int, rc: int, stdout: str) -> Outcome:
    families = list(ref.J_CLOSED) if kind == "j" else ["sm", "cm", "smcm"]
    expected = all(ctx.conrad(kind, f, depth) for f in families)
    lines = _lines(stdout)
    bad = _verdict(lines, rc, expected)
    if bad:
        return Outcome(False, 0, bad)
    want = [f"{kind}-{f}: {kind}-fraction {f}: all coefficients match" for f in families]
    if expected and lines[:-1] != want:
        return Outcome(False, 0, "per-family lines differ")
    return Outcome(True, 0)


def _numbers_by_line(lines: list[str], pattern: str) -> list[tuple[str, ...]] | None:
    out = []
    for line in lines:
        m = re.fullmatch(pattern, line)
        if not m:
            return None
        out.append(m.groups())
    return out


def check_parity(ctx: Context, n_max: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    bad = _verdict(lines, rc)
    rows = _numbers_by_line(lines[:-1], r"n=(\d+): X=(\d+) Y=(\d+)")
    if bad or rows is None or len(rows) != n_max:
        return Outcome(False, 0, bad or "malformed rows")
    digits = 0
    for n, x, y in rows:
        n, x, y = int(n), int(x), int(y)
        if (x, y) != (abs(ctx.tables.sm[n]), abs(ctx.tables.cm[n])):
            return Outcome(False, 0, f"n={n}: X={x} Y={y}")
        digits += _digits(x) + _digits(y)
    return Outcome(True, digits)


def check_andre(ctx: Context, k_max: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    bad = _verdict(lines, rc)
    rows = _numbers_by_line(lines[:-1], r"k=(\d+): P_(\d+)'\(0\) = (\d+)")
    if bad or rows is None or len(rows) != k_max + 1:
        return Outcome(False, 0, bad or "malformed rows")
    digits = 0
    for k, k2, value in rows:
        k, value = int(k), int(value)
        if k2 != str(k) or value != abs(ctx.tables.sm[3 * k + 1]):
            return Outcome(False, 0, f"k={k}: {value}")
        digits += _digits(value)
    return Outcome(True, digits)


def parse_poly(text: str, var: str = "z") -> list[Fraction]:
    """Read the CLI's polynomial rendering, e.g. '-4z^2 + 1', low order first."""
    terms = re.findall(rf"([+-]?)\s*(\d+(?:/\d+)?)?({var}(?:\^(\d+))?)?", text.replace(" ", ""))
    coeffs: dict[int, Fraction] = {}
    for sign, mag, mono, power in terms:
        if not mag and not mono:
            continue
        c = Fraction(mag) if mag else Fraction(1)
        if sign == "-":
            c = -c
        p = (int(power) if power else 1) if mono else 0
        coeffs[p] = coeffs.get(p, Fraction(0)) + c
    deg = max(coeffs) if coeffs else 0
    return [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]


def check_valent(ctx: Context, n_max: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    bad = _verdict(lines, rc)
    rows = _numbers_by_line(lines[:-1], r"Q(\d+): Q(\d+)\(z\) = (.+)")
    if bad or rows is None or len(rows) != n_max + 1:
        return Outcome(False, 0, bad or "malformed rows")
    moments = ref.family_moments(ctx.tables, "cm", 2 * n_max)
    digits = 0
    for n, n2, text in rows:
        poly = parse_poly(text)
        if n != n2 or len(poly) != int(n) + 1 or poly[-1] != 1:
            return Outcome(False, 0, f"Q{n} is not monic of degree {n}")
        j = ref.orthogonality_defect(poly, moments)
        if j is not None:
            return Outcome(False, 0, f"Q{n} fails orthogonality at w^{j}")
        digits += sum(_digits(c.numerator) for c in poly)
    return Outcome(True, digits)


def _series_div(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def check_width(ctx: Context, h_max: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    bad = _verdict(lines, rc)
    rows = _numbers_by_line(lines[:-1], r"h=(\d+): W(\d+) = \((.+)\) / \((.+)\)")
    if bad or rows is None or len(rows) != h_max:
        return Outcome(False, 0, bad or "malformed rows")
    secant = ref.secant_numbers(h_max)
    digits = 0
    for h, h2, num, den in rows:
        h = int(h)
        num_c, den_c = parse_poly(num), parse_poly(den)
        if h2 != str(h) or den_c[0] == 0:
            return Outcome(False, 0, f"W{h} malformed")
        series = _series_div(num_c, den_c, 2 * (h - 1))
        want = [Fraction(secant[k // 2]) if k % 2 == 0 else 0 for k in range(2 * h - 1)]
        if series != want:
            return Outcome(False, 0, f"W{h} does not expand to the secant numbers")
        digits += sum(_digits(c.numerator) for c in num_c + den_c)
    return Outcome(True, digits)


def check_repeated(ctx: Context, n_max: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    bad = _verdict(lines, rc)
    rows = _numbers_by_line(lines[:-1], r"r=(\d) (open|closed): counts ([\d, ]+)")
    if bad or rows is None or len(rows) != 6:
        return Outcome(False, 0, bad or "malformed rows")
    digits = 0
    for r, border, counts in rows:
        r = int(r)
        got = [int(c) for c in counts.split(", ")]
        if border == "open":
            ks = [n // r for n in range(r, n_max + 1) if n % r == 0]
        else:
            ks = [(n - 1) // r for n in range(1, n_max + 1) if n % r == 1 % r]
        moments = ref.repeated_counts(r, border == "open", max(ks))
        if got != [moments[k] for k in ks]:
            return Outcome(False, 0, f"r={r} {border}: {got}")
        digits += sum(_digits(c) for c in got)
    return Outcome(True, digits)


def check_urn(ctx: Context, n_max: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    expected = all(
        sum(ctx.walks(start, n_max)[n].values()) == math.factorial(n)
        for start in ((1, 0), (0, 1)) for n in range(1, n_max + 1)
    )
    bad = _verdict(lines, rc, expected)
    want = [f"start={s}: {n_max} draw lengths match" for s in "xy"]
    if bad or (expected and lines[:-1] != want):
        return Outcome(False, 0, bad or "per-start lines differ")
    return Outcome(True, 0)


def check_yule(ctx: Context, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    bad = _verdict(lines, rc)
    rows = _numbers_by_line(lines[:-1], r"rk4 vs closed form: max deviation (\S+)")
    if bad or not rows or float(rows[0][0]) >= 1e-9:
        return Outcome(False, 0, bad or "deviation missing or too large")
    return Outcome(True, 0)


def check_members(ctx: Context, which: str, n: int, rc: int, stdout: str) -> Outcome:
    lines = _lines(stdout)
    count = abs((ctx.tables.sm if which == "X" else ctx.tables.cm)[n])
    if rc != 0 or len(lines) != count:
        return Outcome(False, 0, f"exit {rc}, {len(lines)} members, expected {count}")
    perms = [tuple(int(v) for v in line.split()) for line in lines]
    identity = tuple(range(1, n + 1))
    for a, b in zip(perms, perms[1:]):
        if not a < b:
            return Outcome(False, 0, "members not in strict lexicographic order")
    for p in perms:
        if tuple(sorted(p)) != identity or not ref.in_class(p, which):
            return Outcome(False, 0, f"{p} is not in class {which}")
    return Outcome(True, 0)


def check_histories(ctx: Context, n: int, rc: int, stdout: str) -> Outcome:
    words = _lines(stdout)
    if rc != 0 or len(words) != math.factorial(n):
        return Outcome(False, 0, f"exit {rc}, {len(words)} words, expected {n}!")
    if any(len(w) != n + 1 or w.strip("xy") for w in words) or words != sorted(words):
        return Outcome(False, 0, "words malformed or unsorted")
    if Counter(w.count("x") for w in words) != Counter(ctx.walks((1, 0), n)[n]):
        return Outcome(False, 0, "histogram differs from the quadrant walk")
    return Outcome(True, 0)


def check_eval(ctx: Context, expr: str, arg: Fraction | None, digits: int,
               rc: int, stdout: str) -> Outcome:
    """Printed value within its printed bound of the reference, at the
    requested number of places."""
    lines = _lines(stdout)
    if rc != 0 or len(lines) != 2:
        return Outcome(False, 0, f"exit {rc}, {len(lines)} lines")
    m = re.fullmatch(r"error < 2e-(\d+)", lines[1])
    v = re.fullmatch(r"-?\d+(?:\.(\d+))?", lines[0])
    if not m or not v:
        return Outcome(False, 0, "malformed output")
    places = int(m.group(1))
    if len(v.group(1) or "") != places:
        return Outcome(False, 0, "printed places differ from the stated bound")
    truth = ctx.eval_value(expr, arg, digits + 10)
    with mp.workdps(digits + 30):
        value = mpf(lines[0])
        good = abs(value - truth) < 2 * mpf(10) ** -places
    agree = agreeing_places(value, truth, min(places, digits))
    if places < digits:
        return Outcome(False, agree, f"{places} places printed, {digits} asked")
    if not good:
        return Outcome(False, agree, f"off by more than 2e-{places}: {agree} places agree")
    return Outcome(True, agree)


# -- session results ------------------------------------------------------------


def session_value(raw) -> mpf:
    """The exact mpf that session.py wrote as (mantissa, exponent)."""
    man, exp = int(raw[0]), raw[1]
    with mp.workprec(max(53, man.bit_length())):
        return mpf((man, exp))


def check_session_call(ctx: Context, call: list, result) -> Outcome:
    """Check one library call's serialized result (see session.py).

    A NumericValue passes when the reference lies within its error bound;
    only these numeric results carry digits, the agreeing places."""
    kind, args = call[0], call[1:]
    t = ctx.tables
    if kind == "conrad":
        ok = result == ctx.conrad(*args)
        return Outcome(ok, 0, "" if ok else f"verify_conrad{tuple(args)} says {result}")
    if kind in ("smh", "cmh"):
        num, den, dps = args
        truth = ctx.eval_value(kind, Fraction(num, den), dps + 10)
        value, bound = session_value(result[0]), session_value(result[1])
        agree = agreeing_places(value, truth, dps)
        with mp.workdps(dps + 30):
            ok = abs(value - truth) <= bound
        return Outcome(ok, agree, "" if ok else f"{kind}({num}/{den}) off beyond its bound")
    if kind == "parity_dp":
        (n,) = args
        ok = result == [abs(t.sm[n]), abs(t.cm[n])]
        return Outcome(ok, 0)
    if kind == "history":
        p, q, n = args
        walks = ctx.walks((p, q), n)
        got = [{int(k): v for k, v in d.items()} for d in result]
        return Outcome(got == walks[: n + 1], 0)
    if kind == "andre":
        (k_max,) = args
        polys = [{int(m): c for m, c in d.items()} for d in result]
        ok = len(polys) == k_max + 1
        for k, poly in enumerate(polys if ok else []):
            ok = (poly.get(1) == abs(t.sm[3 * k + 1]) and max(poly) == 3 * k + 1
                  and all(m % 3 == 1 for m in poly))
            if not ok:
                break
        return Outcome(ok, 0)
    if kind in ("sm_hyp", "P"):
        (order,) = args
        table = t.sm if kind == "sm_hyp" else t.P
        got = [Fraction(c) for c in result]
        want = [Fraction(table[n], math.factorial(n)) for n in range(order + 1)]
        return Outcome(got == want, 0)
    raise ValueError(f"unknown session call {kind!r}")
