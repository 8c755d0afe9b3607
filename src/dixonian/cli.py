"""Command-line front end for the library.

Four subcommands: ``series`` prints exact Taylor tables, ``verify`` runs
the dual-route theorem checks and reports PASS or the first mismatch,
``enumerate`` lists small witness sets, and ``eval`` prints validated
numeric values.  Output is deterministic in all three formats so it can
be diffed or piped into external plotting.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from dixonian.contfrac import (
    J_FAMILIES,
    S_FAMILIES,
    meixner_denominator,
    snake_width_gf,
    valent_ops,
    verify_conrad,
)
from dixonian.core import DEFAULT_ORDER
from dixonian.functions import _convolve, dixon_egf_integers, dixon_egf_table
from dixonian.numerics import _decimal, eval_cmh, eval_smh, pi3
from dixonian.permutations import (
    andre_polynomials,
    parity_class_counts,
    parity_class_counts_dp,
    parity_class_members,
    repeated_count_brute,
    repeated_series,
)
from dixonian.urn import (
    M12,
    check_brute,
    enumerate_histories,
    history_count_table,
    yule_closed_form,
    yule_rk4,
    yule_value,
)

ORDER_ENV = "DIXONIAN_ORDER"
FORMAT_ENV = "DIXONIAN_FORMAT"

_FORMATS = ("text", "json", "csv")

_EPILOG = """\
CSV columns:
  series:    n, coefficient, egf_integer
  verify:    check, status, detail
  enumerate: item
  eval:      expr, argument, value, error_bound

Environment overrides (flags win): DIXONIAN_ORDER, DIXONIAN_FORMAT,
DIXONIAN_BRUTE_CAP.

Exit codes: 0 success, 1 verification or domain failure, 2 usage error.
"""


class UsageError(Exception):
    pass


class CommandOutput(NamedTuple):
    exit_code: int
    lines: list[str]
    csv_header: list[str]
    csv_rows: Iterable[Sequence[str]]
    payload: dict


# -- configuration ---------------------------------------------------------


def resolve_format(args: argparse.Namespace) -> str:
    """The output format, from --format or else the environment."""
    fmt = args.format or os.environ.get(FORMAT_ENV) or "text"
    if fmt not in _FORMATS:
        raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
    return fmt


# -- series ----------------------------------------------------------------


def cmd_series(args: argparse.Namespace) -> CommandOutput:
    order = args.order
    if order is None:
        raw = os.environ.get(ORDER_ENV, str(DEFAULT_ORDER))
        try:
            order = int(raw)
        except ValueError:
            raise UsageError(f"{ORDER_ENV} must be an integer, got {raw!r}") from None
    if order < 0:
        raise UsageError("order must be nonnegative")
    name = args.function
    lines = []
    rows = []
    for n, k in enumerate(dixon_egf_table(name, order)):
        scaled = _decimal(k)
        if k == 0:
            mid = "0"
        elif n == 0:
            mid = scaled
        else:
            mid = f"{scaled}/{n}!"
        lines.append(f"{n}, {mid}, {scaled}")
        rows.append([str(n), mid, scaled])
    payload = {
        "command": "series",
        "function": name,
        "order": order,
        "rows": [
            {"n": int(r[0]), "coefficient": r[1], "egf_integer": r[2]}
            for r in rows
        ],
    }
    return CommandOutput(0, lines, ["n", "coefficient", "egf_integer"], rows, payload)


# -- verify ----------------------------------------------------------------


def _verify_conrad(
    kind: str, depth: int, inject_fault: bool, family: str | None = None
) -> list[tuple]:
    table = J_FAMILIES if kind == "j" else S_FAMILIES
    if family is not None and family not in table:
        raise UsageError(
            f"family must be one of {', '.join(table)} for conrad-{kind}"
        )
    families = [family] if family else list(table)
    checks = []
    for fam in families:
        rep = verify_conrad(kind, fam, depth, inject_fault=inject_fault)
        checks.append((f"{kind}-{fam}", rep.ok, rep.message))
    return checks


def _verify_parity(n_max: int, inject_fault: bool) -> list[tuple]:
    sm_ints, cm_ints = dixon_egf_integers(n_max)
    checks = []
    for n in range(1, n_max + 1):
        placed = parity_class_counts(n)
        if inject_fault and n == n_max:
            placed = (placed[0] + 1, placed[1])
        slots = parity_class_counts_dp(n)
        series = (abs(sm_ints[n]), abs(cm_ints[n]))
        ok = placed == slots == series
        if ok:
            detail = f"X={placed[0]} Y={placed[1]}"
        else:
            detail = f"placements {placed}, slot walk {slots}, series {series}"
        checks.append((f"n={n}", ok, detail))
    return checks


def _verify_repeated(n_max: int, inject_fault: bool) -> list[tuple]:
    checks = []
    for r in (1, 2, 3):
        for open_right in (False, True):
            border = "open" if open_right else "closed"
            if open_right:
                ns = [n for n in range(r, n_max + 1) if n % r == 0]
            else:
                ns = [n for n in range(1, n_max + 1) if n % r == 1 % r]
            if not ns:
                continue
            depth = (ns[-1] if open_right else ns[-1] - 1) // r + 1
            series = repeated_series(r, depth, open_right)
            # every permutation is 1-repeated, so the r = 1 rows compare
            # with n! and enumerate nothing (a mismatch still reads "brute")
            counts = [
                math.factorial(n) if r == 1 else repeated_count_brute(n, r, open_right)
                for n in ns
            ]
            if inject_fault:
                counts[-1] += 1
            closed = [
                series.coefficient((n if open_right else n - 1) // r) for n in ns
            ]
            ok = counts == closed
            if ok:
                detail = "counts " + ", ".join(str(b) for b in counts)
            else:
                detail = f"brute {counts} vs fraction [{', '.join(map(str, closed))}]"
            checks.append((f"r={r} {border}", ok, detail))
    return checks


def _verify_urn(n_max: int, inject_fault: bool) -> list[tuple]:
    checks = []
    for start, p, q in (("x", 1, 0), ("y", 0, 1)):
        table = history_count_table(M12, p, q, n_max)
        ok = True
        detail = f"{n_max} draw lengths match"
        for n in range(1, n_max + 1):
            counts: Counter[int] = Counter()
            for w, mult in enumerate_histories(n, start).items():
                counts[w.count("x")] += mult
            expected = dict(table[n])
            if inject_fault:
                counts[min(counts)] += 1
            total = sum(counts.values())
            if dict(counts) != expected or total != math.factorial(n):
                ok = False
                detail = f"n={n}: words {dict(counts)} vs operator {expected}"
                break
        checks.append((f"start={start}", ok, detail))
    return checks


def _verify_yule(_size: None, inject_fault: bool) -> list[tuple]:
    checkpoints = (0.25, 0.5, 1.0, 2.0)
    grid = yule_rk4(2000, checkpoints)
    worst = 0.0
    for t in checkpoints:
        cx, cy = yule_closed_form(t)
        rx, ry = grid[t]
        worst = max(worst, abs(rx - cx), abs(ry - cy))
    if inject_fault:
        worst += 1.0
    ok = worst < 1e-9
    return [("rk4 vs closed form", ok, f"max deviation {worst:.3e}")]


def _poly_str(coeffs: Sequence[Fraction | int]) -> str:
    parts = []
    for m in range(len(coeffs) - 1, -1, -1):
        c = coeffs[m]
        if c:
            mono = "" if m == 0 else ("z" if m == 1 else f"z^{m}")
            body = mono if m and abs(c) == 1 else f"{abs(c)}{mono}"
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def _verify_valent(n_max: int, inject_fault: bool) -> list[tuple]:
    rec = valent_ops(n_max, route="recurrence")
    gf = valent_ops(n_max, route="gf")
    if inject_fault:
        rec[-1] = list(rec[-1])
        rec[-1][0] += 1
    checks = []
    for n in range(n_max + 1):
        ok = rec[n] == gf[n]
        detail = f"Q{n}(z) = {_poly_str(rec[n])}"
        if not ok:
            detail += f" (gf route: {_poly_str(gf[n])})"
        checks.append((f"Q{n}", ok, detail))
    return checks


def _verify_width(h_max: int, inject_fault: bool) -> list[tuple]:
    checks = []
    for h in range(1, h_max + 1):
        gf = snake_width_gf(h)
        den = list(gf.den)
        if inject_fault:
            den[0] += 1
        meixner = meixner_denominator(h)
        ok = tuple(den) == meixner
        detail = f"W{h} = ({_poly_str(gf.num)}) / ({_poly_str(den)})"
        if not ok:
            detail += f" (meixner: {_poly_str(meixner)})"
        checks.append((f"h={h}", ok, detail))
    return checks


def _verify_andre(k_max: int, inject_fault: bool) -> list[tuple]:
    polys = andre_polynomials(k_max)
    if inject_fault:
        polys[-1][1] = polys[-1].get(1, 0) + 1
    # On EGF rows the 3k-th derivative of smh is its row shifted by 3k, and
    # one ladder by smh^3 gives smh^m on m = 1 mod 3, the derivative's class.
    order = 3 * k_max + 9
    smh = dixon_egf_table("smh", order)
    cube = _convolve(_convolve(smh, smh, order), smh, order)
    powers = {1: smh}
    for m in range(4, order + 1, 3):
        powers[m] = _convolve(powers[m - 3], cube, order)
    checks = []
    for k in range(k_max + 1):
        target = order - 3 * k
        # smh^m starts at z^m: terms past the target drop out, and a term
        # off that class would show at n = m, a mismatch.
        terms = {m: c for m, c in polys[k].items() if c and m <= target}
        compose_ok = terms.keys() <= powers.keys() and [
            sum(c * powers[m][n] for m, c in terms.items()) for n in range(target + 1)
        ] == smh[3 * k :]
        start, golden = polys[k].get(1, 0), smh[3 * k + 1]
        ok = compose_ok and start == golden
        detail = f"P_{k}'(0) = {start}"
        if not ok:
            detail = (
                f"compose {'ok' if compose_ok else 'mismatch'}, "
                f"start {start}, series {golden}"
            )
        checks.append((f"k={k}", ok, detail))
    return checks


class VerifyTarget(NamedTuple):
    """How ``verify`` runs one target: the flag that sets its size (None
    when it takes none), the default and the smallest size, whether the
    size drives a brute-force enumeration (and so sits under the brute-force
    cap), and the check, called as ``check(size, inject_fault)`` and
    returning (name, ok, detail) rows."""

    flag: str | None
    default: int | None
    least: int | None
    brute: bool
    check: Callable[..., list[tuple]]


VERIFY_TARGETS = {
    "conrad-j": VerifyTarget("--depth", 8, 1, False, partial(_verify_conrad, "j")),
    "conrad-s": VerifyTarget("--depth", 16, 1, False, partial(_verify_conrad, "s")),
    "parity": VerifyTarget("--n", 8, 1, True, _verify_parity),
    "r-repeated": VerifyTarget("--max-n", 7, 1, True, _verify_repeated),
    "urn": VerifyTarget("--n", 6, 1, True, _verify_urn),
    "yule": VerifyTarget(None, None, None, False, _verify_yule),
    "valent": VerifyTarget("--max-n", 4, 0, False, _verify_valent),
    "width": VerifyTarget("--max-n", 6, 1, False, _verify_width),
    "andre": VerifyTarget("--max-n", 6, 0, False, _verify_andre),
}
# --family picks one fraction family and so belongs to the conrad targets.
_FAMILY_TARGETS = ("conrad-j", "conrad-s")


def _flag_value(args: argparse.Namespace, flag: str) -> object:
    return getattr(args, flag[2:].replace("-", "_"))


def _check_cost(flag: str, size: int) -> None:
    """A brute-force size that :func:`check_brute` refuses, or a malformed
    cap, is a usage error."""
    try:
        check_brute(flag, size)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_verify(args: argparse.Namespace) -> CommandOutput:
    target = args.target
    row = VERIFY_TARGETS[target]
    takes = {row.flag, "--family" if target in _FAMILY_TARGETS else None}
    own = f"its size flag is {row.flag}" if row.flag else "it takes no size flag"
    for flag in ("--family", "--depth", "--n", "--max-n"):
        if flag not in takes and _flag_value(args, flag) is not None:
            raise UsageError(f"verify {target} does not take {flag}; {own}")
    size = None
    if row.flag is not None:
        size = _flag_value(args, row.flag)
        if size is None:
            size = row.default
        if size < row.least:
            raise UsageError(f"{row.flag} must be at least {row.least}")
        if row.brute:
            _check_cost(row.flag, size)
    extra = {} if args.family is None else {"family": args.family}
    checks = row.check(size, args.inject_fault, **extra)
    ok = all(c[1] for c in checks)
    lines = [f"{name}: {detail}" for name, _, detail in checks]
    if ok:
        lines.append("PASS")
    else:
        first = next(c for c in checks if not c[1])
        lines.append(f"FAIL: {first[0]}: {first[2]}")
    rows = [
        [name, "pass" if good else "fail", detail] for name, good, detail in checks
    ]
    payload = {
        "command": "verify",
        "target": target,
        "status": "PASS" if ok else "FAIL",
        "checks": [
            {"name": name, "ok": good, "detail": detail}
            for name, good, detail in checks
        ],
    }
    return CommandOutput(
        0 if ok else 1, lines, ["check", "status", "detail"], rows, payload
    )


# -- enumerate --------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> CommandOutput:
    if args.n < 0:
        raise UsageError("--n must be at least 0")
    _check_cost("--n", args.n)
    if args.kind == "histories":
        if args.cls is not None:
            raise UsageError("--class applies to perms only")
        start = args.start or "x"
        histories = enumerate_histories(args.n, start)
        words = sorted(histories)
        # text takes one block per distinct word and csv streams its rows:
        # only json builds an item per history (9! of them at n = 9)
        lines = [((w + "\n") * histories[w])[:-1] for w in words]
        rows: Iterable[list[str]] = ([w] for w in words for _ in range(histories[w]))
        payload_items: list = []
        if resolve_format(args) == "json":
            payload_items = [w for w in words for _ in range(histories[w])]
    else:
        if args.start is not None:
            raise UsageError("--start applies to histories only")
        if args.cls is None:
            raise UsageError("enumerate perms needs --class X or --class Y")
        members = parity_class_members(args.cls, args.n)
        lines = [" ".join(str(v) for v in perm) for perm in members]
        rows = ([it] for it in lines)
        payload_items = [list(perm) for perm in members]
    payload = {
        "command": "enumerate",
        "kind": args.kind,
        "n": args.n,
        "items": payload_items,
    }
    # lazy rows: a list of one-item lists per history costs more garbage
    # collection than the listing itself, and text and json never read it
    return CommandOutput(0, lines, ["item"], rows, payload)


# -- eval --------------------------------------------------------------------


def _parse_argument(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot read {raw!r} as a number") from None


def cmd_eval(args: argparse.Namespace) -> CommandOutput:
    digits = args.digits
    if digits < 10:
        raise UsageError("--digits must be at least 10")
    expr = args.expr
    if expr == "pi3":
        if args.argument is not None:
            raise UsageError("pi3 takes no argument")
        arg = None
        value = pi3(digits + 5)
    else:
        if args.argument is None:
            raise UsageError(f"{expr} needs an argument")
        arg = _parse_argument(args.argument)
        if expr == "smh":
            value = eval_smh(arg, digits + 5)
        elif expr == "cmh":
            value = eval_cmh(arg, digits + 5)
        else:
            value = yule_value(expr, arg, digits)
    places = min(digits, value.decimal_places())
    rendered = value.to_string(places)
    bound = f"2e-{places}"
    lines = [rendered, f"error < {bound}"]
    arg_str = None if arg is None else str(arg)
    payload = {
        "command": "eval",
        "expr": expr,
        "argument": arg_str,
        "value": rendered,
        "error_bound": bound,
    }
    rows = [[expr, "" if arg_str is None else arg_str, rendered, bound]]
    return CommandOutput(
        0, lines, ["expr", "argument", "value", "error_bound"], rows, payload
    )


# -- plumbing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=_FORMATS, default=None, help="output format"
    )
    common.add_argument(
        "--output", metavar="FILE", default=None, help="write output to FILE"
    )
    parser = argparse.ArgumentParser(
        prog="dixonian",
        description="Exact tables, theorem checks, listings, and numeric "
        "evaluation for the Dixonian function pair.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser(
        "series", parents=[common], help="print an exact coefficient table"
    )
    p_series.add_argument("function", choices=("sm", "cm", "smh", "cmh", "P"))
    p_series.add_argument(
        "--order", type=int, default=None, help=f"last row of the table (default {DEFAULT_ORDER})"
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a dual-route theorem check"
    )
    p_verify.add_argument("target", choices=tuple(VERIFY_TARGETS))
    p_verify.add_argument("--family", default=None, help="fraction family name")
    p_verify.add_argument("--depth", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_verify.add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )

    p_enum = sub.add_parser(
        "enumerate", parents=[common], help="list a small witness set"
    )
    p_enum.add_argument("kind", choices=("histories", "perms"))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--class", dest="cls", choices=("X", "Y"), default=None)
    p_enum.add_argument("--start", choices=("x", "y"), default=None)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="print a validated numeric value"
    )
    p_eval.add_argument("expr", choices=("smh", "cmh", "pi3", "yuleX", "yuleY"))
    p_eval.add_argument("argument", nargs="?", default=None)
    p_eval.add_argument(
        "--digits", type=int, default=30, help="decimal places (at least 10)"
    )

    return parser


def render(out: CommandOutput, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(out.lines) + "\n" if out.lines else ""
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(out.csv_header)
        writer.writerows(out.csv_rows)
        return buf.getvalue()
    import json

    return json.dumps(out.payload, indent=2) + "\n"


_DISPATCH = {
    "series": cmd_series,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "eval": cmd_eval,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse takes a negative fraction such as -17/10 for an option,
        # and leaves a value after an option, or after a `--` there, over:
        # eval claims one left-over value, or negative number, as its
        # argument (one given before the subcommand stays an error)
        if argv[0] == "eval" and args.argument is None:
            ended = extra[:1] == ["--"]
            value = extra[1:] if ended else extra
            if len(value) == 1 and (ended or re.match(r"[^-]|-\.?\d", value[0])):
                args.argument, extra = value[0], []
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        fmt = resolve_format(args)
        out = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = render(out, fmt)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return out.exit_code


if __name__ == "__main__":
    sys.exit(main())
