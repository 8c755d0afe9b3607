"""The four workloads: job lists for the CLI, the call mix for the session.

The seed orders the CLI jobs and draws the session's call parameters.  Job
lists are fixed so that every run repeats the same work; session
parameters are drawn stratified (one draw per equal slice of the range)
so that the total work of a round hardly depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks as C


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check of its output."""

    argv: tuple[str, ...]
    check: Callable[[C.Context, int, str], C.Outcome]
    # The job trips a fault documented in CHANGES.md, so a failed check
    # is expected until that fault is mended.
    known_fault: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _series(name: str, order: int) -> Job:
    return Job(("series", name, "--order", str(order)),
               lambda ctx, rc, out: C.check_series(ctx, name, order, rc, out))


def _eval(expr: str, arg: str | None, digits: int) -> Job:
    argv = ("eval", expr) + ((arg,) if arg else ()) + ("--digits", str(digits))
    value = Fraction(arg) if arg else None
    # NumericValue.to_string renders at mp.dps + 10 = 25 digits, and
    # eval_smh negates at 53 bits: see the FOUND lines in CHANGES.md.
    fault = digits > 24 or (expr == "smh" and digits > 15)
    return Job(argv, lambda ctx, rc, out: C.check_eval(ctx, expr, value, digits, rc, out),
               known_fault=fault)


def tables_jobs() -> list[Job]:
    jobs = [_series(name, order) for name, order in
            (("sm", 90), ("cm", 90), ("smh", 120), ("P", 120), ("sm", 150), ("cm", 150))]
    jobs += [
        Job(("verify", "conrad-j", "--depth", "12"),
            lambda ctx, rc, out: C.check_conrad(ctx, "j", 12, rc, out)),
        Job(("verify", "conrad-s", "--depth", "24"),
            lambda ctx, rc, out: C.check_conrad(ctx, "s", 24, rc, out)),
        Job(("verify", "andre", "--max-n", "11"),
            lambda ctx, rc, out: C.check_andre(ctx, 11, rc, out)),
        Job(("verify", "valent", "--max-n", "10"),
            lambda ctx, rc, out: C.check_valent(ctx, 10, rc, out)),
        Job(("verify", "width", "--max-n", "12"),
            lambda ctx, rc, out: C.check_width(ctx, 12, rc, out)),
    ]
    return jobs


def numeric_jobs() -> list[Job]:
    jobs = [_eval(*spec) for spec in (
        ("pi3", None, 15), ("pi3", None, 60), ("pi3", None, 600),
        ("smh", "1/2", 15), ("smh", "1/2", 100),
        ("smh", "17/10", 20),          # pole side, past the 0.95 pi3/3 hand-off
        ("smh", "3/2", 100),           # needs more than _MAX_SERIES_ORDER terms
        ("cmh", "-1", 20), ("cmh", "-1.7", 20), ("cmh", "1/3", 300),
        ("yuleX", "1", 20), ("yuleY", "2", 60),
    )]
    jobs.append(Job(("verify", "yule"), lambda ctx, rc, out: C.check_yule(ctx, rc, out)))
    return jobs


def combinatorics_jobs() -> list[Job]:
    return [
        Job(("verify", "parity", "--n", "9"),
            lambda ctx, rc, out: C.check_parity(ctx, 9, rc, out)),
        Job(("enumerate", "perms", "--n", "8", "--class", "Y"),
            lambda ctx, rc, out: C.check_members(ctx, "Y", 8, rc, out)),
        Job(("enumerate", "perms", "--n", "7", "--class", "X"),
            lambda ctx, rc, out: C.check_members(ctx, "X", 7, rc, out)),
        Job(("verify", "r-repeated", "--max-n", "8"),
            lambda ctx, rc, out: C.check_repeated(ctx, 8, rc, out)),
        Job(("verify", "urn", "--n", "9"),
            lambda ctx, rc, out: C.check_urn(ctx, 9, rc, out)),
        Job(("enumerate", "histories", "--n", "9"),
            lambda ctx, rc, out: C.check_histories(ctx, 9, rc, out)),
    ]


CLI_WORKLOADS = {
    "tables": tables_jobs,
    "numeric": numeric_jobs,
    "combinatorics": combinatorics_jobs,
}


# -- session ------------------------------------------------------------------

# eval_smh points are fixed: every eval_smh call at 30 digits trips the
# 53-bit negation fault, and fixed inputs keep the failed share identical
# across seeds.
SMH_POINTS = ((1, 5), (1, 2), (4, 5), (1, 1), (6, 5), (3, 2), (17, 10), (7, 4),
              (-1, 2), (-1, 1), (-3, 2), (-17, 10))
CMH_POINTS = ((8, 5), (-8, 5), (17, 10), (-17, 10))
J_FAMILIES = ("sm", "sm2", "sm3", "cm", "smcm", "sm2cm")
S_FAMILIES = ("sm", "cm", "smcm")


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of count equal slices of [lo, hi]."""
    width = hi - lo + 1
    out = []
    for i in range(count):
        a = lo + width * i // count
        b = max(a, lo + width * (i + 1) // count - 1)
        out.append(rng.randint(a, b))
    return out


def session_calls(rng: random.Random) -> list[list]:
    """About 260 library calls, each 0.05-80 ms once caches are warm."""
    calls: list[list] = []
    calls += [["conrad", "j", f, d] for f in J_FAMILIES for d in range(3, 9)]
    calls += [["conrad", "s", f, d] for f in S_FAMILIES for d in range(4, 19, 2)]
    calls += [["smh", num, den, 30] for num, den in SMH_POINTS]
    # Fixed eval_cmh points fill the EGF table cache to about order 1050 in
    # every warm-up (cmh(-8/5) sums about 1000 terms) and cover the
    # reflection side; seeded points stay where fewer terms suffice.
    calls += [["cmh", num, den, 30] for num, den in CMH_POINTS]
    calls += [["cmh", k, 50, 30] for k in _stratified(rng, -75, 75, 44)]
    calls += [["parity_dp", n] for n in _stratified(rng, 40, 160, 36)]
    calls += [["history", i % 2, 1 - i % 2, n]
              for i, n in enumerate(_stratified(rng, 20, 80, 36))]
    calls += [["andre", k] for k in _stratified(rng, 20, 80, 36)]
    # sm_via_hypergeometric recomputes its reversion every call: the tail.
    calls += [["sm_hyp", o] for o in (24, 24, 27, 27, 30, 30, 36, 36, 36, 36, 36)]
    # weierstrass_P reads dixon_series' lru_cache (orders 30, 45, 60).
    calls += [["P", o] for o in (30, 45, 60) * 6]
    rng.shuffle(calls)
    return calls


def session_known_fault(call: list) -> bool:
    """eval_smh at 30 digits (53-bit negation), and eval_cmh on the pole
    side of the reflection hand-off, z >= 0.95 pi3/3 = 1.678..., whose
    bound leaves out the rounding of 1/cm(v): see CHANGES.md."""
    return call[0] == "smh" or (call[0] == "cmh" and Fraction(call[1], call[2]) > Fraction(1678, 1000))
