"""Show that the benchmark's checks turn red on wrong output.

    python3 perfbench/selftest.py

Runs a few real CLI jobs and library calls, confirms their outputs pass,
then feeds the checks corrupted copies (a flipped digit in an eval value,
a count off by one in a table, a wrong library result) and runs each
``verify`` target with ``--inject-fault``.  Every corrupted or faulted
operation must be counted as failed.  Exits 1 if any check stays green.
"""

from __future__ import annotations

import sys

import checks as C
import run as R
import workloads as W


def flip_digit(text: str, line: int, pos: int) -> str:
    lines = text.split("\n")
    s = lines[line]
    lines[line] = s[:pos] + str((int(s[pos]) + 1) % 10) + s[pos + 1:]
    return "\n".join(lines)


def bump_series_row(text: str, n: int) -> str:
    lines = text.split("\n")
    k = int(lines[n].split(", ")[2]) + 1
    lines[n] = f"{n}, {k}/{n}!, {k}"
    return "\n".join(lines)


def main() -> int:
    R.WORK.mkdir(exist_ok=True)
    env = R.program_env()
    ctx = C.Context()
    tally = R.Tally()
    problems = []

    def expect(label: str, outcome: C.Outcome, ok: bool) -> None:
        tally.add(label, outcome, known_fault=not ok, times=1)
        status = "pass" if outcome.ok else "FAIL"
        print(f"{status:4}  {label}  {outcome.detail}")
        if outcome.ok != ok:
            problems.append(label)

    def cli(job: W.Job) -> tuple[int, str]:
        _, _, _, rc, out = R.spawn([sys.executable, "-m", "dixonian.cli", *job.argv], env)
        return rc, out

    eval_job = W._eval("pi3", None, 15)
    rc, out = cli(eval_job)
    expect("eval pi3 --digits 15", eval_job.check(ctx, rc, out), ok=True)
    expect("eval pi3, one digit flipped", eval_job.check(ctx, rc, flip_digit(out, 0, 9)), ok=False)

    series_job = W._series("sm", 30)
    rc, out = cli(series_job)
    expect("series sm --order 30", series_job.check(ctx, rc, out), ok=True)
    expect("series sm, row 7 off by one", series_job.check(ctx, rc, bump_series_row(out, 7)), ok=False)

    parity = W.Job(("verify", "parity", "--n", "6"),
                   lambda c, rc, out: C.check_parity(c, 6, rc, out))
    rc, out = cli(parity)
    expect("verify parity --n 6", parity.check(ctx, rc, out), ok=True)
    expect("verify parity, Y count off by one",
           parity.check(ctx, rc, out.replace("Y=40", "Y=41")), ok=False)

    injected = [
        (("verify", "parity", "--n", "6"), lambda c, rc, o: C.check_parity(c, 6, rc, o)),
        (("verify", "conrad-j", "--depth", "4"), lambda c, rc, o: C.check_conrad(c, "j", 4, rc, o)),
        (("verify", "conrad-s", "--depth", "6"), lambda c, rc, o: C.check_conrad(c, "s", 6, rc, o)),
        (("verify", "andre", "--max-n", "4"), lambda c, rc, o: C.check_andre(c, 4, rc, o)),
        (("verify", "valent", "--max-n", "4"), lambda c, rc, o: C.check_valent(c, 4, rc, o)),
        (("verify", "width", "--max-n", "5"), lambda c, rc, o: C.check_width(c, 5, rc, o)),
        (("verify", "r-repeated", "--max-n", "6"), lambda c, rc, o: C.check_repeated(c, 6, rc, o)),
        (("verify", "urn", "--n", "5"), lambda c, rc, o: C.check_urn(c, 5, rc, o)),
        (("verify", "yule"), lambda c, rc, o: C.check_yule(c, rc, o)),
    ]
    for argv, check in injected:
        job = W.Job(argv + ("--inject-fault",), check)
        rc, out = cli(job)
        expect(job.label, job.check(ctx, rc, out), ok=False)

    calls = [["cmh", 1, 2, 30], ["parity_dp", 9], ["andre", 5], ["P", 30]]
    result = R.session_child(calls, 0.0, False, False, env)
    for call, value in zip(calls, result["results"]):
        expect(f"session {call}", C.check_session_call(ctx, call, value), ok=True)
    man, exp = result["results"][0][0]
    wrong = [[str(int(man) + 2**40), exp], result["results"][0][1]]
    expect("session cmh, value moved beyond its bound",
           C.check_session_call(ctx, calls[0], wrong), ok=False)
    x, y = result["results"][1]
    expect("session parity_dp, X off by one",
           C.check_session_call(ctx, calls[1], [x + 1, y]), ok=False)

    print(f"{tally.attempted} operations, {tally.failed} counted as failed")
    if problems:
        print("checks that did not behave:", ", ".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
