"""Benchmark of the dixonian package: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from ``src/``
as a user would: CLI jobs as ``python -m dixonian.cli`` in fresh
processes, library calls in one long-lived interpreter.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402

import checks as C  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 7          # cold `import dixonian.cli` starts per CLI run
MIN_ROUNDS = 3             # whole CLI rounds per untraced run, whatever --seconds says
SESSION_SETUP_REPEATS = 2  # extra set-up-only interpreters per session run
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_tail_ms": "ms", "correct_digits": "digits",
}


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIXONIAN_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> tuple[float, float, int, int, str]:
    """Run one program process to its end: (wall s, cpu s, peak rss KiB,
    exit code, stdout)."""
    with open(WORK / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss, proc.returncode, out.decode()


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics, far less jumpy than a single sample when a few
    samples of similar size swap ranks."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    weights = [mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True) for i in range(n)]
    return sum(float(w) * x for w, x in zip(weights, ordered))


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    level = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            level = p
    idx = min(n - 1, int(n * level / 100.0))
    return level, ordered[idx]


class Tally:
    """Operations attempted and failed, and whether every failure is one
    that CHANGES.md documents."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.failures: dict[str, str] = {}

    def add(self, label: str, outcome: C.Outcome, known_fault: bool, times: int) -> None:
        self.attempted += times
        if not outcome.ok:
            self.failed += times
            self.failures[label] = outcome.detail
            if not known_fault:
                self.unexpected.append(label)


# -- CLI workloads ------------------------------------------------------------


def cli_setup(env: dict[str, str]) -> float:
    cmd = [sys.executable, "-c", "import dixonian.cli"]
    spawn(cmd, env)  # untimed: bytecode caches are written here
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, rc, _ = spawn(cmd, env)
        if rc != 0:
            raise RuntimeError("import dixonian.cli failed")
        times.append(wall)
    return statistics.median(times)


def cli_rounds(jobs: list[W.Job], seconds: float, env: dict[str, str], traced: bool,
               min_rounds: int = 1):
    """Run whole rounds of the job list until the time is used up, and at
    least min_rounds of them."""
    spans_path = WORK / "spans.json"
    if traced:
        env = dict(env, PERFBENCH_SPANS=str(spans_path))
    rounds = []
    first_out: dict[str, str] = {}
    changed: dict[str, list[str]] = {}
    span_lists, imports = [], []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        runs = []
        for job in jobs:
            if traced:
                cmd = [sys.executable, str(HERE / "launch.py"), *job.argv]
            else:
                cmd = [sys.executable, "-m", "dixonian.cli", *job.argv]
            wall, cpu, rss, rc, out = spawn(cmd, env)
            runs.append((job, wall, cpu, rss, rc))
            key = f"{rc}\n{out}"
            if job.label not in first_out:
                first_out[job.label] = key
            elif key != first_out[job.label]:
                changed.setdefault(job.label, []).append(key)
            if traced:
                with open(spans_path, encoding="utf-8") as handle:
                    dump = json.load(handle)
                spans_path.unlink()
                span_lists.append(dump["spans"])
                imports.append(dump["import_s"])
        rounds.append(runs)
    return rounds, first_out, changed, span_lists, imports


def check_cli(jobs, rounds, first_out, changed, ctx: C.Context, tally: Tally) -> int:
    digits = 0
    for job in jobs:
        rc, out = first_out[job.label].split("\n", 1)
        outcome = job.check(ctx, int(rc), out)
        digits += outcome.digits
        tally.add(job.label, outcome, job.known_fault, len(rounds) - len(changed.get(job.label, [])))
        for key in changed.get(job.label, []):
            rc, out = key.split("\n", 1)
            other = job.check(ctx, int(rc), out)
            tally.add(job.label + " (changed)", other, job.known_fault, 1)
            if other.ok != outcome.ok:
                tally.unexpected.append(job.label + " (output differs between rounds)")
    return digits


def job_medians(rounds, column: int = 1) -> dict[str, float]:
    """Each job's median over the rounds of its wall time (column 1) or
    CPU time (column 2)."""
    per_job: dict[str, list[float]] = {}
    for runs in rounds:
        for run in runs:
            per_job.setdefault(run[0].label, []).append(run[column])
    return {label: statistics.median(v) for label, v in per_job.items()}


def cli_metrics(rounds) -> dict[str, float]:
    # A round's time is summed from each job's median over the rounds, so
    # a burst of host steal that slows one job in one round drops out.
    job_latency = list(job_medians(rounds).values())
    return {
        "wall_s": sum(job_latency),
        "cpu_s": sum(job_medians(rounds, 2).values()),
        "peak_rss_mb": max(r[3] for runs in rounds for r in runs) / 1024.0,
        "req_p50_ms": 1e3 * harrell_davis(job_latency, 0.5),
        "req_tail_ms": 1e3 * harrell_davis(job_latency, 0.9),
    }


def run_cli(name: str, rng: random.Random, seconds: float, trace: bool, ctx, env):
    jobs = W.CLI_WORKLOADS[name]()
    rng.shuffle(jobs)
    info: dict = {"jobs": [j.label for j in jobs]}
    if not trace:
        setup_s = cli_setup(env)
        rounds, first_out, changed, _, _ = cli_rounds(jobs, seconds, env, traced=False,
                                                      min_rounds=MIN_ROUNDS)
        tally = Tally()
        digits = check_cli(jobs, rounds, first_out, changed, ctx, tally)
        metrics = dict(cli_metrics(rounds), setup_s=setup_s, correct_digits=digits)
        info.update(rounds=len(rounds), samples=len(rounds) * len(jobs),
                    job_ms={k: round(1e3 * v, 1) for k, v in job_medians(rounds).items()})
        return tally, metrics, info
    plain, first_out, changed, _, _ = cli_rounds(jobs, seconds / 2, env, traced=False)
    traced, t_first, t_changed, span_lists, imports = cli_rounds(jobs, seconds / 2, env, traced=True)
    tally = Tally()
    check_cli(jobs, plain, first_out, changed, ctx, tally)
    check_cli(jobs, traced, t_first, t_changed, ctx, tally)
    totals = T.summarize(span_lists)
    metrics = {k: v / len(traced) for k, v in totals.items()}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = cli_metrics(traced)["wall_s"] - cli_metrics(plain)["wall_s"]
    # Per-job module self times from the first traced round, for reading
    # scaling off the job list (e.g. series at orders 90, 120, 150).
    job_modules = {}
    for job, spans in zip(jobs, span_lists):
        totals = T.summarize([spans])
        job_modules[job.label] = {m: round(totals[f"{m}.self_s"], 4) for m in T.MODULES}
    info.update(rounds=len(plain), traced_rounds=len(traced), job_self_s=job_modules)
    return tally, metrics, info


# -- session ----------------------------------------------------------------------


def session_child(calls, seconds: float, trace: bool, setup_only: bool, env):
    spec_path, out_path = WORK / "session_spec.json", WORK / "session_out.json"
    spec = {"calls": calls, "seconds": seconds, "trace": trace,
            "setup_only": setup_only, "out": str(out_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "session.py"), str(spec_path)]
    _, _, rss, rc, _ = spawn(cmd, env)
    if rc != 0:
        raise RuntimeError(f"session interpreter exited with {rc}: "
                           + (WORK / "stderr.txt").read_text(errors="replace")[-2000:])
    result = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    result["peak_rss_kib"] = rss
    return result


def check_session(calls, result, ctx, tally: Tally) -> int:
    digits = 0
    for call, value in zip(calls, result["results"]):
        outcome = C.check_session_call(ctx, call, value)
        digits += outcome.digits
        tally.add(json.dumps(call), outcome, W.session_known_fault(call), result["rounds"])
    if result["changed"]:
        tally.failed += result["changed"]
        tally.unexpected.append(f"{result['changed']} results differ between rounds")
    return digits


def session_metrics(result) -> dict[str, float]:
    lat = result["latencies_s"]
    return {
        "wall_s": statistics.median(result["round_wall_s"]),
        "cpu_s": statistics.median(result["round_cpu_s"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "req_p50_ms": 1e3 * statistics.median(lat),
        "req_tail_ms": 1e3 * tail_percentile(lat)[1],
    }


def run_session(rng: random.Random, seconds: float, trace: bool, ctx, env):
    calls = W.session_calls(rng)
    info: dict = {"calls_per_round": len(calls)}
    if not trace:
        setups = [session_child(calls, 0, False, True, env)["setup_s"]
                  for _ in range(SESSION_SETUP_REPEATS)]
        result = session_child(calls, seconds, False, False, env)
        setups.append(result["setup_s"])
        tally = Tally()
        digits = check_session(calls, result, ctx, tally)
        metrics = dict(session_metrics(result), setup_s=statistics.median(setups),
                       correct_digits=digits)
        level, _ = tail_percentile(result["latencies_s"])
        info.update(rounds=result["rounds"], samples=len(result["latencies_s"]),
                    tail_percentile=level)
        return tally, metrics, info
    plain = session_child(calls, seconds / 2, False, False, env)
    traced = session_child(calls, seconds / 2, True, False, env)
    tally = Tally()
    check_session(calls, plain, ctx, tally)
    check_session(calls, traced, ctx, tally)
    # Set-up work (the warm-up pass) counts once, round work per round.
    setup = T.summarize([traced["setup_spans"]])
    rounds = T.summarize([traced["spans"]])
    metrics = {k: setup[k] + rounds[k] / traced["rounds"] for k in setup}
    metrics["cli.import_s"] = 0.0
    metrics["trace.overhead_s"] = (session_metrics(traced)["wall_s"]
                                   - session_metrics(plain)["wall_s"])
    info.update(rounds=plain["rounds"], traced_rounds=traced["rounds"])
    return tally, metrics, info


# -- entry point ------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*W.CLI_WORKLOADS, "session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dixonian" / "cli.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = program_env()
    rng = random.Random(args.seed)

    # Outputs are checked, and references computed, after the timed rounds.
    ctx = C.Context()
    if args.workload == "session":
        tally, metrics, info = run_session(rng, args.seconds, bool(args.trace), ctx, env)
    else:
        tally, metrics, info = run_cli(args.workload, rng, args.seconds, bool(args.trace), ctx, env)

    if args.trace:
        units = {name: ("count" if name.endswith(("calls", "builds", "levels")) else "s")
                 for name in T.PER_LAYER}
    else:
        units = UNITS
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_sha=git_sha(), python=platform.python_version(),
        mpmath=f"{mpmath.__version__} ({mpmath.libmp.BACKEND} backend)",
        nproc=os.cpu_count(), attempted=tally.attempted, failed=tally.failed,
        failures=tally.failures, unexpected_failures=tally.unexpected,
    )
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
