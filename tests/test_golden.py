"""CLI output pinned byte for byte.

``tests/golden.json`` holds one case per command line: its argv, the
environment it sets, the exit code, stdout, and stderr where the package
writes it.  The cases are every job of ``perfbench/workloads.py`` in text,
json and csv, each ``verify`` target under ``--inject-fault``, the
brute-force cap errors and the size usage errors.  Each case stores its
argv, so a later change to the workloads leaves this test as it is.

A stdout longer than ``_INLINE`` characters is stored as its length and
sha256.  argparse words its own errors differently across Python versions,
so a stderr that argparse wrote ("usage: ...") is stored as null and not
compared.

Run with ``DIXONIAN_REGOLD=1`` to rebuild the fixture from the current
code.  A change that alters output on purpose lists each changed case in
``CHANGES.md``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from dixonian.cli import VERIFY_TARGETS, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
_ENV = ("DIXONIAN_ORDER", "DIXONIAN_FORMAT", "DIXONIAN_BRUTE_CAP")
_INLINE = 2000

_BRUTE = (
    ("verify", "parity", "--n", "4"),
    ("verify", "r-repeated", "--max-n", "4"),
    ("verify", "urn", "--n", "4"),
    ("enumerate", "histories", "--n", "4"),
    ("enumerate", "perms", "--n", "4", "--class", "X"),
)

_SIZES = (
    ("series", "sm", "--order", "-1"),
    ("verify", "conrad-j", "--depth", "0"),
    ("verify", "conrad-s", "--depth", "-1"),
    ("verify", "parity", "--n", "-1"),
    ("verify", "r-repeated", "--max-n", "0"),
    ("verify", "urn", "--n", "-2"),
    ("verify", "valent", "--max-n", "-1"),
    ("verify", "width", "--max-n", "0"),
    ("verify", "andre", "--max-n", "-1"),
    ("enumerate", "histories", "--n", "-1"),
    ("enumerate", "perms", "--n", "-1", "--class", "X"),
    ("eval", "pi3", "--digits", "9"),
    ("eval", "smh", "1/2", "--digits", "-1"),
)


def _workload_argvs() -> list[tuple[str, ...]]:
    """The argv of every CLI job in perfbench/workloads.py, read without
    writing bytecode next to it."""
    bench = str(ROOT / "perfbench")
    saved = sys.dont_write_bytecode
    sys.path.insert(0, bench)
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path.remove(bench)
        sys.dont_write_bytecode = saved
    return [job.argv for jobs in workloads.CLI_WORKLOADS.values() for job in jobs()]


def _cases() -> list[tuple[tuple[str, ...], dict[str, str]]]:
    cases = [
        (argv + ("--format", fmt), {})
        for argv in _workload_argvs()
        for fmt in ("text", "json", "csv")
    ]
    cases += [(("verify", target, "--inject-fault"), {}) for target in VERIFY_TARGETS]
    cases += [(argv, {"DIXONIAN_BRUTE_CAP": cap}) for cap in ("3", "x", "-1") for argv in _BRUTE]
    cases.append((("verify", "parity", "--n", "3"), {"DIXONIAN_BRUTE_CAP": "3"}))
    cases += [(argv, {}) for argv in _SIZES]
    cases += [(("series", "sm"), {"DIXONIAN_ORDER": order}) for order in ("-1", "x")]
    return cases


def _stored(text: str) -> object:
    if len(text) <= _INLINE:
        return text
    data = text.encode("utf-8")
    return {"length": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _run(argv, env, monkeypatch) -> dict:
    for name in _ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stderr = err.getvalue()
    return {
        "argv": list(argv),
        "env": env,
        "exit": code,
        "stdout": _stored(out.getvalue()),
        "stderr": None if stderr.startswith("usage: ") else stderr,
    }


def test_cli_output_matches_golden(monkeypatch):
    if os.environ.get("DIXONIAN_REGOLD") == "1":
        cases = [_run(argv, env, monkeypatch) for argv, env in _cases()]
        GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) > 100
    for case in cases:
        got = _run(case["argv"], case["env"], monkeypatch)
        if case["stderr"] is None:
            got["stderr"] = None
        assert got == case, " ".join(case["argv"])
