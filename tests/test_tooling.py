"""The benchmark's tracer wraps package functions by name, in the modules
`import dixonian.cli` has loaded, so a rename in the package, or an import
moved out of that path, must fail here, and not only in a traced
benchmark run."""

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dixonian
from dixonian.cli import main
from dixonian.core import PowerSeries

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_namespace() -> dict:
    # compiled from source, so that nothing is written next to the file
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_tracer_entry_points_exist():
    tracer = _tracer_namespace()
    missing = [
        f"dixonian.{module}.{name}"
        for module, names in tracer["ENTRY_POINTS"].items()
        for name in names
        if not hasattr(importlib.import_module(f"dixonian.{module}"), name)
    ]
    assert not missing


def test_tracer_level_attributes_exist():
    series = PowerSeries([1, 1, 2, 5, 14], 4)
    for (module, name), attr in _tracer_namespace()["_LEVELS"].items():
        result = getattr(importlib.import_module(f"dixonian.{module}"), name)(series, 2)
        assert len(getattr(result, attr)) == 2, (name, attr)


LAUNCH = TRACER.with_name("launch.py")
SRC = str(Path(dixonian.__file__).resolve().parents[1])


def test_cli_import_loads_every_traced_module(run_fresh):
    # install() looks each wrapped module up in sys.modules right after
    # `import dixonian.cli`, so that import must load all of them.
    loaded = run_fresh(
        "import sys, dixonian.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('dixonian.')))"
    )
    assert set(loaded) >= {f"dixonian.{m}" for m in _tracer_namespace()["MODULES"]}


def test_cli_import_grows_no_table(run_fresh):
    # Every grown table stays at its seed until a call asks for more: the
    # EGF pair and u = sm cm at n = 0..1, no urn start, and the André walk
    # at row 0.
    sizes = run_fresh(
        "import dixonian.cli\n"
        "from dixonian import functions, permutations, urn\n"
        "print(len(functions._EGF_TABLES), len(functions._U_TABLE),\n"
        "      urn._history_table.cache_info().currsize, len(permutations._ANDRE_ROWS))"
    )
    assert sizes == ["2", "2", "0", "1"]


def _traced(tmp_path, argv) -> tuple[list[str], set[tuple[str, str]], dict]:
    """Run the CLI under the benchmark's launcher: its stdout lines, the
    (module, function) pairs of its spans, and the span file."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_SPANS=str(spans))
    done = subprocess.run(
        [sys.executable, "-B", str(LAUNCH), *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    return done.stdout.splitlines(), {(s[1], s[2]) for s in doc["spans"]}, doc


def test_traced_launch_writes_spans(tmp_path):
    lines, spans, doc = _traced(tmp_path, ("series", "sm", "--order", "10"))
    assert lines[-1] == "10, -20800/10!, -20800"
    assert doc["import_s"] > 0
    assert spans >= {("cli", "main"), ("functions", "dixon_egf_integers")}


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("verify", "urn", "--n", "3"), ["start=x: 3 draw lengths match",
                                         "start=y: 3 draw lengths match", "PASS"]),
        (("enumerate", "histories", "--n", "3"), ["xxxx", "xxxx", "xyyy", "yxyy",
                                                  "yyxy", "yyyx"]),
    ],
)
def test_traced_urn_commands_write_spans(tmp_path, argv, lines):
    # the wrapper around enumerate_histories must pass its multiset through,
    # and the operator side of verify urn must walk through the two traced
    # names, so that its time shows in the per-layer metrics
    got, spans, _ = _traced(tmp_path, argv)
    assert got == lines
    assert spans >= {("cli", "main"), ("urn", "enumerate_histories")}
    if argv[0] == "verify":
        assert spans >= {("urn", "history_polynomials"), ("core", "delta_apply")}


@pytest.mark.parametrize(
    "argv, lines, entry",
    [
        (("verify", "width", "--max-n", "3"),
         ["h=1: W1 = (1) / (1)", "h=2: W2 = (1) / (-z^2 + 1)",
          "h=3: W3 = (-4z^2 + 1) / (-5z^2 + 1)", "PASS"], "convergent_s"),
        (("verify", "valent", "--max-n", "2"),
         ["Q0: Q0(z) = 1", "Q1: Q1(z) = z + 2", "Q2: Q2(z) = z^2 + 100z + 160", "PASS"],
         "valent_ops"),
        (("verify", "conrad-j", "--depth", "2"),
         [f"j-{f}: j-fraction {f}: all coefficients match"
          for f in ("sm", "sm2", "sm3", "cm", "smcm", "sm2cm")] + ["PASS"],
         "verify_conrad"),
        (("verify", "andre", "--max-n", "2"),
         ["k=0: P_0'(0) = 1", "k=1: P_1'(0) = 4", "k=2: P_2'(0) = 160", "PASS"],
         "andre_polynomials"),
    ],
)
def test_traced_fraction_commands_write_spans(tmp_path, argv, lines, entry):
    # the wrapped convergent, Valent, report and André functions must
    # return what the unwrapped ones do
    got, spans, _ = _traced(tmp_path, argv)
    assert got == lines
    points = _tracer_namespace()["ENTRY_POINTS"]
    module = next(m for m, names in points.items() if entry in names)
    assert spans >= {("cli", "main"), (module, entry)}


README = TRACER.parents[1] / "README.md"


def _readme_transcripts() -> list[tuple[str, str]]:
    """Each `$ dixonian ...` command of the README's text blocks with the
    output printed under it, up to the next blank line or command."""
    transcripts = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for chunk in re.split(r"\n(?=\$ )|\n\n", block):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ dixonian "):
                transcripts.append((command[2:], output.rstrip("\n") + "\n"))
    return transcripts


def test_readme_examples_run(capsys, monkeypatch):
    for name in ("DIXONIAN_ORDER", "DIXONIAN_FORMAT", "DIXONIAN_BRUTE_CAP"):
        monkeypatch.delenv(name, raising=False)
    transcripts = _readme_transcripts()
    assert len(transcripts) == 4
    for command, output in transcripts:
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == output, command
    text = README.read_text(encoding="utf-8")
    quick_start = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(quick_start.split("```", 1)[0], {})
