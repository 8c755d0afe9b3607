"""The benchmark's tracer wraps package functions by name, so a rename in
the package must fail here, and not only in a traced benchmark run."""

import importlib
from pathlib import Path

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
