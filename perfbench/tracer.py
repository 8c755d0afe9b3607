"""Per-module spans recorded from outside the program.

``Tracer.install`` replaces the entry points listed in ``ENTRY_POINTS`` by
timing wrappers in every loaded ``dixonian`` module that binds them, so
calls made inside the package are caught as well as calls from outside.
Spans stay in memory until ``dump``; ``summarize`` turns span lists into
the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

MODULES = ("cli", "core", "functions", "contfrac", "permutations", "urn", "numerics")

# Public entry points of each module, plus the private series division that
# PowerSeries.__truediv__ and series_revert reach through the module globals.
# Per-permutation helpers (classify, tree_levels, ...) are left unwrapped:
# they run once per permutation and their time counts as their caller's.
ENTRY_POINTS = {
    "core": ("series_mul", "_series_div", "series_compose", "series_revert",
             "series_binomial_pow", "series_integrate", "series_derive",
             "delta_apply"),
    "functions": ("dixon_series", "dixon_egf_integers", "hyp2f1_series",
                  "sm_via_hypergeometric", "weierstrass_P", "dumont_R"),
    "contfrac": ("family_ogf", "jfraction_extract", "sfraction_extract",
                 "jfraction_to_series", "sfraction_to_series", "verify_conrad",
                 "convergent_s", "snake_width_gf", "meixner_denominator",
                 "valent_ops"),
    "permutations": ("parity_class_counts", "parity_class_counts_dp",
                     "parity_class_members", "repeated_count_brute",
                     "repeated_series", "motzkin_path_total",
                     "andre_polynomials"),
    "urn": ("enumerate_histories", "history_polynomials", "history_count_table",
            "yule_rk4", "yule_closed_form"),
    "numerics": ("pi3", "tanh_sinh_quad", "eval_sm", "eval_cm", "eval_smh",
                 "eval_cmh", "abelian_I"),
}

# Entry points that own an lru_cache: a span records the cache misses it
# caused, i.e. the builds.
_CACHED = {("functions", "dixon_series"), ("numerics", "pi3")}
# Extraction spans record the number of fraction levels they produced.
_LEVELS = {("contfrac", "jfraction_extract"): "cs",
           ("contfrac", "sfraction_extract"): "ds"}


class Tracer:
    """Records spans as (id, module, function, start, end, parent id,
    builds, levels) tuples, appended when the span ends; ids number the
    spans in the order they start.  Tuples of plain values keep the
    growing span list out of the garbage collector's way."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, module: str, name: str, fn, *args, **kwargs):
        """Run fn inside a span; wrappers and launchers both use this."""
        clock = time.perf_counter
        cache = fn if (module, name) in _CACHED else None
        misses = cache.cache_info().misses if cache else 0
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
        builds = cache.cache_info().misses - misses if cache else 0
        attr = _LEVELS.get((module, name))
        levels = len(getattr(result, attr)) if attr else 0
        self.spans.append((span_id, module, name, start, end, parent, builds, levels))
        return result

    def _wrap(self, module: str, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(module, name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every loaded dixonian namespace; import the package first."""
        namespaces = [m for k, m in sys.modules.items()
                      if k == "dixonian" or k.startswith("dixonian.")]
        for module, names in ENTRY_POINTS.items():
            home = sys.modules[f"dixonian.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(module, name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def dump(self, path: str, **extra) -> None:
        """Write the spans, and any extra fields, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


# -- aggregation -----------------------------------------------------------

# metric name -> (module, function names) for inclusive-time metrics.
_INCLUSIVE = {
    "core.series_mul_s": ("core", ("series_mul",)),
    "core.series_div_s": ("core", ("_series_div",)),
    "core.series_revert_s": ("core", ("series_revert",)),
    "core.delta_apply_s": ("core", ("delta_apply",)),
    "functions.dixon_series_s": ("functions", ("dixon_series",)),
    "functions.egf_integers_s": ("functions", ("dixon_egf_integers",)),
    "contfrac.family_ogf_s": ("contfrac", ("family_ogf",)),
    "contfrac.extract_s": ("contfrac", ("jfraction_extract", "sfraction_extract")),
    "permutations.parity_sweep_s": ("permutations", ("parity_class_counts",)),
    "permutations.members_s": ("permutations", ("parity_class_members",)),
    "permutations.repeated_brute_s": ("permutations", ("repeated_count_brute",)),
    "urn.enumerate_histories_s": ("urn", ("enumerate_histories",)),
    "urn.history_polynomials_s": ("urn", ("history_polynomials",)),
    "urn.yule_rk4_s": ("urn", ("yule_rk4",)),
    "numerics.pi3_s": ("numerics", ("pi3",)),
    "numerics.quad_s": ("numerics", ("tanh_sinh_quad",)),
    "numerics.eval_s": ("numerics", ("eval_sm", "eval_cm", "eval_smh", "eval_cmh")),
}
_CALLS = {
    "core.series_mul_calls": ("core", "series_mul"),
    "core.series_div_calls": ("core", "_series_div"),
    "functions.dixon_series_calls": ("functions", "dixon_series"),
}

PER_LAYER = (
    ["cli.import_s", "cli.self_s", "cli.calls"]
    + list(_INCLUSIVE) + list(_CALLS)
    + ["functions.dixon_series_builds", "contfrac.extract_levels",
       "numerics.pi3_builds"]
    + [f"{m}.{k}" for m in MODULES[1:] for k in ("self_s", "calls")]
    + ["trace.overhead_s"]
)


def summarize(span_lists: list[list]) -> dict[str, float]:
    """Per-layer totals over several processes' span lists.

    Inclusive metrics count only the outermost span of a function, so a
    nested call is not counted twice.  A module's self time is its spans'
    time minus the time covered by their child spans.
    """
    out = {name: 0.0 for name in PER_LAYER if name not in ("cli.import_s", "trace.overhead_s")}
    for spans in span_lists:
        by_id = {s[0]: s for s in spans}
        child_time = dict.fromkeys(by_id, 0.0)
        for span_id, module, name, start, end, parent, builds, levels in spans:
            if parent in child_time:
                child_time[parent] += end - start
        for span_id, module, name, start, end, parent, builds, levels in spans:
            dur = end - start
            out[f"{module}.self_s"] += dur - child_time[span_id]
            out[f"{module}.calls"] += 1
            p = parent
            while p in by_id and by_id[p][2] != name:
                p = by_id[p][5]
            if p not in by_id:  # outermost span of this function
                for metric, (mod, names) in _INCLUSIVE.items():
                    if mod == module and name in names:
                        out[metric] += dur
            for metric, key in _CALLS.items():
                if key == (module, name):
                    out[metric] += 1
            if (module, name) == ("functions", "dixon_series"):
                out["functions.dixon_series_builds"] += builds
            elif (module, name) == ("numerics", "pi3"):
                out["numerics.pi3_builds"] += builds
            out["contfrac.extract_levels"] += levels
    return out
