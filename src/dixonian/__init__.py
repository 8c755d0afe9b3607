"""Dixonian elliptic functions, their continued fractions, and the
combinatorial models they enumerate, in exact rational arithmetic."""

from dixonian.core import (
    DEFAULT_ORDER,
    BivariatePoly,
    InvalidUrnStateError,
    PowerSeries,
    delta_apply,
    series_binomial_pow,
    series_compose,
    series_derive,
    series_integrate,
    series_mul,
    series_revert,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "BivariatePoly",
    "InvalidUrnStateError",
    "PowerSeries",
    "delta_apply",
    "series_binomial_pow",
    "series_compose",
    "series_derive",
    "series_integrate",
    "series_mul",
    "series_revert",
    "__version__",
]
