"""Nonparametric tests for convex-ordered families.

Given a reference distribution G, the package tests whether data come from
the location-scale family of G against the one-sided alternatives that the
data are convexly dominated by G or dominate it. Classical special cases
follow from the choice of G: increasing or decreasing hazard rate for the
exponential, decreasing or increasing reversed hazard rate for the negative
exponential, and increasing or decreasing odds rate for the log-logistic.

The statistic compares null exceedance bounds for expected order statistics
with an interpolated empirical CDF evaluated at L-estimates of those same
quantities; critical values and p-values are Monte Carlo. A Proschan-Pyke
pair-count test of exponentiality is included as a baseline, along with a
grid harness for power studies.
"""

from .baselines import normalized_spacings, pp_statistic, pp_test
from .distributions import (
    Alternative,
    Cauchy,
    Custom,
    Exponential,
    Frechet,
    Logistic,
    LogLogistic,
    NegExponential,
    RefFamily,
    TailInfo,
    Uniform,
)
from .order_stats import (
    BoundStatus,
    InterpolatedEcdf,
    PiBound,
    Sample,
    TiesWarning,
    hill_estimate,
    ingest,
    interp_ecdf,
    l_estimate,
    os_weights,
    pi_bound,
)
from .simulation import PowerGrid, PowerRow, PowerTable, estimate_power, pp_power, reproduce
from .special import QuadResult, integrate_01, ln_beta, partial_harmonic, reg_inc_beta
from .testing import (
    IndexDiagnostic,
    InfeasibleSpecError,
    Side,
    TestResult,
    TestSpec,
    critical_value,
    default_m,
    p_value,
    run_test,
    select_indices,
    statistic,
)

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "BoundStatus",
    "Cauchy",
    "Custom",
    "Exponential",
    "Frechet",
    "IndexDiagnostic",
    "InfeasibleSpecError",
    "InterpolatedEcdf",
    "Logistic",
    "LogLogistic",
    "NegExponential",
    "PiBound",
    "PowerGrid",
    "PowerRow",
    "PowerTable",
    "QuadResult",
    "RefFamily",
    "Sample",
    "Side",
    "TailInfo",
    "TestResult",
    "TestSpec",
    "TiesWarning",
    "Uniform",
    "critical_value",
    "default_m",
    "estimate_power",
    "hill_estimate",
    "ingest",
    "integrate_01",
    "interp_ecdf",
    "l_estimate",
    "ln_beta",
    "normalized_spacings",
    "os_weights",
    "p_value",
    "partial_harmonic",
    "pi_bound",
    "pp_power",
    "pp_statistic",
    "pp_test",
    "reg_inc_beta",
    "reproduce",
    "run_test",
    "select_indices",
    "statistic",
]
