"""Acceptance suite.

One test per pinned acceptance check, at full Monte Carlo budgets with
seed 0, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per check. Assertion messages carry the measured numbers.

Expected rates and tolerances are frozen here on purpose; do not relax
them to make a run green. A red line means the implementation and the
pinned expectation genuinely disagree at this budget.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import betainc as sp_betainc

from cxorder import (
    Custom,
    Exponential,
    LogLogistic,
    NegExponential,
    PowerGrid,
    Side,
    TailInfo,
    TestSpec,
    Uniform,
    estimate_power,
    ingest,
    l_estimate,
    pi_bound,
    pp_power,
    reg_inc_beta,
    statistic,
)

# Full budgets with seed 0: the replications of each cell, and the
# spec's null trials and seed.
REPLICATIONS = 5000
FULL = dict(mc_trials=5000, seed=0)


def power_cell(alternative, param, n, m, *, ell=None, ref=None, p=1.0,
               side=Side.UPPER, assumed=None):
    grid = PowerGrid(
        alternative=alternative,
        params=(param,),
        n_grid=(n,),
        m_ell=((m, ell),),
        spec=TestSpec(
            ref=ref if ref is not None else Exponential(),
            p_norm=p,
            side=side,
            assumed_tails=assumed,
            **FULL,
        ),
        replications=REPLICATIONS,
    )
    (row,) = estimate_power(grid).rows
    return row


def test_criterion_1_weibull_power_table_cells():
    cells = (
        (1.0, 5, 50, 0.5508),
        (1.0, 5, 200, 0.9722),
        (2.0, 10, 100, 0.6204),
        (math.inf, 20, 200, 0.3406),
    )
    measured = [
        (p, m, n, expected, power_cell("weibull", 1.5, n, m, p=p).rate)
        for p, m, n, expected in cells
    ]
    report = "; ".join(
        f"p={p} m={m} n={n}: rate {rate:.4f}, expected {exp:.4f}"
        for p, m, n, exp, rate in measured
    )
    assert all(abs(rate - exp) <= 0.05 for *_, exp, rate in measured), report


def test_criterion_2_null_size_matches_significance_level():
    measured = [
        (n, m, power_cell("weibull", 1.0, n, m).rate)
        for n in (25, 100)
        for m in (1, 5)
    ]
    report = "; ".join(f"n={n} m={m}: size {r:.4f}" for n, m, r in measured)
    assert all(abs(r - 0.10) <= 0.015 for _, _, r in measured), report


def test_criterion_3_student_t_power_and_baseline():
    pp_kwargs = dict(replications=5000, mc_trials=5000, base_seed=0)
    pp_ihr = pp_power("student-t", 1.1, 100, side="ihr", **pp_kwargs).rate
    pp_dhr = pp_power("student-t", 1.1, 100, side="dhr", **pp_kwargs).rate
    upper = power_cell("student-t", 1.1, 100, 5).rate
    lower = power_cell("student-t", 1.1, 100, 5, side=Side.LOWER).rate
    report = (
        f"baseline ihr {pp_ihr:.4f} (expected 0.98 +- 0.02), "
        f"baseline dhr {pp_dhr:.4f} (expected <= 0.01), "
        f"upper {upper:.4f} (expected >= 0.99), "
        f"lower {lower:.4f} (expected 0.58 +- 0.06)"
    )
    assert abs(pp_ihr - 0.98) <= 0.02, report
    assert pp_dhr <= 0.01, report
    assert upper >= 0.99, report
    assert abs(lower - 0.58) <= 0.06, report


def test_criterion_4_shift_does_not_inflate_size():
    # A pure location shift keeps the data inside the null family, so the
    # rejection rate must stay at the significance level, not blow up to 1.
    rate = power_cell("shifted-exponential", 1.0, 50, 5).rate
    assert abs(rate - 0.10) <= 0.02, f"size under unit shift: {rate:.4f}"


def test_criterion_5_exact_identities():
    rng = np.random.default_rng(42)

    # Rank-mean identities over 10^3 random samples, m up to 40.
    pairs = [(n, m) for n in (15, 40, 80, 120)
             for m in (1, 2, 3, 5, 8, 13, 21, 34, 40)]
    draws = (
        lambda size: rng.normal(size=size),
        lambda size: rng.exponential(size=size),
        lambda size: rng.uniform(-1.0, 3.0, size=size),
        lambda size: rng.lognormal(sigma=1.0, size=size),
    )
    for i in range(1000):
        n, m = pairs[i % len(pairs)]
        s = ingest(draws[i % 4](n))
        mus = np.array([l_estimate(s, j, m) for j in range(1, m + 1)])
        assert abs(mus.mean() - s.values.mean()) <= 1e-10
        assert np.all(np.diff(mus) >= -1e-10)
        wider = np.array([l_estimate(s, j, m + 1) for j in range(1, m + 1)])
        assert np.all(wider <= mus + 1e-10)

    # Quadrature route vs closed forms for every rank with m <= 20. The
    # wrappers hide the family name, so pi_bound cannot shortcut.
    wrapped = (
        (Uniform(), Custom(
            cdf_fn=lambda x: np.clip(x, 0.0, 1.0),
            quantile_fn=lambda p: p,
            right_index=math.inf, left_index=math.inf,
            support_lo=0.0, support_hi=1.0, label="u")),
        (Exponential(), Custom(
            cdf_fn=lambda x: -np.expm1(-np.maximum(x, 0.0)),
            quantile_fn=lambda p: -np.log1p(-p),
            right_index=math.inf, left_index=math.inf,
            support_lo=0.0, label="e")),
        (NegExponential(), Custom(
            cdf_fn=lambda x: np.exp(np.minimum(x, 0.0)),
            quantile_fn=np.log,
            right_index=math.inf, left_index=math.inf,
            support_hi=0.0, label="ne")),
        (LogLogistic(1.0), Custom(
            cdf_fn=lambda x: np.where(x > 0, x / (1.0 + np.abs(x)), 0.0),
            quantile_fn=lambda p: p / (1.0 - p),
            right_index=1.0, left_index=math.inf,
            support_lo=0.0, label="ll")),
    )
    for ref, wrapper in wrapped:
        for m in range(1, 21):
            for j in range(1, m + 1):
                a = pi_bound(ref, j, m)
                b = pi_bound(wrapper, j, m)
                assert a.status == b.status, (ref.name, j, m)
                if a.value is not None:
                    assert abs(a.value - b.value) <= 1e-8, (ref.name, j, m)

    # Location-scale invariance of both statistics.
    for _ in range(25):
        n = int(rng.integers(20, 60))
        base = rng.normal(size=n)
        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(-5.0, 5.0))
        s = ingest(base)
        t = ingest(scale * base + shift)
        for ref in (Exponential(), LogLogistic(1.0), Uniform()):
            for side in (Side.UPPER, Side.LOWER):
                spec = TestSpec(ref=ref, m=4, p_norm=2.0, side=side)
                v0, _ = statistic(s, spec)
                v1, _ = statistic(t, spec)
                assert abs(v0 - v1) <= 1e-10

    # p = 1 decomposition: T+ - T- telescopes to the signed gap sum.
    for _ in range(50):
        n = int(rng.integers(10, 80))
        s = ingest(rng.exponential(size=n))
        up, diags = statistic(s, TestSpec(ref=Exponential(), m=5))
        down, _ = statistic(
            s, TestSpec(ref=Exponential(), m=5, side=Side.LOWER)
        )
        assert abs((up - down) - sum(d.gap for d in diags)) <= 1e-12

    # Reflection symmetry of the regularized incomplete beta.
    for _ in range(500):
        x = float(rng.uniform())
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(0.1, 20.0))
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert abs(total - 1.0) <= 1e-12


def _brute_mu(xs, j, m):
    n = len(xs)
    cum = [float(sp_betainc(j, m - j + 1, i / n)) for i in range(n + 1)]
    return sum((cum[i] - cum[i - 1]) * xs[i - 1] for i in range(1, n + 1))


def _brute_pi(name, j, m):
    if name == "uniform":
        return j / (m + 1)
    if name == "log-logistic":
        return j / m
    if name == "exponential":
        h = sum(Fraction(1, k) for k in range(m - j + 1, m + 1))
        return 1.0 - math.exp(-float(h))
    h = sum(Fraction(1, k) for k in range(j, m + 1))
    return math.exp(-float(h))


def _brute_ecdf(xs, t):
    n = len(xs)
    if t <= xs[0]:
        return 1.0 / n
    if t >= xs[-1]:
        return 1.0
    for i in range(n - 1):
        x0, x1 = xs[i], xs[i + 1]
        if x0 <= t <= x1:
            p0, p1 = (i + 1) / n, (i + 2) / n
            return p0 + (p1 - p0) * (t - x0) / (x1 - x0)
    raise AssertionError("interpolation point escaped the knot range")


def _brute_norm(parts, p):
    if math.isinf(p):
        return max(parts, default=0.0)
    return sum(v ** p for v in parts) ** (1.0 / p)


def test_criterion_6_matches_direct_transliteration():
    rng = np.random.default_rng(7)
    refs = (Uniform(), Exponential(), NegExponential(), LogLogistic(1.0))
    norms = (1.0, 2.0, math.inf)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        ref = refs[case % len(refs)]
        p = norms[case % len(norms)]
        data = rng.normal(size=n) if case % 2 else rng.exponential(size=n)
        s = ingest(data)
        xs = [float(v) for v in s.values]

        gaps = [
            _brute_pi(ref.name, j, m) - _brute_ecdf(xs, _brute_mu(xs, j, m))
            for j in range(1, m + 1)
        ]
        want_up = _brute_norm([max(g, 0.0) for g in gaps], p)
        want_down = _brute_norm([max(-g, 0.0) for g in gaps], p)

        got_up, _ = statistic(s, TestSpec(ref=ref, m=m, p_norm=p))
        got_down, _ = statistic(
            s, TestSpec(ref=ref, m=m, p_norm=p, side=Side.LOWER)
        )
        worst = max(worst, abs(got_up - want_up), abs(got_down - want_down))
    assert worst <= 1e-12, f"max abs deviation {worst:.3e}"


def test_criterion_7_cauchy_estimate_converges():
    rng = np.random.default_rng(2024)
    medians = []
    for n in (100, 1000, 10000):
        errors = [
            abs(l_estimate(ingest(rng.standard_cauchy(n)), 2, 3))
            for _ in range(200)
        ]
        medians.append(float(np.median(errors)))
    report = "median |error| " + " -> ".join(f"{v:.4f}" for v in medians)
    assert medians[0] > medians[1] > medians[2], report
    assert medians[2] <= 0.05, report


def test_criterion_8_power_monotone_in_shape():
    grid = PowerGrid(
        alternative="weibull",
        params=(1.0, 1.25, 1.5, 2.0),
        n_grid=(100,),
        m_ell=((5, None),),
        spec=TestSpec(ref=Exponential(), p_norm=1.0, side=Side.UPPER, **FULL),
        replications=REPLICATIONS,
    )
    rows = estimate_power(grid).rows
    rates = [row.rate for row in rows]
    report = "shape grid rates " + " -> ".join(f"{v:.4f}" for v in rates)
    for left, right in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(left.se, right.se)
        assert right.rate >= left.rate - slack, report

    heavy = PowerGrid(
        alternative="log-logistic",
        params=(0.1, 0.2, 0.3, 0.4),
        n_grid=(100,),
        m_ell=((40, 20),),
        spec=TestSpec(
            ref=LogLogistic(1.0),
            p_norm=1.0,
            side=Side.LOWER,
            assumed_tails=TailInfo(0.1, math.inf),
            **FULL,
        ),
        replications=REPLICATIONS,
    )
    heavy_rates = [row.rate for row in estimate_power(heavy).rows]
    report = "heavy-tail rates " + ", ".join(f"{v:.4f}" for v in heavy_rates)
    assert all(v >= 0.99 for v in heavy_rates), report


def test_criterion_9_default_m_not_worse_than_single_rank():
    grid = PowerGrid(
        alternative="weibull",
        params=(1.5,),
        n_grid=(200,),
        m_ell=((1, None), (30, None)),
        spec=TestSpec(ref=Exponential(), p_norm=1.0, side=Side.UPPER, mc_trials=20000,
                      seed=0),
        replications=20000,
    )
    table = estimate_power(grid)
    single = table.rate(m=1)
    default = table.rate(m=30)
    assert default >= single, (
        f"power at the default m=30: {default:.4f}, at m=1: {single:.4f} "
        f"(n=200, shape 1.5, 20000 replications, seed 0). The ordering "
        f"reverses the pinned expectation and is stable across seeds and "
        f"larger budgets, so this red line reflects the measured behavior."
    )
