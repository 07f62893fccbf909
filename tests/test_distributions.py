"""Reference families and sampling alternatives.

Closed-form point values were double-checked with mpmath; distributional
shape is verified by probability integral transform plus a KS bound at
fixed seeds.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from cxorder import (
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

ALL_FAMILIES = [
    Uniform(),
    Exponential(),
    NegExponential(),
    LogLogistic(1.0),
    LogLogistic(2.5),
    Logistic(),
    Frechet(0.7),
    Frechet(2.0),
    Cauchy(),
]

# 5 percent two-sided KS bound for the PIT samples below
_KS_N = 2000
_KS_BOUND = 1.36 / math.sqrt(_KS_N)


def test_cdf_known_points():
    assert Exponential().cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    assert LogLogistic(1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-14)
    assert NegExponential().cdf(-0.5) == pytest.approx(math.exp(-0.5), abs=1e-14)
    assert Cauchy().cdf(2.0) == pytest.approx(0.8524163823495667, abs=1e-13)
    assert Logistic().cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_quantile_known_points():
    assert Uniform().quantile(0.3) == pytest.approx(0.3, abs=1e-15)
    assert Exponential().quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-13)
    assert Frechet(2.0).quantile(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-13)
    assert Frechet(0.5).quantile(0.3) == pytest.approx(0.6898690253618754, rel=1e-13)
    assert Logistic().quantile(0.8) == pytest.approx(1.3862943611198906, rel=1e-13)


@pytest.mark.parametrize("ref", ALL_FAMILIES, ids=lambda r: r.cache_key())
def test_quantile_cdf_roundtrip(ref):
    grid = np.linspace(0.01, 0.99, 25)
    x = ref.quantile(grid)
    back = ref.cdf(x)
    assert np.allclose(back, grid, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("ref", ALL_FAMILIES, ids=lambda r: r.cache_key())
def test_quantile_endpoints_hit_support(ref):
    lo, hi = ref.support()
    assert ref.quantile(0.0) == lo
    assert ref.quantile(1.0) == hi
    assert ref.quantile_complement(0.0) == hi
    assert ref.quantile_complement(1.0) == lo


@pytest.mark.parametrize("ref", ALL_FAMILIES, ids=lambda r: r.cache_key())
def test_quantile_complement_matches_quantile_at_moderate_q(ref):
    grid = np.linspace(0.02, 0.98, 25)
    direct = ref.quantile(1.0 - grid)
    comp = ref.quantile_complement(grid)
    assert np.allclose(comp, direct, rtol=1e-12, atol=1e-12)


def test_quantile_complement_deep_tail_inverts_survival():
    # Each check recovers q from the returned point through an
    # independently coded survival function, at q far below 1 ulp of 1.
    q = 1e-300
    assert math.exp(-Exponential().quantile_complement(q)) == pytest.approx(q, rel=1e-12)
    assert -math.expm1(NegExponential().quantile_complement(q)) == pytest.approx(q, rel=1e-12)
    x = LogLogistic(1.0).quantile_complement(q)
    assert 1.0 / (1.0 + x) == pytest.approx(q, rel=1e-12)
    x = Logistic().quantile_complement(q)
    assert 1.0 / (1.0 + math.exp(x)) == pytest.approx(q, rel=1e-12)
    x = Frechet(2.0).quantile_complement(q)
    assert -math.expm1(-(x ** -2.0)) == pytest.approx(q, rel=1e-12)
    x = Cauchy().quantile_complement(q)
    assert math.atan2(1.0, x) / math.pi == pytest.approx(q, rel=1e-12)

    # moderate-depth check for a fractional log-logistic shape
    q = 1e-12
    x = LogLogistic(2.5).quantile_complement(q)
    assert 1.0 / (1.0 + x**2.5) == pytest.approx(q, rel=1e-9)


def test_probability_arguments_validated():
    with pytest.raises(ValueError):
        Exponential().quantile(-0.1)
    with pytest.raises(ValueError):
        Exponential().quantile(1.5)
    with pytest.raises(ValueError):
        Exponential().quantile_complement(float("nan"))


def test_scalar_array_conventions():
    ref = Logistic()
    assert isinstance(ref.cdf(0.3), float)
    assert isinstance(ref.quantile(0.3), float)
    out = ref.cdf(np.array([0.1, 0.2]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


@pytest.mark.parametrize("ref", ALL_FAMILIES, ids=lambda r: r.cache_key())
def test_sampling_pit_uniform(ref):
    rng = np.random.default_rng(2024)
    x = ref.sample(_KS_N, rng)
    lo, hi = ref.support()
    assert np.all(x >= lo) and np.all(x <= hi)
    stat = kstest(ref.cdf(x), "uniform").statistic
    assert stat <= _KS_BOUND


def test_sampling_is_deterministic_per_seed():
    ref = Frechet(1.3)
    a = ref.sample(64, np.random.default_rng(9))
    b = ref.sample(64, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        ref.sample(0, np.random.default_rng(9))


def test_tail_info_values():
    assert Exponential().tail_info() == TailInfo(math.inf, math.inf)
    assert Uniform().tail_info() == TailInfo(math.inf, math.inf)
    assert NegExponential().tail_info() == TailInfo(math.inf, math.inf)
    assert LogLogistic(1.0).tail_info() == TailInfo(1.0, math.inf)
    assert Frechet(0.7).tail_info() == TailInfo(0.7, math.inf)
    assert Cauchy().tail_info() == TailInfo(1.0, 1.0)


def test_tail_indices_must_be_positive():
    with pytest.raises(ValueError) as info:
        TailInfo(0.0, math.inf)
    assert type(info.value) is ValueError
    assert str(info.value) == "tail indices must be positive"


@pytest.mark.parametrize("cls", [Uniform, Exponential, NegExponential, Logistic, Cauchy])
def test_a_family_without_a_shape_states_support_and_tails_once(cls):
    assert "support" not in vars(cls) and "tail_info" not in vars(cls)
    assert cls().tail_info() is cls().tail_info()
    assert cls().support() is cls._support


@pytest.mark.parametrize("cls", [LogLogistic, Frechet])
def test_a_shaped_family_states_its_support_once(cls):
    assert "support" not in vars(cls)
    assert cls(2.0).support() == (0.0, math.inf)


def test_a_family_that_states_no_support_or_tails_raises_attribute_error():
    class Bare(RefFamily):
        __slots__ = ()

    with pytest.raises(AttributeError):
        Bare().support()
    with pytest.raises(AttributeError):
        Bare().tail_info()


def test_shape_parameters_validated():
    with pytest.raises(ValueError):
        LogLogistic(0.0)
    with pytest.raises(ValueError):
        Frechet(-1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_log_logistic_rejects_non_finite_shape(value):
    with pytest.raises(ValueError):
        LogLogistic(value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_frechet_rejects_non_finite_shape(value):
    with pytest.raises(ValueError):
        Frechet(value)


@pytest.mark.parametrize("kind", ["weibull", "log-logistic", "neg-weibull", "student-t",
                                  "shifted-exponential"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_alternative_rejects_non_finite_parameter(kind, value):
    with pytest.raises(ValueError):
        Alternative(kind, value)


def test_cache_keys_distinguish_parameters():
    assert Exponential().cache_key() == "exponential()"
    assert LogLogistic(1.5).cache_key() != LogLogistic(2.0).cache_key()
    assert Frechet(1.0).cache_key() != LogLogistic(1.0).cache_key()


def test_custom_family_delegates_to_handles():
    cus = Custom(
        cdf_fn=lambda x: -np.expm1(-np.maximum(x, 0.0)),
        quantile_fn=lambda p: -np.log1p(-p),
        right_index=math.inf,
        left_index=math.inf,
        support_lo=0.0,
        label="exp-copy",
    )
    assert cus.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    assert cus.quantile(0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    assert cus.cache_key() == "custom(exp-copy)"
    assert cus.tail_info() == TailInfo(math.inf, math.inf)
    assert cus.support() == (0.0, math.inf)
    with pytest.raises(ValueError, match="^tail indices must be positive$"):
        Custom(
            cdf_fn=lambda x: x,
            quantile_fn=lambda p: p,
            right_index=0.0,
            left_index=1.0,
        )


def test_alternative_validation():
    with pytest.raises(ValueError):
        Alternative("gamma", 1.0)
    with pytest.raises(ValueError):
        Alternative("weibull", 0.0)
    # shift parameter may be any real number
    Alternative("shifted-exponential", -2.0)


def test_alternative_sample_needs_a_positive_size():
    with pytest.raises(ValueError) as info:
        Alternative("weibull", 1.5).sample(0, np.random.default_rng(0))
    assert type(info.value) is ValueError
    assert str(info.value) == "n must be at least 1"


def test_weibull_shape_one_is_exponential():
    alt = Alternative("weibull", 1.0)
    x = alt.sample(_KS_N, np.random.default_rng(5))
    stat = kstest(Exponential().cdf(x), "uniform").statistic
    assert stat <= _KS_BOUND


def test_neg_weibull_mirrors_weibull_under_same_seed():
    pos = Alternative("weibull", 1.7).sample(128, np.random.default_rng(31))
    neg = Alternative("neg-weibull", 1.7).sample(128, np.random.default_rng(31))
    np.testing.assert_array_equal(neg, -pos)


def test_student_t_one_is_cauchy():
    alt = Alternative("student-t", 1.0)
    x = alt.sample(_KS_N, np.random.default_rng(77))
    stat = kstest(Cauchy().cdf(x), "uniform").statistic
    assert stat <= _KS_BOUND


def test_student_t_has_no_quantile():
    with pytest.raises(ValueError):
        Alternative("student-t", 3.0).quantile(np.array([0.5]))


def test_log_logistic_alternative_matches_reference_family():
    alt = Alternative("log-logistic", 2.0)
    x = alt.sample(_KS_N, np.random.default_rng(13))
    stat = kstest(LogLogistic(2.0).cdf(x), "uniform").statistic
    assert stat <= _KS_BOUND


def test_shifted_exponential_is_translated():
    alt = Alternative("shifted-exponential", 1.0)
    x = alt.sample(_KS_N, np.random.default_rng(40))
    assert np.min(x) >= 1.0
    stat = kstest(Exponential().cdf(x - 1.0), "uniform").statistic
    assert stat <= _KS_BOUND


def test_alternative_cache_keys():
    assert Alternative("weibull", 1.5).cache_key() == "weibull(1.5)"
    assert Alternative("weibull", 1.5).cache_key() != Alternative("weibull", 2.0).cache_key()
