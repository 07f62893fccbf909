"""Reference distributions for the null family and samplers for alternatives.

Each built-in reference is the standard member of its location-scale family.
The test statistics are location-scale invariant, so standard members are
all the Monte Carlo engine ever needs. Sampling is by quantile inversion
with a single uniform per draw; Student's t is the one exception, built
from a normal draw over the square root of a scaled chi-square draw.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Alternative",
    "Cauchy",
    "Custom",
    "Exponential",
    "Frechet",
    "Logistic",
    "LogLogistic",
    "NegExponential",
    "RefFamily",
    "TailInfo",
    "Uniform",
]

_P_LOW = 1e-300
_P_HIGH = float(np.nextafter(1.0, 0.0))
# Probabilities at which a Custom reference is fingerprinted.
_PROBES = np.array([1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-6])


@dataclass(frozen=True)
class TailInfo:
    """Regular-variation indices of the right and left tails.

    math.inf marks a tail lighter than any power law (including bounded
    support). An index at or below 1 means the corresponding one-sided
    expectation is infinite.
    """

    right_index: float
    left_index: float

    def __post_init__(self) -> None:
        if not (self.right_index > 0.0 and self.left_index > 0.0):
            raise ValueError("tail indices must be positive")


class RefFamily:
    """Base class for reference distributions G.

    Subclasses provide vectorized `_cdf_arr` and `_quantile_arr` over
    interior probabilities; the public wrappers handle scalars, domain
    checks, and quantile endpoints.
    """

    name: str = "family"

    def params(self) -> dict[str, float]:
        return {}

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def tail_info(self) -> TailInfo:
        raise NotImplementedError

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        # Quantile at 1 - q, overridden where the direct form loses the
        # upper tail to rounding.
        return self._quantile_arr(1.0 - q)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._cdf_arr(arr)
        return float(out) if arr.ndim == 0 else out

    def _invert(self, p, inner_fn, complement: bool):
        # Checks, clips to the open interval and pins the support's ends.
        arr = np.asarray(p, dtype=float)
        if np.any(np.isnan(arr)) or np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        lo, hi = self.support()
        inner = np.clip(arr, _P_LOW, _P_HIGH)
        with np.errstate(divide="ignore", over="ignore"):
            out = inner_fn(inner)
        out = np.where(arr == 0.0, hi if complement else lo, out)
        out = np.where(arr == 1.0, lo if complement else hi, out)
        return float(out) if arr.ndim == 0 else out

    def quantile(self, p):
        return self._invert(p, self._quantile_arr, complement=False)

    def quantile_complement(self, q):
        """Quantile at probability 1 - q, accurate for q near zero."""
        return self._invert(q, self._quantile_comp_arr, complement=True)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n independent draws by inversion, one uniform per draw."""
        if n < 1:
            raise ValueError("n must be positive")
        return self.quantile(rng.random(n))

    def cache_key(self) -> str:
        items = ",".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{self.name}({items})"

    def identity(self) -> str:
        """Key of the Monte Carlo tables built under this reference.

        cache_key() also names the draw streams, so it must stay as it is;
        this key adds whatever cache_key() leaves out of the distribution.
        """
        return self.cache_key()


@dataclass(frozen=True)
class Uniform(RefFamily):
    name: str = "uniform"

    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def tail_info(self) -> TailInfo:
        return TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, 0.0, 1.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return p


@dataclass(frozen=True)
class Exponential(RefFamily):
    name: str = "exponential"

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def tail_info(self) -> TailInfo:
        return TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0)), 0.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return -np.log1p(-p)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return -np.log(q)


@dataclass(frozen=True)
class NegExponential(RefFamily):
    """Negative of a standard exponential; support is the negative half line."""

    name: str = "neg-exponential"

    def support(self) -> tuple[float, float]:
        return (-math.inf, 0.0)

    def tail_info(self) -> TailInfo:
        return TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < 0.0, np.exp(np.minimum(x, 0.0)), 1.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.log(p)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return np.log1p(-q)


@dataclass(frozen=True)
class LogLogistic(RefFamily):
    """Standard log-logistic with shape a; heavy right tail of index a."""

    a: float = 1.0
    name: str = "log-logistic"

    def __post_init__(self) -> None:
        if not 0.0 < self.a < math.inf:
            raise ValueError("shape a must be positive and finite")

    def params(self) -> dict[str, float]:
        return {"a": self.a}

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def tail_info(self) -> TailInfo:
        return TailInfo(self.a, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        # Logistic in a*log(x); formulated to avoid overflow for large x.
        pos = x > 0.0
        safe = np.where(pos, x, 1.0)
        t = self.a * np.log(safe)
        e = np.exp(-np.abs(t))
        val = np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        return np.where(pos, val, 0.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.exp((np.log(p) - np.log1p(-p)) / self.a)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return np.exp((np.log1p(-q) - np.log(q)) / self.a)


@dataclass(frozen=True)
class Logistic(RefFamily):
    name: str = "logistic"

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def tail_info(self) -> TailInfo:
        return TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        e = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.log(p) - np.log1p(-p)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return np.log1p(-q) - np.log(q)


@dataclass(frozen=True)
class Frechet(RefFamily):
    """Standard Frechet with shape alpha; right tail of index alpha."""

    alpha: float
    name: str = "frechet"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("shape alpha must be positive and finite")

    def params(self) -> dict[str, float]:
        return {"alpha": self.alpha}

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def tail_info(self) -> TailInfo:
        return TailInfo(self.alpha, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        pos = x > 0.0
        safe = np.where(pos, x, 1.0)
        return np.where(pos, np.exp(-safe ** (-self.alpha)), 0.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return (-np.log(p)) ** (-1.0 / self.alpha)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return (-np.log1p(-q)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class Cauchy(RefFamily):
    name: str = "cauchy"

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def tail_info(self) -> TailInfo:
        return TailInfo(1.0, 1.0)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return 0.5 + np.arctan(x) / math.pi

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.tan(math.pi * (p - 0.5))

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        # tan(pi*(1/2 - q)) = cot(pi*q), stable as q -> 0.
        return 1.0 / np.tan(math.pi * q)


@dataclass(frozen=True, eq=False)
class Custom(RefFamily):
    """User-supplied reference distribution.

    Both handles must accept numpy arrays. Tail indices are required up
    front because index eligibility and bound finiteness depend on them.
    `label` names the draw streams (cache_key()); the table caches also
    key on a fingerprint of the handles, so two references that share a
    label never share a null table.
    """

    cdf_fn: Callable[[np.ndarray], np.ndarray]
    quantile_fn: Callable[[np.ndarray], np.ndarray]
    right_index: float
    left_index: float
    support_lo: float = -math.inf
    support_hi: float = math.inf
    label: str = "custom"
    name: str = "custom"

    def __post_init__(self) -> None:
        if not (self.right_index > 0.0 and self.left_index > 0.0):
            raise ValueError("declared tail indices must be positive")

    def params(self) -> dict[str, float]:
        return {"right_index": self.right_index, "left_index": self.left_index}

    def support(self) -> tuple[float, float]:
        return (self.support_lo, self.support_hi)

    def tail_info(self) -> TailInfo:
        return TailInfo(self.right_index, self.left_index)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.cdf_fn(x), dtype=float)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.quantile_fn(p), dtype=float)

    def cache_key(self) -> str:
        return f"custom({self.label})"

    def identity(self) -> str:
        return f"{self.cache_key()}#{self._fingerprint}"

    @functools.cached_property
    def _fingerprint(self) -> str:
        # The quantile at fixed probabilities, the cdf between those
        # quantiles, the declared tails and the support.
        with np.errstate(all="ignore"):
            q = self.quantile(_PROBES)
            c = self.cdf(0.5 * (q[1:] + q[:-1]))
        h = hashlib.sha256(q.tobytes() + c.tobytes())
        h.update(repr((self.right_index, self.left_index, self.support())).encode())
        return h.hexdigest()[:16]


_ALT_KINDS = (
    "weibull",
    "log-logistic",
    "neg-weibull",
    "student-t",
    "shifted-exponential",
)


@dataclass(frozen=True)
class Alternative:
    """Named sampling family for power studies.

    weibull(a), neg-weibull(a), log-logistic(a) and
    shifted-exponential(delta) are drawn by inversion, one uniform per
    value, through quantile: neg-weibull(a) is the negative of weibull(a)
    under the same uniforms, and shifted-exponential(delta) is delta plus a
    standard exponential. student-t(nu) is a normal over the square root of
    a scaled chi-square, and has no quantile.
    """

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in _ALT_KINDS:
            raise ValueError(f"unknown alternative family {self.kind!r}")
        if not math.isfinite(self.param):
            raise ValueError(f"{self.kind} needs a finite parameter")
        if self.kind != "shifted-exponential" and not self.param > 0.0:
            raise ValueError(f"{self.kind} needs a positive parameter")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The values that the uniforms u invert to."""
        if self.kind == "weibull":
            return (-np.log1p(-u)) ** (1.0 / self.param)
        if self.kind == "neg-weibull":
            return -((-np.log1p(-u)) ** (1.0 / self.param))
        if self.kind == "log-logistic":
            return np.exp((np.log(u) - np.log1p(-u)) / self.param)
        if self.kind == "shifted-exponential":
            return self.param + (-np.log1p(-u))
        raise ValueError(f"{self.kind} is not drawn by inversion")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be positive")
        if self.kind == "student-t":
            z = rng.standard_normal(n)
            v = rng.chisquare(self.param, n)
            return z / np.sqrt(v / self.param)
        return self.quantile(rng.random(n))

    def tail_info(self) -> TailInfo:
        if self.kind == "log-logistic":
            return TailInfo(self.param, math.inf)
        if self.kind == "student-t":
            return TailInfo(self.param, self.param)
        return TailInfo(math.inf, math.inf)

    def cache_key(self) -> str:
        return f"{self.kind}({self.param!r})"
