"""Reference distributions for the null family and samplers for alternatives.

Each built-in reference is the standard member of its location-scale family.
The test statistics are location-scale invariant, so standard members are
all the Monte Carlo engine ever needs. Every family is drawn through
sample(n, rng), once per block of a table: one uniform per value, inverted,
or for Student's t n normals over the root of n scaled chi-squares.
"""

from __future__ import annotations

import functools
import math
import operator
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


class Frozen:
    """Immutable value type that, unlike a dataclass, compiles no code when its
    class is created. Fields are __slots__, set in order by __init__ through
    object.__setattr__; eq, hash, repr, copy and pickle follow from them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def _integer(name: str, value: object, least: int | None = None) -> int:
    """value as an int (operator.index) of at least `least`, or ValueError naming the
    field: the one check of every rank, count and seed a caller passes. No float passes."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


class TailInfo(Frozen):
    """Regular-variation indices of the right and left tails.

    math.inf marks a tail lighter than any power law (including bounded
    support). An index at or below 1 means the corresponding one-sided
    expectation is infinite.
    """

    __slots__ = ("right_index", "left_index")

    def __init__(self, right_index: float, left_index: float) -> None:
        if not (right_index > 0.0 and left_index > 0.0):
            raise ValueError("tail indices must be positive")
        object.__setattr__(self, "right_index", right_index)
        object.__setattr__(self, "left_index", left_index)


def _logistic_cdf(t: np.ndarray) -> np.ndarray:
    # Formulated so that exp never overflows.
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class RefFamily:
    """Base class for reference distributions G.

    Subclasses provide vectorized `_cdf_arr` and `_quantile_arr` over
    interior probabilities; the public wrappers handle scalars, domain
    checks, and quantile endpoints. Each states its support and tail
    indices once, as the attributes `_support` and `_tails` that support()
    and tail_info() return, or overrides those methods.
    """

    __slots__ = ()
    name = "family"

    def params(self) -> dict[str, float]:
        return {}

    def support(self) -> tuple[float, float]:
        return self._support

    def tail_info(self) -> TailInfo:
        return self._tails

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
        """n independent draws by inversion, one uniform per draw, to the bytes
        of quantile(rng.random(n)). The engine's uniforms lie in [0, 1 - 2^-53],
        so without a 0 among them quantile's checks, clip and end pins change
        nothing, and _quantile_arr inverts them directly."""
        u = rng.random(_integer("n", n, 1))
        if not u.all():
            return self.quantile(u)
        with np.errstate(divide="ignore", over="ignore"):
            return self._quantile_arr(u)

    def cache_key(self) -> str:
        items = ",".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{self.name}({items})"

    def identity(self) -> str:
        """Key of the Monte Carlo tables built under this reference.

        cache_key() also names the draw streams, so it must stay as it is;
        this key adds whatever cache_key() leaves out of the distribution.
        """
        return self.cache_key()


class Uniform(RefFamily, Frozen):
    __slots__ = ()
    name = "uniform"
    _support = (0.0, 1.0)
    _tails = TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, 0.0, 1.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return p


class Exponential(RefFamily, Frozen):
    __slots__ = ()
    name = "exponential"
    _support = (0.0, math.inf)
    _tails = TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0)), 0.0)

    @staticmethod
    def _quantile_arr(p: np.ndarray) -> np.ndarray:
        return -np.log1p(-p)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return -np.log(q)


class NegExponential(RefFamily, Frozen):
    """Negative of a standard exponential; support is the negative half line."""

    __slots__ = ()
    name = "neg-exponential"
    _support = (-math.inf, 0.0)
    _tails = TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < 0.0, np.exp(np.minimum(x, 0.0)), 1.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.log(p)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return np.log1p(-q)


class LogLogistic(RefFamily, Frozen):
    """Standard log-logistic with shape a; heavy right tail of index a."""

    __slots__ = ("a",)
    name = "log-logistic"
    _support = (0.0, math.inf)

    def __init__(self, a: float = 1.0) -> None:
        if not 0.0 < a < math.inf:
            raise ValueError("shape a must be positive and finite")
        object.__setattr__(self, "a", a)

    def params(self) -> dict[str, float]:
        return {"a": self.a}

    def tail_info(self) -> TailInfo:
        return TailInfo(self.a, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        # Logistic in a*log(x).
        pos = x > 0.0
        return np.where(pos, _logistic_cdf(self.a * np.log(np.where(pos, x, 1.0))), 0.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return np.exp(Logistic._quantile_arr(p) / self.a)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return np.exp(Logistic._quantile_comp_arr(q) / self.a)


class Logistic(RefFamily, Frozen):
    __slots__ = ()
    name = "logistic"
    _support = (-math.inf, math.inf)
    _tails = TailInfo(math.inf, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return _logistic_cdf(x)

    @staticmethod
    def _quantile_arr(p: np.ndarray) -> np.ndarray:
        return np.log(p) - np.log1p(-p)

    @staticmethod
    def _quantile_comp_arr(q: np.ndarray) -> np.ndarray:
        return np.log1p(-q) - np.log(q)


class Frechet(RefFamily, Frozen):
    """Standard Frechet with shape alpha; right tail of index alpha."""

    __slots__ = ("alpha",)
    name = "frechet"
    _support = (0.0, math.inf)

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha < math.inf:
            raise ValueError("shape alpha must be positive and finite")
        object.__setattr__(self, "alpha", alpha)

    def params(self) -> dict[str, float]:
        return {"alpha": self.alpha}

    def tail_info(self) -> TailInfo:
        return TailInfo(self.alpha, math.inf)

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        pos = x > 0.0
        safe = np.where(pos, x, 1.0)
        return np.where(pos, np.exp(-safe ** (-self.alpha)), 0.0)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        return (-np.log(p)) ** (-1.0 / self.alpha)

    def _quantile_comp_arr(self, q: np.ndarray) -> np.ndarray:
        return Exponential._quantile_arr(q) ** (-1.0 / self.alpha)


class Cauchy(RefFamily, Frozen):
    __slots__ = ()
    name = "cauchy"
    _support = (-math.inf, math.inf)
    _tails = TailInfo(1.0, 1.0)

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
    name = "custom"

    def __post_init__(self) -> None:
        # What support() and tail_info() return; TailInfo checks the indices.
        object.__setattr__(self, "_tails", TailInfo(self.right_index, self.left_index))
        object.__setattr__(self, "_support", (self.support_lo, self.support_hi))

    def params(self) -> dict[str, float]:
        return {"right_index": self.right_index, "left_index": self.left_index}

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
        import hashlib  # loaded on the first fingerprint, not by importing the package

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


class Alternative(Frozen):
    """Named sampling family for power studies, drawn through sample.

    weibull(a), neg-weibull(a), log-logistic(a) and
    shifted-exponential(delta) invert one uniform per value through
    quantile: neg-weibull(a) is the negative of weibull(a) under the same
    uniforms, and shifted-exponential(delta) is delta plus a standard
    exponential. student-t(nu) is a normal over the square root of a
    scaled chi-square, and has no quantile. identity() is cache_key().
    """

    __slots__ = ("kind", "param")

    def __init__(self, kind: str, param: float) -> None:
        if kind not in _ALT_KINDS:
            raise ValueError(f"unknown alternative family {kind!r}")
        if not math.isfinite(param):
            raise ValueError(f"{kind} needs a finite parameter")
        if kind != "shifted-exponential" and not param > 0.0:
            raise ValueError(f"{kind} needs a positive parameter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The values that the uniforms u invert to."""
        if self.kind in ("weibull", "neg-weibull"):
            w = Exponential._quantile_arr(u) ** (1.0 / self.param)
            return w if self.kind == "weibull" else -w
        if self.kind == "log-logistic":
            return np.exp(Logistic._quantile_arr(u) / self.param)
        if self.kind == "shifted-exponential":
            return self.param + Exponential._quantile_arr(u)
        raise ValueError(f"{self.kind} is not drawn by inversion")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = _integer("n", n, 1)
        if self.kind == "student-t":
            z = rng.standard_normal(n)
            return z / np.sqrt(rng.chisquare(self.param, n) / self.param)
        return self.quantile(rng.random(n))

    def cache_key(self) -> str:
        return f"{self.kind}({self.param!r})"

    identity = cache_key
