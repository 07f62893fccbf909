"""Value semantics of the package's record and family types, which are
defined without dataclass code generation."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cxorder import (
    Alternative,
    BoundStatus,
    Cauchy,
    Exponential,
    Frechet,
    IndexDiagnostic,
    InterpolatedEcdf,
    Logistic,
    LogLogistic,
    NegExponential,
    PiBound,
    PowerRow,
    PowerTable,
    QuadResult,
    Sample,
    TailInfo,
    TestResult,
    Uniform,
)


def _row(rate=0.5):
    return PowerRow("weibull", 1.5, 25, 5, 5, 1.0, "upper", rate, 0.05, 100, 0)


def _result(statistic=0.25):
    diag = (IndexDiagnostic(1, 0.5, 0.7, 0.6, 0.1),)
    return TestResult("upper", statistic, 0.2, 0.04, True, 30, diag, {"m": 1, "seed": 0})


# name: (make, a maker of an object that differs in one field or None, and
# whether the fields hash). TestResult holds a dict and PowerTable a list,
# so neither hashes, as the dataclasses they replace did not.
VALUE_TYPES = {
    "TailInfo": (lambda: TailInfo(2.0, math.inf), lambda: TailInfo(2.0, 3.0), True),
    "Uniform": (Uniform, None, True),
    "Exponential": (Exponential, None, True),
    "NegExponential": (NegExponential, None, True),
    "Logistic": (Logistic, None, True),
    "Cauchy": (Cauchy, None, True),
    "LogLogistic": (lambda: LogLogistic(2.5), LogLogistic, True),
    "Frechet": (lambda: Frechet(0.7), lambda: Frechet(0.8), True),
    "Alternative": (lambda: Alternative("weibull", 1.5),
                    lambda: Alternative("neg-weibull", 1.5), True),
    "TestResult": (_result, lambda: _result(0.3), False),
    "PowerTable": (lambda: PowerTable([_row()]), lambda: PowerTable([_row(0.6)]), False),
    "PiBound": (lambda: PiBound(BoundStatus.FINITE, 0.25),
                lambda: PiBound(BoundStatus.TRIVIALLY_ONE, 1.0), True),
    "QuadResult": (lambda: QuadResult(1.0, 1e-12, True), lambda: QuadResult(1.0, 1e-12, False),
                   True),
    "PowerRow": (_row, lambda: _row(None), True),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_equal_fields_give_equal_frozen_values(name):
    make, other, hashable = VALUE_TYPES[name]
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if other is not None:
        assert a != other()
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    field = (a._fields if isinstance(a, tuple) else a.__slots__ + ("name",))[0]
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_families_compare_by_class_and_fields():
    families = [Uniform(), Exponential(), NegExponential(), Logistic(), Cauchy()]
    for i, f in enumerate(families):
        assert [f == g for g in families] == [j == i for j in range(len(families))]
    assert LogLogistic() == LogLogistic(1.0) and LogLogistic(1.0) != Frechet(1.0)


def test_reprs_name_the_fields_and_not_the_family_name():
    assert repr(Exponential()) == "Exponential()"
    assert repr(LogLogistic(2.0)) == "LogLogistic(a=2.0)"
    assert repr(TailInfo(1.0, math.inf)) == "TailInfo(right_index=1.0, left_index=inf)"
    assert repr(Alternative("weibull", 1.5)) == "Alternative(kind='weibull', param=1.5)"
    assert Exponential().name == "exponential" and Frechet(2.0).name == "frechet"
    with pytest.raises(TypeError):
        Exponential(name="other")


@pytest.mark.parametrize("make", [
    lambda x: Sample(values=x, tie_flag=False),
    lambda x: InterpolatedEcdf(x, x),
], ids=["Sample", "InterpolatedEcdf"])
def test_sample_and_ecdf_compare_by_identity(make):
    x = np.array([1.0, 2.0])
    a, b = make(x), make(x)
    assert a == a and a != b and hash(a) != hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a.__slots__[0], x)
    assert repr(a).startswith(f"{type(a).__name__}({a.__slots__[0]}=array(")


def test_only_three_package_classes_are_dataclasses():
    # A fresh interpreter, so no test's own dataclass subclass is counted.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, cxorder, cxorder.cli\n"
            "print(sorted(f'{name}.{attr}' for name, mod in list(sys.modules.items())\n"
            "             if name.split('.')[0] == 'cxorder'\n"
            "             for attr, value in vars(mod).items()\n"
            "             if isinstance(value, type) and value.__module__ == name\n"
            "             and '__dataclass_fields__' in vars(value)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split("\n")[0] == str(["cxorder.distributions.Custom",
                                       "cxorder.simulation.PowerGrid",
                                       "cxorder.testing.TestSpec"])
