"""Command line interface.

Subcommands: test, pp-test, critical-value, power, reproduce, hill.
All randomness funnels through a single 64-bit --seed flag; when absent a
seed is drawn from OS entropy and echoed in the output so any run can be
replayed exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import simulation
from .baselines import pp_test
from .distributions import (
    Cauchy,
    Exponential,
    Frechet,
    Logistic,
    LogLogistic,
    NegExponential,
    RefFamily,
    TailInfo,
    Uniform,
)
from .order_stats import Sample, hill_estimate, ingest
from .simulation import PowerGrid, PowerTable, _pp_rows, estimate_power, reproduce
from .special import ConvergenceError
from .testing import Side, TestResult, TestSpec, critical_value, run_test

__all__ = ["main"]

INDICES_HELP = "explicit comma-separated ranks; give either this or --ell, not both"


class CliError(Exception):
    """User-facing configuration or input problem."""


_FAMILIES = {cls.name: cls for cls in (Uniform, Exponential, NegExponential, LogLogistic,
                                       Logistic, Frechet, Cauchy)}


def parse_family(text: str) -> RefFamily:
    """Parse a --g flag value like exponential, log-logistic:2, frechet:0.5."""
    name, sep, arg = text.partition(":")
    family = _FAMILIES.get(name.strip().lower())
    if family is None:
        raise CliError(f"unknown reference family {text!r}")
    if sep and family in (LogLogistic, Frechet):
        return family(float(arg))
    if sep:
        raise CliError(f"{family.name} takes no parameter, got {text!r}")
    if family is Frechet:
        raise CliError(f"{family.name} needs a shape, e.g. {family.name}:0.5")
    return family()


def read_data_file(path: str) -> list[float]:
    """One numeric value per line; '#' starts a comment; blanks ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(float(body))
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: not a number: {body!r}") from exc
    if not values:
        raise CliError(f"{path}: no data values found")
    return values


def _parse_list(text: str, kind: str, convert) -> tuple:
    """Non-empty comma-separated list; blank items are skipped."""
    try:
        values = tuple(convert(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise CliError(f"expected comma-separated {kind}, got {text!r}")
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, "integers", int)


def _parse_params(args) -> tuple[float, ...]:
    if (args.params is None) == (args.param_range is None):
        raise CliError("give exactly one of --params and --param-range")
    if args.params is not None:
        return _parse_list(args.params, "numbers", float)
    try:
        lo, hi, step = (float(t) for t in args.param_range.split(":"))
    except ValueError as exc:
        raise CliError("param range must be lo:hi:step") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise CliError("param range bounds and step must be finite")
    if step <= 0 or hi < lo:
        raise CliError("param range must be lo:hi:step with step > 0")
    return simulation._param_grid(lo, hi, step)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return secrets.randbits(63)


def _assumed_tails(args) -> TailInfo | None:
    if args.assumed_alpha is None and args.assumed_beta is None:
        return None
    return TailInfo(
        args.assumed_alpha if args.assumed_alpha is not None else math.inf,
        args.assumed_beta if args.assumed_beta is not None else math.inf,
    )


def _spec(args, seed: int, **fields) -> TestSpec:
    """The TestSpec fields every test command reads from the same flags;
    the caller gives m (power grids give it per cell), p_norm and side."""
    indices = getattr(args, "indices", None)
    return TestSpec(
        ref=parse_family(args.g),
        indices=_parse_int_list(indices) if indices else None,
        ell=args.ell,
        assumed_tails=_assumed_tails(args),
        index_rule=args.index_rule,
        sig_level=args.alpha,
        mc_trials=args.trials,
        seed=seed,
        **fields,
    )


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _result_record(res: TestResult, warnings_list: list[str], path: str) -> dict:
    # The config's keys through side, the outcome, then the rest of the
    # config (alpha, trials, seed); run_test and pp_test order them alike.
    items = [(k, _jsonable(v)) for k, v in res.config.items()]
    cut = [k for k, _ in items].index("side") + 1
    outcome = [("statistic", res.statistic), ("critical_value", res.critical_value),
               ("p_value", res.p_value), ("reject", res.reject)]
    return dict(items[:cut] + outcome + items[cut:], warnings=warnings_list, input=path)


def _load_sample(path: str) -> tuple[Sample, list[str]]:
    values = read_data_file(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = ingest(values)
    return sample, [str(w.message) for w in caught]


def cmd_test(args) -> int:
    seed = _resolve_seed(args)
    spec = _spec(args, seed, m=args.m, p_norm=float(args.p), side=Side(args.side))
    sample, warn_list = _load_sample(args.input)
    result = run_test(sample, spec)
    if isinstance(result, tuple):
        payload = [_result_record(r, warn_list, args.input) for r in result]
    else:
        payload = _result_record(result, warn_list, args.input)
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_pp_test(args) -> int:
    seed = _resolve_seed(args)
    sample, warn_list = _load_sample(args.input)
    res = pp_test(
        sample, side=args.side, sig_level=args.alpha,
        mc_trials=args.trials, seed=seed,
    )
    _emit(json.dumps(_result_record(res, warn_list, args.input), indent=2), args.out)
    return 0


def cmd_critical_value(args) -> int:
    seed = _resolve_seed(args)
    sides = tuple(map(Side, _parse_list(args.side, "sides", str.strip)))
    if Side.BOTH in sides:
        raise CliError("critical-value takes side upper or lower, not both")
    p_values = _parse_list(args.p, "norm orders", float)
    m_values = _parse_int_list(args.m) if args.m is not None else (None,)
    # Resolve every spec before drawing any table: a bad flag fails at once.
    pinned = [
        (n, _spec(args, seed, m=m, p_norm=p, side=side).resolve(n))
        for n in _parse_int_list(args.n)
        for m in m_values
        for p in p_values
        for side in sides
    ]
    rows = [
        (n, rs.m, len(rs.indices), rs.p_norm, rs.side.value, rs.sig_level,
         critical_value(rs, n), rs.mc_trials, rs.seed)
        for n, rs in pinned
    ]
    header = ("n", "m", "ell", "p", "side", "alpha", "critical_value", "trials", "seed")
    _emit(simulation._csv(header, rows), args.out)
    return 0


def _check_pp_flags(args) -> None:
    """Reject test-spec flags under --pp: the Proschan-Pyke test reads none."""
    given = (
        ("--g", parse_family(args.g) != Exponential()),
        ("--m", args.m is not None),
        ("--p", float(args.p) != 1.0),
        ("--ell", args.ell is not None),
        ("--assumed-alpha", args.assumed_alpha is not None),
        ("--assumed-beta", args.assumed_beta is not None),
        ("--index-rule", args.index_rule is not None),
    )
    flags = [flag for flag, is_set in given if is_set]
    if flags:
        raise CliError(f"--pp runs the Proschan-Pyke test, which takes no {', '.join(flags)}")


def cmd_power(args) -> int:
    seed = _resolve_seed(args)
    params = _parse_params(args)
    if args.pp:
        _check_pp_flags(args)
        side = "ihr" if Side(args.side) is Side.UPPER else "dhr"
        table = PowerTable(_pp_rows(args.family, params, _parse_int_list(args.n), (side,),
                                    args.replications, args.trials, seed, args.alpha))
    else:
        if args.m is None:
            raise CliError("give --m for power grids")
        spec = _spec(args, seed, p_norm=float(args.p), side=Side(args.side))
        grid = PowerGrid(args.family, params, _parse_int_list(args.n),
                         tuple((m, spec.ell) for m in _parse_int_list(args.m)),
                         replace(spec, ell=None), args.replications)
        table = estimate_power(grid)
    _emit(table.to_csv(), args.out)
    return 0


def cmd_reproduce(args) -> int:
    seed = _resolve_seed(args)
    path = reproduce(
        args.target,
        out_dir=args.out_dir,
        replications=args.replications,
        mc_trials=args.trials,
        seed=seed,
    )
    sys.stdout.write(f"{path}\n")
    return 0


def cmd_hill(args) -> int:
    sample, warn_list = _load_sample(args.input)
    k = args.k if args.k is not None else math.isqrt(sample.n)
    alpha_hat = hill_estimate(sample, k)
    record = {
        "n": sample.n,
        "k": k,
        "alpha_hat": alpha_hat,
        "input": args.input,
        "warnings": warn_list,
    }
    _emit(json.dumps(record, indent=2), args.out)
    return 0


def _add_common_mc(sub) -> None:
    sub.add_argument("--alpha", type=float, default=0.1,
                     help="significance level (default 0.1)")
    sub.add_argument("--trials", type=int, default=5000,
                     help="Monte Carlo trials for critical values")
    sub.add_argument("--seed", type=int, default=None,
                     help="64-bit seed; drawn from entropy when absent")
    sub.add_argument("--out", default=None, help="write output to this file")


def _add_spec_flags(sub, m_list: bool = False) -> None:
    sub.add_argument("--g", default=Exponential.name,
                     help="reference family: uniform | exponential | "
                          "neg-exponential | log-logistic[:a] | logistic | "
                          "frechet:alpha | cauchy")
    if m_list:
        sub.add_argument("--m", default=None,
                         help="comma-separated numbers of expected order "
                              "statistics (default: ceil(0.15 n))")
    else:
        sub.add_argument("--m", type=int, default=None,
                         help="number of expected order statistics "
                              "(default: ceil(0.15 n))")
    sub.add_argument("--p", default="1", help="norm order: 1, 2, ... or inf")
    sub.add_argument("--ell", type=int, default=None,
                     help="select this many ranks automatically")
    sub.add_argument("--assumed-alpha", type=float, default=None,
                     help="assumed right tail index of the data")
    sub.add_argument("--assumed-beta", type=float, default=None,
                     help="assumed left tail index of the data")
    sub.add_argument("--index-rule", choices=("low", "high", "central"),
                     default=None, help="override the automatic rank placement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxorder",
        description="Nonparametric tests for convex-ordered families",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("test", help="test a data file against a reference family")
    sub.add_argument("input", help="data file, one numeric value per line")
    _add_spec_flags(sub)
    sub.add_argument("--indices", default=None, help=INDICES_HELP)
    sub.add_argument("--side", choices=("upper", "lower", "both"), default="upper")
    _add_common_mc(sub)
    sub.set_defaults(func=cmd_test)

    sub = subs.add_parser("pp-test", help="Proschan-Pyke exponentiality test")
    sub.add_argument("input")
    sub.add_argument("--side", choices=("ihr", "dhr"), default="ihr")
    _add_common_mc(sub)
    sub.set_defaults(func=cmd_pp_test)

    sub = subs.add_parser("critical-value", help="tabulate Monte Carlo critical values")
    sub.add_argument("--n", required=True, help="comma-separated sample sizes")
    _add_spec_flags(sub, m_list=True)
    sub.add_argument("--indices", default=None, help=INDICES_HELP)
    sub.add_argument("--side", default="upper",
                     help="comma-separated subset of upper,lower")
    _add_common_mc(sub)
    sub.set_defaults(func=cmd_critical_value)

    sub = subs.add_parser("power", help="estimate rejection rates on a grid")
    sub.add_argument("--family", required=True,
                     help="alternative family: weibull | log-logistic | "
                          "neg-weibull | student-t | shifted-exponential")
    sub.add_argument("--params", default=None, help="comma-separated parameters")
    sub.add_argument("--param-range", default=None, help="lo:hi:step")
    sub.add_argument("--n", required=True, help="comma-separated sample sizes")
    _add_spec_flags(sub, m_list=True)
    sub.add_argument("--side", choices=("upper", "lower"), default="upper")
    sub.add_argument("--pp", action="store_true",
                     help="run the Proschan-Pyke baseline instead")
    sub.add_argument("--replications", type=int, default=5000)
    _add_common_mc(sub)
    sub.set_defaults(func=cmd_power)

    sub = subs.add_parser("reproduce", help="rebuild a named power exhibit")
    sub.add_argument("target", choices=sorted(simulation.EXHIBITS))
    sub.add_argument("--out-dir", default="exhibits")
    sub.add_argument("--replications", type=int, default=5000)
    sub.add_argument("--trials", type=int, default=5000)
    sub.add_argument("--seed", type=int, default=None)
    sub.set_defaults(func=cmd_reproduce)

    sub = subs.add_parser("hill", help="Hill estimate of the right tail index")
    sub.add_argument("input")
    sub.add_argument("--k", type=int, default=None,
                     help="top order statistics to use (default floor(sqrt(n)))")
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_hill)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
