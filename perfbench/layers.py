"""Which functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Every count and time is per traced request (the mean over the traced
requests), so runs of different length compare directly. Shares
are fractions of the traced requests' total self time.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .tracing import Target, self_times


def _args(args, kwargs, *names):
    """Positional-or-keyword arguments by position, then name."""
    out = list(args[: len(names)])
    for name in names[len(out):]:
        out.append(kwargs[name])
    return out


def _tolerant(fn):
    # A probe reads arguments only to count work. If a later version of the
    # package changes a signature, the call must still run; the probe then
    # records nothing and the metric built on it reads low.
    def probe(args, kwargs):
        try:
            return fn(args, kwargs)
        except (IndexError, KeyError, AttributeError, TypeError):
            return None

    return probe


def _weights_key(args, kwargs):
    return tuple(int(v) for v in _args(args, kwargs, "n", "j", "m"))


def _pi_key(args, kwargs):
    ref, j, m = _args(args, kwargs, "ref", "j", "m")
    return (ref.cache_key(), int(j), int(m))


def _rows(args, kwargs):
    return int(np.shape(_args(args, kwargs, "sorted_rows")[0])[0])


def _null_key(args, kwargs):
    ref, *rest = _args(args, kwargs, "ref", "n", "m", "indices", "p_norm", "trials", "seed")
    return repr((ref.cache_key(), *(tuple(v) if isinstance(v, (list, tuple)) else v for v in rest)))


def _pairs(args, kwargs):
    k = int(np.size(args[0]))
    return k * (k - 1) // 2


def _threads(args, kwargs):
    return int(getattr(_args(args, kwargs, "grid")[0], "threads", 1))


TARGETS = (
    Target("seeds.derive_rng", "cxorder._seeds", "derive_rng"),
    Target("distributions.ref_sample", "cxorder.distributions:RefFamily", "sample"),
    Target("distributions.alt_sample", "cxorder.distributions:Alternative", "sample"),
    Target("special.reg_inc_beta", "cxorder.special", "reg_inc_beta"),
    Target("special.integrate_01", "cxorder.special", "integrate_01"),
    Target("order_stats.weights", "cxorder.order_stats", "_weights_readonly",
           probe=_tolerant(_weights_key)),
    Target("order_stats.pi_bound", "cxorder.order_stats", "pi_bound",
           probe=_tolerant(_pi_key)),
    Target("testing.batch_statistics", "cxorder.testing", "batch_statistics",
           probe=_tolerant(_rows)),
    Target("testing.null_statistics", "cxorder.testing", "null_statistics",
           probe=_tolerant(_null_key)),
    Target("testing.run_test", "cxorder.testing", "run_test"),
    Target("baselines.pair_counts", "cxorder.baselines", "_pair_counts",
           probe=_tolerant(_pairs)),
    Target("simulation.estimate_power", "cxorder.simulation", "estimate_power",
           probe=_tolerant(_threads), pool_parent=True),
    Target("simulation.power_cell", "cxorder.simulation", "_power_cell", cpu=True),
    Target("cli.main", "cxorder.cli", "main"),
)

WEIGHT_LAYERS = ("special.reg_inc_beta", "order_stats.weights")
MONTE_CARLO_LAYERS = (
    "seeds.derive_rng",
    "distributions.ref_sample",
    "distributions.alt_sample",
    "testing.batch_statistics",
    "baselines.pair_counts",
)

# The layer each workload was chosen to stress, and the share of traced self
# time it must reach for the workload to stress it as documented.
DOMINANT = {
    "cold_large": ("share.weights", 0.80),
    "warm_scan": ("share.integrate_01", 0.90),
    "power_study": ("share.monte_carlo", 0.60),
}


def analyse(spans, names, probes, cpu, weight_misses):
    """Per-layer metrics from the spans of the traced requests.

    `weight_misses` maps request id to the growth of the weight cache's miss
    counter over that request, or is None when the cache reports none.
    Returns the metrics (calls and self time of every target, plus the
    derived ones below) and every span's self time; BENCHMARK.json names
    the ones a run reports.
    """
    st = self_times(spans["start"], spans["end"], spans["parent"], spans["thread"])
    req = spans["request"]
    parent = spans["parent"]
    requests = np.unique(req[req >= 0]).tolist()
    count = max(len(requests), 1)
    nid = {name: i for i, name in enumerate(names)}

    def ids(layer):
        """Span ids of one layer in start order."""
        if layer not in nid:
            return np.empty(0, dtype=np.int64)
        found = np.flatnonzero(spans["name"] == nid[layer])
        return found[np.argsort(spans["start"][found], kind="stable")]

    def self_total(layer):
        return float(st[ids(layer)].sum())

    m: dict[str, float] = {}
    for target in TARGETS:
        m[f"{target.name}.calls"] = ids(target.name).size / count
        m[f"{target.name}.self_s"] = self_total(target.name) / count

    # Weight cache: of the distinct (n, j, m) keys a request asks for, the
    # share served without a miss; bytes are 8 n per distinct key.
    keys_by_req: dict[int, set] = defaultdict(set)
    for sid in ids("order_stats.weights").tolist():
        key = probes.get(sid)
        if key is not None:
            keys_by_req[int(req[sid])].add(key)
    distinct = sum(len(keys_by_req[r]) for r in requests)
    if weight_misses is None or distinct == 0:
        m["order_stats.weights.hit_ratio"] = 0.0
    else:
        hits = sum(max(len(keys_by_req[r]) - weight_misses.get(r, 0), 0) for r in requests)
        m["order_stats.weights.hit_ratio"] = hits / distinct
    m["order_stats.weights.cache_bytes"] = max(
        (sum(8 * k[0] for k in keys_by_req[r]) for r in requests), default=0
    )

    pi_calls = ids("order_stats.pi_bound").tolist()
    pi_keys = {probes.get(sid) for sid in pi_calls} - {None}
    m["order_stats.pi_bound.distinct_ratio"] = len(pi_keys) / len(pi_calls) if pi_calls else 0.0

    m["testing.batch_statistics.rows"] = sum(
        probes.get(sid) or 0 for sid in ids("testing.batch_statistics").tolist()) / count
    m["baselines.pair_counts.pairs"] = sum(
        probes.get(sid) or 0 for sid in ids("baselines.pair_counts").tolist()) / count

    # Null tables: the first call for each key in a request is a hit when no
    # batch_statistics ran beneath it, i.e. the table came from a cache.
    null_nid = nid.get("testing.null_statistics", -1)
    computed = set()
    for sid in ids("testing.batch_statistics").tolist():
        p = int(parent[sid])
        while p >= 0:
            if spans["name"][p] == null_nid:
                computed.add(p)
            p = int(parent[p])
    seen, first_calls, first_hits = set(), 0, 0
    for sid in ids("testing.null_statistics").tolist():
        key = (int(req[sid]), probes.get(sid))
        if key in seen:
            continue
        seen.add(key)
        first_calls += 1
        first_hits += sid not in computed
    m["testing.null_statistics.hit_ratio"] = first_hits / first_calls if first_calls else 0.0

    # Pool occupancy: thread CPU time spent in power cells over the
    # capacity (wall time x threads) of the estimate_power calls above them.
    pools = ids("simulation.estimate_power")
    cells = ids("simulation.power_cell")
    busy = sum(cpu.get(sid, 0.0) for sid in cells[np.isin(parent[cells], pools)].tolist())
    capacity = sum((spans["end"][sid] - spans["start"][sid]) * (probes.get(sid) or 1)
                   for sid in pools.tolist())
    m["simulation.thread_busy_ratio"] = busy / capacity if capacity else 0.0

    total_self = float(st[req >= 0].sum()) or 1.0
    m["share.weights"] = sum(self_total(k) for k in WEIGHT_LAYERS) / total_self
    m["share.integrate_01"] = self_total("special.integrate_01") / total_self
    m["share.monte_carlo"] = sum(self_total(k) for k in MONTE_CARLO_LAYERS) / total_self
    return m, st
