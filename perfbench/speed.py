"""How fast the machine runs right now, and times scaled to one speed.

On the shared 2-vCPU machine the benchmark was defined on, the same work
takes up to 1.7 times longer at one moment than at another. CPU time grows
with wall time, so it is not stolen time, and a state lasts from seconds to
minutes. Ten 30 s runs then see a different mix of states from the next ten,
and a raw wall time moves between the two sets by more than any bound.

So the benchmark times a fixed probe, interpreter and C-level work that the
package does not run, between the spans it times, and scales each span by
`REFERENCE_S / probe time` interpolated at the span's midpoint: the time the
span would take at the reference machine's usual speed. Over 75 s of
back-to-back 3 s windows the ratio of a numpy kernel's time to an
interpreter loop's stayed within 6% while both moved by 40%, so one probe
tracks both kinds of work. The probe never runs while the package does, so
a change to the package moves a scaled time as it moves the raw one.

Importing numpy is different. Over a minute or more its import in a fresh
interpreter got 40% faster while the package's import that followed it in
the same child did not change; at another time, a 30% faster import of the
two together left this probe, timed in the same child, unmoved. Numpy's
import is mostly loading C libraries and follows its own state. So set-up
time leaves numpy's import out (it is the same in every version of the
package), and scales the package's own import by this probe, taken in the
child around it.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time

# Median probe time on the reference machine (see README.md), so scaled
# times read as seconds at its usual speed.
REFERENCE_S = 0.0030
REPEATS = 5
INTERVAL_S = 0.25  # at most this long between probes
SETTLE_MAX_S = 0.2

_VALUES = [((i * 7919) % 10007) / 10007.0 for i in range(5_500)]


def _work() -> float:
    total = 0.0
    for x in _VALUES:
        total += math.lgamma(1.0 + x) * math.exp(-x) + math.log1p(x)
    return total + sum(sorted(_VALUES * 4)[::97])


_work()  # the first run pays one-off costs; no probe should


def probe() -> float:
    """Median seconds of REPEATS runs of the fixed work."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _other_threads_cpu_ns() -> int | None:
    me = threading.get_native_id()
    total = 0
    try:
        for tid in os.listdir("/proc/self/task"):
            if int(tid) != me:
                with open(f"/proc/self/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
    except (OSError, ValueError):  # no procfs, or a thread ended while read
        return None
    return total


def settle() -> None:
    """Wait until the process's other threads stop running, at most
    SETTLE_MAX_S. Numpy's BLAS threads spin for 50-70 ms after some calls
    and slow anything run on the other vCPU, a probe too."""
    deadline = time.perf_counter() + SETTLE_MAX_S
    last = _other_threads_cpu_ns()
    while time.perf_counter() < deadline:
        time.sleep(0.01)
        now = _other_threads_cpu_ns()
        if last is not None and now is not None and now - last < 1_000_000:
            return
        last = now


def scale(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s


class Log:
    """Probes taken between timed spans, and those spans scaled to the
    reference speed by the probe time interpolated at their midpoints."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.probes: list[float] = []
        self.take()

    def take(self) -> None:
        settle()
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.at.append((t0 + time.perf_counter()) / 2)

    def take_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.take()

    def probe_at(self, t: float) -> float:
        k = bisect.bisect_left(self.at, t)
        if k == 0:
            return self.probes[0]
        if k == len(self.at):
            return self.probes[-1]
        t0, t1 = self.at[k - 1], self.at[k]
        w = (t - t0) / (t1 - t0)
        return self.probes[k - 1] * (1.0 - w) + self.probes[k] * w

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """(start, seconds) spans, each at the reference speed."""
        return [scale(s, self.probe_at(t + s / 2)) for t, s in spans]
