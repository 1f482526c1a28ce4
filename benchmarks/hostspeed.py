"""Host-speed probe used to scale the benchmark's times.

On a shared host the same pure-Python work runs up to about 1.7x slower for
seconds at a time, on one vCPU and not the other, and CPU time follows wall
time, so neither clock removes it.  The benchmark therefore runs this fixed
loop (big-integer shifts and XORs, like the library's row kernels) before
and after every timed operation, on the same vCPU, and multiplies the
operation's time by ``REF_S / mean probe time``, the mean taken over the
probes within ``WINDOW_S`` of the operation (the slow spells switch on and
off within about a second, so a few probes average them better than the
two at the operation's edges).  Reported times are thus milliseconds at
the host speed where the probe takes ``REF_S`` (its typical time on an idle
2-vCPU x86-64 host with Python 3.11); the unscaled times are kept in the
detailed report.  The probe never touches ``bermanpir``, so a change to the
library moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

REF_S = 0.0115
WINDOW_S = 1.0


def probe() -> tuple[float, float]:
    """(end time, seconds taken) of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    acc, word = 0, (1 << 4096) - 12345
    for i in range(40_000):
        acc ^= (word >> (i & 63)) & 0xFFFFFFFF
    end = time.perf_counter()
    return end, end - t0


def factor(probes: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Scale for a time measured over [t0, t1]: REF_S over the mean probe
    time of the probes (sorted by end time) within WINDOW_S of that span."""
    ends = [t for t, _ in probes]
    near = probes[bisect_left(ends, t0 - WINDOW_S):bisect_right(ends, t1 + WINDOW_S)] or probes
    return REF_S * len(near) / sum(d for _, d in near)
