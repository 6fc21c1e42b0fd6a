"""Machine-speed calibration for timings taken on a shared host.

On the 2-vCPU KVM guest this benchmark was developed on, the speed of one core
swings between about 1.0x and 1.5x over a few seconds as other tenants load
the host, and thread CPU time swings with wall time, so neither is steady
on its own. Each invocation is therefore timed between two runs of a fixed
loop, and its wall time is rescaled to what it would have been had the loop
run at its reference speed:

    scaled = wall * reference / mean(loop before, loop after)

Code slows down by different amounts depending on what it spends its time
on, so each workload names the loop that resembles its work:

- "interpreter": scalar Python arithmetic and small NumPy operations, like
  the per-sample solvers and schedule builds;
- "arrays": the same plus multi-megabyte fresh arrays whose pages the kernel
  must fault in, like the Monte Carlo batches.

Over ten runs per workload on the development machine, the matching loop
cut the run-to-run spread (interquartile range over median) of a pass's time
from 15-20% raw to 3-9%; the other loop did less well on every workload. The
loops call nothing in `uavlink`, so a change to the program cannot move them.
"""

import time

import numpy as np

_A = np.random.default_rng(1).standard_normal((4096, 8))


def _interpreter_loop() -> None:
    x = 0.0
    for _ in range(15):
        x += float((np.abs(_A) ** 2 + _A * 0.5).sum())
        for k in range(1500):
            x += k ** 0.5


def _arrays_loop() -> None:
    x = 0.0
    for _ in range(10):
        x += float((np.abs(_A) ** 2 + _A * 0.5).sum())
        for k in range(1000):
            x += k ** 0.5
        big = np.empty((8192, 64))
        big.fill(1.0)
        x += float(big[::512, ::8].sum())


# loop -> (body, median seconds of one run on the development machine:
# 2 x Intel Xeon vCPU under KVM, Python 3.11, NumPy 2.4)
LOOPS = {
    "interpreter": (_interpreter_loop, 0.004),
    "arrays": (_arrays_loop, 0.007),
}


def loop_seconds(loop: str) -> float:
    """Wall time of one run of a calibration loop."""
    body = LOOPS[loop][0]
    t0 = time.perf_counter()
    body()
    return time.perf_counter() - t0


def scaled(loop: str, wall: float, before: float, after: float) -> float:
    """`wall` rescaled to the reference speed of a calibration loop."""
    return wall * LOOPS[loop][1] / (0.5 * (before + after))
