"""A fixed piece of work that tracks the machine's speed during a run.

On a shared machine the CPU speed one process sees drifts by 10-30% over
seconds to minutes, which moves a whole run's median.  Each measured
process times this loop right before and right after its `sipm bench` call,
on the same CPU, and its times are scaled by
``(REFERENCE_S / mean of the two loop times) ** exponent``: the reported
seconds are seconds of the reference machine, and the drift cancels.  The
loop is interpreted Python plus small numpy calls, the work that dominates
`sipm bench`; it allocates next to nothing, so it leaves peak memory alone,
and it does not depend on sipm, so a change to sipm cannot move it.

The exponent is how strongly a time follows the loop.  Interpreted work
slows with the loop one for one (exponent 1); dense matrix-vector products
over a few MB slow about half as much when the machine is busy.  Each
workload's ``speed_exponent`` (workloads.py) is the slope of log bench time
on log loop time over the processes of ten 25 s runs.
"""

import time

# Median time of one loop on the 2-core Intel Xeon box (Python 3.11.7,
# numpy 2.4.6) where the benchmark was defined.
REFERENCE_S = 0.030


def loop_seconds():
    import numpy as np

    small = np.linspace(-0.5, 0.5, 50)
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    for _ in range(1500):
        np.min(np.clip(small * 1.0001, -0.9, 0.9))
    return time.perf_counter() - start


def scale(loop_s, exponent):
    """The factor that turns a time measured beside ``loop_s`` into seconds
    of the reference machine."""
    return (REFERENCE_S / loop_s) ** exponent
