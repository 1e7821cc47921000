"""Host-speed calibration: a fixed piece of interpreter and numpy work, timed.

On a shared host the same computation runs at different speeds from one
moment to the next (on a 2-core VM: about 40 ms or about 72 ms for one
1024-offset square grid, switching every few seconds, with slow spells
that last a whole run).  The benchmark times this kernel next to every
task and set-up step and scales the measured time by

    REFERENCE_S / (kernel time measured alongside)

so that a time reads as it would at the speed where the kernel takes
REFERENCE_S.  The kernel is the benchmark's own code and never changes,
so a change to dirtrace moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import time

# Kernel time, in seconds, at the reference speed: roughly its time on
# the fast state of a 2-core VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.001

_N = 3000

# The kernel's array part: numpy calls on a 64-element array, small enough
# to stay in the core's own cache whatever ran before.
_ARRAYS = []


def kernel() -> float:
    """Fixed work: an interpreter-bound loop, then small numpy calls.

    numpy is imported on the first call, so that importing this module
    does not start numpy before the caller has set its thread variables.
    """
    total, seen, items = 0, {}, []
    for i in range(_N):
        total += (i * i) % 7
        seen[i % 97] = total
        items.append(total & 255)
    if not _ARRAYS:
        import numpy as np
        _ARRAYS.extend((np, np.linspace(0.0, 1.0, 64)))
    np, values = _ARRAYS
    acc = 0.0
    for i in range(150):
        acc += float(np.sqrt(values * i + 1.0).sum())
    return total + len(seen) + sum(items) + acc


def seconds() -> float:
    """Time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(measured_s: float, kernel_s: float) -> float:
    """measured_s at the reference speed, given the kernel time alongside."""
    return measured_s * REFERENCE_S / kernel_s


class Meter:
    """Scales a run of consecutive steps, running the kernel between them."""

    def __init__(self) -> None:
        self._before = seconds()

    def scaled(self, elapsed_s: float) -> tuple[float, float]:
        """(scaled time, kernel time) of the step that just took elapsed_s.

        The kernel time is the mean of the runs just before and just after
        the step.
        """
        after = seconds()
        kernel_s = (self._before + after) / 2
        self._before = after
        return scale(elapsed_s, kernel_s), kernel_s
