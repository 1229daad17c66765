"""Reference clock for timing on a shared machine.

The machine this benchmark was built on runs the same pure-Python code
anywhere from 1x to 1.9x slower from one minute to the next, because other
tenants share its cores. Every reported time is therefore multiplied by
``factor()``: the ratio of a fixed kernel's nominal time to its time measured
next to the timed work. The kernel does the work the program does most,
``Fraction`` arithmetic in a Python loop, so a slow phase slows both alike.
Times are reported in reference seconds: seconds on a machine where one
kernel run takes ``NOMINAL_S``.
"""
import time
from fractions import Fraction

# one kernel run on an uncontended core of the 2-core x86-64 machine the
# baseline was recorded on (Python 3.11)
NOMINAL_S = 0.00075


def _kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return s


def factor() -> float:
    """Multiply seconds measured now by this to get reference seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return NOMINAL_S / best
