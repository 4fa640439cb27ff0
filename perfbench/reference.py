"""Machine-speed reference: a fixed kernel timed between the benchmark's calls.

On a shared host the speed of one core moves by up to a factor of two from
one second to the next (another tenant on the sibling hyperthread, frequency
changes), and CPU time moves with wall time, so timing the program alone
measures the neighbours. The benchmark therefore runs this kernel, which
never touches the package, between its timed calls. :func:`slowdown` is the
kernel's time over its nominal time: about 1 on an idle core of the machine
the benchmark was built on, higher when the core is slower. A call's
normalized time is its wall time divided by the mean slowdown measured just
before and just after it, that is its wall time at the nominal core speed.

The kernel mixes the three kinds of work the package does: interpreted
Python, parsing text into floats, and numpy (a least-squares solve, a sort,
small-array reductions). Its inputs are fixed, so a change to the package or
to the workload seed cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(20210603)
_A = _rng.standard_normal((1000, 12))
_B = _rng.standard_normal((1000, 50))
_BIG = _rng.standard_normal(50_000)
_LINE = ",".join(f"{x:.6g}" for x in _rng.standard_normal(40))


def _python() -> None:
    d: dict[int, int] = {}
    for i in range(15_000):
        d[i % 997] = d.get(i % 997, 0) + i * 3 // 7


def _text() -> None:
    for _ in range(150):
        [float(x) for x in _LINE.split(",")]


def _numpy() -> None:
    np.linalg.lstsq(_A, _B, rcond=None)
    np.sort(_BIG)
    np.exp(_BIG).sum()
    for _ in range(20):
        np.quantile(np.arange(50.0), 0.9)


# Seconds each part takes on an idle core of the build machine (an Intel
# Xeon of the Sapphire Rapids class, Python 3.11, numpy with OpenBLAS on one
# thread); they only set the scale of the normalized times.
PARTS = ((_python, 0.0031), (_text, 0.00085), (_numpy, 0.0028))


_warm = False


def slowdown() -> float:
    """Mean over the kernel's parts of measured / nominal time.

    The first pass in a process runs cold (numpy's first least-squares
    solve alone takes several times its nominal time), so the first call
    runs the kernel once untimed.
    """
    global _warm
    if not _warm:
        for part, _ in PARTS:
            part()
        _warm = True
    ratios = []
    for part, nominal in PARTS:
        t0 = time.perf_counter()
        part()
        ratios.append((time.perf_counter() - t0) / nominal)
    return statistics.fmean(ratios)


class Clock:
    """Normalizes consecutive call times by the slowdown around each call.

    Call :meth:`normalize` (or :meth:`factor`) right after each timed call:
    it measures the slowdown then and divides the call's wall time by the
    mean of that and the slowdown measured after the previous call (or at
    creation).
    """

    def __init__(self):
        self.before = slowdown()

    def factor(self) -> float:
        """Mean slowdown over the interval since the previous call."""
        after = slowdown()
        mean = (self.before + after) / 2.0
        self.before = after
        return mean

    def normalize(self, wall_s: float) -> float:
        return wall_s / self.factor()
