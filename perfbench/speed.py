"""The machine's current CPU speed, measured by a fixed piece of Python work.

On a shared VM the CPU speed can drift by a third and more over minutes
(README.md measures it on a 2-vCPU VM), so a plain median over one run
measures the machine's state as much as the program.  `calibrate()` times
the same pure-Python work every call: dense truncated series products and a
recursive tuple enumeration counted in a dict, the two kinds of work that
dominate `fstchar verify`.  It does not import `fstchar`, so a change to the
program cannot move it.

run.py calibrates before the first round of a run and after every round,
and multiplies the times of a round's processes by `REFERENCE_S` over the
mean of the calibrations on either side of it: the times the processes
would have had on a machine where one unit of the fixed work takes
`REFERENCE_S`.  The speed also changes within seconds, so a calibration
lasts longer for a longer workload, and it keeps as many CPUs busy as the
workload's workers do.
"""

import multiprocessing
import statistics
import time

REFERENCE_S = 0.085  # about the median time of one unit on the 2-vCPU machine measured
MIN_UNITS = 3


def _series_products(n=300, products=6):
    a = [(i * 7 + 3) % 11 - 5 for i in range(n)]
    b = [(i * 5 + 1) % 13 - 6 for i in range(n)]
    for _ in range(products):
        c = [0] * n
        for i, x in enumerate(a):
            if x:
                for j in range(n - i):
                    c[i + j] += x * b[j]
        a = c
    return a[-1]


def _visit(counts, prefix, left, values):
    if not left:
        counts[prefix] = counts.get(prefix, 0) + 1
        return
    for v in range(values):
        _visit(counts, prefix + (v,), left - 1, values)


def _enumeration(depth=8, values=4):
    # a plain function, not a closure: a self-referencing closure would keep
    # the dict alive until the next cycle collection and grow this process
    counts = {}
    _visit(counts, (), depth, values)
    return len(counts)


CHECK = (_series_products(), _enumeration())


def _unit_seconds(seconds):
    start = time.perf_counter()
    units = 0
    while units < MIN_UNITS or time.perf_counter() - start < seconds:
        if (_series_products(), _enumeration()) != CHECK:
            raise AssertionError("calibration work gave a different result")
        units += 1
    return (time.perf_counter() - start) / units


def calibrate(seconds, jobs=1):
    """Mean seconds of one unit of the fixed work, repeated for at least `seconds`.

    With jobs > 1 that many processes repeat it at once, as a pooled workload
    keeps that many CPUs busy, and the mean of their unit times is returned.
    """
    if jobs == 1:
        return _unit_seconds(seconds)
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return statistics.mean(pool.map(_unit_seconds, [seconds] * jobs))
