"""Host-speed reference kernel and the normalization built on it.

On a shared host raw speed can swing by about 1.5x from one stretch of
seconds to the next, on both CPUs at once, with no steal time to explain
it.  A fixed piece of work timed right before and right
after each measured interval tells how fast the host was during it; every
time metric is scaled by ``REF_NOMINAL / ref_measured`` so that it reads
"seconds at reference host speed".

The kernel mixes the kinds of work the analysis does (a Python loop with
dict traffic, and small dense ``np.outer`` updates like the simplex
pivot) and imports nothing from ``repro``, so no change to the program
under test can move it.

A workload that keeps both CPUs busy (a two-worker pool, or a server and
its workers) is timed against the kernel running on both CPUs at once:
how fast one CPU runs alone does not say how fast two run together on a
shared host, and on such workloads a one-CPU kernel made the spread
between runs larger, not smaller (README.md gives the figures).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Kernel time in seconds at the reference host speed.  A constant: it
#: sets the unit of every normalized time, so it must never be re-tuned
#: once baselines exist.
REF_NOMINAL = 0.040

_LOOP = 75_000
_PIVOTS = 1_500
_SIZE = 48


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_LOOP):
        key = (i * 2654435761) & 0x3FFF
        table[key] = table.get(key, 0) + i
        acc ^= key
    tableau = np.eye(_SIZE) + acc % 7
    column = np.linspace(0.5, 1.5, _SIZE)
    for step in range(_PIVOTS):
        row = tableau[step % _SIZE]
        tableau -= np.outer(column, row) * 1e-6
    return time.perf_counter() - started


class HostClock:
    """Kernel timings taken between measured intervals.

    ``bracket()`` runs the kernel on ``cpus`` CPUs at once and returns
    the index of its sample (the mean of their times).  An interval is
    recorded with the index of the sample taken right after it (its
    ``ref``); :func:`factor` turns that into its normalization factor.
    The other CPUs run the kernel in helper processes (this file run as
    a script); call :meth:`close` to stop them and wait for each.
    """

    def __init__(self, cpus: int = 1):
        self.samples: list[float] = []
        self._helpers = []
        try:
            for _ in range(cpus - 1):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
        except BaseException:
            self.close()
            raise

    def bracket(self) -> int:
        for helper in self._helpers:
            helper.stdin.write("run\n")
            helper.stdin.flush()
        times = [reference_kernel()]
        times += [float(helper.stdout.readline())
                  for helper in self._helpers]
        self.samples.append(statistics.fmean(times))
        return len(self.samples) - 1

    def close(self) -> None:
        """End of input stops a helper; kill one that does not stop."""
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []


def factor(samples: list, ref: int) -> float:
    """``REF_NOMINAL / ref_measured`` for the interval that ended at
    sample ``ref``: ``ref_measured`` is the mean of the kernel samples
    taken right before and right after it."""
    return REF_NOMINAL / ((samples[ref - 1] + samples[ref]) / 2)


def _helper() -> None:
    """Run the kernel once per input line, print its time; stop at EOF."""
    for _ in sys.stdin:
        print(reference_kernel(), flush=True)


if __name__ == "__main__":
    _helper()
