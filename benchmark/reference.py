"""A fixed computation that gauges how fast the machine runs at the moment.

The machine the benchmark was built on is shared with other tenants and
switches between a fast and a slow state, for seconds to minutes at a time:
the same ``paper_grid`` operation takes about 1.7 s in one and 3 s in the
other, and the median of a 30 s run moved by 55% between two sets of runs of
the same code.  The benchmark therefore times this reference, which uses no
code of the program, before every operation, and rescales each timed span by
the reference samples on either side of it (:meth:`Reference.scale`).  The
reference mixes what the workloads spend their time on: interpreter work on
dicts and strings, many numpy calls on small arrays, and passes over a few MB
of floats.  It takes about 35 ms in the fast state and about 60 ms in the slow
one.
"""

from __future__ import annotations

import time

import numpy as np

#: The reference time that scaled spans are expressed at, in ms: about the
#: reference's time in the machine's fast state, so that a scaled time reads
#: close to the wall time of an uncontended run.
NOMINAL_MS = 35.0


class Reference:
    """The reference computation and the times it took in one run."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self._small = rng.random((64, 4))
        self._big = rng.random(250_000)
        self._out = np.empty_like(self._big)
        self.times_ms: list[float] = []

    def _compute(self) -> None:
        counts: dict[int, int] = {}
        for i in range(60_000):
            counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
        small = self._small
        for _ in range(1_500):
            float(np.sqrt(((small - small.mean(axis=0)) ** 2).sum()))
        for _ in range(20):
            np.multiply(self._big, 1.5, out=self._out)
            float(self._out.sum())

    def run(self) -> int:
        """Time the reference once; returns the index of the sample."""
        start = time.perf_counter()
        self._compute()
        self.times_ms.append(1e3 * (time.perf_counter() - start))
        return len(self.times_ms) - 1

    def scale(self, before: int) -> float:
        """Factor for a span timed between samples ``before`` and ``before + 1``.

        It is :data:`NOMINAL_MS` over the mean of the two samples.
        """
        around = self.times_ms[before:before + 2]
        return NOMINAL_MS / (sum(around) / len(around))
