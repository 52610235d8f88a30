"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of a CPU-bound Python loop swings
by up to a factor of two, in phases from seconds to many minutes, and a
whole run can fall inside a slow phase.  Process CPU time swings with it,
so it is not steal time that a CPU clock would drop.  The benchmark
therefore times a fixed probe between consecutive ops and rescales each
op's latency to the reference speed:

    scaled = raw * ref / (probe time around the op)

Two probes, each doing the kind of work the ops it calibrates do, and
neither importing anything from cfdim, so no change to the program
changes them:

- ``kernel_s``, for in-process library calls: powers with a non-integer
  exponent in mpmath's pure-Python ``libmp`` at 160 bits, the exp and
  log work that covering sums and zeta sums do.  Reference ``REF_S``.
  Machine phases do not speed all Python code up alike: from a slow
  phase to a fast one, cfdim's covering sums, critical exponents and
  schedule scans ran 1.35-1.45 times faster, this kernel 1.5 times, and
  a kernel of small-int method calls, ``Fraction`` arithmetic and
  integer-power ``libmp`` arithmetic 1.7 times.  So this is the kernel.
- ``spawn_s``, for whole processes (CLI commands and set-up): a fresh
  interpreter that imports argparse, fractions, json and mpmath, which
  is the start-up path of ``python -m cfdim``.  Spawn and import costs
  swing in phases of their own that an in-process kernel does not see.
  Reference ``SPAWN_REF_S``.

The references are the probes' median times in an ordinary phase of a
2-core VM (Python 3.11.7, mpmath 1.3.0, pure-python backend), so scaled
seconds read close to raw ones there.  ``Scaler`` says how the probes
around an op are combined.  Raw figures stay on the detail line of
every run.
"""

import os
import statistics
import subprocess
import sys
import time

from mpmath import libmp

REF_S = 0.0030
SPAWN_REF_S = 0.090

_SPAWN = [sys.executable, "-c", "import argparse, fractions, json, mpmath"]

_PREC = 160
_EXP = libmp.from_rational(5, 7, _PREC, "n")


def kernel_s():
    """Seconds one pass of the calibration kernel takes now."""
    t0 = time.perf_counter()
    acc = libmp.fzero
    for i in range(2, 120):
        x = libmp.from_rational(1, i * (3 * i + 1), _PREC, "n")
        acc = libmp.mpf_add(acc, libmp.mpf_pow(x, _EXP, _PREC, "n"), _PREC, "n")
    return time.perf_counter() - t0


def spawn_s():
    """Seconds a fresh interpreter takes now to import the CLI's start-up modules."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.perf_counter()
    subprocess.run(_SPAWN, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


class Scaler:
    """Probe passes around a sequence of ops, and the ops' latencies scaled by them.

    Call ``start()`` before the first op and ``after(raw)`` after each
    one; ``after`` runs the next calibration point outside the op's
    timed window.  A calibration point is the median of ``passes``
    passes of ``probe``, whose reference time is ``ref``.  ``scaled()``
    scales op j by the median of the calibration points j - 2 .. j + 3
    (point j is just before op j and point j + 1 just after it), which
    damps the noise of single passes while following speed phases that
    last seconds.
    """

    def __init__(self, probe=kernel_s, ref=REF_S, passes=1):
        self.probe = probe
        self.ref = ref
        self.passes = passes
        self.points = []
        self.raw = []

    def _point(self):
        self.points.append(statistics.median(self.probe() for _ in range(self.passes)))

    def start(self):
        self._point()

    def after(self, raw):
        self.raw.append(raw)
        self._point()

    def scaled(self):
        pts = self.points
        return [raw * self.ref / statistics.median(pts[max(0, j - 2):j + 4])
                for j, raw in enumerate(self.raw)]
