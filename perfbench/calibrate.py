"""Machine-speed calibration: a fixed piece of work timed next to each request.

The benchmark shares a few cores of a host with other jobs, and the
speed those cores give it drifts: in stretches of about a second, and
over minutes by up to 2x.  Wall time alone then measures the host as
much as the program.  So before and after every timed request the
harness runs a burst of calibration units, and it reports the request
scaled to a machine of nominal speed::

    normalised = wall * NOMINAL_UNIT_S / (unit time measured around it)

A unit is a fixed mix of what fibermem spends its time on: NumPy calls
on short complex arrays, a few Bessel functions from SciPy, and plain
Python dict and string work.  It runs no fibermem code, so a change to
the program moves the request's wall time and not the calibration.
"""

from __future__ import annotations

import time

# Seconds per unit at the speed the nominal figures refer to: about the
# median unit time measured during runs on a 2-vCPU Intel Xeon VM
# (Python 3.11, NumPy 2.4, SciPy 1.17, one BLAS thread), so that scaled
# figures read close to that machine's wall time.
NOMINAL_UNIT_S = 1.7e-4

# Share of a request's time that each of its two bursts lasts, and the
# limits on a burst's length in units.
BURST_SHARE = 0.15
MIN_UNITS = 2
MAX_UNITS = 600


class Calibrator:
    """Runs and times calibration bursts."""

    def __init__(self):
        import numpy as np
        from scipy.special import jv, kv

        self._np = np
        self._jv = jv
        self._kv = kv
        self._z = np.exp(1j * np.linspace(0.0, 3.0, 201))
        self._x = np.linspace(0.5, 4.0, 16)
        self.burst(20)  # warm the caches and the interpreter

    def _unit(self) -> float:
        np = self._np
        z = self._z
        acc = 0.0
        for _ in range(6):
            w = z * (0.5 + 0.25j) + np.cumsum(z) * 1e-3
            acc += float(np.abs(w).sum()) + float(np.trapezoid(w.real, dx=0.1))
        acc += float(self._jv(1, self._x).sum() + self._kv(1, self._x).sum())
        table = {}
        for i in range(60):
            key = "key.%d" % i
            table[key] = "%.6g" % (i * 0.37)
        acc += sum(len(v) for v in table.values())
        return acc

    def burst(self, units: int) -> float:
        """Seconds per unit over ``units`` units."""
        t0 = time.perf_counter()
        for _ in range(units):
            self._unit()
        return (time.perf_counter() - t0) / units

    @staticmethod
    def units_for(seconds: float) -> int:
        """Burst length in units for a request of about ``seconds``."""
        n = int(round(BURST_SHARE * seconds / NOMINAL_UNIT_S))
        return max(MIN_UNITS, min(MAX_UNITS, n))
