"""Photon counting statistics for retrieved pulses.

Signal and background are independent Poisson processes per detection
window.  The generator is numpy's default PCG64, seeded explicitly, so
every run is reproducible from its seed.  Physics elsewhere in the
package is RNG-free; all randomness lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import check_fields

# most shots one model draws; each shot holds two int64 counts
MAX_SHOTS = 1_000_000
# largest mean count a shot is drawn with: NumPy's Generator.poisson
# refuses a mean above about 9.22e18
MAX_MEAN = 1e18


@dataclass(frozen=True)
class CountingModel:
    """Per-shot counting configuration."""

    mean_photons_in: float = 0.6
    efficiency: float = 0.10
    background_per_window: float = 0.003
    n_shots: int = 10000

    def __post_init__(self):
        check_fields(self, positive=("n_shots",),
                     nonnegative=("mean_photons_in", "background_per_window"))
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.n_shots > MAX_SHOTS:
            raise ValueError("n_shots %d exceeds the limit of %d"
                             % (self.n_shots, MAX_SHOTS))
        for name, mean in (("mean_photons_in * efficiency",
                            self.mean_photons_in * self.efficiency),
                           ("background_per_window", self.background_per_window)):
            if mean > MAX_MEAN:
                raise ValueError("%s %.6g exceeds the limit of %g counts per window"
                                 % (name, mean, MAX_MEAN))


@dataclass(frozen=True)
class CountingResult:
    signal_counts: np.ndarray
    background_counts: np.ndarray
    snr: float


def analytic_snr(model: CountingModel) -> float:
    """Expected SNR: mean detected signal over mean background."""
    sig = model.mean_photons_in * model.efficiency
    if model.background_per_window == 0.0:
        return math.inf if sig > 0.0 else 0.0
    return sig / model.background_per_window


def simulate_counting(model: CountingModel, seed: int) -> CountingResult:
    """Draw per-shot Poisson counts and estimate the SNR from them.

    SNR is the ratio of the empirical mean signal to the empirical mean
    background.  A background that never clicks gives the infinity
    sentinel (zero if the signal never clicks either).
    """
    rng = np.random.default_rng(seed)
    sig_mean = model.mean_photons_in * model.efficiency
    signal = rng.poisson(sig_mean, model.n_shots)
    background = rng.poisson(model.background_per_window, model.n_shots)
    mean_sig = float(signal.mean())
    mean_bg = float(background.mean())
    if mean_bg == 0.0:
        snr = math.inf if mean_sig > 0.0 else 0.0
    else:
        snr = mean_sig / mean_bg
    return CountingResult(
        signal_counts=signal,
        background_counts=background,
        snr=snr,
    )


def snr_standard_error(model: CountingModel) -> float:
    """Delta-method standard error of the simulated SNR estimate."""
    mu_s = model.mean_photons_in * model.efficiency
    mu_b = model.background_per_window
    if mu_b == 0.0:
        return math.inf
    # var = mu_s (mu_s + mu_b) / (n mu_b^3), kept clear of mu_b**3 underflow
    return math.sqrt(mu_s * (mu_s + mu_b) / model.n_shots) / mu_b / math.sqrt(mu_b)
