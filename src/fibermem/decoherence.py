"""Lifetime and revival models for the stored excitation.

Three closed-form mechanisms limit the memory: transit of thermal atoms
through the evanescent field (tau_T), motional dephasing of the imprinted
spin-wave grating (tau_2), and inhomogeneous Zeeman dephasing (tau_3).
The latter two combine in quadrature into tau_D, and the retrieval
efficiency relative to zero delay decays as

    eta_rel(t) = exp[-(t/tau_D)^2 / (1+(t/tau_T)^2)] / (1+(t/tau_T)^2)^2

Without Zeeman broadening it is exact for ballistic atoms in a Gaussian
mode of waist 2r.  It also divides the Zeeman exponent by the transit
factor, which atoms with a static Zeeman shift do not: at the defaults it
exceeds their efficiency by 0.9%, 8.8%, 30% and 2.5x at 2, 4, 6 and 10 us.

With a magnetic field along the fiber the stored coherences accumulate
phases at even multiples of the Larmor frequency (ground clock pairs
|F=4,m> and |F=3,m> carry opposite-sign Lande factors, so each pair
advances at 2 m nu_L).  Their interference collapses and revives the
efficiency at multiples of the half Larmor period, independent of how
the m levels are populated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    CS_GF_GROUND, CS_MASS_KG, H_PLANCK, K_BOLTZMANN, MU_BOHR, check_fields,
    scalar_or_array,
)

# default ladder: phase integers 2m for clock-pair coherences, m = -3..3
_DEFAULT_LADDER = tuple((2 * m, 1.0 / 7.0) for m in range(-3, 4))


def decay_law(t_s, tau_D_s, tau_T_s) -> np.ndarray:
    """exp[-(t/tau_D)^2/(1+(t/tau_T)^2)] / (1+(t/tau_T)^2)^2, unchecked:
    the time constants may be columns that broadcast against t_s, and an
    infinite one drops out, as t/inf = 0."""
    t = np.asarray(t_s, dtype=float)
    xt2 = (t / tau_T_s) ** 2
    xd2 = (t / tau_D_s) ** 2
    return np.exp(-xd2 / (1.0 + xt2)) / (1.0 + xt2) ** 2


def efficiency_decay(t_s, tau_D_s: float, tau_T_s: float) -> np.ndarray:
    """Relative retrieval efficiency after a storage time t >= 0 (decay_law).

    Equal to 1 at t=0 and strictly decreasing.  Infinite time constants
    disable the corresponding mechanism.
    """
    if tau_D_s <= 0.0 or tau_T_s <= 0.0:
        raise ValueError("time constants must be positive")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t_s must be nonnegative")
    return scalar_or_array(decay_law(t, tau_D_s, tau_T_s))


def _larmor_hz(b_field_T: float) -> float:
    """Ground-state Larmor frequency nu_L = g_F mu_B B / h."""
    return CS_GF_GROUND * MU_BOHR * b_field_T / H_PLANCK


def half_larmor_period(b_field_T: float) -> float:
    """Half of the Larmor precession period, 1/(2 nu_L)."""
    if b_field_T <= 0.0:
        raise ValueError("b_field_T must be positive")
    freq = 2.0 * _larmor_hz(b_field_T)
    if freq == 0.0:
        raise ValueError("b_field_T = %r T underflows the Larmor frequency to 0"
                         % b_field_T)
    return 1.0 / freq


@dataclass(frozen=True)
class DecoherenceParams:
    """Physical inputs of the lifetime model of a cesium cloud; its
    properties derive the lifetimes tau_T, tau_2, tau_3 and tau_D."""

    temperature_K: float = 200e-6
    fiber_radius_m: float = 200e-9
    wavelength_m: float = 852e-9
    control_angle_rad: float = math.radians(13.0)
    zeeman_broadening_Hz: float = 1e5

    def __post_init__(self):
        check_fields(self, positive=("temperature_K", "fiber_radius_m", "wavelength_m"),
                     nonnegative=("zeeman_broadening_Hz",))
        if not 0.0 <= self.control_angle_rad < math.pi:
            raise ValueError("control_angle_rad must lie in [0, pi)")
        if self.velocity_m_s == 0.0:  # k T underflowed
            raise ValueError("temperature_K underflows the thermal velocity to 0")
        try:  # a zero tau_2 or tau_3 has no rate; a tiny one's rate overflows
            tau_D = self.effective_tau_D_s
        except (OverflowError, ZeroDivisionError):
            tau_D = 0.0
        if tau_D == 0.0:
            raise ValueError("the dephasing time tau_D is 0 (tau_2 = %r s, tau_3 = %r s)"
                             % (self.tau_motional_s, self.tau_zeeman_s))

    @property
    def velocity_m_s(self) -> float:
        """One-dimensional thermal speed sqrt(kT/m) of a cesium atom."""
        return math.sqrt(K_BOLTZMANN * self.temperature_K / CS_MASS_KG)

    @property
    def effective_tau_T_s(self) -> float:
        """Evanescent-field dwell time tau_T = 2 r / v."""
        return 2.0 * self.fiber_radius_m / self.velocity_m_s

    @property
    def tau_motional_s(self) -> float:
        """Spin-wave grating washout time tau_2 = 1 / ((4 pi/lambda) sin(a/2) v),
        the grating pitch set by the probe/control wavevector mismatch
        2 k sin(a/2); infinite at a zero angle, where there is no grating."""
        if self.control_angle_rad == 0.0:
            return math.inf
        dk = (4.0 * math.pi / self.wavelength_m) * math.sin(0.5 * self.control_angle_rad)
        return 1.0 / (dk * self.velocity_m_s)

    @property
    def tau_zeeman_s(self) -> float:
        """Inhomogeneous Zeeman dephasing time tau_3 = 1 / broadening, so
        100 kHz of spread maps to 10 us; infinite at zero broadening."""
        if self.zeeman_broadening_Hz == 0.0:
            return math.inf
        return 1.0 / self.zeeman_broadening_Hz

    @property
    def effective_tau_D_s(self) -> float:
        """Quadrature combination 1/tau_D^2 = 1/tau_2^2 + 1/tau_3^2, infinite
        when both rates are 0 (an infinite lifetime or an underflow)."""
        rate2 = self.tau_motional_s**-2 + self.tau_zeeman_s**-2
        return rate2**-0.5 if rate2 > 0.0 else math.inf


@dataclass(frozen=True)
class MagneticScenario:
    """Longitudinal field plus the populated coherence ladder.

    m_populations lists (phase integer, weight) pairs; each coherence
    accumulates phase integer * 2 pi nu_L t.  The default ladder holds
    the seven clock-pair coherences at even integers 2m, m = -3..3,
    equally weighted, which rephase at every half Larmor period.  The
    Lande factor is the cesium ground-state |g_F| = 1/4.
    """

    b_field_T: float = 0.4e-4
    m_populations: tuple = field(default_factory=lambda: _DEFAULT_LADDER)

    def __post_init__(self):
        check_fields(self, nonnegative=("b_field_T",))
        pops = tuple((int(m), float(w)) for m, w in self.m_populations)
        object.__setattr__(self, "m_populations", pops)
        if not all(0.0 <= w < math.inf for _, w in pops):
            raise ValueError("population weights must be finite and nonnegative")
        total = sum(w for _, w in pops)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("population weights must sum to 1")


def revival_envelope(t_grid, scenario: MagneticScenario) -> np.ndarray:
    """Larmor interference comb |sum_m w_m exp(i m 2 pi nu_L t)|^2 / (sum_m w_m)^2,
    which efficiency_decay multiplies into collapses and revivals.  Both
    sums run in the ladder's order, so at B=0 the comb is identically 1.
    """
    t = np.asarray(t_grid, dtype=float)
    nu_larmor = _larmor_hz(scenario.b_field_T)
    amp = sum(w * np.exp(1j * m * 2.0 * np.pi * nu_larmor * t)
              for m, w in scenario.m_populations)
    return scalar_or_array((np.abs(amp) / sum(w for _, w in scenario.m_populations)) ** 2)
