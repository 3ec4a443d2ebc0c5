"""Cold-atom cloud around the fiber: density, atom number, absorption laws.

The cloud is modeled by its radial density around the fiber surface and
by two empirical transmission laws: a power-saturation law for resonant
absorption and a Lorentzian opacity profile in detuning.  Atom numbers
come either from integrating the density over an annular shell or from
the absorbed-power ratio N = P_abs / p_single.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import CS_D2_PSAT_ATOM_W, K_BOLTZMANN, check_fields, scalar_or_array
from .waveguide import FiberSpec

NANOFIBER_WAIST_LENGTH_M = 9e-3  # longest usable overlap length

# default C3 for Cs near fused silica, order-of-magnitude van der Waals scale
CS_SILICA_C3_J_M3 = 5.6e-49


@functools.cache  # built on first use: numpy.polynomial costs ms at import
def _shell_rule():
    """The 64-point Gauss-Legendre nodes and weights of the shell integral."""
    return np.polynomial.legendre.leggauss(64)


class DensityDomainError(ValueError):
    """Density requested inside the fiber body."""


@dataclass(frozen=True)
class CloudSpec:
    """Cloud parameters.

    profile selects the radial shape: "uniform" is a flat annulus ending
    at the surface, "depleted" suppresses density near the surface with
    a truncated Boltzmann factor exp(-C3/(kT (rho-r)^3)) and an inner
    sink shell (atoms on capture trajectories, |U| > kT, are removed).
    """

    peak_density_per_m3: float = 1e17
    temperature_K: float = 200e-6
    overlap_length_m: float = 5e-3
    c3_JK: float = CS_SILICA_C3_J_M3
    profile: str = "depleted"

    def __post_init__(self):
        check_fields(self, positive=("peak_density_per_m3", "temperature_K",
                                     "overlap_length_m", "c3_JK"))
        if self.overlap_length_m > NANOFIBER_WAIST_LENGTH_M:
            raise ValueError(
                "overlap_length_m must lie in (0, %.0f mm]"
                % (NANOFIBER_WAIST_LENGTH_M * 1e3)
            )
        if self.profile not in ("uniform", "depleted"):
            raise ValueError("profile must be 'uniform' or 'depleted'")

    @property
    def sink_radius_m(self) -> float:
        """Distance from the surface where |U| = kT, edge of the capture shell."""
        return (self.c3_JK / (K_BOLTZMANN * self.temperature_K)) ** (1.0 / 3.0)


@dataclass(frozen=True)
class AbsorptionModel:
    """Empirical absorption parameters of the fiber-coupled ensemble."""

    alpha0_L: float = 8.0 / 1.3
    p_sat_W: float = 1.3e-9
    k_exp: float = 1.0
    gamma_rad_per_s: float = 2.0 * math.pi * 6.8e6
    od: float = 3.0

    def __post_init__(self):
        check_fields(self, positive=("alpha0_L", "p_sat_W", "k_exp",
                                     "gamma_rad_per_s", "od"))


def density_profile(cloud: CloudSpec, fiber: FiberSpec, rho_m) -> np.ndarray:
    """Atom number density at radius rho_m from the fiber axis.

    Zero at the surface, monotone nondecreasing, approaching the peak
    density far from the fiber.  Raises DensityDomainError for radii
    inside the fiber body.
    """
    rho = np.asarray(rho_m, dtype=float)
    r = fiber.radius_m
    if np.any(rho < r):
        raise DensityDomainError("density is undefined inside the fiber")
    gap = rho - r
    if cloud.profile == "uniform":
        out = np.where(gap > 0.0, cloud.peak_density_per_m3, 0.0)
    else:
        cut = cloud.sink_radius_m
        kt = K_BOLTZMANN * cloud.temperature_K
        with np.errstate(divide="ignore", over="ignore"):
            boltz = np.exp(-cloud.c3_JK / (kt * np.maximum(gap, 1e-300) ** 3))
        out = np.where(gap > cut, cloud.peak_density_per_m3 * boltz, 0.0)
    return scalar_or_array(out)


def effective_atom_number(
    cloud: CloudSpec, fiber: FiberSpec, shell_width_in_radii: float = 4.0
) -> float:
    """Atoms within a shell of width shell*r from the surface.

    N = L * int_r^{r(1+shell)} n(rho) 2 pi rho drho, fixed-order
    Gauss-Legendre so repeated calls are bit-identical.  The uniform
    profile reduces to n0 pi ((1+shell)^2 - 1) r^2 L.
    """
    if shell_width_in_radii < 0.0:
        raise ValueError("shell_width_in_radii must be nonnegative")
    if shell_width_in_radii == 0.0:
        return 0.0
    r = fiber.radius_m
    lo, hi = r, r * (1.0 + shell_width_in_radii)
    half = 0.5 * (hi - lo)
    gl_nodes, gl_weights = _shell_rule()
    nodes = 0.5 * (hi + lo) + half * gl_nodes
    dens = density_profile(cloud, fiber, nodes)
    integrand = dens * 2.0 * np.pi * nodes * half * gl_weights
    return float(cloud.overlap_length_m * np.sum(integrand))


def atom_number_from_absorption(
    p_abs_W: float, p_single_W: float = CS_D2_PSAT_ATOM_W
) -> float:
    """Atom number from absorbed power, N = P_abs / p_single."""
    if p_abs_W < 0.0:
        raise ValueError("p_abs_W must be nonnegative")
    if p_single_W <= 0.0:
        raise ValueError("p_single_W must be positive")
    return p_abs_W / p_single_W


def saturation_law(p_W, alpha0_L, p_sat_W, k_exp) -> np.ndarray:
    """T = exp(-alpha0_L / (1 + P/P_sat)^k); unchecked parameters may be
    columns that broadcast against p_W."""
    p = np.asarray(p_W, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("p_W must be nonnegative")
    return np.exp(-alpha0_L / (1.0 + p / p_sat_W) ** k_exp)


def lorentzian_law(delta_rad_per_s, od, gamma_rad_per_s) -> np.ndarray:
    """T = exp(-OD / (1 + (2 delta/Gamma)^2)); unchecked parameters may be
    columns that broadcast against delta_rad_per_s."""
    delta = np.asarray(delta_rad_per_s, dtype=float)
    return np.exp(-od / (1.0 + (2.0 * delta / gamma_rad_per_s) ** 2))


def saturation_transmission(p_W, model: AbsorptionModel) -> np.ndarray:
    """Resonant transmission against probe power, strictly increasing in P
    (saturation_law)."""
    return scalar_or_array(
        saturation_law(p_W, model.alpha0_L, model.p_sat_W, model.k_exp))


def lorentzian_transmission(delta_rad_per_s, model: AbsorptionModel) -> np.ndarray:
    """Transmission against probe detuning, even in delta with the
    minimum exp(-OD) on resonance (lorentzian_law)."""
    return scalar_or_array(
        lorentzian_law(delta_rad_per_s, model.od, model.gamma_rad_per_s))
