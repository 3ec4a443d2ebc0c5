"""Exact fundamental-mode solver for a vacuum-clad step-index cylinder.

Solves the full-vector HE11 dispersion relation of a two-layer fiber
(silica core, infinite vacuum cladding) without the weak-guidance
approximation, then builds the azimuthally averaged longitudinal
Poynting flux S_z(rho) of the mode.  From that profile the module
derives the quantities a subwavelength waveguide experiment cares
about: the fraction of guided power carried by the evanescent field
and the surface intensity reached for a given guided power.

Conventions
-----------
Fields vary as exp(i(omega t - beta z)).  With u = h a and w = q a,
where h and q are the transverse wavenumbers inside and outside the
core of radius a, the azimuthal-order-1 hybrid modes satisfy

    (J + K) (J + (n2/n1)^2 K) = (beta/(k0 n1))^2 (1/u^2 + 1/w^2)^2

with J = J1'(u)/(u J1(u)) and K = K1'(w)/(w K1(w)), evaluated through the
order-1 recurrences J1' = J0 - J1/x and K1' = -K0 - K1/x.  The HE branch is
the root of

    g = J + (1 + sbar)/2 K + sqrt(((1 - sbar)/2 K)^2 + R)

with sbar = (n2/n1)^2 and R the right-hand side above; the cladding is
vacuum, n2 = 1 (Le Kien et al., Opt. Commun. 242, 445 (2004)).  The
HE11 root is the sign change of g at the largest effective index on a
fixed grid, closed in one stage by regula falsi with the Illinois rule.
All integrals use fixed-order Gauss-Legendre panels so results are
bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import (
    C_LIGHT, EPSILON_0, MU_0, SILICA_INDEX_852NM, check_fields, scalar_or_array,
)

# Gauss-Legendre rule per radial panel, on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
# Cladding integration reaches exp(-_CLAD_FOLDS) suppression of the field
_CLAD_FOLDS = 40.0
# Cap on the regula-falsi points of one root search; diameters of
# 60 nm to 2.45 um at 780-1064 nm take at most 17
_ROOT_ITERATIONS = 40


class NoGuidedModeError(RuntimeError):
    """The requested geometry guides no bound fundamental mode."""


class EmptyScanError(RuntimeError):
    """No diameter in the scan produced a guided mode."""


@dataclass(frozen=True)
class FiberSpec:
    """Geometry and material of the waveguide in vacuum.

    Parameters
    ----------
    radius_m : float
        Core radius in meters.
    wavelength_m : float
        Vacuum wavelength of the guided light in meters.
    core_index : float
        Refractive index of the core, above the vacuum cladding's 1.
    """

    radius_m: float
    wavelength_m: float
    core_index: float = SILICA_INDEX_852NM

    def __post_init__(self):
        check_fields(self, positive=("radius_m", "wavelength_m"))
        if self.core_index <= 1.0:
            raise ValueError("core_index must exceed the vacuum cladding's 1")

    @property
    def v_number(self) -> float:
        k0 = 2.0 * math.pi / self.wavelength_m
        return k0 * self.radius_m * math.sqrt(self.core_index**2 - 1.0)


@dataclass(frozen=True)
class GuidedMode:
    """Solved fundamental mode of a FiberSpec.

    Attributes
    ----------
    spec : FiberSpec
        Geometry the mode was solved for.
    n_eff : float
        Effective index, strictly between 1 and the core index.
    evanescent_fraction : float
        Share of the guided power flowing outside the core.
    cladding_decay_per_m : float
        Transverse decay constant q of the outer field.
    residual : float
        Characteristic-equation residual at the returned root.
    intensity_profile : callable
        rho (m) -> azimuthally averaged S_z, normalized to unit power
        (units 1/m^2).  Accepts scalars or arrays.
    """

    spec: FiberSpec
    n_eff: float
    evanescent_fraction: float
    cladding_decay_per_m: float
    residual: float
    intensity_profile: Callable[[np.ndarray], np.ndarray]


def _bessel_terms(spec: FiberSpec, n_eff):
    """u, w, J1(u), K1(w), J and K at n_eff."""
    # lazy: importing scipy.special measured 0.2-0.3 s and 20 MB per process
    from scipy.special import j0, j1, k0, k1
    k0a = 2.0 * math.pi / spec.wavelength_m * spec.radius_m
    u = k0a * np.sqrt(spec.core_index**2 - n_eff**2)
    w = k0a * np.sqrt(n_eff**2 - 1.0)
    j1u, k1w = j1(u), k1(w)
    jterm = j0(u) / (u * j1u) - 1.0 / u**2
    kterm = -k0(w) / (w * k1w) - 1.0 / w**2
    return u, w, j1u, k1w, jterm, kterm


def _char_residual(spec: FiberSpec, n_eff) -> float:
    """HE-branch characteristic function, zero at a guided mode."""
    n_eff = np.asarray(n_eff, dtype=float)
    u, w, _, _, jterm, kterm = _bessel_terms(spec, n_eff)
    sbar = (1.0 / spec.core_index) ** 2
    rhs = (n_eff / spec.core_index) ** 2 * (1.0 / u**2 + 1.0 / w**2) ** 2
    g = jterm + 0.5 * (1.0 + sbar) * kterm + np.sqrt(
        (0.5 * (1.0 - sbar) * kterm) ** 2 + rhs
    )
    return scalar_or_array(g)


def solve_he11(spec: FiberSpec) -> GuidedMode:
    """Solve the HE11 mode of `spec`.

    Brackets the characteristic root by the sign change at the largest
    effective index on a fixed grid, then closes the bracket by regula
    falsi with the Illinois rule: the secant point of the two ends
    replaces the end of its own sign, and the weight of an end kept
    twice in a row is halved.  The loop never leaves the bracket and
    converges superlinearly.  It stops at |g| < 1e-14, when the next
    point is not strictly inside the bracket, or after _ROOT_ITERATIONS
    points, and returns the end with the smaller |g| as the mode, that
    |g| as its residual.  Raises NoGuidedModeError when no sign change
    exists, which for this geometry only happens through float
    underflow of the mode's decay constant.
    """
    grid = np.linspace(1.0 + 1e-9, spec.core_index - 1e-9, 1024)
    vals = _char_residual(spec, grid)
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if flips.size == 0:
        raise NoGuidedModeError(
            f"no bound fundamental mode for radius {spec.radius_m:.3e} m "
            f"at {spec.wavelength_m:.3e} m (V = {spec.v_number:.3f})"
        )
    # fundamental = largest effective index
    i = int(flips[-1])
    x = [float(grid[i]), float(grid[i + 1])]
    g = [float(vals[i]), float(vals[i + 1])]
    weight = [1.0, 1.0]
    last = None
    for _ in range(_ROOT_ITERATIONS):
        f_lo, f_hi = weight[0] * g[0], weight[1] * g[1]
        mid = x[1] - f_hi * (x[1] - x[0]) / (f_hi - f_lo)
        if not x[0] < mid < x[1]:
            break
        g_mid = _char_residual(spec, mid)
        side = int((g_mid < 0.0) != (g[0] < 0.0))
        x[side], g[side], weight[side] = mid, g_mid, 1.0
        if side == last:
            weight[1 - side] *= 0.5
        last = side
        if abs(g_mid) < 1e-14:
            break
    best = int(abs(g[1]) < abs(g[0]))
    return _build_mode(spec, x[best], abs(g[best]))


def _field_coefficients(spec: FiberSpec, n_eff: float):
    """Reduced real field coefficients shared by profile and power."""
    a = spec.radius_m
    k0 = 2.0 * math.pi / spec.wavelength_m
    u, w, j1u, k1w, jterm, kterm = _bessel_terms(spec, n_eff)
    # hybrid-mode polarization parameter, H_z = i A (beta/(omega mu0)) s J1
    s_par = (1.0 / u**2 + 1.0 / w**2) / (jterm + kterm)
    return dict(
        a=a, omega=k0 * C_LIGHT, beta=n_eff * k0, h=u / a, q=w / a,
        s_par=s_par, c_out=j1u / k1w,
        n1=spec.core_index,
    )


def _layer_flux(par: dict, fp, f_over_r, k: float, n: float, c: float):
    """S_z of one layer whose radial field is c F(k rho), F = J1 or K1.

    fp is F'(k rho) and f_over_r is F(k rho) / rho.
    """
    beta = par["beta"]
    omega = par["omega"]
    s = par["s_par"]
    x1 = (c * beta / k**2) * (k * fp - s * f_over_r)
    x2 = (c * beta / k**2) * (f_over_r - s * k * fp)
    y1 = (c / k**2) * (
        omega * EPSILON_0 * n**2 * k * fp - beta**2 * s * f_over_r / (omega * MU_0)
    )
    y2 = (c / k**2) * (
        beta**2 * s * k * fp / (omega * MU_0) - omega * EPSILON_0 * n**2 * f_over_r
    )
    return 0.5 * (x1 * y1 - x2 * y2)


def _sz_unnormalized(par: dict, rho: np.ndarray) -> np.ndarray:
    """Azimuthally averaged longitudinal Poynting flux, arbitrary units."""
    from scipy.special import j0, j1, k0, k1  # lazy, as in _bessel_terms
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho <= par["a"]
    # core, regular at rho=0: J1(hr)/r -> h/2, J1' = J0 - J1/x -> 1/2
    r_in = rho[inside]
    h = par["h"]
    x = h * r_in
    with np.errstate(divide="ignore", invalid="ignore"):
        j1_over_r = np.where(
            r_in > 0.0, j1(x) / np.where(r_in > 0.0, r_in, 1.0), h / 2.0
        )
    out[inside] = _layer_flux(par, j0(x) - j1_over_r / h, j1_over_r, h, par["n1"], 1.0)
    # cladding, evanescent: K1' = -K0 - K1/x
    r_out = rho[~inside]
    q = par["q"]
    xo = q * r_out
    k1_over_r = k1(xo) / r_out
    out[~inside] = _layer_flux(
        par, -k0(xo) - k1_over_r / q, k1_over_r, q, 1.0, par["c_out"]
    )
    return out


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes and weights over consecutive [edges] panels."""
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _build_mode(spec: FiberSpec, n_eff: float, residual: float) -> GuidedMode:
    par = _field_coefficients(spec, n_eff)
    a = spec.radius_m
    q = par["q"]
    # radial power integrals P = int S_z 2 pi rho drho on fixed panels
    r_core, w_core = _panel_nodes(np.array([0.0, 0.5 * a, a]))
    reach = _CLAD_FOLDS / (2.0 * q)
    edges = a + reach * np.array([0.0, 0.05, 0.2, 0.5, 1.0])
    r_clad, w_clad = _panel_nodes(edges)
    p_core = float(np.sum(_sz_unnormalized(par, r_core) * 2.0 * np.pi * r_core * w_core))
    p_clad = float(np.sum(_sz_unnormalized(par, r_clad) * 2.0 * np.pi * r_clad * w_clad))
    p_tot = p_core + p_clad
    if p_tot <= 0.0:
        raise NoGuidedModeError("mode power integral is not positive")
    norm = 1.0 / p_tot

    def intensity_profile(rho):
        return scalar_or_array(_sz_unnormalized(par, rho) * norm)

    return GuidedMode(
        spec=spec,
        n_eff=n_eff,
        evanescent_fraction=p_clad / p_tot,
        cladding_decay_per_m=q,
        residual=residual,
        intensity_profile=intensity_profile,
    )


@dataclass(frozen=True)
class ScanResult:
    """Surface intensity per watt guided over fiber diameters."""

    diameters_m: np.ndarray
    surface_intensity_w_m2: np.ndarray
    n_eff: np.ndarray
    evanescent_fractions: np.ndarray


def surface_intensity_scan(
    wavelength_m: float,
    diameters_m,
    core_index: float = SILICA_INDEX_852NM,
) -> ScanResult:
    """Scan the evanescent surface intensity against fiber diameter.

    For each diameter, solves the fundamental mode and evaluates the
    power-normalized intensity just outside the surface, the surface
    intensity per watt guided.  Diameters that guide no mode are dropped
    from the result.  The scan is a pure per-diameter map, safe to
    parallelize, and evaluated here in input order for deterministic
    output.
    """
    diameters_m = np.asarray(diameters_m, dtype=float)
    kept_d = []
    kept_i = []
    kept_n = []
    kept_f = []
    for d in diameters_m:
        spec = FiberSpec(radius_m=0.5 * d, wavelength_m=wavelength_m,
                         core_index=core_index)
        try:
            mode = solve_he11(spec)
        except NoGuidedModeError:
            continue
        rho_surf = 0.5 * d * (1.0 + 1e-12)
        kept_d.append(d)
        kept_i.append(float(mode.intensity_profile(rho_surf)))
        kept_n.append(mode.n_eff)
        kept_f.append(mode.evanescent_fraction)
    if not kept_d:
        raise EmptyScanError("no diameter in the scan guides a mode")
    return ScanResult(
        diameters_m=np.array(kept_d),
        surface_intensity_w_m2=np.array(kept_i),
        n_eff=np.array(kept_n),
        evanescent_fractions=np.array(kept_f),
    )
