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
HE11 root is the first sign change of g on a 17-point grid in u below
the first zero of J0, closed in one stage by regula falsi with the
Illinois rule.  solve_he11 takes one FiberSpec or a sequence of them,
and solves a sequence as a batch: each grid and each regula-falsi step
is one NumPy call over every spec, so a diameter scan costs a few calls
per step instead of a Python loop over diameters.

In each layer the azimuthally averaged flux is S_z = a0 F0(k rho)^2 +
a2 F2(k rho)^2, with F = J (k = h) in the core and F = K (k = q) outside,
so the mode power is closed form through the Lommel integrals

    int_0^a J_n(h rho)^2 rho drho = a^2/2 (J_n^2 - J_(n-1) J_(n+1))(u)
    int_a^inf K_n(q rho)^2 rho drho = a^2/2 (K_(n-1) K_(n+1) - K_n^2)(w)

(Le Kien et al., above; Snyder & Love, Optical Waveguide Theory, 1983).

The Bessel values need NumPy alone (_bessel01): power series for J0, J1 up
to j0,1 and K0, K1 up to 2, then 22-term Chebyshev expansions for K0, K1
(tables from bench/bessel_tables.py, mpmath).  They agree with scipy.special
within 1e-14 relative, and J0 within 1e-16 absolute near its zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .constants import (
    C_LIGHT, EPSILON_0, MU_0, SILICA_INDEX_852NM, check_fields, scalar_or_array,
)

# Cap on the regula-falsi points of one root search; from the u bracket,
# diameters of 20 nm to 2.45 um at 780-1064 nm and core indices 1.44-2.0
# take at most 19
_ROOT_ITERATIONS = 40
# Points of the u grid that brackets the root.  The HE11 root rises
# toward the first zero of J0 as the fiber thickens, and stays below it:
# u <= 2.33 at diameters up to 2.45 um, 780-1064 nm, core index 1.44-2.0
_BRACKET_POINTS = 17
_J0_FIRST_ZERO = 2.404825557695773
# Rows of the bracket arrays: the lower and the upper end
_ENDS = np.array([False, True])

# Written by bench/bessel_tables.py (mpmath): j0,1 - _J0_FIRST_ZERO; J0(x) /
# (j0,1^2 - x^2) in powers of x^2; the 22-term Chebyshev expansions in
# t = 4/x - 1 of sqrt(x) e^x K0(x) and sqrt(x) e^x K1(x), x >= 2, in powers of t
_J01_LO = -1.176691651530894e-16
_J0_OVER_ZERO = (
    0.17291506903064494, -0.013329146159788531, 0.00039698772526443733, -6.404783237242976e-06,
    6.517182621302998e-08, -4.5736278959289213e-10, 2.349481790997872e-12, -9.220827216732862e-15,
    2.85551553512269e-17, -7.156584142304209e-20, 1.4814384050156985e-22, -2.5757414362578197e-25,
)
_K0_SCALED = (
    1.2185953385133905, -0.031071461824889898, 0.0030328918102627113, -0.0004797690567328844,
    9.956054792466011e-05, -2.473520542848972e-05, 7.0022377776472354e-06, -2.1911673837417864e-06,
    7.428430680863342e-07, -2.689759865539584e-07, 1.0266057487973019e-07, -4.1056738724915364e-08,
    1.7902060143687665e-08, -8.025205604904476e-09, 2.2120358587711888e-09, -6.643878631843235e-10,
    1.9632122484351887e-09, -1.2366923277096287e-09, -6.13945904009317e-10, 4.3927260002107633e-10,
    2.889904815815699e-10, -1.7597528809195706e-10,
)
_K1_SCALED = (
    1.363151890371342, 0.10334973775386565, -0.00556672988006082, 0.0007357241548718385,
    -0.00013959022011346224, 3.2843866502355955e-05, -8.961198796205966e-06,
    2.7300301043527215e-06, -9.067774956896138e-07, 3.230567198853934e-07, -1.2171111254116978e-07,
    4.815434679085478e-08, -2.0750670896396213e-08, 9.213894020289533e-09, -2.5887978063524e-09,
    7.966242798504094e-10, -2.17513288712739e-09, 1.3615859404460648e-09, 6.677145127578851e-10,
    -4.77441121785095e-10, -3.1756371994308864e-10, 1.9273808087540517e-10,
)
# Points per _bessel01 block: its widest temporary is 8 x 9 doubles a point
_BLOCK = 1024


# The polynomials _bessel01 sums, power k in row bitreverse4(k): J0(x) / (j0,1^2 - x^2),
# the exact series in x^2 of J1(x)/x, I0(x), K0(x) + ln(x/2) I0(x) and I1(x)/x, with
# psi(k + 1) = H_k - Euler's gamma, then the even and odd parts of each K table in t^2
_POW = np.arange(16.0)
_I0_COEF = 0.25**_POW / np.cumprod(np.maximum(_POW, 1.0)) ** 2
_PSI = np.cumsum(1.0 / np.maximum(_POW, 1.0)) - 1.0 - 0.5772156649015329
_ESTRIN = np.array([np.r_[row, np.zeros(16 - len(row))] for row in (
    _J0_OVER_ZERO, (-1.0) ** _POW * _I0_COEF / (2.0 * _POW + 2.0), _I0_COEF, _PSI * _I0_COEF,
    _I0_COEF / (2.0 * _POW + 2.0), _K0_SCALED[0::2], _K0_SCALED[1::2], _K1_SCALED[0::2],
    _K1_SCALED[1::2])]).T[[int(format(k, "04b")[::-1], 2) for k in range(16)]]


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


class _Columns(NamedTuple):
    """The FiberSpec fields of a batch as (specs,) arrays."""

    radius_m: np.ndarray
    wavelength_m: np.ndarray
    core_index: np.ndarray


# The mode functions below take a FiberSpec, whose fields are floats, or a
# _Columns batch.  A single spec thus runs on scalars, which cost a tenth
# of a one-element array per NumPy call.  They square by products: on a
# scalar, ** calls pow(), which can differ from x * x in the last bit,
# and a batch entry must equal its single-spec solve bit for bit.


def _bessel01(u, w):
    """J0(u), J1(u)/u, K0(w) and K1(w) for same-shape u in [0, j0,1] and w > 0.

    J0 is (j0,1 - u)(j0,1 + u) times a series, so it keeps its relative
    accuracy up to its zero; K1 for w <= 2 comes from the Wronskian
    I0 K1 + I1 K0 = 1/w.  Estrin's scheme sums the polynomials in place,
    _BLOCK points at a time, each step elementwise (no BLAS, no reduction),
    so a value does not depend on the shape of its batch."""
    if np.size(u) > _BLOCK:
        out, u, w = np.empty((4,) + np.shape(u)), np.ravel(u), np.ravel(w)
        for i in range(0, u.size, _BLOCK):
            out.reshape(4, -1)[:, i:i + _BLOCK] = _bessel01(u[i:i + _BLOCK], w[i:i + _BLOCK])
        return out
    small, big = np.minimum(w, 2.0), np.maximum(w, 2.0)
    u2, small2, t = u * u, small * small, 4.0 / big - 1.0
    v = np.stack((u2, u2, small2, small2, small2, *[t * t] * 4))
    coef = _ESTRIN.reshape(_ESTRIN.shape + (1,) * np.ndim(u))
    a = coef[8:] * v
    a += coef[:8]
    n = 8
    while n > 1:
        v = v * v
        n //= 2
        a[n:2 * n] *= v
        a[:n] += a[n:2 * n]
    q, j1_u, i0, k0_log, i1_w, k0_even, k0_odd, k1_even, k1_odd = a[0]
    k0 = k0_log - np.log(0.5 * small) * i0
    scale = np.exp(-big) / np.sqrt(big)
    near = w <= 2.0
    return (((_J0_FIRST_ZERO - u) + _J01_LO) * (_J0_FIRST_ZERO + u) * q, j1_u,
            np.where(near, k0, scale * (k0_even + t * k0_odd)),
            np.where(near, (1.0 / small - small * i1_w * k0) / i0,
                     scale * (k1_even + t * k1_odd)))


def _bessel_terms(spec, n_eff):
    """u, w, J0(u), J1(u), K0(w), K1(w), J, K and 1/u^2 + 1/w^2 at n_eff."""
    k0a = 2.0 * math.pi / spec.wavelength_m * spec.radius_m
    n2 = n_eff * n_eff
    u = k0a * np.sqrt(spec.core_index * spec.core_index - n2)
    w = k0a * np.sqrt(n2 - 1.0)
    j0u, j1u_u, k0w, k1w = _bessel01(u, w)
    j1u = u * j1u_u
    inv_u2, inv_w2 = 1.0 / (u * u), 1.0 / (w * w)
    jterm = j0u / (u * j1u) - inv_u2
    kterm = -k0w / (w * k1w) - inv_w2
    return u, w, j0u, j1u, k0w, k1w, jterm, kterm, inv_u2 + inv_w2


def _char_residual(spec, n_eff):
    """HE-branch characteristic function, zero at a guided mode."""
    *_, jterm, kterm, inv_sum = _bessel_terms(spec, n_eff)
    inv_core = 1.0 / spec.core_index
    sbar = inv_core * inv_core
    ratio = n_eff / spec.core_index
    rhs = ratio * ratio * (inv_sum * inv_sum)
    split = 0.5 * (1.0 - sbar) * kterm
    return jterm + 0.5 * (1.0 + sbar) * kterm + np.sqrt(split * split + rhs)


def _bracket(fiber):
    """(n_eff, g) at both ends of each spec's HE11 bracket, lower index
    first along axis 0, and whether the spec has a bracket.

    The grid is uniform in u from the u of n_eff = n1 - 1e-9 up to the
    smaller of j0,1 and the u of n_eff = 1 + 1e-9, with those two
    indices set exactly at the ends they stand for.  The first sign
    change in u order is the one at the largest effective index.
    """
    core = fiber.core_index
    k0a = 2.0 * math.pi / fiber.wavelength_m * fiber.radius_m
    top, bottom = core - 1e-9, 1.0 + 1e-9
    u_bottom = k0a * np.sqrt(core * core - bottom * bottom)
    u = np.linspace(k0a * np.sqrt(core * core - top * top),
                    np.minimum(u_bottom, _J0_FIRST_ZERO), _BRACKET_POINTS)
    ratio = u / k0a
    grid = np.sqrt(core * core - ratio * ratio)
    grid[0] = top
    # guarded endpoint: near cutoff the root can lie past every interior
    # point, as at 149 nm, 780 nm and core index 1.44 (u = V - 2.8e-7)
    grid[-1] = np.where(u_bottom <= _J0_FIRST_ZERO, bottom, grid[-1])
    vals = _char_residual(fiber, grid)
    sign = np.sign(vals)
    flips = sign[:-1] * sign[1:] < 0
    i = np.argmax(flips, axis=0)
    ends = np.array([i + 1, i])
    return (np.take_along_axis(grid, ends, 0), np.take_along_axis(vals, ends, 0),
            flips.any(axis=0))


def solve_he11(spec: Union[FiberSpec, Sequence[FiberSpec]]
               ) -> Union[GuidedMode, list[Optional[GuidedMode]]]:
    """Solve the HE11 mode of `spec`, one FiberSpec or a sequence of them.

    Brackets each characteristic root by the first sign change on a
    17-point grid in u (see _bracket), then closes the bracket by regula
    falsi with the Illinois rule: the secant point of the two ends
    replaces the end of its own sign, and the weight of an end kept
    twice in a row is halved.  The loop never leaves the bracket and
    converges superlinearly.  It stops at |g| < 1e-14, when the next
    point is not strictly inside the bracket, or after _ROOT_ITERATIONS
    points, and returns the end with the smaller |g| as the mode, that
    |g| as its residual.

    A sequence is solved together: one residual call over every grid,
    then one array call per regula-falsi point, each spec stopping by
    its own rules, so each entry equals its single-spec solve.  It
    returns a list with None for a spec that guides no mode.  A single
    FiberSpec returns its GuidedMode or raises NoGuidedModeError: the
    root lies outside the n_eff window [1 + 1e-9, n1 - 1e-9] of the
    bracket, that window is empty (n1 <= 1 + 2e-9), or the mode's decay
    constant underflows.
    """
    single = isinstance(spec, FiberSpec)
    specs = [spec] if single else list(spec)
    solvable = [s.core_index - 1e-9 > 1.0 + 1e-9 for s in specs]
    kept = [s for s, ok in zip(specs, solvable) if ok]
    fiber = spec if single and kept else _Columns(*np.array(
        [(s.radius_m, s.wavelength_m, s.core_index) for s in kept], dtype=float
    ).reshape(-1, 3).T)
    x, g, guided = _bracket(fiber)
    active = guided
    # g times each end's Illinois weight
    f = g
    last = np.zeros(x.shape, dtype=bool)
    for _ in range(_ROOT_ITERATIONS):
        # an inactive spec may hold a bracket of one float, f[1] == f[0]
        mid = x[1] - f[1] * (x[1] - x[0]) / np.where(active, f[1] - f[0], 1.0)
        active = active & (x[0] < mid) & (mid < x[1])
        if not np.count_nonzero(active):
            break
        g_mid = _char_residual(fiber, np.where(active, mid, x[1]))
        # mid replaces the end of its own sign
        moved = np.equal.outer(_ENDS, (g_mid < 0.0) != (g[0] < 0.0)) & active
        x = np.where(moved, mid, x)
        g = np.where(moved, g_mid, g)
        f = np.where(moved, g_mid, np.where((moved & last)[::-1], 0.5 * f, f))
        last = moved
        active = active & ~(np.abs(g_mid) < 1e-14)
    best = np.abs(g[1]) < np.abs(g[0])
    solved = iter(_build_modes(kept, fiber, np.where(best, x[1], x[0]),
                               np.abs(np.where(best, g[1], g[0])), guided))
    modes = [next(solved) if ok else None for ok in solvable]
    if not single:
        return modes
    if modes[0] is None:
        raise NoGuidedModeError(
            f"no bound fundamental mode for radius {spec.radius_m:.3e} m "
            f"at {spec.wavelength_m:.3e} m (V = {spec.v_number:.3f})"
        )
    return modes[0]


def _field_coefficients(spec, n_eff, terms):
    """(k, a0, a2) of the core and of the cladding, S_z = a0 F0^2 + a2 F2^2.

    terms is _bessel_terms at n_eff; F is J in the core, K outside.
    """
    k0 = 2.0 * math.pi / spec.wavelength_m
    u, w, _, j1u, _, k1w, jterm, kterm, inv_sum = terms
    omega, beta = k0 * C_LIGHT, n_eff * k0
    # hybrid-mode polarization parameter, H_z = i A (beta/(omega mu0)) s J1
    s = inv_sum / (jterm + kterm)
    m = s * (beta * beta) / (omega * MU_0)
    layers = []
    for k, n, c in ((u / spec.radius_m, spec.core_index, 1.0),
                    (w / spec.radius_m, 1.0, j1u / k1w)):
        e = omega * EPSILON_0 * (n * n)
        scale = c * c * beta / (4.0 * k * k)
        layers.append((k, scale * (1.0 - s) * (e - m), scale * (1.0 + s) * (e + m)))
    return layers


def _build_modes(specs, fiber, n_eff, residual, guided):
    """GuidedMode of each spec at its root, None where `guided` is False or
    the mode power is not positive."""
    terms = _bessel_terms(fiber, n_eff)
    (h, a0_in, a2_in), (q, a0_out, a2_out) = _field_coefficients(fiber, n_eff, terms)
    u, w, j0u, j1u, k0w, k1w, *_ = terms
    j2u = 2.0 * j1u / u - j0u
    j3u = 4.0 * j2u / u - j1u
    k2w = k0w + 2.0 * k1w / w
    k3w = k1w + 4.0 * k2w / w
    # P = int S_z 2 pi rho drho over each layer, by the Lommel integrals
    area = math.pi * (fiber.radius_m * fiber.radius_m)
    p_core = area * (a0_in * (j0u * j0u + j1u * j1u) + a2_in * (j2u * j2u - j1u * j3u))
    p_clad = area * (a0_out * (k1w * k1w - k0w * k0w) + a2_out * (k1w * k3w - k2w * k2w))
    p_tot = p_core + p_clad
    guided = np.ravel(guided & ~(p_tot <= 0.0)).tolist()
    rows = np.array([n_eff, p_clad / p_tot, residual, q, h, a0_in, a2_in, a0_out,
                     a2_out, p_tot]).reshape(10, -1).T.tolist()
    return [
        GuidedMode(
            spec=spec,
            n_eff=n,
            evanescent_fraction=fraction,
            cladding_decay_per_m=decay,
            residual=res,
            intensity_profile=partial(_intensity_profile, spec.radius_m, decay, *profile),
        ) if ok else None
        for spec, ok, (n, fraction, res, decay, *profile) in zip(specs, guided, rows)
    ]


def _intensity_profile(radius, q, h, a0_in, a2_in, a0_out, a2_out, p_tot, rho):
    """S_z / P_tot at rho (m), S_z = a0 F0^2 + a2 F2^2; broadcasts over modes too."""
    rho = np.asarray(rho, dtype=float)
    x, z = h * np.minimum(rho, radius), q * np.maximum(rho, radius)
    j0, j1_x, k0, k1 = _bessel01(x, z)
    j2, k2 = 2.0 * j1_x - j0, k0 + 2.0 * k1 / z
    out = np.where(rho <= radius, a0_in * (j0 * j0) + a2_in * (j2 * j2),
                   a0_out * (k0 * k0) + a2_out * (k2 * k2))
    return scalar_or_array(out / p_tot)


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

    Solves the fundamental modes of all diameters in one batched
    solve_he11 call and evaluates each power-normalized intensity just
    outside the surface, the surface intensity per watt guided.
    Diameters that guide no mode are dropped from the result, which
    keeps the input order.
    """
    diameters_m = np.asarray(diameters_m, dtype=float)
    modes = solve_he11([
        FiberSpec(radius_m=0.5 * d, wavelength_m=wavelength_m, core_index=core_index)
        for d in diameters_m
    ])
    kept = [(d, mode) for d, mode in zip(diameters_m, modes) if mode is not None]
    if not kept:
        raise EmptyScanError("no diameter in the scan guides a mode")
    # every profile is a partial of _intensity_profile: one call for all
    profiles = np.array([mode.intensity_profile.args for _, mode in kept]).T
    return ScanResult(
        diameters_m=np.array([d for d, _ in kept]),
        surface_intensity_w_m2=_intensity_profile(*profiles, profiles[0] * (1.0 + 1e-12)),
        n_eff=np.array([mode.n_eff for _, mode in kept]),
        evanescent_fractions=np.array([mode.evanescent_fraction for _, mode in kept]),
    )
