"""Fundamental-mode solver tests.

Frozen oracle values were computed with this solver after validating it
against machine-precision tangential-field continuity, pointwise Maxwell
curl residuals inside and outside the core, and the scalar LP01 power
integral in the weak-guidance limit (agreement 3e-4 at delta-n = 5e-4).
"""

import math
import warnings

import numpy as np
import pytest

from fibermem import waveguide
from fibermem.constants import C_LIGHT, EPSILON_0, MU_0
from fibermem.waveguide import (
    EmptyScanError,
    FiberSpec,
    GuidedMode,
    NoGuidedModeError,
    solve_he11,
    surface_intensity_scan,
)

SPEC_400 = FiberSpec(radius_m=200e-9, wavelength_m=852e-9)

# frozen solver outputs for the 400 nm / 852 nm reference geometry
N_EFF_400 = 1.06897949839866
EVAN_FRAC_400 = 0.592576832568


def test_reference_geometry_frozen_values():
    mode = solve_he11(SPEC_400)
    assert mode.n_eff == pytest.approx(N_EFF_400, rel=1e-9)
    assert mode.evanescent_fraction == pytest.approx(EVAN_FRAC_400, rel=1e-6)
    assert mode.spec.v_number == pytest.approx(1.5537604732315082, rel=1e-12)


def test_residual_below_tolerance():
    mode = solve_he11(SPEC_400)
    assert mode.residual < 1e-10


def test_root_search_makes_few_residual_calls(monkeypatch):
    # the u-grid scan is one array call; the bracketed search adds a few
    calls = []
    residual = waveguide._char_residual

    def counted(spec, n_eff):
        calls.append(np.shape(n_eff))
        return residual(spec, n_eff)

    monkeypatch.setattr(waveguide, "_char_residual", counted)
    mode = solve_he11(SPEC_400)
    assert calls[0] == (17,)
    assert len(calls) <= 12
    assert mode.n_eff == pytest.approx(N_EFF_400, rel=1e-9)


def _scanned_roots(specs):
    """Largest-index root of each spec's characteristic function from a
    1,024-point n_eff scan, NaN where the scan finds no sign change.

    The scan is the bracket the u grid replaced; a batched bisection then
    closes each bracket until no float lies between its ends.
    """
    fiber = waveguide._Columns(*np.array(
        [(s.radius_m, s.wavelength_m, s.core_index) for s in specs]).T)
    lo, hi, found = [], [], []
    for start in range(0, len(specs), 128):  # keeps the (1024, specs) arrays small
        part = waveguide._Columns(*(column[start:start + 128] for column in fiber))
        grid = np.linspace(1.0 + 1e-9, part.core_index - 1e-9, 1024)
        sign = np.sign(waveguide._char_residual(part, grid))
        flips = sign[:-1] * sign[1:] < 0
        i = flips.shape[0] - 1 - np.argmax(flips[::-1], axis=0)
        cols = np.arange(grid.shape[1])
        lo.append(grid[i, cols])
        hi.append(grid[i + 1, cols])
        found.append(flips.any(axis=0))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    g_lo = waveguide._char_residual(fiber, lo)
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        g = waveguide._char_residual(fiber, np.where(inside, mid, lo))
        up = inside & ((g < 0.0) == (g_lo < 0.0))
        lo, g_lo = np.where(up, mid, lo), np.where(up, g, g_lo)
        hi = np.where(inside & ~up, mid, hi)
    return np.where(np.concatenate(found), lo, np.nan)


def test_root_matches_full_precision_bisection():
    # 10 diameters x 5 wavelengths x 4 core indices = 200 geometries
    specs = [FiberSpec(radius_m=0.5 * d, wavelength_m=lam, core_index=core)
             for d in np.linspace(180e-9, 2.4e-6, 10)
             for lam in np.linspace(780e-9, 1064e-9, 5)
             for core in (1.44, 1.45, 1.4525, 1.47)]
    for spec, root in zip(specs, _scanned_roots(specs)):
        mode = solve_he11(spec)
        assert 1.0 < mode.n_eff < spec.core_index
        assert mode.n_eff == pytest.approx(root, rel=1e-13)


def test_u_bracket_matches_dense_n_eff_scan():
    # 1,152 geometries from 100 nm to 2.45 um, 768 near cutoff from 20 nm
    # up, the guarded endpoint at 149 nm / 780 nm / 1.44, and r = 40 nm
    geometries = [
        (d, lam, core)
        for diameters, cores in ((np.linspace(100e-9, 2.45e-6, 96), (1.44, 1.4525, 1.47)),
                                 (np.arange(20e-9, 401e-9, 4e-9), (1.44, 2.0)))
        for d in diameters
        for lam in (780e-9, 852e-9, 935e-9, 1064e-9)
        for core in cores
    ] + [(149e-9, 780e-9, 1.44), (80e-9, 852e-9, 1.4525)]
    specs = [FiberSpec(radius_m=0.5 * d, wavelength_m=lam, core_index=core)
             for d, lam, core in geometries]
    modes = solve_he11(specs)
    reference = _scanned_roots(specs)
    n_eff = np.array([np.nan if m is None else m.n_eff for m in modes])
    assert np.array_equal(np.isnan(n_eff), np.isnan(reference))
    assert 0 < np.isnan(reference).sum() < len(specs)
    assert modes[-2] is not None and modes[-1] is None
    guided = ~np.isnan(reference)
    np.testing.assert_allclose(n_eff[guided], reference[guided], rtol=1e-14, atol=0.0)


def test_batch_entries_equal_single_spec_solves():
    # a single spec runs on scalars and a batch on arrays; r = 236.5 nm and
    # core index 1.4437 are values whose x**2 differs from x * x in the last bit
    specs = [
        FiberSpec(radius_m=r, wavelength_m=lam, core_index=core)
        for r, lam, core in ((200e-9, 852e-9, 1.4525), (40e-9, 852e-9, 1.4525),
                             (74.5e-9, 780e-9, 1.44), (236.5e-9, 852e-9, 1.4525),
                             (1e-6, 935e-9, 1.45), (60e-9, 780e-9, 2.0),
                             (150e-9, 1064e-9, 1.4437))
    ] + [
        FiberSpec(radius_m=r, wavelength_m=lam, core_index=core)
        for r in np.linspace(50e-9, 1e-6, 40)
        for lam, core in ((780e-9, 1.47), (1064e-9, 1.44), (852e-9, 1.6))
    ]
    modes = solve_he11(specs)
    assert modes[1] is None
    with pytest.raises(NoGuidedModeError):
        solve_he11(specs[1])
    for spec, mode in zip(specs, modes):
        if mode is None:
            continue
        single = solve_he11(spec)
        rho = spec.radius_m * (1.0 + 1e-12)
        assert mode.spec is spec
        assert (mode.n_eff, mode.evanescent_fraction, mode.residual,
                mode.intensity_profile(rho)) == (
            single.n_eff, single.evanescent_fraction, single.residual,
            single.intensity_profile(rho))


def test_bessel_values_match_scipy():
    # the NumPy-only J0/J1 on the u range up to j0,1 and K0/K1 on the w
    # range; near J0's zero the bound is absolute
    from scipy import special

    x = np.linspace(0.0, waveguide._J0_FIRST_ZERO, 100001)[1:]
    w = np.concatenate([np.geomspace(1e-8, 700.0, 100001), np.linspace(1.99, 2.01, 2001)])
    j0, j1_x, _, _ = waveguide._bessel01(x, np.ones_like(x))
    _, _, k0, k1 = waveguide._bessel01(np.ones_like(w), w)
    ref = special.j0(x)
    far = np.abs(ref) >= 0.01
    assert np.max(np.abs(j0[far] / ref[far] - 1.0)) <= 1e-14
    assert np.max(np.abs(j0[~far] - ref[~far])) <= 1e-15
    np.testing.assert_allclose(x * j1_x, special.j1(x), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(k0, special.k0(w), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(k1, special.k1(w), rtol=1e-14, atol=0.0)
    # K2 by its recurrence; scipy's kv(2, w) underflows to 0 from w = 698
    np.testing.assert_allclose(k0 + 2.0 * k1 / w, special.kve(2, w) * np.exp(-w),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("core", [1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 1e-8])
def test_near_vacuum_core_guides_no_mode_without_warning(core):
    # n1 - 1e-9 <= 1 + 1e-9 leaves the bracket no n_eff window; at 1 + 1e-8
    # (V = 2e-4) the root lies below the window's n_eff = 1 + 1e-9
    spec = FiberSpec(radius_m=200e-9, wavelength_m=852e-9, core_index=core)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        modes = solve_he11([spec, SPEC_400])
        with pytest.raises(NoGuidedModeError):
            solve_he11(spec)
    assert modes[0] is None
    assert modes[1].n_eff == solve_he11(SPEC_400).n_eff


def test_effective_index_bounds_and_beta():
    mode = solve_he11(SPEC_400)
    assert 1.0 < mode.n_eff < SPEC_400.core_index


def test_solver_deterministic():
    m1 = solve_he11(SPEC_400)
    m2 = solve_he11(SPEC_400)
    assert m1.n_eff == m2.n_eff
    assert m1.evanescent_fraction == m2.evanescent_fraction


def test_thick_fiber_limit():
    mode = solve_he11(FiberSpec(radius_m=1e-6, wavelength_m=852e-9))
    assert mode.evanescent_fraction < 0.05
    assert mode.n_eff > 1.40


def test_neff_increases_fraction_decreases_with_radius():
    radii = np.linspace(125e-9, 400e-9, 10)
    neff = []
    frac = []
    for r in radii:
        m = solve_he11(FiberSpec(radius_m=r, wavelength_m=852e-9))
        neff.append(m.n_eff)
        frac.append(m.evanescent_fraction)
    assert np.all(np.diff(neff) > 0.0)
    assert np.all(np.diff(frac) < 0.0)


def test_fraction_approaches_one_near_guidance_collapse():
    fr = [
        solve_he11(FiberSpec(radius_m=r, wavelength_m=852e-9)).evanescent_fraction
        for r in [150e-9, 120e-9, 95e-9, 80e-9]
    ]
    assert np.all(np.diff(fr) > 0.0)
    assert fr[-1] > 0.999


def test_no_mode_error_when_decay_underflows():
    with pytest.raises(NoGuidedModeError):
        solve_he11(FiberSpec(radius_m=40e-9, wavelength_m=852e-9))


def test_spec_validation():
    with pytest.raises(ValueError):
        FiberSpec(radius_m=-1e-9, wavelength_m=852e-9)
    with pytest.raises(ValueError):
        FiberSpec(radius_m=200e-9, wavelength_m=0.0)
    with pytest.raises(ValueError):
        FiberSpec(radius_m=200e-9, wavelength_m=852e-9, core_index=0.9)


def test_intensity_normalization_independent_quadrature():
    mode = solve_he11(SPEC_400)
    a = SPEC_400.radius_m
    q = mode.cladding_decay_per_m
    rho = np.linspace(0.0, a + 40.0 / (2.0 * q), 400001)
    total = np.trapezoid(mode.intensity_profile(rho) * 2.0 * np.pi * rho, rho)
    assert total == pytest.approx(1.0, abs=1e-5)


def _quadrature_reference(spec, n_eff):
    """(P_core, P_clad, S_z) of the HE11 mode at n_eff from its J1'/(J1/rho)
    field form, integrated by adaptive quadrature in t = rho/a.

    S_z(t) is unnormalized; P = int S_z t dt, the mode power over 2 pi a^2.
    """
    from scipy.integrate import quad
    from scipy.special import j0, j1, k0, k1

    a = spec.radius_m
    k_vac = 2.0 * math.pi / spec.wavelength_m
    omega, beta = k_vac * C_LIGHT, n_eff * k_vac
    u = k_vac * a * math.sqrt(spec.core_index**2 - n_eff**2)
    w = k_vac * a * math.sqrt(n_eff**2 - 1.0)
    jterm = j0(u) / (u * j1(u)) - 1.0 / u**2
    kterm = -k0(w) / (w * k1(w)) - 1.0 / w**2
    s = (1.0 / u**2 + 1.0 / w**2) / (jterm + kterm)

    def layer(fp, f_over_r, k, n, c):
        # S_z of a layer with radial field c F(k rho): fp = F', f_over_r = F/rho
        e, m = omega * EPSILON_0 * n**2, beta**2 * s / (omega * MU_0)
        x1 = (c * beta / k**2) * (k * fp - s * f_over_r)
        x2 = (c * beta / k**2) * (f_over_r - s * k * fp)
        y1 = (c / k**2) * (e * k * fp - m * f_over_r)
        y2 = (c / k**2) * (m * k * fp - e * f_over_r)
        return 0.5 * (x1 * y1 - x2 * y2)

    def flux(t):
        rho = t * a
        if t <= 1.0:
            h = u / a
            j1_over_r = j1(h * rho) / rho if rho > 0.0 else h / 2.0
            return layer(j0(h * rho) - j1_over_r / h, j1_over_r, h, spec.core_index, 1.0)
        q = w / a
        k1_over_r = k1(q * rho) / rho
        return layer(-k0(q * rho) - k1_over_r / q, k1_over_r, q, 1.0, j1(u) / k1(w))

    def power(lo, hi):
        return quad(lambda t: flux(t) * t, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    return power(0.0, 1.0), power(1.0, np.inf), flux


@pytest.mark.parametrize("d_nm, lam_nm, core", [
    (175, 1064, 1.44), (200, 1064, 1.44), (255, 1064, 1.44), (400, 852, 1.4525),
    (600, 935, 1.45), (1200, 780, 1.47), (2000, 1064, 1.44),
])
def test_closed_form_power_matches_quadrature_reference(d_nm, lam_nm, core):
    spec = FiberSpec(radius_m=0.5e-9 * d_nm, wavelength_m=1e-9 * lam_nm, core_index=core)
    mode = solve_he11(spec)
    p_core, p_clad, flux = _quadrature_reference(spec, mode.n_eff)
    assert mode.evanescent_fraction == pytest.approx(p_clad / (p_core + p_clad), rel=1e-12)
    t = np.array([0.0, 0.3, 0.7, 1.0, 1.0 + 1e-12, 1.5, 3.0])
    reference = np.array([flux(x) for x in t]) / (
        2.0 * math.pi * spec.radius_m**2 * (p_core + p_clad))
    # past a fraction of 0.999 the flux is a small difference of large
    # terms in both forms; the reference loses up to 1.5e-8 there
    rel = 1e-12 if mode.evanescent_fraction <= 0.999 else 1e-7
    assert mode.intensity_profile(t * spec.radius_m) == pytest.approx(reference, rel=rel)


def _boundary_matched_he11(ka, n1):
    """(n_eff, fraction of the power outside the core) of the HE11 mode of a
    core of index n1 in vacuum, from the 4x4 boundary-matching determinant.

    Uses nothing of waveguide.  Lengths are in units of 1/k, so the core
    radius is ka.  Each layer carries Ez = A F(s r) e^{i(phi + beta z)} and
    Z0 Hz = i B F(s r) e^{i(...)}, F = J1 in the core and K1 outside; with
    them the transverse fields from Maxwell's equations are real up to the
    factors i (E_r, H_phi) and -1 (E_phi, H_r).  The rows are the
    continuity of Ez, Hz, E_phi and H_phi at r = ka.
    """
    from scipy.integrate import quad
    from scipy.linalg import null_space
    from scipy.optimize import brentq
    from scipy.special import jv, jvp, kv, kvp

    def layers(beta):
        h, q = np.sqrt(n1**2 - beta**2), np.sqrt(beta**2 - 1.0)
        return (h**2, h, n1, jv, jvp), (-q**2, q, 1.0, kv, kvp)

    def fields(beta, r, layer, a, b):
        # (Ez, Z0 Hz, E_r/i, -E_phi, -Z0 H_r, Z0 H_phi/i) per unit A and B
        kt2, s, n, f, fp = layer
        F, Fp = f(1, s * r), fp(1, s * r)
        return (a * F, b * F,
                (beta * s * a * Fp - b * F / r) / kt2,
                (beta * a * F / r - s * b * Fp) / kt2,
                (beta * s * b * Fp - n**2 * a * F / r) / kt2,
                (n**2 * s * a * Fp - beta * b * F / r) / kt2)

    def matrix(beta):
        # columns A, B of the core and -C, -D of the cladding; rows Ez,
        # Hz, E_phi, H_phi
        cols = []
        for layer, sign in zip(layers(beta), (1.0, -1.0)):
            for a, b in ((1.0, 0.0), (0.0, 1.0)):
                ez, hz, _, ephi, _, hphi = fields(beta, ka, layer, a, b)
                cols.append([sign * ez, sign * hz, sign * ephi, sign * hphi])
        return np.moveaxis(np.array(cols), (0, 1), (-1, -2))

    # HE11 is the highest root in (1, n1); the determinant has no pole
    # there, so a coarse sign scan brackets it
    scan = np.linspace(1.0, n1, 34)[1:-1]
    det = np.linalg.det(matrix(scan))
    i = np.flatnonzero(np.sign(det[:-1]) != np.sign(det[1:]))[-1]
    n_eff = brentq(lambda beta: np.linalg.det(matrix(beta)), scan[i], scan[i + 1],
                   xtol=1e-16)
    coef = null_space(matrix(n_eff), rcond=1e-9)
    assert coef.shape == (4, 1)

    def flux(r, layer, a, b):
        # S_z r = Re(E_r H_phi* - E_phi H_r*) r / 2
        _, _, er, ephi, hr, hphi = fields(n_eff, r, layer, a, b)
        return 0.5 * (er * hphi - ephi * hr) * r

    core, clad = layers(n_eff)
    outer = ka + 80.0 / math.sqrt(n_eff**2 - 1.0)  # K1 has fallen by e^-80
    p_in = quad(flux, 0.0, ka, (core, *coef[:2, 0]), epsabs=0.0, epsrel=1e-13,
                limit=200)[0]
    p_out = quad(flux, ka, outer, (clad, *coef[2:, 0]), epsabs=0.0, epsrel=1e-13,
                 limit=200)[0]
    return n_eff, p_out / (p_in + p_out)


def test_he11_matches_independent_boundary_matching_solution():
    # Le Kien et al., Opt. Commun. 242, 445 (2004): at a 400 nm diameter
    # and 852 nm the exact mode carries 59% of its power outside the core,
    # the value that criterion 1's 0.40 band excludes.  About 8 ms once
    # SciPy is loaded (the quadrature-reference tests above load it).
    mode = solve_he11(FiberSpec(radius_m=200e-9, wavelength_m=852e-9, core_index=1.4525))
    n_eff, outside = _boundary_matched_he11(2.0 * math.pi * 200.0 / 852.0, 1.4525)
    assert n_eff == pytest.approx(1.068979498399, rel=1e-12)
    assert outside == pytest.approx(0.5925768326, rel=1e-10)
    assert mode.n_eff == pytest.approx(n_eff, rel=1e-10)
    assert mode.evanescent_fraction == pytest.approx(outside, rel=1e-10)


def test_boundary_jump_is_bounded_dielectric_discontinuity():
    mode = solve_he11(SPEC_400)
    a = SPEC_400.radius_m
    inner = mode.intensity_profile(a * (1.0 - 1e-12))
    outer = mode.intensity_profile(a * (1.0 + 1e-12))
    assert inner > 0.0 and outer > 0.0
    # jump driven by the normal-field discontinuity, at most (n1/n2)^4, n2 = 1
    assert 1.0 < outer / inner < SPEC_400.core_index ** 4


def test_cladding_decay_constant_matches_beta():
    # rho*I(rho) ~ exp(-2 q rho) for q rho >> 1, prefactor-corrected decay
    mode = solve_he11(SPEC_400)
    a = SPEC_400.radius_m
    k0 = 2.0 * math.pi / SPEC_400.wavelength_m
    q_from_beta = math.sqrt((mode.n_eff * k0) ** 2 - k0**2)
    lo, hi = 8.0 * a, 12.0 * a
    slope = (
        math.log(hi * mode.intensity_profile(hi))
        - math.log(lo * mode.intensity_profile(lo))
    ) / (hi - lo)
    assert slope == pytest.approx(-2.0 * q_from_beta, rel=0.01)
    assert mode.cladding_decay_per_m == pytest.approx(q_from_beta, rel=1e-12)


def test_far_field_suppression():
    mode = solve_he11(SPEC_400)
    a = SPEC_400.radius_m
    ratio = mode.intensity_profile(10.0 * a) / mode.intensity_profile(a * (1.0 + 1e-12))
    assert ratio < 1e-3


def test_scan_argmax_and_content():
    scan = surface_intensity_scan(852e-9, np.arange(300e-9, 501e-9, 5e-9))
    argmax_d = scan.diameters_m[np.argmax(scan.surface_intensity_w_m2)]
    assert argmax_d == pytest.approx(380e-9, abs=1e-12)
    assert scan.diameters_m.shape == scan.surface_intensity_w_m2.shape
    assert np.all(scan.surface_intensity_w_m2 > 0.0)
    assert np.all(np.diff(scan.diameters_m) > 0.0)


def test_scan_surface_equals_each_mode_profile():
    # the scan evaluates every surface in one call
    d = np.array([300e-9, 380e-9, 1.2e-6])
    scan = surface_intensity_scan(852e-9, d)
    each = [solve_he11(FiberSpec(radius_m=0.5 * x, wavelength_m=852e-9)
                       ).intensity_profile(0.5 * x * (1.0 + 1e-12)) for x in d]
    assert scan.surface_intensity_w_m2.tolist() == each


def test_scan_solves_each_diameter_once(monkeypatch):
    calls = []

    def counted(specs):
        calls.append([2.0 * spec.radius_m for spec in specs])
        return solve_he11(specs)

    monkeypatch.setattr(waveguide, "solve_he11", counted)
    d = np.array([60e-9, 300e-9, 350e-9, 400e-9])
    scan = surface_intensity_scan(852e-9, d)
    assert calls == [d.tolist()]
    assert scan.diameters_m.tolist() == d[1:].tolist()


def test_scan_drops_unguided_and_empty_errors():
    scan = surface_intensity_scan(852e-9, np.array([60e-9, 400e-9]))
    assert scan.diameters_m.tolist() == [400e-9]
    with pytest.raises(EmptyScanError):
        surface_intensity_scan(852e-9, np.array([40e-9, 60e-9]))
