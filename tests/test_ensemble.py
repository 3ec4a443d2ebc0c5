import math

import numpy as np
import pytest

from fibermem.constants import CS_D2_PSAT_ATOM_W
from fibermem.ensemble import (
    CloudSpec,
    DensityDomainError,
    atom_number_from_absorption,
    density_profile,
    effective_atom_number,
    lorentzian_transmission,
    saturation_transmission,
)
R = 200e-9  # fiber radius
UNIFORM = CloudSpec(profile="uniform")
SATURATION = (8.0 / 1.3, 1.3e-9, 1.0)  # alpha0_L, p_sat_W, k_exp
GAMMA = 2.0 * math.pi * 6.8e6


def test_density_far_field_and_surface():
    assert density_profile(UNIFORM, R, 1e-3) == pytest.approx(1e17)
    assert density_profile(UNIFORM, R, R) == 0.0


def test_density_uniform_flat():
    rho = R * np.array([1.001, 2.0, 5.0, 50.0])
    assert np.all(density_profile(UNIFORM, R, rho) == 1e17)


def test_density_inside_fiber_rejected():
    with pytest.raises(DensityDomainError):
        density_profile(UNIFORM, R, 0.5 * R)


@pytest.mark.parametrize("radius", [0.0, -200e-9, math.nan, math.inf])
def test_bad_fiber_radius_refused(radius):
    with pytest.raises(ValueError, match="radius_m must be finite and positive"):
        density_profile(UNIFORM, radius, 1e-3)
    with pytest.raises(ValueError, match="radius_m must be finite and positive"):
        effective_atom_number(UNIFORM, radius, 0.0)


def test_density_tiny_c3_approaches_uniform():
    cloud = CloudSpec(profile="depleted", c3_JK=1e-60)
    rho = R * np.array([1.01, 2.0, 5.0])
    assert density_profile(cloud, R, rho) == pytest.approx(
        np.full(3, 1e17), rel=1e-6
    )


def test_density_depleted_monotone_and_bounded():
    cloud = CloudSpec(profile="depleted")
    rho = np.linspace(R, R * 30, 400)
    n = density_profile(cloud, R, rho)
    assert np.all(np.diff(n) >= 0.0)
    assert np.all(n <= cloud.peak_density_per_m3)
    assert n[0] == 0.0
    assert n[-1] == pytest.approx(cloud.peak_density_per_m3, rel=1e-2)


def test_effective_atom_number_uniform_annulus():
    n = effective_atom_number(UNIFORM, R, 4.0)
    closed = 1e17 * math.pi * ((1 + 4.0) ** 2 - 1.0) * (200e-9) ** 2 * 5e-3
    assert n == pytest.approx(closed, rel=1e-12)
    assert n == pytest.approx(1508.0, abs=1.0)


def test_effective_atom_number_edges_and_linearity():
    assert effective_atom_number(UNIFORM, R, 0.0) == 0.0
    doubled = CloudSpec(profile="uniform", peak_density_per_m3=2e17)
    assert effective_atom_number(doubled, R, 4.0) == pytest.approx(
        2.0 * effective_atom_number(UNIFORM, R, 4.0), rel=1e-12
    )


def test_effective_atom_number_monotone_in_inputs():
    base = effective_atom_number(UNIFORM, R, 4.0)
    assert effective_atom_number(UNIFORM, R, 6.0) > base
    longer = CloudSpec(profile="uniform", overlap_length_m=7e-3)
    assert effective_atom_number(longer, R, 4.0) > base


def test_depleted_below_uniform():
    depl = CloudSpec(profile="depleted")
    assert effective_atom_number(depl, R, 4.0) < effective_atom_number(
        UNIFORM, R, 4.0
    )


def test_cloud_validation():
    with pytest.raises(ValueError):
        CloudSpec(peak_density_per_m3=0.0)
    with pytest.raises(ValueError):
        CloudSpec(overlap_length_m=10e-3)
    with pytest.raises(ValueError):
        CloudSpec(temperature_K=-1.0)
    with pytest.raises(ValueError):
        CloudSpec(c3_JK=0.0)
    with pytest.raises(ValueError):
        CloudSpec(profile="boxcar")


def test_atom_number_from_absorption():
    assert atom_number_from_absorption(8e-9, 3.8e-12) == pytest.approx(2105.26, abs=0.01)
    assert 1500.0 < atom_number_from_absorption(8e-9, 3.8e-12) < 2500.0
    assert atom_number_from_absorption(3.8e-12, 3.8e-12) == 1.0
    assert atom_number_from_absorption(0.0, 3.8e-12) == 0.0
    # default single-atom power is the saturated scattering limit
    assert atom_number_from_absorption(CS_D2_PSAT_ATOM_W) == 1.0
    assert CS_D2_PSAT_ATOM_W == pytest.approx(3.8e-12, rel=0.01)


def test_saturation_transmission_values():
    assert saturation_transmission(0.0, *SATURATION) == pytest.approx(
        math.exp(-8.0 / 1.3), rel=1e-12
    )
    assert saturation_transmission(1e-3, *SATURATION) == pytest.approx(1.0, abs=1e-5)
    assert saturation_transmission(1.3e-9, *SATURATION) == pytest.approx(
        math.exp(-8.0 / 1.3 / 2.0), rel=1e-12
    )


def test_saturation_transmission_increasing_and_bounded():
    p = np.logspace(-12, -6, 60)
    t = saturation_transmission(p, *SATURATION)
    assert np.all(np.diff(t) > 0.0)
    assert np.all((t > 0.0) & (t <= 1.0))


def test_saturation_transmission_refuses_negative_power():
    # saturation_law is a bare formula; the public curve checks the data
    with pytest.raises(ValueError, match="p_W must be nonnegative"):
        saturation_transmission(np.array([1e-9, -1e-15]), *SATURATION)
    with pytest.raises(ValueError, match="p_W must be nonnegative"):
        saturation_transmission(-1e-9, *SATURATION)


def test_lorentzian_transmission_values():
    assert lorentzian_transmission(0.0, 3.0, GAMMA) == pytest.approx(math.exp(-3.0), rel=1e-12)
    half = 0.5 * GAMMA
    assert lorentzian_transmission(half, 3.0, GAMMA) == pytest.approx(
        math.exp(-1.5), rel=1e-12
    )
    assert lorentzian_transmission(1e12, 3.0, GAMMA) == pytest.approx(1.0, abs=1e-4)


def test_lorentzian_transmission_even_minimum_on_resonance():
    d = np.linspace(-1e8, 1e8, 201)
    t = lorentzian_transmission(d, 3.0, GAMMA)
    assert np.array_equal(t, t[::-1])
    assert np.argmin(t) == 100
    assert np.all((t > 0.0) & (t <= 1.0))


def test_absorption_model_validation():
    with pytest.raises(ValueError, match="^od must be positive$"):
        lorentzian_transmission(0.0, 0.0, GAMMA)
    with pytest.raises(ValueError, match="^p_sat_W must be positive$"):
        saturation_transmission(0.0, 8.0 / 1.3, -1e-9, 1.0)
    with pytest.raises(ValueError, match="^k_exp must be positive$"):
        saturation_transmission(0.0, 8.0 / 1.3, 1.3e-9, 0.0)
