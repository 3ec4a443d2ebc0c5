import math

import numpy as np
import pytest

from fibermem.constants import CS_MASS_KG, K_BOLTZMANN
from fibermem.decoherence import (
    DecoherenceParams,
    MagneticScenario,
    decay_law,
    efficiency_decay,
    half_larmor_period,
    revival_envelope,
)

V_200UK = 0.1118563739094983  # frozen sqrt(kT/m) for Cs at 200 uK
TAU2_REF = 5.354392921254229e-06  # motional tau_2 at 200 uK, 852 nm, 13 deg


def test_thermal_velocity():
    assert DecoherenceParams().velocity_m_s == pytest.approx(V_200UK, rel=1e-12)
    assert DecoherenceParams().velocity_m_s == pytest.approx(0.1119, abs=2e-4)
    assert DecoherenceParams(temperature_K=800e-6).velocity_m_s == pytest.approx(
        2.0 * V_200UK, rel=1e-12)


def test_transit_time():
    tau1 = DecoherenceParams().effective_tau_T_s
    assert tau1 == pytest.approx(3.576014365740439e-06, rel=1e-12)
    assert tau1 == pytest.approx(3.6e-6, rel=0.02)
    assert DecoherenceParams(fiber_radius_m=400e-9).effective_tau_T_s == pytest.approx(
        2.0 * tau1, rel=1e-12)
    # v = 1e9 m/s at T = m v^2 / k
    hot = DecoherenceParams(temperature_K=1e18 * CS_MASS_KG / K_BOLTZMANN)
    assert hot.effective_tau_T_s < 1e-15


def test_motional_dephasing_time():
    tau2 = DecoherenceParams().tau_motional_s
    assert tau2 == pytest.approx(TAU2_REF, rel=1e-12)
    assert tau2 == pytest.approx(5.35e-6, rel=0.02)
    assert DecoherenceParams(control_angle_rad=0.0).tau_motional_s == math.inf
    # half the speed at a quarter of the temperature
    cold = DecoherenceParams(temperature_K=50e-6)
    assert cold.tau_motional_s == pytest.approx(2.0 * tau2, rel=1e-12)


def test_zeeman_dephasing_time():
    assert DecoherenceParams().tau_zeeman_s == pytest.approx(10e-6, rel=1e-12)
    assert DecoherenceParams(zeeman_broadening_Hz=2e5).tau_zeeman_s == pytest.approx(
        5e-6, rel=1e-12)
    assert DecoherenceParams(zeeman_broadening_Hz=0.0).tau_zeeman_s == math.inf


def test_combined_dephasing():
    tau_d = DecoherenceParams().effective_tau_D_s
    assert tau_d == pytest.approx(4.720330326521722e-06, rel=1e-12)
    assert tau_d == pytest.approx(4.72e-6, rel=0.02)
    # tau_3 = 5 us with no motional dephasing
    assert DecoherenceParams(control_angle_rad=0.0, zeeman_broadening_Hz=2e5
                             ).effective_tau_D_s == pytest.approx(5e-6)
    # tau_2 = tau_3 = 1/broadening
    equal = DecoherenceParams(zeeman_broadening_Hz=1.0 / TAU2_REF)
    assert equal.effective_tau_D_s == pytest.approx(TAU2_REF / math.sqrt(2.0))
    assert DecoherenceParams(control_angle_rad=0.0, zeeman_broadening_Hz=0.0
                             ).effective_tau_D_s == math.inf
    assert tau_d <= min(TAU2_REF, 10e-6)


def test_dephasing_rate_underflow_is_infinite_lifetime():
    # tau_3 = 1e197 s squares to a rate of 1e-394 s^-2, which underflows to 0
    params = DecoherenceParams(control_angle_rad=0.0, zeeman_broadening_Hz=1e-197)
    assert params.effective_tau_D_s == math.inf


@pytest.mark.parametrize("kwargs", [
    {"zeeman_broadening_Hz": 1e200},  # tau_3 = 1e-200 s: its rate overflows
    {"wavelength_m": 1e-309},  # the grating wavevector overflows: tau_2 = 0
])
def test_zero_dephasing_time_refused(kwargs):
    with pytest.raises(ValueError, match="tau_D is 0"):
        DecoherenceParams(**kwargs)


def test_larmor_frequency_underflow_refused():
    with pytest.raises(ValueError, match="underflows the Larmor frequency"):
        half_larmor_period(1e-304)


def test_zero_thermal_velocity_refused():
    # k T underflows to 0 at a positive, subnormal-scale temperature
    with pytest.raises(ValueError, match="thermal velocity"):
        DecoherenceParams(temperature_K=1e-317)


def test_efficiency_decay_values():
    assert efficiency_decay(0.0, 5.5e-6, 3.7e-6) == 1.0
    assert efficiency_decay(3.7e-6, 5.5e-6, 3.7e-6) == pytest.approx(0.199, abs=5e-4)
    # tau_T -> inf reduces to a pure Gaussian
    t = np.array([0.0, 2e-6, 5e-6])
    assert efficiency_decay(t, 5.5e-6, math.inf) == pytest.approx(
        np.exp(-((t / 5.5e-6) ** 2)), rel=1e-12
    )


def test_efficiency_decay_refuses_negative_time():
    # decay_law is a bare formula; the public curve checks the data
    with pytest.raises(ValueError, match="t_s must be nonnegative"):
        efficiency_decay(np.array([0.0, -1e-9]), 5.5e-6, 3.7e-6)
    with pytest.raises(ValueError, match="t_s must be nonnegative"):
        efficiency_decay(-1e-6, 5.5e-6, 3.7e-6)


def test_efficiency_decay_monotonicity():
    t = np.linspace(0.0, 20e-6, 500)
    y = efficiency_decay(t, 4.72e-6, 3.58e-6)
    assert np.all(np.diff(y) < 0.0)
    assert np.all((y > 0.0) & (y <= 1.0))
    # pointwise nondecreasing in both time constants
    assert np.all(efficiency_decay(t, 6e-6, 3.58e-6) >= y)
    assert np.all(efficiency_decay(t, 4.72e-6, 5e-6) >= y)


def test_decay_law_matches_ballistic_atoms_without_zeeman_broadening():
    # Atoms at velocities N(0, sigma^2) per transverse axis fly through a
    # Gaussian mode of amplitude exp(-rho^2/w^2), w = 2 r, past a grating
    # of wavevector dk = (4 pi/lambda) sin(a/2) along one axis.  Per axis
    # the mode overlaps its copy moved by v t as exp(-(v t)^2/(2 w^2)), so
    # the readout amplitude is the product over both axes of the
    # Gauss-Hermite velocity averages of that overlap, times cos(dk v t)
    # along the grating, and the efficiency is its square.  About 25 ms.
    z, weights = np.polynomial.hermite.hermgauss(100)
    weights = weights / math.sqrt(math.pi)
    rng = np.random.default_rng(7)
    for _ in range(16):
        p = DecoherenceParams(
            temperature_K=rng.uniform(20e-6, 1e-3),
            fiber_radius_m=rng.uniform(100e-9, 500e-9),
            wavelength_m=rng.uniform(700e-9, 1100e-9),
            control_angle_rad=math.radians(rng.uniform(1.0, 60.0)),
            zeeman_broadening_Hz=0.0,
        )
        sigma, w = p.velocity_m_s, 2.0 * p.fiber_radius_m
        dk = (4.0 * math.pi / p.wavelength_m) * math.sin(0.5 * p.control_angle_rad)
        t = np.linspace(0.0, 2.0, 9) * min(w / sigma, 1.0 / (dk * sigma))
        vt = math.sqrt(2.0) * sigma * np.outer(t, z)
        moved = np.exp(-vt**2 / (2.0 * w * w))
        along, across = (moved * np.cos(dk * vt)) @ weights, moved @ weights
        law = decay_law(t, p.effective_tau_D_s, p.effective_tau_T_s)
        assert law == pytest.approx((along * across) ** 2, rel=1e-12)


def test_half_larmor_period():
    p04 = half_larmor_period(0.4e-4)
    p06 = half_larmor_period(0.6e-4)
    assert p04 == pytest.approx(3.5724e-6, rel=1e-4)
    assert p06 == pytest.approx(2.3816e-6, rel=1e-4)
    assert p04 == pytest.approx(3.57e-6, rel=0.05)
    assert p06 == pytest.approx(2.38e-6, rel=0.05)
    assert half_larmor_period(0.8e-4) == pytest.approx(0.5 * p04, rel=1e-12)


def test_params_derivation():
    p = DecoherenceParams()
    assert p.velocity_m_s == pytest.approx(V_200UK, rel=1e-12)
    assert p.effective_tau_T_s == pytest.approx(3.576014365740439e-06, rel=1e-12)
    assert p.effective_tau_D_s == pytest.approx(4.720330326521722e-06, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        DecoherenceParams(temperature_K=-1.0)
    with pytest.raises(ValueError):
        DecoherenceParams(control_angle_rad=math.pi)


def test_scenario_validation():
    with pytest.raises(ValueError):
        MagneticScenario(m_populations=((0, 0.5), (2, 0.4)))
    with pytest.raises(ValueError):
        MagneticScenario(m_populations=((0, 1.5), (2, -0.5)))
    sc = MagneticScenario()
    assert sum(w for _, w in sc.m_populations) == pytest.approx(1.0)


def test_revival_envelope_field_free_and_single_level():
    p = DecoherenceParams()
    t = np.linspace(0.0, 10e-6, 501)
    dec = efficiency_decay(t, p.effective_tau_D_s, p.effective_tau_T_s)
    flat = revival_envelope(t, MagneticScenario(b_field_T=0.0))
    assert np.array_equal(flat * dec, dec)
    single = MagneticScenario(b_field_T=0.4e-4, m_populations=((4, 1.0),))
    assert revival_envelope(t, single) * dec == pytest.approx(dec, rel=1e-9)


def test_revival_envelope_bounded_by_decay():
    p = DecoherenceParams()
    t = np.linspace(0.0, 12e-6, 2001)
    dec = efficiency_decay(t, p.effective_tau_D_s, p.effective_tau_T_s)
    env = revival_envelope(t, MagneticScenario(b_field_T=0.4e-4)) * dec
    assert np.all(env <= dec + 1e-12)
    assert env[0] == pytest.approx(1.0, abs=1e-9)


def _principal_peaks(t, env, period, n_peaks):
    found = []
    for n in range(1, n_peaks + 1):
        sel = (t > (n - 0.35) * period) & (t < (n + 0.35) * period)
        found.append(float(t[sel][np.argmax(env[sel])]))
    return found


def test_revival_peaks_at_half_larmor_multiples():
    p = DecoherenceParams()
    t = np.linspace(0.0, 12e-6, 48001)
    dec = efficiency_decay(t, p.effective_tau_D_s, p.effective_tau_T_s)
    for b, period in [(0.4e-4, 3.5724e-6), (0.6e-4, 2.3816e-6)]:
        env = revival_envelope(t, MagneticScenario(b_field_T=b)) * dec
        for n, tp in enumerate(_principal_peaks(t, env, period, 2), start=1):
            assert tp == pytest.approx(n * period, rel=0.05)


def test_revival_peak_positions_weight_independent():
    # rephasing comb alone: every half-period multiple is an exact revival
    # for any weights, and for ladders with adjacent occupation it is the
    # argmax of its surroundings
    t = np.linspace(0.0, 12e-6, 48001)
    period = half_larmor_period(0.4e-4)
    weight_sets = [
        tuple((2 * m, 1.0 / 7.0) for m in range(-3, 4)),
        tuple(zip(range(-6, 7, 2), (0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05))),
        tuple(zip(range(-6, 7, 2), (0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2))),
        ((-6, 0.5), (0, 0.25), (6, 0.25)),
    ]
    grid_step = t[1] - t[0]
    positions = []
    for ws in weight_sets:
        sc = MagneticScenario(b_field_T=0.4e-4, m_populations=ws)
        for n in (1, 2, 3):
            assert revival_envelope(n * period, sc) == pytest.approx(1.0, abs=1e-9)
        positions.append(_principal_peaks(t, revival_envelope(t, sc), period, 3))
    # sparse ladders may revive more often; adjacent ones peak only there
    for pos in positions[:3]:
        for n, tp in enumerate(pos, start=1):
            assert abs(tp - n * period) <= 2.1 * grid_step


def test_revival_peak_heights_depend_on_weights():
    p = DecoherenceParams()
    t = np.linspace(0.0, 5e-6, 20001)
    dec = efficiency_decay(t, p.effective_tau_D_s, p.effective_tau_T_s)
    flat = MagneticScenario(b_field_T=0.4e-4)
    lumped = MagneticScenario(b_field_T=0.4e-4, m_populations=((-6, 0.5), (6, 0.5)))
    env_flat = revival_envelope(t, flat) * dec
    env_lump = revival_envelope(t, lumped) * dec
    mid = (t > 1.0e-6) & (t < 2.5e-6)
    assert not np.allclose(env_flat[mid], env_lump[mid], rtol=0.05)
