import math

import numpy as np
import pytest

from fibermem.decoherence import (
    DecoherenceParams,
    MagneticScenario,
    combined_dephasing,
    efficiency_decay,
    half_larmor_period,
    motional_dephasing_time,
    revival_envelope,
    thermal_velocity,
    transit_time,
    zeeman_dephasing_time,
)

V_200UK = 0.1118563739094983  # frozen sqrt(kT/m) for Cs at 200 uK


def test_thermal_velocity():
    assert thermal_velocity(200e-6) == pytest.approx(V_200UK, rel=1e-12)
    assert thermal_velocity(200e-6) == pytest.approx(0.1119, abs=2e-4)
    assert thermal_velocity(0.0) == 0.0
    assert thermal_velocity(800e-6) == pytest.approx(2.0 * V_200UK, rel=1e-12)


def test_transit_time():
    tau1 = transit_time(200e-9, V_200UK)
    assert tau1 == pytest.approx(3.576014365740439e-06, rel=1e-12)
    assert tau1 == pytest.approx(3.6e-6, rel=0.02)
    assert transit_time(400e-9, V_200UK) == pytest.approx(2.0 * tau1, rel=1e-12)
    assert transit_time(200e-9, 1e9) < 1e-15


def test_motional_dephasing_time():
    tau2 = motional_dephasing_time(852e-9, math.radians(13.0), V_200UK)
    assert tau2 == pytest.approx(5.354392921254229e-06, rel=1e-12)
    assert tau2 == pytest.approx(5.35e-6, rel=0.02)
    assert motional_dephasing_time(852e-9, 0.0, V_200UK) == math.inf
    assert motional_dephasing_time(
        852e-9, math.radians(13.0), 0.5 * V_200UK
    ) == pytest.approx(2.0 * tau2, rel=1e-12)


def test_zeeman_dephasing_time():
    assert zeeman_dephasing_time(1e5) == pytest.approx(10e-6, rel=1e-12)
    assert zeeman_dephasing_time(2e5) == pytest.approx(5e-6, rel=1e-12)
    assert zeeman_dephasing_time(0.0) == math.inf


def test_combined_dephasing():
    tau_d = combined_dephasing(5.354392921254229e-06, 10e-6)
    assert tau_d == pytest.approx(4.720330326521722e-06, rel=1e-12)
    assert tau_d == pytest.approx(4.72e-6, rel=0.02)
    assert combined_dephasing(5e-6, math.inf) == pytest.approx(5e-6)
    assert combined_dephasing(3e-6, 3e-6) == pytest.approx(3e-6 / math.sqrt(2.0))
    assert combined_dephasing(math.inf, math.inf) == math.inf
    assert tau_d <= min(5.354392921254229e-06, 10e-6)


def test_efficiency_decay_values():
    assert efficiency_decay(0.0, 5.5e-6, 3.7e-6) == 1.0
    assert efficiency_decay(3.7e-6, 5.5e-6, 3.7e-6) == pytest.approx(0.199, abs=5e-4)
    # tau_T -> inf reduces to a pure Gaussian
    t = np.array([0.0, 2e-6, 5e-6])
    assert efficiency_decay(t, 5.5e-6, math.inf) == pytest.approx(
        np.exp(-((t / 5.5e-6) ** 2)), rel=1e-12
    )


def test_efficiency_decay_monotonicity():
    t = np.linspace(0.0, 20e-6, 500)
    y = efficiency_decay(t, 4.72e-6, 3.58e-6)
    assert np.all(np.diff(y) < 0.0)
    assert np.all((y > 0.0) & (y <= 1.0))
    # pointwise nondecreasing in both time constants
    assert np.all(efficiency_decay(t, 6e-6, 3.58e-6) >= y)
    assert np.all(efficiency_decay(t, 4.72e-6, 5e-6) >= y)


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
    flat = revival_envelope(t, MagneticScenario(b_field_T=0.0), p)
    assert flat == pytest.approx(dec, rel=1e-9)
    single = MagneticScenario(b_field_T=0.4e-4, m_populations=((4, 1.0),))
    assert revival_envelope(t, single, p) == pytest.approx(dec, rel=1e-9)


def test_revival_envelope_bounded_by_decay():
    p = DecoherenceParams()
    t = np.linspace(0.0, 12e-6, 2001)
    env = revival_envelope(t, MagneticScenario(b_field_T=0.4e-4), p)
    dec = efficiency_decay(t, p.effective_tau_D_s, p.effective_tau_T_s)
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
    for b, period in [(0.4e-4, 3.5724e-6), (0.6e-4, 2.3816e-6)]:
        env = revival_envelope(t, MagneticScenario(b_field_T=b), p)
        for n, tp in enumerate(_principal_peaks(t, env, period, 2), start=1):
            assert tp == pytest.approx(n * period, rel=0.05)


def test_revival_peak_positions_weight_independent():
    # rephasing comb alone: every half-period multiple is an exact revival
    # for any weights, and for ladders with adjacent occupation it is the
    # argmax of its surroundings
    p = DecoherenceParams()
    field_free = MagneticScenario(b_field_T=0.0)

    def comb(times, sc):
        # the envelope over the field-free decay leaves the comb alone
        return revival_envelope(times, sc, p) / revival_envelope(times, field_free, p)

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
            assert comb(n * period, sc) == pytest.approx(1.0, abs=1e-9)
        positions.append(_principal_peaks(t, comb(t, sc), period, 3))
    # sparse ladders may revive more often; adjacent ones peak only there
    for pos in positions[:3]:
        for n, tp in enumerate(pos, start=1):
            assert abs(tp - n * period) <= 2.1 * grid_step


def test_revival_peak_heights_depend_on_weights():
    p = DecoherenceParams()
    t = np.linspace(0.0, 5e-6, 20001)
    flat = MagneticScenario(b_field_T=0.4e-4)
    lumped = MagneticScenario(b_field_T=0.4e-4, m_populations=((-6, 0.5), (6, 0.5)))
    env_flat = revival_envelope(t, flat, p)
    env_lump = revival_envelope(t, lumped, p)
    mid = (t > 1.0e-6) & (t < 2.5e-6)
    assert not np.allclose(env_flat[mid], env_lump[mid], rtol=0.05)
