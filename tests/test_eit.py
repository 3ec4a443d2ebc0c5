import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibermem import eit
from fibermem.config import DEFAULTS, apply_overrides
from fibermem.constants import C_LIGHT
from fibermem.ensemble import lorentzian_transmission
from fibermem.scenarios import _storage_control, _storage_inputs

# frozen outputs of calibrate_control(); regression-pinned
CAL = 0.08182080327802375
GAMMA_GS = 4399155.798813501
RABI_HIGH = 59533025.99475605

# frozen storage oracles: config overrides, od, then (retrieval, leak,
# transmission, readout start); the first row is fig3b's reference point
STORAGE_ORACLES = {
    "defaults": (
        {}, 10.0,
        (0.098955644839124501, 0.19391289557967387, 0.29286854041879834, 350e-9),
    ),
    "gaussian-detuned-fine": (
        {"storage.n_z": 400, "storage.dt_ns": 0.25, "probe.shape": "gaussian",
         "probe.detuning_MHz": 3, "storage.dark_ns": 100}, 5.0,
        (0.027080245049980908, 0.17406329043249519, 0.20114353548247607, 420e-9),
    ),
    "square-od1": (
        {"storage.n_z": 50, "probe.shape": "square", "probe.detuning_MHz": -2,
         "storage.dark_ns": 200}, 1.0,
        (0.0011847408269963331, 0.70636517338025673, 0.70754991420725288,
         520.5e-9),
    ),
}


def storage_setup(od, **overrides):
    """Storage inputs as the scenarios build them from DEFAULTS."""
    cfg = dict(DEFAULTS)
    apply_overrides(cfg, ["%s=%s" % kv for kv in overrides.items()])
    probe, grid, sch = _storage_inputs(cfg)
    return probe, _storage_control(cfg, cfg["storage.dark_ns"]), od, sch, grid


def default_scheme():
    return eit.LambdaScheme()


def fig3b_setup(od=10.0, n_ph=0.6, t_stop=1.4e-6, dt=0.5e-9, nz=80):
    probe = eit.ProbePulse(mean_photon_number=n_ph, fwhm_s=60e-9,
                           shape="exponential-rising", peak_time_s=300e-9)
    ctrl = eit.ControlField(eit.rabi_from_power(2.0e-3), off_s=315e-9,
                            on_s=345e-9, ramp_s=10e-9)
    grid = eit.PropagationGrid(t_stop, dt, nz)
    return probe, ctrl, od, default_scheme(), grid


@functools.cache
def gauss_legendre_nodes():
    """Nodes and weights of a 200-node Gauss-Legendre rule on [0, 1];
    leggauss takes tens of ms, so it runs once."""
    x, w = np.polynomial.legendre.leggauss(200)
    return 0.5 * (x + 1.0), 0.5 * w


def readout_kernel(od):
    """gauss_legendre_nodes' z and w, and the forward readout kernel at
    them (Gorshkov, Andre, Lukin & Sorensen, PRA 76, 033805 (2007)):
    k(z, z') = (d/2) exp(-d (2 - z - z')/2) I0(d sqrt((1 - z)(1 - z'))),
    d = od/2.
    """
    d = 0.5 * od
    z, w = gauss_legendre_nodes()
    u = 1.0 - z
    return z, w, 0.5 * d * np.exp(-0.5 * d * (u[:, None] + u)) * np.i0(
        d * np.sqrt(np.outer(u, u)))


def optimal_retrieval_bound(od):
    """Largest storage-and-retrieval efficiency at optical depth od: the
    square of the top eigenvalue of readout_kernel(od), by Nystrom."""
    _, w, kernel = readout_kernel(od)
    root_w = np.sqrt(w)
    return np.linalg.eigvalsh(root_w[:, None] * kernel * root_w)[-1] ** 2


class TestCalibration:
    def test_literals_match_solver(self):
        assert eit.calibrate_control() == (
            eit.RABI_CALIBRATION, eit.GAMMA_GS_CALIBRATED_RAD_PER_S) == (CAL, GAMMA_GS)

    @pytest.mark.parametrize("anchors", [
        {"transparency": 0.01},  # below the bare opacity e^-od: no window
        {"delay_s": 1e-12},  # would need gamma_gs above Gamma/2
    ])
    def test_refuses_anchors_without_solution(self, anchors):
        with pytest.raises(ValueError, match="anchors admit no gamma_gs"):
            eit.calibrate_control(**anchors)

    # each used to end in a ZeroDivisionError or a math domain error
    @pytest.mark.parametrize("anchors, message", [
        ({"transparency": 1.0}, "transparency must be in"),
        ({"transparency": 0.0}, "transparency must be in"),
        ({"od": 0.0}, "od must be finite and > 0"),
        ({"power_high_W": 0.0}, "power_high_W must be finite and > 0"),
    ])
    def test_refuses_bad_anchor_by_name(self, anchors, message):
        with pytest.raises(ValueError, match=message):
            eit.calibrate_control(**anchors)

    def test_solution_meets_both_anchors(self):
        # near the default anchors, where gamma_gs stays below Gamma/5 and
        # LambdaScheme does not warn
        rng = np.random.default_rng(7)
        for _ in range(20):
            anchors = {
                "gamma_rad_per_s": eit.GAMMA_EFF_RAD_PER_S * rng.uniform(0.9, 1.1),
                "od": rng.uniform(2.5, 4.0),
                "transparency": rng.uniform(0.7, 0.8),
                "power_high_W": rng.uniform(1.4e-3, 1.8e-3),
                "power_low_W": rng.uniform(0.4e-3, 0.6e-3),
                "delay_s": rng.uniform(50e-9, 70e-9),
                "waist_m": rng.uniform(300e-6, 500e-6),
            }
            cal, gs = eit.calibrate_control(**anchors)
            sch = eit.LambdaScheme(anchors["gamma_rad_per_s"], gs)

            def rabi(power_W):
                return eit.rabi_from_power(power_W, anchors["waist_m"], cal,
                                           anchors["gamma_rad_per_s"])

            delay = eit.group_delay(anchors["od"], sch, rabi(anchors["power_low_W"]))
            assert delay.delay_s == pytest.approx(anchors["delay_s"], rel=1e-12)
            window = eit.eit_spectrum(anchors["od"], sch,
                                      rabi(anchors["power_high_W"]), 0.0)
            assert window == pytest.approx(anchors["transparency"], rel=1e-12)

    def test_transparency_anchor(self):
        sch = default_scheme()
        om = eit.rabi_from_power(1.6e-3)
        assert eit.eit_spectrum(3.0, sch, om, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_delay_anchor(self):
        sch = default_scheme()
        om = eit.rabi_from_power(0.5e-3)
        gd = eit.group_delay(3.0, sch, om)
        assert gd.delay_s == pytest.approx(60e-9, rel=1e-10)

    def test_slowdown_factor(self):
        sch = default_scheme()
        gd = eit.group_delay(3.0, sch, eit.rabi_from_power(0.5e-3), length_m=5e-3)
        assert gd.slowdown == pytest.approx(C_LIGHT * 60e-9 / 5e-3, rel=1e-9)
        # three-plus orders of magnitude below vacuum speed
        assert 3000.0 <= gd.slowdown <= 3000.0 * 1.25

    def test_rabi_from_power_frozen(self):
        assert eit.rabi_from_power(1.6e-3) == pytest.approx(RABI_HIGH, rel=1e-9)

    def test_rabi_scales_with_sqrt_power(self):
        r1 = eit.rabi_from_power(0.4e-3)
        r2 = eit.rabi_from_power(1.6e-3)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_rabi_rejects_bad_args(self):
        # each message names the bad argument and only that one
        with pytest.raises(ValueError, match=r"^power_W must be .*, got -0\.001$"):
            eit.rabi_from_power(-1e-3)
        with pytest.raises(ValueError, match=r"^waist_m must be .*, got 0\.0$"):
            eit.rabi_from_power(1e-3, waist_m=0.0)


class TestSusceptibility:
    def test_matches_lorentzian_without_control(self):
        sch = default_scheme()
        delta = np.linspace(-3e8, 3e8, 2001)
        t_eit = eit.eit_spectrum(3.0, sch, 0.0, delta)
        t_lor = lorentzian_transmission(delta, 3.0, 2 * math.pi * 6.8e6)
        assert np.max(np.abs(t_eit - t_lor)) < 1e-12

    def test_perfect_dark_state(self):
        sch = eit.LambdaScheme(gamma_gs_rad_per_s=0.0)
        for om in (1e6, 3e7, 1e8):
            assert abs(eit.eit_spectrum(5.0, sch, om, 0.0) - 1.0) < 1e-9

    def test_imaginary_part_nonnegative(self):
        sch = default_scheme()
        delta = np.linspace(-1e9, 1e9, 4001)
        for om in (0.0, 1e7, 6e7):
            chi = eit.susceptibility(delta, sch, om)
            assert np.min(np.imag(chi)) >= 0.0

    def test_resonant_opacity_normalization(self):
        sch = default_scheme()
        assert eit.susceptibility(0.0, sch, 0.0).imag == pytest.approx(1.0, abs=1e-15)

    def test_scalar_and_array_agree(self):
        sch = default_scheme()
        delta = np.array([0.0, 1e7, -2e7])
        arr = eit.susceptibility(delta, sch, 3e7)
        for d, a in zip(delta, arr):
            assert eit.susceptibility(float(d), sch, 3e7) == pytest.approx(
                complex(a), rel=1e-14)

    def test_window_depth_grows_with_control(self):
        sch = default_scheme()
        t_weak = eit.eit_spectrum(3.0, sch, 1e7, 0.0)
        t_strong = eit.eit_spectrum(3.0, sch, 6e7, 0.0)
        assert t_strong > t_weak

    def test_rejects_negative_rabi_and_od(self):
        sch = default_scheme()
        with pytest.raises(ValueError):
            eit.susceptibility(0.0, sch, -1.0)
        with pytest.raises(ValueError):
            eit.eit_spectrum(0.0, sch, 1e7, 0.0)


class TestGroupDelay:
    def test_rejects_nonpositive_od_length_and_rabi(self):
        sch = default_scheme()
        om = eit.rabi_from_power(1e-3)
        for od, length_m in ((0.0, 5e-3), (3.0, 0.0)):
            with pytest.raises(ValueError, match="od and length_m must be positive"):
                eit.group_delay(od, sch, om, length_m)
        with pytest.raises(ValueError, match="omega_c_rad_per_s must be positive"):
            eit.group_delay(3.0, sch, np.array([om, 0.0]))

    def test_window_closed_warns(self):
        sch = default_scheme()
        with pytest.warns(UserWarning):
            gd = eit.group_delay(3.0, sch, 1.9 * sch.gamma_gs_rad_per_s)
        assert not gd.window_open
        assert gd.delay_s < 0.0

    def test_batch_equals_scalar_calls(self):
        # seeded powers from 1 nW to 3 mW; below about 35 uW the window is closed
        sch = default_scheme()
        powers = 10.0 ** np.random.default_rng(11).uniform(-9.0, -2.5, 400)
        rabi = eit.rabi_from_power(powers)
        assert np.array_equal(rabi, [eit.rabi_from_power(p) for p in powers.tolist()])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = eit.group_delay(3.0, sch, rabi, length_m=4e-3)
        assert len(caught) == 1
        assert 0 < np.count_nonzero(batch.window_open) < powers.size
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            singles = [eit.group_delay(3.0, sch, om, length_m=4e-3) for om in rabi.tolist()]
        for name in ("delay_s", "slowdown", "transparency", "window_open"):
            assert np.array_equal(getattr(batch, name), [getattr(g, name) for g in singles])
        # and each equals the Python-float formula: squares by products
        half_g, gam = 0.5 * sch.gamma_ge_rad_per_s, sch.gamma_gs_rad_per_s
        for om, g in zip(rabi.tolist(), singles):
            d0 = half_g * gam + 0.25 * om * om
            dchi = half_g * (0.25 * om * om - gam * gam) / (d0 * d0)
            assert g.delay_s == 0.5 * 3.0 * dchi
            assert g.transparency == np.exp(-3.0 * half_g * gam / d0)

    def test_scalar_input_returns_python_scalars(self):
        om = eit.rabi_from_power(1e-3)
        gd = eit.group_delay(3.0, default_scheme(), om)
        assert type(om) is float
        assert [type(v) for v in (gd.delay_s, gd.slowdown, gd.transparency)] == [float] * 3
        assert type(gd.window_open) is bool

    def test_delay_falls_with_power(self):
        sch = default_scheme()
        d1 = eit.group_delay(3.0, sch, eit.rabi_from_power(0.5e-3)).delay_s
        d2 = eit.group_delay(3.0, sch, eit.rabi_from_power(1.6e-3)).delay_s
        assert d1 > d2 > 0.0

    def test_scheme_warns_on_large_ground_decoherence(self):
        with pytest.warns(UserWarning) as caught:
            eit.LambdaScheme(gamma_gs_rad_per_s=1e7)
        # reported at the caller, not inside the dataclass-generated __init__
        assert caught[0].filename == __file__

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            eit.LambdaScheme(gamma_ge_rad_per_s=0.0)
        with pytest.raises(ValueError):
            eit.LambdaScheme(gamma_gs_rad_per_s=-1.0)


class TestPulseShapes:
    def test_exponential_rising_intensity_fwhm(self):
        p = eit.ProbePulse(fwhm_s=60e-9, shape="exponential-rising",
                           peak_time_s=300e-9)
        t = np.linspace(0.0, 400e-9, 40001)
        inten = p.field_envelope(t) ** 2
        half = inten >= 0.5 * inten.max()
        width = t[half][-1] - t[half][0]
        assert width == pytest.approx(60e-9, rel=0.15)

    def test_gaussian_intensity_fwhm(self):
        p = eit.ProbePulse(fwhm_s=60e-9, shape="gaussian", peak_time_s=300e-9)
        t = np.linspace(0.0, 600e-9, 60001)
        inten = p.field_envelope(t) ** 2
        half = inten >= 0.5 * inten.max()
        width = t[half][-1] - t[half][0]
        assert width == pytest.approx(60e-9, rel=1e-3)

    def test_square_flat_top(self):
        p = eit.ProbePulse(fwhm_s=100e-9, shape="square", peak_time_s=300e-9)
        t = np.linspace(240e-9, 360e-9, 1201)
        inten = p.field_envelope(t) ** 2
        flat = (t >= 255e-9) & (t <= 345e-9)
        assert np.all(inten[flat] == 1.0)
        assert inten[0] == 0.0 and inten[-1] == 0.0

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            eit.ProbePulse(mean_photon_number=0.0)
        with pytest.raises(ValueError):
            eit.ProbePulse(fwhm_s=-1.0)
        with pytest.raises(ValueError):
            eit.ProbePulse(shape="triangle")

    @pytest.mark.parametrize("bad", [
        # a power and a waist reach a control only through rabi_from_power
        {"power_W": -1e-3},
        {"power_W": math.nan},
        {"power_W": math.inf},
        {"waist_m": 0.0},
        {"waist_m": math.nan},
        {"waist_m": math.inf},
        {"rabi_rad_per_s": -1.0},
        {"rabi_rad_per_s": math.nan},
        {"rabi_rad_per_s": math.inf},
        # a switching schedule is whole, in order and ramps in a positive time
        {"rabi_rad_per_s": 1e7, "off_s": 400e-9, "on_s": 300e-9, "ramp_s": 20e-9},
        {"rabi_rad_per_s": 1e7, "off_s": 300e-9, "on_s": 400e-9, "ramp_s": 0.0},
        {"rabi_rad_per_s": 1e7, "off_s": 300e-9, "on_s": 400e-9, "ramp_s": -1e-9},
        {"rabi_rad_per_s": 1e7, "off_s": 300e-9, "on_s": 400e-9},
        {"rabi_rad_per_s": 1e7, "off_s": 300e-9},
        {"rabi_rad_per_s": 1e7, "ramp_s": 20e-9},
    ])
    def test_control_validation(self, bad):
        with pytest.raises(ValueError):
            if "rabi_rad_per_s" in bad:
                eit.ControlField(**bad)
            else:
                eit.rabi_from_power(**{"power_W": 1e-3, **bad})

    def test_storage_envelope_shape(self):
        env = eit.ControlField(1e7, off_s=300e-9, on_s=400e-9, ramp_s=20e-9).envelope
        assert env(0.0) == 1.0
        assert env(279e-9) == 1.0
        assert 0.0 < env(290e-9) < 1.0
        assert env(350e-9) == 0.0
        assert 0.0 < env(410e-9) < 1.0
        assert env(430e-9) == 1.0
        # one array call equals the scalar calls, sample by sample
        t = np.linspace(0.0, 500e-9, 1001)
        assert np.array_equal(env(t), [env(x) for x in t])
        # a constant drive is full everywhere
        assert np.array_equal(eit.ControlField(1e7).envelope(t), np.ones_like(t))


def test_driven_chi_rows_equal_scalar_calls():
    # rows of (k, 1) parameter columns, as a fit passes them, give the
    # scalar call's chi bit for bit, also at a Rabi frequency whose square
    # rounds differently as pow(w, 2) (Python's w ** 2) and as w * w
    # (NumPy's ** 2 on an array)
    w = next(w for w in np.geomspace(3e9, 1e10, 10**5).tolist() if w ** 2 != w * w)
    omegas = [1e7, 3.3e7, w]
    sch = default_scheme()
    delta = np.linspace(-2 * math.pi * 30e6, 2 * math.pi * 30e6, 101)
    block = eit.driven_chi(delta, np.full((3, 1), sch.gamma_ge_rad_per_s),
                           np.full((3, 1), sch.gamma_gs_rad_per_s),
                           np.array(omegas)[:, None])
    for row, omega in zip(block, omegas):
        assert np.array_equal(row, eit.susceptibility(delta, sch, omega))


class TestPropagation:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            eit.PropagationGrid(-1.0, 1e-9, 100)
        with pytest.raises(ValueError):
            eit.PropagationGrid(1e-6, 0.0, 100)

    def test_step_size_guards(self):
        probe, ctrl, od, sch, _ = fig3b_setup()
        with pytest.raises(eit.GridError):
            eit.propagate_pulse(probe, ctrl, od, sch,
                                eit.PropagationGrid(1.4e-6, 10e-9, 80))
        with pytest.raises(eit.GridError):
            eit.propagate_pulse(probe, ctrl, od, sch,
                                eit.PropagationGrid(1.4e-6, 0.5e-9, 30))
        # the collective rate od Gamma/4 bounds the step too
        for big_od in (3000.0, 1e300):
            with pytest.raises(eit.GridError):
                eit.propagate_pulse(probe, ctrl, big_od, sch,
                                    eit.PropagationGrid(1.4e-6, 0.5e-9, 80))

    def test_probe_too_faint_to_normalize_refused(self):
        # only the Gaussian's far tail lies on the grid: its energy there,
        # about 1e-311, cannot scale to 0.6 photons in floating point
        probe = eit.ProbePulse(0.6, 60e-9, "gaussian", 0.0, -950e-9)
        ctrl = eit.ControlField(eit.rabi_from_power(2e-3), 315e-9, 345e-9, 10e-9)
        grid = eit.PropagationGrid(1.4e-6, 0.5e-9, 50)
        with pytest.raises(ValueError, match="too small to normalize"):
            eit.propagate_pulse(probe, ctrl, 10.0, default_scheme(), grid)

    def test_probe_off_the_grid_refused(self):
        # a square pulse that ends before the grid starts has no sample on it
        probe = eit.ProbePulse(0.6, 60e-9, "square", 0.0, -5e-6)
        ctrl = eit.ControlField(eit.rabi_from_power(2e-3), 315e-9, 345e-9, 10e-9)
        grid = eit.PropagationGrid(1.4e-6, 0.5e-9, 50)
        with pytest.raises(ValueError, match="probe pulse has no support on the grid"):
            eit.propagate_pulse(probe, ctrl, 10.0, default_scheme(), grid)

    def test_probe_with_too_few_photons_refused(self):
        # 5e-324 photons: the input's photon number on the grid underflows
        # to 0, and every energy fraction would be 0/0
        probe, ctrl, od, sch, grid = fig3b_setup(n_ph=5e-324)
        with pytest.raises(ValueError, match="mean_photon_number must put at least"):
            eit.propagate_pulse(probe, ctrl, od, sch, grid)

    def test_square_probe_output_zero_until_input_starts(self):
        # stepping starts one step before the first nonzero input sample
        probe, ctrl, od, sch, grid = storage_setup(10.0, **{"probe.shape": "square"})
        r = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        first = np.flatnonzero(r.input_intensity)[0]
        assert first > 100
        assert np.all(r.output_intensity[:first] == 0.0)
        assert r.output_intensity[first] > 0.0
        # a control gone dark before the probe arrives stores nothing
        probe, ctrl, od, sch, grid = storage_setup(
            10.0, **{"probe.shape": "square", "probe.peak_ns": 600,
                     "storage.switch_off_ns": 200})
        r = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        assert r.readout_start_s is not None
        assert r.retrieval_efficiency > 0.0

    def test_empty_medium_returns_input(self):
        probe, ctrl, _, sch, grid = fig3b_setup()
        r = eit.propagate_pulse(probe, ctrl, 0.0, sch, grid)
        assert np.max(np.abs(r.output_intensity - r.input_intensity)) < 1e-12
        assert r.transmission == pytest.approx(1.0, abs=1e-12)

    def test_input_flux_normalization(self):
        probe, ctrl, od, sch, grid = fig3b_setup(n_ph=0.6)
        r = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        photons = np.trapezoid(r.input_intensity, r.t_grid_s)
        assert photons == pytest.approx(0.6, rel=1e-12)

    @pytest.mark.parametrize("case", list(STORAGE_ORACLES))
    def test_fig3b_storage_oracles(self, case):
        overrides, od, (eta, leak, trans, start) = STORAGE_ORACLES[case]
        r = eit.propagate_pulse(*storage_setup(od, **overrides))
        assert r.retrieval_efficiency == pytest.approx(eta, rel=1e-12)
        assert r.leak_fraction == pytest.approx(leak, rel=1e-12)
        assert r.transmission == pytest.approx(trans, rel=1e-12)
        assert r.readout_start_s == pytest.approx(start, abs=1e-9)

    def test_passivity_and_bounds(self):
        probe, ctrl, od, sch, grid = fig3b_setup()
        r = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        for val in (r.transmission, r.leak_fraction, r.retrieval_efficiency):
            assert 0.0 <= val <= 1.0 + 1e-9
        assert r.leak_fraction + r.retrieval_efficiency <= r.transmission + 1e-9

    def test_linearity_in_probe_amplitude(self):
        probe, ctrl, od, sch, grid = fig3b_setup(n_ph=0.6)
        probe2, _, _, _, _ = fig3b_setup(n_ph=1.2)
        r1 = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        r2 = eit.propagate_pulse(probe2, ctrl, od, sch, grid)
        assert r2.retrieval_efficiency == pytest.approx(
            r1.retrieval_efficiency, rel=1e-12)
        assert np.max(r2.output_intensity) == pytest.approx(
            2.0 * np.max(r1.output_intensity), rel=1e-12)

    def test_fingerprint_tracks_inputs(self):
        probe, ctrl, od, sch, grid = fig3b_setup(t_stop=0.9e-6, dt=1e-9, nz=50)
        r1 = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        r2 = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        r3 = eit.propagate_pulse(probe, ctrl, od + 1.0, sch, grid)
        assert r1.fingerprint == r2.fingerprint
        assert r1.fingerprint != r3.fingerprint

    def test_spinwave_snapshot_nontrivial(self):
        # a grid that ends at the control's switch-off, after the probe has
        # entered, returns the stored spin wave
        probe, ctrl, od, sch, grid = fig3b_setup(t_stop=315e-9)
        r = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        kappa = 0.25 * od * sch.gamma_ge_rad_per_s
        stored = kappa * np.trapezoid(np.abs(r.spinwave) ** 2, r.z_grid)
        assert 0.05 < stored / 0.6 < 0.9

    def test_no_control_matches_beer_lambert(self):
        sch = default_scheme()
        probe = eit.ProbePulse(mean_photon_number=1.0, fwhm_s=1e-6,
                               shape="gaussian", peak_time_s=3e-6)
        ctrl = eit.ControlField(0.0)
        grid = eit.PropagationGrid(6e-6, 4e-9, 60)
        r = eit.propagate_pulse(probe, ctrl, 3.0, sch, grid)
        assert r.transmission == pytest.approx(math.exp(-3.0), rel=0.02)

    def test_centroid_delay_matches_analytic(self):
        sch = default_scheme()
        probe = eit.ProbePulse(mean_photon_number=1.0, fwhm_s=1e-6,
                               shape="gaussian", peak_time_s=2.5e-6)
        ctrl = eit.ControlField(eit.rabi_from_power(0.5e-3))
        grid = eit.PropagationGrid(6e-6, 4e-9, 60)
        r = eit.propagate_pulse(probe, ctrl, 3.0, sch, grid)
        gd = eit.group_delay(3.0, sch, ctrl.rabi_rad_per_s)
        assert r.group_delay_s == pytest.approx(gd.delay_s, rel=0.05)

    def test_detuned_pulse_attenuates_more(self):
        sch = default_scheme()
        ctrl = eit.ControlField(eit.rabi_from_power(0.5e-3))
        grid = eit.PropagationGrid(6e-6, 4e-9, 60)
        on = eit.ProbePulse(mean_photon_number=1.0, fwhm_s=1e-6,
                            shape="gaussian", peak_time_s=2.5e-6)
        off = eit.ProbePulse(mean_photon_number=1.0, fwhm_s=1e-6,
                             shape="gaussian", peak_time_s=2.5e-6,
                             detuning_rad_per_s=8e6)
        r_on = eit.propagate_pulse(on, ctrl, 3.0, sch, grid)
        r_off = eit.propagate_pulse(off, ctrl, 3.0, sch, grid)
        assert r_off.transmission < r_on.transmission

    def test_efficiency_monotone_in_od(self):
        probe, ctrl, _, sch, grid = fig3b_setup()
        etas = [r.retrieval_efficiency for r in
                eit.propagate_pulse(probe, ctrl, (1.0, 4.0, 10.0), sch, grid)]
        assert etas[0] < etas[1] < etas[2]

    def test_retrieval_below_optimal_bound(self):
        # Gorshkov et al., PRA 76, 033805 (2007): no storage and retrieval
        # at optical depth od returns more than optimal_retrieval_bound(od).
        # 16 rows in two batches on 800-ns grids, about 0.2 s
        ods, powers_mW = (1.0, 5.0, 10.0, 20.0), (0.5, 1.0, 2.0, 4.0)
        rows = [(od, storage_setup(od, **{"storage.t_stop_ns": 800,
                                          "control.power_mW": p}))
                for od in ods for p in powers_mW]
        probe, _, _, sch, grid = rows[0][1]
        results = eit.propagate_pulse(probe, [setup[1] for _, setup in rows],
                                      [od for od, _ in rows], sch, grid)
        bounds = {od: optimal_retrieval_bound(od) for od in ods}
        # the Nystrom sums move by < 1e-13 from 200 to 400 nodes
        assert [bounds[od] for od in ods] == pytest.approx(
            [0.03974, 0.29668, 0.48554, 0.66295], abs=1e-5)
        for (od, _), r in zip(rows, results):
            assert 0.0 < r.retrieval_efficiency <= bounds[od]

    def test_retrieval_matches_spinwave_readout_kernel(self):
        # with gamma_gs = 0, forward retrieval of a stored spin wave S is
        # kappa / N_in * int int S*(z) k(z, z') S(z') dz dz', k the kernel of
        # readout_kernel and kappa = od Gamma/4.  The oracle's domain:
        # gamma_gs = 0, so the spin wave is frozen in the dark, and the
        # default exponential-rising probe, which has ended at 312 ns, before
        # the 315-ns switch-off.  A grid that ends at the switch-off plus the
        # 100-ns dark time gives S; a shorter dark time leaves more P to the
        # retrieval (3.0e-3 apart at 30 ns, od 10, 0.5 mW).  About 0.2 s
        points = [(3.0, 2.0), (10.0, 0.5), (10.0, 2.0), (30.0, 3.0)]

        def rows(t_stop_ns):
            setups = [storage_setup(od, **{
                "scheme.gamma_gs_rad_per_s": 0, "storage.dark_ns": 100,
                "control.power_mW": p, "storage.t_stop_ns": t_stop_ns})
                for od, p in points]
            probe, _, _, sch, grid = setups[0]
            return eit.propagate_pulse(probe, [setup[1] for setup in setups],
                                       [od for od, _ in points], sch, grid)

        probe, _, _, sch, _ = storage_setup(1.0)
        for (od, _), stored, run in zip(points, rows(415), rows(1400)):
            z, w, kernel = readout_kernel(od)
            s = w * (np.interp(z, stored.z_grid, stored.spinwave.real)
                     + 1j * np.interp(z, stored.z_grid, stored.spinwave.imag))
            kappa = 0.25 * od * sch.gamma_ge_rad_per_s
            predicted = kappa / probe.mean_photon_number * np.vdot(s, kernel @ s).real
            simulated = run.retrieval_efficiency
            assert abs(simulated - predicted) < 1e-3 * simulated

    def test_late_switch_off_stores_nothing(self):
        sch = default_scheme()
        probe = eit.ProbePulse(mean_photon_number=0.6, fwhm_s=60e-9,
                               shape="exponential-rising", peak_time_s=300e-9)
        ctrl = eit.ControlField(eit.rabi_from_power(2.0e-3), off_s=700e-9,
                                on_s=730e-9, ramp_s=10e-9)
        grid = eit.PropagationGrid(1.4e-6, 0.5e-9, 80)
        r = eit.propagate_pulse(probe, ctrl, 10.0, sch, grid)
        assert r.retrieval_efficiency < 1e-3

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        od=st.floats(0.5, 60.0),
        power_mW=st.floats(0.5, 3.5),
        dark_ns=st.floats(10.0, 150.0),
        detuning_MHz=st.floats(-3.0, 3.0),
    )
    def test_passivity_and_linearity_properties(self, od, power_mW, dark_ns,
                                                detuning_MHz):
        probe, ctrl, od, sch, grid = storage_setup(
            od, **{"storage.t_stop_ns": 700, "storage.n_z": 50,
                   "control.power_mW": power_mW, "storage.dark_ns": dark_ns,
                   "probe.detuning_MHz": detuning_MHz})
        r = eit.propagate_pulse(probe, ctrl, od, sch, grid)
        for val in (r.transmission, r.leak_fraction, r.retrieval_efficiency):
            assert 0.0 <= val <= 1.0 + 1e-9
        assert r.leak_fraction + r.retrieval_efficiency <= r.transmission + 1e-9
        double = dataclasses.replace(
            probe, mean_photon_number=2.0 * probe.mean_photon_number)
        r2 = eit.propagate_pulse(double, ctrl, od, sch, grid)
        assert r2.retrieval_efficiency == pytest.approx(
            r.retrieval_efficiency, rel=1e-12)

    def test_refinement_delta_small(self):
        probe, ctrl, od, sch, grid = fig3b_setup(t_stop=0.9e-6, dt=1e-9, nz=50)
        assert eit.refinement_delta(probe, ctrl, od, sch, grid) < 0.01


def transfer_function_error(od, dt, nz, detuning_rad_per_s=0.0):
    """Largest |output intensity - transfer-function oracle|, over the peak.

    Under a constant control the medium is linear and time-invariant in
    the co-moving frame, so the output field is the inverse FFT of
    E_in(omega) exp(i od chi/2), chi taken at -omega for NumPy's FFT sign;
    the input is zero-padded 4x so that nothing wraps around.  E_in is
    the unit-energy Gaussian envelope times the carrier e^{-i delta t}.
    """
    sch = default_scheme()
    probe = eit.ProbePulse(mean_photon_number=1.0, fwhm_s=100e-9, shape="gaussian",
                           detuning_rad_per_s=detuning_rad_per_s, peak_time_s=600e-9)
    ctrl = eit.ControlField(eit.rabi_from_power(2.0e-3))
    r = eit.propagate_pulse(probe, ctrl, od, sch, eit.PropagationGrid(2e-6, dt, nz))
    t = r.t_grid_s
    n = t.size
    envelope = probe.field_envelope(t)
    e_in = (envelope / math.sqrt(np.trapezoid(envelope * envelope, t))
            * np.exp(-1j * detuning_rad_per_s * t))
    omega = 2.0 * math.pi * np.fft.fftfreq(4 * n, dt)
    chi = eit.susceptibility(-omega, sch, ctrl.rabi_rad_per_s)
    e_out = np.fft.ifft(np.fft.fft(e_in, 4 * n) * np.exp(0.5j * od * chi))[:n]
    oracle = np.abs(e_out) ** 2
    return np.max(np.abs(r.output_intensity - oracle)) / np.max(oracle)


@pytest.mark.parametrize("od, bound, detuning_MHz", [
    pytest.param(3.0, 3e-5, 0.0, id="3.0-3e-05"),
    pytest.param(10.0, 2.5e-4, 0.0, id="10.0-0.00025"),
    # every default storage run is resonant: this is the one field-level
    # check of the stepper on a field with an imaginary part
    pytest.param(3.0, 3e-5, 1.0, id="3.0-3e-05-detuned-1MHz"),
])
def test_constant_control_matches_transfer_function(od, bound, detuning_MHz):
    # the stepper against an answer that shares none of its code: under
    # the bound at the default step and slices, and second order, so that
    # halving dt and dz divides the error by 4
    detuning = 2.0 * math.pi * 1e6 * detuning_MHz
    coarse = transfer_function_error(od, 0.5e-9, 80, detuning)
    fine = transfer_function_error(od, 0.25e-9, 160, detuning)
    assert coarse < bound
    assert coarse / fine == pytest.approx(4.0, rel=0.1)


def short_rows(darks_ns, powers_mW=(2.0,), t_stop_ns=700, **overrides):
    """Probe, one control per (dark, power) pair, scheme and a short grid;
    overrides are further config keys and values."""
    controls = []
    for dark in darks_ns:
        for power in powers_mW:
            probe, ctrl, _, sch, grid = storage_setup(
                1.0, **{"storage.n_z": 50, "storage.t_stop_ns": t_stop_ns,
                        "storage.dark_ns": dark, "control.power_mW": power,
                        **overrides})
            controls.append(ctrl)
    return probe, controls, sch, grid


def assert_row_matches(row, ref):
    for name in ("retrieval_efficiency", "leak_fraction", "transmission",
                 "group_delay_s"):
        assert getattr(row, name) == pytest.approx(getattr(ref, name), rel=1e-12)
    assert row.fingerprint == ref.fingerprint
    assert row.readout_start_s == ref.readout_start_s
    for name in ("output_intensity", "spinwave"):
        got, want = getattr(row, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBatchedPropagation:
    def test_mixed_batch_equals_serial(self):
        probe, controls, sch, grid = short_rows((20.0, 60.0, 150.0), (0.8, 2.5))
        # a control that never goes dark stores nothing
        controls.append(eit.ControlField(eit.rabi_from_power(2.0e-3)))
        # an integer od stays an integer in its row's fingerprint
        ods = [1, 5.0, 12.0, 1.0, 5.0, 12.0, 5]
        rows = eit.propagate_pulse(probe, controls, ods, sch, grid)
        assert isinstance(rows, list) and len(rows) == len(controls)
        for row, ctrl, od in zip(rows, controls, ods):
            ref = eit.propagate_pulse(probe, ctrl, od, sch, grid)
            assert isinstance(ref, eit.PropagationResult)
            assert_row_matches(row, ref)
        assert rows[-1].readout_start_s is None
        assert rows[-1].retrieval_efficiency == 0.0
        assert rows[0].fingerprint != eit.propagate_pulse(
            probe, controls[0], 1.0, sch, grid).fingerprint
        # a one-element od sequence still returns a list
        (alone,) = eit.propagate_pulse(probe, controls[0], [1], sch, grid)
        assert_row_matches(alone, rows[0])

    def test_empty_and_undriven_rows_among_ordinary_rows(self):
        probe, controls, sch, grid = short_rows((20.0, 60.0, 150.0))
        # an od = 0 row carries f P = 0, a zero-Rabi control never stores,
        # with or without a switching schedule
        controls.insert(1, eit.ControlField(0.0))
        controls.insert(2, dataclasses.replace(controls[0], rabi_rad_per_s=0.0))
        ods = [5.0, 3.0, 3.0, 0.0, 12.0]
        rows = eit.propagate_pulse(probe, controls, ods, sch, grid)
        empty = rows[3]
        assert np.max(np.abs(empty.output_intensity - empty.input_intensity)) <= (
            1e-12 * np.max(empty.input_intensity))
        for row, ctrl, od in zip(rows, controls, ods):
            assert_row_matches(row, eit.propagate_pulse(probe, ctrl, od, sch, grid))
        for undriven in rows[1:3]:
            assert undriven.readout_start_s is None and not np.any(undriven.spinwave)

    def test_rows_above_the_cap_run_in_chunks(self):
        darks = np.linspace(20.0, 180.0, eit.MAX_BATCH_ROWS + 1)
        probe, controls, sch, grid = short_rows(darks)
        rows = eit.propagate_pulse(probe, controls, 10.0, sch, grid)
        assert len(rows) == len(controls) == eit.MAX_BATCH_ROWS + 1
        for row, ctrl in zip(rows, controls):
            assert_row_matches(row, eit.propagate_pulse(probe, ctrl, 10.0, sch, grid))

    def test_bad_rows_rejected(self):
        probe, controls, sch, grid = short_rows((20.0, 60.0, 150.0))
        with pytest.raises(eit.GridError):
            eit.propagate_pulse(probe, controls, [5.0, 3000.0, 5.0], sch, grid)
        with pytest.raises(ValueError):
            eit.propagate_pulse(probe, controls, [5.0, 10.0], sch, grid)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                eit.propagate_pulse(probe, controls, [5.0, bad, 5.0], sch, grid)

    # a shared span: identical rows share the whole grid, a dark-time sweep
    # shares it until its shortest dark interval ends, rows of distinct od
    # share none of it.  A single row steps by np.dot, a batch by np.matmul:
    # the detuned case fills both float columns of every slice and takes a
    # wider BLAS panel at 227 slices.  About 0.25 s, the detuned case 0.07 s
    @pytest.mark.parametrize("darks, ods, overrides", [
        ([60.0] * 3, 10.0, {}),
        ((20.0, 60.0, 150.0), 10.0, {}),
        ([60.0] * 3, [3.0, 5.0, 12.0], {}),
        ((20.0, 60.0, 150.0), 10.0,
         {"storage.n_z": 227, "probe.detuning_MHz": 1.0}),
    ], ids=["identical", "dark-times", "ods", "dark-times-detuned-227-slices"])
    def test_shared_span_rows_bit_identical(self, darks, ods, overrides):
        probe, controls, sch, grid = short_rows(darks, **overrides)
        rows = eit.propagate_pulse(probe, controls, ods, sch, grid)
        for row, ctrl, od in zip(rows, controls, np.broadcast_to(ods, len(rows))):
            ref = eit.propagate_pulse(probe, ctrl, float(od), sch, grid)
            for field in dataclasses.fields(ref):
                got, want = getattr(row, field.name), getattr(ref, field.name)
                assert np.array_equal(got, want), field.name
        for i, row in enumerate(rows):
            assert row.spinwave.flags.writeable and np.any(row.spinwave)
            for other in rows[i + 1:]:
                assert not np.shares_memory(row.spinwave, other.spinwave)
                assert not np.shares_memory(row.output_intensity,
                                            other.output_intensity)

    def test_memory_bounded_in_rows(self):
        def peak(n_rows):
            # distinct ods, so that no two rows share a span and the state
            # grows with the batch
            probe, controls, sch, grid = short_rows([30.0] * n_rows, t_stop_ns=450)
            tracemalloc.start()
            try:
                eit.propagate_pulse(probe, controls, np.linspace(5.0, 12.0, n_rows),
                                    sch, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * eit.MAX_BATCH_ROWS) <= 1.5 * peak(eit.MAX_BATCH_ROWS)
