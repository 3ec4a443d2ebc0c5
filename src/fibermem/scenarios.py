"""Named experiment scenarios: each renders one CSV plus summary scalars.

A scenario is a parameter-free recipe over the resolved configuration
that config builds from the defaults, an INI file and key=value
overrides; a run only reads it.  Output files carry the
scenario id, the seed, and a digest of the fully resolved configuration
in comment lines, followed by unit-suffixed column headers and rows
printed with %.12g.  Identical scenario, configuration and seed give a
byte-identical file; randomness enters only through the seeded photon
counting attached to storage runs.  A sweep is one batched kernel call
(group_delay over the fig3a powers, propagate_pulse over the fig3c dark
times, solve_he11 over the mode_scan diameters), and each row equals its
own single-point call, so the output does not depend on the batching.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .config import KEY_DOCS, MAX_POINTS, config_digest, render_config
# set_key stays bound here for perfbench/tracer.py, which wraps it by name
from .config import set_key  # noqa: F401
from .counting import CountingModel, analytic_snr, simulate_counting, snr_standard_error
from .decoherence import (
    DecoherenceParams,
    MagneticScenario,
    efficiency_decay,
    half_larmor_period,
    revival_envelope,
)
from .eit import (
    ControlField,
    LambdaScheme,
    ProbePulse,
    PropagationGrid,
    eit_spectrum,
    grid_limit,
    group_delay,
    propagate_pulse,
    rabi_from_power,
)
from .ensemble import lorentzian_transmission, saturation_transmission
from .fitkit import MODELS, fit
from .waveguide import FiberSpec, surface_intensity_scan

MHZ = 2.0 * math.pi * 1e6  # detunings quoted as frequencies


@dataclass(frozen=True)
class ScenarioEntry:
    """Catalog row: what the scenario produces, every key its runner
    reads, and the runner, called as runner(cfg, seed)."""

    scenario_id: str
    description: str
    headline: Optional[str]
    keys: tuple
    runner: Callable

    @property
    def parameter_docs(self) -> tuple:
        return tuple((key, KEY_DOCS[key]) for key in self.keys)


def _scheme(cfg) -> LambdaScheme:
    return LambdaScheme(
        gamma_ge_rad_per_s=cfg["scheme.gamma_MHz"] * MHZ,
        gamma_gs_rad_per_s=cfg["scheme.gamma_gs_rad_per_s"],
    )


def _rabi(cfg, p_mW, power_key: str):
    """Control Rabi frequency at p_mW, a power or an array of powers,
    refused where a positive power gives 0: power_key, the key that sets
    the (lowest) power, if it underflows to 0 W, else the waist."""
    p_W = p_mW * 1e-3
    omega = rabi_from_power(
        p_W,
        waist_m=cfg["control.waist_um"] * 1e-6,
        calibration=cfg["calibration.rabi_calibration"],
        gamma_rad_per_s=cfg["scheme.gamma_MHz"] * MHZ,
    )
    zero = (omega == 0.0) & (np.asarray(p_mW) > 0.0)
    if np.any(zero):
        key = power_key if np.any(zero & (p_W == 0.0)) else "control.waist_um"
        raise ValueError("config key %r underflows the control Rabi frequency to 0"
                         " at a positive power, got %s" % (key, cfg[key]))
    return omega


def _decoherence(cfg) -> DecoherenceParams:
    return DecoherenceParams(
        temperature_K=cfg["decoherence.temperature_uK"] * 1e-6,
        fiber_radius_m=cfg["fiber.radius_nm"] * 1e-9,
        wavelength_m=cfg["fiber.wavelength_nm"] * 1e-9,
        control_angle_rad=math.radians(cfg["control.angle_deg"]),
        zeeman_broadening_Hz=cfg["decoherence.zeeman_kHz"] * 1e3,
    )


def _span(cfg, key_pattern: str) -> tuple:
    """(min, max) of keys key_pattern % "min"/"max", refused when descending."""
    lo_key, hi_key = key_pattern % "min", key_pattern % "max"
    if cfg[lo_key] > cfg[hi_key]:
        raise ValueError("descending axis: %r exceeds %r" % (lo_key, hi_key))
    return cfg[lo_key], cfg[hi_key]


def _run_fig1b(cfg, seed):
    """Saturation of the transmitted power, with a self-fit check."""
    p_nW = np.geomspace(*_span(cfg, "absorption.power_%s_nW"), cfg["absorption.points"])
    trans = saturation_transmission(p_nW * 1e-9, cfg["absorption.alpha0_L"],
                                    cfg["absorption.p_sat_nW"] * 1e-9,
                                    cfg["absorption.k_exp"])
    res = fit("saturation", np.column_stack((p_nW * 1e-9, trans)))
    summary = {
        "alpha0_L_fit": res.parameter("alpha0_L"),
        "p_sat_fit_nW": res.parameter("p_sat_W") * 1e9,
        "k_exp_fit": res.parameter("k_exp"),
        "fit_converged": res.converged,
        "transmission_floor": float(trans.min()),
    }
    return [("power_nW", p_nW), ("transmission", trans)], summary


def _run_fig1c(cfg, seed):
    """Resonant absorption line, with the optical depth fit back out."""
    span = cfg["spectroscopy.span_MHz"]
    delta_MHz = np.linspace(-span, span, cfg["spectroscopy.points"])
    trans = lorentzian_transmission(delta_MHz * MHZ, cfg["spectroscopy.od"],
                                    cfg["scheme.gamma_MHz"] * MHZ)
    res = fit("lorentzian_od", np.column_stack((delta_MHz * MHZ, trans)))
    summary = {
        "od_fit": res.parameter("od"),
        "od_err": res.uncertainty("od"),
        "gamma_fit_MHz": res.parameter("gamma_rad_per_s") / MHZ,
        "fit_converged": res.converged,
        "min_transmission": float(trans.min()),
    }
    return [("detuning_MHz", delta_MHz), ("transmission", trans)], summary


def _run_fig2(cfg, seed):
    """Transparency window spectra at several control powers."""
    scheme = _scheme(cfg)
    od = cfg["spectroscopy.od"]
    span = cfg["spectroscopy.span_MHz"]
    delta_MHz = np.linspace(-span, span, cfg["spectroscopy.points"])
    cols = [("detuning_MHz", delta_MHz)]
    summary = {}
    for p_mW in cfg["spectroscopy.powers_mW"]:
        tag = ("%g" % p_mW).replace(".", "p")  # distinct: config's list domain
        omega = _rabi(cfg, p_mW, "spectroscopy.powers_mW")
        trans = eit_spectrum(od, scheme, omega, delta_MHz * MHZ)
        cols.append(("transmission_%smW" % tag, trans))
        summary["transparency_%smW" % tag] = float(
            eit_spectrum(od, scheme, omega, 0.0)
        )
        summary["rabi_%smW_MHz" % tag] = omega / MHZ
    return cols, summary


def _run_fig3a(cfg, seed):
    """Slow-light delay and slowdown factor against control power."""
    scheme = _scheme(cfg)
    od = cfg["slowlight.od"]
    length_m = cfg["medium.length_mm"] * 1e-3
    p_mW = np.linspace(*_span(cfg, "slowlight.power_%s_mW"), cfg["slowlight.points"])
    sweep = group_delay(od, scheme, _rabi(cfg, p_mW, "slowlight.power_min_mW"), length_m)
    delay_ns = sweep.delay_s * 1e9
    anchor_p = cfg["calibration.anchor_delay_power_mW"]
    anchor = group_delay(od, scheme,
                         _rabi(cfg, anchor_p, "calibration.anchor_delay_power_mW"),
                         length_m)
    summary = {
        "delay_at_anchor_ns": anchor.delay_s * 1e9,
        "slowdown_at_anchor": anchor.slowdown,
        "anchor_power_mW": anchor_p,
        "max_delay_ns": float(delay_ns.max()),
    }
    cols = [
        ("control_power_mW", p_mW),
        ("delay_ns", delay_ns),
        ("slowdown", sweep.slowdown),
        ("transparency", sweep.transparency),
    ]
    return cols, summary


def _sweep(cfg, key_pattern: str) -> np.ndarray:
    """min..max inclusive in steps, keys key_pattern % "min"/"max"/"step"."""
    lo, hi = _span(cfg, key_pattern)
    step_key = key_pattern % "step"
    step = cfg[step_key]
    # counted before allocating, capped to stay finite; 1e-6 absorbs rounding
    count = math.floor(min((hi - lo) / step, MAX_POINTS) + 1e-6) + 1
    if count > MAX_POINTS:
        raise ValueError("sweep from %r to %r exceeds the limit of %d points: raise %r"
                         % (key_pattern % "min", key_pattern % "max", MAX_POINTS,
                            step_key))
    return np.arange(lo, lo + (count - 0.5) * step, step)


def _storage_control(cfg, dark_ns: float) -> ControlField:
    off_s = cfg["storage.switch_off_ns"] * 1e-9
    return ControlField(_rabi(cfg, cfg["control.power_mW"], "control.power_mW"), off_s,
                        off_s + dark_ns * 1e-9, cfg["storage.ramp_ns"] * 1e-9)


# most samples a storage time grid may hold (the default grid has 2,801):
# propagate_pulse keeps two step matrices for each
MAX_TIME_SAMPLES = 20_000

# the config keys that set the rate behind each rule of eit.grid_limit
_GRID_RULE_KEYS = {
    "fwhm": ("probe.fwhm_ns",), "gamma": ("scheme.gamma_MHz",),
    "rabi": ("control.power_mW", "control.waist_um", "calibration.rabi_calibration",
             "scheme.gamma_MHz"),
    "gamma_gs": ("scheme.gamma_gs_rad_per_s",),
    "kappa": ("storage.od", "scheme.gamma_MHz"),
}


def _storage_inputs(cfg):
    # the sample count, refused before grid.times() allocates the samples
    if not cfg["storage.t_stop_ns"] / cfg["storage.dt_ns"] < MAX_TIME_SAMPLES - 0.5:
        raise ValueError("'storage.t_stop_ns' / 'storage.dt_ns' exceeds the limit of"
                         " %d time samples" % MAX_TIME_SAMPLES)
    probe = ProbePulse(
        mean_photon_number=cfg["probe.photons"],
        fwhm_s=cfg["probe.fwhm_ns"] * 1e-9,
        shape=cfg["probe.shape"],
        detuning_rad_per_s=cfg["probe.detuning_MHz"] * MHZ,
        peak_time_s=cfg["probe.peak_ns"] * 1e-9,
    )
    grid = PropagationGrid(
        t_stop_s=cfg["storage.t_stop_ns"] * 1e-9,
        dt_s=cfg["storage.dt_ns"] * 1e-9,
        n_z=cfg["storage.n_z"],
    )
    # propagate_pulse's own tests, made here to name the keys they tie together
    t = grid.times()
    shape = probe.field_envelope(t)
    energy = float(np.trapezoid(shape ** 2, t))
    if energy <= 0.0:
        raise ValueError("'probe.peak_ns', 'probe.fwhm_ns' and 'probe.shape' put the"
                         " probe outside the grid of 'storage.t_stop_ns' and"
                         " 'storage.dt_ns'")
    scale = math.sqrt(probe.mean_photon_number / energy)
    if not math.isfinite(scale):
        raise ValueError("'probe.peak_ns', 'probe.fwhm_ns' and 'probe.shape' put too"
                         " little of the probe on the grid of 'storage.t_stop_ns' and"
                         " 'storage.dt_ns' to normalize it: its energy on the grid"
                         " is %.3g" % energy)
    scheme = _scheme(cfg)
    broken = grid_limit(grid.dt_s, probe.fwhm_s,
                        _rabi(cfg, cfg["control.power_mW"], "control.power_mW"),
                        cfg["storage.od"], scheme)
    if broken is not None:
        rule, dt_max_s = broken
        keys = ", ".join(map(repr, _GRID_RULE_KEYS[rule]))
        raise ValueError("'storage.dt_ns' must not exceed %.4g ns, the largest step"
                         " allowed by %s, got %s" % (dt_max_s * 1e9, keys,
                                                     cfg["storage.dt_ns"]))
    return probe, grid, scheme


def _run_storage(cfg, seed, with_target: bool):
    """Full storage and retrieval run plus a counting estimate."""
    probe, grid, scheme = _storage_inputs(cfg)
    control = _storage_control(cfg, cfg["storage.dark_ns"])
    result = propagate_pulse(probe, control, cfg["storage.od"], scheme, grid)
    efficiency = min(result.retrieval_efficiency, 1.0)
    counting = CountingModel(
        mean_photons_in=cfg["probe.photons"],
        efficiency=efficiency,
        background_per_window=cfg["counting.background"],
        n_shots=cfg["counting.shots"],
    )
    counted = simulate_counting(counting, seed)
    summary = {
        "retrieval_efficiency": result.retrieval_efficiency,
        "leak_fraction": result.leak_fraction,
        "transmission": result.transmission,
        "readout_start_ns": (
            result.readout_start_s * 1e9
            if result.readout_start_s is not None
            else float("nan")
        ),
        "snr_simulated": counted.snr,
        "snr_analytic": analytic_snr(counting),
        "snr_std_error": snr_standard_error(counting),
        "run_fingerprint": result.fingerprint,
    }
    if with_target:
        summary["target_efficiency"] = 0.10
    cols = [
        ("time_ns", result.t_grid_s * 1e9),
        ("input_flux_per_s", result.input_intensity),
        ("output_flux_per_s", result.output_intensity),
        ("control_rabi_rad_per_s", result.control_rabi),
    ]
    return cols, summary


def _run_fig3c(cfg, seed):
    """Retrieval efficiency against the dark storage interval."""
    darks = _sweep(cfg, "storage.dark_%s_ns")
    probe, grid, scheme = _storage_inputs(cfg)
    # one batched propagation, a row per dark interval
    controls = [_storage_control(cfg, d) for d in darks.tolist()]
    results = propagate_pulse(probe, controls, cfg["storage.od"], scheme, grid)
    eff = np.array([res.retrieval_efficiency for res in results])
    gamma_gs = cfg["scheme.gamma_gs_rad_per_s"]
    summary = {
        "efficiency_at_shortest": float(eff[0]),
        "efficiency_at_longest": float(eff[-1]),
        "shortest_dark_ns": float(darks[0]),
        "longest_dark_ns": float(darks[-1]),
        # spin-wave amplitude decays at gamma_gs, intensity at twice that
        "expected_decay_ratio": math.exp(
            -2.0 * gamma_gs * (darks[-1] - darks[0]) * 1e-9
        ),
        "observed_decay_ratio": float(eff[-1] / eff[0]) if eff[0] > 0 else 0.0,
    }
    return [("storage_time_ns", darks), ("efficiency", eff)], summary


def _run_fig4a(cfg, seed):
    """Field-free memory decay, with the lifetime fit back out."""
    params = _decoherence(cfg)
    t_us = np.linspace(0.0, cfg["decoherence.t_max_us"], cfg["decoherence.points"])
    curve = efficiency_decay(t_us * 1e-6, params.effective_tau_D_s,
                             params.effective_tau_T_s)
    # start at the configured cloud: from the model's fixed default guess
    # the fit walks tau_D to its bound at many ordinary clouds
    lo, hi = np.array(MODELS["decay_lifetime"].default_bounds).T
    guess = np.clip([params.effective_tau_D_s, params.effective_tau_T_s], lo, hi)
    res = fit("decay_lifetime", np.column_stack((t_us * 1e-6, curve)), guess)
    summary = {
        "tau_transit_us": params.effective_tau_T_s * 1e6,
        "tau_motional_us": params.tau_motional_s * 1e6,
        "tau_zeeman_us": params.tau_zeeman_s * 1e6,
        "tau_dephasing_us": params.effective_tau_D_s * 1e6,
        "fitted_tau_D_us": res.parameter("tau_D_s") * 1e6,
        "fitted_tau_T_us": res.parameter("tau_T_s") * 1e6,
        "fit_converged": res.converged,
    }
    return [("time_us", t_us), ("relative_efficiency", curve)], summary


def _revival_peaks(t_us, comb, t_half_us) -> list:
    """Local maxima of the interference comb, parabola-refined."""
    c0, c1, c2 = comb[:-2], comb[1:-1], comb[2:]
    peak = (c1 >= c0) & (c1 > c2) & (c1 >= 0.5) & (t_us[1:-1] >= 0.25 * t_half_us)
    c0, c1, c2 = c0[peak], c1[peak], c2[peak]
    denom = c0 - 2.0 * c1 + c2
    shift = np.divide(0.5 * (c0 - c2), denom, out=np.zeros(c1.size), where=denom < 0.0)
    return (t_us[1:-1][peak] + shift * (t_us[1] - t_us[0])).tolist()


def _run_magnetic(cfg, seed, field_key: str):
    """Memory decay with Larmor collapses and revivals in the field at field_key."""
    b_field_G = cfg[field_key]
    params = _decoherence(cfg)
    scenario = MagneticScenario(b_field_T=b_field_G * 1e-4)
    t_us = np.linspace(0.0, cfg["decoherence.t_max_us"], cfg["decoherence.points"])
    comb = revival_envelope(t_us * 1e-6, scenario)
    free = efficiency_decay(t_us * 1e-6, params.effective_tau_D_s,
                            params.effective_tau_T_s)
    curve = comb * free
    t_half_us = half_larmor_period(b_field_G * 1e-4) * 1e6
    # no revival where the decay has underflowed to 0
    peaks = _revival_peaks(t_us, np.where(free > 0.0, comb, 0.0), t_half_us)
    summary = {
        "b_field_G": b_field_G,
        "half_larmor_period_us": t_half_us,
        "revival_times_us": tuple(peaks),
        "first_revival_us": peaks[0] if peaks else float("nan"),
        "n_revivals": len(peaks),
    }
    cols = [
        ("time_us", t_us),
        ("relative_efficiency", curve),
        ("field_free_decay", free),
    ]
    return cols, summary


# largest V number a mode scan may reach: the mode solver's (J1(u)/K1(w))^2
# overflows from V = 344.7 (852 nm at core index 1.4525, 780 nm at 1.44)
MAX_MODE_V = 320.0


def _run_mode_scan(cfg, seed):
    """Surface intensity against fiber diameter at one watt guided."""
    d_nm = _sweep(cfg, "scan.diameter_%s_nm")
    wavelength_m, core = cfg["fiber.wavelength_nm"] * 1e-9, cfg["fiber.core_index"]
    v = FiberSpec(0.5e-9 * d_nm[-1], wavelength_m, core).v_number
    if v > MAX_MODE_V:
        raise ValueError("'scan.diameter_max_nm', 'fiber.wavelength_nm' and"
                         " 'fiber.core_index' give the largest diameter V = %.4g,"
                         " past the mode solver's limit of %g" % (v, MAX_MODE_V))
    scan = surface_intensity_scan(wavelength_m, d_nm * 1e-9, core)
    i_max = int(np.argmax(scan.surface_intensity_w_m2))
    summary = {
        "argmax_diameter_nm": float(scan.diameters_m[i_max]) * 1e9,
        "max_surface_intensity_W_m2": float(scan.surface_intensity_w_m2[i_max]),
        "n_eff_at_argmax": float(scan.n_eff[i_max]),
        "evanescent_fraction_at_argmax": float(scan.evanescent_fractions[i_max]),
        "n_guided": int(scan.diameters_m.size),
    }
    cols = [
        ("diameter_nm", scan.diameters_m * 1e9),
        ("n_eff", scan.n_eff),
        ("evanescent_fraction", scan.evanescent_fractions),
        ("surface_intensity_W_m2_per_W", scan.surface_intensity_w_m2),
    ]
    return cols, summary


# key groups shared by several catalog rows, disjoint so no row repeats a key
_SCHEME = ("scheme.gamma_MHz", "scheme.gamma_gs_rad_per_s")
_RABI = ("control.waist_um", "calibration.rabi_calibration")  # with scheme.gamma_MHz
_SPECTRUM = ("spectroscopy.od", "spectroscopy.span_MHz", "spectroscopy.points")
_STORAGE = (
    "storage.od", "control.power_mW", "probe.photons", "probe.shape",
    "probe.fwhm_ns", "probe.peak_ns", "probe.detuning_MHz",
    "storage.switch_off_ns", "storage.ramp_ns",
    "storage.t_stop_ns", "storage.dt_ns", "storage.n_z",
)
_STORAGE_POINT = (
    _STORAGE + ("storage.dark_ns", "counting.background", "counting.shots")
    + _SCHEME + _RABI
)
_DECOHERENCE = (
    "decoherence.temperature_uK", "decoherence.zeeman_kHz",
    "decoherence.t_max_us", "decoherence.points",
    "fiber.radius_nm", "fiber.wavelength_nm", "control.angle_deg",
)

_CATALOG = (
    ScenarioEntry(
        "fig1b",
        "transmission versus probe power through the saturable ensemble,"
        " self-fitted with the saturation model",
        None,
        ("absorption.alpha0_L", "absorption.p_sat_nW", "absorption.k_exp",
         "absorption.power_min_nW", "absorption.power_max_nW", "absorption.points"),
        _run_fig1b,
    ),
    ScenarioEntry(
        "fig1c",
        "resonant absorption line versus detuning, self-fitted to recover"
        " the optical depth",
        "fitted od returns the configured value, 3.00 by default",
        _SPECTRUM + ("scheme.gamma_MHz",),
        _run_fig1c,
    ),
    ScenarioEntry(
        "fig2",
        "transparency window spectra at several control powers",
        None,
        _SPECTRUM + ("spectroscopy.powers_mW",) + _SCHEME + _RABI,
        _run_fig2,
    ),
    ScenarioEntry(
        "fig3a",
        "slow-light group delay and slowdown factor versus control power",
        "60 ns delay at the 0.5 mW anchor power",
        ("slowlight.od", "slowlight.power_min_mW", "slowlight.power_max_mW",
         "slowlight.points", "medium.length_mm", "calibration.anchor_delay_power_mW")
        + _SCHEME + _RABI,
        _run_fig3a,
    ),
    ScenarioEntry(
        "fig3b",
        "pulse storage and retrieval at the reference operating point,"
        " with photon-counting statistics for the retrieved field",
        "retrieval efficiency at the reference point; target 0.10",
        _STORAGE_POINT,
        partial(_run_storage, with_target=True),
    ),
    ScenarioEntry(
        "fig3c",
        "retrieval efficiency versus the dark storage interval",
        None,
        _STORAGE
        + ("storage.dark_min_ns", "storage.dark_max_ns", "storage.dark_step_ns")
        + _SCHEME + _RABI,
        _run_fig3c,
    ),
    ScenarioEntry(
        "fig4a",
        "field-free memory decay versus storage time, self-fitted to"
        " recover the dephasing and transit lifetimes",
        None,
        _DECOHERENCE,
        _run_fig4a,
    ),
    ScenarioEntry(
        "fig4b",
        "memory decay with Larmor collapses and revivals at the reference"
        " longitudinal field",
        "revivals at multiples of the half Larmor period, 3.57 us at 0.4 G",
        _DECOHERENCE + ("magnetic.b_field_G",),
        partial(_run_magnetic, field_key="magnetic.b_field_G"),
    ),
    ScenarioEntry(
        "fig4c",
        "memory decay with Larmor revivals at the alternate field",
        "first revival near 2.38 us at 0.6 G",
        _DECOHERENCE + ("magnetic.b_field_alt_G",),
        partial(_run_magnetic, field_key="magnetic.b_field_alt_G"),
    ),
    ScenarioEntry(
        "mode_scan",
        "fundamental-mode surface intensity versus fiber diameter",
        "surface intensity peaks near 400 nm diameter",
        ("fiber.wavelength_nm", "fiber.core_index", "scan.diameter_min_nm",
         "scan.diameter_max_nm", "scan.diameter_step_nm"),
        _run_mode_scan,
    ),
    ScenarioEntry(
        "custom",
        "free-form storage run; combine with --set overrides to explore"
        " operating points away from the reference",
        None,
        _STORAGE_POINT,
        partial(_run_storage, with_target=False),
    ),
)
_REGISTRY = {entry.scenario_id: entry for entry in _CATALOG}


def list_scenarios() -> tuple:
    """Catalog entries in stable order."""
    return _CATALOG


def _write_csv(path: str, comments: list, columns) -> int:
    """Write comments as # lines, a header and the rows; return the row count."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr, dtype=float) for _, arr in columns]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("column length mismatch")
    table = np.column_stack(arrays)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():  # a solver failure, caught before any file is created
        raise FloatingPointError("column %r holds a non-finite value" % names[finite.argmin()])
    # the whole body in one format call, each cell still CPython's %.12g
    row_format = ",".join(["%.12g"] * len(arrays)) + "\n"
    head = "".join("# %s\n" % comment for comment in comments) + ",".join(names) + "\n"
    text = head + row_format * n % tuple(table.ravel().tolist())
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return n


def run_scenario(scenario_id: str, cfg: dict, seed: int = 0,
                 output_path: Optional[str] = None) -> dict:
    """Run scenario_id on the resolved configuration cfg, write its CSV
    to output_path (default <scenario_id>.csv) and return the summary.

    The returned dict carries the output path, the row count, the config
    digest and the scenario's headline scalars.  The file write is atomic: a temporary file in the target directory
    is renamed over the destination.  A non-finite cell raises
    FloatingPointError (exit code 3) before any file is created.
    """
    if scenario_id not in _REGISTRY:
        raise ValueError("unknown scenario %r; known: %s"
                         % (scenario_id, ", ".join(_REGISTRY)))
    columns, summary = _REGISTRY[scenario_id].runner(cfg, seed)
    rendered = render_config(cfg)
    digest = config_digest(rendered)
    path = output_path or "%s.csv" % scenario_id
    comments = ["scenario: %s" % scenario_id, "seed: %d" % seed,
                "config sha256: %s" % digest] + rendered.splitlines()
    n_rows = _write_csv(path, comments, columns)
    return {
        "output_path": path,
        "n_rows": n_rows,
        "config_digest": digest,
        "summary": summary,
    }
