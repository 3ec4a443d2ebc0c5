"""Run configuration: defaults, INI overlay, CLI overrides, digest.

Keys are dotted section.key names.  Values at this boundary use lab
units (MHz, ns, mW, Gauss ...) called out in the key name; scenario
builders convert to SI on the way in.  Each key is declared once, with
its default and a one-line doc that `fibermem list` shows under every
scenario reading the key.  The resolved configuration is
rendered to a stable text form whose SHA-256 digest is stamped into
every output file, so a CSV can always be traced to the exact settings
that produced it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from typing import Optional

from .eit import GAMMA_GS_CALIBRATED_RAD_PER_S, RABI_CALIBRATION

_KEYS = {  # key: (default, doc)
    # effective linewidth of the fiber-coupled line (frequency, not angular)
    "scheme.gamma_MHz": (6.8, "excited-state linewidth as a frequency, MHz"),
    # residual ground-state coherence decay; anchored together with
    # calibration.rabi_calibration so the default spectrum shows 75%
    # window transparency at 1.6 mW and a 60 ns delay at 0.5 mW
    "scheme.gamma_gs_rad_per_s": (
        GAMMA_GS_CALIBRATED_RAD_PER_S, "ground-state coherence decay rate, rad/s"),
    "calibration.rabi_calibration": (
        RABI_CALIBRATION, "power to Rabi factor, dimensionless"),
    "calibration.anchor_delay_power_mW": (0.5, "power of the reported delay, mW"),
    "medium.length_mm": (5.0, "medium length for the slowdown factor, mm"),
    "fiber.radius_nm": (200.0, "fiber radius setting the transit length, nm"),
    "fiber.wavelength_nm": (852.0, "vacuum wavelength, nm"),
    "fiber.core_index": (1.4525, "core refractive index, dimensionless"),
    "scan.diameter_min_nm": (250.0, "smallest diameter, nm"),
    "scan.diameter_max_nm": (800.0, "largest diameter, nm"),
    "scan.diameter_step_nm": (5.0, "diameter step, nm"),
    "absorption.alpha0_L": (8.0 / 1.3, "weak-probe optical depth, dimensionless"),
    "absorption.p_sat_nW": (1.3, "saturation power, nW"),
    "absorption.k_exp": (1.0, "saturation exponent, dimensionless"),
    "absorption.power_min_nW": (0.01, "lowest probe power, nW"),
    "absorption.power_max_nW": (100.0, "highest probe power, nW"),
    "absorption.points": (101, "number of power samples"),
    "spectroscopy.od": (3.0, "resonant optical depth, dimensionless"),
    "spectroscopy.span_MHz": (25.0, "half width of the detuning grid, MHz"),
    "spectroscopy.points": (201, "number of detuning samples"),
    "spectroscopy.powers_mW": ("0.5,1.0,1.6,2.4", "comma list of control powers, mW"),
    "slowlight.od": (3.0, "resonant optical depth, dimensionless"),
    "slowlight.power_min_mW": (0.2, "lowest control power, mW"),
    "slowlight.power_max_mW": (3.2, "highest control power, mW"),
    "slowlight.points": (31, "number of power samples"),
    "probe.photons": (0.6, "mean photon number per probe pulse, dimensionless"),
    "probe.fwhm_ns": (60.0, "probe intensity FWHM, ns"),
    "probe.shape": (
        "exponential-rising", "probe envelope: exponential-rising, gaussian or square"),
    "probe.peak_ns": (300.0, "probe peak arrival time, ns"),
    "probe.detuning_MHz": (0.0, "probe detuning from line center, MHz"),
    "control.power_mW": (2.0, "control beam power, mW"),
    "control.waist_um": (400.0, "control beam 1/e^2 waist, micrometers"),
    "control.angle_deg": (13.0, "beam angle entering the motional phase, degrees"),
    "storage.od": (10.0, "resonant optical depth, dimensionless"),
    "storage.switch_off_ns": (315.0, "control switch-off time, ns"),
    "storage.dark_ns": (30.0, "dark interval before reopening the control, ns"),
    "storage.ramp_ns": (10.0, "control ramp duration, ns"),
    "storage.t_stop_ns": (1400.0, "end of the simulated span, ns"),
    "storage.dt_ns": (0.5, "time step, ns"),
    "storage.n_z": (80, "number of medium slices, dimensionless"),
    "storage.dark_min_ns": (20.0, "shortest dark interval, ns"),
    "storage.dark_max_ns": (200.0, "longest dark interval, ns"),
    "storage.dark_step_ns": (20.0, "dark interval step, ns"),
    "decoherence.temperature_uK": (200.0, "atom temperature, microkelvin"),
    "decoherence.zeeman_kHz": (100.0, "residual Zeeman broadening, kHz"),
    "decoherence.t_max_us": (12.0, "end of the storage-time axis, microseconds"),
    "decoherence.points": (1201, "number of time samples"),
    "magnetic.b_field_G": (0.4, "longitudinal field, Gauss"),
    "magnetic.b_field_alt_G": (0.6, "alternate longitudinal field, Gauss"),
    "counting.background": (0.003, "mean background counts per window, dimensionless"),
    "counting.shots": (10000, "number of repeated shots"),
}

DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}
KEY_DOCS = {key: doc for key, (_, doc) in _KEYS.items()}


def load_config(path: Optional[str] = None) -> dict:
    """Defaults overlaid with an INI file; unknown keys rejected."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: scheme.gamma_MHz
    with open(path) as fh:
        parser.read_file(fh)
    for section in parser.sections():
        for key, raw in parser.items(section):
            set_key(cfg, "%s.%s" % (section, key), raw)
    return cfg


def set_key(cfg: dict, dotted: str, raw) -> None:
    """Assign one key, coercing to the default's type; floats must be finite."""
    if dotted not in DEFAULTS:
        raise ValueError("unknown config key %r" % (dotted,))
    default = DEFAULTS[dotted]
    if isinstance(default, bool):
        raise ValueError("boolean keys unsupported")
    try:
        if isinstance(default, int):
            value = int(str(raw))
        elif isinstance(default, float):
            value = float(str(raw))
        else:
            value = str(raw)
    except ValueError:
        raise ValueError(
            "config key %r expects %s, got %r"
            % (dotted, type(default).__name__, raw)
        ) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("config key %r must be finite, got %r" % (dotted, raw))
    cfg[dotted] = value


def apply_overrides(cfg: dict, assignments) -> None:
    """Apply key=value strings from the command line."""
    for item in assignments:
        if "=" not in item:
            raise ValueError("override %r is not key=value" % (item,))
        key, _, raw = item.partition("=")
        set_key(cfg, key.strip(), raw.strip())


def render_config(cfg: dict) -> str:
    """Stable text rendering: sorted keys, full float precision."""
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, float):
            lines.append("%s = %.17g" % (key, val))
        else:
            lines.append("%s = %s" % (key, val))
    return "\n".join(lines) + "\n"


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()[:16]
