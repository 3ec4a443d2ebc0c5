"""Run configuration: defaults, INI overlay, CLI overrides, digest.

Keys are dotted section.key names.  Values at this boundary use lab
units (MHz, ns, mW, Gauss ...) called out in the key name; scenario
builders convert to SI on the way in.  Each key is declared once, with
its default, its domain and a one-line doc that `fibermem list` shows
under every scenario reading the key.  set_key refuses a value outside
the key's domain, naming the key, so every single-key range check
lives in this table; a rule that ties two keys together (min <= max,
sweep length) stays with the scenario that reads them.  The resolved
configuration is rendered to a stable text form whose SHA-256 digest
is stamped into every output file, so a CSV can always be traced to
the exact settings that produced it.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

from .counting import MAX_SHOTS
from .eit import GAMMA_GS_CALIBRATED_RAD_PER_S, MIN_SLICES, PROBE_SHAPES
from .eit import RABI_CALIBRATION

# a domain: a float rule named in _HOLDS, (lo, hi) an inclusive int
# range, a tuple of string choices, or [rule]:
# a nonempty comma list of floats, each held to rule, distinct under %g
FINITE, GT0, GE0 = "finite", "positive", "nonnegative"
GT1, HALF_TURN = "greater than 1", "at least 0 and below 180"
_HOLDS = {
    FINITE: lambda v: True,
    GT0: lambda v: v > 0.0,
    GE0: lambda v: v >= 0.0,
    GT1: lambda v: v > 1.0,  # a core index above the vacuum cladding's
    HALF_TURN: lambda v: 0.0 <= v < 180.0,  # an angle in degrees
}
# most samples accepted on one axis: a points key, a fig3c/mode_scan sweep
# or the medium slices of a storage run
MAX_POINTS = 10_000

_KEYS = {  # key: (default, domain, doc)
    # effective linewidth of the fiber-coupled line (frequency, not angular)
    "scheme.gamma_MHz": (6.8, GT0, "excited-state linewidth as a frequency, MHz"),
    # residual ground-state coherence decay; anchored together with
    # calibration.rabi_calibration so the default spectrum shows 75%
    # window transparency at 1.6 mW and a 60 ns delay at 0.5 mW
    "scheme.gamma_gs_rad_per_s": (GAMMA_GS_CALIBRATED_RAD_PER_S, GE0,
                                  "ground-state coherence decay rate, rad/s"),
    "calibration.rabi_calibration": (
        RABI_CALIBRATION, GT0, "power to Rabi factor, dimensionless"),
    "calibration.anchor_delay_power_mW": (0.5, GT0, "power of the reported delay, mW"),
    "medium.length_mm": (5.0, GT0, "medium length for the slowdown factor, mm"),
    "fiber.radius_nm": (200.0, GT0, "fiber radius setting the transit length, nm"),
    "fiber.wavelength_nm": (852.0, GT0, "vacuum wavelength, nm"),
    "fiber.core_index": (1.4525, GT1, "core refractive index, dimensionless"),
    "scan.diameter_min_nm": (250.0, GT0, "smallest diameter, nm"),
    "scan.diameter_max_nm": (800.0, GT0, "largest diameter, nm"),
    "scan.diameter_step_nm": (5.0, GT0, "diameter step, nm"),
    "absorption.alpha0_L": (8.0 / 1.3, GT0, "weak-probe optical depth, dimensionless"),
    "absorption.p_sat_nW": (1.3, GT0, "saturation power, nW"),
    "absorption.k_exp": (1.0, GT0, "saturation exponent, dimensionless"),
    "absorption.power_min_nW": (0.01, GT0, "lowest probe power, nW"),
    "absorption.power_max_nW": (100.0, GT0, "highest probe power, nW"),
    # the floors of the points keys are what the self-fits need
    "absorption.points": (101, (4, MAX_POINTS), "number of power samples"),
    "spectroscopy.od": (3.0, GT0, "resonant optical depth, dimensionless"),
    "spectroscopy.span_MHz": (25.0, GT0, "half width of the detuning grid, MHz"),
    "spectroscopy.points": (201, (3, MAX_POINTS), "number of detuning samples"),
    "spectroscopy.powers_mW": (
        (0.5, 1.0, 1.6, 2.4), [GE0], "comma list of control powers, mW"),
    "slowlight.od": (3.0, GT0, "resonant optical depth, dimensionless"),
    "slowlight.power_min_mW": (0.2, GT0, "lowest control power, mW"),
    "slowlight.power_max_mW": (3.2, GT0, "highest control power, mW"),
    "slowlight.points": (31, (1, MAX_POINTS), "number of power samples"),
    "probe.photons": (0.6, GT0, "mean photon number per probe pulse, dimensionless"),
    "probe.fwhm_ns": (60.0, GT0, "probe intensity FWHM, ns"),
    "probe.shape": ("exponential-rising", PROBE_SHAPES, "probe envelope"),
    "probe.peak_ns": (300.0, FINITE, "probe peak arrival time, ns"),
    "probe.detuning_MHz": (0.0, FINITE, "probe detuning from line center, MHz"),
    "control.power_mW": (2.0, GE0, "control beam power, mW"),
    "control.waist_um": (400.0, GT0, "control beam 1/e^2 waist, micrometers"),
    "control.angle_deg": (
        13.0, HALF_TURN, "beam angle entering the motional phase, degrees"),
    "storage.od": (10.0, GE0, "resonant optical depth, dimensionless"),
    "storage.switch_off_ns": (315.0, FINITE, "control switch-off time, ns"),
    "storage.dark_ns": (30.0, GE0, "dark interval before reopening the control, ns"),
    "storage.ramp_ns": (10.0, GT0, "control ramp duration, ns"),
    "storage.t_stop_ns": (1400.0, GT0, "end of the simulated span, ns"),
    "storage.dt_ns": (0.5, GT0, "time step, ns"),
    "storage.n_z": (80, (MIN_SLICES, MAX_POINTS), "number of medium slices, dimensionless"),
    "storage.dark_min_ns": (20.0, GE0, "shortest dark interval, ns"),
    "storage.dark_max_ns": (200.0, GE0, "longest dark interval, ns"),
    "storage.dark_step_ns": (20.0, GT0, "dark interval step, ns"),
    "decoherence.temperature_uK": (200.0, GT0, "atom temperature, microkelvin"),
    "decoherence.zeeman_kHz": (100.0, GE0, "residual Zeeman broadening, kHz"),
    "decoherence.t_max_us": (12.0, GT0, "end of the storage-time axis, microseconds"),
    "decoherence.points": (1201, (3, MAX_POINTS), "number of time samples"),
    "magnetic.b_field_G": (0.4, GT0, "longitudinal field, Gauss"),
    "magnetic.b_field_alt_G": (0.6, GT0, "alternate longitudinal field, Gauss"),
    "counting.background": (0.003, GE0, "mean background counts per window"),
    "counting.shots": (10000, (1, MAX_SHOTS), "number of repeated shots"),
}

DEFAULTS = {key: default for key, (default, _, _) in _KEYS.items()}
KEY_DOCS = {key: doc for key, (_, _, doc) in _KEYS.items()}


def domain_text(key: str) -> str:
    """The domain of key as fibermem list shows it."""
    domain = _KEYS[key][1]
    if isinstance(domain, str):
        return domain
    if isinstance(domain, list):
        return "comma list, each %s, distinct to 6 significant digits" % domain[0]
    if isinstance(domain[0], str):
        return "one of " + ", ".join(domain)
    return "integer %d..%d" % domain


def _breach(value, domain) -> Optional[str]:
    """How value falls outside domain, or None if it lies inside."""
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if isinstance(value, tuple):  # a list domain [rule]
        breach = next(filter(None, (_breach(v, domain[0]) for v in value)), None)
        if not breach and len({"%g" % v for v in value}) < len(value):
            breach = "must not repeat an entry to 6 significant digits"
        return breach if value else "must list at least one number"
    if isinstance(domain, str) and not _HOLDS[domain](value):
        return "must be " + domain
    if isinstance(value, str) and value not in domain:
        return "must be one of " + ", ".join(domain)
    if isinstance(value, int) and value < domain[0]:
        return "must be at least %d" % domain[0]
    if isinstance(value, int) and value > domain[1]:
        return "exceeds the limit of %d" % domain[1]
    return None


def load_config(path: Optional[str] = None) -> dict:
    """Defaults overlaid with an INI file; unknown keys rejected.

    The file holds [section] lines, key = value lines split at the first
    '=' with both sides stripped and case kept, blank lines and full-line
    '#' or ';' comments.  Any other line, a key before the first section
    or a key set twice is refused naming the file and the line.
    """
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    section, seen = None, {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text[0] in "#;":
                continue
            if text[0] == "[" and text[-1] == "]":
                section = text[1:-1]
                continue
            key, eq, raw = text.partition("=")
            key = key.strip()
            dotted = "%s.%s" % (section, key)
            if line[0].isspace():
                why = "is indented: continuation lines are not read"
            elif not eq or not key:
                why = "is not [section], key = value or a comment"
            elif section is None:
                why = "sets a key before the first [section]"
            elif dotted in seen:
                why = "sets %r again, first set on line %d" % (dotted, seen[dotted])
            else:
                seen[dotted] = n
                try:
                    set_key(cfg, dotted, raw.strip())
                except ValueError as exc:
                    raise ValueError("%s, line %d: %s" % (path, n, exc)) from None
                continue
            raise ValueError("%s, line %d: %r %s" % (path, n, text, why))
    return cfg


def set_key(cfg: dict, dotted: str, raw) -> None:
    """Assign one key, coerced to its default's type and held to its domain."""
    if dotted not in _KEYS:
        raise ValueError("unknown config key %r" % (dotted,))
    default, domain, _ = _KEYS[dotted]
    listed = isinstance(default, tuple)
    try:  # a comma list, empty entries skipped, to floats; else int, float or str
        value = (tuple(float(t) for t in str(raw).split(",") if t.strip()) if listed
                 else type(default)(str(raw)))
    except ValueError:
        kind = "a comma list of numbers" if listed else type(default).__name__
        raise ValueError(
            "config key %r expects %s, got %r" % (dotted, kind, raw)) from None
    breach = _breach(value, domain)
    if breach:
        raise ValueError("config key %r %s, got %s" % (dotted, breach, raw))
    cfg[dotted] = value


def apply_overrides(cfg: dict, assignments) -> None:
    """Apply key=value strings from the command line."""
    for item in assignments:
        if "=" not in item:
            raise ValueError("override %r is not key=value" % (item,))
        key, _, raw = item.partition("=")
        set_key(cfg, key.strip(), raw.strip())


def _render_line(key: str, val) -> str:
    if isinstance(val, float):
        val = "%.17g" % val
    elif isinstance(val, tuple):
        val = ",".join(map(repr, val))
    return "%s = %s" % (key, val)


# each key's default object and its line, rendered once; a value counts as
# the default only by identity, as -0.0 == 0.0 yet renders as -0
_DEFAULT_LINES = {key: (val, _render_line(key, val)) for key, val in DEFAULTS.items()}
_NO_DEFAULT = (object(), None)


def render_config(cfg: dict) -> str:
    """Stable text rendering: sorted keys, full float precision."""
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        default, line = _DEFAULT_LINES.get(key, _NO_DEFAULT)
        lines.append(line if val is default else _render_line(key, val))
    return "\n".join(lines) + "\n"


def config_digest(rendered: str) -> str:
    """First 16 hex digits of the SHA-256 of a render_config text."""
    return hashlib.sha256(rendered.encode()).hexdigest()[:16]
