"""Lambda-system EIT: susceptibility, spectra, slow light, storage.

The probe is treated to first order (weak-probe linearization) with a
classical undepleted control.  All detunings are angular frequencies.
The dimensionless lineshape is normalized so that its imaginary part is
1 on resonance without control, making exp(-od * Im chi) reduce exactly
to the Lorentzian opacity law of the bare ensemble.

Pulse propagation integrates the one-dimensional two-mode system in the
co-moving frame (tau = t - z/c, zeta = z/L):

    dP/dtau = -(Gamma/2 - i delta1) P + i E + i (Omega_c/2) S
    dS/dtau = -(gamma_gs) S + i (Omega_c/2) P
    dE/dzeta = i (od Gamma / 4) P

with the polarization P normalized so its drive term is i E; the CW
limit of this system reproduces exp(-od * Im chi) exactly.  Probe
detuning rides on the input field as a carrier (delta1 = 0 in the
equations, E_in ~ e^{-i delta t}), which makes one- and two-photon
detunings equal, the control staying on its resonance.

The system is linear and the slices couple only through E, so an RK4
step with E frozen is one affine map of (P, S, E), the same on every
slice: its coefficients are computed once per run, before time stepping.
The stepper writes P = i p, which makes every coefficient real:

    dp/dtau = -(Gamma/2) p + E + (Omega_c/2) S
    dS/dtau = -(gamma_gs) S - (Omega_c/2) p
    dE/dzeta = -(od Gamma / 4) p

Each slice carries (f p, p, S, W~, 1, i), f = -0.5 dz od Gamma/4 the real
trapezoid weight (f p = 0.5 dz i (od Gamma/4) P) and W~ = W - E_in the
field the atoms see less the input field, which the two constant slots
1 and i bring in.  A time step is two real matrix products, a 1x5
predictor row and a 3x5 corrector of (p, S, W~, 1, i), each applied to
a float view of the complex state, in which a slice's real and
imaginary parts are two columns.  Each is followed by a field sweep
along zeta: one complex running sum of the f p pairs, which starts at 0
and needs no seed, so a step is seven NumPy calls.  E, S and every
output are those of the P form.  propagate_pulse also takes rows of
operating points (a control and an od per row, one probe and grid)
that do not couple to each other: their states are stacked and advanced
by the same two batched products per time step, at most MAX_BATCH_ROWS
rows at a time, so a sweep is one call.  Rows that share row 0's od and
Rabi samples up to some step, as a dark-time sweep does until its
shortest dark interval ends, are stepped as one row until then.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .constants import C_LIGHT, CS_D2_ISAT_W_M2, check_fields, scalar_or_array

# effective excited-state linewidth of the fiber-coupled ensemble
GAMMA_EFF_RAD_PER_S = 2.0 * math.pi * 6.8e6

# anchors used to pin the two free constants of the control model:
# 75% window transparency at 1.6 mW (od=3) and 60 ns delay at 0.5 mW
ANCHOR_OD = 3.0
ANCHOR_TRANSPARENCY = 0.75
ANCHOR_POWER_HIGH_W = 1.6e-3
ANCHOR_POWER_LOW_W = 0.5e-3
ANCHOR_DELAY_S = 60e-9
ANCHOR_WAIST_M = 400e-6

# calibrated literals (recomputed by calibrate_control; tested to match)
GAMMA_GS_CALIBRATED_RAD_PER_S = 4399155.798813501
RABI_CALIBRATION = 0.08182080327802375


# rows propagate_pulse steps together; more rows run as successive
# chunks of this size, so memory does not grow with the sweep length
MAX_BATCH_ROWS = 8

MIN_SLICES = 50  # fewest medium slices propagate_pulse accepts
PROBE_SHAPES = ("exponential-rising", "gaussian", "square")  # ProbePulse.shape


class GridError(ValueError):
    """Propagation grid too coarse for the requested pulse or rates."""


@dataclass(frozen=True)
class LambdaScheme:
    """Three-level scheme constants."""

    gamma_ge_rad_per_s: float = GAMMA_EFF_RAD_PER_S
    gamma_gs_rad_per_s: float = GAMMA_GS_CALIBRATED_RAD_PER_S

    def __post_init__(self):
        check_fields(self, positive=("gamma_ge_rad_per_s",),
                     nonnegative=("gamma_gs_rad_per_s",))
        if self.gamma_gs_rad_per_s > 0.2 * self.gamma_ge_rad_per_s:
            warnings.warn(
                "gamma_gs is not small against gamma_ge; EIT contrast will be poor",
                stacklevel=2,
            )


def rabi_from_power(
    power_W,
    waist_m: float = ANCHOR_WAIST_M,
    calibration: float = RABI_CALIBRATION,
    gamma_rad_per_s: float = GAMMA_EFF_RAD_PER_S,
):
    """Control Rabi frequency from beam power, a float or an array.

    Omega_c = calibration * Gamma * sqrt(I / (2 I_sat)) with the peak
    intensity I = 2P/(pi w^2).  The dimensionless calibration absorbs
    the unknown dipole projection onto the evanescent mode; its default
    is anchored so 1.6 mW yields 75% window transparency at od=3.
    """
    power = np.asarray(power_W, dtype=float)
    if not np.all((power >= 0.0) & (power < math.inf)):
        raise ValueError(f"power_W must be finite and >= 0, got {power_W!r}")
    if not 0.0 < waist_m < math.inf:
        raise ValueError(f"waist_m must be finite and > 0, got {waist_m!r}")
    intensity = 2.0 * power / (math.pi * (waist_m * waist_m))
    return scalar_or_array(calibration * gamma_rad_per_s * np.sqrt(
        intensity / (2.0 * CS_D2_ISAT_W_M2)
    ))


@dataclass(frozen=True)
class ControlField:
    """Classical control beam of peak Rabi frequency rabi_rad_per_s.

    The Rabi frequency must be finite and nonnegative; convert a beam
    power with rabi_from_power.  The drive is constant unless off_s,
    on_s and ramp_s are all set: then it falls to dark at off_s and
    rises from on_s, each over a raised-cosine ramp of ramp_s.
    """

    rabi_rad_per_s: float
    off_s: Optional[float] = None
    on_s: Optional[float] = None
    ramp_s: Optional[float] = None

    def __post_init__(self):
        schedule = (self.off_s, self.on_s, self.ramp_s)
        check_fields(self, nonnegative=("rabi_rad_per_s",),
                     positive=() if None in schedule else ("ramp_s",))
        if schedule.count(None) not in (0, 3):
            raise ValueError("off_s, on_s and ramp_s are set together or not at all")
        if None not in schedule and self.on_s < self.off_s:
            raise ValueError("on_s must not precede off_s")

    def envelope(self, t_s) -> np.ndarray:
        """Drive at the times t_s as a fraction of the peak, in [0, 1]."""
        t = np.asarray(t_s, dtype=float)
        if self.ramp_s is None:
            return np.ones_like(t)
        # distance into the drive, clipped to one ramp: 0 is dark, ramp_s full
        lag = np.clip(np.where(t <= self.on_s, self.off_s - t, t - self.on_s),
                      0.0, self.ramp_s)
        return 0.5 * (1.0 - np.cos(np.pi * lag / self.ramp_s))


@dataclass(frozen=True)
class ProbePulse:
    """Weak probe pulse entering the medium."""

    mean_photon_number: float = 0.6
    fwhm_s: float = 60e-9
    shape: str = "exponential-rising"
    detuning_rad_per_s: float = 0.0
    peak_time_s: float = 300e-9

    def __post_init__(self):
        check_fields(self, positive=("mean_photon_number", "fwhm_s"))
        if self.shape not in PROBE_SHAPES:
            raise ValueError("unknown pulse shape %r" % (self.shape,))

    def field_envelope(self, t_s: np.ndarray) -> np.ndarray:
        """Real amplitude shape before normalization and detuning carrier."""
        t = np.asarray(t_s, dtype=float)
        tp = self.peak_time_s
        if self.shape == "exponential-rising":
            # intensity e^{(t-tp)/tau_r} below the peak, tau_r = fwhm/ln2,
            # then a fast half-cosine cutoff
            tau_r = self.fwhm_s / math.log(2.0)
            cut = 0.2 * self.fwhm_s
            rising = np.exp(np.minimum(t - tp, 0.0) / (2.0 * tau_r))
            falling = np.where(
                t <= tp + cut,
                np.cos(0.5 * math.pi * np.clip((t - tp) / cut, 0.0, 1.0)),
                0.0,
            )
            return np.where(t <= tp, rising, falling)
        if self.shape == "gaussian":
            return np.exp(-2.0 * math.log(2.0) * ((t - tp) / self.fwhm_s) ** 2)
        # flat top on [lo, hi]; gap, the distance outside it, clipped to one edge
        edge = 0.1 * self.fwhm_s
        lo, hi = tp - 0.5 * self.fwhm_s, tp + 0.5 * self.fwhm_s
        gap = np.clip(np.maximum(lo - t, t - hi), 0.0, edge)
        return 0.5 * (1.0 + np.cos(math.pi * gap / edge))


@dataclass(frozen=True)
class PropagationGrid:
    """Fixed-step grid for propagate_pulse, starting at t = 0."""

    t_stop_s: float = 1.0e-6
    dt_s: float = 0.5e-9
    n_z: int = 200

    def __post_init__(self):
        check_fields(self, positive=("t_stop_s", "dt_s", "n_z"))

    def times(self) -> np.ndarray:
        n = int(round(self.t_stop_s / self.dt_s))
        return self.dt_s * np.arange(n + 1)


@dataclass(frozen=True)
class PropagationResult:
    """Output of one propagation run, co-moving time axis."""

    t_grid_s: np.ndarray
    input_intensity: np.ndarray
    output_intensity: np.ndarray
    control_rabi: np.ndarray
    spinwave: np.ndarray
    z_grid: np.ndarray
    transmission: float
    group_delay_s: float
    leak_fraction: float
    retrieval_efficiency: float
    readout_start_s: Optional[float]
    fingerprint: str


def susceptibility(delta_rad_per_s, scheme: LambdaScheme, omega_c_rad_per_s: float):
    """Normalized weak-probe lineshape chi(delta), complex.

    chi = i (Gamma/2)(gamma_gs - i delta) /
          [(Gamma/2 - i delta)(gamma_gs - i delta) + Omega_c^2/4]

    Im chi(0) = 1 without control, so exp(-od Im chi) carries the full
    resonant opacity.  For Omega_c = 0 the ground-state factor cancels
    algebraically and the reduced two-level form is evaluated directly
    (identical value, defined as the limit at the gamma_gs = delta = 0
    corner).
    """
    if omega_c_rad_per_s < 0.0:
        raise ValueError("omega_c_rad_per_s must be nonnegative")
    delta = np.asarray(delta_rad_per_s, dtype=float)
    if omega_c_rad_per_s == 0.0:
        half_g = 0.5 * scheme.gamma_ge_rad_per_s
        return scalar_or_array(1j * half_g / (half_g - 1j * delta))
    return scalar_or_array(driven_chi(delta, scheme.gamma_ge_rad_per_s,
                                      scheme.gamma_gs_rad_per_s, omega_c_rad_per_s))


def driven_chi(delta, gamma_ge, gamma_gs, omega_c):
    """susceptibility's chi for Omega_c > 0; unchecked parameters may be
    columns that broadcast against delta."""
    half_g = 0.5 * gamma_ge
    gs = gamma_gs - 1j * delta
    denom = (half_g - 1j * delta) * gs + 0.25 * omega_c * omega_c
    return 1j * half_g * gs / denom


def driven_transmission(delta, od, gamma_ge, gamma_gs, omega_c):
    """exp(-od Im chi) with driven_chi's chi; unchecked parameters may be
    columns that broadcast against delta."""
    return np.exp(-od * np.imag(driven_chi(delta, gamma_ge, gamma_gs, omega_c)))


def eit_spectrum(
    od: float, scheme: LambdaScheme, omega_c_rad_per_s: float, delta_grid
) -> np.ndarray:
    """Transmission T(delta) = exp(-od Im chi(delta))."""
    if od <= 0.0:
        raise ValueError("od must be positive")
    chi = susceptibility(delta_grid, scheme, omega_c_rad_per_s)
    return scalar_or_array(np.exp(-od * np.imag(chi)))


@dataclass(frozen=True)
class GroupDelayResult:  # floats, or arrays shaped as group_delay's Rabi frequencies
    delay_s: object
    slowdown: object
    transparency: object
    window_open: object


def group_delay(
    od: float,
    scheme: LambdaScheme,
    omega_c_rad_per_s,
    length_m: float = 5e-3,
) -> GroupDelayResult:
    """Analytic slow-light delay at line center, for one Rabi frequency
    or an array of them.

    delay = od/2 * d(Re chi)/d delta at 0, from the transmitted
    amplitude exp(i od chi/2).  The window is closed (negative delay,
    warned once per call) when gamma_gs exceeds Omega_c/2.
    """
    if od <= 0.0 or length_m <= 0.0:
        raise ValueError("od and length_m must be positive")
    omega = np.asarray(omega_c_rad_per_s, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega_c_rad_per_s must be positive")
    half_g = 0.5 * scheme.gamma_ge_rad_per_s
    gam = scheme.gamma_gs_rad_per_s
    quarter_om2 = 0.25 * omega * omega
    d0 = half_g * gam + quarter_om2
    dchi = half_g * (quarter_om2 - gam * gam) / (d0 * d0)
    delay = 0.5 * od * dchi
    transparency = np.exp(-od * half_g * gam / d0)
    window_open = quarter_om2 > gam * gam
    if not np.all(window_open):
        warnings.warn(
            "transparency window closed: gamma_gs >= Omega_c/2", stacklevel=2
        )
    return GroupDelayResult(
        delay_s=scalar_or_array(delay),
        slowdown=scalar_or_array(C_LIGHT * delay / length_m),
        transparency=scalar_or_array(transparency),
        window_open=scalar_or_array(window_open),
    )


def _fingerprint(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def propagate_pulse(
    probe: ProbePulse,
    control: Union[ControlField, Sequence[ControlField]],
    od: Union[float, Sequence[float]],
    scheme: LambdaScheme,
    grid: PropagationGrid,
) -> Union[PropagationResult, list[PropagationResult]]:
    """Integrate the storage sequence through the medium.

    Co-moving frame, so an empty medium returns the input unchanged
    (the vacuum flight time L/c is implicit in the time axis).  Time
    stepping is a predictor-corrector sweep: atoms advance by RK4 with
    the field frozen, the field is rebuilt by trapezoidal integration
    of dE/dzeta = i (od Gamma/4) P, then the atomic step is corrected
    with the time-averaged field (the module docstring gives the step).
    State and output are zero until one step before the input field's
    first nonzero sample, where stepping starts.  Retrieval starts where
    the control first rises after a dark interval.  Deterministic for
    identical inputs.

    control may be a sequence of ControlFields and od a sequence of
    optical depths: each pair is one row, and a single value on either
    side is repeated to match the other.  The rows share the probe, the
    scheme and the grid and are stepped together as one stacked state,
    MAX_BATCH_ROWS at a time.  Rows whose od and Rabi samples equal the
    first row's up to some step are stepped as one row over that shared
    span and apart after it.  A single control with a scalar od returns
    one PropagationResult; any sequence returns a list, one result per
    row, each equal to its own single-row call.
    """
    single = isinstance(control, ControlField) and np.ndim(od) == 0
    controls = [control] if isinstance(control, ControlField) else list(control)
    ods = [od] if np.ndim(od) == 0 else list(od)
    if len(controls) == 1:
        controls = controls * len(ods)
    elif len(ods) == 1:
        ods = ods * len(controls)
    if len(ods) != len(controls) or not ods:
        raise ValueError("od has %d rows but control has %d"
                         % (len(ods), len(controls)))

    if not all(o >= 0.0 for o in ods):
        raise ValueError("od must be nonnegative")
    if grid.n_z < MIN_SLICES:
        raise GridError("n_z too small: need >= %d medium steps" % MIN_SLICES)
    for c, o in zip(controls, ods):
        broken = grid_limit(grid.dt_s, probe.fwhm_s, c.rabi_rad_per_s, o, scheme)
        if broken is not None:
            raise GridError("dt too coarse: need >= 20 points per pulse FWHM"
                            if broken[0] == "fwhm" else
                            "dt too coarse for the fastest atomic rate")

    # input field: unit-energy shape scaled to the mean photon number,
    # detuning as a carrier on the envelope
    t = grid.times()
    shape = probe.field_envelope(t).astype(complex)
    shape *= np.exp(-1j * probe.detuning_rad_per_s * t)
    energy = np.trapezoid(np.abs(shape) ** 2, t)
    if energy <= 0.0:
        raise ValueError("probe pulse has no support on the grid")
    e_in = shape * math.sqrt(probe.mean_photon_number / energy)

    results = []
    for lo in range(0, len(ods), MAX_BATCH_ROWS):
        rows = slice(lo, lo + MAX_BATCH_ROWS)
        results += _propagate_rows(probe, controls[rows], ods[rows], scheme,
                                   grid, t, e_in)
    return results[0] if single else results


def grid_limit(dt_s, fwhm_s, rabi_rad_per_s, od, scheme: LambdaScheme):
    """(rule, largest dt_s it allows) for the grid rule dt_s breaks, else None.

    "fwhm" asks for 20 steps per probe FWHM; otherwise dt_s times the
    fastest rate, "gamma" (Gamma/2), "rabi" (Omega_c/2), "gamma_gs" or
    "kappa" (od Gamma/4, the field's collective drive), must be <= 0.5.
    """
    if dt_s > fwhm_s / 20.0:
        return "fwhm", fwhm_s / 20.0
    gamma = scheme.gamma_ge_rad_per_s
    rates = {"gamma": 0.5 * gamma, "rabi": 0.5 * rabi_rad_per_s,
             "gamma_gs": scheme.gamma_gs_rad_per_s, "kappa": 0.25 * od * gamma}
    fastest = max(rates, key=rates.get)
    if dt_s * rates[fastest] > 0.5:
        return fastest, 0.5 / rates[fastest]
    return None


def _propagate_rows(probe, controls, ods, scheme, grid, t, e_in):
    """Step a batch of rows together; one PropagationResult per row."""
    nt = t.size
    dt = grid.dt_s
    nz = grid.n_z
    gamma = scheme.gamma_ge_rad_per_s
    gamma_gs = scheme.gamma_gs_rad_per_s
    kappa = 0.25 * np.array(ods, dtype=float) * gamma
    peak = np.array([c.rabi_rad_per_s for c in controls])[:, None]
    env_t = np.array([c.envelope(t) for c in controls])
    rabi_t = peak * env_t
    # state and output are zero until a step before the first input sample
    start = max(int(np.flatnonzero(e_in)[0]) - 1, 0)
    rabi_mid = peak * np.array([c.envelope(t[start:-1] + 0.5 * dt) for c in controls])

    def atom_rhs(p, s, e, rabi):  # in p = -i P, whose coefficients are real
        dp = -(0.5 * gamma) * p + e + 0.5 * rabi * s
        ds = -gamma_gs * s - 0.5 * rabi * p
        return dp, ds

    def rk4_step(p, s, e, r0, rm, r1):
        sum_p, sum_s = kp, ks = atom_rhs(p, s, e, r0)
        for weight, half, rabi in ((2.0, 0.5, rm), (2.0, 0.5, rm), (1.0, 1.0, r1)):
            kp, ks = atom_rhs(p + half * dt * kp, s + half * dt * ks, e, rabi)
            sum_p = sum_p + weight * kp
            sum_s = sum_s + weight * ks
        return p + dt / 6.0 * sum_p, s + dt / 6.0 * sum_s

    # the state of row r is (f p, p, S, W~, 1, i): p = -i P, f = -0.5 dz kappa
    # weighs the trapezoid of dE/dzeta = -kappa p (so f p = 0.5 dz i kappa P),
    # and W~ = W - e_in[n] is the field the atoms see less the input field:
    # e_z - e_in[n] at the start of step n and e_z + e_pred - e_in[n] -
    # e_in[n+1], e_pred the predicted step-end field, at its corrector.  The
    # constant slots 1 and i carry the input field's terms.  From step n's
    # RK4 response to each unit input (p, S, E), pred[n, r] maps (p, S, W~,
    # 1, i) to f p plus the predicted f p, whose field sweep is the
    # corrector's W~, and corr[n, r] to the new (f p, p, S); corr's W~
    # column is half the E response.  All of them are real
    rates = (rabi_t[:, start:-1].T, rabi_mid.T, rabi_t[:, start + 1:].T)
    f = (-0.5 / nz) * kappa
    n_steps, n_rows = nt - 1 - start, len(ods)
    pred = np.empty((n_steps, n_rows, 1, 5))
    corr = np.empty((n_steps, n_rows, 3, 5))
    for j, unit in enumerate(np.eye(3)):
        corr[..., 1, j], corr[..., 2, j] = rk4_step(*unit, *rates)
        np.multiply(f, corr[..., 1, j], out=pred[..., 0, j])
    corr[..., 0, :3] = pred[..., 0, :3]
    corr[..., 2] *= 0.5
    pred[..., 0, 0] += f
    e_now, e_sum = e_in[start:-1], e_in[start:-1] + e_in[start + 1:]
    np.multiply(pred[..., 0, 2], e_now.real[:, None], out=pred[..., 0, 3])
    np.multiply(pred[..., 0, 2], e_now.imag[:, None], out=pred[..., 0, 4])
    np.multiply(corr[..., 2], e_sum.real[:, None, None], out=corr[..., 3])
    np.multiply(corr[..., 2], e_sum.imag[:, None, None], out=corr[..., 4])

    # rows whose od and Rabi samples equal row 0's bit for bit up to step
    # `shared` have row 0's step matrices and state until then: they are
    # stepped as one row over that span, and apart from there on
    differs = np.zeros(n_steps, dtype=bool)
    for rate in rates:
        differs |= np.any(rate.view(np.int64) != rate[:, :1].view(np.int64), axis=1)
    differs |= np.any(f.view(np.int64) != f[:1].view(np.int64))
    shared = int(np.argmax(differs)) if differs.any() else n_steps

    # the spin wave is kept at the first step the control has gone dark,
    # from the one stepped row while the row is in the shared span
    env_vals = np.where(peak > 0.0, env_t, 1.0)  # zero peak: never dark
    snap_at = {}
    spinwave = [None] * n_rows
    for r, env in enumerate(env_vals):
        dark = np.flatnonzero(env[1:] <= 1e-3)
        if dark.size and env[0] > 1e-3:
            if dark[0] < start:  # dark before the probe arrives: nothing stored
                spinwave[r] = np.zeros(nz + 1, dtype=complex)
            else:
                src = 0 if dark[0] < start + shared else r
                snap_at.setdefault(int(dark[0]), []).append((r, src))

    # a step reads one state buffer and writes the other: a slot per state
    # row, each row's slices contiguous.  The views into them are made
    # before each span, and a step's matrices and output slot come from
    # iterating the step arrays, so the loop body is seven NumPy calls that
    # build no view.  The real step matrices multiply float views of the
    # complex state, in which each slice is its (real, imaginary) pair.
    # Both field sweeps start at 0, so W~[:, 0] stays 0 and only the
    # running sum of the pairwise sums f (p[j] + p[j+1]) is written
    out_e = np.zeros((n_rows, nt), dtype=complex)
    add, matmul, accumulate = np.add, np.matmul, np.add.accumulate
    lo, old = 0, None
    for hi, m in ((shared, 1), (n_steps, n_rows)):
        states = np.zeros((2, 6, m, nz + 1), dtype=complex)
        states[:, 4], states[:, 5] = 1.0, 1j
        if old is not None:
            states[0] = old[0]  # the shared row's state, one copy per row
        old, new = [(s, s[1:].transpose(1, 0, 2).view(float),
                     s[:3].transpose(1, 0, 2).view(float), s[0, :, 1:],
                     s[0, :, :-1], s[3, :, 1:], s[3, :, -1]) for s in states]
        q = np.empty((m, 1, nz + 1), dtype=complex)
        q_f, q_hi, q_lo = q.view(float), q[:, 0, 1:], q[:, 0, :-1]
        pairs = np.empty((m, nz), dtype=complex)
        steps = zip(pred[lo:hi, :m], corr[lo:hi, :m],
                    out_e.T[start + 1 + lo:start + 1 + hi])
        for n, (pr, co, out_n) in enumerate(steps, start + lo):
            psw, w = old[1], old[5]
            state, _, fps, fp_hi, fp_lo, w_new, e_out = new
            # f p and the predicted f p, whose sweep moves W~ to the corrector's
            matmul(pr, psw, q_f)
            add(q_hi, q_lo, pairs)
            accumulate(pairs, 1, None, w)
            matmul(co, psw, fps)
            add(fp_hi, fp_lo, pairs)
            accumulate(pairs, 1, None, w_new)
            out_n[...] = e_out
            old, new = new, old
            if n in snap_at:
                for r, src in snap_at[n]:
                    spinwave[r] = state[2, src].copy()
        lo = hi
    # freed before the results are built, with the last step's views of them
    del steps, pr, co, pred, corr
    out_e += e_in
    out_flux = np.abs(out_e) ** 2

    in_flux = np.abs(e_in) ** 2
    z_grid = np.linspace(0.0, 1.0, nz + 1)
    results = []
    for r, od in enumerate(ods):  # old[0] holds n_rows rows after the last span
        readout_start_s = _infer_readout_start(t, env_vals[r])
        fp = _fingerprint(
            [t, e_in, rabi_t[r], od, gamma, gamma_gs, nz, probe.shape,
             readout_start_s]
        )
        results.append(_row_result(
            t, in_flux, out_flux[r], rabi_t[r],
            old[0][2, r] if spinwave[r] is None else spinwave[r],
            z_grid, readout_start_s, fp,
        ))
    return results


def _row_result(t, in_flux, out_flux, rabi_t, spinwave, z_grid,
                readout_start_s, fingerprint) -> PropagationResult:
    """Energy budget and pulse delay of one row's output flux."""
    e_total_in = np.trapezoid(in_flux, t)
    e_total_out = np.trapezoid(out_flux, t)
    transmission = e_total_out / e_total_in

    # centroid shift of the transmitted pulse
    c_in = np.trapezoid(t * in_flux, t) / e_total_in
    c_out = (
        np.trapezoid(t * out_flux, t) / e_total_out if e_total_out > 0.0 else c_in
    )

    if readout_start_s is None:
        leak = transmission
        retrieval = 0.0
    else:
        before = t <= readout_start_s
        leak = np.trapezoid(out_flux[before], t[before]) / e_total_in
        after = t >= readout_start_s
        retrieval = np.trapezoid(out_flux[after], t[after]) / e_total_in

    return PropagationResult(
        t_grid_s=t,
        input_intensity=in_flux,
        output_intensity=out_flux,
        control_rabi=rabi_t,
        spinwave=spinwave,
        z_grid=z_grid,
        transmission=float(transmission),
        group_delay_s=float(c_out - c_in),
        leak_fraction=float(leak),
        retrieval_efficiency=float(retrieval),
        readout_start_s=readout_start_s,
        fingerprint=fingerprint,
    )


def _infer_readout_start(t: np.ndarray, env: np.ndarray) -> Optional[float]:
    """First rise of the control after a dark interval, None without one."""
    off = np.flatnonzero(env < 0.01)
    if off.size:
        rise = off[0] + np.flatnonzero(env[off[0]:] >= 0.5)
        if rise.size:
            return float(t[rise[0]])
    return None


def refinement_delta(
    probe: ProbePulse,
    control: ControlField,
    od: float,
    scheme: LambdaScheme,
    grid: PropagationGrid,
) -> float:
    """Relative change of retrieval efficiency under dt and dz halving."""
    coarse = propagate_pulse(probe, control, od, scheme, grid)
    fine_grid = replace(grid, dt_s=0.5 * grid.dt_s, n_z=2 * grid.n_z)
    fine = propagate_pulse(probe, control, od, scheme, fine_grid)
    ref = max(fine.retrieval_efficiency, 1e-12)
    return abs(coarse.retrieval_efficiency - fine.retrieval_efficiency) / ref


def calibrate_control(
    gamma_rad_per_s: float = GAMMA_EFF_RAD_PER_S,
    od: float = ANCHOR_OD,
    transparency: float = ANCHOR_TRANSPARENCY,
    power_high_W: float = ANCHOR_POWER_HIGH_W,
    power_low_W: float = ANCHOR_POWER_LOW_W,
    delay_s: float = ANCHOR_DELAY_S,
    waist_m: float = ANCHOR_WAIST_M,
) -> tuple[float, float]:
    """Solve (calibration, gamma_gs) from the two spectroscopic anchors.

    The window transparency at the high power fixes Omega_c^2 as a
    multiple of gamma_gs; the delay at the low power (Omega^2 scaling
    linearly with power) then pins gamma_gs itself.  Returns the
    rabi_from_power calibration constant and gamma_gs in rad/s.

    With Omega_low^2/4 = c1 (Gamma/2) gamma_gs r, group_delay's line
    centre delay is 0.5 od (c1 (Gamma/2) r / gamma_gs - 1) /
    ((Gamma/2) (1 + c1 r)^2), which falls with gamma_gs for c1 > 0 and
    equals delay_s at the gamma_gs computed below.
    """
    half_g = 0.5 * gamma_rad_per_s
    m = -math.log(transparency) / od
    c1 = 1.0 / m - 1.0  # Omega_high^2/4 = c1 * half_g * gamma_gs
    ratio = power_low_W / power_high_W
    gamma_gs = 0.5 * od * c1 * half_g * ratio / (
        delay_s * half_g * (1.0 + c1 * ratio) ** 2 + 0.5 * od)
    if not 1.0 < gamma_gs < half_g:
        raise ValueError("anchors admit no gamma_gs in (0, Gamma/2)")
    omega_high = 2.0 * math.sqrt(c1 * half_g * gamma_gs)
    calibration = omega_high / rabi_from_power(power_high_W, waist_m, 1.0, gamma_rad_per_s)
    return calibration, gamma_gs
