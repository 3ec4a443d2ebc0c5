"""Damped least-squares curve fitting with the four registered models.

The solver is a small Levenberg-Marquardt loop with a forward-difference
Jacobian, hand-rolled because importing scipy.optimize would add about
0.3 s and 22 MB resident to every command line run (measured on a 2-core
x86 box, Python 3.11, SciPy 1.17).  Every parameter is positive (each
model's lower bounds are > 0) and is fitted in log space, which keeps
every trial strictly positive, finite and in bounds, and makes the box
bounds smooth.  So a model's fn calls the plain-parameter law of its
physics module, the formula its public curve function evaluates op for
op, without the parameter checks and with no dataclass built; negative
powers and times in the data are still refused.  fn maps params
(..., n_par) and x (n,) to curves (..., n), one per parameter row, so
each Jacobian is one call on a block of stepped rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import eit
from .constants import scalar_or_array
from .decoherence import decay_law
from .ensemble import lorentzian_law, saturation_law
# bound here by name for perfbench/tracer.py; the fits call the laws above
from .ensemble import lorentzian_transmission, saturation_transmission  # noqa: F401

_MAX_ITER = 200
_TOL = 1e-10
_LAMBDA0 = 1e-3
_COND_LIMIT = 1e12
# per-iteration cap on the log-space step; keeps a near-singular normal
# matrix from slamming a parameter into its bound on the first move
_MAX_STEP = 2.0


@dataclass(frozen=True)
class ModelSpec:
    param_names: tuple
    param_units: tuple
    default_guess: tuple
    default_bounds: tuple
    fn: object  # (params (..., n_par), x (n,)) -> (..., n)


def _columns(p):
    """Parameters as scalars (one row) or as columns that broadcast against x."""
    return list(p) if p.ndim == 1 else [p[..., j, None] for j in range(p.shape[-1])]


def _saturation_fn(p, x):
    return saturation_law(x, *_columns(p))


def _lorentzian_fn(p, x):
    return lorentzian_law(x, *_columns(p))


def _decay_fn(p, x):
    return decay_law(x, *_columns(p))


def _eit_fn(p, x):
    od, gamma_ge, gamma_gs, omega_c = _columns(p)
    return np.exp(-od * np.imag(eit.driven_chi(x, gamma_ge, gamma_gs, omega_c)))


MODELS = {
    "saturation": ModelSpec(
        param_names=("alpha0_L", "p_sat_W", "k_exp"),
        param_units=("dimensionless", "W", "dimensionless"),
        default_guess=(5.0, 1e-9, 1.0),
        default_bounds=((1e-3, 1e3), (1e-13, 1e-3), (0.1, 10.0)),
        fn=_saturation_fn,
    ),
    "lorentzian_od": ModelSpec(
        param_names=("od", "gamma_rad_per_s"),
        param_units=("dimensionless", "rad/s"),
        default_guess=(2.0, 2.0 * math.pi * 5e6),
        default_bounds=((1e-3, 1e3), (2.0 * math.pi * 1e5, 2.0 * math.pi * 1e9)),
        fn=_lorentzian_fn,
    ),
    "decay_lifetime": ModelSpec(
        param_names=("tau_D_s", "tau_T_s"),
        param_units=("s", "s"),
        # distinct scales: the two times enter degenerately when equal
        default_guess=(5e-6, 3e-6),
        default_bounds=((1e-8, 1e-2), (1e-8, 1e-2)),
        fn=_decay_fn,
    ),
    "eit_spectrum": ModelSpec(
        param_names=("od", "gamma_rad_per_s", "gamma_gs_rad_per_s",
                     "omega_c_rad_per_s"),
        param_units=("dimensionless", "rad/s", "rad/s", "rad/s"),
        default_guess=(3.0, 2.0 * math.pi * 6e6, 3e6, 4e7),
        default_bounds=((1e-3, 1e3), (1e6, 1e9), (1e2, 1e8), (1e4, 1e10)),
        fn=_eit_fn,
    ),
}


def evaluate_model(model_id: str, parameters, x_grid):
    """Pointwise model curve, delegating to the owning module."""
    spec = _model_spec(model_id)
    p = np.asarray(parameters, dtype=float)
    if p.shape != (len(spec.param_names),):
        raise ValueError(
            "%s expects %d parameters" % (model_id, len(spec.param_names))
        )
    _check_bounds(spec, p)
    return scalar_or_array(spec.fn(p, np.asarray(x_grid, dtype=float)))


def _model_spec(model_id: str) -> ModelSpec:
    if model_id not in MODELS:
        raise ValueError("unknown model %r; known: %s"
                         % (model_id, ", ".join(sorted(MODELS))))
    return MODELS[model_id]


def _check_bounds(spec: ModelSpec, values, label: str = "") -> None:
    """Refuse a value outside its parameter's bounds; label leads the message."""
    for val, (lo, hi), name in zip(values, spec.default_bounds, spec.param_names):
        if not lo <= val <= hi:
            raise ValueError(
                "%s%s=%g outside bounds [%g, %g]" % (label, name, val, lo, hi))


@dataclass(frozen=True)
class FitResult:
    model_id: str
    param_names: tuple
    param_units: tuple
    parameters: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    chi2_unitless: bool
    converged: bool
    n_iterations: int
    cost_history: tuple
    unidentifiable: tuple

    def parameter(self, name: str) -> float:
        return float(self.parameters[self.param_names.index(name)])

    def uncertainty(self, name: str) -> float:
        i = self.param_names.index(name)
        return float(math.sqrt(max(self.covariance[i, i], 0.0)))


def fit(model_id: str, data, initial_guess: Optional[Sequence] = None,
        frozen: frozenset = frozenset()) -> FitResult:
    """Minimize the weighted squared residuals of a registered model.

    data is an (n, 2) or (n, 3) array-like of x, y[, sigma_y] rows in SI
    units; the third column weights the fit.  frozen names parameters
    held at their initial_guess values.
    Deterministic: no randomness anywhere in the loop.  Returns with
    converged=False instead of raising when the iteration cap or damping
    ceiling is hit.  Parameters whose Jacobian direction is degenerate
    at the solution are listed in unidentifiable.
    """
    spec = _model_spec(model_id)
    names = spec.param_names
    n_par = len(names)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] not in (2, 3):
        raise ValueError("data must be an (n, 2) or (n, 3) array of x, y and"
                         " an optional sigma_y, got shape %s" % (data.shape,))
    if len(data) < max(3, n_par + 1):
        raise ValueError("need at least %d data points" % max(3, n_par + 1))
    weighted = data.shape[1] == 3
    x, y = data[:, 0], data[:, 1]
    sig = data[:, 2] if weighted else np.ones(len(data))
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError("data row %d holds a non-finite x, y or sigma_y"
                         % (bad[0] + 1))
    if np.any(sig <= 0.0):
        raise ValueError("sigma_y must be positive")
    guess = (
        np.asarray(initial_guess, dtype=float)
        if initial_guess is not None
        else np.array(spec.default_guess)
    )
    if guess.shape != (n_par,):
        raise ValueError("initial_guess length mismatch")
    _check_bounds(spec, guess, "guess ")
    unknown = set(frozen) - set(names)
    if unknown:
        raise ValueError("frozen names not in model: %s" % sorted(unknown))

    bounds = spec.default_bounds
    free = np.array([nm not in frozen for nm in names])
    n_x = 1 + np.count_nonzero(np.diff(np.sort(x)))  # np.unique would import numpy.ma
    if n_x < free.sum():
        raise ValueError("%d distinct x values cannot identify %d free parameters"
                         % (n_x, free.sum()))
    lo_int, hi_int = np.log(np.array(bounds, dtype=float)).T
    w = 1.0 / sig

    def residual(theta):
        return (y - spec.fn(np.exp(theta), x)) * w

    theta = np.log(guess)
    r = residual(theta)
    cost = float(r @ r)
    history = [cost]
    lam = _LAMBDA0
    converged = False
    n_iter = 0
    idx_free = np.flatnonzero(free)
    free_hi = list(zip(idx_free.tolist(), hi_int[idx_free].tolist()))

    def jacobian(theta, r0):
        # one model call on a row of theta per free parameter, each row
        # stepped forward in its own parameter (backward at the upper bound)
        rows = np.empty((idx_free.size, theta.size))
        rows[:] = theta
        actual = []
        values = theta.tolist()  # Python floats round alike, at less cost
        for row, (j, hi) in enumerate(free_hi):
            start = values[j]
            h = max(1e-8, 1e-6 * abs(start))
            stepped = min(start + h, hi)
            if stepped == start:  # at the upper bound: step backward
                rows[row, j], step = start - h, -h
            else:
                rows[row, j], step = stepped, stepped - start
            actual.append(step)
        block = residual(rows)
        block -= r0
        block /= np.array(actual)[:, None]
        # d(model)/d(theta) in residual sign, laid out as the column stack
        # of one residual difference per parameter, so that jac.T @ jac
        # sums in the same order
        return np.ascontiguousarray(-block.T)

    while n_iter < _MAX_ITER and idx_free.size:
        n_iter += 1
        jac = jacobian(theta, r)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        damping = np.maximum(np.diag(jtj), 1e-300)
        accepted = False
        while lam <= 1e12:
            damped = jtj.copy()
            damped.flat[::idx_free.size + 1] += lam * damping
            try:
                delta = np.linalg.solve(damped, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            big = np.max(np.abs(delta))
            if big > _MAX_STEP:
                delta *= _MAX_STEP / big
            trial = theta.copy()
            trial[idx_free] = np.clip(
                theta[idx_free] + delta, lo_int[idx_free], hi_int[idx_free]
            )
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                step = trial - theta
                step_norm = math.sqrt(step @ step)
                theta_norm = max(math.sqrt(theta @ theta), 1e-300)
                rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                theta, r, cost = trial, r_trial, cost_trial
                history.append(cost)
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if rel_drop < _TOL or step_norm / theta_norm < _TOL:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            break

    params = np.exp(theta)
    params[~free] = guess[~free]  # frozen values verbatim, no transform wobble
    dof = max(x.size - int(free.sum()), 1)
    red_chi2 = cost / dof

    unidentifiable = []
    cov = np.zeros((n_par, n_par))
    if not idx_free.size:
        converged = True
    else:
        jac = jacobian(theta, r)
        jtj = jac.T @ jac
        u, s, vt = np.linalg.svd(jtj)
        if s[0] == 0.0:  # a flat model: no direction is identified
            unidentifiable = [names[k] for k in idx_free]
            cov[idx_free, idx_free] = np.inf
        else:
            if s[-1] / s[0] < 1.0 / _COND_LIMIT:
                bad = np.abs(vt[-1]) > 1.0 / math.sqrt(idx_free.size) * 0.5
                unidentifiable = [names[idx_free[k]] for k in np.flatnonzero(bad)]
                s = np.where(s / s[0] < 1.0 / _COND_LIMIT, np.inf, s)
            cov_int = (vt.T * (1.0 / s)) @ vt * red_chi2
            # delta-method back-transform from log space
            scale = params[idx_free]
            cov[np.ix_(idx_free, idx_free)] = cov_int * np.outer(scale, scale)

    return FitResult(
        model_id=model_id,
        param_names=names,
        param_units=spec.param_units,
        parameters=params,
        covariance=cov,
        reduced_chi2=float(red_chi2),
        chi2_unitless=not weighted,
        converged=converged,
        n_iterations=n_iter,
        cost_history=tuple(history),
        unidentifiable=tuple(unidentifiable),
    )


def format_result(result: FitResult) -> str:
    """Human-readable fit report, stable layout for file output."""
    lines = ["model: %s" % result.model_id,
             "converged: %s" % result.converged,
             "iterations: %d" % result.n_iterations,
             "reduced_chi2: %.12g%s" % (
                 result.reduced_chi2,
                 " (unit-less: unweighted fit)" if result.chi2_unitless else "")]
    for name, value, unit in zip(result.param_names, result.parameters,
                                 result.param_units):
        flag = " UNIDENTIFIABLE" if name in result.unidentifiable else ""
        lines.append("%s = %.12g +/- %.6g %s%s" % (
            name, value, result.uncertainty(name), unit, flag))
    return "\n".join(lines) + "\n"
