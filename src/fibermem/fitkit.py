"""Damped least-squares curve fitting with the four registered models.

The solver is a small Levenberg-Marquardt loop with a forward-difference
Jacobian, hand-rolled because importing scipy.optimize would add about
0.3 s and 22 MB resident to every command line run (measured on a 2-core
x86 box, Python 3.11, SciPy 1.17).  Every parameter is positive (each
model's lower bounds are > 0) and is fitted in log space, which keeps
every trial strictly positive and makes the box bounds smooth.  Model
functions delegate to the owning physics modules so a fit can never
drift from the curves the rest of the package produces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import decoherence, eit
from .ensemble import AbsorptionModel, lorentzian_transmission, saturation_transmission

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
    fn: object  # (params, x) -> y


def _saturation_fn(p, x):
    model = AbsorptionModel(alpha0_L=p[0], p_sat_W=p[1], k_exp=p[2])
    return saturation_transmission(x, model)


def _lorentzian_fn(p, x):
    model = AbsorptionModel(od=p[0], gamma_rad_per_s=p[1])
    return lorentzian_transmission(x, model)


def _decay_fn(p, x):
    return decoherence.efficiency_decay(x, p[0], p[1])


def _eit_fn(p, x):
    # trial points may wander into gamma_gs ~ gamma_ge; that is the
    # solver exploring, not a user mistake, so keep it quiet
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scheme = eit.LambdaScheme(gamma_ge_rad_per_s=p[1], gamma_gs_rad_per_s=p[2])
    return eit.eit_spectrum(p[0], scheme, p[3], x)


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
    for val, (lo, hi), name in zip(p, spec.default_bounds, spec.param_names):
        if not lo <= val <= hi:
            raise ValueError("%s=%g outside bounds [%g, %g]" % (name, val, lo, hi))
    return spec.fn(p, np.asarray(x_grid, dtype=float))


def _model_spec(model_id: str) -> ModelSpec:
    if model_id not in MODELS:
        raise ValueError("unknown model %r; known: %s"
                         % (model_id, ", ".join(sorted(MODELS))))
    return MODELS[model_id]


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


def fit(model_id: str, data: Sequence, initial_guess: Optional[Sequence] = None,
        frozen: frozenset = frozenset()) -> FitResult:
    """Minimize the weighted squared residuals of a registered model.

    data holds (x, y) or (x, y, sigma_y) rows; a sigma_y of None counts
    as 1.  frozen names parameters held at their initial_guess values.
    Deterministic: no randomness anywhere in the loop.  Returns with
    converged=False instead of raising when the iteration cap or damping
    ceiling is hit.  Parameters whose Jacobian direction is degenerate
    at the solution are listed in unidentifiable.
    """
    spec = _model_spec(model_id)
    names = spec.param_names
    n_par = len(names)
    rows = list(data)
    if len(rows) < max(3, n_par + 1):
        raise ValueError("need at least %d data points" % max(3, n_par + 1))
    x = np.array([r[0] for r in rows], dtype=float)
    y = np.array([r[1] for r in rows], dtype=float)
    sig = np.array(
        [r[2] if len(r) > 2 and r[2] is not None else 1.0 for r in rows],
        dtype=float,
    )
    finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(sig)
    if not finite.all():
        raise ValueError(
            "data row %d holds a non-finite x, y or sigma_y"
            % (np.flatnonzero(~finite)[0] + 1)
        )
    if np.any(sig <= 0.0):
        raise ValueError("sigma_y must be positive")
    weighted = any(len(r) > 2 and r[2] is not None for r in rows)
    guess = (
        np.asarray(initial_guess, dtype=float)
        if initial_guess is not None
        else np.array(spec.default_guess)
    )
    if guess.shape != (n_par,):
        raise ValueError("initial_guess length mismatch")
    for g, (lo, hi), name in zip(guess, spec.default_bounds, names):
        if not lo <= g <= hi:
            raise ValueError(
                "guess %s=%g outside bounds [%g, %g]" % (name, g, lo, hi)
            )
    unknown = set(frozen) - set(names)
    if unknown:
        raise ValueError("frozen names not in model: %s" % sorted(unknown))

    bounds = spec.default_bounds
    free = np.array([nm not in frozen for nm in names])
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

    def jacobian(theta, r0):
        cols = []
        for j in idx_free:
            h = max(1e-8, 1e-6 * abs(theta[j]))
            step = theta.copy()
            step[j] = min(step[j] + h, hi_int[j])
            actual = step[j] - theta[j]
            if actual == 0.0:
                step[j] = theta[j] - h
                actual = -h
            cols.append((residual(step) - r0) / actual)
        return -np.column_stack(cols)  # d(model)/d(theta) in residual sign

    while n_iter < _MAX_ITER and idx_free.size:
        n_iter += 1
        jac = jacobian(theta, r)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        accepted = False
        while lam <= 1e12:
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-300))
            try:
                delta = np.linalg.solve(damped, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            big = np.max(np.abs(delta))
            if big > _MAX_STEP:
                delta = delta * (_MAX_STEP / big)
            trial = theta.copy()
            trial[idx_free] = np.clip(
                theta[idx_free] + delta, lo_int[idx_free], hi_int[idx_free]
            )
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                step_norm = np.linalg.norm(trial - theta)
                theta_norm = max(np.linalg.norm(theta), 1e-300)
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
        if s[0] == 0.0 or s[-1] / s[0] < 1.0 / _COND_LIMIT:
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
    for i, (name, unit) in enumerate(zip(result.param_names, result.param_units)):
        err = math.sqrt(max(result.covariance[i, i], 0.0))
        flag = " UNIDENTIFIABLE" if name in result.unidentifiable else ""
        lines.append("%s = %.12g +/- %.6g %s%s" % (
            name, result.parameters[i], err, unit, flag))
    return "\n".join(lines) + "\n"
