"""Damped least-squares curve fitting with the four registered models.

The solver is a small Levenberg-Marquardt loop with a forward-difference
Jacobian, hand-rolled because importing scipy.optimize would add about
0.3 s and 22 MB resident to every command line run (measured on a 2-core
x86 box, Python 3.11, SciPy 1.17).  Every parameter is positive (each
model's lower bounds are > 0) and is fitted in log space, which keeps
every trial strictly positive, finite and in bounds, and makes the box
bounds smooth.  So a model's fn is the plain-parameter law of its
physics module, the formula its public curve function evaluates op for
op, without the checks and with no dataclass built (of the curves, only
eit_spectrum takes one, its LambdaScheme).  The data domain is checked
once per call instead: a model whose x is a power or a time
names it in x_nonnegative, and fit and evaluate_model refuse a
negative x with the public curve's message.  fn(x, *params) takes
each parameter as a scalar or as a (k, 1) column and returns (k, n)
curves, one per parameter row, so each Jacobian is one call on a block
of stepped rows.  The loop keeps the 2-4 parameters, their steps and
their bounds in Python floats, which round as NumPy's float64 does, and
calls NumPy only on n-point arrays and where BLAS or LAPACK sets the
bits: every bit is kept and the per-call dispatch on tiny arrays is gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import scalar_or_array
from .decoherence import decay_law
from .eit import driven_transmission
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
    fn: object  # the law: fn(x (n,), *_columns(params (..., n_par))) -> (..., n)
    # the law's name for an x that must be >= 0; None for a detuning
    x_nonnegative: Optional[str] = None


def _columns(p):
    """Parameters as scalars (one row) or as columns that broadcast against x."""
    return list(p) if p.ndim == 1 else [p[..., j, None] for j in range(p.shape[-1])]


MODELS = {
    "saturation": ModelSpec(
        param_names=("alpha0_L", "p_sat_W", "k_exp"),
        param_units=("dimensionless", "W", "dimensionless"),
        default_guess=(5.0, 1e-9, 1.0),
        default_bounds=((1e-3, 1e3), (1e-13, 1e-3), (0.1, 10.0)),
        fn=saturation_law,
        x_nonnegative="p_W",
    ),
    "lorentzian_od": ModelSpec(
        param_names=("od", "gamma_rad_per_s"),
        param_units=("dimensionless", "rad/s"),
        default_guess=(2.0, 2.0 * math.pi * 5e6),
        default_bounds=((1e-3, 1e3), (2.0 * math.pi * 1e5, 2.0 * math.pi * 1e9)),
        fn=lorentzian_law,
    ),
    "decay_lifetime": ModelSpec(
        param_names=("tau_D_s", "tau_T_s"),
        param_units=("s", "s"),
        # distinct scales: the two times enter degenerately when equal
        default_guess=(5e-6, 3e-6),
        default_bounds=((1e-8, 1e-2), (1e-8, 1e-2)),
        fn=decay_law,
        x_nonnegative="t_s",
    ),
    "eit_spectrum": ModelSpec(
        param_names=("od", "gamma_rad_per_s", "gamma_gs_rad_per_s",
                     "omega_c_rad_per_s"),
        param_units=("dimensionless", "rad/s", "rad/s", "rad/s"),
        default_guess=(3.0, 2.0 * math.pi * 6e6, 3e6, 4e7),
        default_bounds=((1e-3, 1e3), (1e6, 1e9), (1e2, 1e8), (1e4, 1e10)),
        fn=driven_transmission,
    ),
}
# each model's box in log space, as lists of floats: [lower bounds, upper bounds]
_LOG_BOUNDS = {m: np.log(np.array(spec.default_bounds, dtype=float)).T.tolist()
               for m, spec in MODELS.items()}


def evaluate_model(model_id: str, parameters, x_grid):
    """Pointwise model curve, delegating to the owning module."""
    spec = _model_spec(model_id)
    p = np.asarray(parameters, dtype=float)
    if p.shape != (len(spec.param_names),):
        raise ValueError(
            "%s expects %d parameters" % (model_id, len(spec.param_names))
        )
    _check_bounds(spec, p)
    x = np.asarray(x_grid, dtype=float)
    _check_x(spec, x)
    return scalar_or_array(spec.fn(x, *_columns(p)))


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


def _check_x(spec: ModelSpec, x: np.ndarray) -> None:
    """Refuse an x outside the model's data domain."""
    if spec.x_nonnegative and np.any(x < 0.0):
        raise ValueError("%s must be nonnegative" % spec.x_nonnegative)


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


# a law past the float range (a Lorentzian wing at 1e154 widths) is its limit
@np.errstate(over="ignore")
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
    if not np.isfinite(data).all():
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))[0]
        raise ValueError("data row %d holds a non-finite x, y or sigma_y" % (bad + 1))
    if weighted:
        if np.any(data[:, 2] <= 0.0):
            raise ValueError("sigma_y must be positive")
        w = 1.0 / data[:, 2]
    _check_x(spec, x)
    guess = (
        np.asarray(initial_guess, dtype=float)
        if initial_guess is not None
        else np.array(spec.default_guess)
    )
    if guess.shape != (n_par,):
        raise ValueError("initial_guess length mismatch")
    _check_bounds(spec, guess.tolist(), "guess ")
    unknown = set(frozen) - set(names)
    if unknown:
        raise ValueError("frozen names not in model: %s" % sorted(unknown))

    idx = [j for j, nm in enumerate(names) if nm not in frozen]
    n_free = len(idx)
    n_x = 1 + np.count_nonzero(np.diff(np.sort(x)))  # np.unique would import numpy.ma
    if n_x < n_free:
        raise ValueError("%d distinct x values cannot identify %d free parameters"
                         % (n_x, n_free))
    lo, hi = _LOG_BOUNDS[model_id]

    def residual(theta):
        # unweighted, w would be 1.0 exactly, so the product is skipped
        r = y - spec.fn(x, *_columns(np.exp(theta)))
        return r * w if weighted else r

    theta = np.log(guess).tolist()
    r = residual(theta)
    cost = float(r @ r)
    history = [cost]
    lam = _LAMBDA0
    converged = False
    n_iter = 0

    def jacobian(theta, r0):
        # one model call on a row of theta per free parameter, each row
        # stepped forward in its own parameter (backward at the upper bound)
        rows, steps = [], []
        for j in idx:
            start = theta[j]
            h = max(1e-8, 1e-6 * abs(start))
            stepped = min(start + h, hi[j])
            row = theta.copy()
            if stepped == start:  # at the upper bound: step backward
                row[j], step = start - h, -h
            else:
                row[j], step = stepped, stepped - start
            rows.append(row)
            steps.append(step)
        block = residual(rows)
        block -= r0
        block /= np.array(steps)[:, None]
        # d(model)/d(theta) in residual sign, laid out as the column stack
        # of one residual difference per parameter, so that jac.T @ jac
        # sums in the same order
        return np.ascontiguousarray(-block.T)

    while n_iter < _MAX_ITER and idx:
        n_iter += 1
        jac = jacobian(theta, r)
        jtj = (jac.T @ jac).tolist()
        jtr = jac.T @ r
        damping = [max(jtj[i][i], 1e-300) for i in range(n_free)]
        accepted = False
        while lam <= 1e12:
            damped = [row.copy() for row in jtj]
            for i, d in enumerate(damping):
                damped[i][i] += lam * d
            try:
                delta = np.linalg.solve(damped, jtr).tolist()
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            big = max(map(abs, delta))
            if big > _MAX_STEP:
                cap = _MAX_STEP / big
                delta = [d * cap for d in delta]
            trial = theta.copy()
            for j, d in zip(idx, delta):
                t = theta[j] + d
                # np.clip's value, NaN included
                trial[j] = hi[j] if t > hi[j] else lo[j] if t < lo[j] else t
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                step = np.subtract(trial, theta)
                step_norm = math.sqrt(step @ step)
                theta_arr = np.array(theta)
                theta_norm = max(math.sqrt(theta_arr @ theta_arr), 1e-300)
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
    for j, nm in enumerate(names):
        if nm in frozen:
            params[j] = guess[j]  # verbatim, no transform wobble
    dof = max(x.size - n_free, 1)
    red_chi2 = cost / dof

    unidentifiable = []
    cov = np.zeros((n_par, n_par))
    if not idx:
        converged = True
    else:
        jac = jacobian(theta, r)
        jtj = jac.T @ jac
        u, s, vt = np.linalg.svd(jtj)
        if s[0] == 0.0:  # a flat model: no direction is identified
            unidentifiable = [names[k] for k in idx]
            cov[idx, idx] = np.inf
            converged = False
        else:
            if s[-1] / s[0] < 1.0 / _COND_LIMIT:
                bad = np.abs(vt[-1]) > 1.0 / math.sqrt(n_free) * 0.5
                unidentifiable = [names[idx[k]] for k in np.flatnonzero(bad)]
                s = np.where(s / s[0] < 1.0 / _COND_LIMIT, np.inf, s)
            cov_int = (vt.T * (1.0 / s)) @ vt * red_chi2
            # delta-method back-transform from log space
            scale = params[idx]
            cov[np.ix_(idx, idx)] = cov_int * np.outer(scale, scale)

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
