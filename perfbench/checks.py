"""Output checks: every request either passes them or counts as failed.

A request fails when ``fibermem.cli.entry`` raises or returns non-zero,
or when its output breaks one of these rules:

* every CSV cell is finite;
* storage: 0 <= retrieval and leak + retrieval <= 1 + 1e-9, both
  recomputed from the CSV columns; fig3c efficiencies lie in [0, 1];
* mode scan: 1 < n_eff < n_core and 0 < evanescent fraction < 1;
* fits converge and every parameter lies within 5 sigma of the truth
  the benchmark seeded; scenario self-fits converge;
* a later pass reproduces the first pass's CSV and stdout byte for byte;
* for the default seed, the values match ``reference.json`` (see
  ``compare_reference`` for the tolerances): efficiencies, leak, n_eff,
  surface intensities, the column sums of the light scenarios' CSVs and
  the fit parameters.
"""

from __future__ import annotations

import hashlib
import math
import random
import re

PULL_LIMIT = 5.0
# Relative tolerance for efficiencies, n_eff, surface intensities and
# the light scenarios' column sums.
# Admits refactors that move them by <= 1e-12 (propagator) or ~1e-13
# (root finder, quadrature nodes) plus %.12g rounding; any change of the
# physics moves them by far more.
VALUE_RTOL = 1e-9
# Fit parameters may move by this share of their standard error: admits
# a change of optimiser that lands within 1e-3 sigma of the same minimum.
FIT_SIGMA_TOL = 0.01

_ROWS = re.compile(r"^wrote .* \((\d+) rows, config ")
_FIT_PARAM = re.compile(r"^(\w+) = (\S+) \+/- (\S+)")


def read_csv(path: str):
    """Header names and float rows of a fibermem CSV."""
    header, rows = None, []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            rows.append([float(c) for c in cells])
    return header or [], rows


def column(header, rows, name):
    i = header.index(name)
    return [r[i] for r in rows]


def parse_summary(stdout: str) -> dict:
    """Indented ``key value`` lines printed by ``fibermem sim``."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            key, _, value = line.strip().partition(" ")
            out[key] = value.strip()
    return out


def parse_rows(stdout: str) -> int:
    for line in stdout.splitlines():
        m = _ROWS.match(line)
        if m:
            return int(m.group(1))
    return 0


def parse_fit(stdout: str):
    """(converged, {name: (value, sigma)}) from ``format_result`` text."""
    converged = False
    params = {}
    for line in stdout.splitlines():
        if line.startswith("converged:"):
            converged = line.split(":", 1)[1].strip() == "True"
        m = _FIT_PARAM.match(line)
        if m:
            params[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    return converged, params


def _trapezoid(x, y) -> float:
    return sum(0.5 * (x[i + 1] - x[i]) * (y[i + 1] + y[i]) for i in range(len(x) - 1))


def _storage_energies(header, rows, readout_ns):
    """Leak and retrieved fractions of the input energy, as the program
    defines them: output before / after the readout start."""
    t = column(header, rows, "time_ns")
    f_in = column(header, rows, "input_flux_per_s")
    f_out = column(header, rows, "output_flux_per_s")
    e_in = _trapezoid(t, f_in)
    before = [i for i, ti in enumerate(t) if ti <= readout_ns]
    after = [i for i, ti in enumerate(t) if ti >= readout_ns]
    leak = _trapezoid([t[i] for i in before], [f_out[i] for i in before]) / e_in
    ret = _trapezoid([t[i] for i in after], [f_out[i] for i in after]) / e_in
    return leak, ret


def check_sim(request, stdout: str):
    """Problems found in a sim's output and the values kept for the
    reference comparison."""
    header, rows = read_csv(request.out)
    problems = []
    if not rows:
        return ["%s wrote no rows" % request.out], {}
    bad = sum(1 for r in rows for v in r if not math.isfinite(v))
    if bad:
        problems.append("%d non-finite CSV cells" % bad)
    if len(rows) != parse_rows(stdout):
        problems.append("row count in stdout differs from the CSV")
    if "rows" in request.expect and len(rows) != request.expect["rows"]:
        problems.append("%d rows, expected %d" % (len(rows), request.expect["rows"]))
    summary = parse_summary(stdout)
    values = {}
    name = request.name
    if name == "fig3c":
        eff = column(header, rows, "efficiency")
        if not all(0.0 <= e <= 1.0 + 1e-9 for e in eff):
            problems.append("efficiency outside [0, 1]: %r" % eff)
        values["efficiency"] = eff
    elif name in ("fig3b", "custom"):
        try:
            readout = float(summary["readout_start_ns"])
            printed = float(summary["retrieval_efficiency"])
        except (KeyError, ValueError):
            return problems + ["storage summary lacks readout or efficiency"], {}
        if not math.isfinite(readout):
            return problems + ["no readout after the dark interval"], {}
        leak, ret = _storage_energies(header, rows, readout)
        if not ret >= 0.0:
            problems.append("negative retrieval %r" % ret)
        if not leak + ret <= 1.0 + 1e-9:
            problems.append("leak %r + retrieval %r exceed the input" % (leak, ret))
        if abs(ret - printed) > 2e-5 * abs(ret) + 1e-9:
            problems.append("printed retrieval %r disagrees with the CSV %r" % (printed, ret))
        values["retrieval"] = [ret]
        values["leak"] = [leak]
    elif name == "mode_scan":
        n_eff = column(header, rows, "n_eff")
        frac = column(header, rows, "evanescent_fraction")
        surf = column(header, rows, "surface_intensity_W_m2_per_W")
        core = request.expect["core_index"]
        if not all(1.0 < n < core for n in n_eff):
            problems.append("n_eff outside (1, %g)" % core)
        if not all(0.0 < f < 1.0 for f in frac):
            problems.append("evanescent fraction outside (0, 1)")
        if not all(s > 0.0 for s in surf):
            problems.append("surface intensity not positive")
        values["n_eff"] = n_eff
        values["surface_intensity"] = surf
    else:
        # light scenarios: a fit run on their own output cannot see a
        # change of the model that made it, so keep the curves themselves
        values["abs_sums"] = [sum(abs(v) for v in col) for col in zip(*rows)]
    if summary.get("fit_converged", "yes") != "yes":
        problems.append("scenario self-fit did not converge")
    return problems, values


def resolve_truth(request, source_summary: dict) -> dict:
    """Seeded truth of each fit parameter; summary-derived ones are the
    source sim's printed value times a unit factor."""
    truth = {}
    for name, spec in request.fit["truth"].items():
        if isinstance(spec, (tuple, list)):
            key, factor = spec
            truth[name] = float(source_summary[key]) * factor
        else:
            truth[name] = float(spec)
    return truth


def write_fit_data(request, source_csv: str) -> None:
    """x, y + seeded Gaussian noise, sigma, from the source sim's CSV."""
    xname, yname = request.fit["columns"]
    header, rows = read_csv(source_csv)
    x = column(header, rows, xname)
    y = column(header, rows, yname)
    sigma = request.fit["sigma"]
    rng = random.Random(request.fit["noise_seed"])
    lines = ["%s,%s,sigma" % (xname, yname)]
    for xi, yi in zip(x, y):
        lines.append("%.12g,%.12g,%.6g" % (xi, yi + rng.gauss(0.0, sigma), sigma))
    with open(request.data, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def fit_argv(request, truth: dict) -> list:
    names = list(truth)
    guess = [truth[n] * f for n, f in zip(names, request.fit["guess_factors"])]
    return ["fit", request.name, "--data", request.data,
            "--guess", ",".join("%.6g" % g for g in guess)]


def check_fit(stdout: str, truth: dict):
    converged, params = parse_fit(stdout)
    problems = []
    if not converged:
        problems.append("fit did not converge")
    values = {"params": [], "sigmas": []}
    for name, true_value in truth.items():
        if name not in params:
            problems.append("fit printed no %s" % name)
            continue
        value, sigma = params[name]
        if not (math.isfinite(value) and math.isfinite(sigma) and sigma > 0.0):
            problems.append("%s = %r +/- %r is not a finite estimate" % (name, value, sigma))
        elif abs(value - true_value) > PULL_LIMIT * sigma:
            problems.append("%s = %r +/- %r is %.1f sigma from the truth %r"
                            % (name, value, sigma, abs(value - true_value) / sigma, true_value))
        values["params"].append(value)
        values["sigmas"].append(sigma)
    return problems, values


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compare_reference(values: dict, reference: dict) -> list:
    """Differences between this run's values and the committed ones."""
    if set(values) != set(reference):
        return ["reference keys %s, got %s" % (sorted(reference), sorted(values))]
    problems = []
    if "params" in reference:
        if len(values["params"]) != len(reference["params"]):
            return ["%d fit parameters, reference has %d"
                    % (len(values["params"]), len(reference["params"]))]
        for i, (v, r, s) in enumerate(zip(values["params"], reference["params"],
                                          reference["sigmas"])):
            if not abs(v - r) <= FIT_SIGMA_TOL * s:
                problems.append("fit parameter %d: %r, reference %r +/- %r" % (i, v, r, s))
        return problems
    for key, ref in reference.items():
        got = values[key]
        if len(got) != len(ref):
            problems.append("%s: %d values, reference has %d" % (key, len(got), len(ref)))
            continue
        for i, (v, r) in enumerate(zip(got, ref)):
            if not abs(v - r) <= VALUE_RTOL * max(abs(v), abs(r)):
                problems.append("%s[%d]: %r, reference %r" % (key, i, v, r))
    return problems
