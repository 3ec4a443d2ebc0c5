"""Seeded inputs for the benchmark workloads.

Every request is an argument list for ``fibermem.cli.entry``.  The
program sees only these arguments, the INI overlays written by
``Workload.write_files`` and the noisy x,y,sigma CSVs that the harness
derives from earlier outputs.  Draws use ``random.Random`` seeded from
the workload name and the seed, so the same seed gives the same inputs
on any machine and a different seed gives different ones.

Sizes are fixed per workload and only the values are drawn, so the
work in one pass hardly depends on the seed.  Where a drawn value sets
the cost of a request (``storage.n_z``, ``storage.dt_ns``) it is drawn
stratified: one value per bin of a fixed set, in a seeded order.
``storage.n_z`` lies within a few slices of its bin's centre, so that
the cost of a pass, and the request at its median, are the same for
every seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("kernels", "analysis")

# Storage runs stop at 800 ns, once the retrieved pulse has left (the
# default span runs to 1400 ns); retrieval moves by < 1e-4 relative at
# the reference point, and each request repeats more often in a run.
_STORAGE_SPAN = {"storage.t_stop_ns": 800.0}
# Short storage grid for warm-up requests and tiny passes.
_SHORT_STORAGE = {"storage.t_stop_ns": 700.0, "storage.n_z": 50}

# Which of the nine n_z strata of the independent storage points run at
# dt = 0.25 ns.  Fixed, so the median point always falls inside the
# dt = 0.5 ns group instead of in the gap between the two groups' latencies.
_FINE_DT_STRATA = (1, 4, 7)

# Groups of 11 requests in one analysis pass.
ANALYSIS_GROUPS = 30


@dataclass
class Request:
    """One CLI call.

    ``kind`` is ``sim`` or ``fit``; ``name`` is the scenario or model id.
    A sim writes ``out``.  A fit reads the noisy CSV ``data`` that the
    harness writes from the CSV of request ``fit["source"]``; its
    ``--guess`` is the truth times ``fit["guess_factors"]`` and is filled
    in once the truth is known, so ``argv`` is ``None`` until then.
    ``expect`` holds what the checker needs: known truths and sizes.
    """

    kind: str
    name: str
    argv: Optional[list]
    out: Optional[str] = None
    data: Optional[str] = None
    fit: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    requests: list
    warmup: list  # argv lists run before timing, in every fresh interpreter
    files: dict  # path -> text, written before any request

    def write_files(self) -> None:
        for path, text in self.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)


def _fmt(value) -> str:
    return "%.6g" % value


def _sim(scenario: str, out: str, sets: dict, config: Optional[str] = None) -> list:
    argv = ["sim", scenario, "--out", out]
    if config is not None:
        argv += ["--config", config]
    for key, value in sets.items():
        argv += ["--set", "%s=%s" % (key, value if isinstance(value, str) else _fmt(value))]
    return argv


def _rounded(value: float) -> float:
    """The value as the program will read it back from ``_fmt``."""
    return float(_fmt(value))


def _storage_sweep(rng, work, tiny):
    n_req, n_dark = (1, 2) if tiny else (3, 3)
    requests = []
    for i in range(n_req):
        dark_min = _rounded(rng.uniform(10.0, 60.0))
        step = _rounded(rng.uniform(15.0, 45.0))
        sets = {
            **_STORAGE_SPAN,
            "storage.od": rng.uniform(6.0, 16.0),
            "control.power_mW": rng.uniform(1.0, 3.0),
            "storage.dark_min_ns": dark_min,
            "storage.dark_step_ns": step,
            "storage.dark_max_ns": "%.10g" % (dark_min + (n_dark - 1) * step),
        }
        if tiny:
            sets.update(_SHORT_STORAGE)
        out = os.path.join(work, "sweep_%d.csv" % i)
        requests.append(
            Request("sim", "fig3c", _sim("fig3c", out, sets), out=out,
                    expect={"rows": n_dark})
        )
    warm_out = os.path.join(work, "warmup", "fig3c.csv")
    warm = dict(_SHORT_STORAGE, **{"storage.dark_min_ns": 30.0, "storage.dark_max_ns": 30.0})
    return requests, [_sim("fig3c", warm_out, warm)], {}


def _storage_points(rng, work, tiny):
    n_req = 2 if tiny else 9
    order = list(range(n_req))
    rng.shuffle(order)
    requests = []
    for i, stratum in enumerate(order):
        n_z = int(50 + 350.0 * (stratum + 0.5) / n_req) + rng.randint(-3, 3)
        sets = {
            **_STORAGE_SPAN,
            "storage.od": rng.uniform(5.0, 20.0),
            "control.power_mW": rng.uniform(0.8, 3.5),
            "storage.dark_ns": rng.uniform(10.0, 150.0),
            "storage.ramp_ns": rng.uniform(5.0, 20.0),
            "probe.detuning_MHz": rng.uniform(-1.5, 1.5),
            "probe.shape": rng.choice(["exponential-rising", "gaussian", "square"]),
            "storage.n_z": n_z,
            "storage.dt_ns": 0.25 if stratum in _FINE_DT_STRATA else 0.5,
        }
        if tiny:
            sets.update(_SHORT_STORAGE)
            sets["storage.dt_ns"] = 0.5
        scenario = "fig3b" if i % 2 == 0 else "custom"
        out = os.path.join(work, "point_%d.csv" % i)
        requests.append(Request("sim", scenario, _sim(scenario, out, sets), out=out))
    warm_out = os.path.join(work, "warmup", "custom.csv")
    return requests, [_sim("custom", warm_out, _SHORT_STORAGE)], {}


def _waveguide_scan(rng, work, tiny):
    n_req, n_diam = (1, 4) if tiny else (4, 30)
    requests = []
    for i in range(n_req):
        d_min = _rounded(rng.uniform(250.0, 330.0))
        step = _rounded(rng.uniform(4.0, 9.0))
        core = _rounded(rng.uniform(1.44, 1.47))
        sets = {
            "fiber.wavelength_nm": rng.uniform(780.0, 900.0),
            "fiber.core_index": core,
            "scan.diameter_min_nm": d_min,
            "scan.diameter_step_nm": step,
            "scan.diameter_max_nm": "%.10g" % (d_min + (n_diam - 1) * step),
        }
        out = os.path.join(work, "scan_%d.csv" % i)
        requests.append(
            Request("sim", "mode_scan", _sim("mode_scan", out, sets), out=out,
                    expect={"core_index": core, "rows": n_diam})
        )
    warm_out = os.path.join(work, "warmup", "mode_scan.csv")
    warm = {"scan.diameter_min_nm": 300.0, "scan.diameter_max_nm": 310.0}
    return requests, [_sim("mode_scan", warm_out, warm)], {}


def _kernels(rng, work, tiny):
    """Storage sweeps, independent storage points and mode scans: the two
    heavy kernels, ``eit.propagate_pulse`` and ``waveguide.solve_he11``."""
    requests, warmup = [], []
    for part in (_storage_sweep, _storage_points, _waveguide_scan):
        part_requests, part_warmup, _ = part(rng, work, tiny)
        requests += part_requests
        warmup += part_warmup
    return requests, warmup, {}


def _fit_request(rng, model, source, data, truth, columns):
    """A fit of ``model`` to noisy data derived from request ``source``.

    ``truth`` maps each parameter to a number or to ``(summary key,
    factor)``: the value the source sim printed, times the factor.
    """
    return Request(
        "fit", model, None, data=data,
        fit={
            "source": source,
            "noise_seed": rng.getrandbits(32),
            "sigma": _rounded(rng.uniform(0.002, 0.006)),
            "guess_factors": [math.exp(rng.uniform(-0.1, 0.1)) for _ in truth],
            "columns": columns,
            "truth": truth,
        },
    )


def _analysis(rng, work, tiny):
    n_groups = 1 if tiny else ANALYSIS_GROUPS
    requests, files = [], {}
    mhz = 2.0 * math.pi * 1e6
    for g in range(n_groups):
        gdir = os.path.join(work, "g%02d" % g)
        ini = os.path.join(gdir, "overlay.ini")
        gamma_MHz = _rounded(rng.uniform(5.5, 8.0))
        gamma_gs = _rounded(rng.uniform(3e6, 6e6))
        spec_od = _rounded(rng.uniform(1.5, 5.0))
        # ConfigParser lowercases option names, so the overlay carries
        # only all-lowercase keys; mixed-case ones such as gamma_MHz go
        # through --set
        files[ini] = "\n".join([
            "[scheme]",
            "gamma_gs_rad_per_s = %s" % _fmt(gamma_gs),
            "[spectroscopy]",
            "od = %s" % _fmt(spec_od),
            "[slowlight]",
            "od = %s" % _fmt(rng.uniform(2.0, 5.0)),
            "",
        ])
        line = {"scheme.gamma_MHz": gamma_MHz,
                "spectroscopy.span_MHz": rng.uniform(20.0, 35.0)}
        cloud = {"decoherence.temperature_uK": rng.uniform(100.0, 400.0),
                 "decoherence.zeeman_kHz": rng.uniform(50.0, 150.0),
                 "control.angle_deg": rng.uniform(8.0, 20.0)}

        def sim(scenario, sets):
            out = os.path.join(gdir, scenario + ".csv")
            requests.append(
                Request("sim", scenario, _sim(scenario, out, sets, ini), out=out)
            )
            return len(requests) - 1

        def fit(model, source, truth, columns):
            data = os.path.join(gdir, model + "_data.csv")
            requests.append(_fit_request(rng, model, source, data, truth, columns))

        sat = {
            "absorption.alpha0_L": _rounded(rng.uniform(3.0, 10.0)),
            "absorption.p_sat_nW": _rounded(rng.uniform(0.5, 3.0)),
            "absorption.k_exp": _rounded(rng.uniform(0.7, 1.5)),
        }
        i1b = sim("fig1b", sat)
        line_od = _rounded(rng.uniform(1.5, 5.0))
        i1c = sim("fig1c", dict(line, **{"spectroscopy.od": line_od}))
        powers = sorted(_rounded(rng.uniform(0.3, 3.0)) for _ in range(3))
        i2 = sim("fig2", dict(line, **{
            "spectroscopy.powers_mW": ",".join(_fmt(p) for p in powers)}))
        sim("fig3a", {
            "scheme.gamma_MHz": gamma_MHz,
            "slowlight.power_min_mW": rng.uniform(0.2, 0.5),
            "slowlight.power_max_mW": rng.uniform(2.0, 4.0),
        })
        # fig4a keeps the default cloud: from its default guess the
        # lifetime fit walks tau_D to its bound at many nearby points
        i4a = sim("fig4a", {"decoherence.points": rng.randint(1101, 1301)})
        sim("fig4b", dict(cloud, **{"magnetic.b_field_G": rng.uniform(0.3, 0.6)}))
        sim("fig4c", dict(cloud, **{"magnetic.b_field_alt_G": rng.uniform(0.5, 0.9)}))

        fit("saturation", i1b, {
            "alpha0_L": sat["absorption.alpha0_L"],
            "p_sat_W": sat["absorption.p_sat_nW"] * 1e-9,
            "k_exp": sat["absorption.k_exp"],
        }, ("power_nW", "transmission"))
        fit("lorentzian_od", i1c, {
            "od": line_od, "gamma_rad_per_s": gamma_MHz * mhz,
        }, ("detuning_MHz", "transmission"))
        tag = ("%g" % rng.choice(powers)).replace(".", "p")
        fit("eit_spectrum", i2, {
            "od": spec_od,
            "gamma_rad_per_s": gamma_MHz * mhz,
            "gamma_gs_rad_per_s": gamma_gs,
            "omega_c_rad_per_s": ("rabi_%smW_MHz" % tag, mhz),
        }, ("detuning_MHz", "transmission_%smW" % tag))
        fit("decay_lifetime", i4a, {
            "tau_D_s": ("tau_dephasing_us", 1e-6),
            "tau_T_s": ("tau_transit_us", 1e-6),
        }, ("time_us", "relative_efficiency"))

    # one untimed sim of each light scenario, plus a fit per model on
    # the noise-free curves they write
    wdir = os.path.join(work, "warmup")
    warmup = []
    for scenario in ("fig1b", "fig1c", "fig2", "fig3a", "fig4a", "fig4b", "fig4c"):
        warmup.append(_sim(scenario, os.path.join(wdir, scenario + ".csv"), {}))
    for model, scenario in (("saturation", "fig1b"), ("lorentzian_od", "fig1c"),
                            ("decay_lifetime", "fig4a")):
        warmup.append(["fit", model, "--data", os.path.join(wdir, scenario + ".csv")])
    return requests, warmup, files


_GENERATORS = {"kernels": _kernels, "analysis": _analysis}


def generate(name: str, seed: int, work: str, tiny: bool = False) -> Workload:
    """The requests of one pass of workload ``name`` for ``seed``.

    ``work`` is the directory that receives every file; ``tiny`` gives
    a pass of one or two small requests for the benchmark's own tests.
    """
    if name not in _GENERATORS:
        raise ValueError("unknown workload %r; known: %s" % (name, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (name, seed))
    requests, warmup, files = _GENERATORS[name](rng, work, tiny)
    return Workload(name, seed, requests, warmup, files)
