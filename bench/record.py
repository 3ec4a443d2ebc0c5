"""Time fibermem before and after a change and write a BENCH_*.json record.

The change is the checkout that holds this script; the parent is a
second checkout, made with `git clone`:

    python3 bench/record.py --parent ../parent --out BENCH_9.json \\
        --description "what the change does"

Each side is timed in fresh interpreters that import fibermem from that
side's `src/`, alternating parent and change for ROUNDS rounds.  In one
interpreter every timed call runs once as a warm-up and then REPEATS
times; the record keeps the minimum over all rounds.  The timed calls
are `fibermem sim` of the default fig3b, custom, fig3c and mode_scan
scenarios through fibermem.cli.entry (CSV write included; fig3b writes
2,801 rows), `fibermem fit` of each model in FITS on the curve of a
default scenario, one propagate_pulse at each storage grid in GRIDS and
one solve_he11.  The scenarios and the fits go through the command line
because its arguments stay the same when the library calls change, so
both sides run the same script.  cold_start_s times what every command line run
pays and warm timings cannot show: a fresh interpreter's
`import fibermem.cli` plus one default `fibermem sim` of each of
COLD_SCENARIOS, the minimum of COLD_ROUNDS rounds that alternate which
side goes first.  perfbench/run.py then runs
PAIRS pairs per workload at seeds 1..PAIRS, for the run_seconds of
BENCHMARK.json, alternating which side goes first; the record keeps
every run, the median of each end-to-end metric and the pairs the
change wins, then the per-layer table of one traced run per workload
and side.  Ten pairs is the fewest that can back a claimed gain.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 7
ROUNDS = 2
PAIRS = 10
SCENARIOS = ("fig3b", "custom", "fig3c", "mode_scan")
# (model, default scenario whose CSV is the data, its x and y columns)
FITS = (("saturation", "fig1b", "power_nW", "transmission"),
        ("lorentzian_od", "fig1c", "detuning_MHz", "transmission"),
        ("decay_lifetime", "fig4a", "time_us", "relative_efficiency"),
        ("eit_spectrum", "fig2", "detuning_MHz", "transmission_1mW"))
# (n_z, dt in ns) of the single propagate_pulse timings, all at 800 ns
GRIDS = tuple((nz, dt) for nz in (50, 200, 400) for dt in (0.25, 0.5))
WORKLOADS = ("kernels", "analysis")
COLD_SCENARIOS = ("mode_scan", "fig3b")
COLD_ROUNDS = 7
# One cold start, timed inside a fresh interpreter from before the import;
# prints -1 if the scenario fails
COLD = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import fibermem.cli\n"
    "code = fibermem.cli.entry(['sim', sys.argv[1], '--out', sys.argv[2]])\n"
    "print(time.perf_counter() - start if code == 0 else -1)\n"
)


def _best(call) -> float:
    call()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def worker() -> dict:
    """Timings of the fibermem on sys.path, printed as one JSON object."""
    from fibermem import cli, eit, scenarios, waveguide
    from fibermem.config import DEFAULTS, apply_overrides

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.entry(argv)
        if code:
            raise RuntimeError("fibermem %s exited %d" % (" ".join(argv), code))

    out = {"scenario_s": {}, "fit_s": {}, "kernel_s": {}}
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "out.csv")
        for sid in SCENARIOS:
            argv = ["sim", sid, "--out", csv]
            out["scenario_s"][sid] = _best(lambda: run(argv))

        for model, sid, x_name, y_name in FITS:
            run(["sim", sid, "--out", csv])
            data = os.path.join(tmp, model + ".csv")
            _fit_data(csv, data, x_name, y_name)
            argv = ["fit", model, "--data", data]
            out["fit_s"][model] = _best(lambda: run(argv))

        for nz, dt in GRIDS:
            cfg = dict(DEFAULTS)
            apply_overrides(cfg, ["storage.n_z=%d" % nz, "storage.dt_ns=%g" % dt,
                                  "storage.t_stop_ns=800"])
            probe, grid, scheme = scenarios._storage_inputs(cfg)
            control = scenarios._storage_control(cfg, cfg["storage.dark_ns"])
            out["kernel_s"]["propagate_pulse_nz%d_dt%g" % (nz, dt)] = _best(
                lambda: eit.propagate_pulse(probe, control, cfg["storage.od"],
                                            scheme, grid))
        fiber = waveguide.FiberSpec(radius_m=200e-9, wavelength_m=852e-9)
        out["kernel_s"]["solve_he11"] = _best(lambda: waveguide.solve_he11(fiber))
    return out


def _fit_data(csv: str, path: str, x_name: str, y_name: str) -> None:
    """Write the x_name and y_name columns of scenario CSV csv to path."""
    with open(csv) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    i, j = rows[0].index(x_name), rows[0].index(y_name)
    with open(path, "w") as fh:
        fh.write("".join("%s,%s\n" % (row[i], row[j]) for row in rows))


def _time_side(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cold_start(root: str, scenario: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", COLD, scenario, os.path.join(tmp, "out.csv")],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")), cwd=root,
            capture_output=True, text=True, check=True)
    seconds = float(proc.stdout.splitlines()[-1])
    if seconds < 0:
        raise RuntimeError("fibermem sim %s failed in %s" % (scenario, root))
    return {"cold_start_s": {scenario: seconds}}


def _perfbench(root: str, workload: str, seed: int, seconds: float,
               trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if trace:
        # the per-layer table as values, and the kernel-share verdict lines
        result = {"metrics": {name: m["value"]
                              for name, m in result["metrics"].items()},
                  "shares": [line for line in lines
                             if line.startswith(("share ", "prediction "))]}
    return result


def _merge_min(into: dict, timings: dict) -> None:
    for group, values in timings.items():
        for name, value in values.items():
            slot = into.setdefault(group, {})
            slot[name] = round(min(slot.get(name, value), value), 6)


def _commit(root: str):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
    }


def record(args) -> dict:
    sides = {"parent": os.path.abspath(args.parent), "change": CHANGE}
    timings = {"parent": {}, "change": {}}
    for _ in range(ROUNDS):
        for side in ("parent", "change"):
            _merge_min(timings[side], _time_side(sides[side]))
    for i in range(COLD_ROUNDS):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            for sid in COLD_SCENARIOS:
                _merge_min(timings[side], _cold_start(sides[side], sid))

    out = {
        "description": args.description,
        "parent_commit": _commit(sides["parent"]),
        "environment": _environment(),
        "method": {
            "wall_times": "min of %d timed calls after one warm-up call, in one"
                          " interpreter per side and round, %d rounds alternating"
                          " parent and change; the minimum over the rounds, in"
                          " seconds" % (REPEATS, ROUNDS),
            "scenario_s": "fibermem.cli.entry(['sim', id, '--out', <temp csv>])"
                          " with stdout captured, at the default"
                          " configuration, CSV write included",
            "fit_s": "fibermem.cli.entry(['fit', model, '--data', <temp csv>])"
                     " from the default guess, on the x and y columns of the"
                     " default scenario's CSV named in FITS",
            "kernel_s": "propagate_pulse at the default storage inputs with"
                        " storage.t_stop_ns=800 and the named n_z and dt_ns;"
                        " solve_he11 for a 200 nm radius fiber at 852 nm",
            "cold_start_s": "one fresh python3 -c per call: import fibermem.cli"
                            " and fibermem.cli.entry(['sim', id, '--out', <temp"
                            " csv>]) at the default configuration, timed in the"
                            " interpreter from before the import; min of %d"
                            " rounds alternating which side goes first"
                            % COLD_ROUNDS,
        },
        "parent": timings["parent"],
        "change": timings["change"],
    }
    with open(os.path.join(CHANGE, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out["method"]["perfbench"] = (
        "python3 perfbench/run.py --workload W --seed S --seconds %g"
        " --trace 0, one pair per seed S = 1..%d and workload, alternating"
        " which side runs first; median and every run of each end-to-end"
        " metric, and the pairs the change wins; then one --trace 1 run per"
        " workload and side at seed 1" % (seconds, PAIRS))
    out["perfbench"] = {}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(_perfbench(sides[side], workload, seed, seconds))
        summary = {side: _summarize(results) for side, results in runs.items()}
        summary["change_wins"] = _wins(summary["parent"], summary["change"], better)
        out["perfbench"][workload] = summary
    for workload in WORKLOADS:
        out["perfbench_trace_" + workload] = {
            side: _perfbench(sides[side], workload, 1, seconds, trace=1)
            for side in ("parent", "change")}
    return out


def _wins(parent: dict, change: dict, better: dict) -> dict:
    """Pairs in which the change's run beats the parent's, per metric."""
    sign = {"higher": 1.0, "lower": -1.0}
    return {name: sum(sign[way] * (c - p) > 0.0 for p, c in
                      zip(parent[name]["runs"], change[name]["runs"]))
            for name, way in better.items()}


def _summarize(results: list) -> dict:
    summary = {"correct": all(r["correct"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "attempted": [r["attempted"] for r in results]}
    for name in results[0]["metrics"]:
        values = [round(r["metrics"][name]["value"], 5) for r in results]
        summary[name] = {"median": statistics.median(values), "runs": values}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="root of a checkout of the parent commit")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--description", default="")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")
    text = json.dumps(record(args), indent=1) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
