"""Measure a baseline: every workload on several seeds, then one traced run.

Usage, from the root of a fibermem checkout:

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

Runs ``run.py`` for ``run_seconds`` (from BENCHMARK.json) once per
workload and seed with tracing off, and once per workload with tracing
on (first seed).  Prints, for each end-to-end metric, the median, the
quartiles and the spread: the distance between the quartiles over the
median, as ``statistics.quantiles(n=4)`` gives them.  With ``--out`` it
writes those figures, the traced per-layer table, the environment and
the predictions to a JSON file such as ``baseline.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402

# Which end-to-end metric each layer metric should move, and where.
PREDICTIONS = [
    {"layer": ["eit.propagate_pulse.self_s", "eit.propagate_pulse.s_per_call",
               "eit.propagate_pulse.slice_steps", "eit.propagate_pulse.ns_per_slice_step"],
     "moves": ["items_per_s", "request_s_p50"], "on": ["kernels"],
     "unchanged_on": ["analysis"],
     "note": "a batched propagator speeds the fig3c sweeps, not the independent"
             " points; a step that is O(n_z^2) slows the n_z = 400 points"},
    {"layer": ["eit.eit_spectrum.self_s", "eit.eit_spectrum.calls",
               "eit.group_delay.self_s", "eit.group_delay.calls"],
     "moves": ["request_s_p50"], "on": ["analysis"]},
    {"layer": ["waveguide.solve_he11.self_s", "waveguide.solve_he11.calls",
               "waveguide.solve_he11.s_per_call", "waveguide.surface_intensity_scan.self_s",
               "waveguide.max_residual"],
     "moves": ["items_per_s"], "on": ["kernels"], "unchanged_on": ["analysis"],
     "note": "module-level precompute (quadrature nodes) also moves setup_s"},
    {"layer": ["fitkit.fit.self_s", "fitkit.fit.calls", "fitkit.fit.iterations",
               "fitkit.fit.model_evals", "fitkit.fit.converged_ratio"],
     "moves": ["request_s_p50", "request_s_tail"], "on": ["analysis"],
     "unchanged_on": ["kernels"]},
    {"layer": ["ensemble.saturation_transmission.self_s",
               "ensemble.lorentzian_transmission.self_s",
               "decoherence.revival_envelope.self_s", "decoherence.efficiency_decay.self_s"],
     "moves": ["request_s_p50"], "on": ["analysis"]},
    {"layer": ["counting.simulate_counting.self_s"],
     "moves": ["request_s_p50"], "on": ["kernels"],
     "note": "predicted: no measurable change"},
    {"layer": ["config.load_config.self_s", "config.set_key.self_s",
               "config.config_digest.self_s", "config.render_config.self_s",
               "scenarios.run_scenario.self_s", "scenarios.csv_rows", "scenarios.csv_bytes",
               "cli.entry.self_s"],
     "moves": ["request_s_p50"], "on": ["analysis"], "unchanged_on": ["kernels"]},
    {"layer": ["proc.cpu_util"], "moves": ["items_per_s"], "on": ["kernels", "analysis"],
     "note": "rises above 1 only with added parallelism"},
]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (name, seed, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    out = {"run_seconds": seconds, "seeds": seeds, "end_to_end": {}, "per_layer": {},
           "predictions": PREDICTIONS}
    for name in workloads.WORKLOADS:
        values = {m: [] for m, _ in harness.END_TO_END}
        walls = {}
        for seed in seeds:
            result = _run(name, seed, seconds, 0)
            with open(os.path.join(".perfbench", "results", "%s-seed%d-trace0.json"
                                   % (name, seed))) as fh:
                for m, v in json.load(fh)["wall"].items():
                    walls.setdefault(m, []).append(v)
            print("%s seed %d correct=%s %s" % (name, seed, result["correct"], " ".join(
                "%s=%.6g" % (m, v["value"]) for m, v in result["metrics"].items())), flush=True)
            if not result["correct"]:
                raise SystemExit("%s seed %d: %d of %d requests failed"
                                 % (name, seed, result["failed"], result["attempted"]))
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        table = {}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            table[m] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                        "spread": spread, "runs": len(v)}
            print("  %-16s median %-12.6g spread %.4f (bound %g, a third of it %.4f)"
                  % (m, statistics.median(v), spread, bounds[m], bounds[m] / 3), flush=True)
        # the same figures in plain wall time, before scaling to nominal speed
        for m, v in walls.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            table[m]["wall_median"] = statistics.median(v)
            table[m]["wall_spread"] = (q3 - q1) / statistics.median(v)
            print("  %-16s plain wall time: median %-12.6g spread %.4f"
                  % (m, statistics.median(v), table[m]["wall_spread"]), flush=True)
        out["end_to_end"][name] = table
        traced = _run(name, seeds[0], seconds, 1)
        out["per_layer"][name] = {m: v["value"] for m, v in traced["metrics"].items()}
        with open(os.path.join(".perfbench", "results", "%s-seed%d-trace1.json"
                               % (name, seeds[0]))) as fh:
            out["environment"] = json.load(fh)["environment"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
