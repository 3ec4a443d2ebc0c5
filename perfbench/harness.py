"""One benchmark run: set-up probes, timed passes, output checks, metrics.

A pass runs every request of the workload once, in order, as in-process
calls to ``fibermem.cli.entry`` with stdout and stderr captured.  Passes
repeat until the run has lasted ``seconds``; the first pass is checked
in full and later passes must reproduce it byte for byte.  The
end-to-end times are scaled to nominal machine speed by calibration
bursts around each request (``calibrate.py``).  With tracing on, passes
alternate untraced and traced, and the per-layer numbers are averages
over the traced passes, in plain wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import checks
import tracer as tracing
import workloads

DEFAULT_SEED = 0
SETUP_REPEATS = 7
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Pinned to 1 by run.py before anything loads NumPy; this module and
# the ones it imports load it only inside functions.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("items_per_s", "1/s"),
    ("request_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_EXTRA_LAYER = (
    ("eit.propagate_pulse.s_per_call", "s"),
    ("eit.propagate_pulse.slice_steps", "count"),
    ("eit.propagate_pulse.ns_per_slice_step", "ns"),
    ("waveguide.solve_he11.s_per_call", "s"),
    ("waveguide.max_residual", "1"),
    ("fitkit.fit.iterations", "count"),
    ("fitkit.fit.model_evals", "count"),
    ("fitkit.fit.converged_ratio", "ratio"),
    ("scenarios.csv_rows", "count"),
    ("scenarios.csv_bytes", "bytes"),
    ("proc.wall_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.tracing_overhead", "ratio"),
)

PER_LAYER = tuple(
    metric
    for name in tracing.SPAN_NAMES
    for metric in ((name + ".calls", "count"), (name + ".self_s", "s"))
) + _EXTRA_LAYER

# Checked on every traced run: (workload, spans, quantity, op, bound).
# A share is the spans' self time over the traced pass's wall time.
CHECKED_PREDICTIONS = (
    ("kernels", ("eit.propagate_pulse", "waveguide.solve_he11"), "share", ">=", 0.9),
    ("analysis", ("eit.propagate_pulse",), "calls", "==", 0),
    ("analysis", ("waveguide.solve_he11",), "calls", "==", 0),
)


def environment(root: str) -> dict:
    """Where and with what the numbers were taken."""
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = os.path.join(root, "src", "fibermem")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _call(entry, argv):
    """(exit code or None if it raised, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except Exception:
            code = None
            traceback.print_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return code, out.getvalue(), err.getvalue(), wall, cpu


class SetupProbe:
    """Times fresh set-ups: a new interpreter imports ``fibermem.cli``
    and runs the warm-up requests (``probe.py``).  Each sample is
    scaled to nominal machine speed by calibration bursts run just
    before and just after it."""

    def __init__(self, root, work, warmup, calibrator):
        self.root = root
        self.path = os.path.join(work, "warmup.json")
        with open(self.path, "w") as fh:
            json.dump(warmup, fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.calibrator = calibrator
        self.raw = []
        self.samples = []

    def sample(self) -> None:
        units = self.calibrator.units_for(self.raw[-1] if self.raw else 0.5)
        before = self.calibrator.burst(units)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), self.path],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=150)
        after = self.calibrator.burst(units)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr[-2000:])
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        self.raw.append(raw)
        self.samples.append(raw * calibrate.NOMINAL_UNIT_S / (0.5 * (before + after)))


def tail_percentile(samples):
    """(percentile, value, samples beyond) for the highest percentile of
    90, 99, 99.9 with at least ten samples beyond it, else None."""
    data = sorted(samples)
    n = len(data)
    best = None
    for pct in (90.0, 99.0, 99.9):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            best = (pct, data[rank - 1], n - rank)
    return best


class Run:
    """State of one run of one workload across its passes.

    With a ``calibrator``, every request is bracketed by two calibration
    bursts and its latency is also kept scaled to nominal machine speed
    (``scaled``); without one, the scaled latency is the wall time.
    """

    def __init__(self, workload, entry, reference, calibrator=None):
        self.workload = workload
        self.entry = entry
        self.reference = reference
        self.calibrator = calibrator
        n = len(workload.requests)
        self.first = [None] * n  # (csv digest, stdout) of a clean first pass
        self.summaries = [None] * n
        self.values = [None] * n
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.samples = [[] for _ in range(n)]  # wall latencies of clean runs
        self.scaled = [[] for _ in range(n)]  # the same, at nominal speed
        self.unit_s = []  # calibration unit time around each request
        self.failures = []

    def _fit_argv(self, i, req):
        if req.argv is None:
            source = req.fit["source"]
            if self.summaries[source] is None:
                return None
            checks.write_fit_data(req, self.workload.requests[source].out)
            req.expect["truth"] = checks.resolve_truth(req, self.summaries[source])
            req.argv = checks.fit_argv(req, req.expect["truth"])
        return req.argv

    def _check(self, i, req, stdout):
        if self.first[i] is not None:
            digest = checks.digest(req.out) if req.out else None
            if (digest, stdout) != self.first[i]:
                return ["output differs from the first pass"]
            return []
        if req.kind == "sim":
            problems, values = checks.check_sim(req, stdout)
        else:
            problems, values = checks.check_fit(stdout, req.expect["truth"])
        if self.reference is not None and not problems:
            refs = self.reference.get("requests", [])
            if i < len(refs):
                problems = checks.compare_reference(values, refs[i])
            else:
                problems = ["no reference value for request %d" % i]
        if not problems:
            self.values[i] = values
            self.first[i] = (checks.digest(req.out) if req.out else None, stdout)
            if req.kind == "sim":
                self.summaries[i] = checks.parse_summary(stdout)
        return problems

    def run_pass(self, number, tracer=None, between=None):
        """Every request once; returns (wall s, cpu s) summed over requests.

        ``between`` is called after each request, outside its timing.
        """
        wall_sum = cpu_sum = 0.0
        cal = self.calibrator
        previous = 0.01
        for i, req in enumerate(self.workload.requests):
            self.attempted += 1
            argv = self._fit_argv(i, req) if req.kind == "fit" else req.argv
            if argv is None:
                self.failed += 1
                self.failures.append((number, i, ["source sim failed"]))
                continue
            if tracer is not None:
                tracer.request = i
            if cal is not None:
                units = cal.units_for(self.samples[i][-1] if self.samples[i] else previous)
                before = cal.burst(units)
            code, out, err, wall, cpu = _call(self.entry, argv)
            scaled = wall
            if cal is not None:
                unit_s = 0.5 * (before + cal.burst(units))
                self.unit_s.append(unit_s)
                scaled *= calibrate.NOMINAL_UNIT_S / unit_s
            previous = wall
            self.latencies.append(scaled)
            wall_sum += wall
            cpu_sum += cpu
            if code != 0:
                problems = ["exit code %s: %s" % (code, err.strip()[-500:])]
            else:
                try:
                    problems = self._check(i, req, out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = ["unreadable output: %r" % (exc,)]
            if problems:
                self.failed += 1
                self.failures.append((number, i, problems))
            else:
                self.samples[i].append(wall)
                self.scaled[i].append(scaled)
            if between is not None:
                between()
        return wall_sum, cpu_sum


def _layer_metrics(totals, traced_walls, traced_cpus, plain_walls):
    n = max(len(traced_walls), 1)
    per = {k: v / n for k, v in totals.items()}
    m = {}
    for name in tracing.SPAN_NAMES:
        m[name + ".calls"] = per.get(name + ".calls", 0.0)
        m[name + ".self_s"] = per.get(name + ".self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m["eit.propagate_pulse.s_per_call"] = ratio(
        m["eit.propagate_pulse.self_s"], m["eit.propagate_pulse.calls"])
    m["eit.propagate_pulse.slice_steps"] = per.get("eit.propagate_pulse.slice_steps", 0.0)
    m["eit.propagate_pulse.ns_per_slice_step"] = 1e9 * ratio(
        m["eit.propagate_pulse.self_s"], m["eit.propagate_pulse.slice_steps"])
    m["waveguide.solve_he11.s_per_call"] = ratio(
        m["waveguide.solve_he11.self_s"], m["waveguide.solve_he11.calls"])
    m["waveguide.max_residual"] = totals.get("waveguide.max_residual", 0.0)
    m["fitkit.fit.iterations"] = per.get("fitkit.fit.iterations", 0.0)
    m["fitkit.fit.model_evals"] = per.get("fitkit.fit.model_evals", 0.0)
    m["fitkit.fit.converged_ratio"] = ratio(
        per.get("fitkit.fit.converged", 0.0), m["fitkit.fit.calls"])
    m["scenarios.csv_rows"] = per.get("scenarios.csv_rows", 0.0)
    m["scenarios.csv_bytes"] = per.get("scenarios.csv_bytes", 0.0)
    m["proc.wall_s"] = statistics.mean(traced_walls) if traced_walls else 0.0
    m["proc.cpu_s"] = statistics.mean(traced_cpus) if traced_cpus else 0.0
    m["proc.cpu_util"] = ratio(m["proc.cpu_s"], m["proc.wall_s"])
    m["proc.tracing_overhead"] = (
        min(traced_walls) / min(plain_walls) - 1.0 if traced_walls and plain_walls else 0.0)
    return m


def _predictions(name, layer):
    lines = []
    for workload, spans, quantity, op, bound in CHECKED_PREDICTIONS:
        if workload != name:
            continue
        if quantity == "share":
            wall = layer["proc.wall_s"]
            value = sum(layer[s + ".self_s"] for s in spans) / wall if wall else 0.0
            met = value >= bound
        else:
            value = sum(layer[s + ".calls"] for s in spans)
            met = value == bound
        lines.append("prediction %s %s %.4g %s %g: %s" % (
            " + ".join(spans), quantity, value, op, bound, "met" if met else "NOT MET"))
    if name == "kernels":
        for span in ("eit.propagate_pulse", "waveguide.solve_he11"):
            share = layer[span + ".self_s"] / layer["proc.wall_s"] if layer["proc.wall_s"] else 0.0
            lines.append("share %s %.4g" % (span, share))
    return lines


def run_workload(root, name, seed, seconds, trace, tiny=False):
    """Run one workload, print the report and return the full record.

    The last printed line is the result as one JSON object.  A tiny run
    makes a single pass of a small workload.
    """
    import fibermem.cli

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(fibermem.cli.__file__).startswith(src + os.sep):
        raise RuntimeError("fibermem imported from %s, not from %s"
                           % (fibermem.cli.__file__, src))
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.generate(name, seed, work, tiny=tiny)
        workload.write_files()
        os.makedirs(os.path.join(work, "warmup"), exist_ok=True)
        for argv in workload.warmup:
            code, _, err, _, _ = _call(lambda a: fibermem.cli.entry(a), argv)
            if code != 0:
                raise RuntimeError("warm-up %s failed: %s" % (argv, err[-2000:]))
        calibrator = calibrate.Calibrator()
        probe = SetupProbe(root, work, workload.warmup, calibrator)
        n_probes = 0 if trace else 1 if tiny else SETUP_REPEATS
        last_probe = [time.perf_counter()]

        def probe_when_due():
            # spread the set-up samples over the run, so that one slow
            # stretch of a shared machine cannot hold all of them
            due = last_probe[0] + seconds / max(n_probes, 1)
            if len(probe.samples) < n_probes and time.perf_counter() >= due:
                probe.sample()
                last_probe[0] = time.perf_counter()

        if n_probes:
            probe.sample()

        reference = None
        if seed == DEFAULT_SEED and not tiny:
            try:
                with open(REFERENCE_PATH) as fh:
                    reference = json.load(fh).get(name, {})
            except (OSError, ValueError):
                reference = {}
        run = Run(workload, lambda argv: fibermem.cli.entry(argv), reference,
                  None if trace else calibrator)
        tracer = tracing.Tracer() if trace else None
        totals, traced_walls, traced_cpus, plain_walls = {}, [], [], []
        first_spans = None
        start = time.perf_counter()
        number = 0
        while True:
            traced = tracer is not None and number % 2 == 1
            if traced:
                tracer.install()
                try:
                    wall, cpu = run.run_pass(number, tracer)
                finally:
                    tracer.uninstall()
                spans, counters = tracer.take()
                if first_spans is None:
                    first_spans = spans
                for key, value in tracing.summarize(spans).items():
                    totals[key] = totals.get(key, 0.0) + value
                for key, value in counters.items():
                    if key == "waveguide.max_residual":
                        totals[key] = max(totals.get(key, 0.0), value)
                    else:
                        totals[key] = totals.get(key, 0.0) + value
                traced_walls.append(wall)
                traced_cpus.append(cpu)
            else:
                wall, _ = run.run_pass(number, between=probe_when_due)
                plain_walls.append(wall)
            number += 1
            if (time.perf_counter() - start >= seconds and number >= (1 if tiny else 2)
                    and (tracer is None or number % 2 == 0)):
                break
        measured_s = time.perf_counter() - start
        while len(probe.samples) < n_probes:
            probe.sample()
        setup = probe.samples
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment(root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = run.latencies
    # each request's latency is the mean of its clean runs
    clean = [i for i, s in enumerate(run.samples) if s]
    typical = {i: statistics.mean(run.scaled[i]) for i in clean}
    pass_s = sum(typical.values())
    pass_items = len(clean)
    e2e = {
        "items_per_s": pass_items / pass_s if pass_s else 0.0,
        "request_s_p50": statistics.median(typical.values()) if clean else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    # the same figures in plain wall time, printed next to the scaled ones
    wall_typical = [statistics.mean(run.samples[i]) for i in clean]
    wall = {
        "items_per_s": pass_items / sum(wall_typical) if clean else 0.0,
        "request_s_p50": statistics.median(wall_typical) if clean else 0.0,
        "setup_s": statistics.median(probe.raw) if probe.raw else 0.0,
    }
    tail = tail_percentile(lat)
    failed_frac = run.failed / run.attempted if run.attempted else 1.0

    print("workload %s  seed %d  trace %d  passes %d  measured %.2f s"
      % (name, seed, int(trace), number, measured_s))
    print("environment " + json.dumps(env, sort_keys=True))
    for n_, i, problems in run.failures[:20]:
        print("FAILED pass %d request %d %s: %s"
          % (n_, i, workload.requests[i].argv, "; ".join(problems)))
    print("failed_frac %.6g  (%d of %d requests)" % (failed_frac, run.failed, run.attempted))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed}
    record = {"workload": name, "seed": seed, "trace": int(trace), "passes": number,
              "measured_s": measured_s, "environment": env,
              "failed_frac": failed_frac, "failures": run.failures[:200]}
    if tracer is None:
        notes = {
            "items_per_s": "%d requests in a pass / %.4f s" % (pass_items, pass_s),
            "request_s_p50": "n=%d requests x %d passes" % (len(clean), number),
            "setup_s": "n=%d fresh interpreters" % len(setup),
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        for metric, unit in END_TO_END:
            print("%-28s %14.6g %-6s (%s)" % (metric, e2e[metric], unit, notes[metric]))
        print("scaled to a unit time of %.4g s (median measured %.4g s); in plain wall time: %s"
          % (calibrate.NOMINAL_UNIT_S, statistics.median(run.unit_s) if run.unit_s else 0.0,
            ", ".join("%s %.6g" % item for item in sorted(wall.items()))))
        if tail:
            print("%-28s %14.6g %-6s (p%g, n=%d, %d beyond)"
              % ("request_s_tail", tail[1], "s", tail[0], len(lat), tail[2]))
        else:
            print("%-28s %14s %-6s (n=%d: no percentile has 10 samples beyond it)"
              % ("request_s_tail", "-", "s", len(lat)))
        result["metrics"] = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}
        record["request_s_tail"] = tail
        record["setup_samples_s"] = setup
        record["wall"] = wall
        record["unit_s_median"] = statistics.median(run.unit_s) if run.unit_s else None
        record["setup_wall_samples_s"] = probe.raw
    else:
        layer = _layer_metrics(totals, traced_walls, traced_cpus, plain_walls)
        print("per-layer metrics, per traced pass (%d traced, %d untraced passes)"
          % (len(traced_walls), len(plain_walls)))
        for metric, unit in PER_LAYER:
            print("%-44s %14.6g %s" % (metric, layer[metric], unit))
        for line in _predictions(name, layer):
            print(line)
        for missing in sorted(tracer.missing):
            print("missing span: %s" % missing)
        result["metrics"] = {m: {"value": layer[m], "unit": u} for m, u in PER_LAYER}
        record["spans_first_traced_pass"] = first_spans
        record["missing_spans"] = sorted(tracer.missing)
    record["values"] = run.values
    record["samples_s"] = run.samples
    record["scaled_samples_s"] = run.scaled
    record.update(result)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results", "%s-seed%d-trace%d.json"
                           % (name, seed, int(trace))), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return record
