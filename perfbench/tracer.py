"""Spans around the public calls of each fibermem layer, from outside.

A span wraps a function where its caller looks it up: the module
attribute the calling code reads at call time.  ``propagate_pulse`` is
wrapped as ``fibermem.scenarios.propagate_pulse`` because that is the
name ``scenarios`` calls; wrapping ``fibermem.eit.propagate_pulse``
would catch nothing.  One function bound in several callers gets one
span name for all of its bindings.

A binding that no longer exists (a public call renamed or moved) is
listed in ``Tracer.missing`` and shows as zero calls; it never stops
the run.  Private helpers such as ``scenarios._write_csv`` and
``cli._read_xy`` have no binding of their own here, so their time stays
in the self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (module, attribute the caller reads, span name).  The span name is
# <owning module>.<function>.
BINDINGS = (
    ("fibermem.cli", "entry", "cli.entry"),
    ("fibermem.cli", "load_config", "config.load_config"),
    ("fibermem.config", "set_key", "config.set_key"),
    ("fibermem.scenarios", "set_key", "config.set_key"),
    ("fibermem.scenarios", "config_digest", "config.config_digest"),
    ("fibermem.scenarios", "render_config", "config.render_config"),
    ("fibermem.config", "render_config", "config.render_config"),
    ("fibermem.cli", "run_scenario", "scenarios.run_scenario"),
    ("fibermem.scenarios", "propagate_pulse", "eit.propagate_pulse"),
    ("fibermem.scenarios", "eit_spectrum", "eit.eit_spectrum"),
    ("fibermem.eit", "eit_spectrum", "eit.eit_spectrum"),
    ("fibermem.scenarios", "group_delay", "eit.group_delay"),
    ("fibermem.scenarios", "surface_intensity_scan", "waveguide.surface_intensity_scan"),
    ("fibermem.waveguide", "solve_he11", "waveguide.solve_he11"),
    ("fibermem.cli", "fit", "fitkit.fit"),
    ("fibermem.scenarios", "fit", "fitkit.fit"),
    ("fibermem.scenarios", "saturation_transmission", "ensemble.saturation_transmission"),
    ("fibermem.fitkit", "saturation_transmission", "ensemble.saturation_transmission"),
    ("fibermem.scenarios", "lorentzian_transmission", "ensemble.lorentzian_transmission"),
    ("fibermem.fitkit", "lorentzian_transmission", "ensemble.lorentzian_transmission"),
    ("fibermem.scenarios", "revival_envelope", "decoherence.revival_envelope"),
    ("fibermem.decoherence", "efficiency_decay", "decoherence.efficiency_decay"),
    ("fibermem.scenarios", "simulate_counting", "counting.simulate_counting"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BINDINGS))


def _propagate_counts(counters, result):
    # one slice-step advances one medium slice by one time step:
    # (n_t - 1) steps over n_z + 1 slices
    steps = (result.t_grid_s.size - 1) * result.z_grid.size
    counters["eit.propagate_pulse.slice_steps"] += steps


def _mode_counts(counters, result):
    key = "waveguide.max_residual"
    counters[key] = max(counters[key], float(result.residual))


def _fit_counts(counters, result):
    counters["fitkit.fit.iterations"] += result.n_iterations
    counters["fitkit.fit.converged"] += bool(result.converged)


def _scenario_counts(counters, result):
    counters["scenarios.csv_rows"] += result["n_rows"]
    counters["scenarios.csv_bytes"] += os.path.getsize(result["output_path"])


# Counters read from a call's result, keyed by span name.
HOOKS = {
    "eit.propagate_pulse": _propagate_counts,
    "waveguide.solve_he11": _mode_counts,
    "fitkit.fit": _fit_counts,
    "scenarios.run_scenario": _scenario_counts,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the bindings.

    A span is ``[name, start, end, parent index, request id]``, kept in
    ``spans`` until the caller collects them with ``take``.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.missing = set()
        self.request = None
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add("%s.%s" % (module_name, attr))
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self):
        """Spans and counters recorded since the last call, then reset."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters = defaultdict(float)
        return spans, counters

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    self.missing.add("%s counters" % name)
            return result

        return traced


def summarize(spans) -> dict:
    """Calls and self time per span name, and fit model evaluations.

    Self time is a span's duration minus the durations of its direct
    children; spans nest, since the program runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".self_s"] += (end - start) - child[i]
        if parent >= 0 and spans[parent][0] == "fitkit.fit":
            out["fitkit.fit.model_evals"] += 1
    return dict(out)
