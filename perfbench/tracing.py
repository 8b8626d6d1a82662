"""Layer tracing from outside the package.

``Tracer.install`` replaces each public function of the traced
``leaky_cavity`` modules by a wrapper that records a span, and rebinds the
wrapper everywhere a ``from .x import y`` bound the original inside another
``leaky_cavity`` module.  Nothing under ``src/`` changes.  Spans stay in memory
as (name, start, end, parent, operation id); a layer's self time is its span
minus the part its child spans cover.

Work counts are computed from call arguments, return values and file sizes,
never measured, so they repeat exactly between runs on the same inputs.
"""

import functools
import inspect
import json
import os
import sys
import threading
import time

import numpy as np

PACKAGE = "leaky_cavity"
TRACED_MODULES = ("cavity", "correlation", "dipole", "io", "oracle", "runner",
                  "scenario", "spectrum", "verification", "cli")

# The Monte-Carlo ensemble of `verify` is built in this private helper, outside
# every public check; tracing it keeps the per-check times adding up to the run.
EXTRA_FUNCTIONS = {"verification": ("_noise_benchmark",)}

CHECK_FUNCTIONS = ("check_amplitude_and_occupation", "_noise_benchmark",
                   "check_noise_law", "check_longtime_limit", "check_qrt_convention",
                   "check_spectrum_round_trip", "check_power_consistency",
                   "check_markov_decay", "check_determinism")

SELF_TIME_LAYERS = (
    "scenario.load_scenario", "io.read_timeseries_csv", "dipole.fourier_decompose",
    "io.write_timeseries_csv", "runner.run", "oracle.integrate_amplitude_ode",
    "oracle.monte_carlo_noise", "dipole.sample_fluctuation",
    "oracle.discrete_bath_decay", "cavity.occupation", "cavity.mode_amplitude",
    "correlation.two_time_correlation", "correlation.stationary_correlation",
    "spectrum.power_spectrum", "spectrum.spectrum_from_correlation",
)

COUNTS = ("io.bytes_read", "io.bytes_written", "io.rows_written", "oracle.rk4_steps",
          "oracle.mc_trial_steps", "dipole.sample_fluctuation.calls",
          "oracle.bath_modes", "oracle.bath_dense_bytes", "cavity.points",
          "correlation.points", "spectrum.wkt_terms", "verification.checks_failed")

COUNT_UNITS = {"io.bytes_read": "B", "io.bytes_written": "B",
               "oracle.bath_dense_bytes": "B"}


def _n_lines(spectrum) -> int:
    return spectrum.drive.n_max + 1


def _mc_trial_steps(a) -> int:
    t = np.asarray(a["t_grid"], dtype=float)
    n_extra = 0
    if a["tau_grid"] is not None:
        h = float(t[1] - t[0])
        n_extra = int(np.rint(np.asarray(a["tau_grid"], dtype=float) / h).max())
    return a["n_trials"] * (t.size - 1 + n_extra)


def _csv_rows(name, a) -> int:
    if name == "io.write_timeseries_csv":
        return len(a["series"])
    if name == "io.write_occupation_csv":
        return a["curve"].times.size
    if name == "io.write_correlation_csv":
        return a["series"].tau.size
    if name == "io.write_spectrum_csv":
        return len(a["result"].lines) + a["result"].omega.size
    if name == "io.write_ensemble_csv":
        ens = a["ensemble"]
        return ens.times.size if a["which"] == "occupation" else ens.tau.size
    return 0  # JSON writers emit documents, not rows


def _path_args(a):
    return [v for k, v in a.items() if k == "path" or k.endswith("_path")]


def _counts(name, a, result) -> dict:
    """Work done by one call of ``name`` with bound arguments ``a``."""
    if name == "oracle.integrate_amplitude_ode":
        return {"oracle.rk4_steps": np.size(a["t_grid"]) - 1}
    if name == "oracle.monte_carlo_noise":
        return {"oracle.mc_trial_steps": _mc_trial_steps(a)}
    if name == "dipole.sample_fluctuation":
        return {"dipole.sample_fluctuation.calls": 1}
    if name == "oracle.discrete_bath_decay":
        n = a["bath"].n_modes
        return {"oracle.bath_modes": n, "oracle.bath_dense_bytes": 8 * (n + 1) ** 2}
    if name in ("cavity.occupation", "cavity.mode_amplitude"):
        return {"cavity.points": np.size(a["t"]) * _n_lines(a["spectrum"])}
    if name in ("correlation.two_time_correlation", "correlation.stationary_correlation"):
        return {"correlation.points": np.size(a["tau_grid"]) * _n_lines(a["spectrum"])}
    if name == "spectrum.spectrum_from_correlation":
        return {"spectrum.wkt_terms": np.size(a["omega_grid"]) * a["series"].tau.size}
    if name.startswith("io.write_"):
        return {"io.bytes_written": sum(os.path.getsize(p) for p in _path_args(a)),
                "io.rows_written": _csv_rows(name, a)}
    if name.startswith("io.read_"):
        return {"io.bytes_read": sum(os.path.getsize(p) for p in _path_args(a))}
    if name.startswith("verification.check_"):
        return {"verification.checks_failed": sum(not r.passed for r in result)}
    return {}


class Tracer:
    """In-memory span recorder; ``op`` is the id stamped on new spans (0 = set-up)."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = []         # (op id, counter name, value)
        self.op = 0
        self._local = threading.local()
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in _counts(name, bound.arguments, result).items():
                tracer.counts.append((span[4], key, int(value)))
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the traced modules, at its definition and its imports."""
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            extra = EXTRA_FUNCTIONS.get(short, ())
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr.lstrip('_')}", obj))
        holders = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:
                    setattr(module, attr, originals[id(obj)][1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def self_times(self) -> list:
        """Self seconds of each span: its duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child for (_, start, end, _, _), child
                in zip(self.spans, child_time)]

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer values for one set-up plus one operation (operation totals / n_ops)."""
        def per_op(op):
            return 1.0 if op == 0 else 1.0 / n_ops

        times = {}
        for (name, start, end, _, op), self_s in zip(self.spans, self.self_times()):
            key = "io.write" if name.startswith("io.write_") else name
            times[key] = times.get(key, 0.0) + self_s * per_op(op)
            if name == "io.write_timeseries_csv":
                times[name] = times.get(name, 0.0) + self_s * per_op(op)
        inclusive = {}
        for name, start, end, _, op in self.spans:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) * per_op(op)
        counts = dict.fromkeys(COUNTS, 0)
        set_up = dict.fromkeys(COUNTS, 0)
        for op, key, value in self.counts:
            (set_up if op == 0 else counts)[key] += value

        metrics = {}
        for layer in ("io.write",) + SELF_TIME_LAYERS:
            metrics[f"{layer}.self_s"] = (times.get(layer, 0.0), "s")
        for check in CHECK_FUNCTIONS:
            name = f"verification.{check.lstrip('_')}"
            metrics[f"{name}.s"] = (inclusive.get(name, 0.0), "s")
        set_up["trace.spans"] = sum(1 for s in self.spans if s[4] == 0)
        counts["trace.spans"] = len(self.spans) - set_up["trace.spans"]
        for key in COUNTS + ("trace.spans",):
            value = set_up[key] + counts[key] / n_ops
            # whole when every operation does the same work, as in all three workloads
            metrics[key] = (int(value) if value == int(value) else value,
                            COUNT_UNITS.get(key, "count"))
        return metrics

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
