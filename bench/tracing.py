"""Per-layer spans for the traced benchmark run, recorded from outside the package.

`Tracer.install` wraps every public module-level function of the
package's modules at every module binding that holds it (`analysis`, for
one, holds its own imported `run_pipeline` and `generate_orbit`), plus
`ChainResult.values`; `ChainResult.value_at` only counts calls.  The
per-sample helpers in `PER_SAMPLE` stay unwrapped, so their time is the
self time of their caller: map evaluation belongs to `generate_orbit`,
quantization to `discretize_orbit`.  Spans are kept in memory and
written out when the run ends; counters are read from returned values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from array import array
from collections import Counter

MODULES = ("cli", "maps", "expressions", "core", "orbit", "analysis", "spectral", "armodel")
PER_SAMPLE = {"core.quantize", "core.quantization_error", "maps.evaluate",
              "expressions.evaluate_ast", "expressions.variables_used", "expressions.to_source"}
PIPELINE = ("orbit.generate_orbit", "orbit.discretize_orbit",
            "orbit.build_transition_table", "orbit.build_chain")
SELF_MS = ("orbit.generate_orbit", "orbit.discretize_orbit", "orbit.build_transition_table",
           "orbit.build_chain", "orbit.ChainResult.values", "orbit.shadow_periodicity",
           "orbit.period_census", "analysis.verify_error_bound", "analysis.sup_difference",
           "analysis.tail_convergence", "spectral.fit_trig", "spectral.fit_trig_samples",
           "spectral.eval_trig", "armodel.characteristic_roots", "armodel.solve_coefficients",
           "armodel.verify_decomposition", "armodel.recursion", "maps.estimate_lipschitz",
           "maps.validate_range")
COUNTS = ("orbit.samples", "orbit.states", "orbit.conflicts", "orbit.ChainResult.value_at.calls",
          "analysis.window_steps", "spectral.fit_ops", "armodel.degree", "cli.bytes_written")


def _count_samples(tracer, args, result):
    tracer.counts["orbit.samples"] += len(result.samples)
    tracer.call_samples += len(result.samples)


def _count_table(tracer, args, result):
    tracer.counts["orbit.states"] += result.n_states
    tracer.counts["orbit.conflicts"] += len(result.conflicts)


def _count_window(tracer, args, result):
    tracer.counts["analysis.window_steps"] += math.lcm(args[0].period, args[1].period) + 1


def _count_fit(tracer, args, result):
    tracer.counts["spectral.fit_ops"] += result.period * (result.harmonics + 1) * result.d


def _count_degree(tracer, args, result):
    tracer.counts["armodel.degree"] += result.total_multiplicity


HOOKS = {
    "orbit.generate_orbit": _count_samples,
    "orbit.build_transition_table": _count_table,
    "analysis.sup_difference": _count_window,
    "spectral.fit_trig_samples": _count_fit,
    "armodel.characteristic_roots": _count_degree,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("q")    # (span, parent, name, start_ns, end_ns, job) per span
        self.stack = []            # open spans: [span, start_ns, child_ns]
        self.next_span = 0
        self.self_ns = Counter()   # by name
        self.counts = Counter()
        self.job = -1
        self.job_dir = None
        self.call_samples = 0
        self.job_samples = {}      # job -> set of orbit samples seen per call
        self._patches = []

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = tracer.next_span
            tracer.next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_ns[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans.extend((span, parent, nid, frame[1], end, tracer.job))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self):
        package = importlib.import_module("aporbit")
        modules = {m: importlib.import_module(f"aporbit.{m}") for m in MODULES}
        originals = [
            (f"{short}.{name}", obj)
            for short, module in modules.items()
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and f"{short}.{name}" not in PER_SAMPLE
        ]
        for full, obj in originals:
            wrapper = self._span(full, obj, HOOKS.get(full))
            for target in (package, *modules.values()):
                for attr, value in list(vars(target).items()):
                    if value is obj:
                        self._patch(target, attr, wrapper)
        chain = modules["orbit"].ChainResult
        self._patch(chain, "values", self._span("orbit.ChainResult.values", chain.values))
        self._patch(chain, "value_at",
                    self._counter("orbit.ChainResult.value_at.calls", chain.value_at))

    def uninstall(self):
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)

    # ---------------------------------------------------------------- jobs

    def begin_job(self, job: int, out_dir: str):
        self.job = job
        self.job_dir = out_dir
        self.call_samples = 0

    def end_job(self):
        for name in os.listdir(self.job_dir):
            self.counts["cli.bytes_written"] += os.path.getsize(os.path.join(self.job_dir, name))
        self.job_samples.setdefault(self.job, set()).add(self.call_samples)
        self.job = -1

    # ------------------------------------------------------------- results

    def metrics(self, jobs: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced job: self times, counts, rates."""
        out = {"cli.self_ms": (sum(ns for name, ns in self.self_ns.items()
                                   if name.startswith("cli.")) / 1e6 / jobs, "ms")}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6 / jobs, "ms")
        for name in COUNTS:
            out[name] = (self.counts[name] / jobs, "count")
        pipeline_s = sum(self.self_ns[name] for name in PIPELINE) / 1e9
        out["orbit.samples_per_s"] = (self.counts["orbit.samples"] / pipeline_s
                                      if pipeline_s else 0.0, "1/s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["span", "parent", "name", "start_ns", "end_ns", "job"],
                       "spans": self.spans.tolist()}, fh)
