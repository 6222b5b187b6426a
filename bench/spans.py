"""Outside-in tracing of nuqsim's layers, and the per-layer metrics.

``Tracer.install`` replaces module attributes that the scan pipeline
looks up at call time (``nuqsim.scan.run`` and so on) with wrappers
that record a span: name, start, end, parent span and scan id.  Spans
and counts stay in memory until the run ends.  No nuqsim code is
changed; a name a later version no longer has is skipped and listed in
``Tracer.missing``, and its layer then reports ``None`` (no calls),
never 0.

A span's self time is its duration minus the durations of its direct
children.  ``perf_counter`` reads CLOCK_MONOTONIC on Linux, so spans of
a child process nest under a root span timed by its parent.
"""
from __future__ import annotations

import os
import statistics
import sys
import time

# (module, attribute) -> span name.  cli binds run_scan and the emitters
# by name, so they are wrapped where cli looks them up.
SPANS = {
    ("nuqsim.cli", "run_scan"): "scan.run_scan",
    ("nuqsim.cli", "emit_csv"): "scan.emit_csv",
    ("nuqsim.cli", "emit_plot"): "scan.emit_plot",
    ("nuqsim.scan", "emit_csv"): "scan.emit_csv",
    ("nuqsim.scan", "emit_plot"): "scan.emit_plot",
    ("nuqsim.scan", "build_slab_circuit"): "builders.build_slab_circuit",
    ("nuqsim.scan", "build_dilation"): "builders.build_dilation",
    ("nuqsim.scan", "build_msw_circuit"): "builders.build_msw_circuit",
    ("nuqsim.scan", "run"): "simulator.run",
    ("nuqsim.scan", "apply_matrix"): "simulator.apply_matrix",
    ("nuqsim.scan", "probabilities"): "simulator.probabilities",
    ("nuqsim.scan", "sample"): "simulator.sample",
    ("nuqsim.scan", "prob_slab"): "oscillation.prob_slab",
    ("nuqsim.scan", "prob_msw_adiabatic"): "oscillation.prob_msw_adiabatic",
    ("nuqsim.scan", "optimize"): "optim.optimize",
    ("nuqsim.builders", "virtual_z_pass"): "compiler.virtual_z_pass",
    ("nuqsim.builders", "slab_layer_params"): "oscillation.slab_layer_params",
    ("nuqsim.optim", "minimize"): "optim.minimize",
    ("nuqsim.optim", "infidelity_and_grad"): "optim.infidelity_and_grad",
}
ROOT = "scan"        # one per scan, timed around cli.main or the process

# Per-layer time metric -> spans whose self time it sums.
TIME_METRICS = {
    "oscillation.layer_params_s": ("oscillation.slab_layer_params",),
    "oscillation.oracle_s": ("oscillation.prob_slab",
                             "oscillation.prob_msw_adiabatic"),
    "builders.build_s": ("builders.build_slab_circuit",
                         "builders.build_dilation",
                         "builders.build_msw_circuit"),
    "compiler.compile_s": ("compiler.virtual_z_pass",),
    "simulator.execute_s": ("simulator.run", "simulator.apply_matrix",
                            "simulator.probabilities"),
    "simulator.sample_s": ("simulator.sample",),
    "optim.optimizer_s": ("optim.optimize", "optim.minimize"),
    "optim.objective_s": ("optim.infidelity_and_grad",),
    "scan.self_s": ("scan.run_scan",),
    "scan.emit_s": ("scan.emit_csv", "scan.emit_plot"),
    "trace.uncovered_s": (ROOT,),
}
# Per-layer count metrics, each a counter that the wrappers below add to.
COUNT_METRICS = ("circuits.ops_built", "compiler.rz_folded", "compiler.pulses",
                 "simulator.gates_applied", "optim.lbfgsb_calls",
                 "optim.objective_evals", "optim.restarts",
                 "scan.bytes_written")
# Traced scans 0..COUNT_SCANS-1 are the exact-count anchor: their counts
# are reported and re-run once to check that they repeat.  Three is one
# full cli-cold rotation.
COUNT_SCANS = 3
UNITS = {"trace.overhead": "ratio", "optim.converged_ratio": "ratio",
         "optim.restart_yield": "ratio", "cli.import_s": "s",
         "cli.modules_loaded": "count"}
UNITS.update({name: "s" for name in TIME_METRICS})
UNITS.update({name: "count" for name in COUNT_METRICS})


def _count_compile(add, args, result):
    add("compiler.rz_folded", result[1].folded_rz_count)
    add("compiler.pulses", result[1].physical_pulse_count)


def _count_optimize(add, args, result):
    add("optim.restarts", result.restarts_used)
    add("optim.fits", 1)
    add("optim.converged", int(result.converged))


def _count_emit(add, args, result):
    add("scan.bytes_written", os.path.getsize(result))


COUNTERS = {
    "compiler.virtual_z_pass": _count_compile,
    "simulator.run":
        lambda add, args, result: add("simulator.gates_applied",
                                      len(args[0].gates)),
    "simulator.apply_matrix":
        lambda add, args, result: add("simulator.gates_applied", 1),
    "optim.optimize": _count_optimize,
    "optim.minimize":
        lambda add, args, result: add("optim.lbfgsb_calls", 1),
    "optim.infidelity_and_grad":
        lambda add, args, result: add("optim.objective_evals", 1),
    "scan.emit_csv": _count_emit,
    "scan.emit_plot": _count_emit,
}


class Tracer:
    """Records spans ``[name, start, end, parent index, scan id]`` and
    per-scan counts ``{str(scan id): {counter: n}}``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self.scan = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def add(self, counter: str, n: int) -> None:
        per_scan = self.counts.setdefault(str(self.scan), {})
        per_scan[counter] = per_scan.get(counter, 0) + n

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.scan]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.add, args, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every wrapped name; nuqsim must already be imported."""
        self.missing = []
        for (module_name, attr), name in SPANS.items():
            module = sys.modules[module_name]
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        # The builders' Circuit(...) calls are counted, not timed.
        builders = sys.modules["nuqsim.builders"]
        circuit = builders.Circuit

        def counted_circuit(*args, **kwargs):
            result = circuit(*args, **kwargs)
            self.add("circuits.ops_built", len(result.ops))
            return result
        self._patch(builders, "Circuit", counted_circuit)

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def adopt(self, child: dict, start: float, end: float, scan: int) -> None:
        """Add a child process's spans and counts under a root span."""
        root = len(self.spans)
        self.spans.append([ROOT, start, end, None, scan])
        for name, s, e, parent, _ in child["spans"]:
            self.spans.append([name, s, e,
                               root if parent is None else root + 1 + parent,
                               scan])
        self.counts.update(child["counts"])
        self.missing = child["missing"]

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> tuple[dict, dict]:
    """Self time and call count per (scan id, span name)."""
    children = [0.0] * len(spans)
    for name, start, end, parent, scan in spans:
        if parent is not None:
            children[parent] += end - start
    busy: dict = {}
    calls: dict = {}
    for i, (name, start, end, parent, scan) in enumerate(spans):
        busy[scan, name] = busy.get((scan, name), 0.0) + end - start - children[i]
        calls[scan, name] = calls.get((scan, name), 0) + 1
    return busy, calls


def layer_metrics(spans: list[list], counts: dict, n_scans: int,
                  rotation: int) -> dict:
    """Per-scan layer metrics of traced scans 0..n_scans-1.

    Times: the median over whole rotations (groups of ``rotation``
    consecutive scans) of the layer's self time per scan.  Counts: per
    scan over the first COUNT_SCANS scans, which repeat exactly for a
    seed.  A metric whose layer was never called is None.
    """
    busy, calls = self_times(spans)
    called = {name for _, name in calls}
    seen = {counter for per_scan in counts.values() for counter in per_scan}
    anchor = [counts.get(str(scan), {}) for scan in range(COUNT_SCANS)]

    def per_scan(counter):
        return sum(c.get(counter, 0) for c in anchor) / COUNT_SCANS

    out = {}
    for metric, names in TIME_METRICS.items():
        if called.isdisjoint(names):
            out[metric] = None
            continue
        out[metric] = statistics.median(
            sum(busy.get((scan, name), 0.0) for name in names
                for scan in range(g * rotation, (g + 1) * rotation)) / rotation
            for g in range(n_scans // rotation))
    for metric in COUNT_METRICS:
        out[metric] = per_scan(metric) if metric in seen else None
    fits, restarts = per_scan("optim.fits"), per_scan("optim.restarts")
    out["optim.converged_ratio"] = (per_scan("optim.converged") / fits
                                    if fits else None)
    out["optim.restart_yield"] = fits / restarts if restarts else None
    return out


def exact_counts(tracer: Tracer, scans) -> dict:
    """Every counter and span call count of the given scans."""
    _, calls = self_times(tracer.spans)
    out = {}
    for scan in scans:
        entry = dict(tracer.counts.get(str(scan), {}))
        entry.update({f"calls:{name}": n for (s, name), n in calls.items()
                      if s == scan})
        out[str(scan)] = dict(sorted(entry.items()))
    return out


def closed_loop(one_scan, seconds: float, trace: bool) -> dict:
    """Run scans k = 0, 1, ... one at a time until ``seconds`` have passed.

    ``one_scan(k, tracer)`` runs scan k (traced when ``tracer`` is not
    None) and returns its record.  Always runs at least COUNT_SCANS
    scans.  With ``trace``, every scan runs untraced and then traced
    with the same seed, and afterwards traced scans 0..COUNT_SCANS-1 run
    once more with a fresh tracer for the count self-check.
    """
    tracer = Tracer() if trace else None
    scans, traced = [], []
    start = time.perf_counter()
    k = 0
    while k < COUNT_SCANS or time.perf_counter() - start < seconds:
        scans.append(one_scan(k, None))
        if tracer is not None:
            traced.append(one_scan(k, tracer))
        k += 1
    result = {"scans": scans, "traced": traced}
    if tracer is not None:
        recheck = Tracer()
        for k in range(COUNT_SCANS):
            one_scan(k, recheck)
        result.update(spans=tracer.spans, counts=tracer.counts,
                      missing=tracer.missing,
                      anchor=exact_counts(tracer, range(COUNT_SCANS)),
                      recheck=exact_counts(recheck, range(COUNT_SCANS)))
    return result
