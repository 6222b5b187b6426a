"""The benchmark's span tracer (bench/spans.py) still finds what it wraps.

The tracer patches nuqsim names from outside and skips a name that is
gone, so a refactor that renames or moves one silently empties a
per-layer metric.  This runs scans under it and pins what it sees, and
that every per-layer metric a traced benchmark run reports is a number.
"""
import ast
import json
import pathlib

import nuqsim.cli as cli
from nuqsim import scan

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# The wrapped names that no longer exist: the scan calls no optimizer,
# and run_scan compiles through nuqsim.scan and computes the layer
# parameters there, while bench/spans.py still wraps nuqsim.builders.
KNOWN_MISSING = ["nuqsim.scan.optimize", "nuqsim.builders.virtual_z_pass",
                 "nuqsim.builders.slab_layer_params"]


def test_tracer_wraps_every_name_but_the_known_stale_one(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cfg in ({"scenario": "msw", "synthesis": "optimized",
                     "energies": "0.001:0.05:3"},
                    {"scenario": "slab", "compile": True,
                     "energies": "1:25:2"}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(cfg, shots=64,
                                            csv=str(tmp_path / "out.csv"))))
            assert cli.main(["scan", "--config", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert cli.run_scan is scan.run_scan
    assert tracer.missing == KNOWN_MISSING
    counted = {name for per_scan in tracer.counts.values()
               for name in per_scan}
    assert "circuits.ops_built" in counted
    # the whole grid samples in one call: one sample span per scan
    # (two scans), not one per point
    runs = [i for i, span in enumerate(tracer.spans)
            if span[0] == "scan.run_scan"]
    samples = [span[3] for span in tracer.spans
               if span[0] == "simulator.sample"]
    assert len(runs) == 2 and sorted(samples) == runs
    traced = {span[0] for span in tracer.spans}
    assert {"scan.run_scan", "builders.build_msw_circuit",
            "builders.build_slab_circuit", "simulator.run",
            "simulator.sample"} <= traced
    # the msw scan accepts the closed-form angles of its whole grid in
    # one pass and never calls the optimizer
    assert "optim.optimize" not in traced


def bench_constant(module: str, name: str):
    """A literal constant of a bench module, read from its source: importing
    bench/run.py would import bench's reference.py, whose name the tests'
    reference.py already holds."""
    tree = ast.parse((BENCH / module).read_text())
    value, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == [name]]
    return ast.literal_eval(value)


# per-layer metrics that a traced run measures outside the traced scans:
# the set-up interpreters' import, and the untraced loop's times
MEASURED_APART = {"cli.import_s", "cli.modules_loaded", "trace.overhead"}


def test_a_traced_run_reports_a_number_for_every_per_layer_metric(
        tmp_path, monkeypatch):
    """Each workload of bench/workloads.py, scanned as ``run.py --trace 1``
    scans it (its configs in rotation, seed 7, the scan wrapped in a root
    span), gives every per-layer metric of ``run.py``'s ``PER_LAYER`` a
    value.  A scan that stops calling a name the tracer times or counts
    would print null there, and the run's last line would be no result."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    from workloads import WORKLOADS, scan_config, write_config
    per_layer = bench_constant("run.py", "PER_LAYER")
    assert MEASURED_APART < set(per_layer)
    for name, workload in WORKLOADS.items():
        rotation = len(workload.configs)
        scans = max(spans.COUNT_SCANS, rotation)
        tracer = spans.Tracer()
        for k in range(scans):
            cfg = scan_config(workload, 7, k, str(tmp_path / f"{name}-{k}"))
            path = write_config(cfg, cfg["csv"] + ".json")
            tracer.scan = k
            tracer.install()
            try:
                assert tracer.wrap(spans.ROOT, cli.main)(
                    ["scan", "--config", path]) == 0
            finally:
                tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, tracer.counts, scans,
                                      rotation=rotation)
        assert [metric for metric in per_layer if metric not in MEASURED_APART
                and metrics[metric] is None] == [], name
