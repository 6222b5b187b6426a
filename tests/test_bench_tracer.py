"""The benchmark's span tracer (bench/spans.py) still finds what it wraps.

The tracer patches nuqsim names from outside and skips a name that is
gone, so a refactor that renames or moves one silently empties a
per-layer metric.  This runs two scans under it and pins what it sees.
"""
import json
import pathlib

import nuqsim.cli as cli
from nuqsim import scan

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# The one wrapped name that no longer exists: run_scan compiles through
# nuqsim.scan, and bench/spans.py still wraps nuqsim.builders.
KNOWN_MISSING = ["nuqsim.builders.virtual_z_pass"]


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
    assert {"circuits.ops_built", "optim.restarts"} <= counted
    # the optimizer's per-layer view: one objective call per msw point,
    # at its warm start
    assert tracer.counts["0"]["optim.objective_evals"] == 3
    # the whole grid samples in one call: one sample span per scan
    # (two scans), not one per point
    runs = [i for i, span in enumerate(tracer.spans)
            if span[0] == "scan.run_scan"]
    samples = [span[3] for span in tracer.spans
               if span[0] == "simulator.sample"]
    assert len(runs) == 2 and sorted(samples) == runs
    traced = {span[0] for span in tracer.spans}
    assert {"scan.run_scan", "builders.build_msw_circuit",
            "builders.build_slab_circuit", "optim.optimize",
            "optim.infidelity_and_grad", "simulator.run",
            "simulator.sample"} <= traced
