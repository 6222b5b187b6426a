"""The package namespace and its plain return records.

``nuqsim/__init__.py`` exports its public names lazily: each loads its
module on first access, so ``import nuqsim.cli`` loads only what a scan
runs.  The records ``EffectiveParams``, ``CompileReport`` and
``OptimResult`` are named tuples: read by field name, never assigned.
"""
import importlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import nuqsim
from nuqsim.circuits import Circuit, ry, rz
from nuqsim.compiler import CompileReport, virtual_z_pass
from nuqsim.oscillation import (EffectiveParams, MatterLayer, OscParams,
                                effective_params)
from nuqsim.optim import FidelityProblem, OptimResult, optimize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# module -> the names the package has re-exported from it since before
# the exports became lazy
PUBLIC = {
    "circuits": ["Circuit", "measure", "ry", "rz", "u", "x"],
    "compiler": ["dump_circuit", "lower_to_native", "pulse_count", "sx",
                 "virtual_z_pass"],
    "oscillation": ["MATTER_FACTOR", "MatterLayer", "OscParams",
                    "SlabProfile", "effective_params", "matter_potential",
                    "prob_constant_density", "prob_msw_adiabatic",
                    "prob_slab", "slab_layer_params"],
    "builders": ["build_dilation", "build_msw_circuit", "build_slab_circuit",
                 "earth_profile"],
    "optim": ["FidelityProblem", "optimize"],
    "scan": ["ScanConfig", "emit_csv", "emit_plot", "run_scan"],
    "simulator": ["circuit_unitary", "gate_matrix", "probabilities", "run",
                  "sample"],
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names]


@pytest.mark.parametrize("module, name", NAMES,
                         ids=[name for _, name in NAMES])
def test_public_name_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from nuqsim import {name}", namespace)
    assert namespace[name] is getattr(
        importlib.import_module(f"nuqsim.{module}"), name)
    assert name in nuqsim.__all__
    assert name in dir(nuqsim)


def test_all_lists_exactly_the_public_names():
    assert sorted(nuqsim.__all__) == sorted(name for _, name in NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nuqsim import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(
            importlib.import_module(f"nuqsim.{module}"), name)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        nuqsim.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from nuqsim import no_such_name", {})


def test_importing_the_package_loads_no_module_until_a_name_is_read():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('nuqsim')))"
    code = f"import sys, nuqsim\n{loaded}\nnuqsim.virtual_z_pass\n{loaded}"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "['nuqsim']", "['nuqsim', 'nuqsim.circuits', 'nuqsim.compiler']"]


def test_pyproject_version_attribute_resolves():
    expand = pytest.importorskip("setuptools.config.expand")
    assert expand.read_attr("nuqsim.__version__", package_dir={"": "src"},
                            root_dir=ROOT) == nuqsim.__version__ == "0.1.0"


def _records():
    ep = effective_params(OscParams(0.6, 7.5e-5), MatterLayer(150.0, 0.5, 0.0),
                          np.array([0.002, 0.02]))
    _, report = virtual_z_pass(Circuit(1, (rz(0.3), ry(0.7), rz(0.2))))
    fit = optimize(FidelityProblem(np.eye(4), restarts=1), seed=3)
    return [(ep, EffectiveParams, ("theta_m", "dm2_m", "beta")),
            (report, CompileReport,
             ("input_gate_count", "output_gate_count", "physical_pulse_count",
              "folded_rz_count", "residual_rz", "merged_ry_count")),
            (fit, OptimResult,
             ("angles", "infidelity", "restarts_used", "converged"))]


def test_records_read_by_name_and_refuse_assignment():
    for record, cls, fields in _records():
        assert type(record) is cls and cls._fields == fields
        for i, field in enumerate(fields):
            assert getattr(record, field) is record[i]
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def test_record_values():
    (ep, _, _), (report, _, _), (fit, _, _) = _records()
    assert ep.theta_m.shape == ep.dm2_m.shape == ep.beta.shape == (2,)
    assert report == CompileReport(3, 2, 1, 2, 0.5, 0)
    assert fit.converged and fit.restarts_used == 1
    assert fit.infidelity <= 1e-9 and fit.angles.shape == (6,)
