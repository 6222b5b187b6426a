"""Two-flavor neutrino propagation in matter on an emulated 1-2 qubit device.

Each public name loads its module on first access (PEP 562), so
``import nuqsim.cli`` loads only the modules a scan runs.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "circuits": ("Circuit", "measure", "ry", "rz", "u", "x"),
    "compiler": ("dump_circuit", "lower_to_native", "pulse_count", "sx",
                 "virtual_z_pass"),
    "oscillation": ("MATTER_FACTOR", "MatterLayer", "OscParams",
                    "SlabProfile", "effective_params", "matter_potential",
                    "prob_constant_density", "prob_msw_adiabatic",
                    "prob_slab", "slab_layer_params"),
    "builders": ("build_dilation", "build_msw_circuit", "build_slab_circuit",
                 "earth_profile"),
    "optim": ("FidelityProblem", "optimize"),
    "scan": ("ScanConfig", "emit_csv", "emit_plot", "run_scan"),
    "simulator": ("circuit_unitary", "gate_matrix", "probabilities", "run",
                  "sample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value      # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
