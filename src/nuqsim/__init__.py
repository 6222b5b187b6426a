"""Two-flavor neutrino propagation in matter on an emulated 1-2 qubit device."""

from .circuits import Circuit, GateKind, GateOp, cnot, measure, ry, rz, u, x
from .compiler import (CompileReport, dump_circuit, lower_to_native, pulse,
                       pulse_count, sx, virtual_z_pass)
from .oscillation import (CONSTANTS, EffectiveParams, MatterLayer,
                          NumericalDomainError, OscParams, PhysConstants,
                          SlabProfile, atmospheric_effective_angle,
                          effective_params, matter_potential, phase,
                          prob_constant_density, prob_msw_adiabatic, prob_slab)
from .builders import (DilationSet, SynthesisParams, build_dilation,
                       build_msw_circuit, build_slab_circuit,
                       dilation_from_angles, earth_profile)
from .optim import FidelityProblem, OptimResult, optimize
from .scan import (ConfigError, ScanConfig, ScanPoint, ScanResult, emit_csv,
                   emit_plot, run_scan)
from .simulator import (apply, apply_matrix, circuit_unitary, gate_matrix,
                        init_state, probabilities, run, sample,
                        unitaries_equal_up_to_phase)

__version__ = "0.1.0"
