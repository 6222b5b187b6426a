"""Two-flavor neutrino propagation in matter on an emulated 1-2 qubit device."""

from .circuits import Circuit, measure, ry, rz, u, x
from .compiler import (dump_circuit, lower_to_native, pulse_count, sx,
                       virtual_z_pass)
from .oscillation import (MATTER_FACTOR, MatterLayer, OscParams, SlabProfile,
                          effective_params, matter_potential,
                          prob_constant_density, prob_msw_adiabatic, prob_slab,
                          slab_layer_params)
from .builders import (build_dilation, build_msw_circuit, build_slab_circuit,
                       earth_profile)
from .optim import FidelityProblem, optimize
from .scan import ScanConfig, emit_csv, emit_plot, run_scan
from .simulator import (circuit_unitary, gate_matrix, probabilities, run,
                        sample)

__version__ = "0.1.0"
