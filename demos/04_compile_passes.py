"""The two circuit-rewriting passes, step by step.

1. virtual-Z folding: every RZ(phi) becomes a software phase offset on
   the rotations that follow it, and the two rotations that meet at a
   slab boundary share one offset, so they merge into one pulse: N
   slabs cost N + 2 pulses.  The trailing RZ is elided when the circuit
   ends in a Z-basis measurement.
2. native lowering: X/RY/RZ/U gates are rewritten onto {RZ, sqrt(X), X},
   the usual fixed-frequency-transmon gate set, preserving the unitary
   up to a global phase.
"""
import numpy as np

from nuqsim import (Circuit, circuit_unitary, dump_circuit, lower_to_native,
                    measure, pulse_count, ry, rz, u, virtual_z_pass, x)
from nuqsim.simulator import unitaries_equal_up_to_phase

circ = Circuit(1, (
    x(0),
    ry(-0.62), rz(1.27), ry(0.62),      # slab 1
    ry(-1.05), rz(0.44), ry(1.05),      # slab 2
    measure(0),
))
print("input circuit:")
print(dump_circuit(circ))
print(f"physical pulses if executed literally: {pulse_count(circ)}\n")

compiled, report = virtual_z_pass(circ)
print("after virtual-Z folding (note the cumulative offsets):")
print(dump_circuit(compiled))
print(f"physical pulses now: {report.physical_pulse_count} "
      f"({report.folded_rz_count} RZ folded, "
      f"{report.merged_ry_count} RY merged, "
      f"residual frame angle {report.residual_rz:.4f} rad elided)\n")

lowered = lower_to_native(Circuit(1, (u(0.9, -0.3, 1.4), ry(0.5))))
print("native lowering of [U(0.9, -0.3, 1.4), RY(0.5)]:")
print(dump_circuit(lowered))
same = unitaries_equal_up_to_phase(
    circuit_unitary(lowered),
    circuit_unitary(Circuit(1, (u(0.9, -0.3, 1.4), ry(0.5)))), 1e-12)
print(f"unitary preserved up to global phase: {same}")

# the sqrt(X) is written in pulse form; squaring it gives X
from nuqsim import sx, gate_matrix
m = gate_matrix(sx())
print("\nsqrt(X) pulse form squared:")
print(np.round(m @ m, 12))
