"""Single-qubit circuit rewriting.

Two passes:

- ``virtual_z_pass`` removes every RZ by folding its angle into the
  phase offset of subsequent rotations (each RY(t) under a pending
  offset L becomes the pulse-form gate U(t, -L, L), a rotation about
  the equatorial axis (sin L, cos L, 0)).  A trailing RZ carries the
  total offset unless the circuit ends in a Z-basis measurement, where
  it is irrelevant and elided.  The pass is one walk over the ops; on a
  template the offset is an array over the grid.
- ``lower_to_native`` rewrites X/RY/RZ/U circuits onto the native set
  {RZ, sqrt(X), X}, with sqrt(X) represented in pulse form as
  U(pi/2, -pi/2, pi/2).

The output unitary of ``virtual_z_pass`` (trailing RZ kept) equals the
input exactly for X/RY/RZ and pulse-form U inputs; a general
U(theta, phi, lam) with phi + lam != 0 has determinant e^{i(phi+lam)},
which no RZ/pulse-form sequence can carry, so there equality holds up
to a global phase.  Z-basis probabilities are preserved in every case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, GateOp, rz, u

SX_PARAMS = (math.pi / 2, -math.pi / 2, math.pi / 2)
_SX_TOL = 1e-15      # largest angle difference is_sx accepts


def sx(qubit: int = 0) -> GateOp:
    """Native sqrt(X) in pulse form."""
    return u(*SX_PARAMS, qubit)


def is_sx(op: GateOp) -> bool:
    return (op.kind is GateKind.U
            and all(abs(p - r) <= _SX_TOL for p, r in zip(op.params, SX_PARAMS)))


@dataclass(frozen=True)
class CompileReport:
    input_gate_count: int        # ops excluding MEASURE
    output_gate_count: int
    physical_pulse_count: int    # pulse_count() of the output
    folded_rz_count: int
    residual_rz: float | np.ndarray  # angle of the (kept or elided) trailing RZ


def pulse_count(circuit: Circuit) -> int:
    """Number of gates needing a physical pulse.

    Every gate except MEASURE needs one, except RZs in tail position
    (followed only by measures): a frame change just before Z-basis
    readout or at the end of the circuit is never executed.
    """
    gates = circuit.gates
    n = len(gates)
    while n > 0 and gates[n - 1].kind is GateKind.RZ:
        n -= 1
    return n


def virtual_z_pass(circuit: Circuit) -> tuple[Circuit, CompileReport]:
    """Fold all RZ gates of a single-qubit circuit into phase offsets.

    Walks the circuit keeping a running offset L: RZ(a) adds a to L and
    is dropped; RY(t) becomes U(t, -L, L) once L is nonzero; U(t, phi, lam) is
    emitted as U(t, -(L+lam), L+lam) and then adds lam + phi to L;
    X flips the sign of L.  A final RZ(L) is appended unless the next
    op is a measurement (elided) or L is zero.  On a template, L is an
    array over the grid, which counts as zero only if every entry is;
    ``residual_rz`` is then that array.
    """
    if circuit.width != 1:
        raise ValueError("virtual-Z pass supports single-qubit circuits only")

    out, offset, nonzero, folded = [], 0.0, False, 0
    for i, op in enumerate(circuit.ops):
        if op.kind is GateKind.RZ:
            offset = offset + op.params[0]
            nonzero = bool(np.count_nonzero(offset))
            folded += 1
        elif op.kind is GateKind.X:
            out.append(op)
            offset = -offset
        elif op.kind is GateKind.RY:
            out.append(u(op.params[0], -offset, offset, op.qubits[0])
                       if nonzero else op)
        elif op.kind is GateKind.U:
            theta, phi, lam = op.params
            eff = offset + lam
            out.append(u(theta, -eff, eff, op.qubits[0]))
            offset = offset + (lam + phi)
            nonzero = bool(np.count_nonzero(offset))
        else:                                   # the measure tail
            out += circuit.ops[i:]
            break
    else:
        if nonzero:
            out.append(rz(offset))

    compiled = Circuit(circuit.width, tuple(out))
    report = CompileReport(
        input_gate_count=len(circuit.gates),
        output_gate_count=len(compiled.gates),
        physical_pulse_count=pulse_count(compiled),
        folded_rz_count=folded,
        residual_rz=offset if nonzero else 0.0,
    )
    return compiled, report


# --- native lowering ---------------------------------------------------------

def _expand_u(theta: float, phi: float, lam: float, qubit: int) -> list[GateOp]:
    """U(theta, phi, lam) as RZ(lam), SX, RZ(theta+pi), SX, RZ(phi+pi)."""
    ops = [rz(lam, qubit), sx(qubit), rz(theta + math.pi, qubit),
           sx(qubit), rz(phi + math.pi, qubit)]
    return [op for op in ops if not (op.kind is GateKind.RZ and op.params[0] == 0.0)]


def lower_to_native(circuit: Circuit) -> Circuit:
    """Rewrite a single-qubit circuit onto {RZ, sqrt(X), X}.

    The total unitary is preserved up to global phase.  Collapses the
    trivial cases: RZ and X pass through, a pulse-form sqrt(X) stays a
    single gate, and a zero-angle U reduces to one RZ.
    """
    if circuit.width != 1:
        raise ValueError("two-qubit lowering is not supported")
    _require_single(circuit)

    out: list[GateOp] = []
    for op in circuit.ops:
        kind = op.kind
        if kind in (GateKind.RZ, GateKind.X, GateKind.MEASURE):
            if not (kind is GateKind.RZ and op.params[0] == 0.0):
                out.append(op)
        elif kind is GateKind.RY:
            out.extend(_expand_u(op.params[0], 0.0, 0.0, op.qubits[0]))
        else:
            theta, phi, lam = op.params
            if is_sx(op):
                out.append(op)
            elif theta == 0.0:
                if phi + lam != 0.0:
                    out.append(rz(phi + lam, op.qubits[0]))
            else:
                out.extend(_expand_u(theta, phi, lam, op.qubits[0]))
    return Circuit(circuit.width, tuple(out))


def _require_single(circuit: Circuit) -> None:
    if circuit.batch_shape:
        raise ValueError("a template circuit holds one circuit per grid "
                         "point; cut one out with Circuit.point(i)")


# --- textual dump ------------------------------------------------------------

def dump_circuit(circuit: Circuit) -> str:
    """One gate per line: kind, angles, qubit indices.

    Angles use repr(), so every angle reads back bit-exactly.
    """
    _require_single(circuit)
    lines = [f"# nuqsim-circuit width={circuit.width}"]
    for op in circuit.ops:
        fields = [op.kind.value]
        fields += [repr(p) for p in op.params]
        fields += [str(q) for q in op.qubits]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"

