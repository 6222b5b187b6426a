"""Single-qubit circuit rewriting.

Two passes:

- ``virtual_z_pass`` removes every RZ by folding its angle into the
  phase offset of subsequent rotations (each RY(t) under a pending
  offset L becomes the pulse-form gate U(t, -L, L), a rotation about
  the equatorial axis (sin L, cos L, 0)), and merges each RY into the
  RY or pulse just emitted before it, which shares its offset: the two
  rotations that meet at a slab layer boundary become one pulse.  A
  trailing RZ carries the total offset unless the circuit ends in a
  Z-basis measurement, where it is irrelevant and elided.  The pass is
  one walk over the gate list and angle rows; on a template the offset
  is an array over the grid.
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
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, GateKind, GateOp, rz, u

SX_PARAMS = (math.pi / 2, -math.pi / 2, math.pi / 2)
_SX_TOL = 1e-15      # largest angle difference is_sx accepts
_U, _RZ = (GateKind.U, (0,)), (GateKind.RZ, (0,))   # shared: no tuple per gate


def sx(qubit: int = 0) -> GateOp:
    """Native sqrt(X) in pulse form."""
    return u(*SX_PARAMS, qubit)


def is_sx(op: GateOp) -> bool:
    return (op.kind is GateKind.U
            and all(abs(p - r) <= _SX_TOL for p, r in zip(op.params, SX_PARAMS)))


class CompileReport(NamedTuple):
    """Gate counts of a ``virtual_z_pass``: every input gate is kept,
    folded or merged, so with a measure tail (no trailing RZ emitted)
    input = output + folded + merged."""
    input_gate_count: int        # ops excluding MEASURE
    output_gate_count: int
    physical_pulse_count: int    # pulse_count() of the output
    folded_rz_count: int
    residual_rz: float | np.ndarray  # angle of the (kept or elided) trailing RZ
    merged_ry_count: int         # RYs added into the rotation before them


def pulse_count(circuit: Circuit) -> int:
    """Number of gates needing a physical pulse.

    Every gate except MEASURE needs one, except RZs in tail position
    (followed only by measures): a frame change just before Z-basis
    readout or at the end of the circuit is never executed.
    """
    gates = circuit.gate_layout
    n = len(gates)
    while n > 0 and gates[n - 1][0] is GateKind.RZ:
        n -= 1
    return n


def virtual_z_pass(circuit: Circuit) -> tuple[Circuit, CompileReport]:
    """Fold all RZ gates of a single-qubit circuit into phase offsets,
    and merge each pair of rotations about one axis into one.

    Walks the circuit keeping a running offset L: RZ(a) adds a to L and
    is dropped; RY(t) becomes U(t, -L, L) once L is nonzero; U(t, phi, lam) is
    emitted as U(t, -(L+lam), L+lam) and then adds lam + phi to L;
    X flips the sign of L.  An RY right after a gate the walk emitted
    from an RY (a plain RY or a pulse U(t, -L, L), with no RZ, X or U
    between them) adds its angle row to that gate's theta row and is
    dropped: RY(a) RY(b) = RY(a + b) and U(a, -L, L) U(b, -L, L) =
    U(a + b, -L, L), point by point on a template, whose two gates
    share one offset row.  A final RZ(L) is appended unless the next
    op is a measurement (elided) or L is zero.  On a template, L is an
    array over the grid, which counts as zero only if every entry is;
    ``residual_rz`` is then that array.  The walk builds no op; it
    writes each pulse's phi row as L and negates them all at once.
    """
    if circuit.width != 1:
        raise ValueError("virtual-Z pass supports single-qubit circuits only")

    # each GateKind.<name> lookup runs EnumType's Python __getattr__ hook
    # (CPython 3.11), so the walk reads the kinds from locals
    RZ, X, RY, U = GateKind.RZ, GateKind.X, GateKind.RY, GateKind.U
    rows, layout, out, phis = iter(circuit.rows()), [], [], []
    offset, nonzero, folded, merged = 0.0, False, 0, 0
    last = None         # theta row index of the gate an RY just emitted
    for i, gate in enumerate(circuit.layout):
        kind = gate[0]
        if kind is RY and last is not None:   # same axis: one rotation
            out[last] = out[last] + next(rows)
            merged += 1
            continue
        last = len(out) if kind is RY else None
        if kind is RZ:
            offset = offset + next(rows)
            nonzero = bool(np.count_nonzero(offset))
            folded += 1
        elif kind is X:
            layout.append(gate)
            offset = -offset
        elif kind is RY and not nonzero:
            layout.append(gate)
            out.append(next(rows))
        elif kind is RY:
            layout.append(_U)
            phis.append(last + 1)               # negated below
            out += (next(rows), offset, offset)
        elif kind is U:
            theta, phi, lam = next(rows), next(rows), next(rows)
            eff = offset + lam
            layout.append(gate)
            phis.append(len(out) + 1)
            out += (theta, eff, eff)
            offset = offset + (lam + phi)
            nonzero = bool(np.count_nonzero(offset))
        else:                                   # the measure tail
            layout += circuit.layout[i:]
            break
    else:
        if nonzero:
            layout.append(_RZ)
            out.append(offset)

    # each pulse's phi is -(its lam): one negation of the stacked phi rows
    for i, row in zip(phis, -np.array([out[i] for i in phis])):
        out[i] = row
    compiled = Circuit(circuit.width, layout=layout, angles=out)
    report = CompileReport(
        input_gate_count=len(circuit.gate_layout),
        output_gate_count=len(compiled.gate_layout),
        physical_pulse_count=pulse_count(compiled),
        folded_rz_count=folded,
        residual_rz=offset if nonzero else 0.0,
        merged_ry_count=merged,
    )
    return compiled, report


# --- native lowering ---------------------------------------------------------

def lower_to_native(circuit: Circuit) -> Circuit:
    """Rewrite a single-qubit circuit onto {RZ, sqrt(X), X}.

    The total unitary is preserved up to global phase.  RY(t) is lowered
    as the U(t, 0, 0) it equals.  RZ and X pass through, a pulse-form
    sqrt(X) stays a single gate, a U with zero theta becomes
    RZ(phi + lam), any other U becomes RZ(lam), SX, RZ(theta + pi), SX,
    RZ(phi + pi), and every RZ(0) is dropped: a zero-angle RY or U
    reduces to nothing.
    """
    if circuit.width != 1:
        raise ValueError("two-qubit lowering is not supported")
    _require_single(circuit)

    out: list[GateOp] = []
    for op in circuit.ops:
        if op.kind is GateKind.RY:
            op = u(op.params[0], 0.0, 0.0)
        if op.kind is not GateKind.U or is_sx(op):
            out.append(op)
            continue
        theta, phi, lam = op.params
        out += ([rz(phi + lam)] if theta == 0.0 else
                [rz(lam), sx(), rz(theta + math.pi), sx(), rz(phi + math.pi)])
    return Circuit(1, tuple(op for op in out if not (
        op.kind is GateKind.RZ and op.params[0] == 0.0)))


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

