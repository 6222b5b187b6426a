"""Circuit intermediate representation for 1- and 2-qubit gate lists.

Gate set: X, RY, RZ, U (generic three-angle single-qubit rotation),
CNOT, MEASURE.  Qubit 0 is the most significant bit of the basis index,
so a two-qubit basis state reads |q0 q1>.  MEASURE ops may only appear
at the tail of a circuit.  Circuits and ops are immutable values.  An op
is a named tuple ``(kind, qubits, params)`` built only by the gate
factories ``x``, ``ry``, ``rz``, ``u``, ``cnot`` and ``measure``, which
check its qubits and angles.

An angle is a float or a real ``(n,)`` array.  A circuit copies all its
ops' angles, in op order, into one read-only float64 matrix ``angles``,
``(P,) + batch_shape``, checks it finite once, and its ops' params are
its rows, so no later write to a caller's array changes the circuit.  A
circuit with array angles is a template, one circuit per grid point run
as one batch (``batch_shape == (n,)``; a float angle fills its row); one
of float angles is a single circuit (``batch_shape == ()``, float params).
``Circuit.point(i)`` cuts the single circuit of point i from a template.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np


class GateKind(Enum):
    X = "X"
    RY = "RY"
    RZ = "RZ"
    U = "U"
    CNOT = "CNOT"
    MEASURE = "MEASURE"


class GateOp(NamedTuple):
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float | np.ndarray, ...] = ()


def _angle(p) -> float | np.ndarray:
    """A float, or a real 1-D array as given."""
    if not isinstance(p, np.ndarray):
        return float(p)
    if p.dtype.kind not in "iuf":
        raise ValueError(f"an angle array must be real, got dtype {p.dtype}")
    if p.ndim > 1:
        raise ValueError(f"an angle array must be 1-D, got shape {p.shape}")
    return p if p.ndim else float(p)


def _qubit(q: int) -> int:
    if q < 0:
        raise ValueError("negative qubit index")
    return q


def x(qubit: int = 0) -> GateOp:
    return GateOp(GateKind.X, (_qubit(qubit),))


def ry(angle, qubit: int = 0) -> GateOp:
    return GateOp(GateKind.RY, (_qubit(qubit),), (_angle(angle),))


def rz(angle, qubit: int = 0) -> GateOp:
    return GateOp(GateKind.RZ, (_qubit(qubit),), (_angle(angle),))


def u(theta, phi, lam, qubit: int = 0) -> GateOp:
    return GateOp(GateKind.U, (_qubit(qubit),),
                  (_angle(theta), _angle(phi), _angle(lam)))


def cnot(control: int, target: int) -> GateOp:
    if _qubit(control) == _qubit(target):
        raise ValueError("CNOT control and target must differ")
    return GateOp(GateKind.CNOT, (control, target))


def measure(qubit: int = 0) -> GateOp:
    return GateOp(GateKind.MEASURE, (_qubit(qubit),))


def _with_params(ops, rows: list) -> tuple[GateOp, ...]:
    """The ops with their params taken, in op order, from ``rows``."""
    out, k = [], 0
    for kind, qubits, params in ops:
        n = len(params)
        out.append(GateOp(kind, qubits, tuple(rows[k:k + n])))
        k += n
    return tuple(out)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over `width` qubits; measures only at the tail."""

    width: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)
    batch_shape: tuple[int, ...] = field(init=False, compare=False,
                                         repr=False)
    angles: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.width not in (1, 2):
            raise ValueError(f"width must be 1 or 2, got {self.width}")
        seen_measure: set[int] = set()
        for op in self.ops:
            if max(op.qubits) >= self.width:
                raise ValueError(f"{op.kind.value} on qubit {max(op.qubits)} "
                                 f"exceeds circuit width {self.width}")
            if op.kind is GateKind.MEASURE:
                if op.qubits[0] in seen_measure:
                    raise ValueError(f"qubit {op.qubits[0]} measured twice")
                seen_measure.add(op.qubits[0])
            elif seen_measure:
                raise ValueError("gate after MEASURE; measures must be at the tail")
        params = [p for op in self.ops for p in op.params]
        shapes = {p.shape for p in params if type(p) is not float}
        if len(shapes) > 1:
            raise ValueError(f"angle arrays of shapes {sorted(shapes)} "
                             "in one circuit")
        shape = shapes.pop() if shapes else ()
        angles = np.empty((len(params),) + shape)
        for k, p in enumerate(params):
            angles[k] = p
        if not np.isfinite(angles).all():
            raise ValueError("non-finite angle in circuit")
        angles.flags.writeable = False
        object.__setattr__(self, "batch_shape", shape)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "ops", _with_params(
            self.ops, list(angles) if shape else angles.tolist()))

    def point(self, i: int) -> "Circuit":
        """The single circuit of grid point i of a template."""
        if not self.batch_shape:
            raise ValueError("a single circuit has no grid points; only a "
                             "template holds one circuit per point")
        return Circuit(self.width,
                       _with_params(self.ops, self.angles[:, i].tolist()))

    @property
    def gates(self) -> tuple[GateOp, ...]:
        """Ops excluding MEASURE."""
        return tuple(op for op in self.ops if op.kind is not GateKind.MEASURE)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(op.qubits[0] for op in self.ops
                     if op.kind is GateKind.MEASURE)
