"""Circuit intermediate representation for 1- and 2-qubit gate lists.

Gate set: X, RY, RZ, U (generic three-angle single-qubit rotation),
CNOT, MEASURE.  Qubit 0 is the most significant bit of the basis index,
so a two-qubit basis state reads |q0 q1>.  MEASURE ops may only appear
at the tail of a circuit.  Circuits and ops are immutable values.  An op
is a named tuple ``(kind, qubits, params)`` built only by the gate
factories ``x``, ``ry``, ``rz``, ``u``, ``cnot`` and ``measure``, which
check its qubits and angles.

An angle is a float or a read-only ``(n,)`` array, a builder's row view
kept as is; a circuit checks finiteness once per base buffer.  A circuit whose
angles are arrays is a template: one circuit per grid point, all of
the same shape, executed as one batch (``batch_shape == (n,)``).  A
circuit of float angles is a single circuit (``batch_shape == ()``);
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
    """A float, a read-only float64 view of a read-only owner, or a copy."""
    if not isinstance(p, np.ndarray) or p.ndim == 0:
        return float(p)
    owner = p if p.base is None else p.base
    if (type(owner) is np.ndarray and owner.base is None and p.ndim == 1
            and p.dtype == owner.dtype == np.float64 and p.flags.aligned
            and not (p.flags.writeable or owner.flags.writeable)):
        return p
    a = np.array(p, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"an angle array must be 1-D, got shape {a.shape}")
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over `width` qubits; measures only at the tail."""

    width: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)
    batch_shape: tuple[int, ...] = field(init=False, compare=False,
                                         repr=False)

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
        arrays = [p for p in params if type(p) is not float]
        bases = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
        if not (np.isfinite([p for p in params if type(p) is float]).all()
                and (all(np.isfinite(b).all() for b in bases.values())
                     or all(np.isfinite(a).all() for a in arrays))):
            raise ValueError("non-finite angle in circuit")
        shapes = {p.shape for p in arrays}
        if len(shapes) > 1:
            raise ValueError(f"angle arrays of shapes {sorted(shapes)} "
                             "in one circuit")
        object.__setattr__(self, "batch_shape", shapes.pop() if shapes else ())

    def point(self, i: int) -> "Circuit":
        """The single circuit of grid point i of a template."""
        return Circuit(self.width, tuple(
            op._replace(params=tuple(
                p if type(p) is float else float(p[i]) for p in op.params))
            for op in self.ops))

    @property
    def gates(self) -> tuple[GateOp, ...]:
        """Ops excluding MEASURE."""
        return tuple(op for op in self.ops if op.kind is not GateKind.MEASURE)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(op.qubits[0] for op in self.ops
                     if op.kind is GateKind.MEASURE)
