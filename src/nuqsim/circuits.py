"""Circuit intermediate representation for 1- and 2-qubit gate lists.

Gate set: X, RY, RZ, U (generic three-angle single-qubit rotation),
CNOT, MEASURE.  Qubit 0 is the most significant bit of the basis index,
so a two-qubit basis state reads |q0 q1>.  MEASURE ops may only appear
at the tail of a circuit.  Circuits and ops are immutable values.

A circuit is its gate list ``layout``, one ``(kind, qubits)`` pair per
op, and one read-only float64 matrix ``angles``, ``(P,) + batch_shape``,
copied from its input and checked finite once; each op reads its next
``N_PARAMS[kind]`` rows.  ``Circuit(width, layout=..., angles=...)``
builds one with no per-gate object.  ``Circuit(width, ops)`` takes ops,
named tuples ``(kind, qubits, params)`` that only the gate factories
``x``, ``ry``, ``rz``, ``u``, ``cnot`` and ``measure`` build and check
(an angle is a float or a real ``(n,)`` array); ``Circuit.ops`` builds
them back as views on request.  ``(P, n)`` angles make a template, one
circuit per grid point run as one batch (a float op angle fills its
row); ``(P,)`` angles a single circuit (float params), which
``Circuit.point(i)`` cuts from a template.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import NamedTuple

import numpy as np


class GateKind(Enum):
    X = "X"
    RY = "RY"
    RZ = "RZ"
    U = "U"
    CNOT = "CNOT"
    MEASURE = "MEASURE"
    __hash__ = object.__hash__    # singletons: hash by identity, in C


N_PARAMS = dict(zip(GateKind, (0, 1, 1, 3, 0, 0)))   # angles an op carries


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


@dataclass(frozen=True, init=False, eq=False)
class Circuit:
    """Ordered gate list over `width` qubits; measures only at the tail."""

    width: int
    layout: tuple[tuple[GateKind, tuple[int, ...]], ...]
    angles: np.ndarray
    batch_shape: tuple[int, ...]
    measured_qubits: tuple[int, ...]
    __hash__ = None      # equal circuits may hold -0.0 and 0.0 angles

    def __init__(self, width: int, ops=(), *, layout=None, angles=()):
        if layout is None:
            ops = tuple(ops)
            layout = [(op.kind, op.qubits) for op in ops]
            params = [p for op in ops for p in op.params]
            shapes = {p.shape for p in params if type(p) is not float}
            if len(shapes) > 1:
                raise ValueError(f"angle arrays of shapes {sorted(shapes)} "
                                 "in one circuit")
            shape = max(shapes, default=())     # a float fills its row
            angles = [np.full(shape, p) if type(p) is float else p for p in params]
        angles, layout = np.array(angles, dtype=float), tuple(layout)
        if width not in (1, 2):
            raise ValueError(f"width must be 1 or 2, got {width}")
        measured: list[int] = []
        for kind, qubits in layout:
            if max(qubits) >= width:
                raise ValueError(f"{kind.value} on qubit {max(qubits)} "
                                 f"exceeds circuit width {width}")
            if kind is GateKind.MEASURE:
                if qubits[0] in measured:
                    raise ValueError(f"qubit {qubits[0]} measured twice")
                measured.append(qubits[0])
            elif measured:
                raise ValueError("gate after MEASURE; measures must be at the tail")
        count = sum(N_PARAMS[kind] for kind, _ in layout)
        if angles.shape[:1] != (count,) or angles.ndim > 2:
            raise ValueError(f"{count} angle rows, got shape {angles.shape}")
        if not np.isfinite(angles).all():
            raise ValueError("non-finite angle in circuit")
        angles.flags.writeable = False
        self.__dict__.update(width=width, layout=layout, angles=angles,
                             batch_shape=angles.shape[1:],
                             measured_qubits=tuple(measured))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and self.width == other.width
                and self.layout == other.layout
                and np.array_equal(self.angles, other.angles))

    def point(self, i: int) -> "Circuit":
        """The single circuit of grid point i of a template."""
        if not self.batch_shape:
            raise ValueError("a single circuit has no grid points; only a "
                             "template holds one circuit per point")
        return Circuit(self.width, layout=self.layout, angles=self.angles[:, i])

    def rows(self) -> list:
        """The rows of ``angles``: views for a template, floats otherwise."""
        return list(self.angles) if self.batch_shape else self.angles.tolist()

    @property
    def ops(self) -> tuple[GateOp, ...]:
        """One ``GateOp`` per op, its params the op's rows, built anew."""
        rows = iter(self.rows())
        return tuple(GateOp(kind, qubits, tuple(islice(rows, N_PARAMS[kind])))
                     for kind, qubits in self.layout)

    @property
    def gate_layout(self) -> tuple[tuple[GateKind, tuple[int, ...]], ...]:
        """``layout`` without the MEASURE tail."""
        return self.layout[:len(self.layout) - len(self.measured_qubits)]

    @property
    def gates(self) -> tuple[GateOp, ...]:
        """Ops excluding MEASURE."""
        return self.ops[:len(self.gate_layout)]
