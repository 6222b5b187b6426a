"""Circuit intermediate representation for 1- and 2-qubit gate lists.

Gate set: X, RY, RZ, U (generic three-angle single-qubit rotation),
CNOT, MEASURE.  Qubit 0 is the most significant bit of the basis index,
so a two-qubit basis state reads |q0 q1>.  MEASURE ops may only appear
at the tail of a circuit.  Circuits and ops are immutable values.

A circuit is its gate list ``layout``, one ``(kind, qubits)`` pair per
op checked once per distinct pair, and one read-only float64 matrix
``angles``, ``(P, n)`` for a template of n grid points run as one batch
or ``(P,)`` for a single circuit, copied from a real array and checked
finite once; each op reads its next ``N_PARAMS[kind]`` rows.  It is
built as ``Circuit(width, layout=..., angles=...)``, or from ops, named
tuples ``(kind, qubits, params)`` that the gate factories ``x``, ``ry``,
``rz``, ``u``, ``cnot`` and ``measure`` (one number per angle) and
``Circuit.ops`` (views, so ``Circuit(t.width, t.ops) == t``) build.
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


def _check_gate(kind, qubits, width: int) -> None:
    """Refuse, naming the kind, all but a GateKind on a tuple of distinct
    int qubits of a width-``width`` register, two for CNOT, else one."""
    if not isinstance(kind, GateKind):
        raise ValueError(f"gate kind must be a GateKind, got {kind!r}")
    arity = 2 if kind is GateKind.CNOT else 1
    if not (type(qubits) is tuple and len(qubits) == arity
            and all(type(q) is int for q in qubits)):
        raise ValueError(f"{kind.value} needs {arity} qubit(s) as a tuple "
                         f"of ints, got {qubits!r}")
    if min(qubits) < 0:
        raise ValueError(f"{kind.value} on negative qubit index {min(qubits)}")
    if len(set(qubits)) < arity:
        raise ValueError(f"{kind.value} control and target must differ")
    if max(qubits) >= width:
        raise ValueError(f"{kind.value} on qubit {max(qubits)} "
                         f"exceeds circuit width {width}")


def _check_entry(entry, width: int) -> None:
    """``_check_gate`` of a layout entry; an entry that is no pair is
    refused, named whole."""
    if type(entry) is not tuple or len(entry) != 2:
        raise ValueError(f"layout entry {entry!r} is not a (kind, qubits) "
                         "pair")
    _check_gate(*entry, width)


def _op(kind: GateKind, qubits: tuple[int, ...], *angles) -> GateOp:
    """The op of a one-gate circuit on the widest register, checked as
    every circuit is; one real number per angle."""
    if any(np.ndim(a) for a in angles):
        raise ValueError("a gate factory takes one number per angle; build "
                         "templates as Circuit(width, layout=..., angles=...)")
    return Circuit(2, layout=((kind, qubits),), angles=angles).ops[0]


def x(qubit: int = 0) -> GateOp:
    return _op(GateKind.X, (qubit,))


def ry(angle, qubit: int = 0) -> GateOp:
    return _op(GateKind.RY, (qubit,), angle)


def rz(angle, qubit: int = 0) -> GateOp:
    return _op(GateKind.RZ, (qubit,), angle)


def u(theta, phi, lam, qubit: int = 0) -> GateOp:
    return _op(GateKind.U, (qubit,), theta, phi, lam)


def cnot(control: int, target: int) -> GateOp:
    return _op(GateKind.CNOT, (control, target))


def measure(qubit: int = 0) -> GateOp:
    return _op(GateKind.MEASURE, (qubit,))


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
            angles = [p for op in ops for p in op.params]
        angles = np.array(angles, order="C")     # a copy the circuit owns
        if angles.dtype.kind not in "iuf":
            raise ValueError(f"angles must be real, got dtype {angles.dtype}")
        angles, layout = angles.astype(float, copy=False), tuple(layout)
        if width not in (1, 2):
            raise ValueError(f"width must be 1 or 2, got {width}")
        try:
            distinct = set(layout)
        except TypeError:       # an unhashable entry, which the check names
            distinct = layout
        for entry in distinct:
            _check_entry(entry, width)
        measured: list[int] = []
        # read once: each GateKind.<name> lookup runs EnumType's __getattr__
        count, measure_kind = 0, GateKind.MEASURE
        for kind, qubits in layout:
            count += N_PARAMS[kind]
            if kind is measure_kind:
                if qubits[0] in measured:
                    raise ValueError(f"qubit {qubits[0]} measured twice")
                measured.append(qubits[0])
            elif measured:
                raise ValueError("gate after MEASURE; measures must be at the tail")
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
