"""Exact statevector backend for 1- and 2-qubit circuits.

States are dense complex vectors of length 2 or 4 with qubit 0 as the
most significant bit.  Everything here is a pure function; execution of
a circuit is deterministic, and shot sampling is a single binomial draw
from ``Generator(PCG64(seed))`` so identical (state, shots, seed) give
identical counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, GateOp
from .rng import sampling_generator

_EYE2 = np.eye(2, dtype=complex)

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ShotResult:
    """Counts from repeated Z-basis measurement of one qubit."""

    shots: int
    counts: dict[str, int]
    seed: int


def ry_matrix(a: float) -> np.ndarray:
    """Real 2x2 matrix of RY(a) = exp(-i a Y/2)."""
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]])


def gate_matrix(op: GateOp) -> np.ndarray:
    """Exact unitary of a gate op (2x2, or 4x4 for CNOT).

    U(theta, phi, lam) = [[cos(t/2),            -e^{i lam} sin(t/2)],
                          [e^{i phi} sin(t/2),  e^{i(phi+lam)} cos(t/2)]]
    RY(a) = exp(-i a Y/2), RZ(a) = exp(-i a Z/2).
    """
    kind = op.kind
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.RY:
        return ry_matrix(op.params[0]).astype(complex)
    if kind is GateKind.RZ:
        half = op.params[0] / 2
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
    if kind is GateKind.U:
        theta, phi, lam = op.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ])
    if kind is GateKind.CNOT:
        m = np.eye(4, dtype=complex)
        if op.qubits == (0, 1):        # control is the MSB
            m[[2, 3]] = m[[3, 2]]
        else:                          # control is the LSB
            m[[1, 3]] = m[[3, 1]]
        return m
    raise ValueError("MEASURE has no unitary matrix")


def init_state(width: int) -> np.ndarray:
    """The all-|0> state of a 1- or 2-qubit register."""
    if width not in (1, 2):
        raise ValueError("width must be 1 or 2")
    state = np.zeros(2 ** width, dtype=complex)
    state[0] = 1.0
    return state


def embedded_matrix(op: GateOp, width: int) -> np.ndarray:
    """Gate unitary expanded to the full register dimension."""
    m = gate_matrix(op)
    dim = 2 ** width
    if m.shape[0] == dim:
        return m
    if m.shape[0] == 2 and dim == 4:
        q = op.qubits[0]
        return np.kron(m, _EYE2) if q == 0 else np.kron(_EYE2, m)
    raise ValueError(f"{op.kind.value} does not fit a width-{width} register")


def apply(state: np.ndarray, op: GateOp) -> np.ndarray:
    """Apply one gate op to a state; dimension mismatches raise."""
    if op.kind is GateKind.MEASURE:
        raise ValueError("MEASURE cannot be applied to a statevector")
    width = _state_width(state)
    return embedded_matrix(op, width) @ state


def apply_matrix(state: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a raw full-dimension unitary (e.g. a dilation matrix)."""
    matrix = np.asarray(matrix)
    if matrix.shape != (state.shape[0], state.shape[0]):
        raise ValueError(f"matrix shape {matrix.shape} does not match "
                         f"state dimension {state.shape[0]}")
    return matrix @ state


def run(circuit: Circuit, initial: np.ndarray | None = None
        ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Execute a circuit; returns (final state, measured qubit indices)."""
    state = init_state(circuit.width) if initial is None else np.asarray(
        initial, dtype=complex)
    if state.shape != (2 ** circuit.width,):
        raise ValueError("initial state does not match circuit width")
    for op in circuit.gates:
        state = apply(state, op)
    return state, circuit.measured_qubits


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Total unitary of the gate part of a circuit (tail measures ignored)."""
    dim = 2 ** circuit.width
    total = np.eye(dim, dtype=complex)
    for op in circuit.gates:
        total = embedded_matrix(op, circuit.width) @ total
    return total


def probabilities(state: np.ndarray, qubit: int) -> tuple[float, float]:
    """Z-basis outcome probabilities (p0, p1) for one qubit.

    For a 2-qubit state this is the marginal over the other qubit, i.e.
    the diagonal of the reduced density matrix.
    """
    width = _state_width(state)
    norm2 = float(np.sum(np.abs(state) ** 2))
    if abs(norm2 - 1.0) > _NORM_TOL:
        raise ValueError(f"state is not normalized (|psi|^2 = {norm2})")
    if not 0 <= qubit < width:
        raise ValueError(f"qubit {qubit} out of range for width {width}")
    probs = np.abs(state) ** 2
    if width == 1:
        return float(probs[0]), float(probs[1])
    grid = probs.reshape(2, 2)        # axes (q0, q1)
    marg = grid.sum(axis=1 - qubit)
    return float(marg[0]), float(marg[1])


def sample(state: np.ndarray, qubit: int, shots: int, seed: int) -> ShotResult:
    """Draw Z-basis counts for one qubit from the exact distribution.

    One binomial(shots, p1) draw from PCG64(seed); bit-reproducible.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _, p1 = probabilities(state, qubit)
    rng = sampling_generator(seed)
    ones = int(rng.binomial(shots, min(max(p1, 0.0), 1.0)))
    return ShotResult(shots=shots, counts={"0": shots - ones, "1": ones},
                      seed=seed)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                             tol: float = 1e-12) -> bool:
    """True when |<a|b>| = 1 within tol (both assumed normalized)."""
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                                tol: float = 1e-12) -> bool:
    """True when |tr(a^H b)|/dim = 1 within tol."""
    dim = a.shape[0]
    return abs(abs(np.trace(a.conj().T @ b)) / dim - 1.0) <= tol


def _state_width(state: np.ndarray) -> int:
    if state.shape == (2,):
        return 1
    if state.shape == (4,):
        return 2
    raise ValueError(f"state must have dimension 2 or 4, got shape {state.shape}")
