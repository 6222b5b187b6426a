"""Exact statevector backend for 1- and 2-qubit circuits, batched over a grid.

States are dense complex vectors of length 2 or 4 with qubit 0 as the
most significant bit.  Every function works on a stack of them: a
template circuit (angles of shape ``(n,)``) evolves an ``(n, dim)``
array of states in one pass over its gates, a single circuit (float
angles) evolves one ``(dim,)`` state, and both run the same code.
``gate_matrix`` is the only place gate matrices are built; it returns
``(n, 2, 2)`` stacks for array angles and plain 2x2 / 4x4 matrices for
float angles or none, which broadcast over the batch; ``apply_matrix``
takes ``(n, 4, 4)`` dilation stacks.  A single-qubit gate on a 2-qubit
register acts on the state reshaped to ``(..., 2, 2)`` (axes q0, q1),
so no 4x4 embedding is ever formed.

Everything here is a pure function; execution is deterministic, and
shot sampling is a single binomial draw from ``Generator(PCG64(seed))``
so identical (p1, shots, seed) give identical counts (numpy freezes
PCG64's stream per seed).  Sampling seeds PCG64 with the seed itself
(``seed XOR i`` for scan point i); optimizer restarts draw from a
SeedSequence spawn of it (``optim``), so the two never share a stream.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, GateKind, GateOp

_NORM_TOL = 1e-9


def _matrix2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] over the broadcast shape of the entries."""
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 2),
                 np.result_type(a, b, c, d))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def gate_matrix(op: GateOp) -> np.ndarray:
    """Exact unitary of a gate op (2x2, or 4x4 for CNOT), stacked over
    the op's angle arrays.

    U(theta, phi, lam) = [[cos(t/2),            -e^{i lam} sin(t/2)],
                          [e^{i phi} sin(t/2),  e^{i(phi+lam)} cos(t/2)]]
    RY(a) = exp(-i a Y/2), RZ(a) = exp(-i a Z/2).
    """
    kind = op.kind
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.RY:
        c, s = np.cos(op.params[0] / 2), np.sin(op.params[0] / 2)
        return _matrix2(c, -s, s, c).astype(complex)
    if kind is GateKind.RZ:
        half = op.params[0] / 2
        return _matrix2(np.exp(-1j * half), 0, 0, np.exp(1j * half))
    if kind is GateKind.U:
        theta, phi, lam = op.params
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return _matrix2(c, -np.exp(1j * lam) * s,
                        np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c)
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


def apply(state: np.ndarray, op: GateOp) -> np.ndarray:
    """Apply one gate op to a state or a stack of states; dimension
    mismatches raise."""
    if op.kind is GateKind.MEASURE:
        raise ValueError("MEASURE cannot be applied to a statevector")
    width = _state_width(state)
    m = gate_matrix(op)
    if m.shape[-1] == state.shape[-1]:
        return _matvec(m, state)
    if m.shape[-1] == 2 and width == 2:
        # rows of the (..., q0, q1) reshape are q1 vectors, columns q0 vectors
        pairs = state.reshape(state.shape[:-1] + (2, 2))
        if op.qubits[0] == 1:
            out = _matvec(m[..., None, :, :], pairs)
        else:
            out = np.swapaxes(_matvec(m[..., None, :, :],
                                      np.swapaxes(pairs, -1, -2)), -1, -2)
        return out.reshape(out.shape[:-2] + (4,))
    raise ValueError(f"{op.kind.value} does not fit a width-{width} register")


def apply_matrix(state: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a raw full-dimension unitary (e.g. a dilation matrix) or a
    stack of them."""
    matrix = np.asarray(matrix)
    dim = state.shape[-1]
    if matrix.shape[-2:] != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match "
                         f"state dimension {dim}")
    return _matvec(matrix, state)


def _matvec(m: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Matrix stack times state stack, as whole-array products summed in
    column order: a few array operations per gate, not one per point."""
    out = m[..., :, 0] * state[..., None, 0]
    for k in range(1, state.shape[-1]):
        out = out + m[..., :, k] * state[..., None, k]
    return out


def run(circuit: Circuit, initial: np.ndarray | None = None
        ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Execute a circuit; returns (final states, measured qubit indices).

    A template gives ``batch_shape + (dim,)`` states, one per grid
    point.  ``initial`` (default all-|0>) has shape ``(..., dim)`` and
    broadcasts against the template's batch.
    """
    state = init_state(circuit.width) if initial is None else np.asarray(
        initial, dtype=complex)
    if state.shape[-1:] != (2 ** circuit.width,):
        raise ValueError("initial state does not match circuit width")
    for op in circuit.gates:
        state = apply(state, op)
    return state, circuit.measured_qubits


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Total unitary of the gate part of a circuit (tail measures ignored),
    stacked over a template's batch."""
    dim = 2 ** circuit.width
    # column k evolves basis state k, on an axis of its own before the batch
    basis = np.eye(dim, dtype=complex).reshape(
        (dim,) + (1,) * len(circuit.batch_shape) + (dim,))
    columns, _ = run(circuit, basis)
    return np.moveaxis(columns, 0, -1)


def probabilities(state: np.ndarray, qubit: int):
    """Z-basis outcome probabilities (p0, p1) for one qubit.

    For a 2-qubit state this is the marginal over the other qubit, i.e.
    the diagonal of the reduced density matrix.  A stack of states
    gives arrays over the stack; every row must be normalized.
    """
    width = _state_width(state)
    probs = np.abs(state) ** 2
    norm2 = probs.sum(axis=-1)
    bad = ~(np.abs(norm2 - 1.0) <= _NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"state {i} is not normalized "
                         f"(|psi|^2 = {np.ravel(norm2)[i]})")
    if not 0 <= qubit < width:
        raise ValueError(f"qubit {qubit} out of range for width {width}")
    if width == 2:                    # axes (q0, q1); keep the measured one
        probs = probs.reshape(probs.shape[:-1] + (2, 2)).sum(
            axis=-1 if qubit == 0 else -2)
    return probs[..., 0][()], probs[..., 1][()]


def sample(p1: float, shots: int, seed: int) -> int:
    """Number of 1 outcomes in ``shots`` Z-basis measurements of a qubit
    whose exact outcome-1 probability is ``p1`` (from ``probabilities``).

    One binomial(shots, p1) draw from PCG64(seed), with p1 clipped to
    [0, 1] against rounding; bit-reproducible.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.Generator(np.random.PCG64(seed))
    return int(rng.binomial(shots, min(max(float(p1), 0.0), 1.0)))


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                                tol: float = 1e-12) -> bool:
    """True when |tr(a^H b)|/dim = 1 within tol."""
    dim = a.shape[0]
    return abs(abs(np.trace(a.conj().T @ b)) / dim - 1.0) <= tol


def _state_width(state: np.ndarray) -> int:
    dim = np.shape(state)[-1:]
    if dim == (2,):
        return 1
    if dim == (4,):
        return 2
    raise ValueError(f"state must have dimension 2 or 4, got shape "
                     f"{np.shape(state)}")
