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
so no 4x4 embedding is ever formed.  ``run`` forms the matrices of same-kind
gates from row slices of ``Circuit.angles``, in blocks of at most
``BLOCK_POINTS`` gate-points (64 kB, however deep the template), and applies
them one gate at a time, as ``apply`` does.

Everything here is a pure function; execution is deterministic, and
shot sampling draws binomial counts from numpy's PCG64, so identical
(p1, shots, seed) give identical counts.  ``sample`` works on a stack
too: grid point i draws from ``PCG64(seed XOR i)``, so its count does
not depend on the rest of the grid, and every point's PCG64 state is
derived in one array pass instead of one ``SeedSequence`` per point
(numpy's compatibility policy freezes how a seed becomes a PCG64
state; a test checks the pass against ``np.random.PCG64``).  Optimizer
restarts draw from a SeedSequence spawn of the seed (``optim``), so
sampling and optimization never share a stream.
"""
from __future__ import annotations

from itertools import groupby

import numpy as np

from .circuits import Circuit, GateKind, GateOp

_NORM_TOL = 1e-9
BLOCK_POINTS = 2 ** 10


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
    return _matrix(op, op.params)


def _matrix(op: GateOp, params) -> np.ndarray:
    """The matrix of op's kind and qubits at angles of any shape."""
    kind = op.kind
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.RY:
        c, s = np.cos(params[0] / 2), np.sin(params[0] / 2)
        return _matrix2(c, -s, s, c).astype(complex)
    if kind is GateKind.RZ:
        half = params[0] / 2
        return _matrix2(np.exp(-1j * half), 0, 0, np.exp(1j * half))
    if kind is GateKind.U:
        theta, phi, lam = params
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
    return _apply(state, gate_matrix(op), op)


def _apply(state: np.ndarray, m: np.ndarray, op: GateOp) -> np.ndarray:
    """Apply the matrix ``m`` of a gate op (qubits and kind from ``op``)."""
    width = _state_width(state)
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
    limit = max(1, BLOCK_POINTS // max(1, int(np.prod(circuit.batch_shape))))
    row = 0             # the block's first row of circuit.angles
    for _, same in groupby(circuit.gates, key=lambda op: (op.kind, op.qubits)):
        same = list(same)
        n = len(same[0].params)
        for b in range(0, len(same), limit):
            block = same[b:b + limit]
            rows = circuit.angles[row:row + n * len(block)]
            row += n * len(block)
            params = [np.ascontiguousarray(rows[j::n]) for j in range(n)]
            m = _matrix(block[0], params)
            for k, op in enumerate(block):
                state = _apply(state, m[k] if params else m, op)
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


def sample(p1, shots: int, seed: int):
    """Number of 1 outcomes in ``shots`` Z-basis measurements of a qubit
    whose exact outcome-1 probability is ``p1`` (from ``probabilities``).

    A float ``p1`` gives one binomial(shots, p1) draw from PCG64(seed)
    as an int; an ``(n,)`` array gives ``(n,)`` counts, point i drawn
    from PCG64(seed XOR i).  p1 is clipped to [0, 1] against rounding;
    bit-reproducible.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    p1 = np.clip(p1, 0.0, 1.0)
    ones = np.empty(p1.shape, np.int64)
    bits = np.random.PCG64()       # each draw runs from a state set before it
    rng = np.random.Generator(bits)
    # one state dict, its LCG entries overwritten per point (the setter
    # copies them into the generator)
    lcg = {"state": 0, "inc": 0}
    bit_state = {"bit_generator": "PCG64", "state": lcg,
                 "has_uint32": 0, "uinteger": 0}
    for i, ((state, inc), p) in enumerate(zip(_pcg64_states(seed, p1.size),
                                              p1.ravel().tolist())):
        lcg["state"], lcg["inc"] = state, inc
        bits.state = bit_state
        ones.flat[i] = rng.binomial(shots, p)
    return ones if ones.ndim else int(ones)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hashmix calls and after
    the last, ``(count + 1, 1)``: call k xors with entry k and multiplies
    by entry k + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``value`` with the row's
    consecutive pair of ``consts`` (uint32 arrays wrap as the reference
    does)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ out >> 16


def _pcg64_states(seed: int, n: int):
    """Yield the (state, inc) that ``np.random.PCG64(seed ^ i)`` starts
    from, for i in range(n).

    ``PCG64(s)`` hashes s with ``SeedSequence(s)`` and seeds its LCG with
    ``generate_state(4, uint64)``.  That hash runs here as uint32 array
    arithmetic over the whole grid, one row per pool word.  For
    n <= 2**32 (a scan has at most ``scan.MAX_POINTS``), seed ^ i differs
    from seed only in its low 32-bit entropy word; the other words are
    grid constants.  A seed of up to 4 words hashes as its zero-padded
    4-word form (a missing pool word mixes in as a zero word), and the
    words past 4 take SeedSequence's extra-entropy loop.  The 128-bit
    LCG seeding runs in Python ints, one point at a time, so the grid's
    128-bit states are never all held at once.
    """
    size = _POOL_SIZE
    words = []
    rest = seed >> 32
    while rest:
        words.append(rest & _MASK32)
        rest >>= 32
    extra = words[size - 1:]
    consts = _hash_consts(_INIT_A, _MULT_A, size * (size + len(extra)))
    pool = np.empty((size, n), np.uint32)
    pool[0] = np.arange(n, dtype=np.uint32) ^ (seed & _MASK32)
    pool[1:] = np.array((words + [0] * size)[:size - 1], np.uint32)[:, None]
    pool = _hashmix(pool, consts[:size + 1])
    # each word hashes once into every other word, constants in call order
    for src in range(size):
        dst = [d for d in range(size) if d != src]
        k = size + (size - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + size]))
    k = size * size
    extra_hashes = _hashmix(
        np.repeat(np.array(extra, np.uint32), size)[:, None], consts[k:])
    for j in range(len(extra)):
        pool = _mix(pool, extra_hashes[size * j:size * (j + 1)])
    out = _hashmix(pool[np.arange(2 * size) % size],
                   _hash_consts(_INIT_B, _MULT_B, 2 * size))
    # little-endian uint32 pairs are the uint64s (initstate hi, lo,
    # initseq hi, lo) that pcg64_set_seed takes
    seeds = np.ascontiguousarray(out.T).astype("<u4").view("<u8")
    for state_hi, state_lo, seq_hi, seq_lo in seeds.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        yield ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc
               ) & _MASK128, inc


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                                tol: float = 1e-12) -> bool:
    """True when every entry of b is within tol of e^{i phi} a, phi the
    phase of tr(a^H b)."""
    phase = np.exp(1j * np.angle(np.trace(a.conj().T @ b)))
    return bool(np.abs(b - phase * a).max() <= tol)


def _state_width(state: np.ndarray) -> int:
    dim = np.shape(state)[-1:]
    if dim == (2,):
        return 1
    if dim == (4,):
        return 2
    raise ValueError(f"state must have dimension 2 or 4, got shape "
                     f"{np.shape(state)}")
