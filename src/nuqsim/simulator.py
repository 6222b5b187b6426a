"""Exact statevector backend for 1- and 2-qubit circuits, batched over a grid.

States are dense complex vectors of length 2 or 4 with qubit 0 as the
most significant bit.  Every function works on a stack of them: a
template circuit (angles of shape ``(n,)``) evolves an ``(n, dim)``
array of states in one pass over its gates, a single circuit (float
angles) evolves one ``(dim,)`` state, and both run the same code.
``_entries`` is the only place gate entries are formed; ``gate_matrix``
assembles them into ``(n, 2, 2)`` stacks for array angles and plain 2x2
/ 4x4 matrices otherwise; ``apply_matrix`` takes ``(n, 4, 4)`` dilation
stacks.  ``run`` and ``apply`` hold a state stack as its ``dim``
amplitude columns, arrays of the batch shape, and share one kernel,
``_gate``: a one-qubit gate sends the amplitudes (a, b) of each index
pair (k, k | bit) to (m00 a + m01 b, m10 a + m11 b), a column sum's
multiply-then-add order, and a CNOT swaps the pairs whose control bit
is set.  It calls ``np.multiply`` and ``np.add``, never scalar
arithmetic, which skips the FMA of numpy's array loop: a single
circuit's 0-d entries round as its template's points do.  ``run``
forms the entries of each same-kind run of ``Circuit.layout`` from row
slices of ``Circuit.angles``, in blocks of at most ``BLOCK_POINTS``
gate-points (64 kB, however deep), and builds no op.  A pulse-form U
(phi + lam = 0) takes one exponential: e^{i phi} = e^{-i lam} is the
conjugate of e^{i lam} bit for bit (at lam = 0 but for a zero's sign).

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

from .circuits import N_PARAMS, Circuit, GateKind, GateOp

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
    entries = _entries(op.kind, op.params)
    if entries is not None:
        return _matrix2(*entries)
    m = np.eye(4, dtype=complex)
    for k, j in _pairs(op.kind, op.qubits, 2):
        m[[k, j]] = m[[j, k]]
    return m


def _entries(kind: GateKind, params):
    """The complex entries (m00, m01, m10, m11) of a one-qubit gate of this
    kind at angles of any shape, each of the angles' shape (constants for
    X); None for CNOT, which moves amplitudes instead."""
    if kind is GateKind.CNOT:
        return None
    if kind is GateKind.X:
        return 0j, 1 + 0j, 1 + 0j, 0j
    if kind is GateKind.RY:
        c, s = np.cos(params[0] / 2), np.sin(params[0] / 2)
        c, s, minus_s = (np.asarray(e, complex) for e in (c, s, -s))
        return c, minus_s, s, c
    if kind is GateKind.RZ:
        half = params[0] / 2
        m00 = np.exp(-1j * half)
        zero = np.zeros_like(m00)
        return m00, zero, zero, np.exp(1j * half)
    if kind is GateKind.U:
        theta, phi, lam = params
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        tilt = phi + lam
        if not np.count_nonzero(tilt):
            # pulse form: e^{i phi} is the conjugate of e^{i lam} (libm's
            # sin is odd, its cos even), and e^{i tilt} c is c
            es = np.exp(1j * lam) * s
            c = np.asarray(c, complex)
            return c, -es, es.conj(), c
        return (np.asarray(c, complex), -np.exp(1j * lam) * s,
                np.exp(1j * phi) * s, np.exp(1j * tilt) * c)
    raise ValueError(f"{kind.value} has no unitary matrix")


def _pairs(kind: GateKind, qubits: tuple[int, ...], width: int) -> list:
    """The index pairs (k, k | bit) a gate mixes, bit its target's; for
    CNOT only those with the control bit set."""
    bit = 1 << (width - 1 - qubits[-1])
    control = 1 << (width - 1 - qubits[0]) if kind is GateKind.CNOT else 0
    return [(k, k | bit) for k in range(2 ** width)
            if not k & bit and k & control == control]


def _gate(columns: list, pairs: list, entries) -> None:
    """Apply one gate to the amplitude columns of a state stack, in place
    in the list: swap each pair for CNOT (``entries`` None), else send
    (a, b) to (m00 a + m01 b, m10 a + m11 b)."""
    for k, j in pairs:
        a, b = columns[k], columns[j]
        if entries is None:
            columns[k], columns[j] = b, a
        else:
            m00, m01, m10, m11 = entries
            columns[k] = np.add(np.multiply(m00, a), np.multiply(m01, b))
            columns[j] = np.add(np.multiply(m10, a), np.multiply(m11, b))


def init_state(width: int) -> np.ndarray:
    """The all-|0> state of a 1- or 2-qubit register."""
    if width not in (1, 2):
        raise ValueError("width must be 1 or 2")
    state = np.zeros(2 ** width, dtype=complex)
    state[0] = 1.0
    return state


def apply(state: np.ndarray, op: GateOp) -> np.ndarray:
    """Apply one gate op to a state or a stack of states; an op on a
    qubit the state does not have raises."""
    width = _state_width(state)
    if max(op.qubits) >= width:
        raise ValueError(f"{op.kind.value} on qubit {max(op.qubits)} does "
                         f"not fit a width-{width} register")
    columns = _columns(state)
    _gate(columns, _pairs(op.kind, op.qubits, width),
          _entries(op.kind, op.params))
    return np.stack(columns, axis=-1)


def _columns(state) -> list:
    """A state stack ``(..., dim)`` as its ``dim`` complex amplitude columns."""
    state = np.asarray(state, dtype=complex)
    return [state[..., k] for k in range(state.shape[-1])]


def apply_matrix(state: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a raw full-dimension unitary (e.g. a dilation matrix) or a
    stack of them."""
    matrix = np.asarray(matrix)
    dim = state.shape[-1]
    if matrix.shape[-2:] != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match "
                         f"state dimension {dim}")
    return _matvec(np.moveaxis(matrix, -1, 0), state)


def _matvec(cols: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Matrix stack times state stack, from its columns, summed in column
    order: a few whole-array operations per matrix, not one per point."""
    out = cols[0] * state[..., None, 0]
    for k in range(1, len(cols)):
        out = out + cols[k] * state[..., None, k]
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
    columns = _columns(state)
    limit = max(1, BLOCK_POINTS // max(1, int(np.prod(circuit.batch_shape))))
    row = 0             # the block's first row of circuit.angles
    for (kind, qubits), same in groupby(circuit.gate_layout):
        count, n = len(list(same)), N_PARAMS[kind]
        pairs = _pairs(kind, qubits, circuit.width)
        for b in range(0, count, limit):
            size = min(limit, count - b)
            rows = circuit.angles[row:row + n * size]
            row += n * size
            # one row of each entry per gate; X and CNOT have no angles
            gates = zip(*_entries(kind, [np.ascontiguousarray(rows[j::n])
                                         for j in range(n)])
                        ) if n else [_entries(kind, ())] * size
            for entries in gates:
                _gate(columns, pairs, entries)
    return np.stack(columns, axis=-1), circuit.measured_qubits


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
