"""Exact statevector backend for 1- and 2-qubit circuits, batched over a grid.

States are dense complex vectors of length 2 or 4 with qubit 0 as the
most significant bit.  Every function works on a stack of them: a
template circuit (angles of shape ``(n,)``) evolves an ``(n, dim)``
array of states in one pass over its gates, a single circuit (float
angles) evolves one ``(dim,)`` state, and both run the same code.
``_entries`` is the only place gate entries are formed, and ``run`` its
only caller.  Every unitary is ``circuit_unitary``'s, the basis states
run through ``run``: a gate list's ``(n, 4, 4)`` stack, or through
``gate_matrix`` one op's (2x2, or 4x4 for CNOT, stacked over array
angles), which ``apply_matrix`` applies to a state as it does a
dilation.  ``run`` holds a state stack as its ``dim``
amplitude columns, arrays of the batch shape, and evolves them with one
kernel, ``_gate``: a one-qubit gate sends the amplitudes (a, b) of each
index pair (k, k | bit) to (m00 a + m01 b, m10 a + m11 b), a column
sum's multiply-then-add order, and a CNOT swaps the pairs whose control
bit is set.  It calls ``np.multiply`` and ``np.add``, never scalar
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
derived in one array pass instead of one ``SeedSequence`` per point:
the seed hash as uint32 arithmetic, the 128-bit LCG seeding step on
(high, low) uint64 limbs (numpy's compatibility policy freezes how a
seed becomes a PCG64 state; a test checks the pass against
``np.random.PCG64``).  One generator draws every point: its four LCG
words are written in place before each draw, through a view that
``_lcg_words`` takes from numpy's ctypes interface and checks on every
call (inside the generator, reading back as its state), since numpy
does not freeze how the generator stores them; where the check fails,
each point's state is set through ``bits.state`` instead.  Optimizer
restarts draw from a SeedSequence spawn of the seed (``optim``), so
sampling and optimization never share a stream.
"""
from __future__ import annotations

import ctypes
from itertools import groupby

import numpy as np

from .circuits import N_PARAMS, Circuit, GateKind, GateOp

_NORM_TOL = 1e-9
BLOCK_POINTS = 2 ** 10


def gate_matrix(op: GateOp) -> np.ndarray:
    """Exact unitary of a gate op (2x2, or 4x4 for CNOT), stacked over
    the op's angle arrays: ``circuit_unitary`` of the op alone, a
    one-qubit op taken on qubit 0 of a width-1 circuit.

    U(theta, phi, lam) = [[cos(t/2),            -e^{i lam} sin(t/2)],
                          [e^{i phi} sin(t/2),  e^{i(phi+lam)} cos(t/2)]]
    RY(a) = exp(-i a Y/2), RZ(a) = exp(-i a Z/2).
    """
    if op.kind is GateKind.MEASURE:
        raise ValueError("MEASURE has no unitary matrix")
    qubits = op.qubits if op.kind is GateKind.CNOT else (0,)
    return circuit_unitary(Circuit(len(qubits), layout=((op.kind, qubits),),
                                   angles=op.params))


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
    theta, phi, lam = params                    # U
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


def apply_matrix(state: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a full-dimension unitary (a dilation, a circuit's unitary) or
    a stack of them, as the sum of its columns in column order: a few
    whole-array operations per matrix, not one per point."""
    matrix = np.asarray(matrix)
    dim = state.shape[-1]
    if matrix.shape[-2:] != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match "
                         f"state dimension {dim}")
    cols = np.moveaxis(matrix, -1, 0)
    out = cols[0] * state[..., None, 0]
    for k in range(1, dim):
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
    columns = [state[..., k] for k in range(state.shape[-1])]
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
    width = {(2,): 1, (4,): 2}.get(np.shape(state)[-1:])
    if width is None:
        raise ValueError(f"state must have dimension 2 or 4, got shape "
                         f"{np.shape(state)}")
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
    bit-reproducible.  One fresh generator draws every point, its LCG
    words set to the point's row of ``_pcg64_states`` before the draw:
    written in place, or, where ``_lcg_words`` cannot check where they
    sit, set through ``bits.state`` (the same counts, only slower).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    p1 = np.clip(p1, 0.0, 1.0)
    # Any seed gives the same counts, as each point's draw runs from LCG
    # words written before it; a constant one reads no OS entropy.
    bits = np.random.PCG64(0)
    binomial = np.random.Generator(bits).binomial
    words, states, ones = _lcg_words(bits), _pcg64_states(seed, p1.size), []
    if words is None:              # numpy's own setter, from the same words
        state = bits.state
        for (s_lo, s_hi, i_lo, i_hi), p in zip(states.tolist(),
                                               p1.ravel().tolist()):
            state["state"] = {"state": s_hi << 64 | s_lo,
                              "inc": i_hi << 64 | i_lo}
            bits.state = state
            ones.append(binomial(shots, p))
    else:
        # memoryviews: a 4-word slice copies in a third of a numpy row's time
        words, states = memoryview(words), memoryview(states.ravel())
        for i, p in enumerate(p1.ravel().tolist()):
            words[:] = states[4 * i:4 * i + 4]
            ones.append(binomial(shots, p))
    return np.array(ones, np.int64).reshape(p1.shape) if p1.ndim else ones[0]


def _state_address(bits: np.random.PCG64) -> int:
    """Address of the PCG64 state struct, from numpy's ctypes interface;
    the struct's first field points to the generator's LCG."""
    return bits.ctypes.state_address


def _lcg_words(bits: np.random.PCG64) -> np.ndarray | None:
    """A uint64 view of the four words (state low, state high, inc low,
    inc high) of the LCG that ``bits`` draws from, checked before use.

    numpy's compatibility policy freezes how a seed becomes a PCG64
    state, not how the generator stores it, so the view is returned only
    if its 32 bytes lie inside ``bits`` and read back as ``bits.state``;
    otherwise None, and no word is written.  The view is valid while
    ``bits`` lives; the caller keeps it no longer.
    """
    address = ctypes.c_void_p.from_address(_state_address(bits)).value or 0
    start = id(bits)
    if start <= address <= start + type(bits).__basicsize__ - 32:
        words = np.frombuffer((ctypes.c_uint64 * 4).from_address(address),
                              np.uint64)
        lcg = bits.state["state"]
        if words.tobytes() == (lcg["inc"] << 128 | lcg["state"]).to_bytes(
                32, "little"):
            return words
    return None


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Operands as 0-d arrays of the dtype they meet, which numpy takes in
# about half the time of a Python int: the hash's mix multipliers and
# shift, and the limb mask, shifts and multiplier limbs of the LCG.
_MIX_MULT_L, _MIX_MULT_R, _SHIFT16 = (
    np.array(v, np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
_LOW32, _SHIFT32, _SHIFT63, _ONE, _PCG_MULT_HI, _PCG_MULT_LO = (
    np.array(v, np.uint64) for v in (_MASK32, 32, 63, 1, _PCG_MULT >> 64,
                                     _PCG_MULT & (1 << 64) - 1))


def _hash_consts(init: int, mult: int, count: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of ``count`` consecutive hashmix
    calls, each ``(count, 1)``: call k xors with hash constant k and
    multiplies by hash constant k + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, np.uint32)[:, None]
    return table[:-1], table[1:]


# The hash's rounds for a seed of up to 4 words, which take nothing from
# the seed: the pool's entropy round (calls 0-3); per pool word src, the
# round that hashes it into every other word dst (calls 4 + 3 src + the
# rank of dst among the other words; the src row's result is discarded);
# the output round, whose 8 words hash the pool words 0-3 twice.
_XOR_A, _TIMES_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
_ENTROPY_ROUND = _XOR_A[:_POOL_SIZE], _TIMES_A[:_POOL_SIZE]
_MIX_ROUNDS = [
    (_XOR_A[calls], _TIMES_A[calls]) for calls in (
        [_POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst > src)
         if dst != src else 0 for dst in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE))]
_OUT_ROUND = tuple(c.reshape(2, _POOL_SIZE, 1) for c in
                   _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray
             ) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` with the hash constants
    ``xor`` and ``mult`` (uint32 arrays wrap as the reference does)."""
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ out >> _SHIFT16


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products of uint64 arrays, as (high, low) uint64
    limbs; the high limb sums the products of the 32-bit halves, in an
    order in which no partial sum wraps (Hacker's Delight, mulhu)."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    t = a1 * b0 + (a0 * b0 >> _SHIFT32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _SHIFT32) + (w >> _SHIFT32), a * b


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums mod 2**128 of numbers given as (high, low) uint64 limb
    arrays: the low limbs' carry goes to the high ones."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_states(seed: int, n: int) -> np.ndarray:
    """The LCG words that ``np.random.PCG64(seed ^ i)`` starts from, for
    i in range(n): an ``(n, 4)`` uint64 array whose columns are state
    low, state high, inc low and inc high, the word order of numpy's
    ``pcg64_random_t`` (two little-endian ``__uint128_t``).

    ``PCG64(s)`` hashes s with ``SeedSequence(s)`` and seeds its LCG with
    ``generate_state(4, uint64)``.  That hash runs here as uint32 array
    arithmetic over the whole grid, one row per pool word.  For
    n <= 2**32 (a scan has at most ``scan.MAX_POINTS``), seed ^ i differs
    from seed only in its low 32-bit entropy word; the other words are
    grid constants.  A seed of up to 4 words hashes as its zero-padded
    4-word form (a missing pool word mixes in as a zero word), and only
    the words past 4 take SeedSequence's extra-entropy loop.
    ``pcg64_set_seed`` then sets inc = initseq << 1 | 1 and state =
    (inc + initstate) * MULT + inc mod 2**128, computed here over the
    grid too, on (high, low) uint64 limbs.
    """
    size = _POOL_SIZE
    words = []
    rest = seed >> 32
    while rest:
        words.append(rest & _MASK32)
        rest >>= 32
    pool = np.empty((size, n), np.uint32)
    pool[0] = np.arange(n, dtype=np.uint32) ^ (seed & _MASK32)
    pool[1:] = np.array((words + [0] * size)[:size - 1], np.uint32)[:, None]
    pool = _hashmix(pool, *_ENTROPY_ROUND)
    # each word hashes once into every other word, constants in call order
    for src, (xor, mult) in enumerate(_MIX_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    extra = words[size - 1:]
    if extra:
        xor, mult = (c[size * size:] for c in _hash_consts(
            _INIT_A, _MULT_A, size * (size + len(extra))))
        hashes = _hashmix(np.repeat(np.array(extra, np.uint32), size)[:, None],
                          xor, mult)
        for j in range(len(extra)):
            pool = _mix(pool, hashes[size * j:size * (j + 1)])
    out = _hashmix(pool, *_OUT_ROUND).reshape(2 * size, n)
    # little-endian uint32 pairs are the uint64 rows (initstate hi, lo,
    # initseq hi, lo) that pcg64_set_seed takes
    init_hi, init_lo, seq_hi, seq_lo = np.ascontiguousarray(
        out.T, "<u4").view("<u8").T
    inc_hi = seq_hi << _ONE | seq_lo >> _SHIFT63
    inc_lo = seq_lo << _ONE | _ONE
    sum_hi, sum_lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _mul64(sum_lo, _PCG_MULT_LO)
    # the cross terms' low limbs; their high limbs fall past 2**128
    hi += sum_hi * _PCG_MULT_LO + sum_lo * _PCG_MULT_HI
    state_hi, state_lo = _add128(hi, lo, inc_hi, inc_lo)
    return np.array([state_lo, state_hi, inc_lo, inc_hi]).T


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                                tol: float = 1e-12) -> bool:
    """True when every entry of b is within tol of e^{i phi} a, phi the
    phase of tr(a^H b)."""
    phase = np.exp(1j * np.angle(np.trace(a.conj().T @ b)))
    return bool(np.abs(b - phase * a).max() <= tol)
