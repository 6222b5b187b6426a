"""Statevector backend tests: gate matrices, application, marginals, sampling."""
import ctypes
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuqsim import cli, scan, simulator
from nuqsim.builders import build_slab_circuit
from nuqsim.circuits import (N_PARAMS, Circuit, GateKind, cnot,
                             measure, ry, rz, u, x)
from nuqsim.oscillation import PHASE_LIMIT, slab_layer_params
from nuqsim.compiler import virtual_z_pass
from nuqsim.simulator import (BLOCK_POINTS, _add128, _mul64, _pcg64_states,
                              apply_matrix, circuit_unitary,
                              gate_matrix, init_state,
                              probabilities, run, sample,
                              unitaries_equal_up_to_phase)
from test_oscillation import _matrix_form_propagator

RNG = np.random.Generator(np.random.PCG64(1234))


def random_state(width, rng=RNG):
    v = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
    return v / np.linalg.norm(v)


# --- gate matrices -----------------------------------------------------------

def test_u_pi_is_ry_pi():
    m = gate_matrix(u(math.pi, 0.0, 0.0))
    assert np.allclose(m, [[0, -1], [1, 0]], atol=1e-15)


def test_rz_zero_is_identity():
    assert np.allclose(gate_matrix(rz(0.0)), np.eye(2), atol=0)


def test_u_reduces_to_ry():
    theta_m = 0.3
    m_u = gate_matrix(u(2 * theta_m, 0.0, 0.0))
    m_ry = gate_matrix(ry(2 * theta_m))
    assert np.max(np.abs(m_u - m_ry)) < 1e-15


def test_measure_has_no_matrix():
    with pytest.raises(ValueError):
        gate_matrix(measure(0))


def test_unitarity_random_angles():
    for _ in range(1000):
        a, b, c = RNG.uniform(-2 * math.pi, 2 * math.pi, 3)
        for op in (x(), ry(a), rz(a), u(a, b, c), cnot(0, 1), cnot(1, 0)):
            m = gate_matrix(op)
            assert np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) < 1e-12


def test_u_is_rz_ry_rz_up_to_phase():
    for _ in range(200):
        theta, phi, lam = RNG.uniform(-2 * math.pi, 2 * math.pi, 3)
        composed = (gate_matrix(rz(phi)) @ gate_matrix(ry(theta))
                    @ gate_matrix(rz(lam)))
        assert unitaries_equal_up_to_phase(composed,
                                           gate_matrix(u(theta, phi, lam)),
                                           1e-12)


def test_equal_up_to_phase_sees_a_small_angle_error():
    """A 1e-7 rad error moves entries by ~5e-8 but |tr(a^H b)|/dim by only
    ~1e-15, so the comparison is made entry by entry."""
    m = gate_matrix(u(0.3, 0.2, -0.5))
    assert unitaries_equal_up_to_phase(m, np.exp(0.7j) * m)
    assert not unitaries_equal_up_to_phase(
        m, gate_matrix(u(0.3, 0.2, -0.5 + 1e-7)))


# --- one-gate runs -----------------------------------------------------------

def test_x_flips_zero():
    state, _ = run(Circuit(1, [x()]))
    assert np.allclose(state, [0, 1], atol=0)


def test_ry_rotates_zero():
    theta = 0.7
    state, _ = run(Circuit(1, [ry(2 * theta)]))
    assert np.allclose(state, [math.cos(theta), math.sin(theta)], atol=1e-15)


def test_apply_embeds_by_target_qubit():
    state = random_state(2)
    m = gate_matrix(ry(0.9))
    on_q0, _ = run(Circuit(2, [ry(0.9, 0)]), state)
    on_q1, _ = run(Circuit(2, [ry(0.9, 1)]), state)
    assert np.allclose(on_q0, np.kron(m, np.eye(2)) @ state)
    assert np.allclose(on_q1, np.kron(np.eye(2), m) @ state)


def test_apply_dimension_mismatch():
    """A state of another width than the circuit's is refused, by
    ``run`` and by ``apply_matrix``; a circuit refuses an op on a qubit it
    does not have (``test_circuits``)."""
    with pytest.raises(ValueError, match="initial state does not match "
                                         "circuit width"):
        run(Circuit(2, [cnot(0, 1)]), init_state(1))
    with pytest.raises(ValueError, match="initial state does not match "
                                         "circuit width"):
        run(Circuit(1, [ry(math.pi)]), init_state(2))
    with pytest.raises(ValueError):
        apply_matrix(init_state(2), np.eye(2))


def test_apply_rejects_measure():
    """A MEASURE has no matrix, and ``run`` evolves no state by one: a
    measure-only circuit returns its initial state and the measured qubit."""
    with pytest.raises(ValueError, match="MEASURE"):
        gate_matrix(measure(0))
    state = random_state(1)
    got, measured = run(Circuit(1, [measure(0)]), state)
    assert got.tobytes() == state.tobytes() and measured == (0,)


def test_norm_preserved():
    for _ in range(300):
        a, b, c = RNG.uniform(-2 * math.pi, 2 * math.pi, 3)
        op = [x(), ry(a), rz(a), u(a, b, c)][int(RNG.integers(4))]
        state, _ = run(Circuit(1, [op]), random_state(1))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    for _ in range(100):
        op = [cnot(0, 1), cnot(1, 0), ry(RNG.uniform(-6, 6), 1)][int(RNG.integers(3))]
        state, _ = run(Circuit(2, [op]), random_state(2))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_compiled_slab_sequence_matches_matrix_product():
    """Folded slab gate sequence on |1> vs the 2x2 propagator product."""
    for _ in range(50):
        n = int(RNG.integers(1, 8))
        angles = RNG.uniform(0, math.pi / 2, n)
        phases = RNG.uniform(0, 2 * math.pi, n)
        ops = []
        expected = np.array([0, 1], dtype=complex)
        for t, f in zip(angles, phases):
            ops += [ry(-2 * t), rz(f), ry(2 * t)]
            expected = _matrix_form_propagator(t, f) @ expected
        compiled, _ = virtual_z_pass(Circuit(1, tuple(ops)))
        state = np.array([0, 1], dtype=complex)
        for op in compiled.ops:
            state, _ = run(Circuit(1, [op]), state)
        # amplitudes agree exactly with the trailing RZ kept
        assert np.max(np.abs(state - expected)) < 1e-12


# --- probabilities -----------------------------------------------------------

def test_probabilities_basis_states():
    one, _ = run(Circuit(1, [x()]))
    assert probabilities(one, 0) == (0.0, 1.0)
    plus = np.array([1, 1]) / math.sqrt(2)
    p0, p1 = probabilities(plus, 0)
    assert abs(p0 - 0.5) < 1e-15 and abs(p1 - 0.5) < 1e-15


def test_probabilities_sum_to_one():
    for _ in range(100):
        state = random_state(2)
        for q in (0, 1):
            p0, p1 = probabilities(state, q)
            assert abs(p0 + p1 - 1.0) < 1e-12


def test_marginal_matches_partial_trace():
    """probabilities() vs the reduced density matrix diagonal."""
    for _ in range(200):
        state = random_state(2)
        rho = np.outer(state, state.conj()).reshape(2, 2, 2, 2)
        rho_b = np.einsum("abad->bd", rho)    # trace over qubit 0
        rho_a = np.einsum("abcb->ac", rho)    # trace over qubit 1
        for q, red in ((0, rho_a), (1, rho_b)):
            p0, p1 = probabilities(state, q)
            assert abs(p0 - red[0, 0].real) < 1e-12
            assert abs(p1 - red[1, 1].real) < 1e-12


def test_probabilities_rejects_unnormalized():
    with pytest.raises(ValueError):
        probabilities(np.array([1.0, 1.0]), 0)


def test_probabilities_refuses_a_norm_off_by_1e_6():
    """The norm check holds near the scale at which results are stated,
    not only for a grossly wrong state: |psi|^2 = 1 + 1e-6 is refused,
    for one state and for one row of a stack, while 1 + 1e-12 passes."""
    off = np.array([math.sqrt(1.0 + 1e-6), 0.0])
    with pytest.raises(ValueError, match="^state 0 is not normalized"):
        probabilities(off, 0)
    with pytest.raises(ValueError, match="^state 1 is not normalized"):
        probabilities(np.stack([init_state(1), off]), 0)
    p0, _ = probabilities(np.array([math.sqrt(1.0 + 1e-12), 0.0]), 0)
    assert abs(p0 - 1.0) < 2e-12


@pytest.mark.parametrize("call, message", [
    (lambda: init_state(3), "width must be 1 or 2"),
    (lambda: probabilities(init_state(1), 1),
     "qubit 1 out of range for width 1"),
    (lambda: probabilities(init_state(2), -1),
     "qubit -1 out of range for width 2"),
    (lambda: probabilities(np.ones(8) / math.sqrt(8), 0),
     "state must have dimension 2 or 4, got shape (8,)"),
], ids=["init-width", "qubit-past-width", "negative-qubit", "state-dimension"])
def test_state_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# --- run / circuit_unitary ----------------------------------------------------

def test_run_returns_measured_qubits():
    c = Circuit(2, (ry(0.3, 0), cnot(0, 1), measure(1)))
    state, measured = run(c)
    assert measured == (1,)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_circuit_unitary_matches_column_runs():
    c = Circuit(2, (ry(0.4, 0), ry(1.1, 1), cnot(0, 1), ry(-0.2, 0), measure(1)))
    total = circuit_unitary(c)
    for k in range(4):
        basis = np.zeros(4, dtype=complex)
        basis[k] = 1.0
        col, _ = run(c, initial=basis)
        assert np.allclose(total[:, k], col, atol=1e-12)


# --- blocked execution ---------------------------------------------------------

def _per_gate(circuit):
    """Reference: one ``run`` of a one-gate circuit per gate."""
    state = init_state(circuit.width)
    for op in circuit.gates:
        state, _ = run(Circuit(circuit.width, [op]), state)
    return state


def _runs_template(rng, n, width, runs):
    """Runs of 1-9 same-kind gates on one qubit (CNOTs on two), each angle
    row ``(n,)`` drawn or, now and then, filled with one angle."""
    def angle():
        return np.full(n, rng.uniform(-7, 7)) if rng.random() < 0.2 \
            else rng.uniform(-7, 7, n)
    kinds = (GateKind.X, GateKind.RY, GateKind.RZ, GateKind.U, GateKind.CNOT)
    layout, rows = [], []
    for _ in range(runs):
        kind = kinds[int(rng.integers(4 + (width == 2)))]
        q = int(rng.integers(width))
        for _ in range(int(rng.integers(1, 10))):
            layout.append((kind, (q, 1 - q) if kind is GateKind.CNOT else (q,)))
            rows += [angle() for _ in range(N_PARAMS[kind])]
    return Circuit(width, layout=layout, angles=rows)


def _compiled_slab(n, periods):
    cfg = scan.ScanConfig(scenario="slab", compile=True, periods=periods,
                          energies=tuple(np.linspace(1.0, 25.0, n)))
    p, profile, th23 = scan._single_qubit_setup(cfg)
    return virtual_z_pass(build_slab_circuit(
        *slab_layer_params(p, profile, np.array(cfg.energies), th23)))[0]


# block limits of 1 gate, 4 gates (runs are longer) and 341 (runs are shorter)
@pytest.mark.parametrize("n", [BLOCK_POINTS, BLOCK_POINTS // 4, 3])
def test_blocked_run_equals_per_gate_apply_bit_for_bit(n):
    rng = np.random.Generator(np.random.PCG64(n))
    circuits = [_runs_template(rng, n, width, 12) for width in (1, 2)]
    circuits.append(_compiled_slab(n, 6))
    circuits += [c.point(n - 1) for c in circuits]
    for circuit in circuits:
        got, _ = run(circuit)
        want = _per_gate(circuit)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- the pair-update kernel against a column sum ------------------------------

def _column_sum(m, vectors):
    """Reference: each matrix of a stack times each vector, as the sum of
    its columns ``m[..., :, k] * v_k`` added in column order."""
    out = m[..., :, 0] * vectors[..., None, 0]
    for k in range(1, m.shape[-1]):
        out = out + m[..., :, k] * vectors[..., None, k]
    return out


def _reference_run(circuit, state):
    """Each gate as the column sum of its ``gate_matrix``: over the whole
    state for a full-dimension matrix, else over the pairs a one-qubit gate
    mixes, the rows (q1) or columns (q0) of the ``(..., q0, q1)`` reshape."""
    for op in circuit.gates:
        m = gate_matrix(op)
        if m.shape[-1] == state.shape[-1]:
            state = _column_sum(m, state)
            continue
        pairs = state.reshape(state.shape[:-1] + (2, 2))
        if op.qubits[0] == 0:
            pairs = np.swapaxes(pairs, -1, -2)
        out = _column_sum(m[..., None, :, :], pairs)
        if op.qubits[0] == 0:
            out = np.swapaxes(out, -1, -2)
        state = out.reshape(out.shape[:-2] + (4,))
    return state


def _every_kind_template(rng, width, n):
    """X, RY, RZ, a general U and two pulse-form U (phi = -lam) on each
    qubit, and for two qubits both CNOT orientations, at random angles."""
    layout, rows = [], []
    for q in range(width):
        for kind, pulse in ((GateKind.X, False), (GateKind.RY, False),
                            (GateKind.RZ, False), (GateKind.U, False),
                            (GateKind.RY, False), (GateKind.U, True),
                            (GateKind.U, True), (GateKind.X, False)):
            layout.append((kind, (q,)))
            angles = list(rng.uniform(-7, 7, (N_PARAMS[kind], n)))
            if pulse:
                angles[1] = -angles[2]
            rows += angles
        if width == 2:
            layout += [(GateKind.CNOT, (q, 1 - q)), (GateKind.RY, (1 - q,))]
            rows.append(rng.uniform(-7, 7, n))
    return Circuit(width, layout=layout, angles=rows)


@pytest.mark.parametrize("width", [1, 2])
def test_run_equals_the_column_sum_bit_for_bit(width):
    """``run`` updates amplitude pairs as m00 a + m01 b and m10 a + m11 b
    and moves them for a CNOT, which is the column sum of the gate matrix
    to the bit: for a template, its single circuits and a zero-point
    template, from |0> and from random states.  A CNOT moves amplitudes
    where the sum adds zero products, which can flip the sign of a zero
    amplitude (RY(4) on q0 of |00>, then CNOT, moves a -0.0 the sum makes
    +0.0), so two-qubit states start here with no zero amplitude."""
    rng = np.random.Generator(np.random.PCG64(width))
    template = _every_kind_template(rng, width, 6)
    kinds = {kind for kind, _ in template.layout}
    assert kinds == {GateKind.X, GateKind.RY, GateKind.RZ, GateKind.U} | (
        {GateKind.CNOT} if width == 2 else set())
    dim = 2 ** width
    empty = Circuit(width, layout=template.layout, angles=np.zeros(
        template.angles.shape[:1] + (0,)))
    for circuit in (template, template.point(0), template.point(5), empty):
        v = (rng.normal(size=circuit.batch_shape + (dim,))
             + 1j * rng.normal(size=circuit.batch_shape + (dim,)))
        starts = [random_state(width, rng) for _ in range(2)]
        starts.append(v / np.linalg.norm(v, axis=-1, keepdims=True))
        if width == 1:
            starts.append(init_state(1))
        for start in starts:
            got, _ = run(circuit, start)
            want = _reference_run(circuit, start)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    got, _ = run(empty)
    assert got.shape == (0, dim) == _reference_run(empty, init_state(width)).shape


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-PHASE_LIMIT, PHASE_LIMIT).filter(bool),
                min_size=1, max_size=64))
def test_exp_of_a_negated_phase_is_the_conjugate_bit_for_bit(phases):
    """A pulse-form U's entries take e^{i phi}, phi = -lam, as the
    conjugate of e^{i lam}, which holds to the bit because libm's sin is
    odd and its cos even, for every nonzero phase up to ``PHASE_LIMIT``
    (at 0 the two differ only in the sign of a zero imaginary part).
    This holds per numerical environment (numpy's complex exp and the
    libm under it), like the byte-identity of ``demos/out``: this test
    is what shows that it holds here."""
    lam = np.array(phases)
    assert np.exp(1j * -lam).tobytes() == np.exp(1j * lam).conj().tobytes()
    one = phases[0]
    assert np.exp(1j * -one).tobytes() == np.exp(1j * one).conj().tobytes()
    sweep = np.random.Generator(np.random.PCG64(len(phases))).uniform(
        -PHASE_LIMIT, PHASE_LIMIT, 2000)
    assert np.exp(1j * -sweep).tobytes() == np.exp(1j * sweep).conj().tobytes()


def test_run_memory_is_flat_in_the_gate_count():
    """Doubling the gates of a compiled template at a fixed grid leaves
    the peak allocation of ``run`` where it was: gate matrices are formed
    a block at a time, never all at once."""
    peaks = []
    for periods in (25, 50):
        circuit = _compiled_slab(64, periods)
        run(circuit)
        tracemalloc.start()
        try:
            run(circuit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_a_zero_point_template_runs_to_empty_stacks():
    """A template over an empty grid, compiled or not, gives empty
    states, unitaries, probabilities and samples."""
    ry0, rz0 = (GateKind.RY, (0,)), (GateKind.RZ, (0,))
    empty = np.zeros((3, 0))
    raw = Circuit(1, layout=(ry0, rz0, ry0, (GateKind.MEASURE, (0,))),
                  angles=empty)
    compiled, report = virtual_z_pass(raw)
    assert compiled.batch_shape == (0,) and report.folded_rz_count == 1
    for circuit in (Circuit(1, layout=[ry0], angles=empty[:1]), raw, compiled):
        state, _ = run(circuit)
        assert state.shape == (0, 2)
        assert circuit_unitary(circuit).shape == (0, 2, 2)
        p0, p1 = probabilities(state, 0)
        assert p0.shape == p1.shape == (0,)
        assert sample(p1, 16, 3).shape == (0,)
    wide = Circuit(2, layout=(ry0, (GateKind.CNOT, (0, 1))), angles=empty[:1])
    assert run(wide)[0].shape == (0, 4)
    assert circuit_unitary(wide).shape == (0, 4, 4)


# --- sampling ----------------------------------------------------------------

def test_sample_deterministic_outcome():
    _, p1 = probabilities(init_state(1), 0)
    assert sample(p1, 4096, seed=7) == 0
    assert sample(1.0, 4096, seed=7) == 4096


def test_sample_same_seed_identical():
    _, p1 = probabilities(run(Circuit(1, [ry(1.1)]))[0], 0)
    assert sample(p1, 4096, seed=42) == sample(p1, 4096, seed=42)


def test_sample_binomial_spread():
    """p1 = 0.5, 4096 shots: within 5 sigma (~±160 of 2048) for all test seeds."""
    for seed in range(1000):
        assert abs(sample(0.5, 4096, seed=seed) - 2048) <= 160


def test_sample_clips_rounded_probabilities():
    """A probability a rounding step past 0 or 1 is drawn as 0 or 1."""
    assert sample(-1e-17, 64, seed=3) == 0
    assert sample(1.0 + 2e-16, 64, seed=3) == 64
    assert sample(np.array([-1e-17, 1.0 + 2e-16]), 64, seed=3).tolist() == [0, 64]


def test_sample_zero_shots_rejected():
    with pytest.raises(ValueError):
        sample(0.5, 0, seed=0)


def test_sample_negative_seed_rejected():
    with pytest.raises(ValueError):
        sample(0.5, 16, seed=-1)


def test_sample_takes_numpy_integer_seeds_as_ints():
    p1 = np.full(5, 0.3)
    expected = sample(p1, 4096, 7).tolist()
    for seed in (np.int64(7), np.uint64(7)):
        assert sample(p1, 4096, seed).tolist() == expected
    with pytest.raises(TypeError):
        sample(p1, 4096, 7.0)


# --- batched seeding: numpy itself is the oracle -----------------------------

def _numpy_states(seed, n):
    """(state, inc) of np.random.PCG64(seed ^ i), point by point."""
    return [tuple(np.random.PCG64(seed ^ i).state["state"][key]
                  for key in ("state", "inc")) for i in range(n)]


def _states(seed, n):
    """(state, inc) of each row of LCG words _pcg64_states returns."""
    words = _pcg64_states(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    return [(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
            for s_lo, s_hi, i_lo, i_hi in words.tolist()]


# word boundaries of the seed's uint32 entropy: 1, 1, 2, 3, 4, 5 and 42 words
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                  2 ** 128 - 1, 2 ** 128, 10 ** 400],
                         ids=["0", "2^32-1", "2^32", "2^64+5", "2^128-1",
                              "2^128", "10^400"])
def test_pcg64_states_match_numpy(seed):
    assert _states(seed, 40) == _numpy_states(seed, 40)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 160),
                 st.integers(0, 10 ** 400)),
       st.integers(1, 300))
def test_pcg64_states_match_numpy_at_drawn_seeds(seed, n):
    assert _states(seed, n) == _numpy_states(seed, n)


# --- the 128-bit limb arithmetic of the seeding: Python ints are the oracle --

MASK64 = 2 ** 64 - 1
# the carry edges of a 64-bit limb and of its 32-bit halves
EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, MASK64]


def _limbs(values):
    """(high, low) uint64 limb arrays of non-negative ints below 2**128."""
    return (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & MASK64 for v in values], np.uint64))


def _ints(hi, lo):
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


def _check_limb_helpers(products, sums):
    """_mul64 over pairs of 64-bit ints and _add128 over pairs of 128-bit
    ints equal the exact product and the sum mod 2**128."""
    a, b = (np.array(col, np.uint64) for col in zip(*products))
    assert _ints(*_mul64(a, b)) == [x * y for x, y in products]
    # a 64-bit factor as the 0-d array the seeding passes
    for y in {y for _, y in products}:
        assert _ints(*_mul64(a, np.array(y, np.uint64))) == [
            x * y for x, _ in products]
    x, y = zip(*sums)
    assert _ints(*_add128(*_limbs(x), *_limbs(y))) == [
        (u + v) % 2 ** 128 for u, v in sums]


def test_limb_helpers_at_the_carry_edges():
    wide = [hi << 64 | lo for hi in EDGES for lo in EDGES]
    _check_limb_helpers(list(itertools.product(EDGES, repeat=2)),
                        list(itertools.product(wide, repeat=2)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, MASK64), st.integers(0, MASK64)),
                min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 2 ** 128 - 1),
                          st.integers(0, 2 ** 128 - 1)),
                min_size=1, max_size=8))
def test_limb_helpers_match_python_ints(products, sums):
    _check_limb_helpers(products, sums)


# 10^40 takes SeedSequence's extra-entropy block
@pytest.mark.parametrize("seed", [12345, 2 ** 64 + 5, 10 ** 40])
def test_sample_stack_matches_per_point_generators(seed):
    p1 = np.random.Generator(np.random.PCG64(99)).random(2000)
    expected = [np.random.Generator(np.random.PCG64(seed ^ i)).binomial(4096, p)
                for i, p in enumerate(p1.tolist())]
    assert sample(p1, 4096, seed).tolist() == expected
    assert sample(p1[:1], 4096, seed).tolist() == expected[:1]


@pytest.mark.parametrize("target", ["outside", "inside"])
def test_sample_refuses_lcg_words_it_cannot_check(monkeypatch, capsys,
                                                  target):
    """Words outside the generator, or inside it but not reading back as
    its state, are never written: each point's state is set through
    ``bits.state`` instead, which gives the per-point generators' counts,
    and a scan exits 0 with the output of the checked path."""
    decoy = (ctypes.c_uint64 * 4)(1, 2, 3, 4)
    pointers = []

    def state_address(bits):
        # a state struct whose LCG pointer aims at the decoy, or at the
        # generator's own object header
        pointers.append(ctypes.c_void_p(
            ctypes.addressof(decoy) if target == "outside" else id(bits)))
        return ctypes.addressof(pointers[-1])

    argv = ["scan", "--scenario", "earth", "--energies", "1:2:3"]
    assert cli.main(argv) == 0
    checked = capsys.readouterr()
    p1, seed = np.random.Generator(np.random.PCG64(99)).random(300), 10 ** 40
    expected = [np.random.Generator(np.random.PCG64(seed ^ i)).binomial(4096, p)
                for i, p in enumerate(p1.tolist())]
    monkeypatch.setattr(simulator, "_state_address", state_address)
    assert sample(p1, 4096, seed).tolist() == expected
    assert sample(0.25, 64, 7) == \
        np.random.Generator(np.random.PCG64(7)).binomial(64, 0.25)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == checked
    assert list(decoy) == [1, 2, 3, 4] and len(pointers) == 3


def test_grid_indices_stay_in_the_low_seed_word():
    """seed ^ i changes only the seed's low 32-bit word, which the
    batched seeding relies on."""
    assert scan.MAX_POINTS < 2 ** 32
