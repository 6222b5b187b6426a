"""Statevector backend tests: gate matrices, application, marginals, sampling."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuqsim import scan
from nuqsim.builders import build_slab_circuit
from nuqsim.circuits import Circuit, cnot, measure, ry, rz, u, x
from nuqsim.oscillation import layer_propagator
from nuqsim.compiler import virtual_z_pass
from nuqsim.simulator import (BLOCK_POINTS, _pcg64_states, apply, apply_matrix,
                              circuit_unitary, gate_matrix, init_state,
                              probabilities, run, sample,
                              unitaries_equal_up_to_phase)

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


# --- apply -------------------------------------------------------------------

def test_x_flips_zero():
    state = apply(init_state(1), x())
    assert np.allclose(state, [0, 1], atol=0)


def test_ry_rotates_zero():
    theta = 0.7
    state = apply(init_state(1), ry(2 * theta))
    assert np.allclose(state, [math.cos(theta), math.sin(theta)], atol=1e-15)


def test_apply_embeds_by_target_qubit():
    state = random_state(2)
    m = gate_matrix(ry(0.9))
    assert np.allclose(apply(state, ry(0.9, 0)), np.kron(m, np.eye(2)) @ state)
    assert np.allclose(apply(state, ry(0.9, 1)), np.kron(np.eye(2), m) @ state)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(init_state(1), cnot(0, 1))
    with pytest.raises(ValueError):
        apply_matrix(init_state(2), np.eye(2))


def test_apply_rejects_measure():
    with pytest.raises(ValueError, match="MEASURE"):
        apply(init_state(1), measure(0))


def test_norm_preserved():
    for _ in range(300):
        a, b, c = RNG.uniform(-2 * math.pi, 2 * math.pi, 3)
        op = [x(), ry(a), rz(a), u(a, b, c)][int(RNG.integers(4))]
        state = apply(random_state(1), op)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    for _ in range(100):
        op = [cnot(0, 1), cnot(1, 0), ry(RNG.uniform(-6, 6), 1)][int(RNG.integers(3))]
        state = apply(random_state(2), op)
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
            expected = layer_propagator(t, f) @ expected
        compiled, _ = virtual_z_pass(Circuit(1, tuple(ops)))
        state = np.array([0, 1], dtype=complex)
        for op in compiled.ops:
            state = apply(state, op)
        # amplitudes agree exactly with the trailing RZ kept
        assert np.max(np.abs(state - expected)) < 1e-12


# --- probabilities -----------------------------------------------------------

def test_probabilities_basis_states():
    one = apply(init_state(1), x())
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
    """Reference: one ``apply`` call per gate."""
    state = init_state(circuit.width)
    for op in circuit.gates:
        state = apply(state, op)
    return state


def _runs_template(rng, n, width, runs):
    """Runs of 1-9 same-kind gates on one qubit (CNOTs on two), each angle
    an ``(n,)`` array or, now and then, a float."""
    def angle():
        return float(rng.uniform(-7, 7)) if rng.random() < 0.2 \
            else rng.uniform(-7, 7, n)
    ops = []
    for _ in range(runs):
        kind, q = int(rng.integers(4 + (width == 2))), int(rng.integers(width))
        for _ in range(int(rng.integers(1, 10))):
            ops.append(x(q) if kind == 0 else ry(angle(), q) if kind == 1
                       else rz(angle(), q) if kind == 2
                       else u(angle(), angle(), angle(), q) if kind == 3
                       else cnot(q, 1 - q))
    return Circuit(width, tuple(ops))


def _compiled_slab(n, periods):
    cfg = scan.ScanConfig(scenario="slab", compile=True, periods=periods,
                          energies=tuple(np.linspace(1.0, 25.0, n)))
    p, profile, th23 = scan._single_qubit_setup(cfg)
    return virtual_z_pass(build_slab_circuit(p, profile, np.array(cfg.energies),
                                             theta23=th23))[0]


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
    empty = np.zeros(0)
    raw = Circuit(1, (ry(empty), rz(empty), ry(empty), measure(0)))
    compiled, report = virtual_z_pass(raw)
    assert compiled.batch_shape == (0,) and report.folded_rz_count == 1
    for circuit in (Circuit(1, (ry(empty),)), raw, compiled):
        state, _ = run(circuit)
        assert state.shape == (0, 2)
        assert circuit_unitary(circuit).shape == (0, 2, 2)
        p0, p1 = probabilities(state, 0)
        assert p0.shape == p1.shape == (0,)
        assert sample(p1, 16, 3).shape == (0,)
    wide = Circuit(2, (ry(empty, 0), cnot(0, 1)))
    assert run(wide)[0].shape == (0, 4)
    assert circuit_unitary(wide).shape == (0, 4, 4)


# --- sampling ----------------------------------------------------------------

def test_sample_deterministic_outcome():
    _, p1 = probabilities(init_state(1), 0)
    assert sample(p1, 4096, seed=7) == 0
    assert sample(1.0, 4096, seed=7) == 4096


def test_sample_same_seed_identical():
    _, p1 = probabilities(apply(init_state(1), ry(1.1)), 0)
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


# word boundaries of the seed's uint32 entropy: 1, 1, 2, 3, 4, 5 and 42 words
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                  2 ** 128 - 1, 2 ** 128, 10 ** 400],
                         ids=["0", "2^32-1", "2^32", "2^64+5", "2^128-1",
                              "2^128", "10^400"])
def test_pcg64_states_match_numpy(seed):
    assert list(_pcg64_states(seed, 40)) == _numpy_states(seed, 40)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 160),
                 st.integers(0, 10 ** 400)),
       st.integers(1, 20))
def test_pcg64_states_match_numpy_at_drawn_seeds(seed, n):
    assert list(_pcg64_states(seed, n)) == _numpy_states(seed, n)


@pytest.mark.parametrize("seed", [12345, 2 ** 64 + 5])
def test_sample_stack_matches_per_point_generators(seed):
    p1 = np.random.Generator(np.random.PCG64(99)).random(2000)
    expected = [np.random.Generator(np.random.PCG64(seed ^ i)).binomial(4096, p)
                for i, p in enumerate(p1.tolist())]
    assert sample(p1, 4096, seed).tolist() == expected


def test_grid_indices_stay_in_the_low_seed_word():
    """seed ^ i changes only the seed's low 32-bit word, which the
    batched seeding relies on."""
    assert scan.MAX_POINTS < 2 ** 32
