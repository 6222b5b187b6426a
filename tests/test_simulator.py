"""Statevector backend tests: gate matrices, application, marginals, sampling."""
import math

import numpy as np
import pytest

from nuqsim.circuits import Circuit, cnot, measure, ry, rz, u, x
from nuqsim.oscillation import layer_propagator
from nuqsim.compiler import virtual_z_pass
from nuqsim.simulator import (apply, apply_matrix, circuit_unitary,
                              gate_matrix, init_state, probabilities, run,
                              sample, states_equal_up_to_phase,
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
    with pytest.raises(ValueError):
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
        assert states_equal_up_to_phase(state, expected, 1e-12)
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


def test_sample_zero_shots_rejected():
    with pytest.raises(ValueError):
        sample(0.5, 0, seed=0)


def test_sample_negative_seed_rejected():
    with pytest.raises(ValueError):
        sample(0.5, 16, seed=-1)
