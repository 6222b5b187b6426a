"""Virtual-Z folding, native lowering, pulse counting, textual dump."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuqsim.circuits import Circuit, GateKind, cnot, measure, ry, rz, u, x
from nuqsim.compiler import (dump_circuit, is_sx, lower_to_native,
                             pulse_count, sx, virtual_z_pass)
from nuqsim.simulator import (circuit_unitary, gate_matrix, probabilities,
                              run, unitaries_equal_up_to_phase)

RNG = np.random.Generator(np.random.PCG64(99))

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])


def random_1q_circuit(n_ops, kinds=("X", "RY", "RZ", "U"), with_measure=False):
    ops = []
    for _ in range(n_ops):
        kind = kinds[int(RNG.integers(len(kinds)))]
        a, b, c = RNG.uniform(-2 * math.pi, 2 * math.pi, 3)
        ops.append({"X": x(), "RY": ry(a), "RZ": rz(a),
                    "U": u(a, b, c)}[kind])
    if with_measure:
        ops.append(measure(0))
    return Circuit(1, tuple(ops))


# --- pulse-form gate ----------------------------------------------------------

def test_pulse_matches_axis_angle_rotation():
    """U(t, -f, f) vs expm of the equatorial axis (sin f, cos f, 0).

    A zero-phase pulse must be a plain Y rotation, which pins the axis
    convention.
    """
    from scipy.linalg import expm
    for _ in range(300):
        theta, phi = RNG.uniform(-2 * math.pi, 2 * math.pi, 2)
        m = gate_matrix(u(theta, -phi, phi))
        axis = math.sin(phi) * PAULI_X + math.cos(phi) * PAULI_Y
        assert np.max(np.abs(m - expm(-0.5j * theta * axis))) < 1e-12


# --- virtual-Z pass -----------------------------------------------------------

def test_fold_produces_slab_pulse_sequence():
    """Alternating RY/RZ layers fold into the cumulative-offset U gates."""
    t1, t2, f1, f2 = 0.31, 0.87, 1.21, 0.44
    circ = Circuit(1, (ry(-2 * t1), rz(f1), ry(2 * t1),
                       ry(-2 * t2), rz(f2), ry(2 * t2)))
    out, report = virtual_z_pass(circ)
    kinds = [op.kind for op in out.ops]
    assert kinds == [GateKind.RY, GateKind.U, GateKind.U, GateKind.U,
                     GateKind.RZ]
    assert out.ops[0].params == (-2 * t1,)
    assert out.ops[1].params == (2 * t1, -f1, f1)
    assert out.ops[2].params == (-2 * t2, -f1, f1)
    assert out.ops[3].params == (2 * t2, -(f1 + f2), f1 + f2)
    assert out.ops[4].params == (f1 + f2,)
    assert report.folded_rz_count == 2
    assert report.residual_rz == f1 + f2


def test_no_rz_circuit_unchanged():
    circ = Circuit(1, (x(), ry(0.5), ry(-1.2), measure(0)))
    out, report = virtual_z_pass(circ)
    assert out == circ
    assert report.folded_rz_count == 0
    assert report.residual_rz == 0.0


def test_fold_exact_with_trailing_rz():
    """RY/RZ/X inputs: output unitary equals input exactly (RZ kept)."""
    for _ in range(100):
        circ = random_1q_circuit(int(RNG.integers(1, 21)),
                                 kinds=("X", "RY", "RZ"))
        out, _ = virtual_z_pass(circ)
        diff = np.max(np.abs(circuit_unitary(out) - circuit_unitary(circ)))
        assert diff < 1e-12


def test_fold_general_u_up_to_phase():
    for _ in range(100):
        circ = random_1q_circuit(int(RNG.integers(1, 21)))
        out, _ = virtual_z_pass(circ)
        assert unitaries_equal_up_to_phase(circuit_unitary(out),
                                           circuit_unitary(circ), 1e-12)


def test_pass_soundness_probabilities():
    for _ in range(100):
        circ = random_1q_circuit(int(RNG.integers(1, 15)), with_measure=True)
        out, _ = virtual_z_pass(circ)
        p_in = probabilities(run(circ)[0], 0)
        p_out = probabilities(run(out)[0], 0)
        assert abs(p_in[0] - p_out[0]) < 1e-12


def test_trailing_rz_elided_before_measure():
    circ = Circuit(1, (ry(0.4), rz(0.9), ry(1.0), measure(0)))
    out, report = virtual_z_pass(circ)
    assert out.ops[-1].kind is GateKind.MEASURE
    assert all(op.kind is not GateKind.RZ for op in out.ops)
    assert report.residual_rz == 0.9


def test_x_flips_pending_offset():
    circ = Circuit(1, (rz(0.8), x(), ry(0.5)))
    out, _ = virtual_z_pass(circ)
    assert [op.kind for op in out.ops] == [GateKind.X, GateKind.U, GateKind.RZ]
    assert out.ops[1].params == (0.5, 0.8, -0.8)   # offset sign flipped by X
    diff = np.max(np.abs(circuit_unitary(out) - circuit_unitary(circ)))
    assert diff < 1e-12


def test_offsets_that_cancel_leave_the_rys_alone():
    circ = Circuit(1, (ry(0.3), rz(0.5), rz(-0.5), ry(0.7)))
    out, report = virtual_z_pass(circ)
    assert out.ops == (ry(0.3), ry(0.7))
    assert report.folded_rz_count == 2
    assert type(report.residual_rz) is float and report.residual_rz == 0.0


def test_template_offsets_that_cancel_on_every_point_leave_the_rys_alone():
    circ = Circuit(1, (ry(np.array([0.3, 0.4])), rz(np.array([0.5, -0.25])),
                       rz(np.array([-0.5, 0.25])), ry(np.array([0.7, 0.8]))))
    out, report = virtual_z_pass(circ)
    assert [op.kind for op in out.ops] == [GateKind.RY, GateKind.RY]
    assert out.ops[1].params[0].tolist() == [0.7, 0.8]
    assert report.folded_rz_count == 2
    assert type(report.residual_rz) is float and report.residual_rz == 0.0


def test_template_offset_zero_on_one_point_still_folds():
    """An offset that is zero on some points only turns the RY into a U
    on every point; the zero point keeps its signed zeros."""
    circ = Circuit(1, (ry(np.array([0.3, 0.4])), rz(np.array([0.5, 0.0])),
                       ry(np.array([0.7, 0.8])), measure(0)))
    out, report = virtual_z_pass(circ)
    assert [op.kind for op in out.ops] == [GateKind.RY, GateKind.U,
                                           GateKind.MEASURE]
    want = ([0.7, 0.8], [-0.5, -0.0], [0.5, 0.0])
    assert [p.tobytes() for p in out.ops[1].params] == \
        [np.array(row).tobytes() for row in want]
    assert report.residual_rz.tobytes() == np.array([0.5, 0.0]).tobytes()
    p_in = probabilities(run(circ)[0], 0)
    p_out = probabilities(run(out)[0], 0)
    assert np.max(np.abs(np.array(p_in) - np.array(p_out))) < 1e-12


def test_idempotent_pulse_count():
    for _ in range(50):
        circ = random_1q_circuit(int(RNG.integers(1, 15)), with_measure=True)
        once, _ = virtual_z_pass(circ)
        twice, _ = virtual_z_pass(once)
        assert pulse_count(once) == pulse_count(twice)


def test_pass_rejects_two_qubit():
    circ = Circuit(2, (cnot(0, 1),))
    with pytest.raises(ValueError):
        virtual_z_pass(circ)


# --- pulse counting -----------------------------------------------------------

def test_pulse_count_empty():
    assert pulse_count(Circuit(1)) == 0


def test_pulse_count_slab_circuits():
    """Uncompiled 3N+1 pulses vs 2N+1 after folding (init X included)."""
    for n in (1, 2, 5, 10):
        ops = [x()]
        for k in range(n):
            ops += [ry(-0.3 - k), rz(0.7 + k), ry(0.3 + k)]
        ops.append(measure(0))
        raw = Circuit(1, tuple(ops))
        compiled, report = virtual_z_pass(raw)
        assert pulse_count(raw) == 3 * n + 1
        assert pulse_count(compiled) == 2 * n + 1
        assert report.physical_pulse_count == 2 * n + 1
        assert report.input_gate_count == 3 * n + 1


def test_trailing_rz_is_free():
    assert pulse_count(Circuit(1, (ry(0.3), rz(1.0)))) == 1
    assert pulse_count(Circuit(1, (ry(0.3), rz(1.0), rz(0.2), measure(0)))) == 1
    assert pulse_count(Circuit(1, (rz(1.0), ry(0.3)))) == 2


# --- native lowering ----------------------------------------------------------

def test_lower_rz_unchanged():
    out = lower_to_native(Circuit(1, (rz(0.77),)))
    assert out.ops == (rz(0.77),)


def test_lower_sx_collapses():
    out = lower_to_native(Circuit(1, (sx(),)))
    assert len(out.ops) == 1 and is_sx(out.ops[0])
    m = gate_matrix(out.ops[0])
    # equals the principal sqrt(X) matrix up to global phase, and squares to X
    sqrt_x = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert unitaries_equal_up_to_phase(m, sqrt_x, 1e-12)
    assert np.max(np.abs(np.exp(1j * math.pi / 4) * m - sqrt_x)) < 1e-12
    assert unitaries_equal_up_to_phase(m @ m, gate_matrix(x()), 1e-12)


def test_lower_zero_theta_becomes_rz():
    out = lower_to_native(Circuit(1, (u(0.0, 0.4, 0.3),)))
    assert out.ops == (rz(0.7),)


def test_lower_random_circuits_equivalent():
    native_kinds = {GateKind.RZ, GateKind.X, GateKind.MEASURE}
    for _ in range(200):
        circ = random_1q_circuit(int(RNG.integers(1, 9)), with_measure=True)
        out = lower_to_native(circ)
        for op in out.ops:
            assert op.kind in native_kinds or is_sx(op)
        assert unitaries_equal_up_to_phase(circuit_unitary(out),
                                           circuit_unitary(circ), 1e-12)


def test_lower_rejects_cnot():
    with pytest.raises(ValueError):
        lower_to_native(Circuit(2, (cnot(0, 1),)))


# --- textual dump -------------------------------------------------------------

def test_dump_circuit_text():
    """One line per op; repr() angles read back bit-exactly."""
    circ = Circuit(2, (ry(0.1 + 0.2, 0), cnot(0, 1), u(1e-17, -math.pi, 2.5, 1),
                       measure(1)))
    text = dump_circuit(circ)
    assert text == ("# nuqsim-circuit width=2\n"
                    "RY 0.30000000000000004 0\n"
                    "CNOT 0 1\n"
                    "U 1e-17 -3.141592653589793 2.5 1\n"
                    "MEASURE 1\n")
    assert float(text.split()[4]) == 0.1 + 0.2
    assert dump_circuit(Circuit(1)) == "# nuqsim-circuit width=1\n"


# --- the pass against a reference walk -------------------------------------------

def _walk_virtual_z(circuit):
    """Reference: the virtual-Z pass as one running sum over the ops, with
    its compile report as a tuple, written apart from the pass."""
    out, offset, folded, elided = [], 0.0, 0, False

    def is_zero(value):
        return not (value.any() if type(value) is np.ndarray else value)

    for i, op in enumerate(circuit.ops):
        if op.kind is GateKind.RZ:
            offset = offset + op.params[0]
            folded += 1
        elif op.kind is GateKind.X:
            out.append(op)
            offset = -offset
        elif op.kind is GateKind.RY:
            out.append(op if is_zero(offset)
                       else u(op.params[0], -offset, offset, op.qubits[0]))
        elif op.kind is GateKind.U:
            theta, phi, lam = op.params
            eff = offset + lam
            out.append(u(theta, -eff, eff, op.qubits[0]))
            offset = offset + (lam + phi)
        else:
            elided = not is_zero(offset)
            out.extend(circuit.ops[i:])
            break
    else:
        if not is_zero(offset):
            out.append(rz(offset))
    compiled = Circuit(1, tuple(out))
    residual = offset if elided or not is_zero(offset) else 0.0
    return compiled, (len(circuit.gates), len(compiled.gates),
                      pulse_count(compiled), folded, residual)


SIGNED_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -1.5]),
                          st.floats(-10.0, 10.0))


@st.composite
def virtual_z_circuits(draw):
    """X/RY/RZ/U sequences, with or without a measure tail, as a single
    circuit or as a template whose angles are floats, arrays with signed
    zeros among other values, or all-zero rows."""
    n = draw(st.sampled_from([None, 1, 3]))

    def angle():
        if n is None or draw(st.booleans()):
            return draw(SIGNED_ANGLES)
        zero = draw(st.sampled_from([None, 0.0, -0.0]))
        return np.array([zero] * n if zero is not None else
                        draw(st.lists(SIGNED_ANGLES, min_size=n, max_size=n)))

    ops = []
    for kind in draw(st.lists(st.sampled_from("X RY RZ U".split()),
                              max_size=12)):
        ops.append(x() if kind == "X" else ry(angle()) if kind == "RY"
                   else rz(angle()) if kind == "RZ"
                   else u(angle(), angle(), angle()))
    if draw(st.booleans()):
        ops.append(measure(0))
    return Circuit(1, tuple(ops))


def _bits(angle):
    """An angle's type and bytes, signed zeros included."""
    return type(angle), np.asarray(angle).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(virtual_z_circuits())
def test_pass_matches_the_reference_walk_bit_for_bit(circuit):
    got, report = virtual_z_pass(circuit)
    want, want_report = _walk_virtual_z(circuit)
    assert [op.kind for op in got.ops] == [op.kind for op in want.ops]
    assert [op.qubits for op in got.ops] == [op.qubits for op in want.ops]
    for g, w in zip(got.ops, want.ops):
        assert [_bits(p) for p in g.params] == [_bits(p) for p in w.params]
    *counts, residual = want_report
    assert [report.input_gate_count, report.output_gate_count,
            report.physical_pulse_count, report.folded_rz_count] == counts
    assert _bits(report.residual_rz) == _bits(residual)
    assert got.batch_shape == want.batch_shape
