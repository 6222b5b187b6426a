"""Virtual-Z folding, native lowering, pulse counting, textual dump."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuqsim.circuits import (N_PARAMS, Circuit, GateKind, cnot, measure, ry,
                             rz, u, x)
from nuqsim.compiler import (dump_circuit, is_sx, lower_to_native,
                             pulse_count, sx, virtual_z_pass)
from nuqsim.simulator import (circuit_unitary, gate_matrix, probabilities,
                              run, unitaries_equal_up_to_phase)

RNG = np.random.Generator(np.random.PCG64(99))

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
_RY, _RZ, _U = (GateKind.RY, (0,)), (GateKind.RZ, (0,)), (GateKind.U, (0,))


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
    """Alternating RY/RZ layers fold into the cumulative-offset U gates;
    the two rotations that meet at the layer boundary become one."""
    t1, t2, f1, f2 = 0.31, 0.87, 1.21, 0.44
    circ = Circuit(1, (ry(-2 * t1), rz(f1), ry(2 * t1),
                       ry(-2 * t2), rz(f2), ry(2 * t2)))
    out, report = virtual_z_pass(circ)
    kinds = [op.kind for op in out.ops]
    assert kinds == [GateKind.RY, GateKind.U, GateKind.U, GateKind.RZ]
    assert out.ops[0].params == (-2 * t1,)
    assert out.ops[1].params == (2 * t1 + -2 * t2, -f1, f1)
    assert out.ops[2].params == (2 * t2, -(f1 + f2), f1 + f2)
    assert out.ops[3].params == (f1 + f2,)
    assert report.folded_rz_count == 2 and report.merged_ry_count == 1
    assert report.residual_rz == f1 + f2


def test_no_rz_circuit_unchanged():
    circ = Circuit(1, (x(), ry(0.5), x(), ry(-1.2), measure(0)))
    out, report = virtual_z_pass(circ)
    assert out == circ
    assert report.folded_rz_count == report.merged_ry_count == 0
    assert report.residual_rz == 0.0


def test_adjacent_rys_become_one():
    circ = Circuit(1, (x(), ry(0.5), ry(-1.2), ry(0.25), measure(0)))
    out, report = virtual_z_pass(circ)
    assert out == Circuit(1, (x(), ry(0.5 + -1.2 + 0.25), measure(0)))
    assert report.merged_ry_count == 2 and report.folded_rz_count == 0


@pytest.mark.parametrize("between", [
    x(), rz(0.0), rz(-0.0), rz(0.4), u(0.6, 0.2, -0.2), u(0.6, 0.3, 0.5),
    u(0.0, 0.0, 0.0)])
def test_a_merge_never_crosses_another_gate(between):
    """Two RYs merge only when nothing stands between them: an X, an RZ
    (even a zero one, whose offset stays zero) or a U keeps both."""
    circ = Circuit(1, (ry(0.5), between, ry(-1.2), measure(0)))
    out, report = virtual_z_pass(circ)
    assert report.merged_ry_count == 0
    assert len(out.gates) == 2 + (between.kind is not GateKind.RZ)
    assert out.gates[0].params == (0.5,) and out.gates[-1].params[0] == -1.2


def test_a_merge_never_crosses_a_template_rz_of_zero_rows():
    circ = Circuit(1, layout=(_RY, _RZ, _RY), angles=[[0.3, 0.4], [0.0, -0.0],
                                                      [0.7, 0.8]])
    out, report = virtual_z_pass(circ)
    assert [op.kind for op in out.ops] == [GateKind.RY, GateKind.RY]
    assert report.merged_ry_count == 0 and report.folded_rz_count == 1


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
    circ = Circuit(1, layout=(_RY, _RZ, _RZ, _RY),
                   angles=[[0.3, 0.4], [0.5, -0.25], [-0.5, 0.25], [0.7, 0.8]])
    out, report = virtual_z_pass(circ)
    assert [op.kind for op in out.ops] == [GateKind.RY, GateKind.RY]
    assert out.ops[1].params[0].tolist() == [0.7, 0.8]
    assert report.folded_rz_count == 2
    assert type(report.residual_rz) is float and report.residual_rz == 0.0


def test_template_offset_zero_on_one_point_still_folds():
    """An offset that is zero on some points only turns the RY into a U
    on every point; the zero point keeps its signed zeros."""
    circ = Circuit(1, layout=(_RY, _RZ, _RY, (GateKind.MEASURE, (0,))),
                   angles=[[0.3, 0.4], [0.5, 0.0], [0.7, 0.8]])
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
    """Uncompiled 3N+1 pulses vs N+2 after folding and merging (init X
    included)."""
    for n in (1, 2, 5, 10):
        ops = [x()]
        for k in range(n):
            ops += [ry(-0.3 - k), rz(0.7 + k), ry(0.3 + k)]
        ops.append(measure(0))
        raw = Circuit(1, tuple(ops))
        compiled, report = virtual_z_pass(raw)
        assert pulse_count(raw) == 3 * n + 1
        assert pulse_count(compiled) == n + 2
        assert report.physical_pulse_count == n + 2
        assert report.input_gate_count == 3 * n + 1
        assert (report.folded_rz_count, report.merged_ry_count) == (n, n - 1)


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


def test_lower_zero_angle_ry_and_u_to_nothing():
    for zero in (0.0, -0.0):
        assert lower_to_native(Circuit(1, [ry(zero)])).ops == ()
        assert lower_to_native(Circuit(1, [u(zero, 0.0, 0.0)])).ops == ()


ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2,
                     -math.pi / 2]),
    st.floats(-1e6, 1e6))
OPS = st.one_of(st.just(x()), st.just(sx()), st.builds(ry, ANGLES),
                st.builds(rz, ANGLES), st.builds(u, ANGLES, ANGLES, ANGLES))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ANGLES, st.lists(OPS, max_size=3), st.lists(OPS, max_size=3))
def test_lower_ry_as_the_u_it_equals_bit_for_bit(t, before, after):
    """RY(t) lowers to the same dump as U(t, 0, 0), among any other ops."""
    lowered = [dump_circuit(lower_to_native(Circuit(1, [*before, op, *after])))
               for op in (ry(t), u(t, 0.0, 0.0))]
    assert lowered[0] == lowered[1]


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
    its compile report as a tuple, written apart from the pass.  It
    collects the output's gate list and angle rows itself.  An RY right
    after an RY of the input adds its angle to that RY's output theta."""
    layout, rows, offset, folded, elided = [], [], 0.0, 0, False
    merged, theta_at = 0, None

    def is_zero(value):
        return not (value.any() if type(value) is np.ndarray else value)

    ops = circuit.ops
    for i, op in enumerate(ops):
        if op.kind is GateKind.RY and i and ops[i - 1].kind is GateKind.RY:
            rows[theta_at] = rows[theta_at] + op.params[0]
            merged += 1
            continue
        theta_at = len(rows)
        if op.kind is GateKind.RZ:
            offset = offset + op.params[0]
            folded += 1
        elif op.kind is GateKind.X:
            layout.append((op.kind, op.qubits))
            offset = -offset
        elif op.kind is GateKind.RY and is_zero(offset):
            layout.append((op.kind, op.qubits))
            rows.append(op.params[0])
        elif op.kind is GateKind.RY:
            layout.append((GateKind.U, op.qubits))
            rows += [op.params[0], -offset, offset]
        elif op.kind is GateKind.U:
            theta, phi, lam = op.params
            eff = offset + lam
            layout.append((op.kind, op.qubits))
            rows += [theta, -eff, eff]
            offset = offset + (lam + phi)
        else:
            elided = not is_zero(offset)
            layout += [(m.kind, m.qubits) for m in circuit.ops[i:]]
            break
    else:
        if not is_zero(offset):
            layout.append((GateKind.RZ, (0,)))
            rows.append(offset)
    compiled = Circuit(1, layout=layout, angles=rows)
    residual = offset if elided or not is_zero(offset) else 0.0
    return compiled, (len(circuit.gates), len(compiled.gates),
                      pulse_count(compiled), folded, residual, merged)


SIGNED_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -1.5]),
                          st.floats(-10.0, 10.0))


@st.composite
def virtual_z_circuits(draw):
    """X/RY/RZ/U sequences, with or without a measure tail, as a single
    circuit or as a template whose angle rows are filled with one angle,
    hold signed zeros among other values, or are all zero."""
    n = draw(st.sampled_from([None, 1, 3]))

    def angle():
        if n is None:
            return draw(SIGNED_ANGLES)
        if draw(st.booleans()):
            return np.full(n, draw(SIGNED_ANGLES))
        zero = draw(st.sampled_from([None, 0.0, -0.0]))
        return np.array([zero] * n if zero is not None else
                        draw(st.lists(SIGNED_ANGLES, min_size=n, max_size=n)))

    layout, rows = [], []
    for kind in draw(st.lists(st.sampled_from("X RY RZ U".split()),
                              max_size=12)):
        layout.append((GateKind[kind], (0,)))
        rows += [angle() for _ in range(N_PARAMS[GateKind[kind]])]
    if draw(st.booleans()):
        layout.append((GateKind.MEASURE, (0,)))
    return Circuit(1, layout=layout, angles=rows)


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
    *counts, residual, merged = want_report
    assert [report.input_gate_count, report.output_gate_count,
            report.physical_pulse_count, report.folded_rz_count] == counts
    assert report.merged_ry_count == merged
    assert _bits(report.residual_rz) == _bits(residual)
    assert got.batch_shape == want.batch_shape
