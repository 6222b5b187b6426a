"""The checks on gate ops and circuits.

The gate factories are the only constructors of a ``GateOp``; they
check its qubits and angles, and fix the number of angles each kind
carries.  ``Circuit`` checks the ops against its width and keeps the
measures at the tail.
"""
import numpy as np
import pytest

from nuqsim.circuits import Circuit, GateKind, cnot, measure, ry, rz, u, x

# each factory on qubit q, and the kind and angle count its op must carry
# (the angles ``simulator._matrix`` unpacks)
FACTORIES = [
    (x, GateKind.X, 0),
    (lambda q: ry(0.3, q), GateKind.RY, 1),
    (lambda q: rz(0.3, q), GateKind.RZ, 1),
    (lambda q: u(0.3, 0.2, 0.1, q), GateKind.U, 3),
    (lambda q: cnot(q, 1 - q), GateKind.CNOT, 0),
    (measure, GateKind.MEASURE, 0),
]


@pytest.mark.parametrize("make, kind, n_params", FACTORIES)
def test_factory_fixes_kind_and_angle_count(make, kind, n_params):
    op = make(0)
    assert op.kind is kind
    assert len(op.params) == n_params


@pytest.mark.parametrize("make, kind, n_params", FACTORIES)
def test_factory_rejects_negative_qubit(make, kind, n_params):
    with pytest.raises(ValueError, match="negative qubit index"):
        make(-1)


def test_cnot_rejects_equal_control_and_target():
    with pytest.raises(ValueError, match="must differ"):
        cnot(1, 1)
    with pytest.raises(ValueError, match="negative qubit index"):
        cnot(0, -1)


@pytest.mark.parametrize("width", [0, 3])
def test_circuit_rejects_width(width):
    with pytest.raises(ValueError, match="width must be 1 or 2"):
        Circuit(width, (x(),))


def test_circuit_rejects_qubit_beyond_width():
    with pytest.raises(ValueError, match="exceeds circuit width 1"):
        Circuit(1, (ry(0.3, 1),))
    with pytest.raises(ValueError, match="exceeds circuit width 1"):
        Circuit(1, (cnot(0, 1),))


def test_circuit_rejects_qubit_measured_twice():
    with pytest.raises(ValueError, match="qubit 0 measured twice"):
        Circuit(2, (x(0), measure(0), measure(1), measure(0)))


def test_circuit_rejects_gate_after_measure():
    with pytest.raises(ValueError, match="gate after MEASURE"):
        Circuit(1, (x(), measure(), rz(0.1)))
    Circuit(2, (x(0), measure(0), measure(1)))    # measures at the tail pass


@pytest.mark.parametrize("bad", [np.array([0.3 + 0.5j]), np.array(["0.3"]),
                                 np.array([True, False]), np.array("0.3")])
def test_angle_arrays_must_be_real(bad):
    """A complex, string or bool array is refused, naming its dtype, not
    cut to its real part or parsed as numbers."""
    for make in (ry, rz, lambda a: u(0.3, a, 0.1)):
        with pytest.raises(ValueError, match=f"real, got dtype {bad.dtype}"):
            make(bad)


def test_integer_angle_arrays_become_float_angles():
    circuit = Circuit(1, (ry(np.array([1, 2], np.int32)),))
    assert circuit.angles.dtype == np.float64
    assert circuit.angles.tolist() == [[1.0, 2.0]]


def test_templates_compare_by_width_gate_list_and_angles():
    """``==`` on templates is a bool over width, gate list and angle
    matrix; circuits are unhashable, since equal ones may hold -0.0 and
    0.0 angles."""
    a = np.array([0.1, 0.2, 0.3])
    first = Circuit(1, (x(), ry(a), rz(a.copy()), measure()))
    same = Circuit(1, (x(), ry(a.copy()), rz(a), measure()))
    moved = a.copy()
    moved[1] = np.nextafter(moved[1], 1.0)
    other = Circuit(1, (x(), ry(a), rz(moved), measure()))
    assert (first == same) is True
    assert (first == other) is False
    assert (first != other) is True
    assert Circuit(2, first.ops[:-1]) != Circuit(1, first.ops[:-1])
    assert first != first.point(0) and first != "circuit"
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)
    with pytest.raises(TypeError, match="unhashable"):
        hash(Circuit(1, (ry(0.3),)))


def test_gate_list_and_angle_matrix_build_the_same_circuit():
    """``Circuit(width, layout=..., angles=...)`` equals the circuit of the
    same ops, copies its angles and checks them against the gate list."""
    layout = ((GateKind.X, (0,)), (GateKind.U, (0,)), (GateKind.MEASURE, (0,)))
    angles = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    circuit = Circuit(1, layout=layout, angles=angles)
    assert circuit == Circuit(1, (x(), u(angles[0], angles[1], angles[2]),
                                  measure()))
    assert circuit.batch_shape == (2,) and circuit.measured_qubits == (0,)
    angles[0, 0] = 7.0
    assert circuit.angles[0, 0] == 0.1 and not circuit.angles.flags.writeable
    with pytest.raises(ValueError, match="3 angle rows, got shape"):
        Circuit(1, layout=layout, angles=angles[:2])
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(1, layout=layout, angles=np.full((3, 2), np.inf))
    with pytest.raises(ValueError, match="exceeds circuit width 1"):
        Circuit(1, layout=((GateKind.RY, (1,)),), angles=[0.3])
    with pytest.raises(ValueError, match="gate after MEASURE"):
        Circuit(1, layout=layout[::-1], angles=angles)
