"""The checks on gate ops and circuits.

The gate factories check an op's qubits and angles, one real number per
angle, and fix the number of angles each kind carries.  ``Circuit``
checks every distinct ``(kind, qubits)`` entry of its gate list with the
same gate check, whether it is built from ops or from a gate list and an
angle matrix, refuses a non-real angle matrix, and keeps the measures at
the tail.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuqsim.circuits import (N_PARAMS, Circuit, GateKind, GateOp, cnot,
                             measure, ry, rz, u, x)

# each factory on qubit q, and the kind and angle count its op must carry
# (the angles ``simulator._entries`` unpacks)
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


@pytest.mark.parametrize("bad", [np.array([[0.3 + 0.5j]]), np.array([["0.3"]]),
                                 np.array([[True, False]]),
                                 np.array([[None]], dtype=object)])
def test_angle_arrays_must_be_real(bad):
    """A complex, string, bool or object angle matrix is refused, naming
    its dtype, before any cast: not cut to its real part with a
    ComplexWarning (an error under this suite's warning filter) or parsed
    as numbers."""
    for kind in (GateKind.RY, GateKind.RZ):
        with pytest.raises(ValueError, match=f"real, got dtype {bad.dtype}"):
            Circuit(1, layout=[(kind, (0,))], angles=bad)


@pytest.mark.parametrize("bad", [0.3 + 0.5j, "0.3", True, None])
def test_factory_angles_must_be_real_numbers(bad):
    for make in (ry, rz, lambda a: u(a, a, a)):
        with pytest.raises(ValueError, match="real, got dtype"):
            make(bad)


def test_factories_take_one_number_per_angle():
    """An angle array is a template's row, which only the layout form
    builds; a factory points there."""
    for make in (ry, rz, lambda a: u(0.3, a, 0.1)):
        with pytest.raises(ValueError, match=r"layout=\.\.\., angles="):
            make(np.array([0.1, 0.2]))
    assert ry(np.float32(0.5)).params == (0.5,)
    assert type(u(np.array(1.0), 2, np.int64(3)).params[1]) is float


def test_integer_angle_arrays_become_float_angles():
    circuit = Circuit(1, layout=[(GateKind.RY, (0,))],
                      angles=np.array([[1, 2]], np.int32))
    assert circuit.angles.dtype == np.float64
    assert circuit.angles.tolist() == [[1.0, 2.0]]


def test_templates_compare_by_width_gate_list_and_angles():
    """``==`` on templates is a bool over width, gate list and angle
    matrix; circuits are unhashable, since equal ones may hold -0.0 and
    0.0 angles."""
    a = np.array([0.1, 0.2, 0.3])
    layout = ((GateKind.X, (0,)), (GateKind.RY, (0,)), (GateKind.RZ, (0,)),
              (GateKind.MEASURE, (0,)))
    first = Circuit(1, layout=layout, angles=[a, a.copy()])
    same = Circuit(1, layout=layout, angles=np.stack([a, a]))
    moved = a.copy()
    moved[1] = np.nextafter(moved[1], 1.0)
    other = Circuit(1, layout=layout, angles=[a, moved])
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
    for i in range(2):
        assert circuit.point(i) == Circuit(1, (x(), u(*angles[:, i]),
                                               measure()))
    assert Circuit(1, circuit.ops) == circuit
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


# --- one gate check for both constructors ------------------------------------

# each kind's factory, its qubits as positional arguments (angles 0.25)
MAKE = {GateKind.X: x, GateKind.MEASURE: measure, GateKind.CNOT: cnot,
        GateKind.RY: lambda q: ry(0.25, q), GateKind.RZ: lambda q: rz(0.25, q),
        GateKind.U: lambda q: u(0.25, 0.25, 0.25, q)}


def _outcome(build):
    """True if ``build()`` builds, False if it raises ValueError."""
    try:
        build()
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(GateKind)),
       st.lists(st.integers(-1, 2), max_size=3).map(tuple),
       st.integers(1, 2))
def test_layout_entries_pass_the_factory_check(kind, qubits, width):
    """The layout form accepts exactly the entries whose factory op
    ``Circuit(width, [op])`` accepts; every refusal is a ValueError."""
    angles = np.full((N_PARAMS[kind], 3), 0.25)
    by_layout = _outcome(
        lambda: Circuit(width, layout=[(kind, qubits)], angles=angles))
    # a factory takes as many qubits as its kind acts on, no other count
    arity = 2 if kind is GateKind.CNOT else 1
    by_ops = len(qubits) == arity and _outcome(
        lambda: Circuit(width, [MAKE[kind](*qubits)]))
    assert by_layout == by_ops
    if by_layout:
        ops = Circuit(width, layout=[(kind, qubits)], angles=angles).ops
        assert ops[0][:2] == (kind, qubits)


# each entry, and the substring its ValueError must hold
BAD_ENTRIES = [
    ((GateKind.CNOT, (1, 1)), 2, "CNOT control and target must differ"),
    ((GateKind.CNOT, (0,)), 2, r"CNOT needs 2 qubit\(s\)"),
    ((GateKind.CNOT, (0, 1)), 1, "CNOT on qubit 1 exceeds circuit width 1"),
    ((GateKind.RY, (0, 1)), 2, r"RY needs 1 qubit\(s\)"),
    ((GateKind.RY, (-1,)), 2, "RY on negative qubit index -1"),
    ((GateKind.MEASURE, (0, 1)), 2, r"MEASURE needs 1 qubit\(s\)"),
    ((GateKind.X, ()), 1, r"X needs 1 qubit\(s\)"),
    ((GateKind.X, 0), 1, r"X needs 1 qubit\(s\)"),
    ((GateKind.X, (0.0,)), 1, r"X needs 1 qubit\(s\) as a tuple of ints"),
    ((GateKind.X, (True,)), 1, r"X needs 1 qubit\(s\) as a tuple of ints"),
    (("RY", (0,)), 1, "gate kind must be a GateKind, got 'RY'"),
    # no hashable (kind, qubits) pair: refused by name, not by hashing or
    # unpacking it
    ((GateKind.RY, [0]), 1, r"RY needs 1 qubit\(s\) as a tuple of ints, got \[0\]"),
    ((GateKind.RY, ([0],)), 1, r"RY needs 1 qubit\(s\) as a tuple of ints"),
    ((GateKind.RY, (0,), 0.3), 1,
     r"layout entry \(<GateKind.RY: 'RY'>, \(0,\), 0.3\) is not a \(kind, qubits\) pair"),
    ("RY", 1, r"layout entry 'RY' is not a \(kind, qubits\) pair"),
    ([GateKind.RY, (0,)], 1, r"layout entry \[<GateKind.RY: 'RY'>, \(0,\)\] is not"),
]


@pytest.mark.parametrize("entry, width, message", BAD_ENTRIES)
def test_layout_refuses_bad_entries_naming_them(entry, width, message):
    n = N_PARAMS.get(entry[0], 0)
    with pytest.raises(ValueError, match=message):
        Circuit(width, layout=[entry], angles=np.zeros(n))


@pytest.mark.parametrize("entry, width, message", BAD_ENTRIES[:5])
def test_ops_refuse_bad_entries_naming_them(entry, width, message):
    """A bad op built without a factory meets the same check."""
    op = GateOp(*entry, (0.0,) * N_PARAMS[entry[0]])
    with pytest.raises(ValueError, match=message):
        Circuit(width, [op])


def test_factories_check_against_the_widest_register():
    with pytest.raises(ValueError, match="RY on qubit 2 exceeds circuit width 2"):
        ry(math.pi, 2)
