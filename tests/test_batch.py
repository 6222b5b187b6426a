"""Batched execution: one template circuit per scan, checked over the
whole valid input domain.

The scan runs every energy of its grid in one pass (template circuit,
gate-matrix stacks, batched oracle).  These properties hold it to the
analytic oracle and to a per-point loop kept here as the reference.
"""
import math
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nuqsim.builders import (build_dilation, build_slab_circuit,
                             dilation_from_angles)
from nuqsim.circuits import Circuit, GateKind, cnot, measure, ry, rz, u, x
from nuqsim.compiler import dump_circuit, lower_to_native, virtual_z_pass
from nuqsim.oscillation import (NumericalDomainError, layer_propagator,
                                msw_survival_from_angles, prob_msw_adiabatic,
                                slab_layer_params)
from nuqsim.scan import (ANGLE_MODES, CSV_HEADER, ScanConfig,
                         _single_qubit_setup, emit_csv, msw_setup, run_scan)
from nuqsim.simulator import (apply_matrix, circuit_unitary, gate_matrix,
                              init_state, probabilities, run, sample,
                              unitaries_equal_up_to_phase)

# deterministic examples, no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


def angle_arrays(n):
    return st.lists(ANGLES, min_size=n, max_size=n).map(np.array)


# --- the valid ScanConfig domain ------------------------------------------------
# Every field ranges over its physical domain (ScanConfig validation),
# trimmed only so that a profile's accumulated phase stays below
# oscillation.PHASE_LIMIT, which the scan reports as a numerical-domain
# error instead of returning a number.

energy_grids = st.lists(st.floats(0.5, 50.0), min_size=1, max_size=12,
                        unique=True).map(lambda es: tuple(sorted(es)))

configs = st.fixed_dictionaries({
    "scenario": st.sampled_from(["slab", "earth", "msw"]),
    "energies": energy_grids,
    "shots": st.integers(1, 4096),
    "seed": st.integers(0, 2 ** 32),
    "compile": st.booleans(),
    "angle_mode": st.sampled_from(ANGLE_MODES),
    "theta12_deg": st.floats(0.0, 90.0),
    "theta13_deg": st.floats(0.0, 90.0),
    "theta23_deg": st.floats(0.0, 90.0),
    "dm2_21": st.floats(1e-6, 1e-2),
    "dm2_31": st.floats(1e-4, 5e-3),
    "ye": st.floats(0.01, 1.0),
    "rho1": st.floats(0.0, 20.0),
    "rho2": st.floats(0.0, 20.0),
    "dx1_km": st.floats(0.0, 2000.0),
    "dx2_km": st.floats(0.0, 2000.0),
    "periods": st.integers(1, 8),
    "production_rho": st.floats(0.0, 200.0),
}).map(lambda fields: ScanConfig(**fields))


def scan_or_reject(config):
    try:
        return run_scan(config)
    except NumericalDomainError:      # e.g. the theta = 0 resonance
        assume(False)


def per_point_reference(config):
    """(p_theory, p_exact, p_sampled) per energy, one energy at a time:
    scalar layer propagators for the oracle, a batch-of-one run for the
    circuit."""
    out = []
    for i, e in enumerate(config.energies):
        one = np.array([e])
        if config.scenario == "msw":
            p, layer = msw_setup(config)
            state = apply_matrix(init_state(2), build_dilation(p, layer, one))
            qubit = 1
            theory = prob_msw_adiabatic(p, layer, e)[0]
        else:
            p, profile, th23 = _single_qubit_setup(config)
            circuit = build_slab_circuit(p, profile, one, theta23=th23)
            if config.compile:
                circuit, _ = virtual_z_pass(circuit)
            state, (qubit,) = run(circuit)
            v = np.array([0, 1], dtype=complex)
            for theta_k, phi_k in zip(*slab_layer_params(p, profile, e, th23)):
                v = layer_propagator(theta_k, phi_k) @ v
            theory = abs(v[0]) ** 2
        (exact,), (p1,) = probabilities(state, qubit)
        ones = sample(p1, config.shots, config.seed ^ i)
        out.append((theory, exact, (config.shots - ones) / config.shots))
    return out


@PROPERTY
@given(configs)
def test_batched_circuit_equals_batched_oracle(config):
    for _, theory, exact, _, _ in scan_or_reject(config).channels():
        assert np.max(np.abs(exact - theory)) <= 1e-12


@PROPERTY
@given(configs)
def test_batched_scan_equals_per_point_loop(config):
    result = scan_or_reject(config)
    columns = zip(result.p_theory.tolist(), result.p_exact.tolist(),
                  result.p_sampled.tolist())
    for (theory, exact, sampled), (ref_theory, ref_exact, ref_sampled) in zip(
            columns, per_point_reference(config), strict=True):
        assert abs(theory - ref_theory) <= 1e-14
        assert abs(exact - ref_exact) <= 1e-14
        assert sampled == ref_sampled


@PROPERTY
@given(configs)
def test_csv_reproduces_every_column(config):
    """Parser oracle: re-reading emit_csv's output gives every column bit
    for bit; msw rows alternate ee/emu, emu = 1.0 - ee with the same
    stderr."""
    result = scan_or_reject(config)
    with tempfile.TemporaryDirectory() as tmp:
        with open(emit_csv(result, f"{tmp}/scan.csv")) as fh:
            header, *lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines]
    msw = config.scenario == "msw"
    assert header == CSV_HEADER + (",channel" if msw else "")
    assert len(rows) == len(config.energies) * (2 if msw else 1)

    def columns(rows):
        return [np.array([float(row[k]) for row in rows]) for k in range(5)]
    ee = columns(rows[::2] if msw else rows)
    names = ("energy_gev", "p_theory", "p_exact", "p_sampled", "stderr")
    for name, column in zip(names, ee):
        assert column.tobytes() == getattr(result, name).tobytes(), name
    if msw:
        assert [row[5] for row in rows] == ["ee", "emu"] * len(config.energies)
        emu = columns(rows[1::2])
        for k, expected in enumerate([ee[0], *(1.0 - col for col in ee[1:4]),
                                      ee[4]]):
            assert emu[k].tobytes() == expected.tobytes(), names[k]


@PROPERTY
@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(angle_arrays(n), angle_arrays(n), angle_arrays(n))))
def test_gate_matrix_stacks_are_unitary(arrays):
    a, b, c = arrays
    n = len(a)
    for op in (ry(a), rz(a), u(a, b, c)):
        m = gate_matrix(op)
        assert m.shape == (n, 2, 2)
        eye = m @ np.swapaxes(m.conj(), -1, -2)
        assert np.max(np.abs(eye - np.eye(2))) <= 1e-12
        for i in range(n):     # each slice is the single gate's matrix
            single = Circuit(1, (op,)).point(i).ops[0]
            assert np.array_equal(m[i], gate_matrix(single))


@st.composite
def template_circuits(draw):
    n = draw(st.integers(1, 8))
    ops = []
    for kind in draw(st.lists(st.sampled_from("X RY RZ U".split()),
                              min_size=1, max_size=12)):
        if kind == "X":
            ops.append(x())
        elif kind == "U":
            ops.append(u(draw(angle_arrays(n)), draw(angle_arrays(n)),
                         draw(angle_arrays(n))))
        else:
            ops.append((ry if kind == "RY" else rz)(draw(angle_arrays(n))))
    assume(any(op.params for op in ops))
    return Circuit(1, tuple(ops) + (measure(0),))


@PROPERTY
@given(template_circuits())
def test_virtual_z_leaves_batched_probabilities_unchanged(circuit):
    # a pass that drops every angle array leaves a single circuit, which
    # broadcasts over the batch
    n = circuit.batch_shape[0]
    compiled, report = virtual_z_pass(circuit)
    assert report.folded_rz_count == sum(op.kind is GateKind.RZ
                                         for op in circuit.ops)
    before = probabilities(run(circuit)[0], 0)[0]
    after = probabilities(run(compiled)[0], 0)[0]
    assert np.max(np.abs(before - after)) <= 1e-12
    # without the measure the trailing RZ is kept: same unitary up to phase
    gates = Circuit(1, circuit.gates)
    folded = np.broadcast_to(circuit_unitary(virtual_z_pass(gates)[0]),
                             (n, 2, 2))
    for i in range(n):
        assert unitaries_equal_up_to_phase(circuit_unitary(gates)[i],
                                           folded[i], 1e-12)


@PROPERTY
@given(st.integers(1, 32).flatmap(lambda n: st.tuples(
    st.floats(0.0, math.pi / 2),
    st.lists(st.floats(0.0, math.pi / 2), min_size=n, max_size=n))))
def test_dilation_marginals(angles):
    theta, theta_m = angles[0], np.array(angles[1])
    u2q = dilation_from_angles(theta, theta_m)
    assert u2q.shape == (len(theta_m), 4, 4)
    eye = u2q @ np.swapaxes(u2q, -1, -2)
    assert np.max(np.abs(eye - np.eye(4))) <= 1e-12
    p0, p1 = probabilities(apply_matrix(init_state(2), u2q), 1)
    expected = msw_survival_from_angles(theta, theta_m)
    assert np.max(np.abs(u2q[:, 0, 0] - expected)) <= 1e-14
    assert np.max(np.abs(p0 - expected)) <= 1e-12
    assert np.max(np.abs(p1 - (1.0 - expected))) <= 1e-12


# --- templates --------------------------------------------------------------------

def test_template_point_is_the_single_circuit():
    cfg = ScanConfig(scenario="earth", energies=(2.0, 6.0, 11.0), compile=True)
    p, profile, th23 = _single_qubit_setup(cfg)
    template, _ = virtual_z_pass(
        build_slab_circuit(p, profile, np.array(cfg.energies), theta23=th23))
    assert template.batch_shape == (3,)
    for i, e in enumerate(cfg.energies):
        single, _ = virtual_z_pass(
            build_slab_circuit(p, profile, e, theta23=th23))
        assert single.batch_shape == ()
        assert template.point(i) == single
        # Python floats, so a dump of the point is repr-exact
        assert all(type(p) is float
                   for op in template.point(i).ops for p in op.params)
        assert dump_circuit(template.point(i)) == dump_circuit(single)


def test_template_angles_are_read_only_and_finite():
    op = Circuit(1, (ry(np.array([0.1, 0.2])),)).ops[0]
    with pytest.raises(ValueError):
        op.params[0][0] = 1.0
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(1, (rz(np.array([0.1, math.nan])),))
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(1, (ry(0.3), rz(math.inf)))
    with pytest.raises(ValueError, match="1-D"):
        ry(np.zeros((2, 2)))


def test_a_built_circuit_owns_its_angles():
    """A circuit copies its angles into one read-only matrix whose rows are
    its ops' params, so no later write to a caller's array changes the
    circuit or its run: not to a writeable input, not to a read-only owner
    made writeable again, not a NaN written there.  A NaN inside the
    angles is rejected; a NaN outside a passed view is not."""
    free = np.array([0.1, 0.2])
    owner = np.array([[0.3, 0.6], [0.9, 1.2]])
    owner.flags.writeable = False
    circuit = Circuit(1, (ry(free), rz(owner[0]), u(owner[1], free, 0.5),
                          measure(0)))
    angles, (states, _) = circuit.angles.copy(), run(circuit)
    assert angles.shape == (5, 2) and not circuit.angles.flags.writeable
    assert np.array_equal(angles[4], [0.5, 0.5])   # a float fills its row

    def write_free():
        free[0] = 7.0

    def write_owner():
        owner.flags.writeable = True
        owner[0, 0] = 7.0

    def write_nan():
        owner[1, 1] = math.nan
    for write in (write_free, write_owner, write_nan):
        write()
        assert np.array_equal(circuit.angles, angles)
        params = [prm for op in circuit.ops for prm in op.params]
        assert len(params) == len(angles)
        for prm, row in zip(params, angles):
            assert np.shares_memory(prm, circuit.angles)
            assert np.array_equal(prm, row)
        assert np.array_equal(run(circuit)[0], states)

    owned = np.array([[0.1, 0.2], [0.3, math.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(1, (ry(owned[0]), rz(owned[1])))
    assert Circuit(1, (ry(owned[0]), x())).batch_shape == (2,)


def test_template_rejects_mixed_batch_shapes():
    with pytest.raises(ValueError, match="shapes"):
        Circuit(1, (ry(np.zeros(2)), rz(np.zeros(3))))


def test_single_circuit_passes_reject_templates():
    template = Circuit(1, (ry(np.array([0.1, 0.2])), measure(0)))
    for single_only in (dump_circuit, lower_to_native):
        with pytest.raises(ValueError, match="point"):
            single_only(template)


def test_two_qubit_template_matches_single_circuits():
    a, b = np.array([0.3, -1.2, 2.5]), np.array([1.1, 0.4, -0.7])
    template = Circuit(2, (ry(a, 0), ry(b, 1), cnot(0, 1), ry(-b, 0),
                           cnot(1, 0), ry(a, 1), measure(1)))
    states, _ = run(template)
    unitaries = circuit_unitary(template)
    for i in range(3):
        single = template.point(i)
        assert np.max(np.abs(states[i] - run(single)[0])) <= 1e-15
        assert np.max(np.abs(unitaries[i] - circuit_unitary(single))) <= 1e-15


def test_probabilities_names_the_unnormalized_row():
    states = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="state 1 is not normalized"):
        probabilities(states, 0)
