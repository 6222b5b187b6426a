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
from nuqsim import builders, circuits, compiler, optim, scan, simulator
from nuqsim.circuits import N_PARAMS, Circuit, GateKind, GateOp, measure, ry, rz
from nuqsim.compiler import dump_circuit, lower_to_native, virtual_z_pass
from nuqsim.oscillation import (NumericalDomainError,
                                msw_survival_from_angles, prob_msw_adiabatic,
                                slab_layer_params)
from nuqsim.scan import (ANGLE_MODES, CSV_HEADER, ScanConfig,
                         _single_qubit_setup, emit_csv, msw_setup, run_scan)
from nuqsim.simulator import (apply_matrix, circuit_unitary, gate_matrix,
                              init_state, probabilities, run,
                              unitaries_equal_up_to_phase)
from test_oscillation import _matrix_form_propagator

# deterministic examples, no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


def angle_arrays(n):
    return st.lists(ANGLES, min_size=n, max_size=n).map(np.array)


def on(kind, *qubits):
    """The layout entry of a gate of ``kind`` on ``qubits`` (default 0)."""
    return (GateKind[kind], qubits or (0,))


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
    the matrix-form layer propagators multiplied in order for the oracle,
    a batch-of-one run for the circuit, and numpy's own generator
    PCG64(seed XOR i) for the draw, so the batched seeding of ``sample``
    is checked against numpy, not against itself."""
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
            circuit = build_slab_circuit(
                *slab_layer_params(p, profile, one, th23))
            if config.compile:
                circuit, _ = virtual_z_pass(circuit)
            state, (qubit,) = run(circuit)
            v = np.array([0, 1], dtype=complex)
            for theta_k, phi_k in zip(*slab_layer_params(p, profile, e, th23)):
                v = _matrix_form_propagator(theta_k, phi_k) @ v
            theory = abs(v[0]) ** 2
        (exact,), (p1,) = probabilities(state, qubit)
        ones = np.random.Generator(np.random.PCG64(config.seed ^ i)).binomial(
            config.shots, min(max(p1, 0.0), 1.0))
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
    template = Circuit(1, layout=(on("RY"), on("RZ"), on("U")),
                       angles=[a, a, a, b, c])
    for k, op in enumerate(template.ops):
        m = gate_matrix(op)
        assert m.shape == (n, 2, 2)
        eye = m @ np.swapaxes(m.conj(), -1, -2)
        assert np.max(np.abs(eye - np.eye(2))) <= 1e-12
        for i in range(n):     # each slice is the single gate's matrix
            single = template.point(i).ops[k]
            assert np.array_equal(m[i], gate_matrix(single))


@st.composite
def template_circuits(draw):
    n = draw(st.integers(1, 8))
    layout, rows = [], []
    for kind in draw(st.lists(st.sampled_from("X RY RZ U".split()),
                              min_size=1, max_size=12)):
        layout.append(on(kind))
        rows += [draw(angle_arrays(n)) for _ in range(N_PARAMS[GateKind[kind]])]
    assume(rows)
    return Circuit(1, layout=layout + [on("MEASURE")], angles=rows)


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
    template, _ = virtual_z_pass(build_slab_circuit(
        *slab_layer_params(p, profile, np.array(cfg.energies), th23)))
    assert template.batch_shape == (3,)
    for i, e in enumerate(cfg.energies):
        single, _ = virtual_z_pass(
            build_slab_circuit(*slab_layer_params(p, profile, e, th23)))
        assert single.batch_shape == ()
        assert template.point(i) == single
        # Python floats, so a dump of the point is repr-exact
        assert all(type(p) is float
                   for op in template.point(i).ops for p in op.params)
        assert dump_circuit(template.point(i)) == dump_circuit(single)


def test_template_angles_are_read_only_and_finite():
    op = Circuit(1, layout=[on("RY")], angles=[[0.1, 0.2]]).ops[0]
    with pytest.raises(ValueError):
        op.params[0][0] = 1.0
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(1, layout=[on("RZ")], angles=[[0.1, math.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(1, (ry(0.3), rz(math.inf)))
    with pytest.raises(ValueError, match=r"1 angle rows, got shape \(1, 2, 2\)"):
        Circuit(1, layout=[on("RY")], angles=np.zeros((1, 2, 2)))


def test_a_built_circuit_owns_its_angles():
    """A circuit copies its angles into one read-only matrix whose rows are
    its ops' params, so no later write to a caller's array changes the
    circuit or its run: not to a writeable input, not to a read-only owner
    made writeable again, not a NaN written there.  A NaN inside the
    angles is rejected; a NaN outside a passed view is not."""
    free = np.array([0.1, 0.2])
    owner = np.array([[0.3, 0.6], [0.9, 1.2]])
    owner.flags.writeable = False
    circuit = Circuit(1, layout=(on("RY"), on("RZ"), on("U"), on("MEASURE")),
                      angles=[free, owner[0], owner[1], free, [0.5, 0.5]])
    angles, (states, _) = circuit.angles.copy(), run(circuit)
    assert angles.shape == (5, 2) and not circuit.angles.flags.writeable

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
        Circuit(1, layout=(on("RY"), on("RZ")), angles=owned)
    assert Circuit(1, layout=(on("RY"), on("X")),
                   angles=owned[:1]).batch_shape == (2,)


def test_template_rejects_mixed_batch_shapes():
    """Angle rows of different lengths, or a single op's float among a
    template's rows, are no angle matrix."""
    with pytest.raises(ValueError):
        Circuit(1, layout=(on("RY"), on("RZ")),
                angles=[np.zeros(2), np.zeros(3)])
    template = Circuit(1, layout=[on("RY")], angles=[[0.1, 0.2]])
    with pytest.raises(ValueError):
        Circuit(1, template.ops + (rz(0.3),))


def test_single_circuit_passes_reject_templates():
    template = Circuit(1, layout=(on("RY"), on("MEASURE")), angles=[[0.1, 0.2]])
    for single_only in (dump_circuit, lower_to_native):
        with pytest.raises(ValueError, match="point"):
            single_only(template)


def test_point_rejects_a_single_circuit():
    single = Circuit(1, (ry(0.1), measure(0)))
    with pytest.raises(ValueError, match="single circuit"):
        single.point(0)


def test_two_qubit_template_matches_single_circuits():
    a, b = np.array([0.3, -1.2, 2.5]), np.array([1.1, 0.4, -0.7])
    template = Circuit(2, layout=(on("RY", 0), on("RY", 1), on("CNOT", 0, 1),
                                  on("RY", 0), on("CNOT", 1, 0), on("RY", 1),
                                  on("MEASURE", 1)),
                       angles=[a, b, -b, a])
    states, _ = run(template)
    unitaries = circuit_unitary(template)
    for i in range(3):
        single = template.point(i)
        assert np.max(np.abs(states[i] - run(single)[0])) <= 1e-15
        assert np.max(np.abs(unitaries[i] - circuit_unitary(single))) <= 1e-15


# angles with signed zeros and opposite pairs, so U gates in pulse form
# (phi + lam == 0) and out of it meet in one block
TEMPLATE_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, math.pi]),
                            ANGLES)


@st.composite
def any_template(draw):
    """A 1- or 2-qubit template with any gates: single-qubit gates on
    either qubit, both CNOT orientations, a row filled with one angle
    among rows of drawn angles."""
    width, n = draw(st.sampled_from([1, 2])), draw(st.integers(1, 5))

    def angle():
        if draw(st.booleans()):
            return np.full(n, draw(TEMPLATE_ANGLES))
        return np.array(draw(st.lists(TEMPLATE_ANGLES, min_size=n,
                                      max_size=n)))

    layout, rows = [], []
    kinds = "X RY RZ U" + (" CNOT" if width == 2 else "")
    for kind in draw(st.lists(st.sampled_from(kinds.split()), max_size=16)):
        q = draw(st.integers(0, width - 1))
        layout.append(on(kind, q, 1 - q) if kind == "CNOT" else on(kind, q))
        rows += [angle() for _ in range(N_PARAMS[GateKind[kind]])]
    layout.append(on("RY"))           # at least one angle row
    rows.append(np.zeros(n))
    layout += [on("MEASURE", q) for q in range(width)]
    return Circuit(width, layout=layout, angles=rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(any_template())
def test_template_runs_bit_for_bit_as_its_points(template):
    """A template's states are its points' states, bit for bit, and its
    ops rebuild it."""
    states, measured = run(template)
    n = template.batch_shape[0]
    points = [run(template.point(i)) for i in range(n)]
    assert states.tobytes() == np.stack([s for s, _ in points]).tobytes()
    assert measured == points[0][1] == template.measured_qubits
    assert Circuit(template.width, template.ops) == template


def record_gate_builds(monkeypatch) -> list:
    """Patch ``GateOp`` and every gate factory a nuqsim module binds so
    that each call is appended, by name, to the returned list."""
    built = []
    new = GateOp.__new__
    monkeypatch.setattr(GateOp, "__new__", lambda cls, *args, **kwargs: (
        built.append("GateOp") or new(cls, *args, **kwargs)))
    for module in (circuits, builders, compiler, optim, simulator, scan):
        for name in ("x", "ry", "rz", "u", "cnot", "measure", "sx"):
            factory = getattr(module, name, None)
            if callable(factory):
                monkeypatch.setattr(module, name,
                                    lambda *a, _n=name, _f=factory, **k:
                                    built.append(_n) or _f(*a, **k))
    return built


def test_compiled_slab_scan_builds_no_gate_op(monkeypatch):
    """A compiled slab scan builds, compiles and runs its template from
    the gate list and the angle matrix: no GateOp, no gate factory call.
    Its op and gate counts are the ones the benchmark's tracer reports
    (circuits.ops_built, simulator.gates_applied)."""
    built = record_gate_builds(monkeypatch)
    cfg = ScanConfig(scenario="slab", compile=True, periods=50)
    result = run_scan(cfg)
    assert built == [] and result.report.output_gate_count == 102
    p, profile, th23 = _single_qubit_setup(cfg)
    raw = build_slab_circuit(
        *slab_layer_params(p, profile, np.array(cfg.energies), th23))
    compiled, _ = virtual_z_pass(raw)
    assert built == [] and compiled == result.circuit
    assert (len(raw.ops), len(raw.gates), len(compiled.gates)) == (302, 301, 102)
    assert set(built) == {"GateOp"}      # the views, built on request


def test_optimized_msw_scan_builds_no_gate_op(monkeypatch):
    """An optimized MSW scan builds its template from the ansatz's gate
    list and an angle matrix and checks the template's unitary with
    ``meets_tolerance``: no GateOp, no gate factory call, and the
    tracer's count of ops built (circuits.ops_built) of 9."""
    built = record_gate_builds(monkeypatch)
    cfg = ScanConfig(scenario="msw", synthesis="optimized")
    result = run_scan(cfg)
    assert built == []
    p, layer = msw_setup(cfg)
    targets = build_dilation(p, layer, np.array(cfg.energies))
    circuit = builders.build_msw_circuit(builders.synthesis_angles(targets))
    assert np.all(optim.meets_tolerance(targets, circuit_unitary(circuit))
                  <= optim.TOL_INFIDELITY)
    assert built == [] and circuit == result.circuit
    assert (len(circuit.ops), len(circuit.gates)) == (9, 8)


def test_probabilities_names_the_unnormalized_row():
    states = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="state 1 is not normalized"):
        probabilities(states, 0)
