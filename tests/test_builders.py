"""Circuit builders: slab/earth transcription, dilation, two-CNOT ansatz."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuqsim import optim
from nuqsim.builders import (_w_matrix, build_dilation, build_msw_circuit,
                             build_slab_circuit, dilation_from_angles,
                             earth_profile, synthesis_angles)
from nuqsim.circuits import GateKind, measure, ry, rz, x
from nuqsim.compiler import pulse_count, virtual_z_pass
from nuqsim.oscillation import (MatterLayer, OscParams, SlabProfile,
                                phase, prob_msw_adiabatic, prob_slab,
                                slab_layer_params)
from nuqsim.optim import FidelityProblem, optimize
from nuqsim.simulator import (apply_matrix, circuit_unitary, init_state,
                              probabilities, run)

RNG = np.random.Generator(np.random.PCG64(31415))

P13 = OscParams(math.radians(9.0), 2.5e-3)
TH23 = math.radians(45.0)


def exact_p0(circuit):
    state, measured = run(circuit)
    return probabilities(state, measured[0])[0]


# --- slab circuits --------------------------------------------------------------

def test_single_vacuum_layer_structure():
    p = OscParams(0.4, 2.5e-3)
    profile = SlabProfile((MatterLayer(0.0, 0.5, 750.0),))
    circ = build_slab_circuit(*slab_layer_params(p, profile, 2.0))
    phi = phase(p.dm2, 750.0, 2.0)
    assert circ.ops == (x(0), ry(-2 * 0.4), rz(phi), ry(2 * 0.4), measure(0))


def test_ten_slab_compiled_pulse_count():
    """Five periods of two slabs compile to N+2 = 12 physical pulses."""
    profile = SlabProfile((MatterLayer(5.0, 0.5, 500.0),
                           MatterLayer(10.0, 0.5, 1000.0)), period_count=5)
    circ, _ = virtual_z_pass(
        build_slab_circuit(*slab_layer_params(P13, profile, 5.0, TH23)))
    assert pulse_count(circ) == 12
    raw = build_slab_circuit(*slab_layer_params(P13, profile, 5.0, TH23))
    assert pulse_count(raw) == 31


def test_compiled_equals_uncompiled_probability():
    for _ in range(50):
        n = int(RNG.integers(1, 12))
        layers = tuple(MatterLayer(RNG.uniform(0, 15), 0.5,
                                   RNG.uniform(0, 5000)) for _ in range(n))
        profile = SlabProfile(layers)
        p = OscParams(RNG.uniform(0.01, math.pi / 2 - 0.01), 2.5e-3)
        e = RNG.uniform(0.5, 30)
        raw = build_slab_circuit(*slab_layer_params(p, profile, e))
        compiled, _ = virtual_z_pass(raw)
        assert abs(exact_p0(raw) - exact_p0(compiled)) < 1e-12


# a layer of any density up to 15 g/cm^3, zero lengths and equal
# densities among the draws
LAYERS = st.builds(MatterLayer, st.sampled_from([0.0, 5.0]) | st.floats(0, 15),
                   st.just(0.5), st.sampled_from([0.0]) | st.floats(0, 2000))


@st.composite
def compiled_profiles(draw):
    """The earth's three layers, or 1 to 4 layers repeated up to a
    profile of at most 200 layers (a slab when there are two)."""
    if draw(st.booleans()):
        return earth_profile(draw(st.floats(0.3, 0.7)))
    layers = tuple(draw(st.lists(LAYERS, min_size=1, max_size=4)))
    return SlabProfile(layers, period_count=draw(
        st.integers(1, 200 // len(layers))))


DEEP = SlabProfile((MatterLayer(5.0, 0.5, 900.0),
                    MatterLayer(12.0, 0.5, 1200.0)), period_count=100)
ZERO_LENGTH = SlabProfile((MatterLayer(5.0, 0.5, 0.0),
                           MatterLayer(10.0, 0.5, 1000.0)), period_count=4)
EQUAL_DENSITIES = SlabProfile((MatterLayer(7.0, 0.5, 300.0),
                               MatterLayer(7.0, 0.5, 800.0)), period_count=3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(compiled_profiles(), st.sampled_from([None, TH23]),
       st.lists(st.floats(1.0, 25.0), min_size=1, max_size=4,
                unique=True).map(sorted))
@example(DEEP, TH23, [1.0, 7.5, 25.0])
@example(SlabProfile((MatterLayer(3.0, 0.5, 700.0),)), None, [2.0])
@example(ZERO_LENGTH, TH23, [3.0, 4.0])
@example(EQUAL_DENSITIES, None, [5.0])
def test_a_compiled_template_runs_one_pulse_per_layer_boundary(
        profile, th23, energies):
    """An n-layer slab or earth template compiles to n + 2 gates (X, the
    first RY, one pulse per layer boundary, the last pulse); every input
    gate is kept, folded or merged; and the compiled probabilities are
    the raw ones within 1e-12."""
    raw = build_slab_circuit(
        *slab_layer_params(P13, profile, np.array(energies), th23))
    compiled, report = virtual_z_pass(raw)
    layers = len(profile.layers) * profile.period_count
    assert len(compiled.gate_layout) == report.output_gate_count == layers + 2
    assert report.input_gate_count == (report.output_gate_count
                                       + report.folded_rz_count
                                       + report.merged_ry_count)
    assert np.max(np.abs(exact_p0(raw) - exact_p0(compiled))) <= 1e-12


def test_equal_densities_merge_into_zero_angle_pulses_that_stay():
    """Two layers of one density have one angle, so the rotations that
    meet at each boundary sum to exactly 0; the pulse is kept."""
    compiled, report = virtual_z_pass(build_slab_circuit(
        *slab_layer_params(P13, EQUAL_DENSITIES, 5.0, TH23)))
    assert len(compiled.gates) == 6 + 2 and report.merged_ry_count == 5
    assert [op.params[0] for op in compiled.ops[2:7]] == [0.0] * 5


def test_slab_circuit_matches_oracle_both_modes():
    profile = SlabProfile((MatterLayer(5.0, 0.5, 500.0),
                           MatterLayer(10.0, 0.5, 1000.0)), period_count=5)
    for th23 in (None, TH23):
        for e in np.linspace(1.0, 25.0, 20):
            params = slab_layer_params(P13, profile, e, th23)
            circ = build_slab_circuit(*params)
            oracle = prob_slab(profile, *params)
            assert abs(exact_p0(circ) - oracle) < 1e-12


# --- earth circuit ---------------------------------------------------------------

def test_earth_profile_layers():
    prof = earth_profile()
    assert [(l.rho, l.length_km) for l in prof.layers] == \
        [(5.0, 5000.0), (10.0, 2500.0), (5.0, 5000.0)]


def test_earth_compiled_cumulative_offsets():
    """Compiled earth circuit: X, RY, then three pulse gates, one per
    layer boundary and the last, whose offsets accumulate as phi1,
    phi1+phi2, 2*phi1+phi2; each boundary pulse is the sum of the two
    rotations that meet there."""
    e = 6.0
    circ, _ = virtual_z_pass(build_slab_circuit(
        *slab_layer_params(P13, earth_profile(), e, TH23)))
    (t1, t2, _), (f1, f2, _) = slab_layer_params(P13, earth_profile(), e, TH23)
    kinds = [op.kind for op in circ.ops]
    assert kinds == [GateKind.X, GateKind.RY] + [GateKind.U] * 3 + \
        [GateKind.MEASURE]
    assert circ.ops[1].params == (-2 * t1,)
    offsets = [op.params[2] for op in circ.ops[2:5]]
    expected = [f1, f1 + f2, 2 * f1 + f2]
    assert np.allclose(offsets, expected, rtol=0, atol=1e-12)
    thetas = [op.params[0] for op in circ.ops[2:5]]
    assert np.allclose(thetas, [2 * t1 - 2 * t2, 2 * t2 - 2 * t1, 2 * t1],
                       rtol=0, atol=1e-12)


def test_zero_phase_layers_give_identity_evolution():
    """Zero-length layers force phi_k = 0: no conversion at all."""
    p = OscParams(0.4, 2.5e-3)
    profile = SlabProfile((MatterLayer(5.0, 0.5, 0.0),
                           MatterLayer(10.0, 0.5, 0.0)))
    circ = build_slab_circuit(*slab_layer_params(p, profile, 3.0))
    assert exact_p0(circ) < 1e-24


def test_earth_circuit_matches_oracle_over_grid():
    prof = earth_profile()
    for e in np.linspace(1.0, 25.0, 40):
        params = slab_layer_params(P13, prof, e, TH23)
        circ, _ = virtual_z_pass(build_slab_circuit(*params))
        oracle = prob_slab(prof, *params)
        assert abs(exact_p0(circ) - oracle) < 1e-12


# --- dilation ---------------------------------------------------------------------

def test_dilation_no_mixing():
    u2q = dilation_from_angles(0.0, 0.0)
    assert np.allclose(u2q[:2, :2], np.eye(2), atol=0)
    assert np.allclose(u2q, np.block(
        [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]),
        atol=0)
    state = apply_matrix(init_state(2), u2q)
    assert probabilities(state, 1)[0] == 1.0


def test_dilation_q00_closed_form():
    for _ in range(300):
        theta, theta_m = RNG.uniform(0, math.pi / 2, 2)
        u2q = dilation_from_angles(theta, theta_m)
        expected = 0.5 * (1 + math.cos(2 * theta) * math.cos(2 * theta_m))
        assert abs(u2q[0, 0] - expected) < 1e-14


def test_dilation_block_structure():
    for _ in range(200):
        theta, theta_m = RNG.uniform(0, math.pi / 2, 2)
        u2q = dilation_from_angles(theta, theta_m)
        q = u2q[:2, :2]
        assert np.array_equal(u2q[2:, 2:], -q)
        off = u2q[:2, 2:]
        assert np.array_equal(off, u2q[2:, :2])
        assert np.max(np.abs(off - off.T)) == 0.0
        # S^2 + Q^2 = I
        assert np.max(np.abs(off @ off + q @ q - np.eye(2))) < 1e-14


def test_dilation_orthogonal_and_marginal():
    """Over the whole real line, not only [0, pi/2]: every pair of edge
    values (signed zeros, +-pi/2, +-1e9, ...) and random signed angles of
    magnitude 1e-6 to 1e9, so that |cos 2t cos 2tm| <= 1 needs no run-time
    guard."""
    wide = np.random.Generator(np.random.PCG64(2718))
    edges = [0.0, -0.0, math.pi / 4, math.pi / 2, -math.pi / 2, math.pi,
             -2.5, 1e9, -1e9, 123456789.0]
    pairs = ([RNG.uniform(0, math.pi / 2, 2) for _ in range(1000)]
             + list(itertools.product(edges, repeat=2))
             + list(wide.choice([-1.0, 1.0], (1000, 2))
                    * 10.0 ** wide.uniform(-6.0, 9.0, (1000, 2))))
    for theta, theta_m in pairs:
        u2q = dilation_from_angles(theta, theta_m)
        assert np.max(np.abs(u2q @ u2q.T - np.eye(4))) < 1e-12
        state = apply_matrix(init_state(2), u2q)
        p0, p1 = probabilities(state, 1)
        assert abs(p0 - u2q[0, 0]) < 1e-12
        assert abs(p1 - (1 - u2q[0, 0])) < 1e-12


def test_dilation_w_matrices_stochastic_symmetric():
    """W_vac, W_mat and their product Q are symmetric, doubly stochastic."""
    q = dilation_from_angles(0.37, 1.1)[:2, :2]
    w_vac, w_mat = _w_matrix(0.37), _w_matrix(1.1)
    assert np.array_equal(q, w_vac @ w_mat)
    for w in (w_vac, w_mat, q):
        assert np.max(np.abs(w - w.T)) == 0.0
        assert np.allclose(w.sum(axis=1), [1.0, 1.0], atol=1e-15)


def test_build_dilation_matches_oracle():
    p = OscParams(math.radians(33.5), 7.5e-5)
    layer = MatterLayer(150.0, 0.5, 0.0)
    for e in np.linspace(0.001, 0.05, 20):
        state = apply_matrix(init_state(2), build_dilation(p, layer, e))
        pee, _ = prob_msw_adiabatic(p, layer, e)
        assert abs(probabilities(state, 1)[0] - pee) < 1e-12


# --- two-CNOT ansatz circuit --------------------------------------------------------

def test_msw_circuit_zero_angles_is_identity():
    total = circuit_unitary(build_msw_circuit(np.zeros(6)))
    assert np.max(np.abs(total - np.eye(4))) < 1e-15


# reference angles (a1, b1, a2, b2, a3, b3) from an independent fit of
# one solar-grid dilation
REFERENCE_ANGLES = (0.89140528, 1.57079633, 1.42089489, -3.14159265,
                    -0.82929248, -1.57079633)


def test_reference_angles_build_real_orthogonal_unitary():
    total = circuit_unitary(build_msw_circuit(REFERENCE_ANGLES))
    assert np.max(np.abs(total.imag)) < 1e-12
    real = total.real
    assert np.max(np.abs(real @ real.T - np.eye(4))) < 1e-12


def test_msw_circuit_always_real():
    for _ in range(200):
        angles = RNG.uniform(-math.pi, math.pi, 6)
        total = circuit_unitary(build_msw_circuit(angles))
        assert np.max(np.abs(total.imag)) < 1e-12


def test_optimized_circuit_reproduces_marginal():
    """A high-fidelity fit reproduces p(0) = Q00 to well under 1e-3."""
    u2q = dilation_from_angles(math.radians(33.5), 1.2)
    res = optimize(FidelityProblem(target=u2q, restarts=64), seed=11)
    assert res.infidelity < 1e-7
    state, measured = run(build_msw_circuit(res.angles))
    p0 = probabilities(state, measured[0])[0]
    assert abs(p0 - u2q[0, 0]) < 1e-3


# theta and theta_m over [0, pi/2], both edges and the midpoint included
QUARTER_TURN = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
                         st.floats(0.0, math.pi / 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(QUARTER_TURN, QUARTER_TURN)
def test_synthesis_angles_realize_the_dilation(theta, theta_m):
    target = dilation_from_angles(theta, theta_m)
    angles = synthesis_angles(target)
    total = circuit_unitary(build_msw_circuit(angles))
    assert np.max(np.abs(total - target)) <= 1e-14
    lo, hi = optim.BOUNDS
    assert angles.shape == (6,)
    assert np.all((lo <= angles) & (angles <= hi))


def test_synthesis_angles_one_row_per_point():
    """Over angle arrays: one six-angle row per point, bit-equal to the
    point's own closed form, and a template whose point i is the single
    circuit of row i."""
    theta, theta_m = RNG.uniform(0, math.pi / 2, (2, 5))
    rows = synthesis_angles(dilation_from_angles(theta, theta_m))
    assert rows.shape == (5, 6)
    template = build_msw_circuit(rows)
    assert template.batch_shape == (5,)
    for i in range(5):
        one = synthesis_angles(dilation_from_angles(theta[i], theta_m[i]))
        assert np.array_equal(rows[i], one)
        assert template.point(i) == build_msw_circuit(one)


@pytest.mark.parametrize("angles", [np.full(6, 0.1 + 0.5j),
                                    np.full((2, 6), 0.1 + 0j),
                                    np.array(["0.1"] * 6)],
                         ids=["complex", "complex-stack", "str"])
def test_msw_circuit_refuses_non_real_angles_naming_the_dtype(angles):
    """The dtype is checked before any cast: complex angles are refused,
    not built from their real parts with a ComplexWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"real, got dtype {angles.dtype}"):
            build_msw_circuit(angles)


def test_msw_circuit_angle_validation():
    for shape in ((5,), (7,), (2, 3), (2, 2, 6)):
        with pytest.raises(ValueError, match="shape"):
            build_msw_circuit(np.zeros(shape))
    for bad in (4.0, -3.2, math.nan, math.inf):
        angles = np.zeros(6)
        angles[3] = bad
        with pytest.raises(ValueError, match="pi"):
            build_msw_circuit(angles)
        with pytest.raises(ValueError, match="pi"):
            build_msw_circuit(np.stack([np.zeros(6), angles]))
