"""Gate-fidelity objective and restart-based box-constrained optimization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuqsim import optim
from nuqsim.builders import (build_msw_circuit, dilation_from_angles,
                             synthesis_angles)
from nuqsim.optim import (FidelityProblem, infidelity_and_grad,
                          meets_tolerance, optimize)
from nuqsim.simulator import circuit_unitary

RNG = np.random.Generator(np.random.PCG64(777))


def restart_stream(seed):
    """The optimizer's restart draws: a SeedSequence spawn of the seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(0x6F7074,))))


def random_params_vector():
    return RNG.uniform(-math.pi, math.pi, 6)


def random_orthogonal_target():
    theta, theta_m = RNG.uniform(0, math.pi / 2, 2)
    return dilation_from_angles(theta, theta_m)


def random_unitary_target():
    z = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def executed_unitary(v):
    return circuit_unitary(build_msw_circuit(v))


def brute_infidelity(target, v):
    return 1.0 - abs(np.trace(target.conj().T @ executed_unitary(v))) ** 2 / 16


# --- objective -----------------------------------------------------------------

def test_ansatz_matches_circuit_execution():
    """The objective's ansatz is the circuit the statevector backend runs."""
    for _ in range(200):
        v = random_params_vector()
        target = random_orthogonal_target()
        value, _ = infidelity_and_grad(target, v)
        assert abs(value - brute_infidelity(target, v)) < 1e-14


def test_fidelity_one_for_realized_target():
    for _ in range(50):
        v = random_params_vector()
        value, _ = infidelity_and_grad(executed_unitary(v), v)
        assert abs(value) < 1e-12


def test_fidelity_zero_for_trace_orthogonal():
    # RY(pi) x I is traceless against the identity target
    value, _ = infidelity_and_grad(np.eye(4), np.array([math.pi, 0, 0, 0, 0, 0]))
    assert abs(value - 1.0) < 1e-15


def test_fidelity_matches_brute_force_trace():
    """Complex targets: the objective conjugates the target correctly."""
    for _ in range(200):
        v = random_params_vector()
        target = random_unitary_target()
        value, _ = infidelity_and_grad(target, v)
        assert abs(value - brute_infidelity(target, v)) < 1e-14


def test_fidelity_global_phase_insensitive():
    for _ in range(50):
        v = random_params_vector()
        target = random_orthogonal_target()
        gamma = RNG.uniform(0, 2 * math.pi)
        a, _ = infidelity_and_grad(target, v)
        b, _ = infidelity_and_grad(np.exp(1j * gamma) * target, v)
        assert abs(a - b) < 1e-14


# --- gradient -------------------------------------------------------------------

def test_gradient_matches_central_differences():
    """Analytic gradient of 1-F vs central differences, step 1e-6."""
    step = 1e-6
    for _ in range(100):
        target = random_orthogonal_target()
        v = random_params_vector()
        _, grad = infidelity_and_grad(target, v)
        fd = np.empty(6)
        for i in range(6):
            up, dn = v.copy(), v.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (infidelity_and_grad(target, up)[0]
                     - infidelity_and_grad(target, dn)[0]) / (2 * step)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)


def test_objective_is_defined_outside_the_box():
    """RY(a + 2 pi) = -RY(a) only flips the global sign, so shifting one
    angle by +-2 pi leaves the value and the gradient as they were; an
    angle past pi is evaluated, not rejected as the builder rejects it."""
    rng = np.random.Generator(np.random.PCG64(2718))
    for _ in range(50):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        target = np.linalg.qr(z)[0]
        v = rng.uniform(-math.pi, math.pi, 6)
        value, grad = infidelity_and_grad(target, v)
        for i in range(6):
            for shift in (2 * math.pi, -2 * math.pi):
                w = v.copy()
                w[i] += shift
                assert abs(w[i]) > math.pi
                w_value, w_grad = infidelity_and_grad(target, w)
                assert abs(w_value - value) <= 1e-14
                assert np.max(np.abs(w_grad - grad)) <= 1e-14


# --- optimize -------------------------------------------------------------------

def test_identity_target_converges_tight():
    res = optimize(FidelityProblem(target=np.eye(4), restarts=100), seed=5)
    assert res.infidelity < 1e-9
    assert res.converged


def test_solar_dilation_target_converges():
    theta = math.radians(33.5)
    res = optimize(FidelityProblem(target=dilation_from_angles(theta, 1.0)),
                   seed=3)
    assert res.infidelity < 1e-7
    assert res.restarts_used <= 1000


def test_random_dilation_sweep_converges():
    restarts_needed = []
    for k in range(20):
        target = random_orthogonal_target()
        res = optimize(FidelityProblem(target=target), seed=k)
        assert res.infidelity < 1e-7
        restarts_needed.append(res.restarts_used)
    # the restart loop is the safeguard; typical targets need only a few
    assert max(restarts_needed) <= 1000
    print(f"restarts to converge: median {np.median(restarts_needed):g}, "
          f"max {max(restarts_needed)}")


def test_optimize_deterministic():
    target = random_orthogonal_target()
    problem = FidelityProblem(target=target, restarts=16)
    a = optimize(problem, seed=123)
    b = optimize(problem, seed=123)
    assert np.array_equal(a.angles, b.angles)
    assert a.infidelity == b.infidelity
    assert a.restarts_used == b.restarts_used
    c = optimize(problem, seed=124)
    # different seed, different restart draws
    assert not np.array_equal(c.angles, a.angles)


def test_result_params_within_bounds():
    for k in range(10):
        res = optimize(FidelityProblem(target=random_orthogonal_target(),
                                       restarts=8), seed=k)
        assert res.angles.shape == (6,)
        assert np.all((-math.pi <= res.angles) & (res.angles <= math.pi))


def test_nonconvergence_reported_not_raised(monkeypatch):
    monkeypatch.setattr(optim, "TOL_INFIDELITY", -1.0)
    target = random_orthogonal_target()
    res = optimize(FidelityProblem(target=target, restarts=2), seed=9)
    assert res.infidelity >= 0.0
    assert res.restarts_used == 2
    assert res.converged is False


def test_first_restart_runs_lbfgsb_from_the_first_draw(monkeypatch):
    """Every restart, the first included, begins at its draw from the
    optimizer stream."""
    x0s, minimize = [], optim.minimize

    def recorded(fun, x0, **kwargs):
        x0s.append(np.array(x0))
        return minimize(fun, x0, **kwargs)
    monkeypatch.setattr(optim, "minimize", recorded)
    res = optimize(FidelityProblem(dilation_from_angles(0.6, 0.2)), seed=4)
    assert res.converged and len(x0s) == res.restarts_used
    assert np.array_equal(x0s[0], restart_stream(4).uniform(
        *optim.INIT_RANGE, size=6))


def test_problem_validation():
    with pytest.raises(ValueError):
        FidelityProblem(target=np.ones((4, 4)))
    with pytest.raises(ValueError):
        FidelityProblem(target=np.eye(3))
    with pytest.raises(ValueError):
        FidelityProblem(target=np.eye(4), restarts=0)
    for bad in (math.nan, math.inf):
        target = np.eye(4)
        target[2, 3] = bad
        with pytest.raises(ValueError, match="unitary"):
            FidelityProblem(target=target)


# --- batched acceptance ---------------------------------------------------------

QUARTER_TURN = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
                         st.floats(0.0, math.pi / 2))
# per point: vacuum angle, matter angle, offset added to the closed-form a1
GRID_POINT = st.tuples(QUARTER_TURN, QUARTER_TURN,
                       st.one_of(st.just(0.0), st.floats(-1e-4, 1e-4),
                                 st.floats(-1.0, 1.0)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(GRID_POINT, min_size=1, max_size=8))
def test_meets_tolerance_agrees_with_the_objective_row_by_row(points):
    theta, theta_m, offset = (np.array(col) for col in zip(*points))
    targets = dilation_from_angles(theta, theta_m)
    angles = synthesis_angles(targets)
    angles[:, 0] += offset
    infidelity = meets_tolerance(targets, angles)
    assert infidelity.shape == (len(points),)
    for i, row in enumerate(infidelity.tolist()):
        value, _ = infidelity_and_grad(targets[i], angles[i])
        assert abs(row - value) <= 1e-14
        assert (row <= optim.TOL_INFIDELITY) == (value <= optim.TOL_INFIDELITY)


# the edges of [0, pi/2] where the closed form's arccos argument is +-1 or 0
EDGES = [0.0, 5e-324, math.pi / 4 - 1e-12, math.pi / 4, math.pi / 4 + 1e-12,
         math.nextafter(math.pi / 2, 0.0), math.pi / 2]


def closed_form_infidelity(theta, theta_m) -> np.ndarray:
    u2q = dilation_from_angles(theta, theta_m)
    return meets_tolerance(u2q, synthesis_angles(u2q))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGES),
                                      st.floats(0.0, math.pi / 2))] * 2),
                min_size=1, max_size=16))
def test_closed_form_angles_realize_every_dilation(points):
    """Over the whole valid domain [0, pi/2]^2 the closed-form angles give
    1 - F <= 1e-13, four decades inside TOL_INFIDELITY, so a scan's
    tolerance check has no valid input to miss."""
    theta, theta_m = (np.array(col) for col in zip(*points))
    assert np.all(closed_form_infidelity(theta, theta_m) <= 1e-13)


def test_closed_form_angles_realize_the_dilations_of_the_edges():
    theta, theta_m = (a.ravel() for a in np.meshgrid(EDGES, EDGES))
    assert np.all(closed_form_infidelity(theta, theta_m) <= 1e-13)


def test_meets_tolerance_validates_the_stack():
    """The stack passes the check FidelityProblem makes of one target."""
    good = dilation_from_angles(np.array([0.6, 0.3]), 0.2)
    angles = synthesis_angles(good)
    for bad in (math.nan, math.inf, 2.0):
        targets = good.copy()
        targets[1, 0, 0] = bad
        with pytest.raises(ValueError, match="unitary"):
            meets_tolerance(targets, angles)
    for targets in (good[0], good[:, :3, :3], good[None]):
        with pytest.raises(ValueError, match="target"):
            meets_tolerance(targets, angles)
    for rows in (angles[:1], angles[:, :5], angles[0]):
        with pytest.raises(ValueError, match="angles"):
            meets_tolerance(good, rows)
