"""Gate-fidelity objective and restart-based box-constrained optimization."""
import math

import numpy as np
import pytest

from nuqsim import optim
from nuqsim.builders import (build_msw_circuit, dilation_from_angles,
                             synthesis_angles)
from nuqsim.optim import FidelityProblem, infidelity_and_grad, optimize
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
    return dilation_from_angles(theta, theta_m).u2q


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


# --- optimize -------------------------------------------------------------------

def test_identity_target_converges_tight():
    res = optimize(FidelityProblem(target=np.eye(4), restarts=100), seed=5)
    assert res.infidelity < 1e-9
    assert res.converged


def test_solar_dilation_target_converges():
    theta = math.radians(33.5)
    ds = dilation_from_angles(theta, 1.0)
    res = optimize(FidelityProblem(target=ds.u2q), seed=3)
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


def test_closed_form_start_converges_on_the_first_restart():
    for _ in range(20):
        theta, theta_m = RNG.uniform(0, math.pi / 2, 2)
        start = synthesis_angles(theta, theta_m)
        problem = FidelityProblem(dilation_from_angles(theta, theta_m).u2q,
                                  restarts=1, start=start)
        res = optimize(problem, seed=0)
        assert res.converged and res.restarts_used == 1
        assert res.infidelity <= optim.TOL_INFIDELITY


def test_start_within_tolerance_skips_lbfgsb(monkeypatch):
    """A start that meets the tolerance is the fit, bit for bit."""
    def refuse(*args, **kwargs):
        raise AssertionError("L-BFGS-B ran")
    monkeypatch.setattr(optim, "minimize", refuse)
    start = synthesis_angles(0.6, 0.2)
    problem = FidelityProblem(dilation_from_angles(0.6, 0.2).u2q,
                              restarts=5, start=start)
    res = optimize(problem, seed=4)
    assert np.array_equal(res.angles, start)
    assert res.restarts_used == 1 and res.converged
    assert res.infidelity == max(infidelity_and_grad(problem.target,
                                                     start)[0], 0.0)


def test_far_start_runs_lbfgsb(monkeypatch):
    calls, minimize = [], optim.minimize

    def counted(fun, x0, **kwargs):
        calls.append(1)
        return minimize(fun, x0, **kwargs)
    monkeypatch.setattr(optim, "minimize", counted)
    target = dilation_from_angles(0.6, 0.2).u2q
    start = 0.8 * synthesis_angles(0.6, 0.2)
    assert infidelity_and_grad(target, start)[0] > optim.TOL_INFIDELITY
    res = optimize(FidelityProblem(target, start=start), seed=4)
    assert res.converged and calls
    assert len(calls) == res.restarts_used


def test_no_start_runs_lbfgsb_from_the_first_draw(monkeypatch):
    x0s, minimize = [], optim.minimize

    def recorded(fun, x0, **kwargs):
        x0s.append(np.array(x0))
        return minimize(fun, x0, **kwargs)
    monkeypatch.setattr(optim, "minimize", recorded)
    res = optimize(FidelityProblem(dilation_from_angles(0.6, 0.2).u2q), seed=4)
    assert res.converged and len(x0s) == res.restarts_used
    assert np.array_equal(x0s[0], restart_stream(4).uniform(
        *optim.INIT_RANGE, size=6))


def test_start_takes_no_draw(monkeypatch):
    """Restart 1 begins at the start without a draw; restart k >= 2
    begins at draw k - 1 of the optimizer stream."""
    monkeypatch.setattr(optim, "TOL_INFIDELITY", -1.0)
    x0s, minimize = [], optim.minimize

    def recorded(fun, x0, **kwargs):
        x0s.append(np.array(x0))
        return minimize(fun, x0, **kwargs)
    start = synthesis_angles(0.6, 0.2)
    problem = FidelityProblem(dilation_from_angles(0.6, 0.2).u2q, restarts=3,
                              start=start)
    with monkeypatch.context() as patch:
        patch.setattr(optim, "minimize", recorded)
        res = optimize(problem, seed=9)
    assert res.restarts_used == 3
    rng = restart_stream(9)
    expected = [start] + [
        rng.uniform(*optim.INIT_RANGE, size=6) for _ in range(2)]
    assert len(x0s) == 3
    for got, want in zip(x0s, expected):
        assert np.array_equal(got, want)


def test_problem_validation():
    with pytest.raises(ValueError):
        FidelityProblem(target=np.ones((4, 4)))
    with pytest.raises(ValueError):
        FidelityProblem(target=np.eye(3))
    with pytest.raises(ValueError):
        FidelityProblem(target=np.eye(4), restarts=0)
    for start in (np.zeros(5), np.zeros((2, 6)), [0.0] * 5 + [math.nan],
                  [0.0] * 5 + [math.inf], [0.0] * 5 + [3.2]):
        with pytest.raises(ValueError, match="start"):
            FidelityProblem(target=np.eye(4), start=start)
