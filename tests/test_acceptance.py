"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failed assertion shows as the test's FAILED line).
"""
import math
import time

import numpy as np

from nuqsim.builders import (build_msw_circuit, build_slab_circuit,
                             dilation_from_angles, earth_profile)
from nuqsim.circuits import Circuit, GateKind
from nuqsim.compiler import is_sx, lower_to_native, pulse_count, virtual_z_pass
from nuqsim.oscillation import (MatterLayer, OscParams, SlabProfile,
                                effective_params_from_beta,
                                msw_survival_from_angles, prob_msw_adiabatic,
                                prob_slab, slab_layer_params)
from nuqsim.optim import FidelityProblem, optimize
from nuqsim.scan import ScanConfig, emit_csv, run_scan
from nuqsim.simulator import (apply_matrix, circuit_unitary, init_state,
                              probabilities, run, sample,
                              unitaries_equal_up_to_phase)

RNG = np.random.Generator(np.random.PCG64(60451))


def _report(n: int, name: str, elapsed: float,
            budget: float | None = None) -> None:
    limit = f" (budget {budget}s)" if budget is not None else ""
    print(f"criterion {n} ({name}): PASS in {elapsed:.2f}s{limit}")


def _exact_p0(circuit):
    state, measured = run(circuit)
    return probabilities(state, measured[0])[0]


def test_criterion_1_slab_oracle_equivalence():
    """500 random profiles: circuit probability == slab oracle, 1e-12."""
    budget = 5.0
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(RNG.integers(1, 21))
        theta = float(RNG.uniform(0.0, math.pi / 2))
        p = OscParams(theta, 2.5e-3)
        layers = tuple(MatterLayer(float(RNG.uniform(0, 15)), 0.5,
                                   float(RNG.uniform(0, 5000)))
                       for _ in range(n))
        profile = SlabProfile(layers)
        energy = float(RNG.uniform(0.5, 30.0))
        params = slab_layer_params(p, profile, energy)
        circuit = build_slab_circuit(*params)
        assert abs(_exact_p0(circuit) - prob_slab(profile, *params)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(1, "slab oracle equivalence", elapsed, budget)


def test_criterion_2_virtual_z_soundness_and_pulse_count():
    """Compiled == uncompiled outcomes (1e-12); pulses N+2 vs 3N+1."""
    budget = 1.0
    t0 = time.perf_counter()
    for n in (1, 2, 3, 5, 8, 10, 16, 20):
        p = OscParams(float(RNG.uniform(0.05, math.pi / 2 - 0.05)), 2.5e-3)
        layers = tuple(MatterLayer(float(RNG.uniform(0, 15)), 0.5,
                                   float(RNG.uniform(100, 3000)))
                       for _ in range(n))
        profile = SlabProfile(layers)
        energy = float(RNG.uniform(1.0, 25.0))
        raw = build_slab_circuit(*slab_layer_params(p, profile, energy))
        compiled, report = virtual_z_pass(raw)
        assert pulse_count(raw) == 3 * n + 1
        assert pulse_count(compiled) == n + 2
        assert report.physical_pulse_count == n + 2
        assert abs(_exact_p0(raw) - _exact_p0(compiled)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(2, "virtual-Z soundness and pulse count", elapsed, budget)


def test_criterion_3_earth_curve_and_sampling():
    """Earth curve == oracle at 200 points (1e-12); samples within 5 sigma
    of theory for >= 99% of (point, seed) pairs over 20 seeds."""
    budget = 10.0
    t0 = time.perf_counter()
    p = OscParams(math.radians(9.0), 2.5e-3)
    th23 = math.radians(45.0)
    profile = earth_profile()
    energies = np.linspace(1.0, 25.0, 200)
    shots = 4096

    points = []
    for e in energies:
        params = slab_layer_params(p, profile, e, th23)
        circuit, _ = virtual_z_pass(build_slab_circuit(*params))
        state, measured = run(circuit)
        p_exact, p1 = probabilities(state, measured[0])
        theory = prob_slab(profile, *params)
        assert abs(p_exact - theory) <= 1e-12
        points.append((p1, theory))

    inside = 0
    total = 0
    for s in range(20):
        for i, (p1, theory) in enumerate(points):
            ones = sample(p1, shots, s ^ i)
            p_hat = (shots - ones) / shots
            sigma = math.sqrt(theory * (1.0 - theory) / shots)
            total += 1
            if abs(p_hat - theory) <= 5.0 * sigma:
                inside += 1
    assert inside / total >= 0.99
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(3, "earth curve and shot statistics", elapsed, budget)


def test_criterion_4_resonance_identity():
    """At beta = cos 2theta: sin 2theta_m = 1 and dm2_m = dm2 sin 2theta,
    both within 1e-14."""
    t0 = time.perf_counter()
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 500):
        p = OscParams(float(theta), 2.5e-3)
        ep = effective_params_from_beta(p, math.cos(2 * theta))
        assert abs(math.sin(2 * ep.theta_m) - 1.0) <= 1e-14
        assert abs(ep.dm2_m - p.dm2 * math.sin(2 * theta)) <= 1e-14
    elapsed = time.perf_counter() - t0
    _report(4, "resonance identity", elapsed)


def test_criterion_5_msw_dilation():
    """1000 random (theta, theta_m): u2q orthogonal (1e-12), Q00 closed
    form (1e-14), executed marginal == adiabatic oracle (1e-12)."""
    budget = 2.0
    t0 = time.perf_counter()
    eye4 = np.eye(4)
    for _ in range(1000):
        theta, theta_m = (float(a) for a in RNG.uniform(0, math.pi / 2, 2))
        u2q = dilation_from_angles(theta, theta_m)
        assert np.max(np.abs(u2q @ u2q.T - eye4)) <= 1e-12
        q00_expected = 0.5 * (1 + math.cos(2 * theta) * math.cos(2 * theta_m))
        assert abs(u2q[0, 0] - q00_expected) <= 1e-14
        state = apply_matrix(init_state(2), u2q)
        p0 = probabilities(state, 1)[0]
        assert abs(p0 - msw_survival_from_angles(theta, theta_m)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(5, "MSW dilation", elapsed, budget)


def test_criterion_6_optimizer_bound():
    """25 solar-grid dilation targets: infidelity < 1e-7 within <= 1000
    restarts; synthesized circuit P_ee within 1e-3 of the oracle."""
    budget = 60.0
    t0 = time.perf_counter()
    p = OscParams(math.radians(33.5), 7.5e-5)
    layer = MatterLayer(150.0, 0.5, 0.0)
    for i, e in enumerate(np.linspace(0.001, 0.05, 25)):
        from nuqsim.builders import build_dilation
        res = optimize(FidelityProblem(target=build_dilation(p, layer, float(e)),
                                       restarts=1000), seed=i)
        assert res.infidelity < 1e-7
        assert res.restarts_used <= 1000
        state, measured = run(build_msw_circuit(res.angles))
        pee_circuit = probabilities(state, measured[0])[0]
        pee_oracle, _ = prob_msw_adiabatic(p, layer, float(e))
        assert abs(pee_circuit - pee_oracle) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(6, "optimizer infidelity bound", elapsed, budget)


def test_criterion_7_native_lowering():
    """1000 random 1q circuits lower to {RZ, sqrt(X), X}, unitary equal
    up to global phase within 1e-12."""
    budget = 2.0
    t0 = time.perf_counter()
    from nuqsim.circuits import ry, rz, u, x
    native = {GateKind.RZ, GateKind.X, GateKind.MEASURE}
    for _ in range(1000):
        ops = []
        for _ in range(int(RNG.integers(1, 9))):
            a, b, c = RNG.uniform(-2 * math.pi, 2 * math.pi, 3)
            pick = int(RNG.integers(4))
            ops.append((x(), ry(a), rz(a), u(a, b, c))[pick])
        circuit = Circuit(1, tuple(ops))
        lowered = lower_to_native(circuit)
        for op in lowered.ops:
            assert op.kind in native or is_sx(op)
        assert unitaries_equal_up_to_phase(circuit_unitary(lowered),
                                           circuit_unitary(circuit), 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(7, "native lowering", elapsed, budget)


def test_criterion_8_csv_determinism(tmp_path):
    """Identical ScanConfig + seed twice: byte-identical CSV.  The bytes
    hold per numpy build and SIMD dispatch level (README, Determinism):
    ``p_exact`` moves with the dispatch level, ``p_theory`` no longer
    does.  Both runs here share one process, and so one of each."""
    t0 = time.perf_counter()
    for scenario, energies in (("slab", "1:25:40"), ("earth", "1:25:40"),
                               ("msw", "0.001:0.05:15")):
        cfg = ScanConfig.from_dict({"scenario": scenario, "seed": 12,
                                    "shots": 4096, "energies": energies})
        a, b = tmp_path / f"{scenario}_a.csv", tmp_path / f"{scenario}_b.csv"
        emit_csv(run_scan(cfg), str(a))
        emit_csv(run_scan(cfg), str(b))
        assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    _report(8, "CSV determinism", elapsed)
