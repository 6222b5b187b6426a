"""Adiabatic solar survival probability on two qubits.

The phase-averaged propagation is the non-unitary map Q = W_vac W_mat,
so it cannot be a gate on one qubit.  Embedding Q in the orthogonal
4x4 dilation [[Q, S], [S, -Q]] with S = sqrt(I - Q^2) and tracing out
the ancilla leaves the encoded qubit with p(0) = Q00 = P(nu_e -> nu_e).
The dilation is then synthesized as two CNOTs plus six RY gates by
maximizing the overlap fidelity with random restarts, and the full
energy scan is run in both modes.
"""
import math
import pathlib

import numpy as np

from nuqsim import (FidelityProblem, MatterLayer, OscParams, ScanConfig,
                    build_dilation, build_msw_circuit, dump_circuit, emit_csv,
                    emit_plot, optimize, prob_msw_adiabatic, probabilities,
                    run, run_scan)

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

p = OscParams(math.radians(33.5), 7.5e-5)
core = MatterLayer(rho=150.0, ye=0.5, length_km=0.0)
energy = 0.01   # 10 MeV

ds = build_dilation(p, core, energy)
print(f"Q at {energy * 1e3:.0f} MeV (production at 150 g/cm^3):")
print(np.round(ds.q, 6))
print(f"orthogonality of the dilation: "
      f"max|U U^T - I| = {np.max(np.abs(ds.u2q @ ds.u2q.T - np.eye(4))):.2e}")

res = optimize(FidelityProblem(target=ds.u2q), seed=0)
print(f"\nsynthesis: infidelity {res.infidelity:.2e} "
      f"after {res.restarts_used} restart(s)")
print("synthesized circuit:")
print(dump_circuit(build_msw_circuit(res.angles)))

state, measured = run(build_msw_circuit(res.angles))
pee_circuit = probabilities(state, measured[0])[0]
pee_theory, _ = prob_msw_adiabatic(p, core, energy)
print(f"P(nu_e -> nu_e): circuit {pee_circuit:.9f}, "
      f"theory {pee_theory:.9f}")

# full scan, exact dilation mode and two-CNOT synthesis (closed-form angles,
# checked for the whole grid in one pass; the optimizer only for a miss)
for mode, points in (("exact", 60), ("optimized", 15)):
    config = ScanConfig.from_dict({
        "scenario": "msw", "synthesis": mode,
        "energies": {"min": 0.001, "max": 0.05, "points": points},
        "shots": 4096, "seed": 0,
    })
    result = run_scan(config)
    emit_csv(result, str(out / f"msw_{mode}.csv"))
    emit_plot(result, str(out / f"msw_{mode}.svg"))
    worst = max(np.max(np.abs(exact - theory))
                for _, theory, exact, _, _ in result.channels())
    print(f"{mode} mode: {points} energies, max |circuit - theory| = {worst:.2e}")
print(f"wrote CSV/SVG pairs under {out}")
