"""Periodic slab profile: parametric resonance of the oscillation curve.

Five periods of alternating densities (5 and 10 g/cm^3, 500 and
1000 km) propagate an initial nu_mu; the per-layer rotation angle is
the atmospheric effective angle asin(sin theta23 * sin 2theta13_m).
A periodic profile can build up a transition that no single layer
gives: one period's propagator is y0 I - i (y1 X + y2 Y + y3 Z), its
fifth power has the transition probability (y1^2 + y2^2) / |y|^2
sin^2(5 Phi) with Phi = atan2(|y|, y0), and where the period meets the
parametric-resonance condition y3 = 0 (Akhmedov, Nucl. Phys. B 538
(1999) 25) the amplitude factor is 1.  That closed form is the theory
curve.  Theory, exact circuit, and 4096-shot sampling are scanned over
1-25 GeV and written to CSV and SVG.
"""
import pathlib

import numpy as np

from nuqsim import ScanConfig, emit_csv, emit_plot, run_scan

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

config = ScanConfig.from_dict({
    "scenario": "slab",
    "energies": {"min": 1.0, "max": 25.0, "points": 120},
    "shots": 4096,
    "seed": 0,
    "compile": True,
    # profile and angles (these are also the defaults)
    "rho1": 5.0, "dx1_km": 500.0,
    "rho2": 10.0, "dx2_km": 1000.0,
    "periods": 5,
    "theta13_deg": 9.0, "theta23_deg": 45.0, "dm2_31": 2.5e-3,
})

result = run_scan(config)
emit_csv(result, str(out / "slab.csv"))
emit_plot(result, str(out / "slab.svg"))

worst = np.max(np.abs(result.p_exact - result.p_theory))
off = np.count_nonzero(
    np.abs(result.p_sampled - result.p_theory) > 3 * result.stderr)
print(f"{len(result.energy_gev)} points scanned")
print(f"max |circuit - theory| = {worst:.2e}")
print(f"{off} sampled points beyond 3 standard errors (statistical)")
print(f"wrote {out / 'slab.csv'} and {out / 'slab.svg'}")
