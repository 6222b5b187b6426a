"""Constant-density propagation: effective parameters and the resonance.

The matter term A = 2*sqrt(2) G_F Ye rho E / m_n shifts the effective
mixing angle; at beta = A/dm2 = cos(2 theta) the mixing in matter
becomes maximal (sin 2theta_m = 1) no matter how small the vacuum
angle is.  This script sweeps energy at a fixed density, prints the
effective parameters around the resonance, and checks the closed-form
probability against a three-gate circuit at one point.
"""
import math

import numpy as np

from nuqsim import (MatterLayer, OscParams, SlabProfile, build_slab_circuit,
                    effective_params, matter_potential, prob_constant_density,
                    probabilities, run, slab_layer_params)

theta13 = math.radians(9.0)
p = OscParams(theta13, 2.5e-3)
layer = MatterLayer(rho=5.0, ye=0.5, length_km=1000.0)

print("mantle-like layer: rho = 5 g/cm^3, Ye = 0.5, L = 1000 km")
print(f"vacuum angle 9 deg, dm2 = {p.dm2} eV^2\n")

print("E [GeV]   A [eV^2]     beta     theta_m [deg]  sin^2(2 theta_m)")
for e in np.linspace(1.0, 12.0, 12):
    a = matter_potential(layer, e)
    ep = effective_params(p, layer, e)
    print(f"{e:7.2f}  {a:.3e}  {ep.beta:7.4f}  {math.degrees(ep.theta_m):12.3f}"
          f"  {math.sin(2 * ep.theta_m) ** 2:16.6f}")

# resonance energy: beta = cos 2theta
from nuqsim import MATTER_FACTOR
e_res = p.dm2 * math.cos(2 * theta13) / (MATTER_FACTOR * layer.ye * layer.rho)
print(f"\nresonance at E = {e_res:.3f} GeV "
      f"(beta = cos 2theta = {math.cos(2 * theta13):.4f})")

# cross-check one point: closed form vs the X, RY, RZ, RY circuit
e = 5.0
closed = prob_constant_density(p, layer, e, layer.length_km)
circuit = build_slab_circuit(*slab_layer_params(p, SlabProfile((layer,)), e))
state, measured = run(circuit)
from_circuit = probabilities(state, measured[0])[0]
print(f"\nP(nu_mu -> nu_e) at {e} GeV: closed form {closed:.12f}, "
      f"circuit {from_circuit:.12f}, diff {abs(closed - from_circuit):.2e}")
