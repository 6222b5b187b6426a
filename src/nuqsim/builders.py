"""Circuit builders: physics scenarios to gate lists.

Slab and earth scenarios become single-qubit circuits (one X to prepare
nu_mu, then RY(-2t), RZ(phi), RY(2t) per layer, then a Z measurement;
the fraction of |0> outcomes is P(nu_mu -> nu_e)).  The adiabatic MSW
scenario embeds the non-unitary product Q = W_vac W_mat into a 4x4
orthogonal dilation acting on an ancilla + encoded qubit pair, either
applied directly or synthesized as a two-CNOT / six-RY circuit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, cnot, measure, ry, rz, x
from .compiler import virtual_z_pass
from .oscillation import (MatterLayer, NumericalDomainError, OscParams,
                          SlabProfile, effective_params, slab_layer_params)

ANCILLA, ENCODED = 0, 1   # dilation circuit qubit roles (q_A, q_B)


def build_slab_circuit(p: OscParams, profile: SlabProfile, energy_gev: float,
                       compile: bool = False,
                       theta23: float | None = None) -> Circuit:
    """Single-qubit circuit propagating nu_mu through a slab profile.

    With ``compile`` set, the virtual-Z pass folds every RZ(phi_k) into
    the phase offsets of the following rotations, leaving 2N+1 pulses
    for N layers.
    """
    ops = [x(0)]
    for theta_k, phi_k in slab_layer_params(p, profile, energy_gev, theta23):
        ops += [ry(-2.0 * theta_k), rz(phi_k), ry(2.0 * theta_k)]
    ops.append(measure(0))
    circuit = Circuit(1, tuple(ops))
    if compile:
        circuit, _ = virtual_z_pass(circuit)
    return circuit


def earth_profile(ye: float = 0.5) -> SlabProfile:
    """Mantle-core-mantle slab model of a diametral earth crossing."""
    return SlabProfile((
        MatterLayer(rho=5.0, ye=ye, length_km=5000.0),
        MatterLayer(rho=10.0, ye=ye, length_km=2500.0),
        MatterLayer(rho=5.0, ye=ye, length_km=5000.0),
    ))


@dataclass(frozen=True)
class DilationSet:
    """Matrices embedding the non-unitary MSW map for one scan point.

    w_vac and w_mat are the phase-averaged (doubly stochastic) mixing
    matrices, q = w_vac @ w_mat, and u2q is the orthogonal dilation
    [[Q, S], [S, -Q]] with S = sqrt(I - Q^2), indexed by the ancilla.
    """

    w_vac: np.ndarray
    w_mat: np.ndarray
    q: np.ndarray
    u2q: np.ndarray


def _w_matrix(theta: float) -> np.ndarray:
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    return np.array([[c2, s2], [s2, c2]])


def dilation_from_angles(theta: float, theta_m: float) -> DilationSet:
    """Dilation built directly from the vacuum and matter angles.

    Q shares the fixed eigenbasis (1,1)/sqrt2, (1,-1)/sqrt2 of every
    W matrix, with eigenvalues 1 and cos 2theta cos 2theta_m, so
    sqrt(I - Q^2) is evaluated in closed form on that basis.
    """
    w_vac = _w_matrix(theta)
    w_mat = _w_matrix(theta_m)
    q = w_vac @ w_mat
    lam_sym = q[0, 0] + q[0, 1]       # eigenvalue on (1,1):  always 1
    lam_asym = q[0, 0] - q[0, 1]      # eigenvalue on (1,-1): cos2t*cos2tm
    for lam in (lam_sym, lam_asym):
        if abs(lam) > 1.0 + 1e-12:
            raise NumericalDomainError(
                f"Q eigenvalue {lam} exceeds 1; dilation undefined")
    s_val = math.sqrt(max(0.0, 1.0 - lam_asym ** 2))
    s = 0.5 * s_val * np.array([[1.0, -1.0], [-1.0, 1.0]])
    u2q = np.block([[q, s], [s, -q]])
    return DilationSet(w_vac=w_vac, w_mat=w_mat, q=q, u2q=u2q)


def build_dilation(p: OscParams, production_layer: MatterLayer,
                   energy_gev: float) -> DilationSet:
    """Dilation for a production layer and energy (theta_m from matter)."""
    ep = effective_params(p, production_layer, energy_gev)
    return dilation_from_angles(p.theta, ep.theta_m)


@dataclass(frozen=True)
class SynthesisParams:
    """Six RY angles (three per qubit) of the two-CNOT dilation circuit."""

    alpha: tuple[float, float, float]   # ancilla rotations
    beta: tuple[float, float, float]    # encoded-qubit rotations

    def __post_init__(self):
        for name, angles in (("alpha", self.alpha), ("beta", self.beta)):
            if len(angles) != 3:
                raise ValueError(f"{name} needs exactly 3 angles")
            for a in angles:
                if not abs(a) <= math.pi:
                    raise ValueError(f"{name} angle {a} outside [-pi, pi]")


def build_msw_circuit(sp: SynthesisParams) -> Circuit:
    """Two-qubit circuit (RY x RY) CX (RY x RY) CX (RY x RY), measure q_B."""
    a1, a2, a3 = sp.alpha
    b1, b2, b3 = sp.beta
    ops = (
        ry(a1, ANCILLA), ry(b1, ENCODED), cnot(ANCILLA, ENCODED),
        ry(a2, ANCILLA), ry(b2, ENCODED), cnot(ANCILLA, ENCODED),
        ry(a3, ANCILLA), ry(b3, ENCODED), measure(ENCODED),
    )
    return Circuit(2, ops)
