"""Circuit builders: physics scenarios to gate lists.

Slab and earth scenarios become single-qubit circuits (one X to prepare
nu_mu, then RY(-2t), RZ(phi), RY(2t) per layer, then a Z measurement;
the fraction of |0> outcomes is P(nu_mu -> nu_e)).  The adiabatic MSW
scenario embeds the non-unitary product Q = W_vac W_mat into a 4x4
orthogonal dilation acting on an ancilla + encoded qubit pair, either
applied directly or synthesized as the two-CNOT / six-RY gate list
``MSW_ANSATZ``, whose angles are one vector (a1, b1, a2, b2, a3, b3).

Circuits are built as a gate list and an angle matrix, one template per
profile: given the ``(layers, n)`` rows that ``slab_layer_params``
computes over an energy array of shape ``(n,)``, ``build_slab_circuit``
returns one circuit of ``(P, n)`` angles; given that array,
``build_dilation`` returns an ``(n, 4, 4)`` stack, from which
``synthesis_angles`` reads one angle row per point, ``(n, 6)``, for
``build_msw_circuit``.  Given the rows of one energy, one energy or a
``(6,)`` vector, they return a single circuit or a 4x4 matrix.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, GateKind
from .oscillation import (MatterLayer, OscParams, SlabProfile, _libm,
                          effective_params)

ANCILLA, ENCODED = 0, 1   # dilation circuit qubit roles (q_A, q_B)
_LAYER = ((GateKind.RY, (0,)), (GateKind.RZ, (0,)), (GateKind.RY, (0,)))
# the two-CNOT ansatz (RY x RY) CX (RY x RY) CX (RY x RY), no measure; angle
# rows (a1, b1, a2, b2, a3, b3), a_k on the ancilla: an (n, 6) array's columns
_RY_A, _RY_B = (GateKind.RY, (ANCILLA,)), (GateKind.RY, (ENCODED,))
MSW_ANSATZ = (_RY_A, _RY_B, (GateKind.CNOT, (ANCILLA, ENCODED))) * 2 + (
    _RY_A, _RY_B)


def build_slab_circuit(angles: np.ndarray, phases: np.ndarray) -> Circuit:
    """Single-qubit circuit propagating nu_mu through a slab profile,
    from its ``slab_layer_params`` rows ``(angles, phases)``: one circuit
    for rows of one energy, ``(layers,)``, or a template over the grid
    for ``(layers, n)`` rows.

    ``virtual_z_pass`` of the result folds every RZ(phi_k) into the
    phase offsets of the following rotations and merges the two
    rotations that meet at each layer boundary, leaving N+2 pulses for
    N layers.
    """
    rows = np.empty((3 * len(angles),) + angles.shape[1:])
    rows[0::3], rows[1::3], rows[2::3] = -2.0 * angles, phases, 2.0 * angles
    return Circuit(1, layout=((GateKind.X, (0,)),) + _LAYER * len(angles)
                   + ((GateKind.MEASURE, (0,)),), angles=rows)


def earth_profile(ye: float = 0.5) -> SlabProfile:
    """Mantle-core-mantle slab model of a diametral earth crossing."""
    return SlabProfile((
        MatterLayer(rho=5.0, ye=ye, length_km=5000.0),
        MatterLayer(rho=10.0, ye=ye, length_km=2500.0),
        MatterLayer(rho=5.0, ye=ye, length_km=5000.0),
    ))


def _w_matrix(theta) -> np.ndarray:
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    w = np.empty(np.shape(theta) + (2, 2))
    w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1] = c2, s2, s2, c2
    return w


def _asym_eigenvalues(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues on (1,-1)/sqrt2 of Q (cos2t*cos2tm) and of S."""
    lam = q[..., 0, 0] - q[..., 0, 1]
    return lam, np.sqrt(np.maximum(0.0, 1.0 - lam ** 2))


def dilation_from_angles(theta, theta_m) -> np.ndarray:
    """Orthogonal dilation [[Q, S], [S, -Q]] of the MSW map, indexed by
    the ancilla: 4x4, or ``(n, 4, 4)`` over an angle array.

    Q = W_vac @ W_mat, the block ``[..., :2, :2]``, is the product of
    the phase-averaged (doubly stochastic) mixing matrices.  It shares
    the eigenbasis (1,1)/sqrt2, (1,-1)/sqrt2 of every W matrix, with
    eigenvalues 1 and cos 2theta cos 2theta_m, so S = sqrt(I - Q^2) is
    evaluated in closed form on that basis.
    """
    q = _w_matrix(theta) @ _w_matrix(theta_m)
    s_val = _asym_eigenvalues(q)[1]
    s = 0.5 * s_val[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return np.concatenate([np.concatenate([q, s], axis=-1),
                           np.concatenate([s, -q], axis=-1)], axis=-2)


def synthesis_angles(u2q: np.ndarray) -> np.ndarray:
    """Exact two-CNOT angles of a dilation: ``(6,)`` for a 4x4 matrix,
    or ``(n, 6)`` with one row per point for an ``(n, 4, 4)`` stack.

    The dilation depends only on lam = cos 2theta cos 2theta_m, the
    eigenvalue of its Q block on (1,-1)/sqrt2, and with a = arccos lam
    the angles (a1, b1, a2, b2, a3, b3) = (-a/2, pi, -a, -pi, a/2, 0)
    realize it entry by entry (a real SO(4) gate needs at most two
    CNOTs: Vatan & Williams, quant-ph/0308006).  ``a`` is taken as
    atan2(sqrt(1 - lam^2), lam) of the dilation's own eigenvalues: near
    lam = +-1 an arccos of cos 2theta cos 2theta_m misses the S block by
    up to 4.5e-11.
    """
    lam, s_val = _asym_eigenvalues(u2q[..., :2, :2])
    a = _libm(math.atan2, s_val, lam)
    zero = 0.0 * a                     # a float, or zeros shaped like a
    return np.stack((-0.5 * a, zero + math.pi, -a, zero - math.pi,
                     0.5 * a, zero), axis=-1)


def build_dilation(p: OscParams, production_layer: MatterLayer,
                   energy_gev) -> np.ndarray:
    """``dilation_from_angles`` for a production layer at one energy or
    an energy array (theta_m from matter)."""
    ep = effective_params(p, production_layer, energy_gev)
    return dilation_from_angles(p.theta, ep.theta_m)


def build_msw_circuit(angles) -> Circuit:
    """The ``MSW_ANSATZ`` circuit, measure q_B, from the real angles (a1,
    b1, a2, b2, a3, b3) in [-pi, pi]: a ``(6,)`` vector, or an ``(n, 6)``
    array for a template; a non-real dtype is refused before any cast."""
    angles = np.asarray(angles)
    if angles.dtype.kind not in "iuf":
        raise ValueError(f"synthesis angles must be real, got dtype "
                         f"{angles.dtype}")
    angles = angles.astype(float, copy=False)
    if angles.shape[-1:] != (6,) or angles.ndim > 2:
        raise ValueError(f"angles of shape {angles.shape}, not (6,) or (n, 6)")
    if not np.all(np.abs(angles) <= math.pi):
        raise ValueError("synthesis angles must lie in [-pi, pi]")
    return Circuit(2, layout=MSW_ANSATZ + ((GateKind.MEASURE, (ENCODED,)),),
                   angles=angles.T)
