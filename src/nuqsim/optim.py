"""Fit the six RY angles of the dilation circuit to a target unitary.

Objective: overlap fidelity F = |Tr(U_T^H U_R)|^2 / 16, which is 1 iff
the realized circuit unitary matches the target up to a global phase.
The local step is box-constrained L-BFGS-B with an analytic gradient
(dRY(a)/da = RY(a + pi)/2); since it can fall into local minima, the
primary safeguard is a loop of random restarts drawn uniformly from
``INIT_RANGE`` on a seed domain separate from measurement sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .builders import SynthesisParams
from .circuits import cnot
from .rng import optimizer_generator
from .simulator import gate_matrix, ry_matrix

_DIM = 4
BOUNDS = (-math.pi, math.pi)       # box on every angle
INIT_RANGE = (-1.0, 1.0)           # restart draws, uniform per angle
TOL_INFIDELITY = 1e-9              # a fit with 1 - F <= this has converged


@dataclass(frozen=True)
class FidelityProblem:
    """Target unitary plus restart budget."""

    target: np.ndarray
    restarts: int = 1000

    def __post_init__(self):
        t = np.asarray(self.target, dtype=complex)
        object.__setattr__(self, "target", t)
        if t.shape != (_DIM, _DIM):
            raise ValueError(f"target must be 4x4, got {t.shape}")
        if np.max(np.abs(t.conj().T @ t - np.eye(_DIM))) > 1e-10:
            raise ValueError("target is not unitary within 1e-10")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OptimResult:
    params: SynthesisParams
    infidelity: float
    restarts_used: int
    converged: bool


_CX = gate_matrix(cnot(0, 1)).real


def vector_to_params(v: np.ndarray) -> SynthesisParams:
    return SynthesisParams(alpha=(float(v[0]), float(v[2]), float(v[4])),
                           beta=(float(v[1]), float(v[3]), float(v[5])))


def infidelity_and_grad(u_t: np.ndarray, angles: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """1 - F and its analytic gradient in the six angles."""
    r = [ry_matrix(a) for a in angles]
    d = [0.5 * ry_matrix(a + math.pi) for a in angles]
    k1, k2, k3 = np.kron(r[0], r[1]), np.kron(r[2], r[3]), np.kron(r[4], r[5])

    right1 = _CX @ k2 @ _CX @ k1          # U = k3 @ right1
    left2 = k3 @ _CX                      # U = left2 @ k2 @ (_CX @ k1)
    cxk1 = _CX @ k1
    u_r = k3 @ right1

    uth = np.asarray(u_t).conj().T
    t = np.trace(uth @ u_r)
    f = abs(t) ** 2 / _DIM ** 2

    dks = [
        left2 @ np.kron(d[2], r[3]) @ cxk1,    # d/da2
        left2 @ np.kron(r[2], d[3]) @ cxk1,    # d/db2
        np.kron(d[4], r[5]) @ right1,          # d/da3
        np.kron(r[4], d[5]) @ right1,          # d/db3
        k3 @ _CX @ k2 @ _CX @ np.kron(d[0], r[1]),   # d/da1
        k3 @ _CX @ k2 @ _CX @ np.kron(r[0], d[1]),   # d/db1
    ]
    order = [4, 5, 0, 1, 2, 3]   # back to (a1,b1,a2,b2,a3,b3)
    grad = np.empty(6)
    for i, j in enumerate(order):
        dt = np.trace(uth @ dks[j])
        grad[i] = -2.0 * (t.conjugate() * dt).real / _DIM ** 2
    return float(1.0 - f), grad


def optimize(problem: FidelityProblem, seed: int) -> OptimResult:
    """Best-of-restarts fit of the circuit angles to ``problem.target``.

    Initial points are drawn up front from the optimizer RNG stream, so
    the result is a pure function of (problem, seed).  Stops early once
    the best infidelity reaches ``TOL_INFIDELITY``; ties between
    restarts keep the earliest.  Non-convergence is reported through
    ``converged``, never raised.
    """
    rng = optimizer_generator(seed)
    starts = rng.uniform(*INIT_RANGE, size=(problem.restarts, 6))
    box = [BOUNDS] * 6

    best_val = math.inf
    best_x = starts[0]
    used = 0
    for start in starts:
        used += 1
        res = minimize(lambda v: infidelity_and_grad(problem.target, v),
                       start, jac=True, method="L-BFGS-B", bounds=box)
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
        if best_val <= TOL_INFIDELITY:
            break

    best_val = max(best_val, 0.0)
    return OptimResult(params=vector_to_params(np.clip(best_x, *BOUNDS)),
                       infidelity=best_val, restarts_used=used,
                       converged=best_val <= TOL_INFIDELITY)
