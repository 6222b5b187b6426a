"""Fit the six RY angles (a1, b1, a2, b2, a3, b3) of the dilation circuit,
the vector ``builders.build_msw_circuit`` takes, to a target unitary.

Objective: overlap fidelity F = |Tr(U_T^H U_R)|^2 / 16, which is 1 iff
the realized circuit unitary matches the target up to a global phase.
U_R is the builders' ``msw_ansatz`` run by the simulator, and the
gradient comes from its six copies with one angle shifted by pi
(parameter shift: dRY(a)/da = RY(a + pi)/2), all seven run as one
template.  The local step is box-constrained L-BFGS-B with that
gradient; since it can fall into local minima, the
primary safeguard is a loop of random restarts drawn uniformly from
``INIT_RANGE`` by ``PCG64(SeedSequence(seed, spawn_key=(0x6F7074,)))``,
a seed domain apart from measurement sampling (``simulator.sample``
seeds ``PCG64(seed)``), so the two never share a stream.
A problem may carry a warm start: restart 1 then begins at those
angles instead of a random draw, and a start that already meets
``TOL_INFIDELITY`` is accepted as it is.  L-BFGS-B (and with it
``scipy.optimize``, imported on first use) runs only when the start
misses the tolerance or there is no start.  Scans start each point at
its closed-form angles (``builders.synthesis_angles``), which meet it;
the random restarts stay the safeguard and the whole method when no
start is given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # the package only, whose version bench/worker.py reads

from .builders import msw_ansatz
from .circuits import Circuit
from .simulator import circuit_unitary

_DIM = 4
BOUNDS = (-math.pi, math.pi)       # box on every angle
INIT_RANGE = (-1.0, 1.0)           # restart draws, uniform per angle
TOL_INFIDELITY = 1e-9              # a fit with 1 - F <= this has converged
_OPTIMIZER_DOMAIN = 0x6F7074       # 'opt', the restart stream's spawn key


@dataclass(frozen=True)
class FidelityProblem:
    """Target unitary, restart budget and an optional warm start.

    ``start`` holds six angles (a1, b1, a2, b2, a3, b3) inside
    ``BOUNDS`` at which restart 1 begins; without it restart 1 draws
    from the optimizer stream like every later restart.
    """

    target: np.ndarray
    restarts: int = 1000
    start: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.target, dtype=complex)
        object.__setattr__(self, "target", t)
        if t.shape != (_DIM, _DIM):
            raise ValueError(f"target must be 4x4, got {t.shape}")
        if np.max(np.abs(t.conj().T @ t - np.eye(_DIM))) > 1e-10:
            raise ValueError("target is not unitary within 1e-10")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.start is not None:
            s = np.array(self.start, dtype=float)
            object.__setattr__(self, "start", s)
            lo, hi = BOUNDS
            if s.shape != (6,) or not np.all((lo <= s) & (s <= hi)):
                raise ValueError(f"start must be six angles in {BOUNDS}")


@dataclass(frozen=True)
class OptimResult:
    angles: np.ndarray       # (a1, b1, a2, b2, a3, b3), clipped to BOUNDS
    infidelity: float
    restarts_used: int
    converged: bool


# row 0: the angles as given; row k + 1: angle k shifted by pi
_SHIFTS = np.vstack([np.zeros(6), math.pi * np.eye(6)])


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``; the first call imports scipy.optimize."""
    from scipy import optimize
    return optimize.minimize(fun, x0, **kwargs)


def infidelity_and_grad(u_t: np.ndarray, angles: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """1 - F and its analytic gradient in the six angles, which may be
    any reals: one run of the ansatz at ``angles`` and at each angle
    shifted by pi, t_k = Tr(U_T^H U_k), d(1 - F)/da_k = -Re(t_0* t_k+1)/16.
    """
    u = circuit_unitary(Circuit(2, msw_ansatz(angles + _SHIFTS)))
    t = np.einsum("ij,kij->k", np.conj(u_t), u)
    return (float(1.0 - abs(t[0]) ** 2 / _DIM ** 2),
            -(t[0].conjugate() * t[1:]).real / _DIM ** 2)


def optimize(problem: FidelityProblem, seed: int) -> OptimResult:
    """Best-of-restarts fit of the circuit angles to ``problem.target``.

    Restart 1 begins at ``problem.start`` when one is given; a start
    within ``TOL_INFIDELITY`` is returned as it is, without L-BFGS-B.
    Every other restart draws its initial point from the optimizer RNG
    stream when it begins, so the result is a pure function of
    (problem, seed) and a restart that never runs costs nothing.  Stops
    early once the best infidelity reaches ``TOL_INFIDELITY``; ties
    between restarts keep the earliest.  Non-convergence is reported
    through ``converged``, never raised.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(_OPTIMIZER_DOMAIN,))))
    box = [BOUNDS] * 6

    best_val, best_x = math.inf, None
    for used in range(1, problem.restarts + 1):
        if used == 1 and problem.start is not None:
            start = problem.start
            value, _ = infidelity_and_grad(problem.target, start)
            if value <= TOL_INFIDELITY:
                best_val, best_x = value, start
                break
        else:
            start = rng.uniform(*INIT_RANGE, size=6)
        if best_x is None:
            best_x = start
        res = minimize(lambda v: infidelity_and_grad(problem.target, v),
                       start, jac=True, method="L-BFGS-B", bounds=box)
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
        if best_val <= TOL_INFIDELITY:
            break

    best_val = max(best_val, 0.0)
    return OptimResult(angles=np.clip(best_x, *BOUNDS),
                       infidelity=best_val, restarts_used=used,
                       converged=best_val <= TOL_INFIDELITY)
