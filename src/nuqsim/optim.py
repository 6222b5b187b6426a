"""Fit the six RY angles (a1, b1, a2, b2, a3, b3) of the dilation circuit,
the vector ``builders.build_msw_circuit`` takes, to a target unitary.

Objective: overlap fidelity F = |Tr(U_T^H U_R)|^2 / 16, which is 1 iff
the realized circuit unitary matches the target up to a global phase.
U_R is the builders' gate list ``MSW_ANSATZ`` run by the simulator, and
the gradient comes from its six copies with one angle shifted by pi
(parameter shift: dRY(a)/da = RY(a + pi)/2), all seven run as one
template.  ``meets_tolerance`` takes the same trace of a stack of
targets against a stack of unitaries, each row's 1 - F; with it a scan
checks the unitary of the template it builds from the closed-form
angles (``builders.synthesis_angles``) of its whole grid.  ``optimize``,
a library fit no scan calls, runs box-constrained L-BFGS-B with that
gradient (``scipy.optimize``, imported on first use), restarted from
random draws as it can fall into local minima.  The draws are uniform
on ``INIT_RANGE``, from
``PCG64(SeedSequence(seed, spawn_key=(0x6F7074,)))``, a seed domain apart
from measurement sampling (``simulator.sample`` seeds ``PCG64(seed)``),
so they never share a stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy  # unused: loaded for bench/worker.py's version probe (ROADMAP 1)

from .builders import MSW_ANSATZ
from .circuits import Circuit
from .simulator import circuit_unitary

_DIM = 4
BOUNDS = (-math.pi, math.pi)       # box on every angle
INIT_RANGE = (-1.0, 1.0)           # restart draws, uniform per angle
TOL_INFIDELITY = 1e-9              # a fit with 1 - F <= this has converged
_OPTIMIZER_DOMAIN = 0x6F7074       # 'opt', the restart stream's spawn key


def _unitary_targets(targets, stack: bool = False) -> np.ndarray:
    """``targets`` as a complex 4x4 matrix, or with ``stack`` an
    ``(n, 4, 4)`` stack, each unitary within 1e-10 (a NaN or inf entry
    fails); anything else raises ValueError."""
    t = np.asarray(targets, dtype=complex)
    if t.ndim != 2 + stack or t.shape[-2:] != (_DIM, _DIM):
        raise ValueError(f"target must be {'(n, 4, 4)' if stack else '4x4'}"
                         f", got {t.shape}")
    if not (np.isfinite(t).all() and np.all(
            np.abs(np.conj(np.swapaxes(t, -1, -2)) @ t - np.eye(_DIM))
            <= 1e-10)):
        raise ValueError("target is not unitary within 1e-10")
    return t


@dataclass(frozen=True)
class FidelityProblem:
    """Target unitary and restart budget."""

    target: np.ndarray
    restarts: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "target", _unitary_targets(self.target))
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


class OptimResult(NamedTuple):
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


def _traces(u_t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tr(U_T^H U) of each pair of the broadcast 4x4 stacks."""
    return np.einsum("...ij,...ij->...", np.conj(u_t), u)


def infidelity_and_grad(u_t: np.ndarray, angles: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """1 - F and its analytic gradient in the six angles, which may be
    any reals: one run of the ansatz at ``angles`` and at each angle
    shifted by pi, t_k = Tr(U_T^H U_k), d(1 - F)/da_k = -Re(t_0* t_k+1)/16.
    """
    t = _traces(u_t, circuit_unitary(
        Circuit(2, layout=MSW_ANSATZ, angles=(angles + _SHIFTS).T)))
    return (float(1.0 - abs(t[0]) ** 2 / _DIM ** 2),
            -(t[0].conjugate() * t[1:]).real / _DIM ** 2)


def meets_tolerance(targets, unitaries) -> np.ndarray:
    """1 - F of each unitary of the ``(n, 4, 4)`` stack ``unitaries``
    against its target of the same-shaped stack ``targets``, ``(n,)``: a
    row meets the tolerance where it is at most ``TOL_INFIDELITY``."""
    targets = _unitary_targets(targets, stack=True)
    if np.shape(unitaries) != targets.shape:
        raise ValueError(f"unitaries of shape {np.shape(unitaries)}, not "
                         f"{targets.shape}")
    return 1.0 - np.abs(_traces(targets, unitaries)) ** 2 / _DIM ** 2


def optimize(problem: FidelityProblem, seed: int) -> OptimResult:
    """Best-of-restarts fit of the circuit angles to ``problem.target``.

    Each restart draws its initial point from the optimizer RNG stream
    when it begins, so the result is a pure function of (problem, seed)
    and a restart that never runs costs nothing.  Stops early once the
    best infidelity reaches ``TOL_INFIDELITY``; ties between restarts
    keep the earliest.  Non-convergence is reported through
    ``converged``, never raised.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(_OPTIMIZER_DOMAIN,))))
    box = [BOUNDS] * 6

    best_val, best_x = math.inf, None
    for used in range(1, problem.restarts + 1):
        start = rng.uniform(*INIT_RANGE, size=6)
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
