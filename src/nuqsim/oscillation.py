"""Two-flavor neutrino oscillations in matter: analytic oracles.

Units: energies in GeV, path lengths in km, matter densities in g/cm^3,
mass splittings in eV^2, angles in radians.  Flavor basis order is
(nu_e, nu_mu); a flavor rotation by angle t is the real matrix
[[cos t, -sin t], [sin t, cos t]] (the RY(2t) form, matching the gate
encoding used by the circuit builders so oracle and circuit amplitudes
agree entry by entry).

Three ground-truth probability oracles are provided:

- ``prob_constant_density``: closed form sin^2(2 theta_m) sin^2(phi/2)
  for a single uniform layer;
- ``prob_slab``: for a profile of N equal periods, from the layer angles
  and phases of ``slab_layer_params``, which a scan computes once for
  its circuit and its oracle, the closed form of parametric resonance
  (Akhmedov, Nucl. Phys. B 538 (1999) 25): the N-th power of one
  period's product of closed Pauli-form layer propagators;
- ``prob_msw_adiabatic``: phase-averaged survival probability
  (1 + cos 2theta cos 2theta_m)/2 for adiabatic propagation from a
  dense production point to vacuum.

Every energy argument may be one energy or an array of them: the
oracles then evaluate the whole grid at once, with their own propagator
formulas.  They import no other nuqsim module, so the circuit path and
its oracle stay independent code.

The two unit-conversion factors are module floats derived once from
pinned CODATA 2022 values (Fermi coupling, neutron mass, hbar, c, e;
the values scipy.constants 1.17.1 ships); tests pin both factors against
scipy.constants and against their literal values:

- matter term  A = MATTER_FACTOR * Ye * rho * E,
  MATTER_FACTOR = 2 sqrt(2) G_F (hbar c)^3 / m_n ~ 1.5134e-4 eV^2 per
  (g/cm^3 * GeV);
- oscillation phase  phi = PHASE_FACTOR * dm2 * dx / E,
  PHASE_FACTOR = 1 km / (2 hbar c) ~ 2.5339 rad GeV / (eV^2 km).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _libm(f, *args):
    """Scalar libm function ``f`` applied elementwise (a float for float
    arguments).

    numpy's SIMD arctan2, arcsin and hypot differ from libm
    in the last bit for a few percent of inputs, and which SIMD path runs
    depends on the CPU; with libm the circuit angles, the dumped circuits
    and the oracle values stay those of the scalar formulas.
    """
    return np.array(np.frompyfunc(f, len(args), 1)(*args), dtype=float)[()]


class NumericalDomainError(ArithmeticError):
    """A physics quantity left its mathematically valid domain."""


# CODATA 2022, pinned so that no scan imports scipy.constants.
G_F = 1.1663787e-05              # Fermi coupling G_F/(hbar c)^3, GeV^-2
M_N = 1.67492750056e-27          # neutron mass, kg
HBAR = 1.0545718176461565e-34    # reduced Planck constant, J s
C_LIGHT = 299792458.0            # speed of light, m/s
E_CHARGE = 1.602176634e-19       # elementary charge, C

_HBARC_GEV_CM = (HBAR * C_LIGHT / E_CHARGE) * 1e-9 * 1e2  # J*m -> GeV*cm
# eV^2 per (g/cm^3 * GeV), with the neutron mass in g
MATTER_FACTOR = (2.0 * math.sqrt(2.0) * G_F * _HBARC_GEV_CM ** 3
                 / (M_N * 1e3) * 1e18)
# rad*GeV per (eV^2 * km)
PHASE_FACTOR = 1e-18 * (1e5 / _HBARC_GEV_CM) / 2.0


@dataclass(frozen=True)
class OscParams:
    """Vacuum mixing angle (rad) and mass splitting (eV^2)."""

    theta: float
    dm2: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must be in [0, pi/2], got {self.theta}")
        if not 0.0 < self.dm2 < math.inf:
            raise ValueError(f"dm2 must be finite and positive, got {self.dm2}")


@dataclass(frozen=True)
class MatterLayer:
    """Constant-density layer: rho (g/cm^3), Ye, length (km)."""

    rho: float
    ye: float
    length_km: float

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not 0.0 < self.ye <= 1.0:
            raise ValueError(f"ye must be in (0, 1], got {self.ye}")
        if not 0.0 <= self.length_km < math.inf:
            raise ValueError(f"length_km must be finite and >= 0, got {self.length_km}")


@dataclass(frozen=True)
class SlabProfile:
    """Ordered constant-density layers: one period of one or more
    layers, repeated ``period_count`` times."""

    layers: tuple[MatterLayer, ...]
    period_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("profile needs at least one layer")
        if self.period_count < 1:
            raise ValueError("period_count must be >= 1")


class EffectiveParams(NamedTuple):
    """Matter-modified mixing angle and splitting for one layer (arrays
    over the energies when given an energy array)."""

    theta_m: float      # rad, in [0, pi/2]
    dm2_m: float        # eV^2
    beta: float         # A / dm2


def _check_energy(energy_gev) -> None:
    if np.any(np.less_equal(energy_gev, 0.0)):
        raise ValueError(f"energy must be positive, got "
                         f"{float(np.min(energy_gev))!r}")


def matter_potential(layer: MatterLayer, energy_gev):
    """Matter term A = 2 sqrt(2) G_F Ye rho E / m_n, in eV^2 (inf where
    it overflows)."""
    _check_energy(energy_gev)
    with np.errstate(over="ignore"):
        return MATTER_FACTOR * layer.ye * layer.rho * energy_gev


def effective_params_from_beta(p: OscParams, beta) -> EffectiveParams:
    """Effective angle and splitting at a given beta = A/dm2.

    sin 2theta_m = sin 2theta / sqrt((cos 2theta - beta)^2 + sin^2 2theta),
    with theta_m placed in [0, pi/2] so that cos 2theta_m carries the
    sign of (cos 2theta - beta): above resonance theta_m > pi/4.
    dm2_m = dm2 * sqrt((cos 2theta - beta)^2 + sin^2 2theta).
    """
    s2 = math.sin(2.0 * p.theta)
    c2 = math.cos(2.0 * p.theta)
    root = _libm(math.hypot, c2 - beta, s2)
    if np.any(root == 0.0):
        raise NumericalDomainError(
            "theta_m undefined: beta = cos 2theta with sin 2theta = 0")
    theta_m = 0.5 * _libm(math.atan2, s2, c2 - beta)
    return EffectiveParams(theta_m=theta_m, dm2_m=p.dm2 * root,
                           beta=beta)


def effective_params(p: OscParams, layer: MatterLayer,
                     energy_gev) -> EffectiveParams:
    a = matter_potential(layer, energy_gev)
    with np.errstate(over="ignore"):
        beta = a / p.dm2
    try:
        return effective_params_from_beta(p, beta)
    except NumericalDomainError as exc:    # theta = 0: resonance at beta = 1
        at = np.ravel(energy_gev)[np.argmax(np.ravel(beta) == 1.0)]
        raise NumericalDomainError(f"{exc}, at {float(at)!r} GeV") from None


def phase(dm2_m, length_km: float, energy_gev):
    """Oscillation phase phi = dm2_m * dx / (2E), in radians (inf where
    it overflows, nan for an inf dm2_m over dx = 0; ``slab_layer_params``
    recomputes both)."""
    _check_energy(energy_gev)
    if length_km < 0.0:
        raise ValueError(f"length must be >= 0, got {length_km}")
    with np.errstate(over="ignore", invalid="ignore"):
        return PHASE_FACTOR * dm2_m * length_km / energy_gev


def atmospheric_effective_angle(theta23: float, theta13_m):
    """Effective two-flavor angle arcsin(sin theta23 * sin 2theta13_m)."""
    return _libm(math.asin, math.sin(theta23) * np.sin(2.0 * theta13_m))


# Largest accumulated phase (rad) a slab profile may carry at any energy.
# Below it the float spacing of a phase, and of the virtual-Z offset
# summed from the phases, is at most 2**-40 ~ 9.1e-13 rad, inside the
# 1e-12 to which circuit and oracle probabilities are stated; above it
# the phase no longer fixes the probability to that precision.
PHASE_LIMIT = 2.0 ** 13


def slab_layer_params(p: OscParams, profile: SlabProfile, energy_gev,
                      theta23: float | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer rotation angles and phases of a profile.

    Returns ``(angles, phases)``, each of shape ``(layers,) +
    shape(energy_gev)``: one row per layer of the whole profile, one
    column per energy.  Each distinct layer is computed once for the whole grid, and
    the rows of one period repeat for every period.
    With ``theta23`` given, the per-layer angle is the atmospheric
    effective angle built from the matter-modified theta; otherwise the
    plain matter angle theta_m is used.  The phase always comes from
    the matter-modified splitting (``_layer_phase``).  A layer phase or
    an accumulated phase (the virtual-Z offset of the compiled circuit)
    not below ``PHASE_LIMIT`` raises NumericalDomainError.
    """
    unique = {}
    for layer in profile.layers:
        if layer not in unique:
            ep = effective_params(p, layer, energy_gev)
            unique[layer] = (
                ep.theta_m if theta23 is None else
                atmospheric_effective_angle(theta23, ep.theta_m),
                _layer_phase(p, layer, energy_gev, ep.dm2_m))
    rows = [unique[layer] for layer in profile.layers] * profile.period_count
    angles = np.array([angle for angle, _ in rows])
    phases = np.array([phi for _, phi in rows])
    _check_phase_precision(phases, energy_gev)
    return angles, phases


def _layer_phase(p: OscParams, layer: MatterLayer, energy_gev, dm2_m):
    """``phase`` of one layer, with each entry that overflowed recomputed.

    dm2_m = dm2 * root is inf where beta = A / dm2 overflows, and
    PHASE_FACTOR * dm2_m * dx is inf past float max before the division
    by E, though the phase itself may be small.  Those entries become
    PHASE_FACTOR * dx * (hypot(dm2 cos 2theta - A, dm2 sin 2theta) / E),
    or, where A itself is inf, PHASE_FACTOR * dx * hypot(dm2 cos 2theta / E
    - MATTER_FACTOR Ye rho, dm2 sin 2theta / E), which never forms A; 0
    over dx = 0.  Every entry that is finite keeps its bits.
    """
    phi = phase(dm2_m, layer.length_km, energy_gev)
    finite = np.isfinite(phi)
    if finite.all():
        return phi
    c2, s2 = p.dm2 * math.cos(2.0 * p.theta), p.dm2 * math.sin(2.0 * p.theta)
    with np.errstate(over="ignore"):
        a = matter_potential(layer, energy_gev)
        per_energy = np.where(
            np.isfinite(a), _libm(math.hypot, c2 - a, s2) / energy_gev,
            _libm(math.hypot, c2 / energy_gev
                  - MATTER_FACTOR * layer.ye * layer.rho, s2 / energy_gev))
        redone = (PHASE_FACTOR * layer.length_km * per_energy
                  if layer.length_km else 0.0)
    return np.where(finite, phi, redone)[()]


def _check_phase_precision(phases: np.ndarray, energy_gev) -> None:
    energies = np.ravel(energy_gev)
    with np.errstate(over="ignore"):            # a sum past float max is inf
        total = phases.sum(axis=0)
    for name, value in (("layer phase", phases.max(axis=0)),
                        ("accumulated phase", total)):
        bad = np.ravel(~(value < PHASE_LIMIT))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalDomainError(
                f"{name} {np.ravel(value)[i]:.6g} rad at "
                f"{float(energies[i])!r} GeV is not below {PHASE_LIMIT:g} rad, "
                "where its float spacing stops resolving 1e-12")


def prob_constant_density(p: OscParams, layer: MatterLayer, energy_gev,
                          length_km: float):
    """P(nu_mu -> nu_e) after one uniform layer: sin^2 2theta_m sin^2(phi/2)."""
    ep = effective_params(p, layer, energy_gev)
    phi = phase(ep.dm2_m, length_km, energy_gev)
    return np.sin(2.0 * ep.theta_m) ** 2 * np.sin(0.5 * phi) ** 2


def prob_slab(profile: SlabProfile, angles: np.ndarray, phases: np.ndarray):
    """P(nu_mu -> nu_e) through a piecewise-constant profile, from its
    ``slab_layer_params`` rows ``(angles, phases)``, at one energy or
    over an energy array.

    Multiplies the Pauli forms c I - i (x X + z Z) of one period's layers
    (c = cos(phi/2), x = sin(phi/2) sin 2theta_m, z = sin(phi/2) cos
    2theta_m; one per distinct layer, from its first row) in profile
    order into y0 I - i (y1 X + y2 Y + y3 Z).  Its N-th power is cos(N Phi)
    I - i sin(N Phi) y.sigma / |y| with Phi = atan2(|y|, y0), so
    P = (y1^2 + y2^2) / |y|^2 sin^2(N Phi), 0 where y = 0, and y1^2 + y2^2
    for one period.  Real multiplies and adds, libm's atan2 and numpy's
    sin and cos: the value does not depend on the CPU's SIMD level.
    """
    terms = {}
    for k, layer in enumerate(profile.layers):
        if layer not in terms:
            s, two_theta = np.sin(0.5 * phases[k]), 2.0 * angles[k]
            terms[layer] = (np.cos(0.5 * phases[k]), s * np.sin(two_theta),
                            s * np.cos(two_theta))
    y0, y1, y2, y3 = 1.0, 0.0, 0.0, 0.0
    for layer in profile.layers:
        c, x, z = terms[layer]
        y0, y1, y2, y3 = (c * y0 - x * y1 - z * y3, c * y1 + x * y0 - z * y2,
                          c * y2 + z * y1 - x * y3, c * y3 + z * y0 + x * y2)
    t = y1 * y1 + y2 * y2
    if profile.period_count == 1:
        return t
    norm2 = t + y3 * y3
    period_angle = _libm(math.atan2, np.sqrt(norm2), y0)     # Phi
    with np.errstate(invalid="ignore"):             # 0 / 0 where y = 0
        p = t / norm2 * np.sin(profile.period_count * period_angle) ** 2
    return np.where(norm2 > 0.0, p, 0.0)[()]


def msw_survival_from_angles(theta: float, theta_m):
    """Adiabatic, phase-averaged P(nu_e -> nu_e) from the two angles."""
    return 0.5 * (1.0 + math.cos(2.0 * theta) * np.cos(2.0 * theta_m))


def prob_msw_adiabatic(p: OscParams, production_layer: MatterLayer,
                       energy_gev):
    """(P_ee, P_emu) for adiabatic propagation from a dense production point.

    theta_m is evaluated at the production layer; the phase information
    is averaged out, so probabilities (not amplitudes) combine.
    """
    ep = effective_params(p, production_layer, energy_gev)
    pee = msw_survival_from_angles(p.theta, ep.theta_m)
    return pee, 1.0 - pee
