"""Oscillation physics: unit factors, effective parameters, oracles."""
import math

import numpy as np
import pytest
import scipy.constants as sc

from nuqsim import oscillation
from nuqsim.builders import earth_profile
from nuqsim.oscillation import (MATTER_FACTOR, PHASE_FACTOR, MatterLayer,
                                NumericalDomainError, OscParams, SlabProfile,
                                atmospheric_effective_angle, effective_params,
                                effective_params_from_beta, layer_propagator,
                                matter_potential, phase,
                                prob_constant_density,
                                prob_msw_adiabatic, prob_slab,
                                msw_survival_from_angles, slab_layer_params)

RNG = np.random.Generator(np.random.PCG64(2718))


# --- unit-conversion factors ---------------------------------------------------

def test_matter_factor_against_hand_derivation():
    """Independent route: electron number density in cm^-3 -> natural units."""
    gf = sc.physical_constants["Fermi coupling constant"][0]   # GeV^-2
    hbarc_gev_cm = sc.physical_constants[
        "reduced Planck constant times c in MeV fm"][0] * 1e-3 * 1e-13
    ne_per_gram = 1.0 / (sc.m_n * 1e3)                 # electrons per (Ye g)
    a_gev2 = 2.0 * math.sqrt(2.0) * gf * ne_per_gram * hbarc_gev_cm ** 3
    expected = a_gev2 * 1e18                           # GeV^2 -> eV^2
    assert abs(MATTER_FACTOR / expected - 1.0) < 1e-12
    # frozen anchor (hand oracle, rho=5 g/cm^3, Ye=0.5, E=10 GeV)
    assert abs(MATTER_FACTOR - 1.513379933e-4) < 1e-12


def test_phase_factor_against_hand_derivation():
    hbarc_gev_cm = sc.physical_constants[
        "reduced Planck constant times c in MeV fm"][0] * 1e-3 * 1e-13
    expected = 1e-18 * 1e5 / hbarc_gev_cm / 2.0
    assert abs(PHASE_FACTOR / expected - 1.0) < 1e-12
    assert abs(PHASE_FACTOR - 2.5338653580781973) < 1e-12


def test_pinned_codata_values_match_scipy():
    """The literals the unit factors derive from are scipy's, exactly."""
    assert oscillation.G_F == sc.physical_constants[
        "Fermi coupling constant"][0]
    assert oscillation.M_N == sc.m_n
    assert oscillation.HBAR == sc.hbar
    assert oscillation.C_LIGHT == sc.c
    assert oscillation.E_CHARGE == sc.e


def test_matter_potential_vacuum_and_linearity():
    layer = MatterLayer(0.0, 0.5, 100.0)
    assert matter_potential(layer, 3.0) == 0.0
    layer = MatterLayer(4.2, 0.4, 100.0)
    assert matter_potential(layer, 8.0) == 2.0 * matter_potential(layer, 4.0)


def test_matter_potential_frozen_example():
    a = matter_potential(MatterLayer(5.0, 0.5, 0.0), 10.0)
    assert abs(a - 3.783449833155275e-3) < 1e-15


def test_matter_potential_rejects_bad_energy():
    with pytest.raises(ValueError):
        matter_potential(MatterLayer(5.0, 0.5, 0.0), 0.0)
    with pytest.raises(ValueError):
        matter_potential(MatterLayer(5.0, 0.5, 0.0), -1.0)


def test_phase_behaviour():
    assert phase(2.5e-3, 0.0, 5.0) == 0.0
    assert abs(phase(2.5e-3, 500.0, 5.0) - 0.6334663395195493) < 1e-15
    assert abs(phase(2.5e-3, 1000.0, 5.0) / phase(2.5e-3, 500.0, 5.0)
               - 2.0) < 1e-12
    assert abs(phase(2.5e-3, 500.0, 10.0) * 2.0
               - phase(2.5e-3, 500.0, 5.0)) < 1e-15
    with pytest.raises(ValueError):
        phase(2.5e-3, 500.0, 0.0)
    with pytest.raises(ValueError):
        phase(2.5e-3, -1.0, 5.0)


def test_layer_phases_past_an_overflowing_intermediate_are_finite():
    """beta = A / dm2 (dm2 = 5e-324) or dm2_m * dx (E near float max)
    overflows, yet each layer phase is finite: in the matter-dominated
    limit PHASE_FACTOR * dx * dm2_m / E tends to PHASE_FACTOR * dx *
    MATTER_FACTOR * Ye * rho, which does not depend on E, and a
    zero-length layer's is 0.  One energy at a time gives the same bits."""
    layers = (MatterLayer(5.0, 0.5, 500.0), MatterLayer(10.0, 0.5, 1000.0),
              MatterLayer(5.0, 0.5, 0.0))
    profile = SlabProfile(layers)
    limit = np.array([[PHASE_FACTOR * layer.length_km * MATTER_FACTOR
                       * layer.ye * layer.rho] for layer in layers])
    for dm2, energies in ((5e-324, [1.0, 2.0]), (2.5e-3, [1e308, 1.7e308])):
        p = OscParams(math.radians(9.0), dm2)
        _, phases = slab_layer_params(p, profile, np.array(energies))
        assert np.all(np.abs(phases - limit) <= 1e-12 * limit)
        for i, e in enumerate(energies):
            assert slab_layer_params(p, profile, e)[1].tolist() == (
                phases[:, i].tolist())


def test_layer_phase_past_an_overflowing_matter_term_is_finite():
    """A = MATTER_FACTOR * Ye * rho * E itself overflows (rho = 1e308,
    E = 1e10), yet a 1e-310 km layer's phase is finite and at its
    matter-dominated limit; one energy at a time gives the same bits."""
    layer = MatterLayer(1e308, 0.5, 1e-310)
    p = OscParams(math.radians(9.0), 2.5e-3)
    energies = np.array([1e10, 1e12])
    assert np.all(np.isinf(matter_potential(layer, energies)))
    _, phases = slab_layer_params(p, SlabProfile((layer,)), energies)
    # dx times the rest first: PHASE_FACTOR * dx is subnormal
    limit = PHASE_FACTOR * (layer.length_km
                            * (MATTER_FACTOR * layer.ye * layer.rho))
    assert abs(limit - 1.9e-6) < 1e-7
    assert np.all(np.abs(phases - limit) <= 1e-12 * limit)
    for i, e in enumerate(energies.tolist()):
        assert slab_layer_params(p, SlabProfile((layer,)), e)[1].tolist() == (
            phases[:, i].tolist())


# --- effective parameters ------------------------------------------------------

def test_vacuum_limit():
    p = OscParams(0.4, 2.5e-3)
    ep = effective_params_from_beta(p, 0.0)
    assert abs(ep.theta_m - 0.4) < 1e-15
    assert abs(ep.dm2_m - 2.5e-3) < 1e-18


def test_resonance_point():
    p = OscParams(math.radians(9.0), 2.5e-3)
    ep = effective_params_from_beta(p, math.cos(2 * p.theta))
    assert abs(math.sin(2 * ep.theta_m) - 1.0) < 1e-14
    assert abs(ep.theta_m - math.pi / 4) < 1e-14
    assert abs(ep.dm2_m - p.dm2 * math.sin(2 * p.theta)) < 1e-18


def test_above_resonance_quadrant():
    """beta = 2 cos 2theta puts theta_m at pi/2 - theta (above pi/4)."""
    theta = math.radians(9.0)
    p = OscParams(theta, 2.5e-3)
    ep = effective_params_from_beta(p, 2.0 * math.cos(2 * theta))
    # (cos2t - beta)^2 + sin^2 2t collapses to 1 at this beta
    assert abs(ep.theta_m - (math.pi / 2 - theta)) < 1e-14
    assert abs(ep.dm2_m - p.dm2) < 1e-16
    assert ep.theta_m > math.pi / 4


def test_cos2thetam_sign_follows_resonance_side():
    for _ in range(500):
        theta = RNG.uniform(0.01, math.pi / 2 - 0.01)
        beta = RNG.uniform(0.0, 3.0)
        ep = effective_params_from_beta(OscParams(theta, 1e-3), beta)
        lhs = math.cos(2 * ep.theta_m)
        rhs = math.cos(2 * theta) - beta
        assert lhs == 0.0 or rhs == 0.0 or math.copysign(1, lhs) == math.copysign(1, rhs)
        assert 0.0 <= ep.theta_m <= math.pi / 2


def test_degenerate_point_raises():
    with pytest.raises(NumericalDomainError):
        effective_params_from_beta(OscParams(0.0, 1e-3), 1.0)


def test_effective_params_wraps_matter_potential():
    p = OscParams(0.2, 2.5e-3)
    layer = MatterLayer(5.0, 0.5, 0.0)
    ep = effective_params(p, layer, 10.0)
    a = matter_potential(layer, 10.0)
    assert ep.beta == pytest.approx(a / p.dm2, rel=1e-15)
    assert ep.beta * p.dm2 == pytest.approx(a, rel=1e-15)


def test_resonance_is_argmax_of_mixing():
    """sin 2theta_m over a fine beta grid peaks exactly at beta = cos 2theta."""
    p = OscParams(math.radians(9.0), 2.5e-3)
    betas = np.linspace(0.0, 2.0, 20001)
    vals = [math.sin(2 * effective_params_from_beta(p, b).theta_m)
            for b in betas]
    best = betas[int(np.argmax(vals))]
    assert abs(best - math.cos(2 * p.theta)) <= (betas[1] - betas[0])
    assert max(vals) <= 1.0 + 1e-15


# --- constant-density oracle ---------------------------------------------------

def test_prob_zero_length():
    p = OscParams(0.3, 2.5e-3)
    assert prob_constant_density(p, MatterLayer(5.0, 0.5, 0.0), 5.0, 0.0) == 0.0


def test_full_conversion_at_resonance_half_period():
    """theta_m = pi/4 and phi = pi give P = 1."""
    p = OscParams(math.radians(9.0), 2.5e-3)
    beta_res = math.cos(2 * p.theta)
    # pick E, then the density that lands exactly on resonance at that E
    energy = 5.0
    rho = beta_res * p.dm2 / (MATTER_FACTOR * 0.5 * energy)
    layer = MatterLayer(rho, 0.5, 0.0)
    ep = effective_params(p, layer, energy)
    length = math.pi * energy / (PHASE_FACTOR * ep.dm2_m)
    got = prob_constant_density(p, layer, energy, length)
    assert abs(got - 1.0) < 1e-12


def test_closed_form_equals_matrix_element():
    """sin^2 2theta_m sin^2(phi/2) vs |<e| R P R^T |mu>|^2."""
    for _ in range(500):
        p = OscParams(RNG.uniform(0.01, math.pi / 2 - 0.01),
                      RNG.uniform(1e-5, 1e-2))
        layer = MatterLayer(RNG.uniform(0, 15), 0.5, RNG.uniform(0, 5000))
        energy = RNG.uniform(0.5, 30)
        ep = effective_params(p, layer, energy)
        phi = phase(ep.dm2_m, layer.length_km, energy)
        m = layer_propagator(ep.theta_m, phi)
        matrix_form = abs(m[0, 1]) ** 2
        closed = prob_constant_density(p, layer, energy, layer.length_km)
        assert abs(closed - matrix_form) < 1e-12
        assert 0.0 <= closed <= 1.0


def test_probability_bounds_random_sweep():
    for _ in range(10000):
        p = OscParams(RNG.uniform(0, math.pi / 2), RNG.uniform(1e-6, 1e-2))
        layer = MatterLayer(RNG.uniform(0, 20), RNG.uniform(0.1, 1.0),
                            RNG.uniform(0, 12000))
        val = prob_constant_density(p, layer, RNG.uniform(0.1, 50),
                                    layer.length_km)
        assert 0.0 <= val <= 1.0


# --- slab oracle ---------------------------------------------------------------

def test_single_layer_reduces_to_constant_density():
    p = OscParams(0.25, 2.5e-3)
    layer = MatterLayer(7.0, 0.5, 1234.0)
    profile = SlabProfile((layer,))
    a = prob_slab(profile, *slab_layer_params(p, profile, 4.0))
    b = prob_constant_density(p, layer, 4.0, layer.length_km)
    assert abs(a - b) < 1e-14


def test_vacuum_slabs_concatenate():
    p = OscParams(0.6, 2.5e-3)
    lengths = [300.0, 700.0, 1500.0]
    profile = SlabProfile(tuple(MatterLayer(0.0, 0.5, L) for L in lengths))
    got = prob_slab(profile, *slab_layer_params(p, profile, 3.0))
    phi_total = phase(p.dm2, sum(lengths), 3.0)
    expected = math.sin(2 * p.theta) ** 2 * math.sin(phi_total / 2) ** 2
    assert abs(got - expected) < 1e-12


def test_slab_propagator_unitary():
    for _ in range(100):
        n = int(RNG.integers(1, 51))
        p = OscParams(RNG.uniform(0.01, math.pi / 2 - 0.01), 2.5e-3)
        total = np.eye(2, dtype=complex)
        for _ in range(n):
            theta_m = RNG.uniform(0, math.pi / 2)
            phi = RNG.uniform(0, 2 * math.pi)
            total = layer_propagator(theta_m, phi) @ total
        assert np.max(np.abs(total.conj().T @ total - np.eye(2))) < 1e-12


def test_periodic_profile_expansion():
    layers = (MatterLayer(5.0, 0.5, 500.0), MatterLayer(10.0, 0.5, 1000.0))
    profile = SlabProfile(layers, period_count=5)
    flat = SlabProfile(layers * 5)
    p = OscParams(math.radians(9.0), 2.5e-3)
    for e in (1.5, 6.0, 20.0):
        assert prob_slab(profile, *slab_layer_params(p, profile, e)) == (
            prob_slab(flat, *slab_layer_params(p, flat, e)))


def test_an_odd_length_period_repeats_as_its_flat_profile():
    """Earth's three layers repeated twice give the layer rows and the
    oracle values of the flat six-layer profile, bit for bit, over a grid
    and at one energy: no period length is special."""
    earth = earth_profile()
    assert len(earth.layers) == 3 and earth.period_count == 1
    twice = SlabProfile(earth.layers, period_count=2)
    flat = SlabProfile(earth.layers * 2)
    p = OscParams(math.radians(9.0), 2.5e-3)
    for energy in (np.linspace(1.0, 25.0, 7), 6.0):
        for theta23 in (None, math.radians(45.0)):
            rows = slab_layer_params(p, twice, energy, theta23)
            flat_rows = slab_layer_params(p, flat, energy, theta23)
            assert [r.shape for r in rows] == [(6,) + np.shape(energy)] * 2
            for got, want in zip(rows, flat_rows):
                assert got.tobytes() == want.tobytes()
            assert np.asarray(prob_slab(twice, *rows)).tobytes() == (
                np.asarray(prob_slab(flat, *flat_rows)).tobytes())


# --- adiabatic MSW oracle ------------------------------------------------------

def test_msw_vacuum_limit():
    p = OscParams(0.3, 7.5e-5)
    pee, pem = prob_msw_adiabatic(p, MatterLayer(0.0, 0.5, 0.0), 0.01)
    assert abs(pee - 0.5 * (1 + math.cos(2 * 0.3) ** 2)) < 1e-14
    assert abs(pee + pem - 1.0) < 1e-15


def test_msw_high_density_limit():
    """theta_m -> pi/2 gives P_ee -> sin^2 theta."""
    theta = math.radians(33.5)
    assert abs(msw_survival_from_angles(theta, math.pi / 2)
               - math.sin(theta) ** 2) < 1e-15
    p = OscParams(theta, 7.5e-5)
    ep = effective_params_from_beta(p, 1e9)
    pee = msw_survival_from_angles(theta, ep.theta_m)
    assert abs(pee - math.sin(theta) ** 2) < 1e-6


def test_msw_monotone_in_beta_below_maximal_mixing():
    theta = math.radians(33.5)
    p = OscParams(theta, 7.5e-5)
    betas = np.linspace(0, 20, 400)
    vals = [msw_survival_from_angles(
        theta, effective_params_from_beta(p, b).theta_m) for b in betas]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# --- atmospheric effective angle ------------------------------------------------

def test_atmospheric_angle_cases():
    assert abs(atmospheric_effective_angle(math.pi / 4, math.pi / 4)
               - math.pi / 4) < 1e-15
    assert atmospheric_effective_angle(math.pi / 4, 0.0) == 0.0
    # at 1-3 resonance sin(2 theta13m) = 1, so the angle is theta23
    p = OscParams(math.radians(9.0), 2.5e-3)
    ep = effective_params_from_beta(p, math.cos(2 * p.theta))
    ang = atmospheric_effective_angle(math.pi / 4, ep.theta_m)
    assert abs(ang - math.pi / 4) < 1e-7


# --- validation -----------------------------------------------------------------

def test_type_validation():
    with pytest.raises(ValueError):
        OscParams(-0.1, 1e-3)
    with pytest.raises(ValueError):
        OscParams(0.3, 0.0)
    with pytest.raises(ValueError):
        MatterLayer(-1.0, 0.5, 10.0)
    with pytest.raises(ValueError):
        MatterLayer(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        MatterLayer(1.0, 0.5, -10.0)
    with pytest.raises(ValueError):
        SlabProfile(())
    with pytest.raises(ValueError):
        SlabProfile((MatterLayer(1.0, 0.5, 1.0),), period_count=0)


VALID_FIELDS = {OscParams: {"theta": 0.5, "dm2": 1e-3},
                MatterLayer: {"rho": 3.0, "ye": 0.5, "length_km": 100.0}}


@pytest.mark.parametrize("cls, field", [
    pytest.param(cls, field, id=field)
    for cls, valid in VALID_FIELDS.items() for field in valid])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(cls, field, value):
    """A NaN or inf parameter fails at construction, naming its field,
    instead of turning every probability into NaN."""
    with pytest.raises(ValueError, match=field):
        cls(**dict(VALID_FIELDS[cls], **{field: value}))


def _matrix_form_propagator(theta, phi):
    """R(theta) diag(e^{-i phi/2}, e^{i phi/2}) R(theta)^T from explicit
    2x2 arrays, the matrix derivation of ``layer_propagator``."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    d = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    return r @ d @ r.T


def test_layer_propagator_matches_matrix_form():
    """The closed Pauli form equals the rotated phase matrix entry by
    entry, for a scalar and for arrays, over the angle range's edges."""
    edge_thetas = [0.0, 5e-324, math.pi / 4, np.nextafter(math.pi / 2, 0.0),
                   math.pi / 2]
    edge_phis = [0.0, 1.0, math.pi, np.nextafter(oscillation.PHASE_LIMIT, 0.0)]
    grid = np.meshgrid(edge_thetas, edge_phis)
    n = 1000 - grid[0].size
    thetas = np.concatenate((grid[0].ravel(), RNG.uniform(0.0, math.pi / 2, n)))
    phis = np.concatenate((grid[1].ravel(),
                           RNG.uniform(0.0, oscillation.PHASE_LIMIT, n)))
    stacked = layer_propagator(thetas, phis)
    assert stacked.shape == (1000, 2, 2)
    for theta, phi, u in zip(thetas, phis, stacked):
        expected = _matrix_form_propagator(theta, phi)
        assert np.max(np.abs(u - expected)) <= 1e-15
        assert np.array_equal(layer_propagator(float(theta), float(phi)), u)
