"""Oscillation physics: unit factors, effective parameters, oracles."""
import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nuqsim import oscillation
from nuqsim.builders import earth_profile
from nuqsim.oscillation import (MATTER_FACTOR, PHASE_FACTOR, PHASE_LIMIT,
                                MatterLayer, NumericalDomainError, OscParams,
                                SlabProfile, _period_power,
                                atmospheric_effective_angle, effective_params,
                                effective_params_from_beta,
                                matter_potential, phase,
                                prob_constant_density,
                                prob_msw_adiabatic, prob_slab,
                                slab_layer_params)
from nuqsim.scan import ANGLE_MODES, MAX_LAYERS, _single_qubit_setup
from test_reference import MAX_PATH_KM, earth_configs, slab_configs
from test_scan import _env_with_src

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:                     # numpy < 2
    from numpy.core import _multiarray_umath as _umath

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


@given(st.floats(0.0, PHASE_LIMIT, exclude_max=True))
@settings(deadline=None, derandomize=True, database=None)
def test_every_phase_below_the_limit_has_a_spacing_of_2_to_the_minus_40(phi):
    assert np.spacing(phi) <= 2.0 ** -40


def test_the_phase_limit_is_the_largest_such_power_of_two():
    """PHASE_LIMIT is a power of two, the double just below it still
    has a spacing of 2**-40 at most, and the limit itself does not: no
    larger limit keeps the property above."""
    assert math.frexp(PHASE_LIMIT)[0] == 0.5
    assert np.spacing(np.nextafter(PHASE_LIMIT, 0.0)) <= 2.0 ** -40
    assert np.spacing(PHASE_LIMIT) > 2.0 ** -40


def test_the_oracles_refuse_a_phase_past_the_limit():
    """The constant-density and slab oracles take their phases from
    ``_layer_phase`` and refuse one at or past PHASE_LIMIT, as a scan
    does, instead of returning a number with no precision left
    (3.8e299 rad at 1e300 g/cm^3) or, past an overflowing intermediate,
    a nan.  The phase an overflow hid is recomputed and named."""
    p = OscParams(math.radians(9.0), 2.5e-3)
    for rho, energy, named in (
            (1e306, np.array([1.0, 1e3]), "3.8347e+305 rad at 1.0"),
            (1e306, 1e3, "3.8347e+305 rad at 1000.0"),
            (1e300, 1.0, "3.8347e+299 rad at 1.0")):
        with pytest.raises(NumericalDomainError,
                           match=f"^layer phase {re.escape(named)} GeV is "
                                 "not below 8192 rad"):
            prob_constant_density(p, MatterLayer(rho, 1.0, 1000.0), energy)
    with pytest.raises(NumericalDomainError, match="^layer phase 11761.3 rad"):
        prob_slab(p, SlabProfile((MatterLayer(5.0, 0.5, 1e6),)), 0.5)
    deep = SlabProfile((MatterLayer(5.0, 0.5, 3000.0),
                        MatterLayer(10.0, 0.5, 3000.0)), period_count=300)
    with pytest.raises(NumericalDomainError, match="^accumulated phase"):
        prob_slab(p, deep, np.array([5.0, 0.5]))
    assert prob_slab(p, deep, 5.0) >= 0.0


def test_the_slab_oracle_refuses_theta_m_where_it_is_undefined():
    """At theta = 0 and beta = 1 exactly (A = MATTER_FACTOR = dm2), C is
    0 and theta_m has no value: the oracle names the energy, as
    ``effective_params`` does, rather than dividing 0 by 0."""
    p = OscParams(0.0, MATTER_FACTOR)
    profile = SlabProfile((MatterLayer(2.0, 0.5, 100.0),))
    assert matter_potential(profile.layers[0], 1.0) / p.dm2 == 1.0
    message = "^theta_m undefined: beta = cos 2theta with sin 2theta = 0, at "
    for energy in (np.array([2.0, 1.0]), 1.0):
        with pytest.raises(NumericalDomainError, match=message + r"1\.0 GeV$"):
            prob_slab(p, profile, energy)
        with pytest.raises(NumericalDomainError, match=message + r"1\.0 GeV$"):
            effective_params(p, profile.layers[0], energy)
    assert prob_slab(p, profile, 2.0) == 0.0


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
    assert prob_constant_density(p, MatterLayer(5.0, 0.5, 0.0), 5.0) == 0.0


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
    got = prob_constant_density(p, replace(layer, length_km=length), energy)
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
        m = _matrix_form_propagator(ep.theta_m, phi)
        matrix_form = abs(m[0, 1]) ** 2
        closed = prob_constant_density(p, layer, energy)
        assert abs(closed - matrix_form) < 1e-12
        assert 0.0 <= closed <= 1.0


def test_probability_bounds_random_sweep():
    for _ in range(10000):
        p = OscParams(RNG.uniform(0, math.pi / 2), RNG.uniform(1e-6, 1e-2))
        layer = MatterLayer(RNG.uniform(0, 20), RNG.uniform(0.1, 1.0),
                            RNG.uniform(0, 12000))
        val = prob_constant_density(p, layer, RNG.uniform(0.1, 50))
        assert 0.0 <= val <= 1.0


# --- slab oracle ---------------------------------------------------------------

def test_single_layer_reduces_to_constant_density():
    p = OscParams(0.25, 2.5e-3)
    layer = MatterLayer(7.0, 0.5, 1234.0)
    profile = SlabProfile((layer,))
    a = prob_slab(p, profile, 4.0)
    b = prob_constant_density(p, layer, 4.0)
    assert abs(a - b) < 1e-14


def test_vacuum_slabs_concatenate():
    p = OscParams(0.6, 2.5e-3)
    lengths = [300.0, 700.0, 1500.0]
    profile = SlabProfile(tuple(MatterLayer(0.0, 0.5, L) for L in lengths))
    got = prob_slab(p, profile, 3.0)
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
            total = _matrix_form_propagator(theta_m, phi) @ total
        assert np.max(np.abs(total.conj().T @ total - np.eye(2))) < 1e-12


def test_periodic_profile_expansion():
    """Five periods give the layer rows of the flat ten-layer profile bit
    for bit, and the closed form of the fifth power meets the flat
    profile's one-period product within ``closed_form_bound``."""
    layers = (MatterLayer(5.0, 0.5, 500.0), MatterLayer(10.0, 0.5, 1000.0))
    profile = SlabProfile(layers, period_count=5)
    flat = SlabProfile(layers * 5)
    p = OscParams(math.radians(9.0), 2.5e-3)
    for e in (1.5, 6.0, 20.0):
        rows = slab_layer_params(p, profile, e)
        flat_rows = slab_layer_params(p, flat, e)
        for got, want in zip(rows, flat_rows):
            assert got.tobytes() == want.tobytes()
        assert abs(prob_slab(p, profile, e) - prob_slab(p, flat, e)) <= (
            closed_form_bound(10))


def test_an_odd_length_period_repeats_as_its_flat_profile():
    """Earth's three layers repeated twice give the layer rows of the flat
    six-layer profile bit for bit, and oracle values within
    ``closed_form_bound``, over a grid and at one energy: no period length
    is special."""
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
            assert np.max(np.abs(prob_slab(p, twice, energy, theta23)
                                 - prob_slab(p, flat, energy, theta23))) <= (
                closed_form_bound(6))


# --- the closed form of a periodic profile against the sequential product ------

def closed_form_bound(layers: int) -> float:
    """Largest |closed form - sequential product| allowed over ``layers``
    layers.  Both lose a few ulp of pi per period: the closed form in N Phi,
    with Phi up to pi, the product in its 2N steps.  Measured: over about
    12,000 random valid slab configs (1 to 10,000 layers, 4 energies, both
    angle modes) the gap reached 5.8e-13, at 8,878 layers, 0.13 of this
    bound; at the parametric resonance, where N Phi nears N pi, the closed
    form reached 0.56 of it against a long-double value (1.8e-12 at 6,440
    layers)."""
    return 2e-14 + 5e-16 * layers


def sequential_prob_slab(profile, angles, phases):
    """P(nu_mu -> nu_e) with nu_mu carried through every layer's complex
    2x2 propagator, the period's steps repeated ``period_count`` times:
    the transfer-matrix product that ``prob_slab``'s closed form
    replaces, in the order in which the circuit applies its gates."""
    props = {}
    for k, layer in enumerate(profile.layers):
        if layer not in props:
            c, s = np.cos(0.5 * phases[k]), np.sin(0.5 * phases[k])
            sz, sx = s * np.cos(2.0 * angles[k]), s * np.sin(2.0 * angles[k])
            props[layer] = (c - 1j * sz, -1j * sx, -1j * sx, c + 1j * sz)
    nu_e, nu_mu = 0.0, 1.0
    for u00, u01, u10, u11 in ([props[layer] for layer in profile.layers]
                               * profile.period_count):
        nu_e, nu_mu = u00 * nu_e + u01 * nu_mu, u10 * nu_e + u11 * nu_mu
    return nu_e.real ** 2 + nu_e.imag ** 2


def pauli_terms(angle, phi):
    """(c, x, z) of the closed Pauli form c I - i (x X + z Z) of a layer
    of rotation angle ``angle`` and phase ``phi``, the form the oracle took
    before it derived its terms from the physics."""
    s, two_angle = np.sin(0.5 * phi), 2.0 * angle
    return np.cos(0.5 * phi), s * np.sin(two_angle), s * np.cos(two_angle)


def rows_prob_slab(profile, angles, phases):
    """The oracle's closed form over a profile's ``slab_layer_params`` rows
    ``(angles, phases)``: the terms of each distinct layer from its first
    row, then the program's own period power."""
    terms = {}
    for k, layer in enumerate(profile.layers):
        if layer not in terms:
            terms[layer] = pauli_terms(angles[k], phases[k])
    return _period_power([terms[layer] for layer in profile.layers],
                         profile.period_count)


def derivation_bound(layers: int, total_phase):
    """Largest |prob_slab - rows form| allowed over ``layers`` layers whose
    phases sum to ``total_phase`` rad.  The two forms take each layer's
    phase up to 4 ulp apart (dm2 C against dm2 hypot), and |dP/dphi_k| <= 1;
    each layer's (sin 2t, cos 2t) a few ulp apart, and |dP/dn_k| <= 2; and
    each side carries the closed form's own rounding.  Measured: over 2,000
    random valid configs (up to 10,000 layers, 4 energies, both angle
    modes, one in five earth) the gap reached 0.27 of this bound, 7.4e-14
    over two layers; the 1.3e-13 of 10,000 layers on 100 energies
    (7,265 rad) is 0.0067 of it."""
    return 2.0 ** -51 * (total_phase + 2 * layers) + 2 * closed_form_bound(
        layers)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(slab_configs(MAX_LAYERS, MAX_PATH_KM, compile=False),
                 earth_configs))
def test_the_oracle_meets_its_rows_form(config):
    """Valid slab configs of up to MAX_LAYERS layers and earth configs,
    4 energies at most: the oracle, which derives its own layer terms,
    meets the closed form over the circuit's rows within
    ``derivation_bound``."""
    p, profile, theta23 = _single_qubit_setup(config)
    energies = np.array(config.energies)
    try:
        rows = slab_layer_params(p, profile, energies, theta23)
    except NumericalDomainError:     # the theta = 0 resonance, PHASE_LIMIT
        assume(False)
    gap = np.abs(prob_slab(p, profile, energies, theta23)
                 - rows_prob_slab(profile, *rows))
    assert np.all(gap <= derivation_bound(len(rows[0]),
                                          rows[1].sum(axis=0))), gap


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(slab_configs(MAX_LAYERS, MAX_PATH_KM, compile=False))
def test_closed_form_meets_the_sequential_product(config):
    """Valid slab configs of up to MAX_LAYERS layers and 4 energies: the
    closed form meets the 2N-step product within ``closed_form_bound``."""
    p, profile, theta23 = _single_qubit_setup(config)
    try:
        rows = slab_layer_params(p, profile, np.array(config.energies),
                                 theta23)
    except NumericalDomainError:     # the theta = 0 resonance, PHASE_LIMIT
        assume(False)
    gap = np.max(np.abs(rows_prob_slab(profile, *rows)
                        - sequential_prob_slab(profile, *rows)))
    assert gap <= closed_form_bound(len(rows[0])), gap


def test_a_one_layer_period_is_constant_density():
    """N periods of one layer are one layer N times as long.  N is a power
    of two, so the long layer's phase is N times the short one's, bit for
    bit, and the gap is the closed form's own."""
    for _ in range(200):
        p = OscParams(RNG.uniform(0.01, math.pi / 2 - 0.01),
                      RNG.uniform(1e-4, 5e-3))
        periods = 2 ** int(RNG.integers(0, 14))
        layer = MatterLayer(RNG.uniform(0, 20), 0.5,
                            RNG.uniform(0, 2e5 / periods))
        energy = RNG.uniform(0.5, 50)
        profile = SlabProfile((layer,), period_count=periods)
        expected = prob_constant_density(
            p, replace(layer, length_km=periods * layer.length_km), energy)
        got = prob_slab(p, profile, energy)
        assert abs(got - expected) <= closed_form_bound(periods)


def test_one_period_is_the_squared_entry_of_its_product():
    """N = 1 skips Phi: y1^2 + y2^2 is |<e|P|mu>|^2 of the period's
    matrix product, for two and for three layers."""
    for _ in range(300):
        k = int(RNG.integers(2, 4))
        angles = RNG.uniform(0.0, math.pi / 2, k)
        phases = RNG.uniform(0.0, 100.0, k)
        product = np.eye(2)
        for theta, phi in zip(angles, phases):
            product = _matrix_form_propagator(theta, phi) @ product
        got = _period_power(list(map(pauli_terms, angles, phases)), 1)
        assert abs(got - abs(product[0, 1]) ** 2) <= 1e-15


def test_parametric_resonance_gives_sin_squared_n_phi():
    """At phi1 = phi2 = pi, Akhmedov's resonance condition y3 = 0 holds:
    the amplitude (y1^2 + y2^2)/|y|^2 is 1, and the period's product is
    -cos 2(theta2 - theta1) I - i sin 2(theta1 - theta2) Y, so Phi is
    pi - 2|theta1 - theta2| and P = sin^2(2N(theta1 - theta2)), taken
    here in long double."""
    thetas = RNG.uniform(0.0, math.pi / 2, (2, 100))
    terms = [pauli_terms(theta, math.pi) for theta in thetas]
    for periods in (1, 2, 7, 50, 1000, MAX_LAYERS // 2):
        expected = np.sin(2 * periods * (thetas[0].astype(np.longdouble)
                                         - thetas[1])) ** 2
        assert np.max(np.abs(_period_power(terms, periods) - expected)) <= (
            closed_form_bound(2 * periods))


# --- the oracle at every SIMD dispatch level -----------------------------------

# numpy's run-time SIMD targets that this CPU has
DISPATCH_TARGETS = [target for target in _umath.__cpu_dispatch__
                    if _umath.__cpu_features__.get(target)]
DISPATCH_SCANS = {
    **{f"slab-{mode}-{'compiled' if compile else 'raw'}": {
        "scenario": "slab", "periods": 50, "angle_mode": mode,
        "compile": compile}
       for mode in ANGLE_MODES for compile in (False, True)},
    "slab-200-periods-plain": {"scenario": "slab", "periods": 200,
                               "angle_mode": "plain"},
    "earth-2000": {"scenario": "earth", "energies": "1:25:2000"},
}


def _p_theory_hashes(env: dict) -> dict[str, str]:
    """sha256 of each DISPATCH_SCANS scan's p_theory bytes, from a fresh
    interpreter whose environment adds ``env``."""
    code = ("import hashlib, json, sys\n"
            "from nuqsim.scan import ScanConfig, run_scan\n"
            "print(json.dumps({name: hashlib.sha256(run_scan(\n"
            "    ScanConfig.from_dict(fields)).p_theory.tobytes()).hexdigest()\n"
            "    for name, fields in json.loads(sys.argv[1]).items()}))")
    base = {k: v for k, v in _env_with_src().items()
            if k != "NPY_DISABLE_CPU_FEATURES"}
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(DISPATCH_SCANS)],
        env={**base, **env}, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_p_theory_is_the_same_at_every_dispatch_level():
    """numpy picks its SIMD loops at import; with every dispatch target
    disabled it runs its baseline loops, as on a CPU without them.  The
    oracle forms real products and sums, libm's atan2 and numpy's sin and
    cos, so its bytes do not move.  ``p_exact`` is not asserted: the
    simulator still multiplies complex arrays, which the AVX2 and AVX-512
    loops round differently."""
    if not DISPATCH_TARGETS:
        pytest.skip(f"numpy has no dispatch target here: {DISPATCH_TARGETS}")
    baseline = _p_theory_hashes(
        {"NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCH_TARGETS)})
    assert baseline == _p_theory_hashes({})


# --- adiabatic MSW oracle ------------------------------------------------------

def test_msw_vacuum_limit():
    p = OscParams(0.3, 7.5e-5)
    pee, pem = prob_msw_adiabatic(p, MatterLayer(0.0, 0.5, 0.0), 0.01)
    assert abs(pee - 0.5 * (1 + math.cos(2 * 0.3) ** 2)) < 1e-14
    assert abs(pee + pem - 1.0) < 1e-15


def test_msw_high_density_limit():
    """theta_m -> pi/2 gives P_ee -> sin^2 theta."""
    theta = math.radians(33.5)
    assert abs(0.5 * (1.0 + math.cos(2.0 * theta) * math.cos(math.pi))
               - math.sin(theta) ** 2) < 1e-15
    p = OscParams(theta, 7.5e-5)
    ep = effective_params_from_beta(p, 1e9)
    pee = 0.5 * (1.0 + math.cos(2.0 * theta) * math.cos(2.0 * ep.theta_m))
    assert abs(pee - math.sin(theta) ** 2) < 1e-6
    pee, _ = prob_msw_adiabatic(p, MatterLayer(1e9 * p.dm2 / MATTER_FACTOR,
                                               1.0, 0.0), 1.0)
    assert abs(pee - math.sin(theta) ** 2) < 1e-6


def test_msw_monotone_in_beta_below_maximal_mixing():
    theta = math.radians(33.5)
    p = OscParams(theta, 7.5e-5)
    betas = np.linspace(0, 20, 400)
    vals = [0.5 * (1.0 + math.cos(2.0 * theta) * math.cos(
        2.0 * effective_params_from_beta(p, b).theta_m)) for b in betas]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    # the oracle's own derivation, at a density where beta = E
    pee, _ = prob_msw_adiabatic(p, MatterLayer(p.dm2 / MATTER_FACTOR, 1.0,
                                               0.0), betas[1:])
    assert np.all(pee[1:] <= pee[:-1] + 1e-15)
    assert np.max(np.abs(pee - vals[1:])) <= 1e-14


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


_P = OscParams(math.radians(9.0), 2.5e-3)
_PROFILE = SlabProfile((MatterLayer(5.0, 0.5, 1000.0),))
_ENERGY_USERS = {
    "matter_potential": lambda e: matter_potential(_PROFILE.layers[0], e),
    "effective_params": lambda e: effective_params(_P, _PROFILE.layers[0], e),
    "slab_layer_params": lambda e: slab_layer_params(_P, _PROFILE, e, 0.7),
    "prob_constant_density": lambda e: prob_constant_density(
        _P, _PROFILE.layers[0], e),
    "prob_slab": lambda e: prob_slab(_P, _PROFILE, e, 0.7),
    "prob_msw_adiabatic": lambda e: prob_msw_adiabatic(
        _P, _PROFILE.layers[0], e)}


@pytest.mark.parametrize("name", _ENERGY_USERS)
@pytest.mark.parametrize("energy, named", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0.0"),
    (np.array([2.0, math.inf, math.nan]), "inf")])
def test_a_non_finite_energy_is_refused(name, energy, named):
    """Every oracle, ``matter_potential`` and the circuits' layer
    parameters refuse an energy that is not finite and positive, naming
    the first such entry, instead of returning a limit (0.0 from the
    slab oracle at inf) or a nan."""
    with pytest.raises(ValueError, match=re.escape(
            f"energy must be finite and positive, got {named}")):
        _ENERGY_USERS[name](energy)


@pytest.mark.parametrize("name", _ENERGY_USERS)
def test_the_largest_finite_energy_keeps_its_overflow_handling(name):
    """At float max, where A / dm2 overflows, each still returns finite
    values: the beta = inf limits of theta_m and the recomputed phase."""
    values = _ENERGY_USERS[name](np.finfo(float).max)
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("theta23", [math.nan, math.inf, -math.inf, -1e-300,
                                     math.pi / 2 + 1e-15, 2.0])
def test_a_theta23_outside_its_domain_is_refused(theta23):
    """The slab oracle and the layer parameters refuse a theta23 that is
    not in [0, pi/2], naming it, as OscParams does for theta, instead of
    returning 0.0 or nan rows for a nan."""
    for fn in (prob_slab, slab_layer_params):
        with pytest.raises(ValueError, match=re.escape(
                f"theta23 must be in [0, pi/2], got {theta23}")):
            fn(_P, _PROFILE, 2.0, theta23)


def test_theta23_at_its_bounds_is_taken():
    """90 degrees, which a scan config allows, is pi/2 exactly."""
    assert math.radians(90.0) == math.pi / 2
    for theta23 in (0.0, math.radians(90.0)):
        assert 0.0 <= prob_slab(_P, _PROFILE, 2.0, theta23) <= 1.0
        assert np.all(np.isfinite(slab_layer_params(_P, _PROFILE, 2.0,
                                                    theta23)))


def _matrix_form_propagator(theta, phi):
    """R(theta) diag(e^{-i phi/2}, e^{i phi/2}) R(theta)^T from explicit
    2x2 arrays, the matrix derivation of a layer's closed Pauli form."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    d = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    return r @ d @ r.T


def test_one_layer_oracle_matches_matrix_form():
    """A one-layer profile's closed Pauli form gives the squared nu_e
    entry of the rotated phase matrix, for a scalar and for arrays, over
    the angle range's edges."""
    edge_thetas = [0.0, 5e-324, math.pi / 4, np.nextafter(math.pi / 2, 0.0),
                   math.pi / 2]
    edge_phis = [0.0, 1.0, math.pi, np.nextafter(oscillation.PHASE_LIMIT, 0.0)]
    grid = np.meshgrid(edge_thetas, edge_phis)
    n = 1000 - grid[0].size
    thetas = np.concatenate((grid[0].ravel(), RNG.uniform(0.0, math.pi / 2, n)))
    phis = np.concatenate((grid[1].ravel(),
                           RNG.uniform(0.0, oscillation.PHASE_LIMIT, n)))
    stacked = _period_power([pauli_terms(thetas, phis)], 1)
    assert stacked.shape == (1000,)
    for theta, phi, got in zip(thetas, phis, stacked):
        expected = abs(_matrix_form_propagator(theta, phi)[0, 1]) ** 2
        assert abs(got - expected) <= 1e-15
        assert _period_power([pauli_terms(float(theta), float(phi))], 1) == got
