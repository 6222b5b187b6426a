"""The float64 oracle and circuits against an extended-precision reference.

``tests/reference.py`` evaluates P(nu_mu -> nu_e) in long double from
the config fields alone.  The circuit-vs-oracle checks of
``test_batch.py`` compare two float64 paths that share their layer
parameters, so an error in those parameters moves both alike; here each
path must meet the independent value within 1e-12.

Every field ranges over its valid domain, as in ``test_batch.py``, with
two trims:
- a slab's layer lengths are drawn so that the accumulated phase stays
  below ``oscillation.PHASE_LIMIT`` at every energy drawn, which the
  scan would report as a numerical-domain error;
- in atmospheric mode every layer keeps sin theta23 * sin 2theta13_m
  below 1 - 1e-6: arcsin's derivative grows without bound as its
  argument nears 1, so a double's rounding of the argument alone moves
  the angle by more than the bound there.

A compiled slab is held to 200 layers and to a sixteenth of the raw
slabs' longest path, about 410 rad of phase: its virtual-Z offsets are doubles near the accumulated phase, so
each pulse carries up to half an ulp of it, and past a few hundred
radians those errors add up past 1e-12 well below ``PHASE_LIMIT``
(ROADMAP item 2), as ``test_a_deep_compiled_slab_meets_the_reference``
pins.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nuqsim.oscillation import NumericalDomainError
from nuqsim.scan import ANGLE_MODES, ScanConfig, run_scan
from reference import LONG, layer_terms, p_mu_e
from test_config_domain import OVERFLOWING

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
TOLERANCE = 1e-12
# arcsin's argument stays below this in atmospheric mode
ARCSIN_LIMIT = 1 - 1e-6
# Longest slab path (km, all periods): its phase stays below PHASE_LIMIT
# (8192 rad) at every energy and density drawn here, where a layer
# accumulates at most 2.54 * (5e-3 / 0.5 + 1.52e-4 * 20) ~ 0.033 rad/km.
MAX_PATH_KM = 2e5
# A compiled slab's path: at most ~410 rad of accumulated phase
MAX_COMPILED_PATH_KM = MAX_PATH_KM / 16

energy_grids = st.lists(st.floats(0.5, 50.0), min_size=1, max_size=4,
                        unique=True).map(lambda es: tuple(sorted(es)))

shared = {
    "energies": energy_grids,
    "angle_mode": st.sampled_from(ANGLE_MODES),
    "theta13_deg": st.floats(0.0, 90.0),
    "theta23_deg": st.floats(0.0, 90.0),
    "dm2_31": st.floats(1e-4, 5e-3),
    "ye": st.floats(0.01, 1.0),
}


@st.composite
def slab_configs(draw, max_layers: int, max_path_km: float, compile: bool):
    periods = draw(st.integers(1, max_layers // 2))
    length = st.floats(0.0, max_path_km / (2 * periods))
    return ScanConfig(scenario="slab", periods=periods, compile=compile,
                      rho1=draw(st.floats(0.0, 20.0)),
                      rho2=draw(st.floats(0.0, 20.0)),
                      dx1_km=draw(length), dx2_km=draw(length),
                      **draw(st.fixed_dictionaries(shared)))


earth_configs = st.fixed_dictionaries(
    {"compile": st.booleans(), **shared}).map(
    lambda fields: ScanConfig(scenario="earth", **fields))


def test_long_double_carries_11_more_bits_than_a_double():
    """Where long double is a double, the reference is no reference:
    this test fails by name instead of the others passing vacuously."""
    assert np.finfo(LONG).eps <= 2.0 ** -63, np.finfo(LONG)


def scan_or_reject(config):
    """The scan of a config inside the trimmed domain, else a rejection."""
    terms = layer_terms(dataclasses.asdict(config), np.array(config.energies))
    assume(all(np.all(arg < ARCSIN_LIMIT) for *_, arg in terms
               if arg is not None))
    try:
        return run_scan(config)
    except NumericalDomainError:        # e.g. the theta = 0 resonance
        assume(False)


def gaps(config, result) -> dict[str, float]:
    """Largest |p - reference| of the oracle and of the circuit."""
    expected = p_mu_e(dataclasses.asdict(config), np.array(config.energies))
    return {name: float(np.max(np.abs(getattr(result, name) - expected)))
            for name in ("p_theory", "p_exact")}


def check(config):
    gap = gaps(config, scan_or_reject(config))
    assert max(gap.values()) <= TOLERANCE, gap


@PROPERTY
@given(slab_configs(2000, MAX_PATH_KM, compile=False))
def test_raw_slab_meets_the_reference(config):
    check(config)


@PROPERTY
@given(slab_configs(200, MAX_COMPILED_PATH_KM, compile=True))
def test_compiled_slab_meets_the_reference(config):
    check(config)


@PROPERTY
@given(earth_configs)
def test_earth_meets_the_reference(config):
    check(config)


# 196 layers whose phases accumulate to 3,016 rad, below PHASE_LIMIT: the
# raw circuit and the oracle stay within 1e-13 of the reference, the
# compiled circuit misses it by 3.1e-12
DRIFTING = dict(scenario="slab", energies=(0.584,), angle_mode="plain",
                theta13_deg=52.0, dm2_31=0.0048, rho1=5.4, rho2=9.9,
                dx1_km=701.0, dx2_km=748.0, periods=98)


@pytest.mark.parametrize("compile", [False, pytest.param(
    True, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: each virtual-Z offset is a double near the "
        "accumulated phase, so every pulse carries up to half its ulp")))])
def test_a_deep_compiled_slab_meets_the_reference(compile):
    """The compiled drift of item 2, pinned where it is three times the
    tolerance; once the offsets carry their phase exactly, the compiled
    case passes, its strict xfail fails, and the marker goes."""
    config = ScanConfig(compile=compile, **DRIFTING)
    gap = gaps(config, run_scan(config))
    assert max(gap.values()) <= TOLERANCE, gap


@pytest.mark.parametrize("cfg", [cfg for cfg, code in OVERFLOWING
                                 if cfg["scenario"] == "slab" and code == 0])
def test_a_scan_past_an_overflowing_intermediate_meets_the_reference(cfg):
    """A long double does not overflow where these doubles do, so the
    reference takes the direct formula the scan had to recompute."""
    config = ScanConfig.from_dict(cfg)
    gap = gaps(config, run_scan(config))
    assert max(gap.values()) <= TOLERANCE, gap
