"""Physics symmetries of two-flavor propagation as metamorphic properties:
two scans whose inputs are related by an exact symmetry must give
related outputs, so no second implementation is needed to check them.

- **Scaling.** The Hamiltonian depends on the energy E only through
  dm2/E and the matter term A, which is proportional to rho E.  So
  (E, dm2) -> (cE, c dm2) leaves every probability unchanged, and so do
  (E, dx, rho) -> (cE, c dx, rho/c) for a slab and
  (E, production_rho) -> (cE, rho/c) for msw.  With c = 2^k each
  product and quotient of the scaled inputs is exact, so the scans must
  agree bit for bit: theory, exact circuit and sampled columns alike.
  Every drawn value stays well inside the normal floats and the config
  bounds after scaling by any c here.
- **Reversal.** Each slab layer's propagator is a symmetric matrix, so
  the reversed profile's product is the transpose and |U_emu| = |U_mue|:
  swapping (rho1, dx1_km) with (rho2, dx2_km) keeps P(nu_mu -> nu_e),
  to rounding.

Each pair of scans must also end alike: both succeed, or both raise a
numerical-domain error naming the same fields (the energy the message
names scales, so it is not compared).
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuqsim.oscillation import NumericalDomainError
from nuqsim.scan import ANGLE_MODES, ScanConfig, run_scan

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                    database=None)
SCALES = st.sampled_from([2.0 ** k for k in (-2, -1, 1, 2, 3)])
COLUMNS = ("p_theory", "p_exact", "p_sampled")
# |P(reversed) - P| allowed for the reversal property, with at most 80
# layers.  Over 300 draws per mode the largest gaps were 1.4e-15 in
# p_theory, 2.3e-15 in raw p_exact and 8.9e-14 in compiled p_exact, whose
# virtual-Z offsets accumulate rounding over the layers.
REVERSAL_TOL = 1e-12
# a slab whose first layer's phase (about 5e4 rad at 0.5 GeV) is past
# oscillation.PHASE_LIMIT: each scan of a pair exits with a domain error
PAST_PHASE_LIMIT = {"energies": [0.5, 1.0], "dm2_31": 1e-2, "rho1": 5.0,
                    "rho2": 10.0, "dx1_km": 1e6, "dx2_km": 1000.0,
                    "periods": 1, "seed": 0}


def grid(lo, hi):
    """1 to 6 ascending energies in [lo, hi] GeV."""
    return st.lists(st.floats(lo, hi), min_size=1, max_size=6,
                    unique=True).map(sorted)


def slab_fields(**extra):
    """The physics fields of a slab scan of at most 80 layers."""
    return st.fixed_dictionaries({
        "energies": grid(0.5, 50.0),
        "dm2_31": st.floats(1e-4, 1e-2),
        "rho1": st.floats(0.0, 20.0), "rho2": st.floats(0.0, 20.0),
        "dx1_km": st.floats(10.0, 3000.0), "dx2_km": st.floats(10.0, 3000.0),
        "periods": st.integers(1, 40),
        "seed": st.integers(0, 2 ** 32), **extra})


def earth_fields():
    return st.fixed_dictionaries({
        "energies": grid(0.5, 50.0), "dm2_31": st.floats(1e-4, 1e-2),
        "angle_mode": st.sampled_from(ANGLE_MODES),
        "seed": st.integers(0, 2 ** 32)})


def msw_fields():
    return st.fixed_dictionaries({
        "energies": grid(1e-4, 0.1), "dm2_21": st.floats(1e-5, 1e-3),
        "production_rho": st.floats(0.0, 300.0),
        "seed": st.integers(0, 2 ** 32)})


def outcome(**fields):
    """The scan's result, or the fields its numerical-domain error names."""
    try:
        return run_scan(ScanConfig(shots=4096, **fields))
    except NumericalDomainError as exc:
        return str(exc).partition("the fields that set")[2]


def scaled(fields, c, names):
    """``fields`` with the energies and each of ``names`` times ``c``."""
    return {**fields, "energies": [c * e for e in fields["energies"]],
            **{name: c * fields[name] for name in names}}


def assert_same(a, b, tol=None):
    """Two outcomes agree: the same error fields, or the columns of
    COLUMNS bit for bit (or, given ``tol``, P within ``tol``)."""
    assert isinstance(a, str) == isinstance(b, str), (a, b)
    if isinstance(a, str):
        assert a == b
    elif tol is None:
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    else:
        for name in ("p_theory", "p_exact"):
            gap = np.abs(getattr(a, name) - getattr(b, name)).max()
            assert gap <= tol, (name, gap)


@pytest.mark.parametrize("angle_mode", ANGLE_MODES)
@pytest.mark.parametrize("compile_", [False, True], ids=["raw", "compiled"])
def test_slab_energy_and_dm2_scale_together(compile_, angle_mode):
    @PROPERTY
    @given(slab_fields(), SCALES)
    @example(PAST_PHASE_LIMIT, 8.0)
    def check(fields, c):
        base = dict(fields, scenario="slab", compile=compile_,
                    angle_mode=angle_mode)
        assert_same(outcome(**base), outcome(**scaled(base, c, ["dm2_31"])))
    check()


@pytest.mark.parametrize("compile_", [False, True], ids=["raw", "compiled"])
def test_slab_energy_length_and_density_scale_together(compile_):
    """(E, dx, rho) -> (cE, c dx, rho/c): the phase dm2 L/E and the
    matter term rho E are both unchanged."""
    @PROPERTY
    @given(slab_fields(angle_mode=st.sampled_from(ANGLE_MODES)), SCALES)
    @example(PAST_PHASE_LIMIT, 0.25)
    def check(fields, c):
        base = dict(fields, scenario="slab", compile=compile_)
        other = scaled(base, c, ["dx1_km", "dx2_km"])
        other.update(rho1=base["rho1"] / c, rho2=base["rho2"] / c)
        assert_same(outcome(**base), outcome(**other))
    check()


@pytest.mark.parametrize("compile_", [False, True], ids=["raw", "compiled"])
def test_earth_energy_and_dm2_scale_together(compile_):
    @PROPERTY
    @given(earth_fields(), SCALES)
    def check(fields, c):
        base = dict(fields, scenario="earth", compile=compile_)
        assert_same(outcome(**base), outcome(**scaled(base, c, ["dm2_31"])))
    check()


@pytest.mark.parametrize("synthesis", ["exact", "optimized"])
def test_msw_energy_and_dm2_scale_together(synthesis):
    @PROPERTY
    @given(msw_fields(), SCALES)
    def check(fields, c):
        base = dict(fields, scenario="msw", synthesis=synthesis)
        assert_same(outcome(**base), outcome(**scaled(base, c, ["dm2_21"])))
    check()


@pytest.mark.parametrize("synthesis", ["exact", "optimized"])
def test_msw_energy_and_production_density_scale_inversely(synthesis):
    @PROPERTY
    @given(msw_fields(), SCALES)
    def check(fields, c):
        base = dict(fields, scenario="msw", synthesis=synthesis)
        other = scaled(base, c, [])
        other["production_rho"] = base["production_rho"] / c
        assert_same(outcome(**base), outcome(**other))
    check()


@pytest.mark.parametrize("angle_mode", ANGLE_MODES)
@pytest.mark.parametrize("compile_", [False, True], ids=["raw", "compiled"])
def test_reversed_slab_keeps_the_appearance_probability(compile_, angle_mode):
    @PROPERTY
    @given(slab_fields())
    @example(PAST_PHASE_LIMIT)
    def check(fields):
        base = dict(fields, scenario="slab", compile=compile_,
                    angle_mode=angle_mode)
        reverse = dict(base, rho1=base["rho2"], dx1_km=base["dx2_km"],
                       rho2=base["rho1"], dx2_km=base["dx1_km"])
        assert_same(outcome(**base), outcome(**reverse), tol=REVERSAL_TOL)
    check()
