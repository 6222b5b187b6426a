"""The whole config domain through `nuqsim scan`: every JSON value of
every field ends in exit 0, 2 or 3, never in an escaped exception.

A config error (exit 2) names its field or path.  A numerical-domain
error (exit 3) comes from a combination of fields: it names the grid
point, as "at <energy> GeV", where the scan left the domain, and the
fields to change.
"""
import contextlib
import dataclasses
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nuqsim.cli as cli
from nuqsim.scan import ANGLE_MODES, SCENARIOS, SYNTHESIS_MODES, ScanConfig

FIELDS = [f.name for f in dataclasses.fields(ScanConfig)]
PATHS = ("csv", "svg")

SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 60), st.integers(-10 ** 400, 10 ** 400),
    st.floats(),                       # nan, inf and subnormals included
    st.text(max_size=6))
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4),
    st.fixed_dictionaries({}, optional={"min": SCALARS, "max": SCALARS,
                                        "points": SCALARS}))
# Output paths stay inside the example's directory, so a path field
# draws no string from VALUES.
NOT_A_PATH = VALUES.filter(lambda v: not isinstance(v, str))


def _floats(lo, hi):
    return st.one_of(st.integers(int(lo), int(hi)), st.floats(lo, hi))


# Values of the field's own type and range, most of them valid, so that
# the mixed draws below meet configs that get as far as a scan.
TYPED = {
    "scenario": st.sampled_from(SCENARIOS),
    "energies": st.one_of(
        st.sampled_from(["1:25:3", "0.001:0.05:3", "1e-300:1:2"]),
        st.lists(_floats(1e-3, 30.0), min_size=1, max_size=4),
        st.fixed_dictionaries({"min": _floats(0.0, 2.0),
                               "max": _floats(0.0, 30.0),
                               "points": st.integers(0, 5)})),
    "shots": st.integers(0, 2 ** 63),
    "seed": st.integers(0, 10 ** 400),
    "compile": st.booleans(),
    "synthesis": st.sampled_from(SYNTHESIS_MODES),
    "angle_mode": st.sampled_from(ANGLE_MODES),
    "periods": st.integers(0, 60),
    "restarts": st.integers(1, 10 ** 400),
    "csv": st.sampled_from(["{tmp}/out.csv", "{tmp}/no/dir.csv"]),
    "svg": st.sampled_from(["{tmp}/out.svg", "{tmp}/no/dir.svg"]),
    "dump_circuit": st.booleans(),
}
for _name in ("theta12_deg", "theta13_deg", "theta23_deg"):
    TYPED[_name] = _floats(0.0, 90.0)
for _name in ("dm2_21", "dm2_31", "ye"):
    TYPED[_name] = st.floats(0.0, 1.0)
for _name in ("rho1", "rho2", "production_rho", "dx1_km", "dx2_km"):
    TYPED[_name] = _floats(0.0, 1e4)
assert set(TYPED) == set(FIELDS)


@st.composite
def configs(draw):
    """Typed values for some fields, then mixed JSON values for a few."""
    cfg = draw(st.fixed_dictionaries({}, optional=TYPED))
    cfg.setdefault("scenario", draw(TYPED["scenario"]))
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=3,
                              unique=True)):
        cfg[name] = draw(NOT_A_PATH if name in PATHS else VALUES)
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_exits_0_2_or_3(cfg):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = {k: v.replace("{tmp}", tmp) if k in PATHS and
               isinstance(v, str) else v for k, v in cfg.items()}
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["scan", "--config", path])
    assert code in (0, 2, 3)
    message = err.getvalue()
    if code == 2:
        assert any(repr(name) in message for name in FIELDS) or tmp in message, \
            message
    if code == 3:
        assert " GeV" in message, message
        assert any(repr(name) in message for name in FIELDS), message


# Valid configs whose matter term, beta, layer phase or accumulated phase
# overflows to inf (or, for an inf splitting over a zero-length layer, is
# nan): the scan finishes, or the phase check ends it with exit 3, and no
# numpy floating-point warning reaches stderr.
OVERFLOWING = [
    ({"scenario": "msw", "production_rho": 1e308,
      "energies": [1e300, 1e305]}, 0),
    ({"scenario": "earth", "energies": [5e-324, 1e-300]}, 3),
    ({"scenario": "slab", "energies": [1e308, 1.7e308]}, 3),
    ({"scenario": "slab", "dm2_31": 5e-324, "energies": [1.0, 2.0]}, 3),
    ({"scenario": "slab", "dm2_31": 5e-324, "dx1_km": 0,
      "energies": [1.0, 2.0]}, 3),
    ({"scenario": "slab", "dx1_km": 1.7e308, "energies": "0.001:0.05:3"}, 3),
]


@pytest.mark.parametrize("cfg, code", OVERFLOWING,
                         ids=["msw", "earth", "slab-energy", "slab-dm2",
                              "slab-dm2-zero-length", "slab-length"])
def test_an_overflow_to_inf_prints_no_warning(tmp_path, capsys, cfg, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["scan", "--config", str(path)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("numerical-domain error: ") \
            and err.count("\n") == 1, err
