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

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nuqsim.cli as cli
from nuqsim.scan import (ANGLE_MODES, SCENARIOS, SYNTHESIS_MODES, ConfigError,
                         ScanConfig, run_scan)

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
    # a NUL byte and a lone surrogate, which no file system path holds
    "csv": st.sampled_from(["{tmp}/out.csv", "{tmp}/no/dir.csv",
                            "{tmp}/a\x00.csv", "{tmp}/x\ud800.csv"]),
    "svg": st.sampled_from(["{tmp}/out.svg", "{tmp}/no/dir.svg",
                            "{tmp}/b\x00.svg", "{tmp}/y\ud800.svg"]),
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


def _in_dir(cfg, tmp):
    """The config with ``{tmp}`` in its path fields replaced by ``tmp``."""
    return {k: v.replace("{tmp}", tmp) if k in PATHS and isinstance(v, str)
            else v for k, v in cfg.items()}


# The examples: an output path that no file system takes, in a config
# valid otherwise, so that the scan gets as far as the path, which few of
# the drawn configs do.
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example({"scenario": "earth", "csv": "{tmp}/a\x00.csv"})
@example({"scenario": "earth", "csv": "{tmp}/a\x00.csv",
          "svg": "{tmp}/out.svg"})
@example({"scenario": "slab", "svg": "{tmp}/b\x00.svg"})
@example({"scenario": "msw", "csv": "{tmp}/x\ud800.csv"})
@given(configs())
def test_every_config_exits_0_2_or_3(cfg):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _in_dir(cfg, tmp)
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


# Every field's valid range, bounded only where a scan's cost grows with
# the value (periods, and the grid of at most 4 points, as a list).
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
IN_RANGE = {
    "scenario": st.sampled_from(SCENARIOS),
    "shots": st.integers(1, 2 ** 63 - 1),
    "seed": st.integers(0, 10 ** 40),
    "compile": st.booleans(),
    "synthesis": st.sampled_from(SYNTHESIS_MODES),
    "angle_mode": st.sampled_from(ANGLE_MODES),
    "dm2_21": POSITIVE, "dm2_31": POSITIVE,
    "ye": st.floats(0.0, 1.0, exclude_min=True),
    "periods": st.integers(1, 60),
    "restarts": st.integers(1, 10 ** 40),
    "csv": st.just("{tmp}/out.csv"),
    "dump_circuit": st.booleans(),
}
for _name in ("theta12_deg", "theta13_deg", "theta23_deg"):
    IN_RANGE[_name] = _floats(0.0, 90.0)
for _name in ("rho1", "rho2", "production_rho", "dx1_km", "dx2_km"):
    IN_RANGE[_name] = st.floats(0.0, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """A config with every field in its range: a few fields drawn, the
    others left at their defaults, and an ascending grid; an SVG only
    for a grid of at least 2 points."""
    cfg = draw(st.fixed_dictionaries({}, optional=IN_RANGE))
    cfg.setdefault("scenario", draw(IN_RANGE["scenario"]))
    cfg["energies"] = sorted(draw(st.lists(POSITIVE, min_size=1, max_size=4,
                                           unique=True)))
    if len(cfg["energies"]) > 1 and draw(st.booleans()):
        cfg["svg"] = "{tmp}/out.svg"
    return cfg


# The examples: exact resonance at zero mixing, where theta_m is undefined
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example({"scenario": "slab", "theta13_deg": 0,
          "energies": [6.607726044341603]})
@example({"scenario": "earth", "theta13_deg": 0,
          "energies": [6.607726044341603]})
@example({"scenario": "msw", "theta12_deg": 0,
          "energies": [0.006607726044341601]})
@given(valid_configs())
def test_every_valid_config_exits_0_or_3(cfg):
    """A config inside every field's range is never a config error: it
    scans (exit 0) or leaves the numerical domain (exit 3), naming the
    energy and the fields to change."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(_in_dir(cfg, tmp), fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["scan", "--config", path])
    message = err.getvalue()
    assert code in (0, 3), message
    if code == 3:
        assert " GeV" in message, message
        assert any(repr(name) in message for name in FIELDS), message


def _built(build, cfg):
    """The config ``build`` returns, or the message of its ConfigError."""
    try:
        return build(cfg)
    except ConfigError as exc:
        return str(exc)


# The examples: the values a Python call took otherwise than JSON did
# (accepted, refused with another exception, or parsed differently).
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example({"scenario": "slab", "energies": [1.0, 2.0], "shots": 3.5})
@example({"scenario": "slab", "energies": [1.0, 2.0], "shots": True})
@example({"scenario": "slab", "energies": [1.0, 2.0], "compile": "no"})
@example({"scenario": "slab", "energies": [1.0, 2.0], "rho1": True})
@example({"scenario": "slab", "energies": [1.0, 2.0], "periods": 2.0})
@example({"scenario": "slab", "energies": [1.0, 2.0], "seed": 1.5})
@example({"scenario": "slab", "energies": [1.0, 2.0], "periods": "3"})
@example({"scenario": "slab", "energies": [1.0, 2.0], "ye": "0.5"})
@example({"scenario": "slab", "energies": [1.0, 2.0], "shots": None})
@example({"scenario": "slab", "energies": "1:25:3"})
@example({"scenario": "slab", "energies": ["4.25"]})
@given(configs())
def test_a_python_config_takes_the_json_path(cfg):
    """``ScanConfig(**cfg)`` and ``ScanConfig.from_dict(cfg)`` both raise
    a ConfigError with the same message, or build equal configs."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _in_dir(cfg, tmp)
        assert (_built(lambda fields: ScanConfig(**fields), cfg) ==
                _built(ScanConfig.from_dict, cfg))


# Valid configs whose matter term, beta, layer phase or accumulated phase
# overflows to inf on the way: the scan finishes, or the phase check ends
# it with exit 3, and no numpy floating-point warning reaches stderr.  The
# three slab configs that exit 0 overflow only in an intermediate
# (beta = A / dm2, or dm2_m * dx before the division by E, or an inf
# dm2_m over a zero length); their true layer phases are 0 to 2 rad.
OVERFLOWING = [
    ({"scenario": "msw", "production_rho": 1e308,
      "energies": [1e300, 1e305]}, 0),
    ({"scenario": "earth", "energies": [5e-324, 1e-300]}, 3),
    ({"scenario": "slab", "energies": [1e308, 1.7e308]}, 0),
    ({"scenario": "slab", "dm2_31": 5e-324, "energies": [1.0, 2.0]}, 0),
    ({"scenario": "slab", "dm2_31": 5e-324, "dx1_km": 0,
      "energies": [1.0, 2.0]}, 0),
    ({"scenario": "slab", "dx1_km": 1.7e308, "energies": "0.001:0.05:3"}, 3),
    ({"scenario": "slab", "rho1": 1e308, "dx1_km": 1e-310,
      "energies": [1e10]}, 0),
]


@pytest.mark.parametrize("cfg, code", OVERFLOWING,
                         ids=["msw", "earth", "slab-energy", "slab-dm2",
                              "slab-dm2-zero-length", "slab-length",
                              "slab-matter"])
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


@pytest.mark.parametrize("cfg", [cfg for cfg, code in OVERFLOWING
                                 if cfg["scenario"] == "slab" and code == 0],
                         ids=["slab-energy", "slab-dm2", "slab-dm2-zero-length",
                              "slab-matter"])
def test_a_scan_past_an_overflowing_intermediate_meets_its_oracle(cfg):
    result = run_scan(ScanConfig.from_dict(cfg))
    assert np.all(np.abs(result.p_exact - result.p_theory) <= 1e-12)


@pytest.mark.parametrize("argv", [
    # JSON numbers past a double's range: an infinite span ('inf' itself
    # is no JSON number, so cannot be parsed)
    ["--scenario", "slab", "--energies=-1e400:1e400:3"],
    ["--scenario", "slab", "--energies=1e308:-1e308:3"],
    ["--config", {"scenario": "earth",
                  "energies": {"min": -1e308, "max": 1e308, "points": 4}}],
], ids=["inf-span", "overflowing-span", "overflowing-object"])
def test_an_invalid_energy_span_prints_one_config_error(tmp_path, capsys, argv):
    """An infinite or overflowing min:max span ends in exit 2 with the
    'energies' message alone: no numpy warning reaches stderr, even with
    warnings shown, and none escapes as an exception with them as errors."""
    if isinstance(argv[-1], dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(path)]
    for action in ("always", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert cli.main(["scan", *argv]) == 2
        assert capsys.readouterr().err == (
            "config error: field 'energies': all energies must be finite "
            "and positive\n")
