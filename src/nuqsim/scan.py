"""Energy scans: theory vs exact-circuit vs shot-sampled probabilities.

A ScanConfig, from a JSON file, CLI flags or Python alike, types and
checks each field in ``__post_init__``.  It selects one of three scenarios:

- ``slab``: periodic two-density profile, single-qubit circuit;
- ``earth``: mantle-core-mantle crossing, single-qubit circuit;
- ``msw``: adiabatic solar survival via the two-qubit dilation, either
  applying the exact 4x4 matrix or running the two-CNOT circuit that
  synthesizes it.

A scan's result holds one array per quantity over its grid: the
analytic oracle value, the exact statevector probability, and a
shot-sampled estimate with its binomial standard error.  A scan runs
its whole energy grid as one batch: one pass of layer parameters,
which a slab or earth scan's circuit and oracle share, one template
circuit (or one stack of dilations) for all points, one simulator
pass, one oracle pass, one ``sample`` call.  Both msw modes apply one
``(n, 4, 4)`` stack: the dilations, or the unitary of the closed-form
template, checked against them in one pass (a point that misses ends
the scan with ``NumericalDomainError``).  ``sample`` draws
point i from seed XOR i, so results do not depend on evaluation order
and CSV output is byte-reproducible for a fixed config and seed.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral, Real
from typing import TYPE_CHECKING

import numpy as np

from .builders import (ENCODED, build_dilation, build_msw_circuit,
                       build_slab_circuit, earth_profile, synthesis_angles)
from .circuits import Circuit
from .oscillation import (MatterLayer, NumericalDomainError, OscParams,
                          SlabProfile, prob_msw_adiabatic, prob_slab,
                          slab_layer_params)
from . import optim
from .optim import meets_tolerance
from .simulator import (apply_matrix, circuit_unitary, init_state,
                        probabilities, run, sample)

if TYPE_CHECKING:
    from .compiler import CompileReport


class ConfigError(ValueError):
    """Invalid scan configuration; messages name the offending field."""


SCENARIOS = ("slab", "earth", "msw")
SYNTHESIS_MODES = ("exact", "optimized")
ANGLE_MODES = ("atmospheric", "plain")

DEFAULT_GRIDS = {
    "slab": (1.0, 25.0, 50),
    "earth": (1.0, 25.0, 50),
    "msw": (0.001, 0.050, 50),
}
# largest shot count a binomial draw takes (its count is an int64)
_MAX_SHOTS = 2 ** 63 - 1
# Work budget, checked before any grid or layer is allocated: at most
# MAX_POINTS energies; a slab scan expands to at most MAX_LAYERS layers
# (2 per period), each three template gates, and to at most
# MAX_LAYER_POINTS layers x energies, the size of its angle and phase
# arrays.
MAX_POINTS = 100_000
MAX_LAYERS = 10_000
MAX_LAYER_POINTS = 1_000_000


def _finite(inside, rule: str):
    """The (test, rule) of a float field: finite, and ``inside``."""
    return (lambda v: math.isfinite(v) and inside(v)), f"finite and {rule}"


def _is_path(value) -> bool:
    """None, or a non-empty path with no NUL that the file system encodes."""
    try:
        return value is None or value != "" and b"\0" not in os.fsencode(value)
    except ValueError:      # a lone surrogate
        return False


_ANGLE = _finite(lambda v: 0.0 <= v <= 90.0, "in [0, 90]")
_POSITIVE = _finite(lambda v: v > 0.0, "> 0")
_NON_NEGATIVE = _finite(lambda v: v >= 0.0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_PATH = (_is_path, "a file path")
# (test, rule) of every ScanConfig field but energies and the two bool
# flags, checked in field order: "field <name>: must be <rule>".
_RULES = {
    "scenario": (lambda v: v in SCENARIOS, f"one of {SCENARIOS}"),
    "shots": (lambda v: 1 <= v <= _MAX_SHOTS, f"in [1, {_MAX_SHOTS}]"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "synthesis": (lambda v: v in SYNTHESIS_MODES, f"one of {SYNTHESIS_MODES}"),
    "angle_mode": (lambda v: v in ANGLE_MODES, f"one of {ANGLE_MODES}"),
    "theta12_deg": _ANGLE, "theta13_deg": _ANGLE, "theta23_deg": _ANGLE,
    "dm2_21": _POSITIVE, "dm2_31": _POSITIVE,
    "ye": _finite(lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "rho1": _NON_NEGATIVE, "rho2": _NON_NEGATIVE,
    "dx1_km": _NON_NEGATIVE, "dx2_km": _NON_NEGATIVE,
    "periods": _AT_LEAST_1, "production_rho": _NON_NEGATIVE,
    "restarts": _AT_LEAST_1, "csv": _PATH, "svg": _PATH,
}

# The fields that set each scan's theta_m and phases, for its domain errors
_DOMAIN_FIELDS = {
    "slab": "theta_m and the phase: 'theta13_deg', 'dm2_31', 'ye', 'rho1', "
            "'rho2', 'dx1_km', 'dx2_km', 'periods', 'energies'",
    "earth": "theta_m and the phase: 'theta13_deg', 'dm2_31', 'ye', "
             "'energies'",
    "msw": "theta_m: 'theta12_deg', 'dm2_21', 'ye', 'production_rho', "
           "'energies'"}


@dataclass(frozen=True)
class ScanConfig:
    """One scan's settings, each field checked when the config is built;
    ``energies`` None selects the scenario's default grid."""

    scenario: str
    energies: tuple[float, ...] | None = None
    shots: int = 4096
    seed: int = 0
    compile: bool = False
    synthesis: str = "exact"
    angle_mode: str = "atmospheric"
    # physics overrides (degrees, eV^2, g/cm^3, km)
    theta12_deg: float = 33.5
    theta13_deg: float = 9.0
    theta23_deg: float = 45.0
    dm2_21: float = 7.5e-5
    dm2_31: float = 2.5e-3
    ye: float = 0.5
    rho1: float = 5.0
    rho2: float = 10.0
    dx1_km: float = 500.0
    dx2_km: float = 1000.0
    periods: int = 5
    production_rho: float = 150.0
    restarts: int = 1000          # validated; no scan reads it
    # outputs
    csv: str | None = None
    svg: str | None = None
    dump_circuit: bool = False

    def __post_init__(self):
        for name in _FIELD_TYPES:
            value = _coerce_field(name, getattr(self, name))
            if value is None and name == "energies":
                value = tuple(np.linspace(*DEFAULT_GRIDS[self.scenario])
                              .tolist())
            object.__setattr__(self, name, value)
            if name in _RULES and not _RULES[name][0](value):
                raise ConfigError(f"field {name!r}: must be {_RULES[name][1]}"
                                  f", got {value!r}")
        layers, n = 2 * self.periods, len(self.energies)
        if self.scenario == "slab" and (layers > MAX_LAYERS or
                                        layers * n > MAX_LAYER_POINTS):
            raise ConfigError(
                f"field 'periods': {layers} layers x {n} energies exceed the "
                f"work budget of {MAX_LAYERS} layers and {MAX_LAYER_POINTS} "
                "layer-points")
        if self.svg is not None and n < 2:
            raise ConfigError("field 'svg': a plot needs at least 2 energies")
        if (self.csv and self.svg and
                os.path.realpath(self.csv) == os.path.realpath(self.svg)):
            raise ConfigError(f"field 'svg': {self.svg!r} is the same file "
                              "as field 'csv'")

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("field 'scenario': required")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "ScanConfig":
        return cls.from_dict(read_json_config(path))


def read_json_config(path: str) -> dict:
    """The fields of a JSON config file, not yet validated."""
    import json     # here, so that a scan driven by flags never loads it
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} line {exc.lineno}: {exc.msg}") from exc
    # not UTF-8, an integer past 4300 digits, or nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return data


# Value type of each field, from its annotation string without " | None"
# (None for energies, parsed on its own), and the fields that allow None.
_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}
_FIELD_TYPES = {f.name: _SCALARS.get(f.type.removesuffix(" | None"))
                for f in fields(ScanConfig)}
_NULLABLE = {f.name for f in fields(ScanConfig)
             if f.type.endswith(" | None")}


def _coerce_field(name: str, value):
    """Check/convert one config value; bad types become ConfigErrors."""
    if value is None:
        if name in _NULLABLE:
            return None
        raise ConfigError(f"field {name!r}: must not be null")
    if name == "energies":
        return _parse_energies(value)
    kind = _FIELD_TYPES[name]
    if kind is int:
        return _json_int(value, f"field {name!r}")
    if kind is float:
        return _json_float(value, f"field {name!r}")
    if not isinstance(value, kind):     # a bool or a str field
        expected = "true/false" if kind is bool else "a string"
        raise ConfigError(f"field {name!r}: expected {expected}, got {value!r}")
    return value


# int and float are tested before the ABCs, whose isinstance is ~10x slower
def _json_int(value, where: str) -> int:
    """An integer of any integral type but bool, as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, Integral)):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _json_float(value, where: str) -> float:
    """A real number of any type but bool that fits a double, as a float."""
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: too large for a double") from None


# the JSON number grammar (RFC 8259): ASCII digits, '-' the only sign
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)((?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)")


def json_number(text: str) -> int | float:
    """``text`` as a JSON parser reads it: an int without a fraction or
    exponent (ValueError past 4300 digits), else a float (+-inf past a
    double's range); ValueError if it is no JSON number."""
    match = _JSON_NUMBER.fullmatch(text)
    if not match:
        raise ValueError(f"not a JSON number: {text!r}")
    return float(text) if match[1] else int(text)


def _parse_energies(spec) -> tuple[float, ...]:
    """The grid of a {min, max, points} object, a 'min:max:n' string (the
    object of its JSON numbers), or a list, tuple or 1-d numpy array of
    real numbers: its count checked before any energy is converted, then
    each energy finite, positive and above the one before."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("field 'energies': expected 'min:max:n'")
        try:    # the {min, max, points} object of its three JSON numbers
            spec = dict(zip(("min", "max", "points"), map(json_number, parts)))
        except ValueError:
            raise ConfigError(f"field 'energies': cannot parse {spec!r}") from None
    if isinstance(spec, dict):
        extra = set(spec) - {"min", "max", "points"}
        if extra:
            raise ConfigError(f"field 'energies': unknown keys {sorted(extra)}")
        try:
            lo, hi, n = spec["min"], spec["max"], spec["points"]
        except KeyError as exc:
            raise ConfigError(f"field 'energies': missing key {exc}") from None
        lo, hi, n = (_json_float(lo, "field 'energies' min"),
                     _json_float(hi, "field 'energies' max"),
                     _json_int(n, "field 'energies' points"))
    elif isinstance(spec, (list, tuple)) or (isinstance(spec, np.ndarray)
                                             and spec.ndim == 1):
        n = len(spec)
    else:
        raise ConfigError("field 'energies': expected 'min:max:n', an object "
                          "{min, max, points}, or a list, tuple or 1-d array "
                          f"of numbers, got {type(spec).__name__}")
    if not 1 <= n <= MAX_POINTS:
        raise ConfigError(f"field 'energies': needs 1 to {MAX_POINTS} "
                          f"points, got {n}")
    if isinstance(spec, dict):
        # an infinite or overflowing span gives inf/nan energies, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            grid = tuple(np.linspace(lo, hi, n).tolist())
    else:
        grid = tuple([_json_float(e, "field 'energies' entry") for e in spec])
    checked = np.array(grid)
    if not (np.isfinite(checked) & (checked > 0)).all():
        raise ConfigError("field 'energies': all energies must be finite "
                          "and positive")
    if (checked[1:] <= checked[:-1]).any():
        raise ConfigError("field 'energies': must be strictly ascending")
    return grid


@dataclass(frozen=True, eq=False)    # array columns: compare by identity
class ScanResult:
    """One ``(n,)`` float64 column per quantity over the ascending grid;
    an msw scan's hold the ``ee`` channel (``channels`` derives ``emu``)."""
    scenario: str
    energy_gev: np.ndarray
    p_theory: np.ndarray
    p_exact: np.ndarray
    p_sampled: np.ndarray
    stderr: np.ndarray
    # the template circuit the scan executed (None for msw exact mode)
    circuit: Circuit | None = None
    # the virtual-Z report of a compiled slab/earth scan
    report: CompileReport | None = None
    # the (n, 4, 4) dilation stack msw exact mode applied
    dilation: np.ndarray | None = None

    def __post_init__(self):
        """Refuse a column that is not a 1-D float64 array with one value
        per energy, and a grid that is not strictly ascending."""
        grid = np.shape(self.energy_gev)
        for name in "energy_gev p_theory p_exact p_sampled stderr".split():
            column = getattr(self, name)
            got = np.shape(column)
            if len(got) != 1 or got != grid:
                raise ValueError(f"column {name!r}: must be 1-D, of the "
                                 f"grid's shape {grid}, got {got}")
            dtype = getattr(column, "dtype", type(column).__name__)
            if dtype != np.float64:
                raise ValueError(f"column {name!r}: must be a float64 array, "
                                 f"got {dtype}")
        if not (self.energy_gev[1:] > self.energy_gev[:-1]).all():
            raise ValueError("column 'energy_gev': must be strictly ascending")

    def channels(self) -> list[tuple]:
        """``(channel, p_theory, p_exact, p_sampled, stderr)`` columns per
        channel: ``None`` for slab/earth; for msw ``"ee"``, then ``"emu"``,
        its complement ``1 - ee`` from the same measurement and stderr."""
        ee = (self.p_theory, self.p_exact, self.p_sampled)
        if self.scenario != "msw":
            return [(None, *ee, self.stderr)]
        return [("ee", *ee, self.stderr),
                ("emu", *(1.0 - col for col in ee), self.stderr)]

    def blocks(self, row: str, sep: str, values: int):
        """Every row as text, in blocks of EMIT_ROWS energies: the %-template
        ``row`` filled with the energy and the first ``values`` columns of
        each channel; an msw row ends in ``sep`` and its channel."""
        channels = self.channels()
        template = "\n".join(row if channel is None else f"{row}{sep}{channel}"
                             for channel, *_ in channels)
        columns = [col for _, *cols in channels
                   for col in (self.energy_gev, *cols[:values])]
        for start in range(0, len(self.energy_gev), EMIT_ROWS):
            block = [col[start:start + EMIT_ROWS].tolist() for col in columns]
            yield ("\n".join([template] * len(block[0])) %
                   tuple(chain.from_iterable(zip(*block))))


def slab_profile_from_config(config: ScanConfig) -> SlabProfile:
    return SlabProfile(
        (MatterLayer(config.rho1, config.ye, config.dx1_km),
         MatterLayer(config.rho2, config.ye, config.dx2_km)),
        period_count=config.periods)


def msw_setup(config: ScanConfig) -> tuple[OscParams, MatterLayer]:
    """1-2 sector parameters and production layer of an msw scan."""
    return (OscParams(math.radians(config.theta12_deg), config.dm2_21),
            MatterLayer(config.production_rho, config.ye, 0.0))


def _single_qubit_setup(config: ScanConfig):
    p = OscParams(math.radians(config.theta13_deg), config.dm2_31)
    profile = (earth_profile(config.ye) if config.scenario == "earth"
               else slab_profile_from_config(config))
    th23 = (math.radians(config.theta23_deg)
            if config.angle_mode == "atmospheric" else None)
    return p, profile, th23


def run_scan(config: ScanConfig) -> ScanResult:
    energies = np.array(config.energies)
    msw = config.scenario == "msw"
    circuit = report = dilation = None
    try:
        if msw:
            p, layer = msw_setup(config)
            u2q = build_dilation(p, layer, energies)
        else:
            p, profile, th23 = _single_qubit_setup(config)
            angles, phases = slab_layer_params(p, profile, energies, th23)
    except NumericalDomainError as exc:
        raise NumericalDomainError(
            f"{exc}; the fields that set {_DOMAIN_FIELDS[config.scenario]}"
        ) from None
    if not msw:
        circuit = build_slab_circuit(angles, phases)
        if config.compile:
            from .compiler import virtual_z_pass    # only this scan needs it
            circuit, report = virtual_z_pass(circuit)
        states, measured = run(circuit)
        qubit = measured[0]
        theory = prob_slab(profile, angles, phases)
    else:
        unitary = dilation = u2q
        if config.synthesis == "optimized":
            # the closed-form template's unitary, checked for every point
            circuit = build_msw_circuit(synthesis_angles(u2q))
            unitary, dilation = circuit_unitary(circuit), None
            infidelity = meets_tolerance(u2q, unitary)
            miss = np.flatnonzero(~(infidelity <= optim.TOL_INFIDELITY))
            if miss.size:
                i = int(miss[0])
                raise NumericalDomainError(
                    f"optimized synthesis at {config.energies[i]!r} GeV misses "
                    f"the tolerance: 1-F = {infidelity[i]:.3g} > "
                    f"{optim.TOL_INFIDELITY:g}")
        states = apply_matrix(init_state(2), unitary)
        qubit, theory = ENCODED, prob_msw_adiabatic(p, layer, energies)[0]
    exact, p1 = probabilities(states, qubit)
    shots = config.shots
    # Python-int division, correctly rounded past 2**53 shots
    p_sampled = np.array([(shots - k) / shots for k in
                          sample(p1, shots, config.seed).tolist()])
    return ScanResult(config.scenario, energies, theory, exact,
                      p_sampled, np.sqrt(p_sampled * (1.0 - p_sampled) / shots),
                      circuit=circuit, report=report, dilation=dilation)


# --- CSV ----------------------------------------------------------------------

CSV_HEADER = "energy_gev,p_theory,p_exact,p_sampled,stderr"
# Energies per block of CSV, table or SVG-marker rows, each block formed
# in one pass and written as it is formed (an SVG polyline is formed whole).
EMIT_ROWS = 256


def emit_csv(result: ScanResult, path: str) -> str:
    """The header, then ``result.blocks`` of repr() floats (exact)."""
    header = CSV_HEADER + (",channel" if result.scenario == "msw" else "")
    return _write(path, chain(
        [header], result.blocks(",".join(["%r"] * 5), ",", 4)), "CSV")


def _write(path: str, items, kind: str) -> str:
    """Write each text item (a line or a block of lines) and a newline
    as the iterable yields it."""
    try:
        with open(path, "w", newline="\n") as fh:
            for item in items:
                fh.write(item)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {kind} {path}: {exc}") from exc
    return path


# --- SVG ----------------------------------------------------------------------

_COLORS = ("#1f77b4", "#d62728")
_CHANNEL_LABELS = {None: "P(nu_mu -> nu_e)", "ee": "P(nu_e -> nu_e)",
                   "emu": "P(nu_e -> nu_mu)"}
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 24, 20, 56


def _channel_svg(e, theory, p, err, color: str, sx, sy):
    """Yield a channel's theory polyline, then its markers with error
    bars in blocks of EMIT_ROWS, from its ascending-energy columns.

    Each coordinate column of a block (x, the clipped error-bar ends
    and x +- 3, y +- 3) is formatted once with %.2f, and each marker's
    three lines are one f-string of those strings; the polyline reuses
    the x strings.
    """
    mx, my = sx(e), sy(p)
    xs = _fixed2(mx)
    points = " ".join(map(",".join, zip(xs, _fixed2(sy(theory)))))
    yield (f'<polyline points="{points}" fill="none" stroke="{color}" '
           'stroke-width="1.5"/>')
    ends = (sy(np.maximum(p - err, 0.0)), sy(np.minimum(p + err, 1.0)),
            mx - 3, mx + 3, my - 3, my + 3)
    for start in range(0, len(mx), EMIT_ROWS):
        rows = slice(start, start + EMIT_ROWS)
        # per marker: its error bar, then the two strokes of its cross
        yield "\n".join(
            f'<line x1="{x}" y1="{low}" x2="{x}" y2="{high}" '
            f'stroke="{color}" stroke-width="1"/>\n'
            f'<line x1="{left}" y1="{top}" x2="{right}" y2="{bottom}" '
            f'stroke="{color}" stroke-width="1.2"/>\n'
            f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{top}" '
            f'stroke="{color}" stroke-width="1.2"/>'
            for x, low, high, left, right, top, bottom in zip(
                xs[rows], *(_fixed2(col[rows]) for col in ends)))


def _fixed2(col: np.ndarray) -> list[str]:
    """Each value of a float64 column as %.2f text."""
    return ("%.2f " * len(col) % tuple(col.tolist())).split()


def emit_plot(result: ScanResult, path: str) -> str:
    """Standalone SVG: theory polyline, sampled markers with error bars.

    Byte-deterministic for a fixed ScanResult (fixed-precision
    coordinates, no timestamps or generated ids).
    """
    if len(result.energy_gev) < 2:
        raise ValueError("plot needs at least 2 energy points")
    emin, emax = result.energy_gev[[0, -1]].tolist()

    # plot coordinates of energies and probabilities, floats or float64
    # arrays alike (same operations, same bits)
    def sx(e):
        return _ML + (e - emin) / (emax - emin) * (_W - _ML - _MR)

    def sy(prob):
        return _MT + (1.0 - prob) * (_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # axes
    x0, x1, y0, y1 = _ML, _W - _MR, _H - _MB, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 'stroke="black" stroke-width="1"/>')
    for tick in np.linspace(emin, emax, 6):
        tx = sx(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" '
                     f'y2="{y0 + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.2f}" y="{y0 + 20}" font-size="12" '
                     f'text-anchor="middle">{tick:g}</text>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        ty = sy(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" '
                     f'y2="{ty:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 9}" y="{ty + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{tick:g}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 14}" font-size="14" '
                 'text-anchor="middle">Energy [GeV]</text>')
    parts.append(f'<text x="18" y="{(y0 + y1) / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{(y0 + y1) / 2:.2f})">Probability</text>')

    def channel_lines():
        for c_idx, (channel, theory, _, p, err) in enumerate(
                result.channels()):
            color = _COLORS[c_idx]
            yield from _channel_svg(result.energy_gev, theory, p, err, color,
                                    sx, sy)
            yield (f'<text x="{x1 - 6}" y="{y1 + 16 + 16 * c_idx}" '
                   f'font-size="12" text-anchor="end" '
                   f'fill="{color}">{_CHANNEL_LABELS[channel]}</text>')
        yield "</svg>"

    return _write(path, chain(parts, channel_lines()), "SVG")
