"""Energy scans: theory vs exact-circuit vs shot-sampled probabilities.

A ScanConfig (JSON file and/or CLI flags) selects one of three
scenarios:

- ``slab``: periodic two-density profile, single-qubit circuit;
- ``earth``: mantle-core-mantle crossing, single-qubit circuit;
- ``msw``: adiabatic solar survival via the two-qubit dilation, either
  applying the exact 4x4 matrix or running the two-CNOT circuit that
  synthesizes it.

A scan's result holds one array per quantity over its grid: the
analytic oracle value, the exact statevector probability, and a
shot-sampled estimate with its binomial standard error.  A scan runs
its whole energy grid as one batch: one template circuit (or one
stack of dilations) for all points, one simulator pass, one oracle
pass, one ``sample`` call; msw optimized mode checks the closed-form
angles of all points in one pass, and a point they miss ends the scan
with ``NumericalDomainError``.  ``sample`` draws point i from seed XOR
i, so results do not depend on evaluation order and CSV output is
byte-reproducible for a fixed config and seed.
"""
from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np

from .builders import (ENCODED, build_dilation, build_msw_circuit,
                       build_slab_circuit, earth_profile, synthesis_angles)
from .circuits import Circuit
from .compiler import CompileReport, virtual_z_pass
from .oscillation import (MatterLayer, NumericalDomainError, OscParams,
                          SlabProfile, prob_msw_adiabatic, prob_slab)
from . import optim
from .optim import meets_tolerance
from .simulator import apply_matrix, init_state, probabilities, run, sample


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


_ANGLE = (lambda v: 0.0 <= v <= 90.0, "in [0, 90]")
_POSITIVE = (lambda v: v > 0.0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0.0, ">= 0")
# Physical domain (test, description) of every float field of ScanConfig.
_DOMAINS = {
    "theta12_deg": _ANGLE, "theta13_deg": _ANGLE, "theta23_deg": _ANGLE,
    "dm2_21": _POSITIVE, "dm2_31": _POSITIVE,
    "ye": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "rho1": _NON_NEGATIVE, "rho2": _NON_NEGATIVE,
    "production_rho": _NON_NEGATIVE,
    "dx1_km": _NON_NEGATIVE, "dx2_km": _NON_NEGATIVE,
}

# The fields that set a single-qubit scan's phases, for its precision error
_PHASE_FIELDS = {"slab": "'dm2_31', 'dx1_km', 'dx2_km', 'periods', 'energies'",
                 "earth": "'dm2_31', 'energies'"}


@dataclass(frozen=True)
class ScanConfig:
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
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"field 'scenario': must be one of {SCENARIOS}, "
                              f"got {self.scenario!r}")
        energies = (np.linspace(*DEFAULT_GRIDS[self.scenario])
                    if self.energies is None else self.energies)
        grid = np.fromiter(map(float, energies), float)
        object.__setattr__(self, "energies", tuple(grid.tolist()))
        if not 1 <= grid.size <= MAX_POINTS:
            raise ConfigError(f"field 'energies': needs 1 to {MAX_POINTS} "
                              f"points, got {grid.size}")
        if not (np.isfinite(grid) & (grid > 0)).all():
            raise ConfigError("field 'energies': all energies must be finite "
                              "and positive")
        if (grid[1:] <= grid[:-1]).any():
            raise ConfigError("field 'energies': must be strictly ascending")
        if not 1 <= self.shots <= _MAX_SHOTS:
            raise ConfigError(f"field 'shots': must be in [1, {_MAX_SHOTS}], "
                              f"got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"field 'seed': must be >= 0, got {self.seed}")
        if self.synthesis not in SYNTHESIS_MODES:
            raise ConfigError(f"field 'synthesis': must be one of "
                              f"{SYNTHESIS_MODES}, got {self.synthesis!r}")
        if self.angle_mode not in ANGLE_MODES:
            raise ConfigError(f"field 'angle_mode': must be one of "
                              f"{ANGLE_MODES}, got {self.angle_mode!r}")
        if self.periods < 1:
            raise ConfigError(f"field 'periods': must be >= 1, got {self.periods}")
        layers, n = 2 * self.periods, len(self.energies)
        if self.scenario == "slab" and (layers > MAX_LAYERS or
                                        layers * n > MAX_LAYER_POINTS):
            raise ConfigError(
                f"field 'periods': {layers} layers x {n} energies exceed the "
                f"work budget of {MAX_LAYERS} layers and {MAX_LAYER_POINTS} "
                "layer-points")
        if self.restarts < 1:
            raise ConfigError(f"field 'restarts': must be >= 1, got {self.restarts}")
        for name, (inside, rule) in _DOMAINS.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and inside(value)):
                raise ConfigError(f"field {name!r}: must be finite and {rule}, "
                                  f"got {value!r}")
        for name in ("csv", "svg"):
            if getattr(self, name) == "":
                raise ConfigError(f"field {name!r}: must be a file path, "
                                  "got ''")
        if self.svg is not None and len(self.energies) < 2:
            raise ConfigError("field 'svg': a plot needs at least 2 energies")
        if (self.csv and self.svg and
                os.path.realpath(self.csv) == os.path.realpath(self.svg)):
            raise ConfigError(f"field 'svg': {self.svg!r} is the same file "
                              "as field 'csv'")

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        data = {k: _coerce_field(k, v) for k, v in data.items()}
        if "scenario" not in data:
            raise ConfigError("field 'scenario': required")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "ScanConfig":
        return cls.from_dict(read_json_config(path))


def read_json_config(path: str) -> dict:
    """The fields of a JSON config file, not yet validated."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:    # not UTF-8, or an integer past 4300 digits
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return data


# Value type of each field, from its annotation with any "| None" dropped,
# and the fields whose annotation allows None.
_HINTS = typing.get_type_hints(ScanConfig)
_FIELD_TYPES = {name: (typing.get_args(hint) or (hint,))[0]
                for name, hint in _HINTS.items()}
_NULLABLE = {name for name, hint in _HINTS.items()
             if type(None) in typing.get_args(hint)}


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
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"field {name!r}: expected true/false, "
                              f"got {value!r}")
        return value
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"field {name!r}: expected a string, got {value!r}")
    return value


def _json_int(value, where: str) -> int:
    """A JSON integer (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _json_float(value, where: str) -> float:
    """A JSON number (not a bool or string) that fits a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: too large for a double") from None


def _parse_energies(spec) -> tuple[float, ...]:
    """Energy grid from a list, a {min,max,points} object, or 'min:max:n'."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("field 'energies': expected 'min:max:n'")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"field 'energies': cannot parse {spec!r}") from None
        return _linspace(lo, hi, n)
    if isinstance(spec, dict):
        extra = set(spec) - {"min", "max", "points"}
        if extra:
            raise ConfigError(f"field 'energies': unknown keys {sorted(extra)}")
        try:
            lo, hi, n = spec["min"], spec["max"], spec["points"]
        except KeyError as exc:
            raise ConfigError(f"field 'energies': missing key {exc}") from None
        return _linspace(_json_float(lo, "field 'energies' min"),
                         _json_float(hi, "field 'energies' max"),
                         _json_int(n, "field 'energies' points"))
    if isinstance(spec, (list, tuple)):
        return tuple(_json_float(e, "field 'energies' entry") for e in spec)
    raise ConfigError("field 'energies': expected list, object, or 'min:max:n'")


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n evenly spaced energies, with n checked before they are allocated."""
    if not 1 <= n <= MAX_POINTS:
        raise ConfigError(f"field 'energies': n must be in [1, {MAX_POINTS}], "
                          f"got {n}")
    return tuple(np.linspace(lo, hi, n).tolist())


@dataclass(frozen=True, eq=False)    # array columns: compare by identity
class ScanResult:
    """One ``(n,)`` float64 column per quantity over the ascending grid;
    an msw scan's hold the ``ee`` channel (``channels`` derives ``emu``)."""
    scenario: str
    shots: int
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

    def channels(self) -> list[tuple]:
        """``(channel, p_theory, p_exact, p_sampled, stderr)`` columns per
        channel: ``None`` for slab/earth; for msw ``"ee"``, then ``"emu"``,
        its complement ``1 - ee`` from the same measurement and stderr."""
        ee = (self.p_theory, self.p_exact, self.p_sampled)
        if self.scenario != "msw":
            return [(None, *ee, self.stderr)]
        return [("ee", *ee, self.stderr),
                ("emu", *(1.0 - col for col in ee), self.stderr)]

    def rows(self):
        """``(energy, channel, p_theory, p_exact, p_sampled, stderr)`` as
        Python floats, per energy one row per channel."""
        energy = self.energy_gev.tolist()
        return chain.from_iterable(zip(*(
            zip(energy, repeat(channel), *(col.tolist() for col in cols))
            for channel, *cols in self.channels())))


def slab_profile_from_config(config: ScanConfig) -> SlabProfile:
    return SlabProfile(
        (MatterLayer(config.rho1, config.ye, config.dx1_km),
         MatterLayer(config.rho2, config.ye, config.dx2_km)),
        period_count=config.periods)


def msw_setup(config: ScanConfig) -> tuple[OscParams, MatterLayer]:
    """1-2 sector parameters and production layer of an msw scan."""
    return (OscParams(math.radians(config.theta12_deg), config.dm2_21),
            MatterLayer(config.production_rho, config.ye, 0.0))


def _fitted_angles(config: ScanConfig, u2q: np.ndarray) -> np.ndarray:
    """Closed-form two-CNOT angles of a dilation stack, ``(n, 6)``, checked
    for the whole grid in one pass; a point whose 1 - F exceeds
    ``optim.TOL_INFIDELITY`` raises."""
    angles = synthesis_angles(u2q)
    infidelity = meets_tolerance(u2q, angles)
    miss = np.flatnonzero(~(infidelity <= optim.TOL_INFIDELITY))
    if miss.size:
        i = int(miss[0])
        raise NumericalDomainError(
            f"optimized synthesis at {config.energies[i]!r} GeV misses the "
            f"tolerance: 1-F = {infidelity[i]:.3g} > {optim.TOL_INFIDELITY:g}")
    return angles


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
    report = dilation = None
    if not msw:
        p, profile, th23 = _single_qubit_setup(config)
        try:
            circuit = build_slab_circuit(p, profile, energies, theta23=th23)
        except NumericalDomainError as exc:
            raise NumericalDomainError(
                f"{exc}; the fields that set the phase: "
                f"{_PHASE_FIELDS[config.scenario]}") from None
        if config.compile:
            circuit, report = virtual_z_pass(circuit)
        states, measured = run(circuit)
        qubit = measured[0]
        theory = prob_slab(p, profile, energies, "mu", th23)
    else:
        p, layer = msw_setup(config)
        u2q = build_dilation(p, layer, energies)
        if config.synthesis == "exact":
            circuit, dilation = None, u2q
            states = apply_matrix(init_state(2), dilation)
        else:
            circuit = build_msw_circuit(_fitted_angles(config, u2q))
            states, _ = run(circuit)
        qubit = ENCODED
        theory = prob_msw_adiabatic(p, layer, energies)[0]
    exact, p1 = probabilities(states, qubit)
    shots = config.shots
    # Python-int division, correctly rounded past 2**53 shots
    p_sampled = np.array([(shots - k) / shots for k in
                          sample(p1, shots, config.seed).tolist()])
    return ScanResult(config.scenario, shots, energies, theory, exact,
                      p_sampled, np.sqrt(p_sampled * (1.0 - p_sampled) / shots),
                      circuit=circuit, report=report, dilation=dilation)


# --- CSV ----------------------------------------------------------------------

CSV_HEADER = "energy_gev,p_theory,p_exact,p_sampled,stderr"
# Rows of a CSV or SVG block: one %-format each, written one at a time,
# so a wide scan's text is never held whole.
EMIT_ROWS = 256


def emit_csv(result: ScanResult, path: str) -> str:
    """One row per energy and channel; repr() floats round-trip exactly.

    Each block of EMIT_ROWS energies is one %r template filled from
    column slices, its channels interleaved per energy.
    """
    channels = result.channels()
    with_channel = result.scenario == "msw"
    row = ",".join(["%r"] * 5)
    template = "\n".join(f"{row},{channel}" if with_channel else row
                         for channel, *_ in channels)
    columns = [col for _, *cols in channels
               for col in (result.energy_gev, *cols)]
    blocks = (_fill(template, [col[start:start + EMIT_ROWS].tolist()
                               for col in columns])
              for start in range(0, len(result.energy_gev), EMIT_ROWS))
    return _write(path, chain(
        [CSV_HEADER + (",channel" if with_channel else "")], blocks), "CSV")


def _fill(template: str, columns: list) -> str:
    """``template`` once per row of the equal-length ``columns``, each
    copy filled with its row's values in column order, joined by
    newlines."""
    return ("\n".join([template] * len(columns[0])) %
            tuple(chain.from_iterable(zip(*columns))))


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

    Each distinct coordinate column of a block (x, x +- 3, y +- 3 and
    the clipped error-bar ends) is formatted once with %.2f, and each
    marker's three lines are one template filled with those strings;
    the polyline reuses the x strings.
    """
    mx, my = sx(e), sy(p)
    xs = _fixed2(mx)
    points = " ".join(map(",".join, zip(xs, _fixed2(sy(theory)))))
    yield (f'<polyline points="{points}" fill="none" stroke="{color}" '
           'stroke-width="1.5"/>')
    # per marker: its error bar, then the two strokes of its cross
    marker = "\n".join(f'<line x1="%s" y1="%s" x2="%s" y2="%s" '
                       f'stroke="{color}" stroke-width="{width}"/>'
                       for width in ("1", "1.2", "1.2"))
    lo, hi = sy(np.maximum(p - err, 0.0)), sy(np.minimum(p + err, 1.0))
    for start in range(0, len(mx), EMIT_ROWS):
        rows = slice(start, start + EMIT_ROWS)
        x, m, y = xs[rows], mx[rows], my[rows]
        left, right, top, bottom, low, high = map(_fixed2, (
            m - 3, m + 3, y - 3, y + 3, lo[rows], hi[rows]))
        yield _fill(marker, [x, low, x, high, left, top, right, bottom,
                             left, bottom, right, top])


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
