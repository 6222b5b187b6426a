"""Energy scans: theory vs exact-circuit vs shot-sampled probabilities.

A ScanConfig (JSON file and/or CLI flags) selects one of three
scenarios:

- ``slab``: periodic two-density profile, single-qubit circuit;
- ``earth``: mantle-core-mantle crossing, single-qubit circuit;
- ``msw``: adiabatic solar survival via the two-qubit dilation, either
  applying the exact 4x4 matrix or a freshly optimized two-CNOT
  circuit per grid point.

Each grid point records the analytic oracle value, the exact
statevector probability, and a shot-sampled estimate with its binomial
standard error.  A scan runs its whole energy grid as one batch: one
template circuit (or one stack of dilations) for all points, one
simulator pass, one oracle pass, one ``sample`` call.  Only the
per-point optimizer fits of msw optimized mode run point by point.
``sample`` draws point i from seed XOR i, so results do not depend on
evaluation order and CSV output is byte-reproducible for a fixed
config and seed.
"""
from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields

import numpy as np

from .builders import (ENCODED, DilationSet, build_dilation,
                       build_msw_circuit, build_slab_circuit, earth_profile,
                       synthesis_angles)
from .circuits import Circuit
from .compiler import CompileReport, virtual_z_pass
from .oscillation import (MatterLayer, NumericalDomainError, OscParams,
                          SlabProfile, effective_params, prob_msw_adiabatic,
                          prob_slab)
from .optim import FidelityProblem, optimize
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
    restarts: int = 1000
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
        object.__setattr__(self, "energies", tuple(float(e) for e in energies))
        if not 1 <= len(self.energies) <= MAX_POINTS:
            raise ConfigError(f"field 'energies': needs 1 to {MAX_POINTS} "
                              f"points, got {len(self.energies)}")
        if not all(math.isfinite(e) and e > 0 for e in self.energies):
            raise ConfigError("field 'energies': all energies must be finite "
                              "and positive")
        if any(b <= a for a, b in zip(self.energies, self.energies[1:])):
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
        if self.svg is not None and len(self.energies) < 2:
            raise ConfigError("field 'svg': a plot needs at least 2 energies")

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
    return tuple(np.linspace(lo, hi, n))


@dataclass(frozen=True)
class ScanPoint:
    energy_gev: float
    channel: str | None        # None for slab/earth; "ee"/"emu" for msw
    p_theory: float
    p_exact: float
    p_sampled: float
    stderr_sampled: float


@dataclass(frozen=True)
class ScanResult:
    scenario: str
    shots: int
    points: tuple[ScanPoint, ...]
    # the template circuit the scan executed (None for msw exact mode)
    circuit: Circuit | None = None
    # the virtual-Z report of a compiled slab/earth scan
    report: CompileReport | None = None
    # the (n, 4, 4) dilation stack msw exact mode applied
    dilation: np.ndarray | None = None


def slab_profile_from_config(config: ScanConfig) -> SlabProfile:
    return SlabProfile(
        (MatterLayer(config.rho1, config.ye, config.dx1_km),
         MatterLayer(config.rho2, config.ye, config.dx2_km)),
        period_count=config.periods)


def msw_setup(config: ScanConfig) -> tuple[OscParams, MatterLayer]:
    """1-2 sector parameters and production layer of an msw scan."""
    return (OscParams(math.radians(config.theta12_deg), config.dm2_21),
            MatterLayer(config.production_rho, config.ye, 0.0))


def _fitted_angles(config: ScanConfig, ds: DilationSet, theta: float,
                   theta_m: np.ndarray) -> np.ndarray:
    """Two-CNOT angles fitted to a dilation stack, ``(n, 6)``, each fit
    starting at the point's closed-form angles; a failed fit raises."""
    starts = synthesis_angles(theta, theta_m)
    fits = []
    for i, energy_gev in enumerate(config.energies):
        res = optimize(FidelityProblem(target=ds.u2q[i],
                                       restarts=config.restarts,
                                       start=starts[i]),
                       config.seed ^ i)
        if not res.converged:
            raise NumericalDomainError(
                f"optimized synthesis at {energy_gev!r} GeV did not converge: "
                f"1-F = {res.infidelity:.3g} after {res.restarts_used} "
                "restart(s); raise field 'restarts'")
        fits.append(res.angles)
    return np.array(fits)


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
        ds = build_dilation(p, layer, energies)
        if config.synthesis == "exact":
            circuit, dilation = None, ds.u2q
            states = apply_matrix(init_state(2), dilation)
        else:
            theta_m = effective_params(p, layer, energies).theta_m
            circuit = build_msw_circuit(
                _fitted_angles(config, ds, p.theta, theta_m))
            states, _ = run(circuit)
        qubit = ENCODED
        theory = prob_msw_adiabatic(p, layer, energies)[0]
    exact, p1 = probabilities(states, qubit)
    points = []
    for e, th, ex, ones in zip(config.energies, theory.tolist(),
                               exact.tolist(),
                               sample(p1, config.shots, config.seed).tolist()):
        p_hat = (config.shots - ones) / config.shots
        err = _binomial_stderr(p_hat, config.shots)
        if msw:
            points.append(ScanPoint(e, "ee", th, ex, p_hat, err))
            points.append(ScanPoint(e, "emu", 1.0 - th, 1.0 - ex,
                                    1.0 - p_hat, err))
        else:
            points.append(ScanPoint(e, None, th, ex, p_hat, err))
    return ScanResult(scenario=config.scenario, shots=config.shots,
                      points=tuple(points), circuit=circuit, report=report,
                      dilation=dilation)


def _binomial_stderr(p_hat: float, shots: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)


# --- CSV ----------------------------------------------------------------------

CSV_HEADER = "energy_gev,p_theory,p_exact,p_sampled,stderr"


def emit_csv(result: ScanResult, path: str) -> str:
    """Write one row per scan point; repr() floats round-trip exactly."""
    with_channel = any(pt.channel is not None for pt in result.points)
    lines = [CSV_HEADER + (",channel" if with_channel else "")]
    for pt in result.points:
        row = [repr(float(v)) for v in (pt.energy_gev, pt.p_theory,
                                        pt.p_exact, pt.p_sampled,
                                        pt.stderr_sampled)]
        if with_channel:
            row.append(pt.channel)
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    return path


# --- SVG ----------------------------------------------------------------------

_COLORS = ("#1f77b4", "#d62728")
_CHANNEL_LABELS = {None: "P(nu_mu -> nu_e)", "ee": "P(nu_e -> nu_e)",
                   "emu": "P(nu_e -> nu_mu)"}
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 24, 20, 56


def _channel_svg(pts: list[ScanPoint], color: str, sx, sy) -> list[str]:
    """A channel's theory polyline and its markers with error bars, for
    points sorted by energy.

    The coordinates are float64 arrays, each marker's three lines one
    %-template.  The columns are read without per-point tuples and the
    rows formatted one at a time, and the arrays are freed before the
    caller joins the SVG text: per-point tuples, all coordinates as
    Python floats at once, or arrays kept alive each raised the peak
    memory of a 2000-point plot.
    """
    e, theory, p, err = (
        np.fromiter((getattr(pt, name) for pt in pts), float, len(pts))
        for name in ("energy_gev", "p_theory", "p_sampled", "stderr_sampled"))
    mx, my = sx(e), sy(p)
    poly = " ".join("%.2f,%.2f" % xy
                    for xy in zip(mx.tolist(), sy(theory).tolist()))
    # per marker: its error bar, then the two strokes of its cross
    marker = "\n".join(f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                       f'stroke="{color}" stroke-width="{width}"/>'
                       for width in ("1", "1.2", "1.2"))
    coords = np.stack([mx, sy(np.maximum(p - err, 0.0)),
                       mx, sy(np.minimum(p + err, 1.0)),
                       mx - 3, my - 3, mx + 3, my + 3,
                       mx - 3, my + 3, mx + 3, my - 3], axis=-1)
    return [f'<polyline points="{poly}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>',
            *(marker % tuple(row.tolist()) for row in coords)]


def emit_plot(result: ScanResult, path: str) -> str:
    """Standalone SVG: theory polyline, sampled markers with error bars.

    Byte-deterministic for a fixed ScanResult (fixed-precision
    coordinates, no timestamps or generated ids).
    """
    energies = sorted({pt.energy_gev for pt in result.points})
    if len(energies) < 2:
        raise ValueError("plot needs at least 2 energy points")
    emin, emax = energies[0], energies[-1]

    # plot coordinates of energies and probabilities, floats or float64
    # arrays alike (same operations, same bits)
    def sx(e):
        return _ML + (e - emin) / (emax - emin) * (_W - _ML - _MR)

    def sy(prob):
        return _MT + (1.0 - prob) * (_H - _MT - _MB)

    channels: dict[str | None, list[ScanPoint]] = {}
    for pt in result.points:
        channels.setdefault(pt.channel, []).append(pt)

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

    for c_idx, (channel, pts) in enumerate(sorted(channels.items(),
                                                  key=lambda kv: str(kv[0]))):
        color = _COLORS[c_idx % len(_COLORS)]
        pts = sorted(pts, key=lambda pt: pt.energy_gev)
        parts += _channel_svg(pts, color, sx, sy)
        label = _CHANNEL_LABELS.get(channel, str(channel))
        parts.append(f'<text x="{x1 - 6}" y="{y1 + 16 + 16 * c_idx}" '
                     f'font-size="12" text-anchor="end" '
                     f'fill="{color}">{label}</text>')

    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write SVG {path}: {exc}") from exc
    return path
