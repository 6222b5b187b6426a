"""Workload definitions and the correctness gate of the scan benchmark.

Why each workload exists is in README.md and BENCHMARK.json.

Shared by ``run.py`` (the harness) and ``worker.py`` (its child
processes).  Imports neither nuqsim nor numpy, so the harness stays a
light process that only generates load and checks outputs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

SHOTS = 4096
# nuqsim's default energy grids, (min GeV, max GeV, points) per scenario.
DEFAULT_GRIDS = {
    "slab": (1.0, 25.0, 50),
    "earth": (1.0, 25.0, 50),
    "msw": (0.001, 0.05, 50),
}
CSV_HEADER = "energy_gev,p_theory,p_exact,p_sampled,stderr"


@dataclass(frozen=True)
class Workload:
    """Scan k of a run uses ``configs[k % len(configs)]`` with seed S + k."""

    configs: tuple[dict, ...]
    in_process: bool


WORKLOADS = {
    "slab-deep": Workload(
        configs=({"scenario": "slab", "compile": True, "periods": 50},),
        in_process=True),
    "earth-wide": Workload(
        configs=({"scenario": "earth", "energies": "1:25:2000"},),
        in_process=True),
    "msw-fit": Workload(
        configs=({"scenario": "msw", "synthesis": "optimized",
                  "energies": "0.001:0.05:25", "restarts": 1000},),
        in_process=True),
    "cli-cold": Workload(
        configs=({"scenario": "slab", "compile": True},
                 {"scenario": "earth"},
                 {"scenario": "msw"}),
        in_process=False),
}


def scan_config(workload: Workload, seed: int, k: int, out_prefix: str) -> dict:
    """Config of scan k: the workload's config plus seed, shots and outputs."""
    cfg = dict(workload.configs[k % len(workload.configs)])
    cfg.update(seed=seed + k, shots=SHOTS, csv=out_prefix + ".csv",
               svg=out_prefix + ".svg")
    return cfg


def warmup_config(cfg: dict) -> dict:
    """One-point version of a scan config (CSV only: a plot needs 2 points)."""
    lo = grid(cfg)[0]
    warm = {k: v for k, v in cfg.items() if k != "svg"}
    warm.update(energies=[lo], csv=cfg["csv"] + ".warm.csv")
    return warm


def write_config(cfg: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def cli_flags(cfg: dict) -> list[str]:
    """`nuqsim scan` command-line flags equivalent to a config dict."""
    argv = ["scan"]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def grid(cfg: dict) -> tuple[float, float, int]:
    """(first energy, last energy, points) the scan must report."""
    spec = cfg.get("energies")
    if spec is None:
        return DEFAULT_GRIDS[cfg["scenario"]]
    lo, hi, n = spec.split(":")
    return float(lo), float(hi), int(n)


def check_outputs(cfg: dict) -> str | None:
    """Check a finished scan's CSV and SVG; returns an error or None.

    Rows: one per energy (two for msw: ee then emu), ascending energies
    from the grid's first to last value.  Every row: |p_exact - p_theory|
    within 1e-12 (1e-3 for optimized synthesis, acceptance criterion 6)
    and p_sampled * shots a whole count in [0, shots].
    """
    lo, hi, n = grid(cfg)
    msw = cfg["scenario"] == "msw"
    tol = 1e-3 if cfg.get("synthesis") == "optimized" else 1e-12
    shots = cfg["shots"]
    try:
        with open(cfg["csv"]) as fh:
            lines = fh.read().splitlines()
        with open(cfg["svg"]) as fh:
            svg = fh.read()
    except OSError as exc:
        return f"missing output: {exc}"
    header = CSV_HEADER + (",channel" if msw else "")
    if not lines or lines[0] != header:
        return f"CSV header {lines[:1]!r}, expected {header!r}"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n * (2 if msw else 1):
        return f"CSV has {len(rows)} rows for {n} energies"
    energies = []
    for i, row in enumerate(rows):
        try:
            e, p_theory, p_exact, p_sampled, _ = (float(v) for v in row[:5])
        except ValueError:
            return f"row {i + 1}: unparsable {row!r}"
        if not abs(p_exact - p_theory) <= tol:
            return (f"row {i + 1}: |p_exact - p_theory| = "
                    f"{abs(p_exact - p_theory):.3g} > {tol:g}")
        hits = p_sampled * shots
        if not (math.isfinite(hits) and abs(hits - round(hits)) <= 1e-6
                and 0 <= round(hits) <= shots):
            return f"row {i + 1}: p_sampled * shots = {hits!r} is not a count"
        if msw and row[5:] != [("ee", "emu")[i % 2]]:
            return f"row {i + 1}: channel {row[5:]!r}"
        if not msw or i % 2 == 0:
            energies.append(e)
    if (energies[0] != lo or energies[-1] != hi
            or any(b <= a for a, b in zip(energies, energies[1:]))):
        return "CSV energies do not match the grid"
    if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
        return "SVG is truncated"
    return None
