"""Command line front end.

    nuqsim scan --scenario {slab|earth|msw} [--config file.json]
                [--energies min:max:n] [--shots n] [--seed n] [--compile]
                [--synthesis exact|optimized] [--angle-mode atmospheric|plain]
                [--csv out.csv] [--svg out.svg] [--dump-circuit]

Flags win over config-file values.  Exit codes: 0 success, 2 config
or output-file error, 3 numerical-domain error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .builders import build_dilation
from .compiler import dump_circuit, virtual_z_pass
from .oscillation import NumericalDomainError
from .scan import (ANGLE_MODES, SCENARIOS, SYNTHESIS_MODES, ConfigError,
                   ScanConfig, emit_csv, emit_plot, msw_setup, run_scan,
                   scenario_circuit)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuqsim",
        description="Neutrino propagation in matter on an emulated "
                    "1-2 qubit device")
    sub = parser.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", help="run an energy scan")
    scan.add_argument("--scenario", choices=SCENARIOS)
    scan.add_argument("--config", help="JSON config file")
    scan.add_argument("--energies", help="grid as min:max:n (GeV)")
    scan.add_argument("--shots", type=int)
    scan.add_argument("--seed", type=int)
    scan.add_argument("--compile", action="store_true", default=None,
                      help="apply the virtual-Z pass to scan circuits")
    scan.add_argument("--synthesis", choices=SYNTHESIS_MODES,
                      help="msw: exact 4x4 dilation or optimized circuit")
    scan.add_argument("--angle-mode", choices=ANGLE_MODES, dest="angle_mode")
    scan.add_argument("--csv", help="write per-point results here")
    scan.add_argument("--svg", help="write a plot here")
    scan.add_argument("--dump-circuit", action="store_true", default=None,
                      dest="dump_circuit",
                      help="print the first grid point's circuit")
    return parser


def _build_config(args: argparse.Namespace) -> ScanConfig:
    overrides = dict(
        scenario=args.scenario, energies=args.energies, shots=args.shots,
        seed=args.seed, compile=args.compile, synthesis=args.synthesis,
        angle_mode=args.angle_mode, csv=args.csv, svg=args.svg,
        dump_circuit=args.dump_circuit)
    if args.config:
        return ScanConfig.from_json(args.config).override(**overrides)
    if args.scenario is None:
        raise ConfigError("field 'scenario': give --scenario or --config")
    return ScanConfig.from_dict(
        {k: v for k, v in overrides.items() if v is not None})


def _print_compile_savings(config: ScanConfig) -> None:
    raw = scenario_circuit(config.override(compile=False), config.energies[0])
    _, report = virtual_z_pass(raw)
    print(f"virtual-Z: {report.input_gate_count} gates -> "
          f"{report.output_gate_count} gates, "
          f"{report.physical_pulse_count} physical pulses "
          f"({report.folded_rz_count} RZ folded)")


def cmd_scan(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.dump_circuit:
        if config.scenario == "msw" and config.synthesis == "exact":
            ds = build_dilation(*msw_setup(config), config.energies[0])
            print("# exact mode applies this 4x4 dilation directly:")
            print(np.array2string(ds.u2q, precision=12))
        else:
            print(dump_circuit(scenario_circuit(config, config.energies[0])),
                  end="")
    if config.compile and config.scenario in ("slab", "earth"):
        _print_compile_savings(config)

    result = run_scan(config)
    print(f"{config.scenario}: {len(config.energies)} energies, "
          f"{config.shots} shots, seed {config.seed}")
    if config.csv:
        emit_csv(result, config.csv)
        print(f"wrote {config.csv} ({len(result.points)} rows)")
    if config.svg:
        emit_plot(result, config.svg)
        print(f"wrote {config.svg}")
    if not config.csv and not config.svg:
        # no outputs requested: show a compact table
        print("energy_gev  p_theory    p_exact     p_sampled" +
              ("   channel" if config.scenario == "msw" else ""))
        for pt in result.points:
            line = (f"{pt.energy_gev:<11.5g} {pt.p_theory:<11.6f} "
                    f"{pt.p_exact:<11.6f} {pt.p_sampled:<11.6f}")
            if pt.channel is not None:
                line += f" {pt.channel}"
            print(line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scan":
            return cmd_scan(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalDomainError as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
