"""Command line front end.

    nuqsim scan --scenario {slab|earth|msw} [--config file.json]
                [--energies min:max:n] [--shots n] [--seed n] [--compile]
                [--synthesis exact|optimized] [--angle-mode atmospheric|plain]
                [--csv out.csv] [--svg out.svg] [--dump-circuit]

Flags win over config-file values, and their numbers are JSON numbers.
Exit codes: 0 success, 2 config or output-file error, 3 numerical-domain
error, 141 (128 + SIGPIPE) when the reader of stdout closes it early.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .oscillation import NumericalDomainError
from .scan import (ANGLE_MODES, SCENARIOS, SYNTHESIS_MODES, ConfigError,
                   ScanConfig, emit_csv, emit_plot, json_number,
                   read_json_config, run_scan)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuqsim",
        description="Neutrino propagation in matter on an emulated "
                    "1-2 qubit device")
    sub = parser.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", help="run an energy scan")
    # choice flags are checked by the config, as a file's values are
    scan.add_argument("--scenario", metavar="|".join(SCENARIOS))
    scan.add_argument("--config", help="JSON config file")
    scan.add_argument("--energies", help="grid as min:max:n (GeV)")
    # JSON numbers, which the config then checks as it does a file's
    scan.add_argument("--shots", type=json_number)
    scan.add_argument("--seed", type=json_number)
    scan.add_argument("--compile", action="store_true", default=None,
                      help="apply the virtual-Z pass to scan circuits")
    scan.add_argument("--synthesis", metavar="|".join(SYNTHESIS_MODES),
                      help="msw: exact 4x4 dilation or optimized circuit")
    scan.add_argument("--angle-mode", metavar="|".join(ANGLE_MODES))
    scan.add_argument("--csv", help="write per-point results here")
    scan.add_argument("--svg", help="write a plot here")
    scan.add_argument("--dump-circuit", action="store_true", default=None,
                      help="print the first grid point's circuit")
    return parser


# built once per process: argparse formats every option as it is added
_PARSER = build_parser()


def _build_config(args: argparse.Namespace) -> ScanConfig:
    """The config file's fields, the given flags on top, checked once."""
    data = read_json_config(args.config) if args.config else {}
    data.update({k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None})
    return ScanConfig.from_dict(data)


def _say(line: str) -> None:
    try:
        print(line)
    except UnicodeEncodeError as exc:   # show what stdout refuses escaped
        print(line.encode(exc.encoding, "backslashreplace").decode(exc.encoding))


def cmd_scan(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_scan(config)
    if config.dump_circuit:
        if result.circuit is None:
            print("# exact mode applies this 4x4 dilation directly:")
            print(np.array2string(result.dilation[0], precision=12))
        else:
            from .compiler import dump_circuit    # only a dump needs it
            print(dump_circuit(result.circuit.point(0)), end="")
    if result.report is not None:
        r = result.report
        print(f"virtual-Z: {r.input_gate_count} gates -> "
              f"{r.output_gate_count} gates, "
              f"{r.physical_pulse_count} physical pulses "
              f"({r.folded_rz_count} RZ folded, "
              f"{r.merged_ry_count} RY merged)")

    print(f"{config.scenario}: {len(config.energies)} energies, "
          f"{config.shots} shots, seed {config.seed}")
    if config.csv:
        emit_csv(result, config.csv)
        rows = len(result.energy_gev) * len(result.channels())
        _say(f"wrote {config.csv} ({rows} rows)")
    if config.svg:
        emit_plot(result, config.svg)
        _say(f"wrote {config.svg}")
    if not config.csv and not config.svg:
        # no outputs requested: show a compact table
        print("energy_gev  p_theory    p_exact     p_sampled" +
              ("   channel" if config.scenario == "msw" else ""))
        for block in result.blocks("%-11.5g %-11.6f %-11.6f %-11.6f", " ", 3):
            print(block)
    sys.stdout.flush()          # a closed pipe shows here, not at exit
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return cmd_scan(args)
    except BrokenPipeError:     # quietly; the exit's own flush hits devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
