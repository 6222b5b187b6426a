"""Scan benchmark of nuqsim: one closed-loop client, one scan at a time.

    python3 bench/run.py --workload slab-deep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; nuqsim is imported from its src/.
Prints one line per metric (name, value, unit, sample count), then, as
the last line, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, with
times normalized by reference.py; --trace 1 the per-layer metrics of a
separate traced run.  Exits 1 when any output fails its check, 2 when
the benchmark cannot run (no nuqsim source, or a child process that
crashed or timed out).  Details, spans and the environment go to
.bench_out/ in the checkout.  See bench/README.md for the workloads and
the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from reference import COLD_ARGV, COLD_NOMINAL_S
from spans import COUNT_SCANS, Tracer, closed_loop, layer_metrics
from spans import UNITS as LAYER_UNITS
from workloads import (
    WORKLOADS, check_outputs, cli_flags, grid, scan_config, warmup_config,
    write_config)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_RUNS = 5          # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 60    # per set-up process or cold scan
# The console script `nuqsim` does exactly this.
CLI_ENTRY = "import sys; from nuqsim.cli import main; sys.exit(main())"
# Reported in the final line, in this order (see BENCHMARK.json).
END_TO_END = ("setup_s", "scan_s.p50", "points_per_s", "peak_rss_mb")
PER_LAYER = ("cli.import_s", "cli.modules_loaded", "oscillation.oracle_s",
             "builders.build_s", "circuits.ops_built", "simulator.execute_s",
             "simulator.gates_applied", "simulator.sample_s", "scan.self_s",
             "scan.emit_s", "scan.bytes_written", "trace.overhead",
             "trace.uncovered_s")
UNITS = dict(LAYER_UNITS, **{
    "setup_s": "s", "scan_s.p50": "s", "scan_s.p90": "s",
    "points_per_s": "1/s", "peak_rss_mb": "MB", "failed_ratio": "ratio",
    "setup_s.raw": "s", "scan_s.p50.raw": "s", "points_per_s.raw": "1/s"})


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong scan result)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT_DIR, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log_path: str, timeout_s: float
          ) -> tuple[float, float, int, int]:
    """Run a child to completion: (start, end, exit code, peak RSS in KiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT_DIR)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if end - start >= timeout_s:
        raise BenchError(f"timed out after {timeout_s:g} s: {argv}")
    return start, end, proc.returncode, usage.ru_maxrss


def run_worker(args: list[str], run_dir: str, tag: str,
               timeout_s: float = CHILD_TIMEOUT_S) -> dict:
    result = os.path.join(run_dir, tag + ".json")
    log = os.path.join(run_dir, tag + ".log")
    _, _, code, _ = spawn([sys.executable, WORKER, args[0], result, *args[1:]],
                          log, timeout_s)
    if code != 0:
        with open(log, errors="replace") as fh:
            raise BenchError(f"worker {tag} exited {code}:\n{fh.read()[-2000:]}")
    with open(result) as fh:
        return json.load(fh)


def cold_reference_s(run_dir: str) -> float:
    """Spawn-to-exit time of the fresh-interpreter reference (reference.py)."""
    start, end, code, _ = spawn([sys.executable, *COLD_ARGV],
                                os.path.join(run_dir, "reference.log"),
                                CHILD_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"reference process exited {code}")
    return end - start


def setups(workload, seed: int, run_dir: str) -> list[dict]:
    """SETUP_RUNS fresh interpreters; the first also checks determinism."""
    configs = [scan_config(workload, seed, k, os.path.join(run_dir, f"cfg{k}"))
               for k in range(len(workload.configs))]
    resolve = write_config(configs[0], os.path.join(run_dir, "cfg0.json"))
    warmups = [write_config(warmup_config(cfg), cfg["csv"] + ".warm.json")
               for cfg in configs]
    out = []
    for i in range(SETUP_RUNS):
        check = ["--check", resolve] if i == 0 else []
        ref = cold_reference_s(run_dir)
        out.append(run_worker(["setup", resolve, *warmups, *check], run_dir,
                              f"setup{i}"))
        out[-1]["norm_s"] = out[-1]["setup_s"] * COLD_NOMINAL_S / ref
    out[0]["determinism_error"] = out[0].pop("determinism") or (
        check_outputs(configs[0]))
    return out


def cli_loop(workload, seed: int, seconds: float, trace: bool,
             run_dir: str) -> dict:
    """cli-cold: every scan is a fresh `nuqsim scan` process."""
    def one_scan(k: int, tracer: Tracer | None) -> dict:
        cfg = scan_config(workload, seed, k, os.path.join(run_dir, f"scan{k}"))
        ref = None
        if tracer is None:
            argv = [sys.executable, "-c", CLI_ENTRY]
            ref = cold_reference_s(run_dir)
        else:
            spans_path = cfg["csv"] + ".spans.json"
            argv = [sys.executable, WORKER, "cli", spans_path, str(k), "--"]
        start, end, code, rss_kb = spawn(argv + cli_flags(cfg),
                                         cfg["csv"] + ".log", CHILD_TIMEOUT_S)
        if tracer is not None and code == 0:
            with open(spans_path) as fh:
                child = json.load(fh)
            tracer.adopt(child, start, end, k)
        error = f"exit code {code}" if code else check_outputs(cfg)
        norm = None if ref is None else (end - start) * COLD_NOMINAL_S / ref
        return {"k": k, "s": end - start, "norm_s": norm,
                "points": grid(cfg)[2], "error": error, "rss_kb": rss_kb}

    result = closed_loop(one_scan, seconds, trace)
    result["peak_rss_kb"] = max(s["rss_kb"] for s in result["scans"])
    return result


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None unless 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    if len(ordered) - rank < 10:
        return None
    return ordered[int(rank) - 1]


def end_to_end(setup: list[dict], loop: dict) -> dict:
    """The six end-to-end metrics, times normalized (reference.py)."""
    scans = loop["scans"]
    n = len(scans)
    raw = [s["s"] for s in scans]
    norm = [s["norm_s"] for s in scans]
    points = sum(s["points"] for s in scans if not s["error"])
    failed = sum(1 for s in scans if s["error"])
    return {
        "setup_s": (statistics.median(s["norm_s"] for s in setup),
                    len(setup)),
        "scan_s.p50": (statistics.median(norm), n),
        "scan_s.p90": (percentile(norm, 90), n),
        "points_per_s": (points / sum(norm), n),
        "peak_rss_mb": (loop["peak_rss_kb"] / 1024, 1),
        "failed_ratio": (failed / n, n),
        "setup_s.raw": (statistics.median(s["setup_s"] for s in setup),
                        len(setup)),
        "scan_s.p50.raw": (statistics.median(raw), n),
        "points_per_s.raw": (points / sum(raw), n),
    }


def per_layer(workload, setup: list[dict], loop: dict) -> dict:
    traced = loop["traced"]
    n = len(traced)
    values = layer_metrics(loop["spans"], loop["counts"], n,
                           len(workload.configs))
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
    values["cli.modules_loaded"] = setup[0]["modules_loaded"]
    values["trace.overhead"] = (
        statistics.median(s["s"] for s in traced)
        / statistics.median(s["s"] for s in loop["scans"]))
    samples = {"cli.import_s": len(setup), "cli.modules_loaded": len(setup),
               "trace.overhead": n}
    return {name: (value, samples.get(name, n if UNITS[name] == "s"
                                       else COUNT_SCANS))
            for name, value in values.items()}


def self_checks(setup: list[dict], loop: dict, trace: bool) -> list[str]:
    """Failures of the set-up determinism check and the count self-check."""
    failures = [f"setup: {s['error']}" for s in setup if s["error"]]
    if setup[0]["determinism_error"]:
        failures.append(f"determinism: {setup[0]['determinism_error']}")
    if trace:
        if len({s["modules_loaded"] for s in setup}) != 1:
            failures.append("cli.modules_loaded differs between interpreters")
        if loop["anchor"] != loop["recheck"]:
            failures.append("counts differ between two traced runs")
        failures += [f"traced scan {s['k']}: {s['error']}"
                     for s in loop["traced"] if s["error"]]
    return failures


def environment(seed: int, nproc: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT_DIR, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, text=True,
                capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "nproc": nproc, "seed": seed,
            "OPENBLAS_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT_DIR, "src", "nuqsim", "cli.py")):
        print(f"bench: no nuqsim source in {ROOT_DIR}/src", file=sys.stderr)
        return 2

    # A reference time describes a scan only when both ran on the same CPU
    # (reference.py); children inherit the mask.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # children inherit it
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    out_dir = os.path.join(ROOT_DIR, ".bench_out")
    run_dir = os.path.join(out_dir, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        setup = setups(workload, args.seed, run_dir)
        if workload.in_process:
            loop = run_worker(["loop", args.workload, str(args.seed),
                               str(args.seconds), str(args.trace), run_dir],
                              run_dir, "loop", 2 * args.seconds + 60)
        else:
            loop = cli_loop(workload, args.seed, args.seconds, trace, run_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = self_checks(setup, loop, trace)
    failures += [f"scan {s['k']}: {s['error']}" for s in loop["scans"]
                 if s["error"]]
    metrics = per_layer(workload, setup, loop) if trace else end_to_end(
        setup, loop)
    failed = sum(1 for s in loop["scans"] if s["error"])
    env = dict(environment(args.seed, nproc), cpu=cpu, **setup[0]["versions"])

    print(f"# {args.workload} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, samples) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:28s} {shown:>12s} {UNITS[name]:6s} n={samples}")
    for failure in failures:
        print(f"FAILED {failure}")

    tag = f"{args.workload}-trace{args.trace}"
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "environment": env, "failures": failures,
                   "metrics": {name: {"value": v, "unit": UNITS[name], "n": n}
                               for name, (v, n) in metrics.items()},
                   "setups": setup, "scans": loop["scans"],
                   "traced": loop["traced"],
                   "missing_wrappers": loop.get("missing", [])}, fh, indent=1)
    if trace:
        with open(os.path.join(out_dir, tag + ".spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scan"],
                       "spans": loop["spans"], "counts": loop["counts"]}, fh)

    keys = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": not failures, "attempted": len(loop["scans"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": UNITS[name]}
                    for name in keys}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
