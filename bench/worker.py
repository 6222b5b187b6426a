"""Child processes of the scan benchmark; ``run.py`` starts them.

    worker.py setup RESULT CONFIG WARMUP... [--check CONFIG]
        In this fresh interpreter, time importing nuqsim, resolving
        CONFIG and one warm-up scan per WARMUP config (setup_s), and
        count the modules the import loads.  With --check, then run
        that config twice and compare the CSV and SVG bytes.
    worker.py loop RESULT WORKLOAD SEED SECONDS TRACE RUNDIR
        The in-process closed loop: scan k calls nuqsim.cli.main on the
        workload's config with seed SEED + k until SECONDS have passed.
        With TRACE 1, each scan runs untraced and then traced.
    worker.py cli SPANS SCAN -- ARGV...
        One traced cold `nuqsim ARGV` (cli-cold with tracing on).

Each mode writes its result as JSON to RESULT (SPANS).
"""
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def check_import_location() -> None:
    import nuqsim
    if not os.path.abspath(nuqsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported nuqsim from {nuqsim.__file__}, "
                         f"not from {SRC}")


def call_cli(argv: list[str]) -> str | None:
    """nuqsim.cli.main(argv) with output captured; returns an error or None."""
    import contextlib
    import io
    import traceback
    from nuqsim import cli
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing scan is a failed scan, not a failed run
        return traceback.format_exc(limit=-3)
    return None if code == 0 else f"exit code {code}: {out.getvalue()[-500:]}"


def setup(result_path: str, config_path: str, warmups: list[str],
          check_path: str | None) -> None:
    t0 = time.perf_counter()
    before = len(sys.modules)
    import nuqsim.cli
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before
    nuqsim.cli.ScanConfig.from_json(config_path)
    errors = [call_cli(["scan", "--config", path]) for path in warmups]
    setup_s = time.perf_counter() - t0

    import json
    check_import_location()
    result = {"setup_s": setup_s, "import_s": import_s,
              "modules_loaded": modules_loaded,
              "error": next((e for e in errors if e), None),
              "versions": {"python": sys.version.split()[0],
                           "numpy": sys.modules["numpy"].__version__,
                           "scipy": sys.modules["scipy"].__version__}}
    if check_path is not None:
        result["determinism"] = determinism_check(check_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def determinism_check(config_path: str) -> str | None:
    """Run one config twice; the CSV and SVG must be byte-identical."""
    import json
    with open(config_path) as fh:
        cfg = json.load(fh)
    outputs = []
    for _ in range(2):
        error = call_cli(["scan", "--config", config_path])
        if error:
            return error
        outputs.append([open(cfg[key], "rb").read() for key in ("csv", "svg")])
    return None if outputs[0] == outputs[1] else "CSV/SVG differ between runs"


def loop(result_path: str, name: str, seed: int, seconds: float, trace: bool,
         run_dir: str) -> None:
    import json
    import resource
    import nuqsim.cli  # noqa: F401  (imported before the clock starts)
    check_import_location()
    sys.path.insert(0, BENCH)
    from reference import HOT_NOMINAL_S, hot_reference_s
    from spans import ROOT, Tracer, closed_loop
    from workloads import (WORKLOADS, check_outputs, grid, scan_config,
                           write_config)

    workload = WORKLOADS[name]

    def one_scan(k: int, tracer: Tracer | None) -> dict:
        cfg = scan_config(workload, seed, k, os.path.join(run_dir, f"scan{k}"))
        argv = ["scan", "--config", write_config(cfg, cfg["csv"] + ".json")]
        norm = None
        if tracer is None:
            ref = hot_reference_s()
            t0 = time.perf_counter()
            error = call_cli(argv)
            elapsed = time.perf_counter() - t0
            norm = elapsed * HOT_NOMINAL_S / ref
        else:
            tracer.scan = k
            tracer.install()
            try:
                root = tracer.wrap(ROOT, call_cli)
                index = len(tracer.spans)
                error = root(argv)
            finally:
                tracer.uninstall()
            _, start, end, _, _ = tracer.spans[index]
            elapsed = end - start
        error = error or check_outputs(cfg)
        return {"k": k, "s": elapsed, "norm_s": norm, "points": grid(cfg)[2],
                "error": error}

    result = closed_loop(one_scan, seconds, trace)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def traced_cli(spans_path: str, scan: int, argv: list[str]) -> int:
    sys.path.insert(0, BENCH)
    from spans import Tracer
    tracer = Tracer()
    tracer.scan = scan
    load = tracer.wrap("cli.import", __import__)
    load("nuqsim.cli")
    check_import_location()
    from nuqsim import cli
    tracer.install()
    code = cli.main(argv)
    import json
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "missing": tracer.missing}, fh)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        check = None
        if "--check" in rest:
            i = rest.index("--check")
            check, rest = rest[i + 1], rest[:i] + rest[i + 2:]
        setup(rest[0], rest[1], rest[2:], check)
    elif mode == "loop":
        loop(rest[0], rest[1], int(rest[2]), float(rest[3]), rest[4] == "1",
             rest[5])
    elif mode == "cli":
        return traced_cli(rest[0], int(rest[1]), rest[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
