"""A fixed matrix of `nuqsim scan` runs reproduces its recorded outputs.

``tests/fixtures/outputs.json`` maps each run of MATRIX to the sha256 of
the CSV and SVG it writes (null where it writes none), of its stdout
and stderr, and to its exit code.  The test reruns the matrix in
process through ``cli.main``, each run in a fresh directory with
relative output paths, so no printed path depends on where it ran.

Like ``tests/test_demos.py``, the hashes hold per numerical
environment: the exact probabilities, and with them every sampled
count, can move in the last bit with numpy's SIMD paths and the BLAS
build (CHANGES.md, the ``FOUND:`` line on ``demos/out``).  A change
that moves bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_outputs.py

which prints, before it writes, each run whose recorded fields moved
and which of them (``csv``, ``svg``, ``stdout``, ``stderr``, ``exit``),
and lists in CHANGES.md which entries changed and why.
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "outputs.json"

FILES = ["--csv", "out.csv", "--svg", "out.svg"]
EARTH_2000 = ["--scenario", "earth", "--energies", "1:25:2000", *FILES]

# run name -> (config file fields or None, flags after `scan`)
MATRIX = {
    # the cli-cold workload's three configs (bench/workloads.py)
    **{f"{name}-seed{seed}": (None, [*flags, "--shots", "4096",
                                     "--seed", str(seed), *FILES])
       for name, flags in (("slab-compiled", ["--scenario", "slab",
                                              "--compile"]),
                           ("earth", ["--scenario", "earth"]),
                           ("msw-exact", ["--scenario", "msw"]))
       for seed in (1, 7)},
    # 2,000 rows cross the EMIT_ROWS block edge
    "earth-2000": (None, EARTH_2000),
    "earth-2000-plain": (None, [*EARTH_2000, "--angle-mode", "plain"]),
    "earth-2000-compiled": (None, [*EARTH_2000, "--compile"]),
    "msw-optimized-25-dump": (None, [
        "--scenario", "msw", "--synthesis", "optimized",
        "--energies", "0.001:0.05:25", "--dump-circuit", *FILES]),
    "slab-50-periods-compiled-dump": (
        {"scenario": "slab", "compile": True, "periods": 50},
        ["--dump-circuit", *FILES]),
    "slab-20-periods-table": ({"scenario": "slab", "periods": 20},
                              ["--energies", "1:25:8"]),
    "msw-exact-dump-table": (None, ["--scenario", "msw", "--energies",
                                    "0.001:0.05:5", "--dump-circuit"]),
    # the second seed takes the extra-entropy path of _pcg64_states
    "earth-seed-2^64+5": (None, ["--scenario", "earth",
                                 "--seed", str(2 ** 64 + 5), *FILES]),
    "slab-seed-10^40": (None, ["--scenario", "slab",
                               "--seed", str(10 ** 40), *FILES]),
    # the README's CLI examples, writing to out.csv and out.svg
    "readme-earth": (None, ["--scenario", "earth", "--energies", "1:25:200",
                            *FILES]),
    "readme-slab": (None, ["--scenario", "slab", "--compile",
                           "--dump-circuit", "--shots", "4096",
                           "--csv", "out.csv"]),
    "readme-msw": (None, ["--scenario", "msw", "--synthesis", "optimized",
                          "--energies", "0.001:0.05:25", "--csv", "out.csv"]),
    "config-error": (None, ["--scenario", "slab", "--shots", "0"]),
    "numerical-domain-error": (None, ["--scenario", "earth",
                                      "--energies", "1e-300:1:2"]),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(path: str) -> str | None:
    """sha256 of a file the run wrote, None where it wrote none."""
    return (_sha256(pathlib.Path(path).read_bytes())
            if os.path.exists(path) else None)


def run_matrix(root: pathlib.Path) -> dict:
    """Each run's output hashes and exit code, run in ``root / name``."""
    from nuqsim import cli
    results = {}
    cwd = os.getcwd()
    try:
        for name, (config, flags) in MATRIX.items():
            run_dir = root / name
            run_dir.mkdir()
            os.chdir(run_dir)
            argv = ["scan", *flags]
            if config is not None:
                pathlib.Path("cfg.json").write_text(json.dumps(config))
                argv += ["--config", "cfg.json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results[name] = {
                **{kind: _written(f"out.{kind}") for kind in ("csv", "svg")},
                "stdout": _sha256(out.getvalue().encode()),
                "stderr": _sha256(err.getvalue().encode()),
                "exit": code}
    finally:
        os.chdir(cwd)
    return results


def moved_fields(old: dict, new: dict) -> dict[str, list[str]]:
    """For each run of ``new`` whose record differs from ``old``'s, the
    fields that differ, in record order (all of them for a new run)."""
    return {name: [kind for kind in record
                   if old.get(name, {}).get(kind, ...) != record[kind]]
            for name, record in new.items() if old.get(name) != record}


def test_moved_fields_name_each_changed_field():
    record = {"csv": "a", "svg": None, "stdout": "b", "stderr": "c",
              "exit": 0}
    old = {"same": record, "moved": record, "gone": record}
    new = {"same": record, "moved": {**record, "svg": "d", "exit": 2},
           "added": record}
    assert moved_fields(old, new) == {"moved": ["svg", "exit"],
                                      "added": list(record)}


def test_matrix_reproduces_recorded_outputs(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    assert list(expected) == list(MATRIX)
    got = run_matrix(tmp_path)
    assert {name: got[name] for name in got
            if got[name] != expected[name]} == {}


if __name__ == "__main__":
    import tempfile
    recorded = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_matrix(pathlib.Path(tmp))
    moved = moved_fields(recorded, runs)
    for name, kinds in moved.items():
        print(f"moved: {name}: {', '.join(kinds)}")
    for name in sorted(recorded.keys() - runs.keys()):
        print(f"dropped: {name}")
    print(f"{len(moved)} of {len(runs)} runs moved")
    FIXTURE.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
