"""The demos reproduce their committed outputs in demos/out byte for byte.

A change that moves bits on purpose regenerates them with

    PYTHONPATH=src python tests/test_demos.py

which reruns the demos in a temporary directory, prints each file that
moved and, for a CSV, how many values of each column moved and the
largest |delta| of each float column, and then writes ``demos/out``.
"""
import contextlib
import io
import pathlib
import runpy
import shutil

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def run_demos(root: pathlib.Path) -> pathlib.Path:
    """Run a copy of every demo in ``root``, quietly; its output dir."""
    for script in sorted(DEMOS.glob("*.py")):
        shutil.copy(script, root)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(root / script.name), run_name="__main__")
    return root / "out"


def moved_columns(old: str, new: str) -> dict[str, tuple[int, float | None]]:
    """For each column of two CSV texts with one header whose values
    differ: how many differ, and the largest |new - old| of a float
    column (None for a text column)."""
    (header, *old_rows), (new_header, *new_rows) = (
        [line.split(",") for line in text.splitlines()] for text in (old, new))
    assert header == new_header and len(old_rows) == len(new_rows), (
        "the header or the row count changed")
    moved = {}
    for k, name in enumerate(header):
        pairs = [(a[k], b[k]) for a, b in zip(old_rows, new_rows)
                 if a[k] != b[k]]
        if pairs:
            try:
                delta = max(abs(float(b) - float(a)) for a, b in pairs)
            except ValueError:
                delta = None
            moved[name] = (len(pairs), delta)
    return moved


def test_moved_columns_count_each_changed_value():
    old = "energy_gev,p_theory,channel\n1.0,0.5,ee\n2.0,0.25,emu\n3.0,1.0,ee\n"
    new = ("energy_gev,p_theory,channel\n1.0,0.5000000000000001,ee\n"
           "2.0,0.25,ee\n3.0,0.9999999999999998,ee\n")
    assert moved_columns(old, new) == {"p_theory": (2, 2.220446049250313e-16),
                                       "channel": (1, None)}
    assert moved_columns(old, old) == {}


def test_demos_reproduce_golden_outputs(tmp_path):
    out = run_demos(tmp_path)
    golden = sorted(p.name for p in (DEMOS / "out").iterdir())
    assert sorted(p.name for p in out.iterdir()) == golden
    for name in golden:
        got = (out / name).read_bytes()
        assert got == (DEMOS / "out" / name).read_bytes(), name


def test_readme_quick_start_runs():
    """The README's "Library quick start" block runs against the package
    namespace as it stands."""
    readme = (DEMOS.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["p_exact"].shape == (200,)


if __name__ == "__main__":
    import tempfile
    golden = DEMOS / "out"
    with tempfile.TemporaryDirectory() as tmp:
        out = run_demos(pathlib.Path(tmp))
        for path in sorted(out.iterdir()):
            old = golden / path.name
            if old.exists() and old.read_bytes() == path.read_bytes():
                continue
            print(f"moved: {path.name}")
            if path.suffix == ".csv" and old.exists():
                columns = moved_columns(old.read_text(), path.read_text())
                for name, (count, delta) in columns.items():
                    print(f"  {name}: {count} values" + (
                        "" if delta is None else f", largest |delta| {delta:.3g}"))
        for name in sorted({p.name for p in golden.iterdir()}
                           - {p.name for p in out.iterdir()}):
            print(f"dropped: {name}")
        shutil.rmtree(golden)
        shutil.copytree(out, golden)
    print(f"wrote {golden}")
