"""The demos reproduce their committed outputs in demos/out byte for byte."""
import pathlib
import runpy
import shutil

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_demos_reproduce_golden_outputs(tmp_path, capsys):
    for script in sorted(DEMOS.glob("*.py")):
        shutil.copy(script, tmp_path)
        runpy.run_path(str(tmp_path / script.name), run_name="__main__")
    golden = sorted(p.name for p in (DEMOS / "out").iterdir())
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == golden
    for name in golden:
        got = (tmp_path / "out" / name).read_bytes()
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
