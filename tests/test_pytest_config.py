"""Checks on the repository's pytest configuration."""
import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = textwrap.dedent("""
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_a_failing_property(n):
        assert n < 0

    def test_a_later_test():
        pass
""")


def test_a_failing_property_does_not_abort_the_run(tmp_path):
    """Under the repo's ``filterwarnings``, a failing hypothesis property
    is one failed test: the failure-patch writer's import warning must
    not turn into an INTERNALERROR that drops the summary and the rest
    of the run."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
