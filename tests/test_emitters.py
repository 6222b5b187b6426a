"""The block emitters write the bytes of the row-at-a-time emitters.

``emit_csv`` and ``_channel_svg`` format EMIT_ROWS rows per %-call;
the references below format one row at a time, as the emitters did
before blocks.  Grid sizes around the block edges (and 0, CSV only)
must give byte-equal files.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nuqsim import scan
from nuqsim.scan import CSV_HEADER, EMIT_ROWS, ScanResult, emit_csv, emit_plot

PROPERTY = settings(max_examples=8, deadline=None, derandomize=True,
                    database=None)

SIZES = (0, 1, 2, EMIT_ROWS - 1, EMIT_ROWS, EMIT_ROWS + 1, 2 * EMIT_ROWS + 3)
# probabilities and errors, with the edges and a value repr() spells long
PROBS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2]),
                  st.floats(0.0, 1.0))


def reference_csv(result, path):
    with_channel = result.scenario == "msw"
    lines = [CSV_HEADER + (",channel" if with_channel else "")]
    for i, energy in enumerate(result.energy_gev.tolist()):
        for channel, *columns in result.channels():
            line = ",".join(map(repr, (energy, *(float(col[i])
                                                 for col in columns))))
            lines.append(f"{line},{channel}" if with_channel else line)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_channel_svg(e, theory, p, err, color, sx, sy):
    mx, my = sx(e), sy(p)
    poly = " ".join("%.2f,%.2f" % xy
                    for xy in zip(mx.tolist(), sy(theory).tolist()))
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


def results(n):
    """Slab or msw results of n points: ascending energies up to 1e6,
    the other columns in [0, 1] (arrays drawn sparsely over a fill
    value, so a wide grid stays a small example)."""
    column = arrays(np.float64, n, elements=PROBS)
    steps = arrays(np.float64, n, elements=st.floats(1e-3, 1e3))
    return st.builds(
        lambda scenario, steps, *cols: ScanResult(
            scenario, np.cumsum(steps), *cols),
        st.sampled_from(["slab", "msw"]), steps, column, column, column,
        column)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emit")


@pytest.mark.parametrize("n", SIZES)
def test_block_csv_matches_the_row_emitter(out_dir, n):
    @PROPERTY
    @given(results(n))
    def check(result):
        emit_csv(result, str(out_dir / "block.csv"))
        reference_csv(result, str(out_dir / "row.csv"))
        assert ((out_dir / "block.csv").read_bytes() ==
                (out_dir / "row.csv").read_bytes())
    check()


@pytest.mark.parametrize("n", [n for n in SIZES if n >= 2])
def test_block_svg_matches_the_row_emitter(out_dir, monkeypatch, n):
    @PROPERTY
    @given(results(n))
    def check(result):
        emit_plot(result, str(out_dir / "block.svg"))
        with monkeypatch.context() as patch:
            patch.setattr(scan, "_channel_svg", reference_channel_svg)
            emit_plot(result, str(out_dir / "row.svg"))
        assert ((out_dir / "block.svg").read_bytes() ==
                (out_dir / "row.svg").read_bytes())
    check()
