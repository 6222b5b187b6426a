"""Scan configuration, CSV/SVG emission, CLI behavior."""
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import nuqsim.cli as cli
from nuqsim import optim, scan, simulator
from nuqsim.builders import (build_dilation, build_msw_circuit, earth_profile,
                             synthesis_angles)
from nuqsim.compiler import dump_circuit
from nuqsim.oscillation import (MatterLayer, NumericalDomainError, OscParams,
                                prob_msw_adiabatic, prob_slab)
from nuqsim.scan import (ConfigError, ScanConfig, ScanResult, emit_csv,
                         emit_plot, run_scan, slab_profile_from_config)


# --- config -------------------------------------------------------------------

def test_defaults():
    cfg = ScanConfig(scenario="slab")
    assert cfg.shots == 4096
    assert cfg.seed == 0
    assert cfg.synthesis == "exact"
    assert len(cfg.energies) == 50
    assert cfg.energies[0] == 1.0 and cfg.energies[-1] == 25.0
    msw = ScanConfig(scenario="msw")
    assert msw.energies[0] == 0.001 and msw.energies[-1] == 0.050
    assert all(type(e) is float for e in cfg.energies + msw.energies)


def test_bad_fields_are_named():
    with pytest.raises(ConfigError, match="scenario"):
        ScanConfig(scenario="moon")
    with pytest.raises(ConfigError, match="shots"):
        ScanConfig(scenario="slab", shots=0)
    with pytest.raises(ConfigError, match="energies"):
        ScanConfig(scenario="slab", energies=(3.0, 2.0))
    with pytest.raises(ConfigError, match="energies"):
        ScanConfig(scenario="slab", energies=(-1.0, 2.0))
    with pytest.raises(ConfigError, match="seed"):
        ScanConfig(scenario="slab", seed=-4)
    with pytest.raises(ConfigError, match="synthesis"):
        ScanConfig(scenario="msw", synthesis="magic")


@pytest.mark.parametrize("energies, message", [
    ((), f"needs 1 to {scan.MAX_POINTS} points, got 0"),
    (range(1, scan.MAX_POINTS + 2),
     f"needs 1 to {scan.MAX_POINTS} points, got {scan.MAX_POINTS + 1}"),
    ((-1.0, 2.0), "all energies must be finite and positive"),
    ((0.0, 2.0), "all energies must be finite and positive"),
    ((1.0, float("nan")), "all energies must be finite and positive"),
    ((1.0, float("inf")), "all energies must be finite and positive"),
    # finiteness is checked before order
    ((3.0, -1.0), "all energies must be finite and positive"),
    ((3.0, 2.0), "must be strictly ascending"),
    ((1.0, 2.0, 2.0), "must be strictly ascending"),
])
def test_energy_checks_give_their_message(energies, message):
    with pytest.raises(ConfigError) as info:
        ScanConfig(scenario="slab", energies=energies)
    assert str(info.value) == f"field 'energies': {message}"


def test_energies_take_any_iterable_of_float_convertibles():
    cfg = ScanConfig(scenario="slab", energies=iter(
        [Fraction(1, 2), np.float32(2.5), 3, "4.25"]))
    assert cfg.energies == (0.5, 2.5, 3.0, 4.25)
    assert all(type(e) is float for e in cfg.energies)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ScanConfig.from_dict({"scenario": "slab", "shotz": 12})
    with pytest.raises(ConfigError, match="scenario"):
        ScanConfig.from_dict({"shots": 12})


def test_from_dict_rejects_wrong_types():
    with pytest.raises(ConfigError, match="shots"):
        ScanConfig.from_dict({"scenario": "slab", "shots": "many"})
    with pytest.raises(ConfigError, match="shots"):
        ScanConfig.from_dict({"scenario": "slab", "shots": True})
    with pytest.raises(ConfigError, match="ye"):
        ScanConfig.from_dict({"scenario": "slab", "ye": "half"})
    with pytest.raises(ConfigError, match="compile"):
        ScanConfig.from_dict({"scenario": "slab", "compile": 1})
    with pytest.raises(ConfigError, match="energies"):
        ScanConfig.from_dict({"scenario": "slab", "energies": [1.0, "two"]})
    with pytest.raises(ConfigError, match="energies"):
        ScanConfig.from_dict({"scenario": "slab",
                              "energies": {"min": "a", "max": 2, "points": 3}})


def test_energy_grid_forms():
    a = ScanConfig.from_dict({"scenario": "slab",
                              "energies": {"min": 1, "max": 5, "points": 5}})
    b = ScanConfig.from_dict({"scenario": "slab",
                              "energies": [1, 2, 3, 4, 5]})
    c = ScanConfig.from_dict({"scenario": "slab", "energies": "1:5:5"})
    assert a.energies == b.energies == c.energies == (1, 2, 3, 4, 5)
    with pytest.raises(ConfigError, match="energies"):
        ScanConfig.from_dict({"scenario": "slab", "energies": "1:5"})
    with pytest.raises(ConfigError, match="energies"):
        ScanConfig.from_dict({"scenario": "slab",
                              "energies": {"min": 1, "hi": 2}})


def _cli_config(*argv):
    return cli._build_config(cli.build_parser().parse_args(["scan", *argv]))


def test_flags_win_over_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "earth", "shots": 128, "seed": 7}))
    cfg = _cli_config("--config", str(path), "--shots", "256", "--compile")
    assert cfg.scenario == "earth"
    assert cfg.shots == 256           # flag wins
    assert cfg.seed == 7              # file value kept
    assert cfg.compile is True


def test_scenario_flag_over_file_uses_its_default_grid(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "slab"}))
    cfg = _cli_config("--config", str(path), "--scenario", "msw")
    assert cfg.scenario == "msw"
    assert cfg.energies == ScanConfig(scenario="msw").energies


def test_from_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ScanConfig.from_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match="line 2"):
        ScanConfig.from_json(str(bad))


def test_from_json_undecodable_values(tmp_path):
    """Bytes that are not UTF-8, and an integer past Python's 4300-digit
    conversion limit, are config errors naming the file."""
    for name, data in (("latin1.json", b'{"scenario": "sl\xe4b"}'),
                       ("digits.json", b'{"scenario": "slab", "seed": '
                                       + b"9" * 5000 + b"}")):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=name):
            ScanConfig.from_json(str(path))


# --- run_scan -----------------------------------------------------------------

def test_scan_results_compare_as_a_bool():
    """Array columns make a generated field-wise ``==`` raise; results
    compare by identity instead."""
    cfg = ScanConfig(scenario="earth", energies=(1.0, 2.0), shots=16)
    first, second = run_scan(cfg), run_scan(cfg)
    assert (first == second) is False
    assert (first == first) is True
    assert (first != second) is True


def test_earth_scan_exact_matches_oracle():
    cfg = ScanConfig(scenario="earth", energies=tuple(np.linspace(1, 25, 25)),
                     shots=64)
    result = run_scan(cfg)
    p = OscParams(math.radians(cfg.theta13_deg), cfg.dm2_31)
    th23 = math.radians(cfg.theta23_deg)
    prof = earth_profile(cfg.ye)
    assert result.energy_gev.tolist() == list(cfg.energies)
    for column in (result.p_theory, result.p_exact, result.p_sampled,
                   result.stderr):
        assert column.shape == (25,) and column.dtype == np.float64
    for e, exact, theory in zip(cfg.energies, result.p_exact, result.p_theory):
        oracle = prob_slab(p, prof, e, "mu", th23)
        assert abs(exact - oracle) < 1e-12
        assert abs(exact - theory) < 1e-9
    assert np.all((0.0 <= result.p_sampled) & (result.p_sampled <= 1.0))


def test_slab_scan_plain_mode():
    cfg = ScanConfig(scenario="slab", energies=(2.0, 5.0, 11.0),
                     angle_mode="plain", shots=32)
    result = run_scan(cfg)
    p = OscParams(math.radians(cfg.theta13_deg), cfg.dm2_31)
    prof = slab_profile_from_config(cfg)
    for e, theory in zip(cfg.energies, result.p_theory):
        assert abs(theory - prob_slab(p, prof, e)) < 1e-15


def test_msw_exact_channels_sum_to_one():
    cfg = ScanConfig(scenario="msw", energies=tuple(np.linspace(0.001, 0.05, 10)),
                     shots=128)
    result = run_scan(cfg)
    (ee, th_ee, ex_ee, ps_ee, se_ee), (emu, th_emu, ex_emu, ps_emu, se_emu) = (
        result.channels())
    assert (ee, emu) == ("ee", "emu") and se_ee is se_emu is result.stderr
    assert np.all(ex_ee + ex_emu == 1.0) and np.all(ps_ee + ps_emu == 1.0)
    p = OscParams(math.radians(cfg.theta12_deg), cfg.dm2_21)
    layer = MatterLayer(cfg.production_rho, cfg.ye, 0.0)
    for i, e in enumerate(cfg.energies):
        pee, pem = prob_msw_adiabatic(p, layer, e)
        assert abs(th_ee[i] - pee) < 1e-15
        assert abs(th_emu[i] - pem) < 1e-15
        assert abs(ex_ee[i] - pee) < 1e-12


def test_msw_optimized_mode_close_to_theory():
    cfg = ScanConfig(scenario="msw", energies=(0.002, 0.02), shots=64,
                     synthesis="optimized", restarts=64)
    result = run_scan(cfg)
    assert np.max(np.abs(result.p_exact - result.p_theory)) < 1e-3


def test_default_msw_grid_fits_on_the_first_restart(tmp_path, monkeypatch):
    """One batched pass accepts the closed-form angles of every point, so
    the scan never calls the optimizer (its one-restart budget is never
    drawn on) and the circuit matches the oracle to 1e-12."""
    calls = _count_calls(monkeypatch, ["meets_tolerance", "optimize",
                                       "minimize"])
    csv = tmp_path / "out.csv"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "msw", "synthesis": "optimized",
                                "restarts": 1, "shots": 64, "csv": str(csv)}))
    assert cli.main(["scan", "--config", str(path)]) == 0
    assert calls == {"meets_tolerance": 1, "optimize": 0, "minimize": 0}
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 50
    for row in rows:
        assert abs(float(row[2]) - float(row[1])) <= 1e-12


def test_a_closed_form_miss_ends_the_scan_without_a_fit(monkeypatch):
    """A point whose closed-form angles miss the tolerance ends the scan
    with NumericalDomainError naming its energy and 1 - F; no optimizer
    call is made and no circuit is built."""
    closed_form = scan.synthesis_angles

    def one_row_wrong(u2q):
        angles = closed_form(u2q)
        angles[1, 0] += 0.5
        return angles
    monkeypatch.setattr(scan, "synthesis_angles", one_row_wrong)
    calls = _count_calls(monkeypatch, ["optimize", "minimize",
                                       "build_msw_circuit"])
    cfg = ScanConfig(scenario="msw", energies=(0.002, 0.01, 0.02), shots=64,
                     synthesis="optimized", restarts=64, seed=5)
    with pytest.raises(NumericalDomainError,
                       match=r"at 0\.01 GeV misses the tolerance: 1-F = "):
        run_scan(cfg)
    assert calls == {"optimize": 0, "minimize": 0, "build_msw_circuit": 0}


# --- CSV ------------------------------------------------------------------------

def _columns_result(scenario, shots, *columns):
    """A ScanResult built from the energy, theory, exact, sampled and
    stderr columns given as lists."""
    return ScanResult(scenario, shots, *(np.array(c, dtype=float)
                                         for c in columns))


def _tiny_result():
    return _columns_result("slab", 16, [1.0, 2.0, 3.0], [0.1, 0.5, 0.9],
                           [0.1000000000000001, 0.5, 0.9],
                           [0.125, 0.4375, 0.875], [0.02, 0.06, 0.04])


def test_csv_header_only_for_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(_columns_result("slab", 16, *[[]] * 5), str(path))
    assert path.read_text() == "energy_gev,p_theory,p_exact,p_sampled,stderr\n"


def test_csv_line_count(tmp_path):
    path = tmp_path / "three.csv"
    emit_csv(_tiny_result(), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "energy_gev,p_theory,p_exact,p_sampled,stderr"
    assert lines[1] == "1.0,0.1,0.1000000000000001,0.125,0.02"


def test_csv_round_trip_exact(tmp_path):
    """Parser oracle: re-reading the CSV reproduces the ScanResult."""
    cfg = ScanConfig(scenario="earth", energies=(1.0, 3.0, 9.0, 24.0))
    result = run_scan(cfg)
    path = tmp_path / "rt.csv"
    emit_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "energy_gev,p_theory,p_exact,p_sampled,stderr"
    parsed = np.array([[float(tok) for tok in line.split(",")]
                       for line in lines[1:]])
    rebuilt = _columns_result("earth", cfg.shots, *parsed.T)
    for name in ("energy_gev", "p_theory", "p_exact", "p_sampled", "stderr"):
        assert getattr(rebuilt, name).tobytes() == \
            getattr(result, name).tobytes(), name


def test_csv_round_trip_msw_channel_column(tmp_path):
    cfg = ScanConfig(scenario="msw", energies=(0.002, 0.02), shots=32)
    result = run_scan(cfg)
    path = tmp_path / "msw.csv"
    emit_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",channel")
    rebuilt = [(float(t[0]), t[5], float(t[1]), float(t[2]), float(t[3]),
                float(t[4]))
               for t in (line.split(",") for line in lines[1:])]
    assert [row[1] for row in rebuilt] == ["ee", "emu", "ee", "emu"]
    assert rebuilt == list(result.rows())


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = ScanConfig(scenario="slab", energies=tuple(np.linspace(1, 25, 12)),
                     seed=9, shots=512)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scan(cfg), str(a))
    emit_csv(run_scan(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sampled_mean_converges_to_exact():
    """Statistical soundness: over 200 seeds at one grid point, the mean
    sampled probability sits within 3*stderr/sqrt(200) of p_exact."""
    cfg = ScanConfig(scenario="earth", energies=(6.0, 7.0), shots=4096)
    exact = run_scan(cfg).p_exact[0]
    samples = []
    for s in range(200):
        res = run_scan(ScanConfig(scenario="earth", energies=(6.0, 7.0),
                                  shots=4096, seed=s))
        samples.append(res.p_sampled[0])
    stderr = math.sqrt(exact * (1 - exact) / cfg.shots)
    assert abs(np.mean(samples) - exact) <= 3 * stderr / math.sqrt(200)


def test_slab_sampling_within_five_sigma():
    cfg = ScanConfig(scenario="slab", energies=tuple(np.linspace(1, 25, 60)),
                     shots=4096, seed=2)
    result = run_scan(cfg)
    theory = result.p_theory
    inside = (np.abs(result.p_sampled - theory)
              <= 5 * np.sqrt(theory * (1 - theory) / cfg.shots))
    assert np.mean(inside) >= 0.99


def test_scan_independent_of_other_points():
    """Per-point seeds make each sampled value grid-independent."""
    base = ScanConfig(scenario="earth", energies=tuple(np.linspace(1, 25, 7)),
                      seed=3, shots=256)
    full = run_scan(base)
    # same grid, but computed one energy at a time with matching indices
    for i, e in enumerate(base.energies):
        cfg_i = ScanConfig(scenario="earth", energies=(e,),
                           seed=base.seed ^ i, shots=256)
        single = run_scan(cfg_i)
        assert single.p_sampled[0] == full.p_sampled[i]


# --- SVG ------------------------------------------------------------------------

def test_plot_needs_two_points(tmp_path):
    r = _columns_result("slab", 16, [1.0], [0.1], [0.1], [0.125], [0.02])
    with pytest.raises(ValueError):
        emit_plot(r, str(tmp_path / "one.svg"))


def test_plot_byte_deterministic(tmp_path):
    cfg = ScanConfig(scenario="earth", energies=tuple(np.linspace(1, 25, 20)),
                     seed=1, shots=256)
    result = run_scan(cfg)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(result, str(a))
    emit_plot(result, str(b))
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<?xml")
    assert "Energy [GeV]" in text and "Probability" in text
    assert text.count("<polyline") == 1
    # the probability axis always spans [0, 1]
    assert ">0<" in text and ">1<" in text


def test_plot_msw_has_two_series(tmp_path):
    cfg = ScanConfig(scenario="msw", energies=(0.002, 0.01, 0.05), shots=64)
    path = tmp_path / "msw.svg"
    emit_plot(run_scan(cfg), str(path))
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "P(nu_e -&gt; nu_e)" in text or "P(nu_e -> nu_e)" in text


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _hand_built_result():
    """An msw result on an uneven grid, with error bars clipped at 0 (two
    emu points) and at 1 (two ee points)."""
    return _columns_result("msw", 64, [0.5, 1.0, 2.5, 4.0],
                           [0.8125, 0.5, 0.8125, 0.375],
                           [0.75, 0.4375, 0.75, 0.5],
                           [0.96875, 0.46875, 0.96875, 0.4375],
                           [0.0625, 0.015625, 0.0625, 0.125])


def test_plot_of_a_hand_built_result_matches_its_golden(tmp_path):
    """The golden was written by the per-marker emitter that the array
    layout replaced, with the 2.5 GeV emu marker's three lines set by hand
    to the sx/sy coordinates of 1 - ee; the values involve no simulator
    numerics."""
    path = emit_plot(_hand_built_result(), str(tmp_path / "plot.svg"))
    golden = (FIXTURES / "hand_built_plot.svg").read_bytes()
    assert pathlib.Path(path).read_bytes() == golden


# --- sampling -------------------------------------------------------------------

def _recorded_samples(monkeypatch):
    """Record every (p1, shots, seed, counts) of the scan's sample calls."""
    calls = []

    def recorded(p1, shots, seed):
        ones = simulator.sample(p1, shots, seed)
        calls.append((p1, shots, seed, ones))
        return ones
    monkeypatch.setattr(scan, "sample", recorded)
    return calls


def test_cli_scan_seed_past_uint64(tmp_path, monkeypatch, capsys):
    seed = 2 ** 64 + 5
    calls = _recorded_samples(monkeypatch)
    csv = tmp_path / "out.csv"
    assert cli.main(["scan", "--scenario", "earth", "--energies", "1:25:40",
                     "--seed", str(seed), "--csv", str(csv)]) == 0
    (p1, shots, _, ones), = calls
    expected = [np.random.Generator(np.random.PCG64(seed ^ i)).binomial(shots, p)
                for i, p in enumerate(np.clip(p1, 0.0, 1.0).tolist())]
    assert ones.tolist() == expected
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [float(row[3]) for row in rows] == [(shots - k) / shots
                                               for k in expected]


def test_scan_at_the_largest_shot_count(monkeypatch):
    """p_sampled is (shots - ones) / shots in Python ints: past 2**53
    shots a float64 shots gives other values (at most points here), and
    2**53 + 1 is the first count a float64 cannot hold.  stderr is
    sqrt(p (1 - p) / shots), bit for bit."""
    calls = _recorded_samples(monkeypatch)
    for shots in (2 ** 63 - 1, 2 ** 53 + 1):
        result = run_scan(ScanConfig(scenario="earth", shots=shots, seed=3))
        ones = calls[-1][3].tolist()
        p = result.p_sampled.tolist()
        assert p == [(shots - k) / shots for k in ones]
        assert result.stderr.tolist() == [math.sqrt(q * (1 - q) / shots)
                                          for q in p]


# --- CLI ------------------------------------------------------------------------

def test_cli_scan_success(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    svg = tmp_path / "out.svg"
    code = cli.main(["scan", "--scenario", "earth", "--energies", "1:25:8",
                     "--shots", "128", "--seed", "4",
                     "--csv", str(csv), "--svg", str(svg)])
    assert code == 0
    assert csv.exists() and svg.exists()
    out = capsys.readouterr().out
    assert "wrote" in out


def test_cli_scan_after_a_bad_flag_matches_a_first_scan(tmp_path, capsys):
    """main parses with one parser per process; a failed parse leaves
    nothing behind that changes the next scan."""
    def scan_outputs(name):
        csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
        assert cli.main(["scan", "--scenario", "msw", "--energies",
                         "0.001:0.05:5", "--seed", "3", "--csv", str(csv),
                         "--svg", str(svg)]) == 0
        out = capsys.readouterr().out.replace(str(tmp_path / name), "")
        return out, csv.read_bytes(), svg.read_bytes()

    first = scan_outputs("first")
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--scenario", "msw", "--no-such-flag"])
    assert info.value.code == 2
    capsys.readouterr()
    assert scan_outputs("again") == first


def test_cli_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "slab",
                               "energies": [1.0, 5.0, 9.0],
                               "shots": 64}))
    code = cli.main(["scan", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "slab: 3 energies, 64 shots" in out


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "slab", "shotz": 1}))
    code = cli.main(["scan", "--config", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_scenario_exit_2(capsys):
    assert cli.main(["scan"]) == 2


def test_cli_numerical_error_exit_3(monkeypatch, capsys):
    def boom(config):
        raise NumericalDomainError("degenerate point")
    monkeypatch.setattr(cli, "run_scan", boom)
    code = cli.main(["scan", "--scenario", "earth", "--energies", "1:2:2",
                     "--shots", "8"])
    assert code == 3
    assert "numerical-domain error" in capsys.readouterr().err


def test_cli_dump_circuit(capsys):
    code = cli.main(["scan", "--scenario", "earth", "--energies", "1:25:2",
                     "--shots", "8", "--compile", "--dump-circuit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# nuqsim-circuit width=1" in out
    assert "virtual-Z: 10 gates -> 7 gates, 7 physical pulses (3 RZ folded)" in out


def test_cli_dump_msw_exact_shows_matrix(capsys):
    code = cli.main(["scan", "--scenario", "msw", "--energies",
                     "0.002:0.02:2", "--shots", "8", "--dump-circuit"])
    assert code == 0
    assert "4x4 dilation" in capsys.readouterr().out


BAD_INPUTS = [
    # (config fields, text stderr must contain); each must exit 2
    ({"energies": [1.0, float("nan")]}, "energies"),
    ({"energies": [1.0, float("inf")]}, "energies"),
    ({"theta12_deg": -1.0}, "theta12_deg"),
    ({"theta13_deg": 120}, "theta13_deg"),
    ({"theta23_deg": float("nan")}, "theta23_deg"),
    ({"dm2_21": 0}, "dm2_21"),
    ({"dm2_31": float("inf")}, "dm2_31"),
    ({"ye": 0}, "ye"),
    ({"ye": 1.5}, "ye"),
    ({"rho1": -1}, "rho1"),
    ({"rho2": float("-inf")}, "rho2"),
    ({"production_rho": -150.0}, "production_rho"),
    ({"dx1_km": -500.0}, "dx1_km"),
    ({"dx2_km": float("nan")}, "dx2_km"),
    ({"energies": [2.0], "svg": "{tmp}/one.svg"}, "svg"),
    ({"csv": "{tmp}/missing/out.csv"}, "missing/out.csv"),
    ({"svg": "{tmp}/missing/out.svg"}, "missing/out.svg"),
    ({"shots": 2 ** 63}, "shots"),
    ({"periods": 2 ** 63}, "periods"),
    ({"periods": 4611686018427387903}, "periods"),
    ({"periods": 5001, "energies": [1.0]}, "periods"),
    ({"periods": 500, "energies": "1:2:1001"}, "periods"),
    ({"energies": "1:2:10000000000000"}, "energies"),
    ({"energies": {"min": 1, "max": 2, "points": scan.MAX_POINTS + 1}},
     "energies"),
    ({"energies": {"min": 1, "max": 2, "points": float("inf")}}, "energies"),
    # null where the field's annotation does not allow None
    ({"shots": None}, "shots"),
    ({"periods": None}, "periods"),
    ({"restarts": None}, "restarts"),
    ({"theta13_deg": None}, "theta13_deg"),
    ({"scenario": None}, "scenario"),
    # integers that do not fit a double
    ({"theta12_deg": 10 ** 400}, "theta12_deg"),
    ({"energies": [1.0, 10 ** 400]}, "energies"),
    ({"energies": {"min": 1, "max": 10 ** 400, "points": 3}}, "energies"),
    # the energy grammar takes JSON numbers and an integer point count
    ({"energies": {"min": 1, "max": 2, "points": 2.7}}, "energies"),
    ({"energies": {"min": 1, "max": 2, "points": True}}, "energies"),
    ({"energies": {"min": True, "max": 2, "points": 3}}, "energies"),
    ({"energies": {"min": 1, "max": "2", "points": 3}}, "energies"),
    ({"energies": [True, 2]}, "energies"),
    ({"energies": ["1", "2"]}, "energies"),
    # the SVG would overwrite the CSV
    ({"csv": "{tmp}/out", "svg": "{tmp}/./out"}, "svg"),
    # an empty path is no output file, not an output left out
    ({"csv": ""}, "field 'csv': must be a file path"),
    ({"svg": ""}, "field 'svg': must be a file path"),
]


@pytest.mark.parametrize("bad, named", BAD_INPUTS)
def test_cli_bad_input_exit_2(tmp_path, capsys, bad, named):
    cfg = {"scenario": "slab", "energies": [1.0, 2.0], "shots": 8}
    cfg.update({k: v.format(tmp=tmp_path) if isinstance(v, str) else v
                for k, v in bad.items()})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_cli_rejects_csv_and_svg_at_one_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert cli.main(["scan", "--scenario", "earth", "--energies", "1:2:2",
                     "--csv", "out", "--svg", "sub/../out"]) == 2
    captured = capsys.readouterr()
    assert "field 'svg'" in captured.err and "same file" in captured.err
    assert "wrote" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, energies", [("slab", "1:25:8"),
                                                ("msw", "0.001:0.05:4")])
def test_cli_compact_table_matches_its_golden(capsys, scenario, energies):
    """Without --csv/--svg the CLI prints one line per energy and channel
    (msw: ee then emu), columns <11.5g and <11.6f."""
    assert cli.main(["scan", "--scenario", scenario, "--energies", energies,
                     "--shots", "256", "--seed", "11"]) == 0
    golden = (FIXTURES / f"table_{scenario}.txt").read_text()
    assert capsys.readouterr().out == golden


def test_cli_dump_of_the_deep_slab_matches_its_golden(tmp_path, capsys):
    """The golden was written by the running-offset compiler: ``repr`` of
    all 201 compiled angles of point 0, the compile report line and the
    compact table."""
    config = tmp_path / "slab_deep.json"
    config.write_text(json.dumps({"scenario": "slab", "compile": True,
                                  "periods": 50}))
    assert cli.main(["scan", "--config", str(config), "--seed", "7",
                     "--shots", "4096", "--dump-circuit"]) == 0
    golden = (FIXTURES / "dump_slab_deep.txt").read_text()
    assert capsys.readouterr().out == golden


def test_work_budget_holds_every_default_grid():
    """The caps sit far above the default grids and slab profile."""
    for scenario, (_, _, points) in scan.DEFAULT_GRIDS.items():
        assert 100 * points <= scan.MAX_POINTS
    cfg = ScanConfig(scenario="slab")
    assert 100 * 2 * cfg.periods <= scan.MAX_LAYERS
    assert 100 * 2 * cfg.periods * len(cfg.energies) <= scan.MAX_LAYER_POINTS
    at_caps = ScanConfig.from_dict({"scenario": "slab", "energies": "1:2:100",
                                    "periods": scan.MAX_LAYERS // 2})
    assert 2 * at_caps.periods * len(at_caps.energies) == scan.MAX_LAYER_POINTS


def _env_with_src() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, *paths])))


def _modules_after(code: str, cwd) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        cwd=cwd, env=_env_with_src(), capture_output=True, text=True,
        check=True)
    return set(out.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [
    ["--scenario", "earth", "--energies", "1:25:60", "--seed", str(10 ** 30)],
    ["--scenario", "msw", "--seed", str(2 ** 32)],
], ids=["earth-seed-1e30", "msw-seed-2^32"])
def test_cli_scan_writes_nothing_to_stderr(tmp_path, argv):
    """A successful scan leaves stderr empty: no warning, e.g. from a
    numpy scalar overflow in the seed hash, leaks to the user."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nuqsim.cli\n"
         "sys.exit(nuqsim.cli.main(sys.argv[1:]))", "scan", *argv,
         "--csv", "out.csv", "--svg", "out.svg"],
        cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stderr == ""


@pytest.mark.parametrize("code", [
    "import nuqsim.cli",
    "import nuqsim.cli\nassert nuqsim.cli.main(['scan', '--scenario', 'msw', "
    "'--synthesis', 'optimized', '--csv', 'msw.csv', '--svg', 'msw.svg']) == 0",
], ids=["import", "msw-optimized-scan"])
def test_scan_imports_neither_scipy_optimize_nor_constants(tmp_path, code):
    loaded = _modules_after(code, tmp_path)
    assert "nuqsim.optim" in loaded
    assert not loaded & {"scipy.optimize", "scipy.constants"}


def test_cli_restart_budget_past_int64(tmp_path):
    """Each restart draws its start when it begins, so a budget past
    int64 runs and gives the fits of any budget they converge within."""
    csv = {}
    for restarts in (64, 2 ** 63):
        path = tmp_path / f"{restarts}.json"
        csv[restarts] = tmp_path / f"{restarts}.csv"
        path.write_text(json.dumps({
            "scenario": "msw", "synthesis": "optimized", "shots": 64,
            "energies": [0.002, 0.02], "restarts": restarts,
            "csv": str(csv[restarts])}))
        assert cli.main(["scan", "--config", str(path)]) == 0
    assert csv[64].read_bytes() == csv[2 ** 63].read_bytes()


def test_cli_failed_fit_exit_3(tmp_path, monkeypatch, capsys):
    """The tolerance is read when the scan runs; a miss is exit 3 naming
    the energy and its 1 - F, with no optimizer call."""
    monkeypatch.setattr(optim, "TOL_INFIDELITY", -1.0)
    calls = _count_calls(monkeypatch, ["optimize", "minimize"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "msw", "synthesis": "optimized",
                                "energies": [0.002, 0.02], "restarts": 2}))
    assert cli.main(["scan", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "at 0.002 GeV misses the tolerance: 1-F = " in err
    assert "> -1" in err and "Traceback" not in err
    assert calls == {"optimize": 0, "minimize": 0}


def test_cli_failed_fit_names_a_default_grid_energy(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(optim, "TOL_INFIDELITY", -1.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "msw", "synthesis": "optimized",
                                "restarts": 1}))
    assert cli.main(["scan", "--config", str(path)]) == 3
    assert "at 0.001 GeV misses the tolerance" in capsys.readouterr().err


def test_every_float_field_has_a_domain():
    floats = {name for name, kind in scan._FIELD_TYPES.items() if kind is float}
    assert set(scan._DOMAINS) == floats


@pytest.mark.parametrize("fields, named", [
    ({"dx1_km": 1e300}, "layer phase"),
    ({"energies": [1e-300, 1.0]}, "layer phase"),
    ({"dx1_km": 2000.0, "dx2_km": 2000.0, "periods": 50,
      "energies": [0.1, 1.0]}, "accumulated phase"),
    ({"scenario": "earth", "energies": [1e-300, 1.0]}, "layer phase"),
])
def test_cli_phase_without_precision_exit_3(tmp_path, capsys, fields, named):
    cfg = {"scenario": "slab", "energies": [1.0, 2.0], "shots": 8}
    cfg.update(fields)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert named in err
    assert f"at {cfg['energies'][0]!r} GeV" in err
    names = {"slab": "'dm2_31', 'dx1_km', 'dx2_km', 'periods', 'energies'",
             "earth": "'dm2_31', 'energies'"}[cfg["scenario"]]
    assert f"the fields that set the phase: {names}" in err
    assert "Traceback" not in err


def test_cli_dump_reuses_the_scans_fit(tmp_path, monkeypatch, capsys):
    """--dump-circuit prints the scan's own circuit of point 0: its
    closed-form angles, accepted without an optimizer call."""
    calls = _count_calls(monkeypatch, ["optimize"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "msw", "synthesis": "optimized",
                                "energies": [0.002, 0.01, 0.02],
                                "restarts": 64, "seed": 5}))
    assert cli.main(["scan", "--config", str(path), "--dump-circuit"]) == 0
    assert calls == {"optimize": 0}
    p, layer = scan.msw_setup(ScanConfig(scenario="msw"))
    angles = synthesis_angles(build_dilation(p, layer, np.array([0.002])))
    out = capsys.readouterr().out
    assert out.startswith(dump_circuit(build_msw_circuit(angles[0])))


def _count_calls(monkeypatch, names):
    """Wrap every nuqsim module's binding of each name; returns the calls."""
    calls = {name: 0 for name in names}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("nuqsim."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("argv, expected", [
    (["--scenario", "slab", "--energies", "1:2:3", "--compile"],
     {"build_slab_circuit": 1, "virtual_z_pass": 1, "build_dilation": 0}),
    (["--scenario", "msw", "--energies", "0.002:0.02:3"],
     {"build_slab_circuit": 0, "virtual_z_pass": 0, "build_dilation": 1}),
])
def test_cli_scan_builds_each_result_once(monkeypatch, capsys, argv, expected):
    """The CLI prints the compile report and the dump from the scan's
    own result instead of building them again."""
    calls = _count_calls(monkeypatch, list(expected))
    assert cli.main(["scan", *argv, "--dump-circuit"]) == 0
    assert calls == expected
    out = capsys.readouterr().out
    assert ("virtual-Z:" in out) == ("--compile" in argv)


@pytest.mark.parametrize("synthesis", ["optimized", "exact"])
def test_msw_scan_derives_its_matter_angle_once_per_use(monkeypatch,
                                                        synthesis):
    """An msw scan computes the production-layer theta_m twice in either
    mode: once for its dilation, which the two-CNOT synthesis reads too,
    and once in the oracle, which stays independent of the circuit."""
    calls = _count_calls(monkeypatch, ["effective_params"])
    run_scan(ScanConfig(scenario="msw", energies=(0.002, 0.01, 0.02),
                        shots=64, synthesis=synthesis))
    assert calls == {"effective_params": 2}
