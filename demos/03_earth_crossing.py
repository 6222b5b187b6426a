"""Neutrinos through the center of the earth: mantle-core-mantle slabs.

The earth is modeled as three constant-density layers (5 g/cm^3 over
5000 km, 10 g/cm^3 over 2500 km, then mantle again).  The appearance
probability P(nu_mu -> nu_e) is scanned over 1-25 GeV; the compiled
circuit needs 7 physical pulses instead of 10 gates thanks to the
virtual-Z pass.
"""
import math
import pathlib

import numpy as np

from nuqsim import (OscParams, ScanConfig, build_slab_circuit, dump_circuit,
                    earth_profile, emit_csv, emit_plot, run_scan,
                    slab_layer_params, virtual_z_pass)

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

config = ScanConfig.from_dict({
    "scenario": "earth",
    "energies": {"min": 1.0, "max": 25.0, "points": 150},
    "shots": 4096,
    "seed": 0,
})

# show what one scan circuit looks like, before and after compilation
p = OscParams(math.radians(config.theta13_deg), config.dm2_31)
raw = build_slab_circuit(*slab_layer_params(
    p, earth_profile(config.ye), 6.0, math.radians(config.theta23_deg)))
compiled, report = virtual_z_pass(raw)
print("uncompiled circuit at 6 GeV:")
print(dump_circuit(raw))
print("after the virtual-Z pass:")
print(dump_circuit(compiled))
print(f"{report.input_gate_count} gates -> {report.output_gate_count} gates, "
      f"{report.physical_pulse_count} physical pulses, "
      f"{report.folded_rz_count} RZ folded away\n")

result = run_scan(config)
emit_csv(result, str(out / "earth.csv"))
emit_plot(result, str(out / "earth.svg"))
worst = np.max(np.abs(result.p_exact - result.p_theory))
peak = np.argmax(result.p_theory)
print(f"max |circuit - theory| over {len(result.energy_gev)} points: "
      f"{worst:.2e}")
print(f"largest conversion {result.p_theory[peak]:.3f} at "
      f"{result.energy_gev[peak]:.2f} GeV")
print(f"wrote {out / 'earth.csv'} and {out / 'earth.svg'}")
