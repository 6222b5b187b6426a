"""P(nu_mu -> nu_e) of a slab or earth scan in extended precision.

An independent evaluation of the physics that ``oscillation`` and the
circuits compute in float64: the matter term, theta_m, dm2_m, the
atmospheric angle, the layer phases and the product of the layer
propagators, each in ``np.longdouble`` (64-bit significand on x86-64),
from a config's fields.  Only the two unit-conversion factors come from
nuqsim.  Against it a float64 result shows its own rounding, not the
rounding it shares with the code it is compared to (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., ch. 1-4).
"""
import numpy as np

from nuqsim.oscillation import MATTER_FACTOR, PHASE_FACTOR

LONG = np.longdouble

_PI = 4 * np.arctan(LONG(1))
# (rho, length_km) of the mantle-core-mantle earth crossing, one period
_EARTH = ((5.0, 5000.0), (10.0, 2500.0), (5.0, 5000.0))


def _radians(degrees) -> np.longdouble:
    return LONG(degrees) * _PI / 180


def layer_terms(fields: dict, energy) -> list[tuple]:
    """``(angle, phase, arcsin_argument)`` of each layer of one period,
    each over the energies; the argument is None in plain angle mode."""
    e = np.asarray(energy, LONG)
    theta, dm2 = _radians(fields["theta13_deg"]), LONG(fields["dm2_31"])
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    period = (_EARTH if fields["scenario"] == "earth" else
              ((fields["rho1"], fields["dx1_km"]),
               (fields["rho2"], fields["dx2_km"])))
    terms = []
    for rho, length in period:
        a = LONG(MATTER_FACTOR) * LONG(fields["ye"]) * LONG(rho) * e
        c2m = c2 - a / dm2
        theta_m = np.arctan2(s2, c2m) / 2
        dm2_m = dm2 * np.hypot(c2m, s2)
        phase = LONG(PHASE_FACTOR) * dm2_m * LONG(length) / e
        argument = None
        angle = theta_m
        if fields["angle_mode"] == "atmospheric":
            argument = np.sin(_radians(fields["theta23_deg"])) * np.sin(
                2 * theta_m)
            angle = np.arcsin(argument)
        terms.append((angle, phase, argument))
    return terms


def p_mu_e(fields: dict, energy):
    """P(nu_mu -> nu_e) at one energy or an energy array, as long double:
    nu_mu = (0, 1) through each layer's propagator
    cos(phi/2) I - i sin(phi/2) (cos 2t Z + sin 2t X), period by period,
    its squared nu_e amplitude."""
    steps = []
    for angle, phase, _ in layer_terms(fields, energy):
        c, s = np.cos(phase / 2), np.sin(phase / 2)
        sz, sx = s * np.cos(2 * angle), s * np.sin(2 * angle)
        # entries as (real, imaginary): [[c - i sz, -i sx], [-i sx, c + i sz]]
        steps.append((c, sz, sx))
    periods = 1 if fields["scenario"] == "earth" else fields["periods"]
    # nu_e = er + i ei, nu_mu = mr + i mi
    er = ei = mi = LONG(0)
    mr = LONG(1)
    for c, sz, sx in steps * periods:
        er, ei, mr, mi = (c * er + sz * ei + sx * mi,
                          c * ei - sz * er - sx * mr,
                          c * mr - sz * mi + sx * ei,
                          c * mi + sz * mr - sx * er)
    return er * er + ei * ei
