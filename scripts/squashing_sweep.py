#!/usr/bin/env python3
"""Noise squashing sweep: the red-detuned mechanical feature versus cavity noise.

For a fixed mechanical occupation, the Lorentzian on top of the output floor
shrinks as the effective cavity occupation n_eff grows, crosses zero at
n_eff = n_m (for uniform port baths), and becomes a dip below the floor.
Prints the analytic weight and the backaction-imprecision correlator S_zF
at each step.

    python scripts/squashing_sweep.py
"""

import numpy as np

from sideband_lab.config import config_from_dict
from sideband_lab.linear_response import resonance_correlators
from sideband_lab.model import BathSpec, ToneSpec
from sideband_lab.scattering import single_tone_integrated_weight

TONE_COOPERATIVITY = 1e-3


def main() -> None:
    params, _, _ = config_from_dict({"system": {
        "omega_c_hz": 5.4e9, "omega_m_hz": 400e6, "g0_hz": 16.0, "kappa_left_hz": 155e3,
        "kappa_right_hz": 450e3, "kappa_internal_hz": 0.0, "gamma_m_hz": 10.0,
    }, "baths": {}, "tones": []})
    gamma_opt = TONE_COOPERATIVITY * params.gamma_m
    tone = ToneSpec(detuning=-params.omega_m, role="red_probe",
                    coupling=np.sqrt(gamma_opt * params.kappa) / 2.0)
    n_m = 1.0
    print(f"mechanical bath n_m = {n_m}, cooperativity = {TONE_COOPERATIVITY}")
    print(f"{'n_eff':>8} {'weight (rad/s)':>16} {'Im S_zF':>10}")
    for n_eff in np.linspace(0.0, 2.5, 11):
        baths = BathSpec(n_r=n_eff, n_l=n_eff, n_m=n_m)  # uniform: n_eff = n_c
        weight = single_tone_integrated_weight(params, baths, tone, "symmetrized")
        s_zf = resonance_correlators(params, baths, tone).s_zf
        marker = " <- squashed below the floor" if weight < 0 else ""
        print(f"{n_eff:8.2f} {weight:16.6g} {s_zf.imag:10.4f}{marker}")


if __name__ == "__main__":
    main()
