"""Closed-form reference values for the benchmark's correctness checks.

Written apart from ``sideband_lab`` so that the benchmark never checks the
program against itself: the systems are spelled out in the config-file
schema (frequencies in Hz) and every quantity is re-derived from the
paper's expressions (hbar = 1, rates in rad/s, vacuum weights 1).
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

#: Default shunt capacitance of ``calibrate --synthetic`` (farads).
SYNTHETIC_C_OUT = 2.7e-15


def _tones(omega_m_hz: float, delta_hz: float, probe: dict, delta_c_hz: float | None = None,
           cooling: dict | None = None) -> list[dict]:
    tones = [
        {"role": "red_probe", "detuning_hz": -(omega_m_hz + delta_hz), **probe},
        {"role": "blue_probe", "detuning_hz": omega_m_hz + delta_hz, **probe},
    ]
    if cooling is not None:
        tones.append({"role": "cooling", "detuning_hz": -(omega_m_hz + delta_c_hz), **cooling})
    return tones


def _coupling_hz(gamma_opt_hz: float, kappa_hz: float) -> float:
    """Tone coupling G/2pi (Hz) that gives the optical damping gamma_opt = 4 G^2 / kappa."""
    return math.sqrt(gamma_opt_hz * kappa_hz) / 2.0


def _device(kappa_l_hz: float, kappa_i_hz: float, baths: dict) -> dict:
    kappa_hz = kappa_l_hz + 450e3 + kappa_i_hz
    return {
        "system": {"omega_c_hz": 5.4e9, "omega_m_hz": 4.0e6, "g0_hz": 16.0,
                   "kappa_left_hz": kappa_l_hz, "kappa_right_hz": 450e3,
                   "kappa_internal_hz": kappa_i_hz, "gamma_m_hz": 10.0},
        "baths": baths,
        "tones": _tones(4.0e6, 5e3, {"n_photons": 1e5}, 30e3,
                        {"coupling_hz": _coupling_hz(350.0, kappa_hz)}),
    }


#: The program's named presets, restated from the paper's device tables.
PRESETS = {
    "main-text": _device(150e3, 260e3, {"n_right": 0.34, "n_mech": 103.7}),
    "si-figure": _device(155e3, 265e3, {
        "n_right": 0.3, "n_left": 0.3,
        "n_internal": (0.24 * 870e3 - 0.3 * (450e3 + 155e3)) / 265e3,
        "n_mech": (100.0 * 360.0 - 350.0 * 0.24) / 10.0,
    }),
    "oracle-demo": {
        "system": {"omega_c_hz": 1.0e9, "omega_m_hz": 10.0e6, "g0_hz": 50.0,
                   "kappa_left_hz": 4e3, "kappa_right_hz": 80e3, "kappa_internal_hz": 0.0,
                   "gamma_m_hz": 400.0},
        "baths": {},
        "tones": _tones(10.0e6, 4200.0, {"coupling_hz": _coupling_hz(200.0, 84e3)}),
    },
}

#: Three-tone cooling case of the oracle-equivalence tests: balanced probes,
#: a cooling tone at delta_c = 3 delta and thermal mechanics (n_m = 80).
COOLING = {
    "system": {"omega_c_hz": 1.0e9, "omega_m_hz": 20.0e6, "g0_hz": 50.0,
               "kappa_left_hz": 20e3, "kappa_right_hz": 120e3, "kappa_internal_hz": 20e3,
               "gamma_m_hz": 300.0},
    "baths": {"n_mech": 80.0},
    "tones": _tones(20.0e6, 4200.0, {"coupling_hz": _coupling_hz(100.0, 160e3)}, 12600.0,
                    {"coupling_hz": _coupling_hz(100.0, 160e3)}),
}

#: Two-port (kappa_i = 0) system with warm ports for ``noise-constraint``.
TWO_PORT = {
    "system": {"omega_c_hz": 5.0e9, "omega_m_hz": 8.0e6, "g0_hz": 30.0,
               "kappa_left_hz": 60e3, "kappa_right_hz": 240e3, "kappa_internal_hz": 0.0,
               "gamma_m_hz": 50.0},
    "baths": {"n_right": 0.4, "n_left": 1.5, "n_mech": 300.0},
    "tones": _tones(8.0e6, 6e3, {"n_photons": 2e4}),
}


class System:
    """Angular rates and occupations of one config dict, with the paper's closed forms."""

    def __init__(self, config: dict):
        s, b = config["system"], config["baths"]
        self.omega_c = TWO_PI * s["omega_c_hz"]
        self.omega_m = TWO_PI * s["omega_m_hz"]
        self.g0 = TWO_PI * s["g0_hz"]
        self.kappa_l = TWO_PI * s["kappa_left_hz"]
        self.kappa_r = TWO_PI * s["kappa_right_hz"]
        self.kappa_i = TWO_PI * s.get("kappa_internal_hz", 0.0)
        self.kappa = self.kappa_l + self.kappa_r + self.kappa_i
        self.gamma_m = TWO_PI * s["gamma_m_hz"]
        self.n_r = b.get("n_right", 0.0)
        self.n_l = b.get("n_left", 0.0)
        self.n_i = b.get("n_internal", 0.0)
        self.n_m = b.get("n_mech", 0.0)
        rates = {"red_probe": 0.0, "blue_probe": 0.0, "cooling": 0.0}
        self.delta = self.delta_c = 0.0
        for tone in config["tones"]:
            if "coupling_hz" in tone:
                g = TWO_PI * tone["coupling_hz"]
            else:
                g = self.g0 * math.sqrt(tone["n_photons"])
            rates[tone["role"]] = 4.0 * g * g / self.kappa
            offset = abs(TWO_PI * tone["detuning_hz"]) - self.omega_m
            if tone["role"] == "cooling":
                self.delta_c = offset
            else:
                self.delta = offset
        self.gamma_plus = rates["red_probe"]
        self.gamma_minus = rates["blue_probe"]
        self.gamma_cool = rates["cooling"]

    @property
    def pref(self) -> float:
        """Output-port share kappa_r / kappa of every sideband."""
        return self.kappa_r / self.kappa

    @property
    def n_c(self) -> float:
        return (self.kappa_l * self.n_l + self.kappa_r * self.n_r + self.kappa_i * self.n_i) / self.kappa

    @property
    def n_eff(self) -> float:
        return 2.0 * self.n_c - self.n_r

    @property
    def floor(self) -> float:
        """Symmetrized output floor 1/2 + n_r + (4 kappa_r / kappa)(n_c - n_r)."""
        return 0.5 + self.n_r + 4.0 * self.pref * (self.n_c - self.n_r)

    @property
    def gamma_big_m(self) -> float:
        return self.gamma_m + self.gamma_cool

    @property
    def gamma_tot(self) -> float:
        return self.gamma_big_m + self.gamma_plus - self.gamma_minus

    @property
    def n_bar(self) -> float:
        """Averaged mechanical occupation under both probes and the cooling tone."""
        n_big_m = (self.gamma_m * self.n_m + self.gamma_cool * self.n_c) / self.gamma_big_m
        return (self.gamma_big_m * n_big_m + self.gamma_minus * (self.n_c + 1.0)
                + self.gamma_plus * self.n_c) / self.gamma_tot

    def sideband_weights(self) -> tuple[float, float]:
        """Symmetrized (anti-Stokes, Stokes) weights: brackets n_bar - n_eff and
        n_bar + n_eff + 1 times (kappa_r / kappa) gamma_opt-+."""
        return (self.pref * self.gamma_plus * (self.n_bar - self.n_eff),
                self.pref * self.gamma_minus * (self.n_bar + self.n_eff + 1.0))

    def linewidth(self, n_photons, g0: float, gamma_m: float):
        """Total linewidth gamma_m + 4 g0^2 n_p / kappa under a red tone (rad/s)."""
        return gamma_m + 4.0 * g0**2 * n_photons / self.kappa

    def s21_shunt_mag(self, omega, c_out: float, r_l: float = 50.0):
        """|S21| of the cavity line plus the output shunt capacitor's leakage."""
        bare = -math.sqrt(self.kappa_r * self.kappa_l) / (1j * (omega - self.omega_c) + self.kappa / 2.0)
        return abs(bare + 2.0 * r_l * 1j * self.omega_c * c_out)

    def output_floor(self, offset, n_r: float, amplifier_floor: float, lambda_conv: float):
        """Pump-off detected floor across the cavity line (power-density units)."""
        lor = self.kappa**2 / (self.kappa**2 + 4.0 * offset**2)
        return (lor * (self.pref - 1.0) * n_r + (self.kappa / (4.0 * self.kappa_r))
                * (1.0 + 2.0 * n_r)) / lambda_conv + amplifier_floor


def lorentzian_fraction(lo: float, hi: float, center: float, width: float) -> float:
    """Share of a Lorentzian (full width ``width``) that falls in [lo, hi]."""
    return (math.atan(2.0 * (hi - center) / width) - math.atan(2.0 * (lo - center) / width)) / math.pi
