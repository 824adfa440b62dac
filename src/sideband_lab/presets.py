"""Named parameter presets, each the contents of a configuration file.

"main-text" and "si-figure" are two published parameter sets of the paper's
device, shipped side by side and intentionally not reconciled (total
linewidth 860 vs 870 kHz, input coupling 150 vs 155 kHz); "oracle-demo" is
rate-scaled so that the stochastic oracle converges in seconds, not hours.
Each is the object that `save_config` writes for it, to the digit (so
kappa_internal_hz 260000.00000000003 is 2*pi * 260 kHz / 2*pi), and `preset`
loads it with `config_from_dict`, as `--config` loads a file.
"""

from __future__ import annotations

import math

from .config import config_from_dict
from .errors import ConfigError
from .model import TWO_PI, BathSpec, SystemParams, ToneConfig

__all__ = ["PRESET_NAMES", "preset"]


def _baths(**occupations) -> dict:
    return {"n_right": 0.0, "n_left": 0.0, "n_internal": 0.0, "n_mech": 0.0, **occupations,
            "alpha_right": 1.0, "alpha_left": 1.0, "alpha_internal": 1.0, "beta": 1.0}


def _coupling_hz(gamma_opt_hz: float, system: dict) -> float:
    """G/2pi of a tone with optical damping 4 G^2 / kappa = 2pi * ``gamma_opt_hz``, in rad/s
    as `SystemParams.kappa` sums it: in Hz, si-figure's cooling coupling loads one ulp lower."""
    kappa = sum(TWO_PI * system[f"kappa_{port}_hz"] for port in ("left", "right", "internal"))
    return math.sqrt(TWO_PI * gamma_opt_hz * kappa) / 2.0 / TWO_PI


def _probes(detuning_hz: float, **strength) -> list[dict]:
    return [{"role": "red_probe", "detuning_hz": -detuning_hz, **strength},
            {"role": "blue_probe", "detuning_hz": detuning_hz, **strength}]


def _device(kappa_left_hz: float, kappa_internal_hz: float, baths: dict) -> dict:
    """The paper's device with probes of 1e5 photons 5 kHz beyond the sidebands and a
    cooling tone 30 kHz beyond the red sideband at gamma_opt = 2pi * 350 Hz."""
    system = {"omega_c_hz": 5.4e9, "omega_m_hz": 4.0e6, "g0_hz": 16.0,
              "kappa_left_hz": kappa_left_hz, "kappa_right_hz": 450e3,
              "kappa_internal_hz": kappa_internal_hz, "gamma_m_hz": 10.0}
    return {"system": system, "baths": baths, "tones": [
        *_probes(4004999.9999999995, n_photons=1e5),
        {"role": "cooling", "detuning_hz": -4030000.0,
         "coupling_hz": _coupling_hz(350.0, system)}]}


_DEMO = {"omega_c_hz": 1.0e9, "omega_m_hz": 10.0e6, "g0_hz": 50.0,
         "kappa_left_hz": 3999.9999999999995, "kappa_right_hz": 80e3,
         "kappa_internal_hz": 0.0, "gamma_m_hz": 400.0}
_PRESETS = {
    # output-port radiation dominates the cavity occupation: n_c = n_r*kappa_r/kappa
    "main-text": _device(150e3, 260000.00000000003, _baths(n_right=0.34, n_mech=103.7)),
    # port occupations chosen so n_c = 0.24 with n_r = n_l = 0.3, and the
    # mechanical bath so the cooled occupation n_M = 100 at gamma_M = 2pi*360 Hz
    "si-figure": _device(155e3, 265e3, _baths(
        n_right=0.3, n_left=0.3, n_internal=(0.24 * 870e3 - 0.3 * (450e3 + 155e3)) / 265e3,
        n_mech=(100.0 * 360.0 - 350.0 * 0.24) / 10.0)),
    # vacuum everywhere; probes 4.2 kHz beyond the sidebands at gamma_opt = 2pi * 200 Hz
    "oracle-demo": {"system": _DEMO, "baths": _baths(),
                    "tones": _probes(10004200.0, coupling_hz=_coupling_hz(200.0, _DEMO))},
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> tuple[SystemParams, BathSpec, ToneConfig]:
    """Return (params, baths, tone config) for a named preset."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return config_from_dict(_PRESETS[name])
