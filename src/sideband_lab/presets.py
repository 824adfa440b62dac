"""Named parameter presets.

Two published device parameter sets are shipped side by side ("main-text"
and "si-figure"; they differ in the total linewidth 860 vs 870 kHz and the
input coupling 150 vs 155 kHz) plus "oracle-demo", a rate-scaled
configuration where the stochastic oracle converges in seconds instead of
hours. The two device presets are intentionally not reconciled.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .model import TWO_PI, BathSpec, SystemParams, ToneConfig, ToneSpec

__all__ = ["PRESET_NAMES", "preset"]


def _device_tones(params: SystemParams, *, delta_hz: float, delta_c_hz: float,
                  probe_photons: float, cooling_gamma_hz: float) -> ToneConfig:
    delta = TWO_PI * delta_hz
    # quoted in Hz, as a saved file holds it, so the file loads the same coupling
    g_cool_hz = math.sqrt(TWO_PI * cooling_gamma_hz * params.kappa) / 2.0 / TWO_PI
    return ToneConfig(tones=(
        ToneSpec(detuning=-(params.omega_m + delta), role="red_probe", n_photons=probe_photons),
        ToneSpec(detuning=+(params.omega_m + delta), role="blue_probe", n_photons=probe_photons),
        ToneSpec(detuning=-(params.omega_m + TWO_PI * delta_c_hz), role="cooling",
                 coupling=TWO_PI * g_cool_hz),
    ))


def _main_text() -> tuple[SystemParams, BathSpec, ToneConfig]:
    params = SystemParams.from_hz(
        omega_c_hz=5.4e9, omega_m_hz=4.0e6, g0_hz=16.0,
        kappa_l_hz=150e3, kappa_r_hz=450e3, kappa_i_hz=260e3, gamma_m_hz=10.0,
    )
    # output-port radiation dominates the cavity occupation: n_c = n_r*kappa_r/kappa
    baths = BathSpec(n_r=0.34, n_l=0.0, n_i=0.0, n_m=103.7)
    config = _device_tones(params, delta_hz=5e3, delta_c_hz=30e3,
                           probe_photons=1e5, cooling_gamma_hz=350.0)
    return params, baths, config


def _si_figure() -> tuple[SystemParams, BathSpec, ToneConfig]:
    params = SystemParams.from_hz(
        omega_c_hz=5.4e9, omega_m_hz=4.0e6, g0_hz=16.0,
        kappa_l_hz=155e3, kappa_r_hz=450e3, kappa_i_hz=265e3, gamma_m_hz=10.0,
    )
    # port occupations chosen so n_c = 0.24 with n_r = n_l = 0.3, and the
    # mechanical bath so the cooled occupation n_M = 100 at gamma_M = 2pi*360 Hz
    n_i = (0.24 * 870e3 - 0.3 * (450e3 + 155e3)) / 265e3
    n_m = (100.0 * 360.0 - 350.0 * 0.24) / 10.0
    baths = BathSpec(n_r=0.3, n_l=0.3, n_i=n_i, n_m=n_m)
    config = _device_tones(params, delta_hz=5e3, delta_c_hz=30e3,
                           probe_photons=1e5, cooling_gamma_hz=350.0)
    return params, baths, config


def _oracle_demo() -> tuple[SystemParams, BathSpec, ToneConfig]:
    params = SystemParams.from_hz(
        omega_c_hz=1.0e9, omega_m_hz=10.0e6, g0_hz=50.0,
        kappa_l_hz=4e3, kappa_r_hz=80e3, kappa_i_hz=0.0, gamma_m_hz=400.0,
    )
    baths = BathSpec()  # vacuum everywhere
    return params, baths, ToneConfig.balanced(params, delta=TWO_PI * 4200.0,
                                              probe_gamma_opt=TWO_PI * 200.0)


_BUILDERS = {
    "main-text": _main_text,
    "si-figure": _si_figure,
    "oracle-demo": _oracle_demo,
}
PRESET_NAMES = tuple(_BUILDERS)


def preset(name: str) -> tuple[SystemParams, BathSpec, ToneConfig]:
    """Return (params, baths, tone config) for a named preset."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESET_NAMES}") from None
    return builder()
