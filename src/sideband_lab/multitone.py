"""Balanced detuned probe pair plus cooling tone: twin-sideband spectra.

A red probe at omega_c - (omega_m + delta) and a blue probe at
omega_c + (omega_m + delta) dress the mechanics (linewidth gamma_tot,
averaged occupation n_bar) and emit an anti-Stokes sideband at offset -delta
and a Stokes sideband at +delta from the cavity. An optional cooling tone at
omega_c - (omega_m + delta_c) folds into the enhanced linewidth gamma_M and
occupation n_M.

Sideband Lorentzian weights are always computed analytically from their
brackets here; curve fitting lives in `calibration`. Every form that reads
the baths passes `BathSpec.require_unit_vacuum`: all assume unit vacuum weights.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ValidityError
from .model import BathSpec, Spectrum, SystemParams, ToneConfig, derive_effective_mechanics
from .scattering import _detuning_gate, noise_floor

__all__ = [
    "averaged_occupation",
    "multitone_spectra",
    "sideband_weights",
    "sideband_ratio_model",
    "full_rwa_spectrum",
    "peak_ratio_correction",
]


def _separation_gate(params: SystemParams, config: ToneConfig) -> float:
    """gamma_tot, once delta > 10 gamma_tot holds (else ValidityError): the gate of
    `multitone_spectra`, so of `spectrum --mode multitone`, `calibrate --synthetic`
    and `oracle-compare`."""
    gamma_tot = config.gamma_tot(params)
    if not config.delta(params) > 10.0 * gamma_tot:
        raise ValidityError(
            "sideband separation gate: delta > 10*gamma_tot required "
            f"(delta = {config.delta(params):.6g}, gamma_tot = {gamma_tot:.6g})"
        )
    return gamma_tot


def averaged_occupation(params: SystemParams, baths: BathSpec, config: ToneConfig) -> float:
    """Averaged mechanical occupation under both probes and cooling.

    n_bar = (gamma_M/gamma_tot) n_M + (gamma_opt^-/gamma_tot)(n_c + 1)
          + (gamma_opt^+/gamma_tot) n_c.
    """
    baths.require_unit_vacuum()
    gamma_tot = config.gamma_tot(params)
    gp, gm = config.gamma_opt_pair(params)
    gamma_big_m, n_big_m = derive_effective_mechanics(params, baths, config)
    n_c = baths.n_c(params)
    return (gamma_big_m / gamma_tot) * n_big_m \
        + (gm / gamma_tot) * (n_c + 1.0) + (gp / gamma_tot) * n_c


def _brackets(params: SystemParams, baths: BathSpec, config: ToneConfig) -> tuple[float, float]:
    """(anti-Stokes, Stokes) Lorentzian brackets [n_bar - n_eff], [n_bar + n_eff + 1].

    Both orderings share them: the normal-ordered Stokes bracket n_bar + n_eff
    + gamma_M/gamma_tot + (gamma_opt^+ - gamma_opt^-)/gamma_tot is the same
    number, since gamma_tot = gamma_M + gamma_opt^+ - gamma_opt^-. Written for
    unit vacuum weights, tones within kappa/4 of their sideband (else ValidityError,
    as in the single-tone forms) that pass `ToneConfig.probe` and `ToneConfig.delta_c`.
    """
    config.probe()
    config.delta_c(params)
    for tone in config.tones:
        _detuning_gate(params, tone)
    n_bar = averaged_occupation(params, baths, config)
    n_eff = baths.n_eff(params)
    return n_bar - n_eff, n_bar + n_eff + 1.0


def multitone_spectra(params: SystemParams, baths: BathSpec, config: ToneConfig,
                      kind: str, grid: np.ndarray) -> dict[str, Spectrum]:
    """Both sideband Lorentzians on a shared offset-from-peak grid.

    Each peak has prefactor (kappa_r/kappa) gamma_tot gamma_opt^+- /
    (omega^2 + gamma_tot^2/4) with brackets [n_bar - n_eff] (anti-Stokes) and
    [n_bar + n_eff + 1] (Stokes) for either ordering, on the flat floor
    s_r + (4 kappa_r/kappa)(s_c - s_r) of `noise_floor` that ``kind`` selects.
    Returns {"anti_stokes", "stokes"}, each on absolute offsets from the
    cavity (peak center -+delta plus the supplied grid).
    """
    anti_br, stokes_br = _brackets(params, baths, config)
    gamma_tot = _separation_gate(params, config)
    gp, gm = config.gamma_opt_pair(params)
    floor = noise_floor(params, baths, kind)
    x = np.asarray(grid, dtype=float)
    lor = gamma_tot / (x**2 + gamma_tot**2 / 4.0)
    pref = params.kappa_r / params.kappa
    delta = config.delta(params)
    return {
        "anti_stokes": Spectrum(x - delta, floor + pref * gp * lor * anti_br),
        "stokes": Spectrum(x + delta, floor + pref * gm * lor * stokes_br),
    }


def sideband_weights(params: SystemParams, baths: BathSpec,
                     config: ToneConfig) -> tuple[float, float]:
    """Analytic integrated weights (domega/2pi): (anti-Stokes, Stokes).

    Each unit-bracket Lorentzian integrates to exactly gamma_opt^+- *
    kappa_r/kappa, so the weights are the brackets times that factor; they are
    the same for both orderings.
    """
    gp, gm = config.gamma_opt_pair(params)
    anti_br, stokes_br = _brackets(params, baths, config)
    pref = params.kappa_r / params.kappa
    return pref * gp * anti_br, pref * gm * stokes_br


def sideband_ratio_model(n_m_plus: float, n_eff: float) -> float:
    """Expected sideband ratio n^-/n^+ = 1 + (2 n_eff + 1)/n^+."""
    if not n_m_plus > 0.0:
        raise ConfigError(f"n_m_plus must be positive, got {n_m_plus!r}")
    return 1.0 + (2.0 * n_eff + 1.0) / n_m_plus


def full_rwa_spectrum(params: SystemParams, baths: BathSpec, config: ToneConfig,
                      grid: np.ndarray, *, kind: str = "symmetrized") -> dict[str, Spectrum]:
    """Complete twin-peak spectrum for balanced probes, including the mixing term.

    S[omega] = S0 + mixing + anti-Stokes Lorentzian + Stokes Lorentzian, with
    mixing = -(4 kappa_r/kappa) gamma_opt^2 [(omega - delta)(omega + delta)
    + gamma_M^2/4] / (both Lorentzian denominators) * (n_c + 1/2). Grid is
    absolute offsets from the cavity; peaks sit at -+delta. ``kind`` picks the
    ordering of the floor, as in `multitone_spectra`. Returns S and its parts,
    {"total", "floor", "mixing", "stokes", "anti_stokes"}, on that grid.
    """
    gamma_opt = config.require_balanced(params)
    gamma_big_m = config.gamma_big_m(params)
    delta = config.delta(params)
    anti_br, stokes_br = _brackets(params, baths, config)
    n_c = baths.n_c(params)
    pref = params.kappa_r / params.kappa
    floor = noise_floor(params, baths, kind)

    x = np.asarray(grid, dtype=float)
    d_as = (x + delta) ** 2 + gamma_big_m**2 / 4.0
    d_s = (x - delta) ** 2 + gamma_big_m**2 / 4.0
    mixing = -4.0 * pref * gamma_opt**2 * ((x - delta) * (x + delta) + gamma_big_m**2 / 4.0) \
        / (d_as * d_s) * (n_c + 0.5)
    anti = pref * gamma_big_m * gamma_opt / d_as * anti_br
    stokes = pref * gamma_big_m * gamma_opt / d_s * stokes_br
    return {
        "total": Spectrum(x, floor + mixing + anti + stokes),
        "floor": Spectrum(x, np.full_like(x, floor)),
        "mixing": Spectrum(x, mixing),
        "stokes": Spectrum(x, stokes),
        "anti_stokes": Spectrum(x, anti),
    }


def peak_ratio_correction(params: SystemParams, baths: BathSpec, config: ToneConfig,
                          side: str) -> float:
    """Finite-separation correction to a single-Lorentzian peak value.

    Ratio of (full twin-peak value minus floor) to the lone Lorentzian at the
    peak: 1 + [ (4 delta/gamma_M)^2 + 1 ]^-1 * (n_M - n_opt + a)/(n_M + n_opt
    + b) with n_opt = (gamma_opt/gamma_M)(2 n_c + 1) +- n_eff and
    (a, b) = (0, 1) for the Stokes side, (1, 0) for the anti-Stokes side.
    """
    gamma_opt = config.require_balanced(params)
    baths.require_unit_vacuum()
    gamma_big_m, n_big_m = derive_effective_mechanics(params, baths, config)
    n_c = baths.n_c(params)
    n_eff = baths.n_eff(params)
    prefactor = 1.0 / ((4.0 * config.delta(params) / gamma_big_m) ** 2 + 1.0)
    base = (gamma_opt / gamma_big_m) * (2.0 * n_c + 1.0)
    if side == "stokes":
        n_opt = base + n_eff
        return 1.0 + prefactor * (n_big_m - n_opt) / (n_big_m + n_opt + 1.0)
    if side == "anti_stokes":
        n_opt = base - n_eff
        return 1.0 + prefactor * (n_big_m - n_opt + 1.0) / (n_big_m + n_opt)
    raise ConfigError(f"side must be 'stokes' or 'anti_stokes', got {side!r}")
