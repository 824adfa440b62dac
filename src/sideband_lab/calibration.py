"""Device calibration models and the synthetic end-to-end pipeline.

Covers the measurement chain around the spectra: sideband-linewidth versus
pump power, temperature-sweep thermometry, the noise-floor increase budget,
the output-port occupation fit, the shunt-capacitor transmission model that
explains the asymmetric |S21|, and the sideband-imbalance closure for n_eff.
Every nonlinear fit goes through the deterministic Gauss-Newton engine in
`fitting`. `invert_measurements` is the one inversion of the seven
measurement tables of `dataio.CALIBRATION_TABLES`; measured files and the
synthetic pipeline both feed it.

Power-like quantities are taken in watts (or any consistent power-density
unit matched to the conversion factor lambda); occupations are quanta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateData, SidebandLabError, ValidityError
from .fitting import EXACT_ULPS, fit_lorentzian, gauss_newton, median
from .model import (
    TWO_PI,
    BathSpec,
    Spectrum,
    SystemParams,
    ToneConfig,
    ToneSpec,
    _require_positive,
    bose_occupation,
)
from .multitone import multitone_spectra, sideband_weights

__all__ = [
    "OccupationFit", "fit_linewidth_vs_power", "thermometry_ratio", "noise_floor_increase",
    "sideband_difference_and_average", "fit_output_occupation", "s21_shunt", "s21_bare",
    "transmission_delta", "delta_from_power_ratio", "fit_shunt_capacitance",
    "invert_measurements", "run_synthetic_calibration",
]


R_L = 50.0  # ohms, impedance of the output line, shunted by a capacitance c_out in farads


def fit_linewidth_vs_power(power, gamma_tot) -> tuple[float, float]:
    """Weighted linear fit of total linewidth versus detected pump power.

    ``power`` and ``gamma_tot`` are equal-length arrays. Returns
    (gamma_m, slope): the intercept is the intrinsic linewidth and the slope
    is 4 g0^2 / kappa per power unit. Weights assume relative measurement
    error (sigma_i proportional to gamma_i), which keeps the intercept pinned
    by the low-power points of a decades-wide sweep.
    """
    p, g = np.asarray(power, dtype=float), np.asarray(gamma_tot, dtype=float)
    w = 1.0 / np.maximum(np.abs(g), 1e-300)
    coef, *_ = np.linalg.lstsq(np.column_stack([w, w * p]), w * g, rcond=None)
    return float(coef[0]), float(coef[1])


def thermometry_ratio(params: SystemParams, gains, delta_corr: float, tone: ToneSpec, n_m):
    """Sideband-to-through power ratio P_m/P_thru for the probe ``tone``.

    (omega_c/omega_pump) (G(omega_c)/G(omega_pump)) / (1 + Delta(omega_pump))
    * (2 g0/kappa)^2 * n_m with omega_pump = omega_c + tone.detuning: the red
    probe's sideband is up-converted, the blue probe's down-converted.
    """
    gain_cavity, gain_pump = gains
    if gain_cavity <= 0.0 or gain_pump <= 0.0:
        raise ConfigError("gains must be positive")
    omega_pump = params.omega_c + tone.detuning
    return (params.omega_c / omega_pump) * (gain_cavity / gain_pump) \
        / (1.0 + delta_corr) * (2.0 * params.g0 / params.kappa) ** 2 * n_m


def noise_floor_increase(params: SystemParams, baths: BathSpec, lambda_conv: float) -> float:
    """Noise-floor increase (power-density units) implied by the cavity baths.

    Delta_eta = (1/2 lambda) [n_eff - ((2 kappa_r - kappa)/(2 kappa_r)) n_r].
    The paper's calibration closure, which no command reports. It exists for
    the tests: TestSidebandDifferenceAndAverage checks it against
    `sideband_weights`, and TestNoiseFloorLedger against `output_floor_model`.
    """
    _require_positive("lambda_conv", lambda_conv)
    corr = (2.0 * params.kappa_r - params.kappa) / (2.0 * params.kappa_r)
    return (baths.n_eff(params) - corr * baths.n_r) / (2.0 * lambda_conv)


def sideband_difference_and_average(params: SystemParams, baths: BathSpec,
                                    config: ToneConfig, lambda_conv: float,
                                    delta_eta: float) -> tuple[float, float]:
    """Sideband imbalance and average versus the measured floor increase.

    diff (Stokes minus anti-Stokes occupancy) = 4 lambda Delta_eta
    + ((2 kappa_r - kappa)/kappa_r) n_r + 1; the average adds the
    backaction-heating and cooling-dilution terms. Requires balanced probes.
    The paper's calibration closure, which no command reports. It exists for
    the tests: TestSidebandDifferenceAndAverage checks it against
    `sideband_weights`.
    """
    gamma_opt = config.require_balanced(params)
    gamma_cool = config.cooling_gamma_opt(params)
    gamma_big_m = config.gamma_big_m(params)
    kr, k = params.kappa_r, params.kappa
    diff = 4.0 * lambda_conv * delta_eta + ((2.0 * kr - k) / kr) * baths.n_r + 1.0
    avg = ((2.0 * gamma_opt + gamma_cool) / gamma_big_m) * (
        lambda_conv * delta_eta + ((4.0 * kr - k) / (4.0 * kr)) * baths.n_r
    ) + (params.gamma_m / gamma_big_m) * baths.n_m + gamma_opt / gamma_big_m + 0.5
    return diff, avg


@dataclass(frozen=True)
class OccupationFit:
    """Result of the pump-off output-floor fit."""

    n_r: float
    amplifier_floor: float
    residual_norm: float
    n_r_err: float


def output_floor_model(params: SystemParams, lambda_conv: float, offsets, n_r: float,
                       amplifier_floor: float) -> np.ndarray:
    """Pump-off detected floor across the cavity line (power-density units).

    (1/lambda) [kappa^2/(kappa^2 + 4 (omega - omega_c)^2) (kappa_r/kappa - 1)
    n_r + (kappa/4 kappa_r)(1 + 2 n_r)] + amplifier floor, for a unit vacuum
    weight of the right port. A dip when kappa_r < kappa.
    """
    x = np.asarray(offsets, dtype=float)
    k, kr = params.kappa, params.kappa_r
    lor = k**2 / (k**2 + 4.0 * x**2)
    return (lor * (kr / k - 1.0) * n_r + (k / (4.0 * kr)) * (1.0 + 2.0 * n_r)) \
        / lambda_conv + amplifier_floor


def fit_output_occupation(spec: Spectrum, params: SystemParams,
                          lambda_conv: float) -> OccupationFit:
    """Fit (n_r, amplifier floor) to a pump-off floor spectrum.

    The spectrum should span at least ~3 kappa around the cavity so the dip
    depth separates from the flat amplifier contribution. DegenerateData if one
    quantum of n_r moves the model no more than `gauss_newton`'s exact-fit rounding.
    """
    x = spec.freq_offsets
    v = spec.values
    if x[-1] - x[0] < 3.0 * params.kappa:
        raise ConfigError("spectrum must span at least 3*kappa")
    # the model is linear in n_r: its n_r column is what one quantum adds
    per_quantum = output_floor_model(params, lambda_conv, x, 1.0, 0.0) \
        - output_floor_model(params, lambda_conv, x, 0.0, 0.0)
    # the dip's contrast is the part of the n_r term that the flat floor cannot absorb
    contrast = float(np.linalg.norm(per_quantum - np.mean(per_quantum)))
    rounding = EXACT_ULPS * np.finfo(float).eps * float(np.linalg.norm(v))
    if not contrast > rounding:
        raise DegenerateData(f"its n_r term cannot move the fit at lambda_conv = {lambda_conv:g}: "
                             f"one quantum moves it by {contrast:.3g}, within {rounding:.3g}")

    def model_jac(p):
        return (output_floor_model(params, lambda_conv, x, *p),
                np.column_stack([per_quantum, np.ones_like(x)]))

    p, cov, rnorm, _ = gauss_newton(model_jac, v, np.array([0.1, median(v)]))
    return OccupationFit(n_r=float(p[0]), amplifier_floor=float(p[1]),
                         residual_norm=rnorm, n_r_err=float(np.sqrt(abs(cov[0, 0]))))


def s21_bare(params: SystemParams, omega) -> np.ndarray:
    """Ideal Lorentzian transmission -sqrt(kappa_r kappa_l)/(j(omega - omega_c) + kappa/2)."""
    w = np.asarray(omega, dtype=float)
    return -math.sqrt(params.kappa_r * params.kappa_l) / (
        1j * (w - params.omega_c) + params.kappa / 2.0
    )


def s21_shunt(params: SystemParams, c_out: float, omega):
    """Transmission with a shunt capacitor of ``c_out`` farads: S21 + 2 R_L j omega_c C_out.

    The constant imaginary leakage interferes with the cavity line, producing
    the anti-resonance and the red/blue transmission asymmetry.
    """
    return s21_bare(params, omega) + 2.0 * R_L * 1j * params.omega_c * c_out


def transmission_delta(params: SystemParams, c_out: float, omega) -> np.ndarray:
    """First-order power correction Delta(omega) of |S21|^2 from a shunt of ``c_out`` farads.

    4 R_L omega_c C_out (kappa/sqrt(kappa_l kappa_r)) ((omega - omega_c)/kappa);
    odd around the cavity, so Delta(omega_-)/Delta(omega_+) = -1.
    """
    w = np.asarray(omega, dtype=float)
    return 4.0 * R_L * params.omega_c * c_out \
        * (w - params.omega_c) / math.sqrt(params.kappa_l * params.kappa_r)


def delta_from_power_ratio(ratio_db: float) -> float:
    """Delta(omega_-) from a measured (1+Delta-)/(1+Delta+) power ratio in dB,
    using Delta(omega_-) = -Delta(omega_+). The paper's calibration closure,
    which no command reports. It exists for the tests: acceptance criterion 8
    checks it against the paper's 2.6 dB -> Delta = 0.29, and
    TestThermometry::test_conversion_constant_asymmetry carries it through
    `thermometry_ratio`."""
    ratio = 10.0 ** (ratio_db / 10.0)
    return (ratio - 1.0) / (ratio + 1.0)


def fit_shunt_capacitance(omega: np.ndarray, s21_mag: np.ndarray,
                          params: SystemParams) -> float:
    """C_out in farads of `s21_shunt` fitted to an |S21| magnitude trace (linear units)."""
    w = np.asarray(omega, dtype=float)
    mag = np.asarray(s21_mag, dtype=float)

    def model_jac(p):  # d|z|/dC = Im(z) * 2 R_L omega_c / |z|
        shunted = s21_shunt(params, p[0], w)
        model = np.abs(shunted)
        jac = (np.imag(shunted) * 2.0 * R_L * params.omega_c / np.maximum(model, 1e-300))
        return model, jac[:, None]

    p, _, _, _ = gauss_newton(model_jac, mag, np.array([1e-15]))
    return float(abs(p[0]))


def _spectrum(table, center: float = 0.0) -> Spectrum:
    """A (Hz, value) table as a `Spectrum` of rad/s offsets from ``center``, in offset order."""
    f_hz, value = table
    order = np.argsort(f_hz, kind="stable")
    return Spectrum(TWO_PI * f_hz[order] - center, value[order])


def invert_measurements(params: SystemParams, config: ToneConfig, tables: dict, *,
                        lambda_conv: float) -> dict:
    """Fit the calibration chain to measurement tables in their file units.

    ``tables`` maps any names of `dataio.CALIBRATION_TABLES` to (x, y) arrays.
    "linewidth_vs_power" gives gamma_m_fit, linewidth_slope and g0_fit;
    "s21_db" gives c_out_fit and delta_plus/delta_minus at the probe
    frequencies omega_c -+ (omega_m + delta), or a ValidityError where
    |Delta| >= 1 puts them outside the first-order shunt correction;
    "output_floor" gives n_r_fit, n_r_err and amplifier_floor_fit;
    "thermometry_plus"/"_minus" give conversion_slope_plus/_minus, the slope
    through the origin of the red/blue probe's power ratio against the Bose
    occupation (DegenerateData if 0 or not finite), and both give
    conversion_ratio (DegenerateData if not finite); "sideband_anti_stokes"/
    "sideband_stokes" give n_plus_fit/n_minus_fit, a Lorentzian weight over
    (kappa_r/kappa) gamma_opt of the red/blue probe (a ConfigError without
    it), and both give n_eff_fit. The standard errors of n_r and of each
    sideband's width and amplitude go under "uncertainties". Absent tables
    leave their keys out. Each table is taken to hold the distinct x values
    its fit needs, which `dataio.read_calibration_tables` checks in a file.
    ``lambda_conv`` must be positive (ConfigError). A floating-point
    overflow, invalid value or zero division while a table is fitted is
    DegenerateData, and numpy prints no warning. Every error raised while a
    table is fitted names it: its message starts with "<table>.csv".
    """
    _require_positive("lambda_conv", lambda_conv)
    fit: dict = {}
    uncertainties: dict = {}
    pref = params.kappa_r / params.kappa

    def degenerate(kind, flag):  # numpy's call on an overflow, invalid value or zero division
        raise DegenerateData(f"floating-point {kind} in its fit")

    def fit_table(table, x, y):
        if table == "linewidth_vs_power":
            gamma_m, slope = fit_linewidth_vs_power(x, TWO_PI * y)
            fit.update(gamma_m_fit=gamma_m, linewidth_slope=slope,
                       g0_fit=math.sqrt(max(slope, 0.0) * params.kappa / 4.0))
        elif table == "s21_db":
            c_out = fit_shunt_capacitance(TWO_PI * x, 10.0 ** (y / 20.0), params)
            detuning = params.omega_m + config.delta(params)
            delta_minus = float(transmission_delta(params, c_out, params.omega_c + detuning))
            delta_plus = float(transmission_delta(params, c_out, params.omega_c - detuning))
            if max(abs(delta_minus), abs(delta_plus)) >= 1.0:
                raise ValidityError("first-order shunt correction needs |Delta(omega_+-)| < 1: "
                                    f"Delta_plus = {delta_plus:.4g}, Delta_minus = "
                                    f"{delta_minus:.4g} at C_out = {c_out * 1e15:.4g} fF")
            fit.update(c_out_fit=c_out, delta_minus=delta_minus, delta_plus=delta_plus)
        elif table == "output_floor":
            occ = fit_output_occupation(_spectrum((x, y), params.omega_c), params, lambda_conv)
            fit.update(n_r_fit=occ.n_r, n_r_err=occ.n_r_err,
                       amplifier_floor_fit=occ.amplifier_floor)
            uncertainties["n_r"] = occ.n_r_err
        elif table in ("thermometry_plus", "thermometry_minus"):
            n_m = np.array([bose_occupation(t, params.omega_m) for t in x.tolist()])
            slope = float(n_m @ y / (n_m @ n_m))
            if slope == 0.0 or not math.isfinite(slope):
                raise DegenerateData(f"the power ratios give a conversion slope of {slope:g}, "
                                     "so the probe shows no usable conversion")
            fit[table.replace("thermometry", "conversion_slope")] = slope
        elif table in ("sideband_anti_stokes", "sideband_stokes"):
            name, red = table.removeprefix("sideband_"), table == "sideband_anti_stokes"
            key, role = ("n_plus_fit", "red_probe") if red else ("n_minus_fit", "blue_probe")
            probe = config.tone(role)
            if probe is None:
                raise ConfigError(f"{table}.csv needs the {role} tone, "
                                  "which the configuration lacks")
            peak = fit_lorentzian(_spectrum((x, y)))
            fit[key] = peak.amplitude * peak.width / 4.0 / (pref * probe.gamma_opt(params))
            uncertainties[f"{name}_width"] = peak.uncertainty("width")
            uncertainties[f"{name}_amplitude"] = peak.uncertainty("amplitude")

    with np.errstate(over="call", invalid="call", divide="call", call=degenerate):
        for table, (x, y) in tables.items():
            try:
                fit_table(table, x, y)
            except SidebandLabError as exc:  # named once, its class and exit code kept
                if not str(exc).startswith(f"{table}.csv"):
                    exc.args = (f"{table}.csv: {exc}",)
                raise
    if "conversion_slope_plus" in fit and "conversion_slope_minus" in fit:
        ratio = fit["conversion_slope_minus"] / fit["conversion_slope_plus"]
        if not math.isfinite(ratio):
            raise DegenerateData("thermometry_plus.csv: its conversion slope, "
                                 f"{fit['conversion_slope_plus']:g}, is too small for a finite "
                                 "conversion ratio minus/plus")
        fit["conversion_ratio"] = ratio
    if "n_plus_fit" in fit and "n_minus_fit" in fit:
        fit["n_eff_fit"] = (fit["n_minus_fit"] - fit["n_plus_fit"] - 1.0) / 2.0
    if uncertainties:
        fit["uncertainties"] = uncertainties
    return fit


def run_synthetic_calibration(params: SystemParams, baths: BathSpec,
                              config: ToneConfig, *, lambda_conv: float,
                              seed: int, noise_level: float) -> dict:
    """Build the seven measurement tables from the forward models and invert them.

    The tables of `invert_measurements` (returned under "measurements") are
    the linewidth-vs-power sweep, the |S21| trace of a 2.7 fF shunt, the
    pump-off floor and, for each probe tone the configuration has, its
    thermometry sweep (corrected by that shunt's true Delta at the probe) and
    its sideband of `multitone_spectra`. One call of `invert_measurements`
    fits them all; the truth and error keys follow. Gaussian noise of
    relative size ``noise_level`` multiplies every synthetic measurement; at
    zero noise every fit is exact to rounding, and `gauss_newton` gives its
    standard errors as 0.0, as for `calibrate --data` on the same tables. A
    ``noise_level`` that is negative or not finite, a ``lambda_conv`` that is
    not positive, or a negative ``seed`` is a ConfigError, and so is a draw
    whose factor for a table is not positive and finite, which would flip,
    zero or overflow a measurement; its message names the table.
    """
    if not (noise_level >= 0.0 and math.isfinite(noise_level)):
        raise ConfigError(f"noise_level must be >= 0 and finite, got {noise_level!r}")
    _require_positive("lambda_conv", lambda_conv)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    c_out = 2.7e-15  # farads
    gains = (1.0, 1.0)  # cavity and pump-line gains of the synthetic chain
    n_p = np.logspace(3, 7, 9)
    span = 10.0 * (params.omega_m + config.delta(params))
    # probe frequencies in Hz as the tables record them; the models are
    # evaluated at the rates read back from them, so noise-free tables are exact
    s21_hz = (params.omega_c + np.linspace(-span, span, 801)) / TWO_PI
    floor_hz = (params.omega_c + np.linspace(-2.0 * params.kappa, 2.0 * params.kappa, 401)) / TWO_PI
    temps = np.linspace(0.02, 0.2, 8)
    gamma_tot = config.gamma_tot(params)
    peak_grid = np.linspace(-25.0 * gamma_tot, 25.0 * gamma_tot, 1201)
    # relative-noise factors, drawn in this order of the tables they perturb
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an infinite factor is refused by `noisy`
        factors = {table: 1.0 + noise_level * rng.standard_normal(size) for table, size in (
            ("linewidth_vs_power", n_p.size), ("s21_db", s21_hz.size),
            ("thermometry_plus", temps.size), ("thermometry_minus", temps.size),
            ("output_floor", floor_hz.size), ("sideband_anti_stokes", peak_grid.size),
            ("sideband_stokes", peak_grid.size))}

    def noisy(table, values):  # times the table's factors, which must be positive and finite
        f = factors[table]
        bad = np.flatnonzero((f <= 0.0) | np.isinf(f))
        if bad.size:
            raise ConfigError(f"{table}.csv: noise_level {noise_level!r} made the table unphysical:"
                              f" row {bad[0] + 1} measures {f[bad[0]]:.3g} times its true value")
        return values * f

    gamma_true = params.gamma_m + 4.0 * params.g0**2 * n_p / params.kappa
    mag = np.abs(s21_shunt(params, c_out, TWO_PI * s21_hz))
    floor = output_floor_model(params, lambda_conv, TWO_PI * floor_hz - params.omega_c,
                               baths.n_r, 12.0)
    tables = {
        "linewidth_vs_power": (n_p, noisy("linewidth_vs_power", gamma_true) / TWO_PI),
        "s21_db": (s21_hz, 20.0 * np.log10(noisy("s21_db", mag))),
        "output_floor": (floor_hz, noisy("output_floor", floor)),
    }
    n_m = np.array([bose_occupation(t, params.omega_m) for t in temps])
    spectra = multitone_spectra(params, baths, config, "symmetrized", peak_grid)
    for sign, role, name in (("plus", "red_probe", "anti_stokes"),
                             ("minus", "blue_probe", "stokes")):
        probe = config.tone(role)
        if probe is None:
            continue
        delta_corr = float(transmission_delta(params, c_out, params.omega_c + probe.detuning))
        tables[f"thermometry_{sign}"] = (temps, noisy(
            f"thermometry_{sign}", thermometry_ratio(params, gains, delta_corr, probe, n_m)))
        peak = spectra[name]
        tables[f"sideband_{name}"] = (peak.freq_offsets / TWO_PI,
                                      noisy(f"sideband_{name}", peak.values))

    report: dict = {
        "seed": seed, "noise_level": noise_level, "measurements": tables,
        **invert_measurements(params, config, tables, lambda_conv=lambda_conv),
        "g0_true": params.g0, "c_out_true": c_out, "n_r_true": baths.n_r,
        "n_eff_true": baths.n_eff(params),
    }
    report["g0_rel_err"] = abs(report["g0_fit"] - params.g0) / params.g0
    w_anti, w_stokes = sideband_weights(params, baths, config)
    report["weights_analytic"] = {"anti_stokes": w_anti, "stokes": w_stokes}
    return report
