"""Detector-centric (linear response) view of the driven cavity.

The cavity is treated as a position detector with forward gain chi_IF,
imprecision noise S_II, backaction force noise S_FF and the
backaction-imprecision cross correlator S_IF. The ratio
S_zF = S_IF / chi_IF is purely imaginary at the mechanical resonance and
flips sign between red and blue pump detunings; it carries the entire
sideband asymmetry and the noise-squashing physics.

Formulas assume a two-port cavity (kappa_i = 0) in the good-cavity limit,
driven on a sideband: every form passes `scattering._detuning_gate`, as the
scattering and multitone forms do, then the two-port gate.
Position is in zero-point units u throughout, so every returned spectral
quantity is dimensionless (quanta) with hbar = 1.

Frequency convention: correlators are functions of the rotating-frame
frequency built from chi_c(y) = 1/(-i y + kappa/2) evaluated at
y = omega -+ |Delta|. "At resonance" means the positive-frequency image of
the mechanical feature, omega = omega_m, for either pump detuning; there the
occupation form of the thermal factor (2 n_m + beta) applies, and
S_zF(Delta=+omega_m) = -S_zF(Delta=-omega_m) exactly. Every input enters at
its symmetrized strength n + w/2 of `BathSpec.strengths`, vacuum weight w
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidityError
from .model import BathSpec, Spectrum, SystemParams, ToneSpec
from .scattering import _detuning_gate

__all__ = [
    "DetectorNoise",
    "HeisenbergGap",
    "chi_cavity",
    "detector_correlators",
    "resonance_correlators",
    "sxx_effective",
    "output_spectrum_lr",
    "heisenberg_gap",
]


@dataclass(frozen=True)
class DetectorNoise:
    """Detector correlators at one frequency (zero-point position units, hbar = 1)."""

    chi_if: complex
    s_ii: float
    s_ff: float
    s_if: complex
    s_zf: complex

    def __post_init__(self):
        if self.s_ii < 0.0 or self.s_ff < 0.0:
            raise ConfigError("symmetrized autospectra must be nonnegative")
        bound = self.s_ii * self.s_ff
        if abs(self.s_if) ** 2 > bound * (1.0 + 1e-10) + 1e-300:
            raise ConfigError("detector correlators violate |S_IF|^2 <= S_II * S_FF")

    @property
    def s_zz(self) -> float:
        """Imprecision referred to position: S_II / |chi_IF|^2."""
        return self.s_ii / abs(self.chi_if) ** 2


@dataclass(frozen=True)
class HeisenbergGap:
    """Both sides of the detector noise inequality and their difference."""

    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return self.lhs >= self.rhs - 1e-12


def chi_cavity(y, kappa: float):
    """Cavity response 1/(-i y + kappa/2) as a function of the detuned frequency y."""
    return 1.0 / (-1j * np.asarray(y, dtype=complex) + kappa / 2.0)


def _two_port_gate(params: SystemParams) -> None:
    if params.kappa_i != 0.0:
        raise ValidityError(
            "two-port gate: linear-response correlators assume kappa_i = 0, "
            f"got kappa_i = {params.kappa_i:.6g}"
        )


def detector_correlators(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                         omega: float) -> DetectorNoise:
    """chi_IF, S_II, S_FF, S_IF and S_zF at rotating-frame frequency ``omega``.

    Both frequency images of the driven cavity enter: with Delta =
    `ToneSpec.detuning_sign` * omega_m, the response factors are
    chi_c(omega - Delta) and chi_c(omega + Delta). The gates are the
    detuning gate of the scattering forms, then the two-port gate.
    """
    _detuning_gate(params, tone)
    _two_port_gate(params)
    delta_drive = tone.detuning_sign * params.omega_m
    g = tone.coupling_rate(params)
    kr, kl, k = params.kappa_r, params.kappa_l, params.kappa
    x_r, x_l, _, _ = baths.strengths("symmetrized")

    c_p = complex(chi_cavity(omega - delta_drive, k))
    c_m = complex(chi_cavity(omega + delta_drive, k))
    a_p = 1.0 - kr * c_p
    a_m = 1.0 - kr * c_m

    chi_if = -1j * math.sqrt(kr) * g * (c_p - c_m)
    s_ii = (abs(a_p) ** 2 + abs(a_m) ** 2) * x_r + kr * kl * (abs(c_p) ** 2 + abs(c_m) ** 2) * x_l
    s_ff = g * g * (abs(c_p) ** 2 + abs(c_m) ** 2) * (kr * x_r + kl * x_l)
    # Reflection (R) and transmission (L) paths feed the cross correlator with
    # opposite signs; the R part is -(Lambda_R[omega] + Lambda_R[-omega]^*)
    # with Lambda_R = -(1 - kappa_r chi_c) chi_c^*.
    s_if = math.sqrt(kr) * g * (
        (a_p * c_p.conjugate() + a_m * c_m.conjugate()) * x_r
        - kl * (abs(c_p) ** 2 + abs(c_m) ** 2) * x_l
    )
    s_zf = s_if / chi_if if chi_if != 0.0 else 0.0j  # undriven detector
    return DetectorNoise(chi_if=chi_if, s_ii=float(s_ii), s_ff=float(s_ff), s_if=s_if, s_zf=s_zf)


def resonance_correlators(params: SystemParams, baths: BathSpec, tone: ToneSpec) -> DetectorNoise:
    """Correlators at the mechanical feature (positive-frequency image omega = omega_m).

    In the good-cavity limit S_zF here is -+ i (1/2 + 2 n_c - n_r) for the
    red/blue pump, the value controlling squashing and the sideband imbalance.
    """
    return detector_correlators(params, baths, tone, params.omega_m)


def _chi_uu(params: SystemParams, omega):
    """Mechanical susceptibility chi_uu in zero-point units, with hbar = 1."""
    w = np.asarray(omega, dtype=complex)
    return 2.0 * params.omega_m / ((w**2 - params.omega_m**2) + 1j * w * params.gamma_m)


def sxx_effective(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                  grid: np.ndarray) -> Spectrum:
    """Effective position spectrum including squashing (units u^2 * s), weak coupling.

    -Im chi_uu[omega] * ((2 n_m + beta) + 2 Im S_zF) on a grid of offsets from
    the mechanical resonance. The S_zF term raises (blue) or lowers (red) the
    Lorentzian weight; at a thermal cavity it can squash the feature below
    zero. The second-order backaction term |chi_uu|^2 S_FF is left out.
    """
    noise = resonance_correlators(params, baths, tone)
    x = np.asarray(grid, dtype=float)
    chi = _chi_uu(params, params.omega_m + x)
    return Spectrum(x, -np.imag(chi) * (2.0 * baths.strengths("symmetrized")[3]
                                        + 2.0 * noise.s_zf.imag))


def output_spectrum_lr(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                       grid: np.ndarray) -> Spectrum:
    """Output spectrum S_II + |chi_IF|^2 S_xx,eff near the mechanical feature, weak coupling.

    Lab-frame normalization: the imprecision floor and gain keep only the
    near-resonant cavity image (the far image only shifts the
    frequency-independent floor), so this reproduces the single-tone
    scattering spectrum to first order in gamma_opt/gamma_m, floor and
    Lorentzian weight alike.
    Grid is offsets from the spectral peak; the gates are those of
    `detector_correlators`. It exists for the invariant tests of linear response == scattering.
    """
    g = tone.coupling_rate(params)
    kr, kl, k = params.kappa_r, params.kappa_l, params.kappa
    c0 = complex(chi_cavity(0.0, k))
    x_r, x_l, _, _ = baths.strengths("symmetrized")
    floor = abs(1.0 - kr * c0) ** 2 * x_r + kr * kl * abs(c0) ** 2 * x_l
    gain = kr * g * g * abs(c0) ** 2
    eff = sxx_effective(params, baths, tone, grid)
    return Spectrum(eff.freq_offsets, floor + gain * eff.values)


def heisenberg_gap(s_zz: float, s_ff: float, s_zf: complex) -> HeisenbergGap:
    """Both sides of S_zz S_FF - |S_zF|^2 >= (1/4)(1 + Delta[2 S_zF]).

    Delta[y] = (|1 + y^2| - (1 + |y|^2)) / 2; the right side reaches zero only
    at S_zF = +- i/2 and equals 1/4 for any real S_zF (hbar = 1 units).
    """
    if s_zz < 0.0 or s_ff < 0.0:
        raise ConfigError("S_zz and S_FF must be nonnegative")
    y = 2.0 * complex(s_zf)
    cap_delta = (abs(1.0 + y * y) - (1.0 + abs(y) ** 2)) / 2.0
    lhs = s_zz * s_ff - abs(s_zf) ** 2
    rhs = 0.25 * (1.0 + cap_delta)
    return HeisenbergGap(lhs=float(lhs), rhs=float(rhs))
