"""Single-tone scattering theory of the driven cavity.

A pump at omega_p = omega_c - Delta with Delta = +-omega_m couples the
right/left port fields and the mechanical bath field through a 3x3
scattering matrix. The sign of Delta is the tone's side of the cavity,
`ToneSpec.detuning_sign` (+1 for a red pump below it, -1 for a blue pump
above it), so every form here reads it from the tone. This module builds
that matrix, the closed-form symmetrized / normal-ordered output spectra of
the right port, the red/blue imbalance, the integrated sideband weights, and
the output-field commutator.

Frequency bookkeeping: the printed matrix lives in the frame rotating at the
pump, where the cavity resonance sits at omega = Delta = sign*omega_m. Every
function here takes the offset x = omega - sign*omega_m from that resonance
instead, which is also the lab-frame offset omega - omega_c of the spectra;
x is never formed as a difference of two large frequencies.

Validity gates (`ValidityError`): the frequency window |x| < kappa/4
(overridable) and `_detuning_gate`, which every form here and every
multitone form passes: the good-cavity limit omega_m > kappa, then the
detuning window ||Delta| - omega_m| < kappa/4 of the tone, since these
forms take the pump to sit on its sideband. `_lorentzian` is the
single-tone stability gate (`InstabilityError` unless gamma_m +- gamma_opt
> 0).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InstabilityError, ValidityError
from .model import BathSpec, Spectrum, SystemParams, ToneSpec

__all__ = [
    "ScatteringMatrix",
    "mech_denominator",
    "scattering_matrix",
    "noise_floor",
    "spectrum_from_scattering",
    "single_tone_spectrum",
    "single_tone_integrated_weight",
    "imbalance",
    "integrated_asymmetry",
    "output_commutator",
]


@dataclass(frozen=True)
class ScatteringMatrix:
    """3x3 scattering matrix at one offset x = omega - sign*omega_m.

    Row/column order is (right port, left port, mechanical bath); the third
    field is c for a red pump and c^dagger for a blue pump. ``s_loss`` is the
    additional coupling of the intrinsic-loss input into the right output;
    it vanishes when kappa_i = 0 and is needed so that spectra composed from
    the matrix include the loss channel.
    """

    entries: np.ndarray
    detuning_sign: int
    s_loss: complex = 0.0 + 0.0j

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (3, 3):
            raise ConfigError("scattering matrix must be 3x3")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        if self.detuning_sign not in (+1, -1):
            raise ConfigError("detuning_sign must be +1 or -1")

    @property
    def output_row(self) -> np.ndarray:
        """First row: right-port output onto (R, L, mech) inputs."""
        return self.entries[0]


def mech_denominator(offset, detuning_sign: int, gamma_m: float, gamma_opt: float):
    """Mechanical response denominator N^+-entered at the sideband.

    N^+- = -i*(omega -+ omega_m) + (gamma_m +- gamma_opt)/2; since omega_m is
    not an argument, ``offset`` is the already-shifted omega -+ omega_m
    (equal to the lab offset from the cavity resonance).
    """
    if not gamma_m > 0.0:
        raise ConfigError("gamma_m must be positive")
    return -1j * np.asarray(offset, dtype=complex) + (gamma_m + detuning_sign * gamma_opt) / 2.0


def _quarter_kappa_gate(params: SystemParams, x, gate: str, hint: str = "") -> None:
    """ValidityError naming ``gate`` unless every |x| < kappa/4."""
    x = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    lim = params.kappa / 4.0
    if np.any(x >= lim):
        raise ValidityError(f"{gate} < kappa/4 required "
                            f"(max offset {np.max(x):.6g}, kappa/4 = {lim:.6g}){hint}")


def _window_gate(params: SystemParams, x, enforce_window: bool) -> None:
    if enforce_window:
        _quarter_kappa_gate(params, x, "frequency window gate: |omega -+ omega_m|",
                            "; pass enforce_window=False to override")


def _detuning_gate(params: SystemParams, tone: ToneSpec) -> None:
    """Good-cavity gate, then ||Delta| - omega_m| < kappa/4 for ``tone``."""
    params.require_good_cavity()
    _quarter_kappa_gate(params, abs(tone.detuning) - params.omega_m,
                        "detuning gate: ||Delta| - omega_m|")


def scattering_matrix(params: SystemParams, tone: ToneSpec, offset: float, *,
                      enforce_window: bool = True) -> ScatteringMatrix:
    """Full 3x3 scattering matrix at the offset x = omega - sign*omega_m.

    Valid within |x| < kappa/4 of the mechanical feature (overridable), for a
    tone within kappa/4 of its sideband and in the good-cavity limit
    omega_m > kappa.
    """
    _detuning_gate(params, tone)
    _window_gate(params, offset, enforce_window)
    sign = tone.detuning_sign

    k = params.kappa
    gamma_opt = tone.gamma_opt(params)
    n = complex(mech_denominator(offset, sign, params.gamma_m, gamma_opt))
    g = gamma_opt / n
    mech = 1j * cmath.sqrt(params.gamma_m * gamma_opt) / n

    kr, kl, ki = params.kappa_r, params.kappa_l, params.kappa_i
    s11 = 1.0 - 2.0 * kr / k + sign * (kr / k) * g
    s12 = -2.0 * math.sqrt(kl * kr) / k + sign * (math.sqrt(kl * kr) / k) * g
    s22 = 1.0 - 2.0 * kl / k + sign * (kl / k) * g
    s13 = math.sqrt(kr / k) * mech
    s23 = math.sqrt(kl / k) * mech
    s33 = 1.0 - params.gamma_m / n
    s_loss = -2.0 * math.sqrt(ki * kr) / k + sign * (math.sqrt(ki * kr) / k) * g

    entries = np.array(
        [[s11, s12, s13],
         [s12, s22, s23],
         [s13, s23, s33]],
        dtype=complex,
    )
    return ScatteringMatrix(entries=entries, detuning_sign=sign, s_loss=s_loss)


def _port_strengths(params: SystemParams, baths: BathSpec, kind: str,
                    detuning_sign: int) -> tuple[float, float, float]:
    """(s_r, s_c, s_m) of `BathSpec.strengths`, s_c = (kappa_l s_l + kappa_r s_r + kappa_i s_i)/kappa."""
    s_r, s_l, s_i, s_m = baths.strengths(kind, detuning_sign)
    s_c = (params.kappa_l * s_l + params.kappa_r * s_r + params.kappa_i * s_i) / params.kappa
    return s_r, s_c, s_m


def noise_floor(params: SystemParams, baths: BathSpec, kind: str = "symmetrized") -> float:
    """Frequency-independent noise floor of the right-port output (lab frame).

    S0 = s_r + (4 kappa_r/kappa)(s_c - s_r) in the input strengths of
    ``kind`` (`_port_strengths`). At unit vacuum weights the normal-ordered
    floor is lower by 1/2.
    """
    s_r, s_c, _ = _port_strengths(params, baths, kind, +1)
    return s_r + 4.0 * params.kappa_r / params.kappa * (s_c - s_r)


def spectrum_from_scattering(smat: ScatteringMatrix, baths: BathSpec, kind: str) -> float:
    """Output spectral value at smat's frequency, composed from |s_1j|^2.

    S = sum_j |s_1j|^2 s_j over the (right, left, intrinsic, mechanical)
    inputs, with the strengths s_j = `BathSpec.strengths(kind, sign)` of the
    matrix's pump sign. The intrinsic-loss channel enters through
    ``smat.s_loss``. It exists for the tests, which check the closed forms against it.
    """
    s11, s12, s13 = smat.output_row
    a = (abs(s11) ** 2, abs(s12) ** 2, abs(smat.s_loss) ** 2, abs(s13) ** 2)
    w = baths.strengths(kind, smat.detuning_sign)
    return float(sum(ai * wi for ai, wi in zip(a, w)))


def _lorentzian_brackets(params: SystemParams, baths: BathSpec, gamma_opt: float,
                         detuning_sign: int, kind: str) -> float:
    """Bracket multiplying kappa_r/kappa * gamma_m*gamma_opt / ((omega -+ omega_m)^2 + gamma_tot^2/4).

    s_m - sign (2 s_c - s_r) - (gamma_opt/gamma_m)(s_c - s_r) in the strengths
    of `_port_strengths`; with `noise_floor` it equals the scattering
    composition for any occupations and vacuum weights.
    """
    s_r, s_c, s_m = _port_strengths(params, baths, kind, detuning_sign)
    u = gamma_opt / params.gamma_m
    return s_m - detuning_sign * (2.0 * s_c - s_r) - u * (s_c - s_r)


def _lorentzian(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                kind: str, weak_coupling: bool) -> tuple[float, float]:
    """(amplitude, width) of the single-tone feature amplitude / (x^2 + width^2/4).

    The detuning and stability gates of every single-tone form.
    """
    _detuning_gate(params, tone)
    sign = tone.detuning_sign
    gamma_opt = tone.gamma_opt(params)
    gamma_tot = params.gamma_m + sign * gamma_opt
    if not gamma_tot > 0.0:
        raise InstabilityError(gamma_tot)
    bracket = _lorentzian_brackets(params, baths, gamma_opt, sign, kind)
    amplitude = (params.kappa_r / params.kappa) * params.gamma_m * gamma_opt * bracket
    return amplitude, params.gamma_m if weak_coupling else gamma_tot


def single_tone_spectrum(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                         kind: str, grid: np.ndarray, *,
                         weak_coupling: bool = False,
                         enforce_window: bool = True) -> Spectrum:
    """Closed-form output spectrum on a lab-offset grid x = omega - omega_c.

    The exact Lorentzian width gamma_tot = gamma_m +- gamma_opt is used by
    default; ``weak_coupling=True`` selects the gamma_tot ~ gamma_m form.
    Agrees with the scattering-row composition at every point.
    """
    amplitude, width = _lorentzian(params, baths, tone, kind, weak_coupling)
    x = np.asarray(grid, dtype=float)
    _window_gate(params, x, enforce_window)
    return Spectrum(x, noise_floor(params, baths, kind) + amplitude / (x**2 + width**2 / 4.0))


def single_tone_integrated_weight(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                                  kind: str, *,
                                  weak_coupling: bool = False) -> float:
    """Analytic integral (domega/2pi) of the single-tone Lorentzian feature.

    amplitude / width, the exact integral of the closed-form Lorentzian over
    all frequencies.
    """
    amplitude, width = _lorentzian(params, baths, tone, kind, weak_coupling)
    return amplitude / width


def imbalance(params: SystemParams, baths: BathSpec, tone: ToneSpec, kind: str,
              grid: np.ndarray, *, weak_coupling: bool = False,
              enforce_window: bool = True) -> Spectrum:
    """Pointwise blue-minus-red difference of ``tone`` and its mirror image
    (`ToneSpec.sidebands`), both spectra re-centered on their peaks.

    The grid is the common offset-from-peak axis; the constant floor cancels.
    """
    red, blue = (single_tone_spectrum(params, baths, t, kind, grid, weak_coupling=weak_coupling,
                                      enforce_window=enforce_window) for t in tone.sidebands())
    return Spectrum(np.asarray(grid, dtype=float), blue.values - red.values)


def integrated_asymmetry(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                         kind: str) -> float:
    """Integrated weight (domega/2pi) of the red/blue imbalance, weak-coupling form.

    (kappa_r/kappa) gamma_opt (blue bracket - red bracket) with the brackets
    of `_lorentzian_brackets`, i.e. (kappa_r/kappa) gamma_opt [s_m^blue -
    s_m^red + 2 (2 s_c - s_r)]. The bracket difference is 2 n_eff + beta
    (normal-ordered), and 2 n_eff + 1 (symmetrized) at unit vacuum weights.
    """
    _detuning_gate(params, tone)
    gamma_opt = tone.gamma_opt(params)
    if gamma_opt > 0.1 * params.gamma_m:
        warnings.warn(
            "integrated_asymmetry assumes gamma_opt << gamma_m "
            f"(gamma_opt/gamma_m = {gamma_opt / params.gamma_m:.3g})",
            stacklevel=2,
        )
    blue = _lorentzian_brackets(params, baths, gamma_opt, -1, kind)
    red = _lorentzian_brackets(params, baths, gamma_opt, +1, kind)
    return (params.kappa_r / params.kappa) * gamma_opt * (blue - red)


def output_commutator(params: SystemParams, baths: BathSpec, tone: ToneSpec,
                      offset: float, *, enforce_window: bool = True) -> float:
    """Coefficient of delta(omega + Omega) in [d_R,out, d_R,out^dagger] at ``offset``.

    Composed from the scattering row with the graded mechanical weight
    (+beta for red, -beta for blue); equals alpha_r everywhere when
    alpha_l = alpha_r = beta, and otherwise carries a Lorentzian residue.
    It exists for the invariant tests of commutator constancy.
    """
    smat = scattering_matrix(params, tone, offset, enforce_window=enforce_window)
    s11, s12, s13 = smat.output_row
    return float(
        abs(s11) ** 2 * baths.alpha_r
        + abs(s12) ** 2 * baths.alpha_l
        + abs(smat.s_loss) ** 2 * baths.alpha_i
        + smat.detuning_sign * abs(s13) ** 2 * baths.beta
    )
