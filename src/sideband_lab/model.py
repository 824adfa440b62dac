"""Domain types and derived quantities for a driven two-port electro/opto-mechanical cavity.

Conventions used everywhere in this package:

* hbar = 1; spectra are dimensionless ("quanta") and position spectra are in
  zero-point units, so no configuration carries the zero-point amplitude.
* All frequencies and rates are angular (rad/s). Configuration files quote Hz;
  the conversion by 2*pi happens only at the config boundary (`config.py`)
  and in the ``from_hz`` constructors.
* Spectrum grids are offsets from the cavity resonance, omega - omega_c.
* Drive amplitudes are taken real; drive phase is not modelled. The static
  mechanical displacement only renormalizes the cavity frequency and is
  absorbed into omega_c.
* Every closed form needs the dressed damping gamma_tot = gamma_M +
  gamma_opt^+ - gamma_opt^- > 0. `ToneConfig.gamma_tot` is the one place
  that decides it for a configuration (InstabilityError otherwise), and
  `derive_effective_mechanics` reads gamma_M from `ToneConfig.gamma_big_m`.
* Each validity decision has one home. `SystemParams.require_good_cavity`
  (omega_m > kappa) runs in the detuning gate that every scattering and
  multitone form passes, in `linear_response.detector_correlators` and, so
  that the oracle stays independent, in `langevin.integrate_langevin`.
  `ToneConfig.__post_init__` refuses a tone without a probe or cooling role
  or on the wrong side of the cavity for it. `ToneConfig.delta` and
  `ToneConfig.delta_c` derive the detunings from the tones and are the
  symmetric-probe and cooling-order (delta_c > delta) gates;
  `ToneConfig.probe` and `ToneConfig.require_balanced` are the probe and
  balanced-probe gates. A tone's side is `ToneSpec.detuning_sign`.
  `BathSpec.require_unit_vacuum` gates the multitone forms, which are written
  for unit vacuum weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InstabilityError, UnbalancedError, ValidityError

TWO_PI = 2.0 * math.pi
# reduced Planck and Boltzmann constants from the exact 2019 SI values
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s
K_B = 1.380649e-23  # J/K

#: roles a tone of a `ToneConfig` may take
CONFIG_ROLES = ("red_probe", "blue_probe", "cooling")
#: roles a drive tone may take; a "generic" tone only enters the single-tone
#: forms, which read its sideband from its detuning
TONE_ROLES = (*CONFIG_ROLES, "generic")


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise ConfigError(f"{name} must be strictly positive and finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Static device constants, all rates angular (rad/s)."""

    omega_c: float
    omega_m: float
    g0: float
    kappa_l: float
    kappa_r: float
    kappa_i: float
    gamma_m: float

    def __post_init__(self):
        for name in ("omega_c", "omega_m", "g0", "kappa_l", "kappa_r", "gamma_m"):
            _require_positive(name, getattr(self, name))
        if self.kappa_i < 0.0 or not math.isfinite(self.kappa_i):
            raise ConfigError(f"kappa_i must be >= 0, got {self.kappa_i!r}")

    @property
    def kappa(self) -> float:
        """Total cavity linewidth, kappa_l + kappa_r + kappa_i (never stored)."""
        return self.kappa_l + self.kappa_r + self.kappa_i

    def require_good_cavity(self) -> None:
        """Gate for every operation that relies on the rotating-wave step.

        Raises instead of silently computing outside omega_m > kappa.
        """
        if not self.omega_m > self.kappa:
            raise ValidityError(
                "good-cavity gate: omega_m > kappa required, "
                f"got omega_m = {self.omega_m:.6g}, kappa = {self.kappa:.6g}"
            )

    @classmethod
    def from_hz(cls, *, omega_c_hz, omega_m_hz, g0_hz, kappa_l_hz, kappa_r_hz,
                kappa_i_hz=0.0, gamma_m_hz) -> "SystemParams":
        return cls(
            omega_c=TWO_PI * omega_c_hz,
            omega_m=TWO_PI * omega_m_hz,
            g0=TWO_PI * g0_hz,
            kappa_l=TWO_PI * kappa_l_hz,
            kappa_r=TWO_PI * kappa_r_hz,
            kappa_i=TWO_PI * kappa_i_hz,
            gamma_m=TWO_PI * gamma_m_hz,
        )


@dataclass(frozen=True)
class BathSpec:
    """Thermal occupations and vacuum-noise weights of every input channel.

    ``alpha_*`` and ``beta`` are the electromagnetic/mechanical vacuum weights.
    Physically they equal 1; they are kept adjustable so the vacuum
    contributions can be tracked through every observable.
    """

    n_r: float = 0.0
    n_l: float = 0.0
    n_i: float = 0.0
    n_m: float = 0.0
    alpha_r: float = 1.0
    alpha_l: float = 1.0
    alpha_i: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("n_r", "n_l", "n_i", "n_m", "alpha_r", "alpha_l", "alpha_i", "beta"):
            v = getattr(self, name)
            if v < 0.0 or not math.isfinite(v):
                raise ConfigError(f"{name} must be >= 0 and finite, got {v!r}")

    def n_c(self, params: SystemParams) -> float:
        """Cavity thermal occupation: decay-rate-weighted sum over the ports."""
        return (
            params.kappa_l * self.n_l
            + params.kappa_r * self.n_r
            + params.kappa_i * self.n_i
        ) / params.kappa

    def n_eff(self, params: SystemParams) -> float:
        """Effective cavity occupation 2*n_c - n_r that controls the measured imbalance."""
        return 2.0 * self.n_c(params) - self.n_r

    def strengths(self, kind: str, detuning_sign: int = +1) -> tuple[float, float, float, float]:
        """Strengths of the (right, left, intrinsic, mechanical) inputs in one ordering.

        "symmetrized": n + w/2 (w the vacuum weight); "normal_ordered": n, plus
        beta on the mechanical channel for a blue pump (detuning_sign = -1).
        The only place a spectrum ordering is interpreted.
        """
        if kind == "symmetrized":
            return (self.n_r + self.alpha_r / 2.0, self.n_l + self.alpha_l / 2.0,
                    self.n_i + self.alpha_i / 2.0, self.n_m + self.beta / 2.0)
        if kind == "normal_ordered":
            return (self.n_r, self.n_l, self.n_i,
                    self.n_m + (self.beta if detuning_sign == -1 else 0.0))
        raise ConfigError(f"unknown spectrum kind {kind!r}")

    def require_unit_vacuum(self) -> None:
        """Gate of the multitone forms, which are written for unit vacuum weights:
        ValidityError naming each alpha or beta that is not 1."""
        odd = [f"{name} = {getattr(self, name):.6g}"
               for name in ("alpha_r", "alpha_l", "alpha_i", "beta") if getattr(self, name) != 1.0]
        if odd:
            raise ValidityError("multitone brackets assume unit vacuum weights, "
                                f"got {', '.join(odd)}")


@dataclass(frozen=True)
class ToneSpec:
    """One drive tone.

    Exactly one of ``n_photons`` (mean intracavity pump photons) or
    ``coupling`` (linearized many-photon rate G, rad/s) must be given; the
    other is derived through G = g0 * sqrt(n_photons).
    """

    detuning: float  # omega_pump - omega_c, signed, rad/s
    role: str = "generic"
    n_photons: float | None = None
    coupling: float | None = None

    def __post_init__(self):
        if self.role not in TONE_ROLES:
            raise ConfigError(f"unknown tone role {self.role!r}; expected one of {TONE_ROLES}")
        if not math.isfinite(self.detuning):
            raise ConfigError(f"detuning must be finite, got {self.detuning!r}")
        if (self.n_photons is None) == (self.coupling is None):
            raise ConfigError("exactly one of n_photons or coupling must be given")
        if self.n_photons is not None and (self.n_photons < 0 or not math.isfinite(self.n_photons)):
            raise ConfigError(f"n_photons must be >= 0, got {self.n_photons!r}")
        if self.coupling is not None and (self.coupling < 0 or not math.isfinite(self.coupling)):
            raise ConfigError(f"coupling must be >= 0, got {self.coupling!r}")

    @property
    def detuning_sign(self) -> int:
        """+1 for a tone below the cavity (red), -1 above it (blue)."""
        if self.detuning == 0.0:
            raise ConfigError("a tone on the cavity resonance has no sideband")
        return 1 if self.detuning < 0.0 else -1

    def sidebands(self) -> tuple["ToneSpec", "ToneSpec"]:
        """(red, blue): this tone and its generic mirror image across the cavity."""
        mirror = replace(self, detuning=-self.detuning, role="generic")
        return (self, mirror)[::self.detuning_sign]

    def coupling_rate(self, params: SystemParams) -> float:
        """G in rad/s."""
        if self.coupling is not None:
            return self.coupling
        return params.g0 * math.sqrt(self.n_photons)

    def gamma_opt(self, params: SystemParams) -> float:
        """Optical damping (red) / anti-damping (blue) rate 4 G^2 / kappa."""
        g = self.coupling_rate(params)
        return 4.0 * g * g / params.kappa


@dataclass(frozen=True)
class ToneConfig:
    """An ordered set of drive tones.

    For the balanced three-tone scheme the probes sit at
    omega_c -+ (omega_m + delta) and the cooling tone at
    omega_c - (omega_m + delta_c); `delta` and `delta_c` read both detunings
    off the tones. A configuration may also hold a single tone or no tones at
    all. Each role of `CONFIG_ROLES` is used at most once, on its side of the
    cavity (a blue_probe above it, the others below).
    """

    tones: tuple[ToneSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        roles = [t.role for t in self.tones]
        for i, t in enumerate(self.tones):
            if t.role not in CONFIG_ROLES:
                raise ConfigError(f"tones[{i}] needs a role in {CONFIG_ROLES}, got {t.role!r}")
            side = "above" if t.role == "blue_probe" else "below"
            if not (t.detuning > 0.0 if side == "above" else t.detuning < 0.0):
                raise ConfigError(f"tones[{i}]: a {t.role} tone sits {side} the cavity, "
                                  f"got detuning {t.detuning:.6g} rad/s")
        for r in CONFIG_ROLES:
            if roles.count(r) > 1:
                raise ConfigError(f"at most one {r} tone allowed, got {roles.count(r)}")

    def tone(self, role: str) -> ToneSpec | None:
        for t in self.tones:
            if t.role == role:
                return t
        return None

    def probe(self) -> ToneSpec:
        """The red probe, else the blue probe; ConfigError when there is neither."""
        tone = self.tone("red_probe") or self.tone("blue_probe")
        if tone is None:
            raise ConfigError("no probe tone: the configuration has neither "
                              "a red_probe nor a blue_probe tone")
        return tone

    def delta(self, params: SystemParams) -> float:
        """Probe detuning |Delta| - omega_m of the red probe, else of the blue one (each on its
        side), 0.0 without a probe; ConfigError if the two differ by over 1e-9 relative."""
        deltas = [abs(t.detuning) - params.omega_m
                  for t in (self.tone("red_probe"), self.tone("blue_probe")) if t is not None]
        if len(deltas) == 2 and abs(deltas[0] - deltas[1]) > 1e-9 * max(*map(abs, deltas), 1e-9):
            raise ConfigError("probe tones are not symmetric about the sidebands: "
                              f"delta_red = {deltas[0]:.6g}, delta_blue = {deltas[1]:.6g}")
        return deltas[0] if deltas else 0.0

    def delta_c(self, params: SystemParams) -> float | None:
        """Cooling detuning -Delta_cool - omega_m or None; ConfigError unless it exceeds `delta`."""
        delta, cool = self.delta(params), self.tone("cooling")
        delta_c = None if cool is None else -cool.detuning - params.omega_m
        if delta_c is not None and not delta_c > delta:
            raise ConfigError(f"cooling detuning delta_c = {delta_c:.6g} "
                              f"must exceed delta = {delta:.6g}")
        return delta_c

    @property
    def has_probe_pair(self) -> bool:
        return self.tone("red_probe") is not None and self.tone("blue_probe") is not None

    def gamma_opt_pair(self, params: SystemParams) -> tuple[float, float]:
        """(gamma_opt^+, gamma_opt^-) from the red and blue probe tones (0 when absent)."""
        red = self.tone("red_probe")
        blue = self.tone("blue_probe")
        gp = red.gamma_opt(params) if red is not None else 0.0
        gm = blue.gamma_opt(params) if blue is not None else 0.0
        return gp, gm

    def cooling_gamma_opt(self, params: SystemParams) -> float:
        cool = self.tone("cooling")
        return cool.gamma_opt(params) if cool is not None else 0.0

    def gamma_big_m(self, params: SystemParams) -> float:
        """Cooling-enhanced mechanical linewidth gamma_M = gamma_m + gamma_opt^cool."""
        return params.gamma_m + self.cooling_gamma_opt(params)

    def gamma_tot(self, params: SystemParams) -> float:
        """Total damping gamma_M + gamma_opt^+ - gamma_opt^-, the stability gate of
        every drive: InstabilityError unless it is positive."""
        gp, gm = self.gamma_opt_pair(params)
        gamma_tot = self.gamma_big_m(params) + gp - gm
        if not gamma_tot > 0.0:
            raise InstabilityError(gamma_tot)
        return gamma_tot

    def require_balanced(self, params: SystemParams) -> float:
        """Balanced-probe gate: the common gamma_opt; ConfigError without a
        probe tone (`probe`), UnbalancedError when gamma_opt^+ and gamma_opt^-
        differ by more than 1e-12 relative, as they do for a lone probe."""
        self.probe()
        gp, gm = self.gamma_opt_pair(params)
        if not abs(gp - gm) <= 1e-12 * max(gp, gm, 1e-300):
            raise UnbalancedError(
                f"balanced probes required: gamma_opt+ = {gp:.6g}, gamma_opt- = {gm:.6g}"
            )
        return gp

    @classmethod
    def balanced(cls, params: SystemParams, *, delta: float, probe_gamma_opt: float,
                 delta_c: float | None = None, cooling_gamma_opt: float = 0.0) -> "ToneConfig":
        """Build the balanced probe pair (optionally plus cooling tone) from target rates."""
        g_probe = math.sqrt(probe_gamma_opt * params.kappa) / 2.0
        tones = [
            ToneSpec(detuning=-(params.omega_m + delta), role="red_probe", coupling=g_probe),
            ToneSpec(detuning=+(params.omega_m + delta), role="blue_probe", coupling=g_probe),
        ]
        if cooling_gamma_opt > 0.0:
            if delta_c is None:
                raise ConfigError("delta_c required when a cooling tone is present")
            g_cool = math.sqrt(cooling_gamma_opt * params.kappa) / 2.0
            tones.append(ToneSpec(detuning=-(params.omega_m + delta_c), role="cooling",
                                  coupling=g_cool))
        config = cls(tones=tuple(tones))
        config.delta_c(params)  # the cooling-order gate, met as a loaded file meets it
        return config


@dataclass(frozen=True)
class Spectrum:
    """A real spectral density on a strictly increasing frequency-offset grid.

    ``freq_offsets`` holds omega - omega_c in rad/s; ``values`` is in quanta
    (or zero-point units squared times s for position spectra).
    """

    freq_offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freq_offsets, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or v.ndim != 1 or f.shape != v.shape:
            raise ConfigError("freq_offsets and values must be 1-d arrays of equal length")
        if f.size >= 2 and not np.all(np.diff(f) > 0):
            raise ConfigError("freq_offsets must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ConfigError("spectrum values must be finite")
        f.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "freq_offsets", f)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.freq_offsets.size

    def shifted(self, offset: float) -> "Spectrum":
        return Spectrum(self.freq_offsets + offset, self.values)


def derive_effective_mechanics(params: SystemParams, baths: BathSpec,
                               config: ToneConfig) -> tuple[float, float]:
    """Cooling-tone dressed mechanics: (gamma_M, n_M).

    gamma_M = `ToneConfig.gamma_big_m` and the bath mixture
    n_M = (gamma_m n_m + gamma_opt^cool n_c) / gamma_M, with gamma_opt^cool = 0
    without a cooling tone.
    """
    gamma_big_m = config.gamma_big_m(params)
    n_big_m = (params.gamma_m * baths.n_m
               + config.cooling_gamma_opt(params) * baths.n_c(params)) / gamma_big_m
    return gamma_big_m, n_big_m


def bose_occupation(temperature_k: float, omega: float) -> float:
    """Thermal occupation 1/(exp(hbar*omega/kT) - 1) for omega in rad/s."""
    if not temperature_k > 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature_k!r} K")
    x = HBAR * omega / (K_B * temperature_k)
    return 1.0 / math.expm1(x)
