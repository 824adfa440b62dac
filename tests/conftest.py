import math

import numpy as np
import pytest

from sideband_lab.config import config_from_dict
from sideband_lab.langevin import SimConfig
from sideband_lab.model import TWO_PI, BathSpec, Spectrum, SystemParams, ToneConfig, ToneSpec
from sideband_lab.scattering import _lorentzian, noise_floor, single_tone_integrated_weight


def make_params(**rates_hz) -> SystemParams:
    """The si-figure device's system block, with any key of it set in Hz, as
    `config_from_dict` loads it."""
    system = {"omega_c_hz": 5.4e9, "omega_m_hz": 4.0e6, "g0_hz": 16.0, "kappa_left_hz": 155e3,
              "kappa_right_hz": 450e3, "kappa_internal_hz": 265e3, "gamma_m_hz": 10.0}
    assert rates_hz.keys() <= system.keys(), "the file format ignores an unknown key"
    return config_from_dict({"system": {**system, **rates_hz}, "baths": {}, "tones": []})[0]


def tone_with_gamma_opt(params: SystemParams, gamma_opt: float, role: str,
                        detuning: float | None = None) -> ToneSpec:
    """Probe tone with an exact target optical damping rate."""
    g = math.sqrt(gamma_opt * params.kappa) / 2.0
    if detuning is None:
        detuning = -params.omega_m if role != "blue_probe" else params.omega_m
    return ToneSpec(detuning=detuning, role=role, coupling=g)


def weak_coupling_weight(params: SystemParams, baths: BathSpec, tone: ToneSpec) -> float:
    """Symmetrized single-tone weight in the gamma_tot ~ gamma_m form that linear
    response reproduces: the exact weight, amplitude/gamma_tot, times gamma_tot/gamma_m."""
    gamma_tot = params.gamma_m + tone.detuning_sign * tone.gamma_opt(params)
    exact = single_tone_integrated_weight(params, baths, tone, "symmetrized")
    return exact * gamma_tot / params.gamma_m


def random_system(rng: np.random.Generator, *, kappa_i_zero=False,
                  good_cavity_factor=50.0) -> SystemParams:
    """Random but physically sane device constants (rates in rad/s)."""
    kappa_l = rng.uniform(0.05, 1.0) * TWO_PI * 1e5
    kappa_r = rng.uniform(0.05, 1.0) * TWO_PI * 1e5
    kappa_i = 0.0 if kappa_i_zero else rng.uniform(0.0, 0.5) * TWO_PI * 1e5
    kappa = kappa_l + kappa_r + kappa_i
    return SystemParams(
        omega_c=TWO_PI * 5e9,
        omega_m=good_cavity_factor * kappa,
        g0=TWO_PI * 20.0,
        kappa_l=kappa_l, kappa_r=kappa_r, kappa_i=kappa_i,
        gamma_m=rng.uniform(5.0, 100.0) * TWO_PI,
    )


def random_baths(rng: np.random.Generator, *, max_n=5.0) -> BathSpec:
    return BathSpec(
        n_r=rng.uniform(0, max_n), n_l=rng.uniform(0, max_n),
        n_i=rng.uniform(0, max_n), n_m=rng.uniform(0, 100.0),
    )


def balanced_config(params: SystemParams, *, delta: float, probe_gamma_opt: float,
                    delta_c: float | None = None, cooling_gamma_opt: float = 0.0) -> ToneConfig:
    """The balanced probe pair at omega_c -+ (omega_m + delta), each with gamma_opt =
    ``probe_gamma_opt``, plus a cooling tone at omega_c - (omega_m + delta_c) when
    ``cooling_gamma_opt`` > 0; the cooling-order gate runs as a loaded file meets it."""
    tones = [tone_with_gamma_opt(params, probe_gamma_opt, "red_probe", -(params.omega_m + delta)),
             tone_with_gamma_opt(params, probe_gamma_opt, "blue_probe", +(params.omega_m + delta))]
    if cooling_gamma_opt > 0.0:
        tones.append(tone_with_gamma_opt(params, cooling_gamma_opt, "cooling",
                                         -(params.omega_m + delta_c)))
    config = ToneConfig(tones=tuple(tones))
    config.delta_c(params)
    return config


def lorentzian_spectrum(params: SystemParams, baths: BathSpec, tone: ToneSpec, kind: str,
                        grid: np.ndarray) -> Spectrum:
    """`single_tone_spectrum` without its kappa/4 window gate, built from the same
    (amplitude, width) and floor: the quadrature tests integrate past the window."""
    amplitude, width = _lorentzian(params, baths, tone, kind)
    x = np.asarray(grid, dtype=float)
    return Spectrum(x, noise_floor(params, baths, kind) + amplitude / (x**2 + width**2 / 4.0))


def default_layout(params: SystemParams, config: ToneConfig) -> SimConfig:
    """`SimConfig.auto` in the default layout of `oracle-compare`: 2000 segments, seed 0,
    64 trajectories."""
    return SimConfig.auto(params, config, n_segments=2000, seed=0, n_trajectories=64)


def fast_params(**kw):
    kw.setdefault("omega_c_hz", 1e9)
    kw.setdefault("omega_m_hz", 10e6)
    kw.setdefault("g0_hz", 50.0)
    kw.setdefault("kappa_left_hz", 10e3)
    kw.setdefault("kappa_right_hz", 35e3)
    kw.setdefault("kappa_internal_hz", 5e3)
    kw.setdefault("gamma_m_hz", 500.0)
    return make_params(**kw)


def equivalence_case(name):
    """The five canonical configurations for the oracle-equivalence check."""
    if name == "red":
        # single red tone, cooperativity 0.1, warm mechanics, >= 2000 segments
        p = fast_params()
        tone = tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe")
        return p, BathSpec(n_m=100.0), ToneConfig(tones=(tone,)), dict(
            n_segments=2000, seed=7, n_trajectories=64)
    if name == "blue":
        p = fast_params()
        tone = tone_with_gamma_opt(p, 0.1 * p.gamma_m, "blue_probe", +p.omega_m)
        return p, BathSpec(n_m=100.0), ToneConfig(tones=(tone,)), dict(
            n_segments=1000, seed=8, n_trajectories=64)
    if name == "balanced":
        p = make_params(omega_c_hz=1e9, omega_m_hz=10e6, g0_hz=50, kappa_left_hz=4e3,
                        kappa_right_hz=80e3, kappa_internal_hz=0.0, gamma_m_hz=400.0)
        cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 200.0)
        return p, BathSpec(n_m=60.0), cfg, dict(n_segments=800, seed=5,
                                                n_trajectories=64)
    if name == "cooling":
        # gentle cooling keeps the finite-delta_c folding bias of gamma_M small;
        # stronger cooling shows the documented analytic/oracle discrepancy
        p = make_params(omega_c_hz=1e9, omega_m_hz=20e6, g0_hz=50, kappa_left_hz=20e3,
                        kappa_right_hz=120e3, kappa_internal_hz=20e3, gamma_m_hz=300.0)
        cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 100.0,
                              delta_c=TWO_PI * 12600.0, cooling_gamma_opt=TWO_PI * 100.0)
        return p, BathSpec(n_m=80.0), cfg, dict(n_segments=1500, seed=5,
                                                n_trajectories=64)
    if name == "squashing":
        # hot cavity, cold mechanics: the feature is a dip with negative weight
        p = make_params(omega_c_hz=1e9, omega_m_hz=10e6, g0_hz=50, kappa_left_hz=5e3,
                        kappa_right_hz=90e3, kappa_internal_hz=5e3, gamma_m_hz=1000.0)
        tone = tone_with_gamma_opt(p, p.gamma_m, "red_probe")
        baths = BathSpec(n_r=1.0, n_l=1.0, n_i=1.0, n_m=0.0)
        return p, baths, ToneConfig(tones=(tone,)), dict(
            n_segments=4000, seed=2, n_trajectories=128)
    raise KeyError(name)


def integrated_weight(spec: Spectrum, floor: float = 0.0, *, tail_correction: bool = True,
                      center: float | None = None) -> float:
    """Integral (domega / 2pi) of (values - floor) over the grid: the tests'
    trapezoid quadrature reference for closed-form weights.

    A Lorentzian feature loses ~gamma/(pi*X) of its weight outside a +-X
    window; when ``tail_correction`` is set the 1/x^2 tails are estimated from
    the edge samples and added back, which makes +-50 linewidth windows good
    to ~1e-6 relative.
    """
    x = spec.freq_offsets
    v = spec.values - floor
    w = np.trapezoid(v, x)
    if tail_correction and x.size >= 4:
        if center is None:
            tot = np.trapezoid(np.abs(v), x)
            center = float(np.trapezoid(x * np.abs(v), x) / tot) if tot > 0 else 0.5 * (x[0] + x[-1])
        left = abs(x[0] - center)
        right = abs(x[-1] - center)
        if left > 0 and right > 0:
            w += v[0] * left + v[-1] * right
    return float(w / TWO_PI)



@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
