import math

import numpy as np
import pytest

from sideband_lab.model import TWO_PI, BathSpec, Spectrum, SystemParams, ToneConfig, ToneSpec


def make_params(*, kappa_l_hz=155e3, kappa_r_hz=450e3, kappa_i_hz=265e3,
                gamma_m_hz=10.0, omega_m_hz=4.0e6, g0_hz=16.0,
                omega_c_hz=5.4e9) -> SystemParams:
    return SystemParams.from_hz(
        omega_c_hz=omega_c_hz, omega_m_hz=omega_m_hz, g0_hz=g0_hz,
        kappa_l_hz=kappa_l_hz, kappa_r_hz=kappa_r_hz, kappa_i_hz=kappa_i_hz,
        gamma_m_hz=gamma_m_hz,
    )


def tone_with_gamma_opt(params: SystemParams, gamma_opt: float, role: str,
                        detuning: float | None = None) -> ToneSpec:
    """Probe tone with an exact target optical damping rate."""
    g = math.sqrt(gamma_opt * params.kappa) / 2.0
    if detuning is None:
        detuning = -params.omega_m if role != "blue_probe" else params.omega_m
    return ToneSpec(detuning=detuning, role=role, coupling=g)


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
    return ToneConfig.balanced(
        params, delta=delta, probe_gamma_opt=probe_gamma_opt, delta_c=delta_c,
        cooling_gamma_opt=cooling_gamma_opt,
    )


def fast_params(**kw):
    kw.setdefault("omega_c_hz", 1e9)
    kw.setdefault("omega_m_hz", 10e6)
    kw.setdefault("g0_hz", 50.0)
    kw.setdefault("kappa_l_hz", 10e3)
    kw.setdefault("kappa_r_hz", 35e3)
    kw.setdefault("kappa_i_hz", 5e3)
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
        p = make_params(omega_c_hz=1e9, omega_m_hz=10e6, g0_hz=50, kappa_l_hz=4e3,
                        kappa_r_hz=80e3, kappa_i_hz=0.0, gamma_m_hz=400.0)
        cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 200.0)
        return p, BathSpec(n_m=60.0), cfg, dict(n_segments=800, seed=5,
                                                n_trajectories=64)
    if name == "cooling":
        # gentle cooling keeps the finite-delta_c folding bias of gamma_M small;
        # stronger cooling shows the documented analytic/oracle discrepancy
        p = make_params(omega_c_hz=1e9, omega_m_hz=20e6, g0_hz=50, kappa_l_hz=20e3,
                        kappa_r_hz=120e3, kappa_i_hz=20e3, gamma_m_hz=300.0)
        cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 100.0,
                              delta_c=TWO_PI * 12600.0, cooling_gamma_opt=TWO_PI * 100.0)
        return p, BathSpec(n_m=80.0), cfg, dict(n_segments=1500, seed=5,
                                                n_trajectories=64)
    if name == "squashing":
        # hot cavity, cold mechanics: the feature is a dip with negative weight
        p = make_params(omega_c_hz=1e9, omega_m_hz=10e6, g0_hz=50, kappa_l_hz=5e3,
                        kappa_r_hz=90e3, kappa_i_hz=5e3, gamma_m_hz=1000.0)
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
