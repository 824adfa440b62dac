"""Stochastic-integrator tests.

The heavier Monte-Carlo comparisons live in test_acceptance; configurations
here are rate-scaled so each run stays in the seconds range while still
exercising every contract (noise synthesis, determinism, per-trajectory
streams, equilibration, floor normalization, analytic agreement).
"""

import dataclasses
import math

import numpy as np
import pytest

from sideband_lab.errors import ConfigError, StepSizeError
from sideband_lab.langevin import (
    RNG_ALGORITHM,
    SimConfig,
    TrajectoryOutput,
    _measure_peak,
    choose_decimation,
    estimate_psd,
    integrate_langevin,
    oracle_compare,
    synthesize_input_noise,
)
from sideband_lab.model import TWO_PI, BathSpec, SystemParams, Spectrum, ToneConfig, ToneSpec
from sideband_lab.multitone import full_rwa_spectrum, sideband_weights
from sideband_lab.presets import preset
from sideband_lab.scattering import single_tone_integrated_weight, single_tone_spectrum

from conftest import balanced_config, make_params, tone_with_gamma_opt


def fast_params(**kw):
    kw.setdefault("omega_c_hz", 1e9)
    kw.setdefault("omega_m_hz", 10e6)
    kw.setdefault("g0_hz", 50.0)
    kw.setdefault("kappa_l_hz", 10e3)
    kw.setdefault("kappa_r_hz", 35e3)
    kw.setdefault("kappa_i_hz", 5e3)
    kw.setdefault("gamma_m_hz", 500.0)
    return make_params(**kw)


def philox_streams(seed, n):
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(j,))))
            for j in range(n)]


class TestNoiseSynthesis:
    # symmetrized strengths n + w/2: right 0.9, left 2.0, intrinsic 2.5, mechanical 3.5
    BATHS = BathSpec(n_r=0.4, n_l=1.5, n_i=2.0, n_m=3.0)

    def test_vacuum_per_sample_variance(self):
        # vacuum inputs: W = 1/2 on every channel
        p = fast_params()
        dt = 1e-6
        rows = synthesize_input_noise(p, BathSpec(), dt, philox_streams(1, 4), 100_000)
        expected = (0.5 * dt, 0.5 * (p.kappa_l + p.kappa_i) * dt, 0.5 * p.gamma_m * dt)
        for xi, var in zip(rows, expected):
            assert xi.shape == (100_000, 4)
            assert np.mean(np.abs(xi) ** 2) == pytest.approx(var, rel=0.01)

    def test_thermal_variance(self):
        p = fast_params()
        dt = 1e-7
        rows = synthesize_input_noise(p, self.BATHS, dt, philox_streams(2, 4), 100_000)
        expected = (0.9 * dt, (p.kappa_l * 2.0 + p.kappa_i * 2.5) * dt, p.gamma_m * 3.5 * dt)
        for xi, var in zip(rows, expected):
            assert np.mean(np.abs(xi) ** 2) == pytest.approx(var, rel=0.01)
            # real and imaginary parts carry half each
            assert np.mean(xi.real ** 2) == pytest.approx(var / 2.0, rel=0.01)

    def test_channels_uncorrelated(self):
        p = fast_params()
        rows = synthesize_input_noise(p, self.BATHS, 1e-6, philox_streams(3, 4), 100_000)
        n = rows[0].size
        power = [np.mean(np.abs(xi) ** 2) for xi in rows]
        for a in range(3):
            # circular: no correlation between real and imaginary parts
            assert abs(np.mean(rows[a] ** 2)) < 4.0 * power[a] / math.sqrt(n)
            for b in range(a + 1, 3):
                cross = np.mean(rows[a] * np.conj(rows[b]))
                assert abs(cross) < 4.0 * math.sqrt(power[a] * power[b] / n)

    def test_column_depends_only_on_its_stream(self):
        p = fast_params()
        dt = 1e-6
        full = synthesize_input_noise(p, self.BATHS, dt, philox_streams(7, 3), 50)
        alone = synthesize_input_noise(p, self.BATHS, dt, philox_streams(7, 3)[1:2], 50)
        swapped = synthesize_input_noise(p, self.BATHS, dt,
                                         philox_streams(8, 1) + philox_streams(7, 3)[1:], 50)
        for row, row_alone, row_swapped in zip(full, alone, swapped):
            np.testing.assert_array_equal(row[:, 1:2], row_alone)
            np.testing.assert_array_equal(row[:, 1:], row_swapped[:, 1:])
            assert not np.any(row[:, 0] == row_swapped[:, 0])
        # each step takes six normals of the stream: right, other, mechanical pairs
        z = philox_streams(7, 3)[2].standard_normal((50, 6))
        np.testing.assert_allclose(full[0][:, 2], math.sqrt(0.9 * dt / 2.0) * (z[:, 0] + 1j * z[:, 1]),
                                   rtol=1e-14)
        np.testing.assert_allclose(full[2][:, 2],
                                   math.sqrt(p.gamma_m * 3.5 * dt / 2.0) * (z[:, 4] + 1j * z[:, 5]),
                                   rtol=1e-14)


class TestIntegratorContracts:
    def test_all_noise_off_gives_zero_output(self):
        p = fast_params()
        dead = BathSpec(alpha_r=0.0, alpha_l=0.0, alpha_i=0.0, beta=0.0)
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=20, seed=0, n_trajectories=4)
        traj = integrate_langevin(p, dead, cfg, sim)
        assert np.all(traj.output_field == 0.0)

    def test_seed_determinism_bit_identical(self):
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=30, seed=42, n_trajectories=4)
        a = integrate_langevin(p, BathSpec(n_m=1.0), cfg, sim)
        b = integrate_langevin(p, BathSpec(n_m=1.0), cfg, sim)
        np.testing.assert_array_equal(a.output_field, b.output_field)

    def test_trajectory_streams_do_not_depend_on_the_ensemble(self):
        # trajectory j draws from its own Philox stream, so the first k
        # trajectories of an n-trajectory run are exactly a k-trajectory run
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=30, seed=42, n_trajectories=6)
        full = integrate_langevin(p, BathSpec(n_m=1.0), cfg, sim, record_mech=True)
        for k in (1, 4):
            part = integrate_langevin(p, BathSpec(n_m=1.0), cfg,
                                      dataclasses.replace(sim, n_trajectories=k), record_mech=True)
            np.testing.assert_array_equal(full.output_field[:k], part.output_field)
            np.testing.assert_array_equal(full.mech_abs2[:k], part.mech_abs2)

    def test_linearity_in_noise_power(self):
        # doubling every (n + w/2) scales the same noise draws by sqrt(2)
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=40, seed=9, n_trajectories=4)
        base = BathSpec(n_m=1.0)
        doubled = BathSpec(n_r=0.5, n_l=0.5, n_i=0.5, n_m=2.5)  # n + 1/2 doubled
        s1 = estimate_psd(integrate_langevin(p, base, cfg, sim), sim.psd_segments)
        s2 = estimate_psd(integrate_langevin(p, doubled, cfg, sim), sim.psd_segments)
        np.testing.assert_allclose(s2.values, 2.0 * s1.values, rtol=1e-10)

    def test_step_gates(self):
        p = fast_params()
        cfg = ToneConfig(tones=())
        good = SimConfig.auto(p, cfg, n_segments=20, seed=0, n_trajectories=2)
        bad_dt = SimConfig(dt=0.2 / p.kappa, n_steps=good.n_steps,
                           n_trajectories=2, seed=0, burn_in=good.burn_in,
                           psd_segments=20)
        with pytest.raises(StepSizeError, match="dt\\*kappa"):
            integrate_langevin(p, BathSpec(), cfg, bad_dt)
        too_short = SimConfig(dt=good.dt, n_steps=int(10.0 / (p.gamma_m * good.dt)),
                              n_trajectories=2, seed=0, burn_in=0, psd_segments=20)
        with pytest.raises(StepSizeError, match="n_steps"):
            integrate_langevin(p, BathSpec(), cfg, too_short)

    def test_generic_tone_rejected(self):
        p = fast_params()
        cfg = ToneConfig(tones=(ToneSpec(detuning=-p.omega_m, role="generic",
                                         coupling=1.0),))
        sim = SimConfig.auto(p, cfg, n_segments=20, seed=0, n_trajectories=2)
        with pytest.raises(ConfigError, match="generic"):
            integrate_langevin(p, BathSpec(), cfg, sim)

    def test_rng_algorithm_documented(self):
        assert "philox" in RNG_ALGORITHM


class TestEquilibration:
    def test_mechanical_occupation_fluctuation_dissipation(self):
        # drive off, thermal mechanics: <|c|^2> -> n_m + 1/2 within 2%
        p = fast_params(kappa_l_hz=50.0, kappa_r_hz=100.0, kappa_i_hz=0.0,
                        gamma_m_hz=40.0, omega_m_hz=1e5)
        n_m = 4.0
        cfg = ToneConfig(tones=())
        dt = min(0.04 / p.kappa, 9e-4 / p.gamma_m)
        n_steps = int(60.0 / (p.gamma_m * dt))
        sim = SimConfig(dt=dt, n_steps=n_steps, n_trajectories=64, seed=11,
                        burn_in=int(3.0 / (p.gamma_m * dt)), psd_segments=10)
        traj = integrate_langevin(p, BathSpec(n_m=n_m), cfg, sim, record_mech=True)
        mean_abs2 = float(np.mean(traj.mech_abs2))
        assert mean_abs2 == pytest.approx(n_m + 0.5, rel=0.02)


class TestEstimatePsd:
    def test_vacuum_floor_is_half(self):
        p = fast_params()
        cfg = ToneConfig(tones=())
        sim = SimConfig.auto(p, cfg, n_segments=400, seed=1, n_trajectories=16)
        traj = integrate_langevin(p, BathSpec(), cfg, sim,
                                  decimate=choose_decimation(p, cfg, sim))
        spec = estimate_psd(traj, sim.psd_segments)
        assert np.mean(spec.values) == pytest.approx(0.5, rel=0.01)
        # pointwise scatter consistent with segment averaging
        assert np.std(spec.values) < 0.5 * 5.0 / math.sqrt(sim.psd_segments)

    def test_red_tone_peak_location_sign_convention(self):
        # red probe detuned delta below the red sideband puts the up-converted
        # feature at offset -delta
        p = fast_params(gamma_m_hz=800.0)
        delta = TWO_PI * 12e3
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.5 * p.gamma_m, "red_probe",
                                                    -(p.omega_m + delta)),),
                         delta=delta)
        sim = SimConfig.auto(p, cfg, n_segments=400, seed=4, n_trajectories=16)
        traj = integrate_langevin(p, BathSpec(n_m=30.0), cfg, sim,
                                  decimate=choose_decimation(p, cfg, sim))
        spec = estimate_psd(traj, sim.psd_segments)
        peak_offset = spec.freq_offsets[np.argmax(spec.values)]
        assert peak_offset == pytest.approx(-delta, abs=3.0 * cfg.gamma_tot(p))


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
        cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 200.0,
                              allow_small_separation=False)
        return p, BathSpec(n_m=60.0), cfg, dict(n_segments=800, seed=5,
                                                n_trajectories=64)
    if name == "cooling":
        # gentle cooling keeps the finite-delta_c folding bias of gamma_M small;
        # stronger cooling shows the documented analytic/oracle discrepancy
        p = make_params(omega_c_hz=1e9, omega_m_hz=20e6, g0_hz=50, kappa_l_hz=20e3,
                        kappa_r_hz=120e3, kappa_i_hz=20e3, gamma_m_hz=300.0)
        cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 100.0,
                              delta_c=TWO_PI * 12600.0, cooling_gamma_opt=TWO_PI * 100.0,
                              allow_small_separation=False)
        return p, BathSpec(n_m=80.0), cfg, dict(n_segments=1500, seed=5,
                                                n_trajectories=64)
    if name == "squashing":
        # hot cavity, cold mechanics: the feature is a dip with negative weight
        p = make_params(omega_c_hz=1e9, omega_m_hz=10e6, g0_hz=50, kappa_l_hz=5e3,
                        kappa_r_hz=90e3, kappa_i_hz=5e3, gamma_m_hz=1000.0)
        tone = tone_with_gamma_opt(p, p.gamma_m, "red_probe")
        baths = BathSpec(n_r=1.0, n_l=1.0, n_i=1.0, n_m=0.0)
        return p, baths, ToneConfig(tones=(tone,)), dict(
            n_segments=4000, seed=2, n_trajectories=128, dt_factor=0.045)
    raise KeyError(name)


class TestOracleEquivalence:
    """Monte-Carlo PSD vs analytic spectra: floor +-2%, weight +-5%,
    center +-gamma_tot/10 on the five canonical configurations."""

    @pytest.mark.parametrize("name", ["red", "blue", "balanced", "cooling",
                                      "squashing"])
    def test_configuration(self, name):
        p, baths, cfg, sim_kw = equivalence_case(name)
        sim = SimConfig.auto(p, cfg, **sim_kw)
        report, _ = oracle_compare(p, baths, cfg, sim)
        gamma_tot = cfg.gamma_tot(p)
        assert report["floor_rel_err"] < 0.02
        centers = {"anti_stokes": -cfg.delta, "stokes": +cfg.delta, "peak": 0.0}
        for peak, err in report["rel_err"].items():
            assert err < 0.05, (name, peak, err)
            assert abs(report["mc_center"][peak] - centers[peak]) < gamma_tot / 10.0
        if name == "squashing":
            assert report["mc_weight"]["peak"] < 0.0
            assert report["analytic_weight"]["peak"] < 0.0
        if name == "red":
            assert report["n_segments"] >= 2000


def exact_oracle_grid(gamma_tot):
    """The oracle's resolution and reach: 4 bins per gamma_tot over +-360 gamma_tot."""
    return np.arange(-1440, 1441) * gamma_tot / 4.0


class TestMeasurePeak:
    """The peak estimator on exact closed-form spectra, no Monte Carlo."""

    @pytest.mark.parametrize("name", ["red", "squashing", "balanced", "cooling"])
    def test_weights_of_exact_spectra(self, name):
        p, baths, cfg, _ = equivalence_case(name)
        gamma_tot = cfg.gamma_tot(p)
        grid = exact_oracle_grid(gamma_tot)
        if cfg.has_probe_pair:
            spec = full_rwa_spectrum(p, baths, cfg, grid)
            centers = [-cfg.delta, cfg.delta]
            exact = sideband_weights(p, baths, cfg)
        else:
            tone = cfg.tones[0]
            spec = single_tone_spectrum(p, baths, tone, +1, "symmetrized", grid,
                                        enforce_window=False)
            centers = [0.0]
            exact = [single_tone_integrated_weight(p, baths, tone, +1, "symmetrized")]
        _, weights, centroids = _measure_peak(spec, centers, gamma_tot)
        np.testing.assert_allclose(weights, exact, rtol=1e-3)
        np.testing.assert_allclose(centroids, centers, rtol=0, atol=gamma_tot / 50.0)

    def test_imbalance_of_exact_oracle_demo(self):
        # the mixing term is even in the offset, so it cancels in the difference
        p, baths, cfg = preset("oracle-demo")
        gamma_opt, _ = cfg.gamma_opt_pair(p)
        gamma_tot = cfg.gamma_tot(p)
        spec = full_rwa_spectrum(p, baths, cfg, exact_oracle_grid(gamma_tot))
        _, (w_anti, w_stokes), _ = _measure_peak(spec, [-cfg.delta, cfg.delta], gamma_tot)
        imbalance = (w_stokes - w_anti) / (p.kappa_r / p.kappa * gamma_opt)
        assert imbalance == pytest.approx(1.0, abs=1e-4)


class TestOracleCompare:

    def test_dt_halving_consistency(self):
        # halving dt moves the extracted weight by less than the stat spread,
        # and both land on the analytic value
        p = fast_params(gamma_m_hz=1000.0)
        tone = tone_with_gamma_opt(p, 0.2 * p.gamma_m, "red_probe")
        cfg = ToneConfig(tones=(tone,))
        sim = SimConfig.auto(p, cfg, n_segments=800, seed=3, n_trajectories=32)
        fine = SimConfig(dt=sim.dt / 2.0, n_steps=2 * sim.n_steps,
                         n_trajectories=sim.n_trajectories, seed=sim.seed,
                         burn_in=2 * sim.burn_in, psd_segments=sim.psd_segments)
        r1, _ = oracle_compare(p, BathSpec(n_m=50.0), cfg, sim)
        r2, _ = oracle_compare(p, BathSpec(n_m=50.0), cfg, fine)
        assert r1["rel_err"]["peak"] < 0.08
        assert r2["rel_err"]["peak"] < 0.08

    def test_report_fields(self):
        p = fast_params()
        tone = tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe")
        cfg = ToneConfig(tones=(tone,))
        sim = SimConfig.auto(p, cfg, n_segments=100, seed=0, n_trajectories=8)
        report, spec = oracle_compare(p, BathSpec(n_m=20.0), cfg, sim)
        for key in ("config_hash", "seed", "rng", "n_segments",
                    "analytic_weight", "mc_weight", "rel_err"):
            assert key in report
        assert isinstance(spec, Spectrum)
