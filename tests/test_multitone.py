import math
from dataclasses import replace

import numpy as np
import pytest

from sideband_lab.errors import ConfigError, InstabilityError, UnbalancedError, ValidityError
from sideband_lab.fitting import fit_lorentzian
from sideband_lab.model import TWO_PI, BathSpec, Spectrum, ToneConfig, ToneSpec, derive_effective_mechanics
from sideband_lab.multitone import (
    averaged_occupation,
    full_rwa_spectrum,
    multitone_spectra,
    peak_ratio_correction,
    sideband_ratio_model,
    sideband_weights,
)
from sideband_lab.scattering import noise_floor

from conftest import (balanced_config, integrated_weight, make_params, random_baths, random_system,
                      tone_with_gamma_opt)


def _sxx_lorentzian(params, baths, config):
    """(amplitude, width) of S_xx = amplitude / (omega^2 + width^2/4)."""
    baths.require_unit_vacuum()
    gamma_tot = config.gamma_tot(params)
    gp, gm = config.gamma_opt_pair(params)
    gamma_big_m, n_big_m = derive_effective_mechanics(params, baths, config)
    bracket = (n_big_m + 0.5) + ((gm + gp) / gamma_big_m) * (baths.n_c(params) + 0.5)
    return gamma_big_m * bracket, gamma_tot


def sxx_spectrum(params, baths, config, grid):
    """Symmetrized mechanical position spectrum (zero-point units squared
    times s), a check on the dressed mechanics that the multitone brackets use.

    S_xx[omega] = gamma_M/(omega^2 + gamma_tot^2/4) *
    [(n_M + 1/2) + ((gamma_opt^- + gamma_opt^+)/gamma_M)(n_c + 1/2)]
    on a grid of offsets from the dressed mechanical resonance.
    """
    amplitude, width = _sxx_lorentzian(params, baths, config)
    x = np.asarray(grid, dtype=float)
    return Spectrum(x, amplitude / (x**2 + width**2 / 4.0))


def sxx_integrated_weight(params, baths, config):
    """Analytic integral (domega/2pi) of sxx_spectrum over all frequencies."""
    amplitude, width = _sxx_lorentzian(params, baths, config)
    return amplitude / width


def si_figure_like():
    params = make_params(gamma_m_hz=10.0)
    n_i = (0.24 * 870e3 - 0.3 * 605e3) / 265e3
    baths = BathSpec(n_r=0.3, n_l=0.3, n_i=n_i, n_m=(100.0 * 360.0 - 350.0 * 0.24) / 10.0)
    config = balanced_config(params, delta=TWO_PI * 5e3, probe_gamma_opt=TWO_PI * 117.7,
                             delta_c=TWO_PI * 30e3, cooling_gamma_opt=TWO_PI * 350.0)
    return params, baths, config


def config_with_target(params, *, n_bar, n_eff_target, probe_gamma_opt, delta):
    """Baths and balanced config realizing given n_bar and n_eff exactly.

    Uniform port occupations make n_eff = n_c; the mechanical bath absorbs the
    probe backaction so the averaged occupation lands on n_bar.
    """
    config = balanced_config(params, delta=delta, probe_gamma_opt=probe_gamma_opt)
    gamma_opt = probe_gamma_opt
    n_m = n_bar - gamma_opt * (2.0 * n_eff_target + 1.0) / params.gamma_m
    if n_m < 0:
        raise ValueError("n_bar too small for this backaction level")
    baths = BathSpec(n_r=n_eff_target, n_l=n_eff_target, n_i=n_eff_target, n_m=n_m)
    return baths, config


class TestSxxSpectrum:
    def test_probes_off_thermal_lorentzian(self):
        p = make_params(gamma_m_hz=10.0)
        baths = BathSpec(n_m=40.0)
        cfg = ToneConfig(tones=())
        grid = np.array([0.0])
        spec = sxx_spectrum(p, baths, cfg, grid)
        assert spec.values[0] == pytest.approx(
            p.gamma_m * (40.5) / (p.gamma_m**2 / 4.0), rel=1e-12)

    def test_balanced_backaction_bracket(self):
        # n_M = n_c and gamma_opt+- = gamma_M/2 -> bracket doubles
        p = make_params(gamma_m_hz=10.0)
        n = 1.3
        baths = BathSpec(n_r=n, n_l=n, n_i=n, n_m=n)
        cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=p.gamma_m / 2.0)
        spec = sxx_spectrum(p, baths, cfg, np.array([0.0]))
        expected = p.gamma_m * 2.0 * (n + 0.5) / (p.gamma_m**2 / 4.0)
        assert spec.values[0] == pytest.approx(expected, rel=1e-12)

    def test_quadrature_matches_analytic_integral(self):
        p, baths, cfg = si_figure_like()
        gamma_tot = cfg.gamma_tot(p)
        grid = np.linspace(-80, 80, 160001) * gamma_tot
        spec = sxx_spectrum(p, baths, cfg, grid)
        quad = integrated_weight(spec, 0.0, center=0.0)
        assert quad == pytest.approx(sxx_integrated_weight(p, baths, cfg), rel=1e-4)


class TestStabilityGate:
    """Every multitone form goes through `ToneConfig.gamma_tot`, so an
    anti-damped drive raises InstabilityError carrying gamma_tot."""

    def unstable(self):
        p = make_params(gamma_m_hz=10.0)
        delta = TWO_PI * 5e3
        cfg = ToneConfig(tones=(
            tone_with_gamma_opt(p, TWO_PI * 10.0, "red_probe", -(p.omega_m + delta)),
            tone_with_gamma_opt(p, TWO_PI * 50.0, "blue_probe", +(p.omega_m + delta)),
        ))
        return p, BathSpec(n_m=5.0), cfg

    @pytest.mark.parametrize("form", [
        lambda p, b, c: sxx_integrated_weight(p, b, c),
        lambda p, b, c: sxx_spectrum(p, b, c, np.array([0.0])),
        lambda p, b, c: averaged_occupation(p, b, c),
        lambda p, b, c: sideband_weights(p, b, c),
        lambda p, b, c: multitone_spectra(p, b, c, "symmetrized", np.array([0.0])),
    ], ids=["sxx_integrated_weight", "sxx_spectrum", "averaged_occupation",
            "sideband_weights", "multitone_spectra"])
    def test_unstable_drive_raises(self, form):
        p, baths, cfg = self.unstable()
        with pytest.raises(InstabilityError) as err:
            form(p, baths, cfg)
        assert err.value.gamma_tot == pytest.approx(TWO_PI * (10.0 + 10.0 - 50.0), rel=1e-9)


class TestVacuumWeightGate:
    """The multitone forms are written for unit vacuum weights; any other
    weight is a ValidityError that names it, not a silently wrong number."""

    @pytest.mark.parametrize("name", ["alpha_r", "alpha_l", "alpha_i", "beta"])
    def test_non_unit_weight_is_named(self, name):
        p, baths, cfg = si_figure_like()
        odd = replace(baths, **{name: 1.5})
        grid = np.array([0.0])
        forms = (lambda: sideband_weights(p, odd, cfg),
                 lambda: multitone_spectra(p, odd, cfg, "symmetrized", grid),
                 lambda: full_rwa_spectrum(p, odd, cfg, grid),
                 lambda: sxx_spectrum(p, odd, cfg, grid),
                 lambda: sxx_integrated_weight(p, odd, cfg),
                 lambda: averaged_occupation(p, odd, cfg),
                 lambda: peak_ratio_correction(p, odd, cfg, "stokes"))
        for form in forms:
            with pytest.raises(ValidityError, match=f"unit vacuum weights, got {name} = 1.5"):
                form()


class TestDetuningGate:
    """The multitone brackets take every tone within kappa/4 of its sideband,
    the window of the single-tone forms; a tone outside it is a ValidityError."""

    @pytest.mark.parametrize("role", ["probes", "cooling"])
    def test_far_tone_is_a_validity_error(self, role):
        p, baths, cfg = si_figure_like()
        quarter = 1.01 * p.kappa / 4.0
        if role == "probes":
            far = balanced_config(p, delta=quarter, probe_gamma_opt=TWO_PI * 117.7,
                                  delta_c=2.0 * quarter, cooling_gamma_opt=TWO_PI * 350.0)
        else:
            far = balanced_config(p, delta=cfg.delta(p), probe_gamma_opt=TWO_PI * 117.7,
                                  delta_c=quarter, cooling_gamma_opt=TWO_PI * 350.0)
        grid = np.array([0.0])
        forms = (lambda c: sideband_weights(p, baths, c),
                 lambda c: multitone_spectra(p, baths, c, "symmetrized", grid),
                 lambda c: full_rwa_spectrum(p, baths, c, grid))
        for form in forms:
            form(cfg)  # delta = 0.023 and delta_c = 0.14 of kappa/4
            with pytest.raises(ValidityError, match=r"detuning gate: \|\|Delta\| - omega_m\|"):
                form(far)


@pytest.mark.parametrize("tones", ["none", "cooling-only"])
def test_config_without_probe_is_refused_by_every_multitone_form(tones):
    # the multitone brackets ask for a probe tone (`ToneConfig.probe`); a
    # toneless configuration used to get weights of 0, a cooling-only one a
    # separation-gate error from `multitone_spectra`
    p = make_params()
    delta_c = TWO_PI * 30e3
    cooling = tone_with_gamma_opt(p, TWO_PI * 10.0, "cooling", -(p.omega_m + delta_c))
    cfg = ToneConfig(tones=()) if tones == "none" else ToneConfig(tones=(cooling,))
    b, grid = BathSpec(), np.array([0.0])
    forms = (lambda: sideband_weights(p, b, cfg),
             lambda: multitone_spectra(p, b, cfg, "symmetrized", grid),
             lambda: full_rwa_spectrum(p, b, cfg, grid))
    for form in forms:
        with pytest.raises(ConfigError, match="^no probe tone: "):
            form()


class TestAveragedOccupation:
    def test_probes_off(self):
        p, baths, cfg = si_figure_like()
        no_probes = ToneConfig(tones=(cfg.tone("cooling"),))
        n_bar = averaged_occupation(p, baths, no_probes)
        assert n_bar == pytest.approx(100.0, rel=1e-6)

    def test_vacuum_cavity_backaction_heating(self):
        p = make_params(gamma_m_hz=10.0)
        baths = BathSpec()
        gamma_opt = TWO_PI * 2.0
        cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=gamma_opt)
        n_bar = averaged_occupation(p, baths, cfg)
        assert n_bar == pytest.approx(gamma_opt / p.gamma_m, rel=1e-12)

    def test_matches_single_formula_for_balanced_probes(self, rng):
        # n_bar = (gamma_m/gamma_tot) n_m + (gamma_opt/gamma_tot)(2 n_c + 1)
        #       + (gamma_cool/gamma_tot) n_c
        for _ in range(10):
            p = random_system(rng)
            baths = random_baths(rng)
            gamma_opt = rng.uniform(0.05, 2.0) * p.gamma_m
            gamma_cool = rng.uniform(0.0, 5.0) * p.gamma_m
            cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=gamma_opt,
                                  delta_c=TWO_PI * 30e3, cooling_gamma_opt=gamma_cool)
            gamma_tot = cfg.gamma_tot(p)
            n_c = baths.n_c(p)
            expected = (p.gamma_m / gamma_tot) * baths.n_m \
                + (gamma_opt / gamma_tot) * (2.0 * n_c + 1.0) \
                + (gamma_cool / gamma_tot) * n_c
            assert averaged_occupation(p, baths, cfg) == pytest.approx(expected, rel=1e-12)


class TestMultitoneSpectra:
    def test_vacuum_quantum_imbalance_is_one(self):
        p = make_params(gamma_m_hz=10.0)
        cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=TWO_PI * 1.0)
        gamma_opt, _ = cfg.gamma_opt_pair(p)
        w_anti, w_stokes = sideband_weights(p, BathSpec(), cfg)
        pref = p.kappa_r / p.kappa
        assert (w_stokes - w_anti) / (pref * gamma_opt) == pytest.approx(1.0, rel=1e-12)

    def test_peak_ratio_example(self):
        # n_bar = 4.7, n_eff = 0.60 -> peak ratio 6.3 / 4.1
        p = make_params(gamma_m_hz=10.0)
        baths, cfg = config_with_target(p, n_bar=4.7, n_eff_target=0.60,
                                        probe_gamma_opt=TWO_PI * 0.5, delta=TWO_PI * 5e3)
        assert averaged_occupation(p, baths, cfg) == pytest.approx(4.7, rel=1e-12)
        grid = np.array([0.0])
        spectra = multitone_spectra(p, baths, cfg, "symmetrized", grid)
        floor = noise_floor(p, baths)
        ratio = (spectra["stokes"].values[0] - floor) / \
            (spectra["anti_stokes"].values[0] - floor)
        assert ratio == pytest.approx(6.3 / 4.1, rel=1e-9)

    def test_normal_equals_symmetrized_brackets_when_balanced(self):
        p, baths, cfg = si_figure_like()
        grid = np.linspace(-3, 3, 7) * cfg.gamma_tot(p)
        sym = multitone_spectra(p, baths, cfg, "symmetrized", grid)
        nrm = multitone_spectra(p, baths, cfg, "normal_ordered", grid)
        for side in ("stokes", "anti_stokes"):
            np.testing.assert_allclose(sym[side].values - nrm[side].values, 0.5, atol=1e-12)

    def test_peak_offsets_are_centered_at_deltas(self):
        p, baths, cfg = si_figure_like()
        grid = np.linspace(-2, 2, 5) * cfg.gamma_tot(p)
        spectra = multitone_spectra(p, baths, cfg, "symmetrized", grid)
        assert spectra["anti_stokes"].freq_offsets[2] == pytest.approx(-cfg.delta(p))
        assert spectra["stokes"].freq_offsets[2] == pytest.approx(+cfg.delta(p))

    def test_width_extractable_by_fit(self):
        p, baths, cfg = si_figure_like()
        gamma_tot = cfg.gamma_tot(p)
        grid = np.linspace(-20, 20, 2001) * gamma_tot
        spectra = multitone_spectra(p, baths, cfg, "symmetrized", grid)
        fit = fit_lorentzian(Spectrum(grid, spectra["stokes"].values))
        assert fit.width == pytest.approx(gamma_tot, rel=1e-2)
        assert fit.center == pytest.approx(0.0, abs=1e-3 * gamma_tot)

    def test_stokes_weight_dominates(self, rng):
        for _ in range(20):
            p = random_system(rng)
            baths = random_baths(rng)
            cfg = balanced_config(p, delta=TWO_PI * 5e3,
                                  probe_gamma_opt=rng.uniform(0.01, 1.0) * p.gamma_m)
            w_anti, w_stokes = sideband_weights(p, baths, cfg)
            assert w_stokes >= w_anti

    def test_separation_gate(self):
        # cooling fattens gamma_tot beyond delta/10
        p = make_params(gamma_m_hz=10.0)
        cfg = balanced_config(p, delta=TWO_PI * 500.0, probe_gamma_opt=TWO_PI * 1.0,
                              delta_c=TWO_PI * 5e3, cooling_gamma_opt=TWO_PI * 100.0)
        with pytest.raises(ValidityError, match="separation"):
            multitone_spectra(p, BathSpec(), cfg, "symmetrized", np.array([0.0]))


def integrated_asymmetry(params, baths, config):
    """Stokes-minus-anti-Stokes integrated weight w_S - w_AS of `sideband_weights`."""
    w_anti, w_stokes = sideband_weights(params, baths, config)
    return w_stokes - w_anti


class TestIntegratedAsymmetry:
    def test_balanced_scaling(self):
        p, baths, cfg = si_figure_like()
        gamma_opt, _ = cfg.gamma_opt_pair(p)
        expected = (p.kappa_r / p.kappa) * gamma_opt * (2.0 * baths.n_eff(p) + 1.0)
        assert integrated_asymmetry(p, baths, cfg) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_balanced(self):
        p = make_params()
        cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=TWO_PI * 1.0)
        gamma_opt, _ = cfg.gamma_opt_pair(p)
        assert integrated_asymmetry(p, BathSpec(), cfg) == \
            pytest.approx((p.kappa_r / p.kappa) * gamma_opt, rel=1e-12)

    def test_quadrature_oracle_random_draws(self, rng):
        for _ in range(50):
            p = random_system(rng)
            baths = random_baths(rng)
            gp = rng.uniform(0.01, 1.0) * p.gamma_m
            gm = gp * rng.uniform(0.3, 1.0)  # keep stable
            g_plus = math.sqrt(gp * p.kappa) / 2.0
            g_minus = math.sqrt(gm * p.kappa) / 2.0
            delta = TWO_PI * 5e3
            cfg = ToneConfig(tones=(
                ToneSpec(detuning=-(p.omega_m + delta), role="red_probe", coupling=g_plus),
                ToneSpec(detuning=+(p.omega_m + delta), role="blue_probe", coupling=g_minus),
            ))
            gamma_tot = cfg.gamma_tot(p)
            grid = np.linspace(-50, 50, 20001) * gamma_tot
            spectra = multitone_spectra(p, baths, cfg, "symmetrized", grid)
            diff = Spectrum(grid, spectra["stokes"].values - spectra["anti_stokes"].values)
            quad = integrated_weight(diff, 0.0, center=0.0)
            assert quad == pytest.approx(integrated_asymmetry(p, baths, cfg), rel=1e-4)

    def test_unbalanced_orderings_coincide(self, rng):
        # both orderings share one pair of weights; their difference is
        # (kappa_r/kappa) [n_bar (g- - g+) + (n_eff + 1) g- + n_eff g+] even for G+ != G-
        p = random_system(rng)
        baths = random_baths(rng)
        delta = TWO_PI * 5e3
        cfg = ToneConfig(tones=(
            tone_with_gamma_opt(p, 0.5 * p.gamma_m, "red_probe", -(p.omega_m + delta)),
            tone_with_gamma_opt(p, 0.2 * p.gamma_m, "blue_probe", +(p.omega_m + delta)),
        ))
        gp, gm = cfg.gamma_opt_pair(p)
        n_bar, n_eff = averaged_occupation(p, baths, cfg), baths.n_eff(p)
        expected = (p.kappa_r / p.kappa) * (n_bar * (gm - gp) + (n_eff + 1.0) * gm + n_eff * gp)
        assert integrated_asymmetry(p, baths, cfg) == pytest.approx(expected, rel=1e-12)


class TestSidebandRatioModel:
    def test_ground_state_doubling(self):
        assert sideband_ratio_model(1.0, 0.0) == pytest.approx(2.0)

    def test_classical_limit(self):
        assert sideband_ratio_model(1e12, 0.3) == pytest.approx(1.0, abs=1e-10)

    def test_matches_spectra_derived_ratio(self):
        p = make_params(gamma_m_hz=10.0)
        baths, cfg = config_with_target(p, n_bar=4.7, n_eff_target=2.5,
                                        probe_gamma_opt=TWO_PI * 0.5, delta=TWO_PI * 5e3)
        n_eff = baths.n_eff(p)
        n_bar = averaged_occupation(p, baths, cfg)
        w_anti, w_stokes = sideband_weights(p, baths, cfg)
        ratio_spectra = w_stokes / w_anti
        ratio_model = sideband_ratio_model(n_bar - n_eff, n_eff)
        assert ratio_model == pytest.approx(1.0 + 6.0 / (4.7 - 2.5), rel=1e-12)
        assert ratio_spectra == pytest.approx(ratio_model, rel=1e-12)


class TestFullRwaSpectrum:
    def test_flat_floor_when_undriven(self):
        p, baths, _ = si_figure_like()
        cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=0.0)
        grid = np.linspace(-4, 4, 101) * cfg.delta(p)
        spec = full_rwa_spectrum(p, baths, cfg, grid)["total"]
        np.testing.assert_allclose(spec.values, noise_floor(p, baths), rtol=1e-12)

    def test_unbalanced_rejected(self):
        p, baths, _ = si_figure_like()
        delta = TWO_PI * 5e3
        cfg = ToneConfig(tones=(
            tone_with_gamma_opt(p, TWO_PI * 10.0, "red_probe", -(p.omega_m + delta)),
            tone_with_gamma_opt(p, TWO_PI * 20.0, "blue_probe", +(p.omega_m + delta)),
        ))
        with pytest.raises(UnbalancedError):
            full_rwa_spectrum(p, baths, cfg, np.array([0.0]))

    def test_peaks_match_single_lorentzians_with_correction(self):
        p, baths, cfg = si_figure_like()
        delta = cfg.delta(p)
        floor = noise_floor(p, baths)
        spectra = multitone_spectra(p, baths, cfg, "symmetrized", np.array([0.0]))
        full = full_rwa_spectrum(p, baths, cfg, np.array([-delta, delta]))["total"]
        anti_peak = spectra["anti_stokes"].values[0] - floor
        stokes_peak = spectra["stokes"].values[0] - floor
        corr_as = peak_ratio_correction(p, baths, cfg, "anti_stokes")
        corr_s = peak_ratio_correction(p, baths, cfg, "stokes")
        assert full.values[0] - floor == pytest.approx(anti_peak * corr_as, rel=1e-9)
        assert full.values[1] - floor == pytest.approx(stokes_peak * corr_s, rel=1e-9)

    def test_zero_separation_leaves_mechanical_bath_weight(self):
        # delta -> 0: single Lorentzian whose weight carries only the
        # cooling-dressed mechanical occupation (kappa_r/kappa) gamma_opt (2 n_M + 1)
        p, baths, _ = si_figure_like()
        gamma_opt = TWO_PI * 117.7
        cfg_small = balanced_config(p, delta=1e-7 * p.gamma_m, probe_gamma_opt=gamma_opt,
                                    delta_c=TWO_PI * 30e3, cooling_gamma_opt=TWO_PI * 350.0)
        gamma_big_m = cfg_small.gamma_big_m(p)
        n_big_m = (p.gamma_m * baths.n_m + TWO_PI * 350.0 * baths.n_c(p)) / gamma_big_m
        grid = np.linspace(-60, 60, 120001) * gamma_big_m
        spec = full_rwa_spectrum(p, baths, cfg_small, grid)["total"]
        floor = noise_floor(p, baths)
        quad = integrated_weight(Spectrum(grid, spec.values - floor), 0.0, center=0.0)
        expected = (p.kappa_r / p.kappa) * gamma_opt * (2.0 * n_big_m + 1.0)
        assert quad == pytest.approx(expected, rel=1e-3)

    def test_components_are_named_in_the_order_the_csv_lists_them(self):
        # both forms return what `write_components_csv` takes, as they are
        p, baths, cfg = si_figure_like()
        grid = np.array([0.0])
        assert list(multitone_spectra(p, baths, cfg, "symmetrized", grid)) == \
            ["anti_stokes", "stokes"]
        assert list(full_rwa_spectrum(p, baths, cfg, grid)) == \
            ["total", "floor", "mixing", "stokes", "anti_stokes"]

    def test_components_sum_to_total(self):
        p, baths, cfg = si_figure_like()
        grid = np.linspace(-4 * cfg.delta(p), 4 * cfg.delta(p), 101)
        comps = full_rwa_spectrum(p, baths, cfg, grid)
        total = (comps["floor"].values + comps["mixing"].values
                 + comps["stokes"].values + comps["anti_stokes"].values)
        np.testing.assert_allclose(total, comps["total"].values, rtol=1e-12)


class TestPeakRatioCorrection:
    def test_separation_limit(self):
        p, baths, _ = si_figure_like()
        cfg = balanced_config(p, delta=TWO_PI * 50e6, probe_gamma_opt=TWO_PI * 117.7,
                              delta_c=TWO_PI * 60e6, cooling_gamma_opt=TWO_PI * 350.0)
        for side in ("stokes", "anti_stokes"):
            assert peak_ratio_correction(p, baths, cfg, side) == pytest.approx(1.0, abs=1e-8)

    def test_si_figure_magnitude(self):
        # delta = 2pi*5 kHz, gamma_M = 2pi*360 Hz: correction - 1 of order (gamma_M/4delta)^2
        p, baths, cfg = si_figure_like()
        corr = peak_ratio_correction(p, baths, cfg, "stokes")
        assert abs(corr - 1.0) < 5e-4
        assert abs(corr - 1.0) > 1e-5

    def test_quarter_width_prefactor(self):
        # delta = gamma_M/4 makes the overlap prefactor exactly 1/2
        p, baths, _ = si_figure_like()
        gamma_cool = TWO_PI * 350.0
        cfg = balanced_config(p, delta=TWO_PI * 90.0, probe_gamma_opt=TWO_PI * 117.7,
                              delta_c=TWO_PI * 30e3, cooling_gamma_opt=gamma_cool)
        gamma_big_m = cfg.gamma_big_m(p)
        assert cfg.delta(p) == pytest.approx(gamma_big_m / 4.0, rel=1e-9)
        n_big_m = (p.gamma_m * baths.n_m + gamma_cool * baths.n_c(p)) / gamma_big_m
        gamma_opt = TWO_PI * 117.7
        n_opt = (gamma_opt / gamma_big_m) * (2.0 * baths.n_c(p) + 1.0) + baths.n_eff(p)
        expected = 1.0 + 0.5 * (n_big_m - n_opt) / (n_big_m + n_opt + 1.0)
        assert peak_ratio_correction(p, baths, cfg, "stokes") == \
            pytest.approx(expected, rel=1e-12)

    def test_inverse_square_scaling(self):
        # (correction - 1) * ((4 delta/gamma_M)^2 + 1) is delta-independent and
        # the log-log slope of (correction - 1) vs delta approaches -2
        p, baths, _ = si_figure_like()
        deltas_hz = (5e3, 50e3, 500e3, 5e6)
        residues, corrections = [], []
        for delta_hz in deltas_hz:
            cfg = balanced_config(p, delta=TWO_PI * delta_hz, probe_gamma_opt=TWO_PI * 117.7,
                                  delta_c=TWO_PI * 10 * delta_hz,
                                  cooling_gamma_opt=TWO_PI * 350.0)
            gamma_big_m = cfg.gamma_big_m(p)
            pref = (4.0 * cfg.delta(p) / gamma_big_m) ** 2 + 1.0
            corr = peak_ratio_correction(p, baths, cfg, "stokes")
            corrections.append(corr - 1.0)
            residues.append((corr - 1.0) * pref)
        # float cancellation in (1 + x) - 1 limits the far decades to ~1e-7
        np.testing.assert_allclose(residues, residues[0], rtol=1e-6)
        slope = (math.log(abs(corrections[-1])) - math.log(abs(corrections[0]))) \
            / (math.log(deltas_hz[-1]) - math.log(deltas_hz[0]))
        assert slope == pytest.approx(-2.0, abs=1e-2)
