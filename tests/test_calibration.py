import math
from dataclasses import replace

import numpy as np
import pytest

from sideband_lab.calibration import (
    delta_from_power_ratio,
    fit_linewidth_vs_power,
    fit_output_occupation,
    fit_shunt_capacitance,
    invert_measurements,
    noise_floor_increase,
    output_floor_model,
    run_synthetic_calibration,
    s21_bare,
    s21_shunt,
    sideband_difference_and_average,
    thermometry_ratio,
    transmission_delta,
)
from sideband_lab.dataio import read_calibration_tables
from sideband_lab.errors import ConfigError, DegenerateData, UnbalancedError, ValidityError
from sideband_lab.model import TWO_PI, BathSpec, ToneConfig, ToneSpec, bose_occupation
from sideband_lab.multitone import sideband_weights
from sideband_lab.presets import preset

from conftest import make_params, tone_with_gamma_opt


class TestLinewidthVsPower:
    def test_two_exact_points(self):
        gamma_m, slope = fit_linewidth_vs_power([1.0, 3.0], [10.0, 16.0])
        assert gamma_m == pytest.approx(7.0, rel=1e-12)
        assert slope == pytest.approx(3.0, rel=1e-12)

    def test_forward_model_inversion(self):
        # g0 = 2pi*16 Hz, kappa = 2pi*870 kHz, sweep n_p over 1e3..1e7
        p = make_params()
        n_p = np.logspace(3, 7, 9)
        gamma = p.gamma_m + 4.0 * p.g0**2 * n_p / p.kappa
        _, slope = fit_linewidth_vs_power(n_p, gamma)
        assert slope == pytest.approx(4.0 * p.g0**2 / p.kappa, rel=1e-6)

    def test_noise_statistics(self):
        p = make_params(gamma_m_hz=10.0)
        n_p = np.logspace(3, 7, 12)
        gamma = p.gamma_m + 4.0 * p.g0**2 * n_p / p.kappa
        recovered = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            noisy = gamma * (1.0 + 0.05 * rng.standard_normal(n_p.size))
            gm_fit, _ = fit_linewidth_vs_power(n_p, noisy)
            recovered.append(gm_fit)
        # intercept recovered within 10% for typical seeds
        errs = np.abs(np.asarray(recovered) - p.gamma_m) / p.gamma_m
        assert np.median(errs) < 0.10
        assert np.mean(errs) < 0.10

    def test_rank_deficient(self, tmp_path):
        # one distinct power cannot pin an intercept and a slope: the reader
        # refuses the table before its fit runs
        path = tmp_path / "linewidth_vs_power.csv"
        for rows in (["1.0,10.0"], ["1.0,10.0", "1.0,12.0"]):
            path.write_text("\n".join(["# power,gamma_tot_hz", *rows]) + "\n")
            with pytest.raises(DegenerateData) as err:
                read_calibration_tables(tmp_path)
            assert str(err.value) == (f"{path}: column 1, power, must hold at least 2 "
                                      "distinct values, got 1")


def probe(p, role, delta=0.0):
    """A probe tone on its sideband, delta beyond it."""
    sign = -1.0 if role == "red_probe" else 1.0
    return ToneSpec(detuning=sign * (p.omega_m + delta), role=role, coupling=None, n_photons=1e4)


class TestThermometry:
    def test_unity_gain_term_isolation(self):
        p = make_params()
        n_m = 250.0
        ratio = thermometry_ratio(p, (1.0, 1.0), 0.0, probe(p, "red_probe"), n_m)
        omega_pump = p.omega_c - p.omega_m
        assert ratio == pytest.approx(
            (p.omega_c / omega_pump) * (2.0 * p.g0 / p.kappa) ** 2 * n_m, rel=1e-12)

    def test_pump_sits_at_the_probe_tone(self):
        # the pump frequency is omega_c + detuning, delta included
        p = make_params()
        for role in ("red_probe", "blue_probe"):
            tone = probe(p, role, TWO_PI * 5e3)
            ratio = thermometry_ratio(p, (1.0, 1.0), 0.0, tone, 1.0)
            assert ratio == pytest.approx(
                (p.omega_c / (p.omega_c + tone.detuning)) * (2.0 * p.g0 / p.kappa) ** 2, rel=1e-12)

    def test_gains_and_transmission_correction(self):
        # the only test that varies the gains: they enter as G(omega_c)/G(omega_pump),
        # the shunt correction as 1/(1 + Delta(omega_pump))
        p = make_params()
        for role, delta_corr in (("red_probe", -0.29), ("blue_probe", +0.29)):
            tone = probe(p, role, TWO_PI * 500.0)
            for n_m in (0.5, 10.0, 1e4):
                bare = thermometry_ratio(p, (1.0, 1.0), 0.0, tone, n_m)
                ratio = thermometry_ratio(p, (1.3, 0.8), delta_corr, tone, n_m)
                assert ratio == pytest.approx(bare * (1.3 / 0.8) / (1.0 + delta_corr), rel=1e-12)

    def test_conversion_constant_asymmetry(self):
        # equal gains: the two conversion constants differ by the measured
        # (1+Delta-)/(1+Delta+) transmission power ratio, 2.6 dB -> 1.82
        p = make_params()
        delta_minus = delta_from_power_ratio(2.6)
        n_m = 1.0
        c_plus = n_m / thermometry_ratio(p, (1.0, 1.0), -delta_minus, probe(p, "red_probe"), n_m)
        c_minus = n_m / thermometry_ratio(p, (1.0, 1.0), +delta_minus, probe(p, "blue_probe"), n_m)
        big, small = max(c_plus, c_minus), min(c_plus, c_minus)
        assert big / small == pytest.approx(10.0 ** 0.26, rel=2e-3)
        assert big / small == pytest.approx(9.9 / 5.4, rel=0.02)

    def test_bose_linearity(self):
        p = make_params()
        n = bose_occupation(0.2, p.omega_m)
        assert n == pytest.approx(1041.4, abs=0.5)


class TestNoiseFloorLedger:
    def test_zero_baths(self):
        p = make_params()
        assert noise_floor_increase(p, BathSpec(), 0.27) == 0.0

    def test_half_coupled_coefficient_vanishes(self):
        p = make_params(kappa_left_hz=200e3, kappa_right_hz=435e3, kappa_internal_hz=235e3)
        assert p.kappa_r == pytest.approx(p.kappa / 2.0)
        baths = BathSpec(n_r=0.4, n_l=0.1)
        expected = baths.n_eff(p) / (2.0 * 0.27)
        assert noise_floor_increase(p, baths, 0.27) == pytest.approx(expected, rel=1e-12)

    def test_offset_correction_magnitude(self):
        # main-text rates with n_r = 0.34: ((2 kappa_r - kappa)/kappa_r) n_r ~ 0.03
        params, baths, _ = preset("main-text")
        corr = ((2.0 * params.kappa_r - params.kappa) / params.kappa_r) * baths.n_r
        assert corr == pytest.approx(0.03, abs=0.005)

    @pytest.mark.parametrize("lam", [0.0, -0.27, float("nan")])
    def test_lambda_gate_is_shared(self, lam):
        # the ledger and the inversion refuse a non-positive lambda alike, even
        # where no table divides by it
        params, baths, config = preset("main-text")
        message = f"lambda_conv must be strictly positive and finite, got {lam!r}"
        for form in (lambda: noise_floor_increase(params, baths, lam),
                     lambda: invert_measurements(params, config, {}, lambda_conv=lam),
                     lambda: run_synthetic_calibration(params, baths, config, lambda_conv=lam,
                                                       seed=0, noise_level=0.0)):
            with pytest.raises(ConfigError) as err:
                form()
            assert str(err.value) == message


class TestSidebandDifferenceAndAverage:
    def test_quantum_offset(self):
        params, _, config = preset("main-text")
        baths = BathSpec(n_m=50.0)
        diff, _ = sideband_difference_and_average(params, baths, config, 0.27, 0.0)
        assert diff == pytest.approx(1.0, rel=1e-12)

    def test_linear_slope_in_floor_increase(self):
        params, baths, config = preset("main-text")
        lam = 0.27
        etas = np.linspace(0.0, 5.0, 7)
        diffs = [sideband_difference_and_average(params, baths, config, lam, e)[0]
                 for e in etas]
        slopes = np.diff(diffs) / np.diff(etas)
        np.testing.assert_allclose(slopes, 4.0 * lam, rtol=1e-12)

    def test_consistency_with_spectral_weights(self):
        # recompute diff and avg from the analytic sideband weights
        params, baths, config = preset("si-figure")
        lam = 0.27
        delta_eta = noise_floor_increase(params, baths, lam)
        diff, avg = sideband_difference_and_average(params, baths, config, lam, delta_eta)
        gamma_opt, _ = config.gamma_opt_pair(params)
        pref = params.kappa_r / params.kappa
        w_anti, w_stokes = sideband_weights(params, baths, config)
        n_plus = w_anti / (pref * gamma_opt)
        n_minus = w_stokes / (pref * gamma_opt)
        assert diff == pytest.approx(n_minus - n_plus, rel=1e-9)
        assert avg == pytest.approx((n_minus + n_plus) / 2.0, rel=1e-9)

    def test_unbalanced_rejected(self):
        params, baths, _ = preset("main-text")
        delta = TWO_PI * 5e3
        cfg = ToneConfig(tones=(
            tone_with_gamma_opt(params, TWO_PI * 10.0, "red_probe",
                                -(params.omega_m + delta)),
            tone_with_gamma_opt(params, TWO_PI * 20.0, "blue_probe",
                                +(params.omega_m + delta)),
        ))
        with pytest.raises(UnbalancedError):
            sideband_difference_and_average(params, baths, cfg, 0.27, 0.0)


class TestOutputOccupationFit:
    def grid(self, p):
        return np.linspace(-2.0 * p.kappa, 2.0 * p.kappa, 401)

    def test_recovery_with_noise(self):
        # 1% additive noise (relative to the device floor level)
        p = make_params()
        lam = 0.27
        x = self.grid(p)
        clean = output_floor_model(p, lam, x, 0.34, 11.0)
        device_level = output_floor_model(p, lam, np.array([0.0]), 0.34, 0.0)[0]
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.01 * device_level * rng.standard_normal(x.size)
            fit = fit_output_occupation(x, noisy, p, lam)
            errs.append(abs(fit.n_r - 0.34) / 0.34)
        assert max(errs) < 0.03

    def test_zero_occupation_flat(self):
        p = make_params()
        x = self.grid(p)
        clean = output_floor_model(p, 0.27, x, 0.0, 11.0)
        assert np.ptp(clean) == pytest.approx(0.0, abs=1e-12)
        fit = fit_output_occupation(x, clean, p, 0.27)
        assert fit.n_r == pytest.approx(0.0, abs=1e-9)

    def test_fully_overcoupled_no_dip(self):
        # kappa_r -> kappa: the Lorentzian coefficient vanishes for any n_r
        p = make_params(kappa_left_hz=1e-6, kappa_right_hz=870e3, kappa_internal_hz=0.0)
        x = self.grid(p)
        vals = output_floor_model(p, 0.27, x, 0.7, 3.0)
        assert np.ptp(vals) < 1e-9 * np.mean(vals)

    def test_dip_when_undercoupled(self):
        p = make_params()
        x = self.grid(p)
        vals = output_floor_model(p, 0.27, x, 0.34, 11.0)
        assert vals[200] < vals[0]  # dip at the cavity center


class TestShuntTransmission:
    def test_no_capacitor_reduces_to_lorentzian(self):
        p = make_params()
        w = p.omega_c + np.linspace(-10, 10, 101) * p.kappa
        shunted = s21_shunt(p, 0.0, w)
        np.testing.assert_allclose(shunted, s21_bare(p, w), rtol=1e-14)
        # continuous reduction: sup-norm bound is exactly the shunt leakage
        for c_out in (1e-18, 1e-20):
            sup = np.max(np.abs(s21_shunt(p, c_out, w) - s21_bare(p, w)))
            assert sup <= 2.0 * 50.0 * p.omega_c * c_out + 1e-15

    def test_published_transmission_ratio(self):
        # C_out = 2.7 fF, R_L = 50, omega_c = 2pi*5.4 GHz: 2.4 dB ratio at
        # the pump detunings +-(omega_m + delta)
        p = make_params()
        c_out = 2.7e-15
        detuning = p.omega_m + TWO_PI * 5e3
        up = abs(s21_shunt(p, c_out, p.omega_c + detuning))
        down = abs(s21_shunt(p, c_out, p.omega_c - detuning))
        ratio_db = 20.0 * math.log10(up / down)
        assert ratio_db == pytest.approx(2.4, abs=0.05)

    def test_delta_antisymmetry(self):
        p = make_params()
        c_out = 2.7e-15
        d = p.omega_m + TWO_PI * 5e3
        dm = transmission_delta(p, c_out, p.omega_c + d)
        dp = transmission_delta(p, c_out, p.omega_c - d)
        assert dm / dp == pytest.approx(-1.0, rel=1e-12)

    def test_delta_from_measured_ratio(self):
        assert delta_from_power_ratio(2.6) == pytest.approx(0.29, abs=0.005)

    def test_capacitance_fit_recovery(self):
        p = make_params()
        c_out = 2.7e-15
        w = p.omega_c + np.linspace(-15, 15, 501) * (p.omega_m + TWO_PI * 5e3) / 3.0
        mags = np.abs(s21_shunt(p, c_out, w))
        rng = np.random.default_rng(2)
        noisy = mags * (1.0 + 0.005 * rng.standard_normal(w.size))
        assert fit_shunt_capacitance(w, noisy, p) == pytest.approx(2.7e-15, rel=0.05)


class TestSyntheticPipeline:
    def test_zero_noise_closure(self):
        params, baths, config = preset("main-text")
        report = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=0,
                                           noise_level=0.0)
        assert report["g0_rel_err"] < 0.01
        assert report["n_r_fit"] == pytest.approx(baths.n_r, rel=1e-6)
        assert report["n_eff_fit"] == pytest.approx(baths.n_eff(params), abs=0.02 * (1 + baths.n_eff(params)))
        assert report["c_out_fit"] == pytest.approx(2.7e-15, rel=1e-6)
        # each thermometry sweep lies on its conversion slope, whose corrections
        # are the true shunt's Delta at the probe tone
        c_out = 2.7e-15
        for sign, role in (("plus", "red_probe"), ("minus", "blue_probe")):
            temps, ratios = report["measurements"][f"thermometry_{sign}"]
            np.testing.assert_array_equal(temps, np.linspace(0.02, 0.2, 8))
            n_m = np.array([bose_occupation(t, params.omega_m) for t in temps])
            slope = report[f"conversion_slope_{sign}"]
            np.testing.assert_allclose(ratios, slope * n_m, rtol=1e-12)
            tone = config.tone(role)
            delta_corr = transmission_delta(params, c_out, params.omega_c + tone.detuning)
            assert slope == pytest.approx(
                thermometry_ratio(params, (1.0, 1.0), delta_corr, tone, 1.0), rel=1e-12)
        assert report["conversion_ratio"] == \
            report["conversion_slope_minus"] / report["conversion_slope_plus"]
        # exact tables give exact fits: zero standard errors, not rounding residue
        assert report["n_r_err"] == 0.0
        assert set(report["uncertainties"].values()) == {0.0}

    def test_noisy_fits_report_their_standard_errors(self):
        params, baths, config = preset("main-text")
        report = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=0,
                                           noise_level=0.01)
        assert report["uncertainties"]["n_r"] == report["n_r_err"]
        assert all(err > 0.0 for err in report["uncertainties"].values())

    def test_inversion_of_the_synthetic_tables(self):
        params, baths, config = preset("si-figure")
        report = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=1,
                                           noise_level=0.01)
        tables = report["measurements"]
        assert sorted(tables) == ["linewidth_vs_power", "output_floor", "s21_db",
                                  "sideband_anti_stokes", "sideband_stokes",
                                  "thermometry_minus", "thermometry_plus"]
        only_s21 = invert_measurements(params, config, {"s21_db": tables["s21_db"]},
                                       lambda_conv=0.27)
        assert sorted(only_s21) == ["c_out_fit", "delta_minus", "delta_plus"]
        for key, value in only_s21.items():
            assert report[key] == value
        omega_minus = params.omega_c + params.omega_m + config.delta(params)
        assert only_s21["delta_minus"] == pytest.approx(
            transmission_delta(params, only_s21["c_out_fit"], omega_minus), rel=1e-12)

    @pytest.mark.parametrize("name, keys", [
        ("output_floor", ["amplifier_floor_fit", "n_r_err", "n_r_fit", "uncertainties.n_r"]),
        ("thermometry_plus", ["conversion_slope_plus"]),
        ("thermometry_minus", ["conversion_slope_minus"]),
        *[(f"sideband_{side}", [key, f"uncertainties.{side}_amplitude", f"uncertainties.{side}_width"])
          for side, key in (("anti_stokes", "n_plus_fit"), ("stokes", "n_minus_fit"))],
    ])
    def test_each_table_writes_only_its_own_keys(self, name, keys):
        params, baths, config = preset("si-figure")
        report = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=1,
                                           noise_level=0.01)
        alone = invert_measurements(params, config, {name: report["measurements"][name]},
                                    lambda_conv=0.27)
        errors = alone.pop("uncertainties", {})
        assert sorted(alone) + sorted(f"uncertainties.{k}" for k in errors) == keys
        assert alone == {k: report[k] for k in alone}
        assert errors == {k: report["uncertainties"][k] for k in errors}

    def test_each_sideband_divides_by_its_own_probe(self):
        # doubling the blue probe's photons doubles gamma_opt^-, which halves
        # n_minus_fit of the same Stokes table and leaves n_plus_fit alone
        params, baths, config = preset("main-text")
        tables = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=2,
                                           noise_level=0.01)["measurements"]
        sidebands = {name: tables[name] for name in ("sideband_anti_stokes", "sideband_stokes")}
        blue = config.tone("blue_probe")
        louder = ToneConfig(tones=tuple(
            replace(t, n_photons=2.0 * (t.coupling_rate(params) / params.g0) ** 2, coupling=None) if t is blue else t
            for t in config.tones))
        assert louder.tone("blue_probe").gamma_opt(params) == \
            pytest.approx(2.0 * blue.gamma_opt(params), rel=1e-12)
        base = invert_measurements(params, config, sidebands, lambda_conv=0.27)
        moved = invert_measurements(params, louder, sidebands, lambda_conv=0.27)
        assert moved["n_plus_fit"] == base["n_plus_fit"]
        assert moved["n_minus_fit"] == pytest.approx(base["n_minus_fit"] / 2.0, rel=1e-12)

    @pytest.mark.parametrize("name, role", [("sideband_anti_stokes", "red_probe"),
                                            ("sideband_stokes", "blue_probe")])
    def test_sideband_without_its_probe_is_a_config_error(self, name, role):
        params, baths, config = preset("main-text")
        table = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=0,
                                          noise_level=0.0)["measurements"][name]
        lone = ToneConfig(tones=tuple(t for t in config.tones if t.role != role))
        with pytest.raises(ConfigError, match=f"{name}.csv needs the {role} tone"):
            invert_measurements(params, lone, {name: table}, lambda_conv=0.27)

    def test_shunt_correction_validity_gate(self):
        # |Delta(omega_+-)| >= 1 leaves the first-order correction; oracle-demo's
        # probes sit at Delta = -+1.897 for C_out = 2.7 fF
        params, _, config = preset("oracle-demo")
        span = 10.0 * (params.omega_m + config.delta(params))
        f_hz = (params.omega_c + np.linspace(-span, span, 801)) / TWO_PI
        mag = np.abs(s21_shunt(params, 2.7e-15, TWO_PI * f_hz))
        with pytest.raises(ValidityError, match=r"Delta_plus = -1\.897.*C_out = 2\.7 fF"):
            invert_measurements(params, config, {"s21_db": (f_hz, 20.0 * np.log10(mag))},
                                lambda_conv=0.27)

    def test_noisy_g0_statistics(self):
        params, baths, config = preset("main-text")
        errs = []
        for seed in range(50):
            report = run_synthetic_calibration(params, baths, config, lambda_conv=0.27,
                                               seed=seed, noise_level=0.01)
            errs.append(report["g0_rel_err"])
        assert max(errs) < 0.10

    def test_floor_models_agree_on_radiating_port(self):
        # when the cavity occupation is entirely port radiation
        # (n_c = n_r kappa_r / kappa), the floor-increase ledger equals half
        # the flat thermal excess of the pump-off floor model minus its dip
        # depth, exactly
        p = make_params()
        lam = 0.27
        n_r = 0.34
        baths = BathSpec(n_r=n_r)  # n_l = n_i = 0 -> n_c = n_r kappa_r/kappa
        assert baths.n_c(p) == pytest.approx(n_r * p.kappa_r / p.kappa, rel=1e-12)
        far = np.array([1e9 * p.kappa])
        center = np.array([0.0])
        flat_excess = (output_floor_model(p, lam, far, n_r, 0.0)[0]
                       - output_floor_model(p, lam, far, 0.0, 0.0)[0])
        dip_depth = (output_floor_model(p, lam, far, n_r, 0.0)[0]
                     - output_floor_model(p, lam, center, n_r, 0.0)[0])
        assert noise_floor_increase(p, baths, lam) == pytest.approx(
            flat_excess / 2.0 - dip_depth, rel=1e-12)
