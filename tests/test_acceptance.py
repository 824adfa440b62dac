"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criterion 1 includes the stochastic-oracle path and is the long
pole: its seed sweep runs the oracle 15 times, about 1.5 s each.
"""

import math
import time

import numpy as np
import pytest

from sideband_lab.calibration import (
    delta_from_power_ratio,
    fit_output_occupation,
    output_floor_model,
    run_synthetic_calibration,
    s21_shunt,
)
from sideband_lab.langevin import oracle_compare
from sideband_lab.linear_response import (
    heisenberg_gap,
    output_spectrum_lr,
    resonance_correlators,
)
from sideband_lab.model import (
    TWO_PI,
    BathSpec,
    Spectrum,
)
from sideband_lab.multitone import (
    full_rwa_spectrum,
    multitone_spectra,
    peak_ratio_correction,
    sideband_ratio_model,
    sideband_weights,
)
from sideband_lab.presets import preset
from sideband_lab.scattering import noise_floor, output_commutator

from conftest import (balanced_config, integrated_weight, make_params, random_baths, random_system,
                      tone_with_gamma_opt, weak_coupling_weight)


def test_criterion_1_quantum_imbalance_plus_one():
    # analytic path: exact to 1e-9
    params, baths, config = preset("oracle-demo")
    gamma_opt, _ = config.gamma_opt_pair(params)
    pref = params.kappa_r / params.kappa
    w_anti, w_stokes = sideband_weights(params, baths, config)
    analytic = (w_stokes - w_anti) / (pref * gamma_opt)
    assert analytic == pytest.approx(1.0, abs=1e-9)

    # stochastic path: within 5% with >= 2000 Welch segments in under 2 min
    start = time.monotonic()
    report, _, _ = oracle_compare(params, baths, config, n_segments=4000, seed=3,
                                  n_trajectories=128)
    runtime = time.monotonic() - start
    mc = (report["mc_weight"]["stokes"] - report["mc_weight"]["anti_stokes"]) \
        / (pref * gamma_opt)
    assert report["n_segments"] >= 2000
    assert mc == pytest.approx(1.0, abs=0.05)
    assert runtime < 120.0
    print(f"\nACCEPTANCE 1 PASS: quantum imbalance +1 "
          f"(analytic dev {abs(analytic - 1.0):.1e}, oracle {mc:.4f}, "
          f"{report['n_segments']} segments, {runtime:.0f} s)")


def test_criterion_1_seed_sweep():
    # the imbalance of every seed within 0.05 of 1, and their mean within 0.015
    # (the Monte-Carlo standard error of the mean is about 0.003)
    params, baths, config = preset("oracle-demo")
    gamma_opt, _ = config.gamma_opt_pair(params)
    pref = params.kappa_r / params.kappa
    imbalances = []
    for seed in range(15):
        report, _, _ = oracle_compare(params, baths, config, n_segments=4000, seed=seed,
                                      n_trajectories=128)
        imbalances.append((report["mc_weight"]["stokes"] - report["mc_weight"]["anti_stokes"])
                          / (pref * gamma_opt))
    imbalances = np.array(imbalances)
    assert np.all(np.abs(imbalances - 1.0) < 0.05), imbalances
    assert abs(np.mean(imbalances) - 1.0) < 0.015
    print(f"\nACCEPTANCE 1 SWEEP PASS: seeds 0-14, imbalance {np.mean(imbalances):.4f} "
          f"+- {np.std(imbalances):.4f} (range {imbalances.min():.4f}-{imbalances.max():.4f})")


def test_criterion_2_ratio_law():
    # sweep the up-converted occupancy over [1, 100] for three bath levels
    params = make_params(gamma_m_hz=10.0)
    gamma_opt = TWO_PI * 0.1
    worst = 0.0
    for n_eff in (0.0, 0.60, 2.5):
        for n_plus in np.geomspace(1.0, 100.0, 9):
            n_bar = n_plus + n_eff
            n_m = n_bar - gamma_opt * (2.0 * n_eff + 1.0) / params.gamma_m
            baths = BathSpec(n_r=n_eff, n_l=n_eff, n_i=n_eff, n_m=n_m)
            config = balanced_config(params, delta=TWO_PI * 5e3,
                                     probe_gamma_opt=gamma_opt)
            w_anti, w_stokes = sideband_weights(params, baths, config)
            derived = w_stokes / w_anti
            model = sideband_ratio_model(n_plus, n_eff)
            worst = max(worst, abs(derived / model - 1.0))
            assert derived == pytest.approx(model, rel=1e-9)
    print(f"\nACCEPTANCE 2 PASS: ratio law n-/n+ = 1+(2 n_eff+1)/n+ "
          f"(worst relative deviation {worst:.2e})")


def test_criterion_3_commutator_constancy(rng):
    worst_var = 0.0
    for _ in range(100):
        p = random_system(rng)
        b = random_baths(rng)  # physical vacuum weights
        gamma_opt = rng.uniform(0.05, 0.8) * p.gamma_m
        role = "red_probe" if rng.random() < 0.5 else "blue_probe"
        tone = tone_with_gamma_opt(p, gamma_opt, role)
        window = np.linspace(-0.24, 0.24, 21) * p.kappa
        vals = [output_commutator(p, b, tone, x) for x in window]
        worst_var = max(worst_var, max(vals) - min(vals))
        assert max(vals) - min(vals) < 1e-12

    # perturbing beta produces a Lorentzian residue proportional to beta - 1
    p = make_params(kappa_internal_hz=0.0)
    tone = tone_with_gamma_opt(p, 0.3 * p.gamma_m, "red_probe")
    window = np.linspace(-5, 5, 41) * p.gamma_m
    spans = []
    for beta in (1.001, 1.002):
        vals = [output_commutator(p, BathSpec(beta=beta), tone, x) for x in window]
        spans.append(max(vals) - min(vals))
    assert spans[0] > 1e-6  # detectable against the 1e-12 constancy bound
    assert spans[1] / spans[0] == pytest.approx(2.0, rel=1e-6)
    print(f"\nACCEPTANCE 3 PASS: commutator constant to {worst_var:.1e}; "
          f"beta residue linear (span ratio {spans[1] / spans[0]:.6f})")


def test_criterion_4_symmetrized_minus_normal_is_half(rng):
    from sideband_lab.scattering import single_tone_spectrum

    worst = 0.0
    for _ in range(20):
        p = random_system(rng)
        b = random_baths(rng)
        gamma_opt = rng.uniform(0.01, 0.8) * p.gamma_m
        role = "red_probe" if rng.random() < 0.5 else "blue_probe"
        tone = tone_with_gamma_opt(p, gamma_opt, role)
        grid = np.linspace(-5, 5, 11) * p.gamma_m
        sym = single_tone_spectrum(p, b, tone, "symmetrized", grid)
        nrm = single_tone_spectrum(p, b, tone, "normal_ordered", grid)
        worst = max(worst, np.max(np.abs(sym.values - nrm.values - 0.5)))
    params, baths, config = preset("si-figure")
    grid = np.linspace(-5, 5, 11) * config.gamma_tot(params)
    sym = multitone_spectra(params, baths, config, "symmetrized", grid)
    nrm = multitone_spectra(params, baths, config, "normal_ordered", grid)
    for side in ("stokes", "anti_stokes"):
        a, b_ = sym[side], nrm[side]
        worst = max(worst, np.max(np.abs(a.values - b_.values - 0.5)))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 4 PASS: symmetrized - normal-ordered = 1/2 "
          f"(max deviation {worst:.1e})")


def test_criterion_5_linear_response_scattering_equivalence():
    p = make_params(kappa_internal_hz=0.0, gamma_m_hz=100.0, omega_m_hz=400e6)
    grid = np.linspace(-40, 40, 30001) * p.gamma_m
    cases = [
        ("red", BathSpec(n_r=0.2, n_l=0.4, n_m=2.0), "red_probe"),
        ("blue", BathSpec(n_r=0.2, n_l=0.4, n_m=2.0), "blue_probe"),
        ("squashing", BathSpec(n_r=2.0, n_l=2.0, n_m=0.5), "red_probe"),
    ]
    results = []
    for name, baths, role in cases:
        tone = tone_with_gamma_opt(p, 1e-4 * p.gamma_m, role)  # cooperativity 1e-4
        undriven = tone_with_gamma_opt(p, 0.0, role)
        lr = output_spectrum_lr(p, baths, tone, grid)
        floor_lr = output_spectrum_lr(p, baths, undriven, np.array([0.0])).values[0]
        assert floor_lr == pytest.approx(noise_floor(p, baths), rel=1e-3)
        w_lr = integrated_weight(Spectrum(grid, lr.values - floor_lr), 0.0, center=0.0)
        w_sc = weak_coupling_weight(p, baths, tone)
        assert w_lr == pytest.approx(w_sc, rel=1e-3)
        if name == "squashing":
            assert w_lr < 0.0
        results.append(f"{name} {abs(w_lr / w_sc - 1):.1e}")
    print(f"\nACCEPTANCE 5 PASS: linear-response weights match scattering to 1e-3 "
          f"({', '.join(results)})")


def test_criterion_6_heisenberg_constraint(rng):
    # exact bound values at the special points
    assert heisenberg_gap(1.0, 1.0, +0.5j).rhs == pytest.approx(0.0, abs=1e-12)
    assert heisenberg_gap(1.0, 1.0, -0.5j).rhs == pytest.approx(0.0, abs=1e-12)
    for s_zf in (0.0, 0.4, -2.0):
        assert heisenberg_gap(1.0, 1.0, s_zf).rhs == pytest.approx(0.25, rel=1e-12)

    min_gap = math.inf
    for _ in range(100):
        p = random_system(rng, kappa_i_zero=True, good_cavity_factor=200.0)
        baths = random_baths(rng)
        gamma_opt = rng.uniform(1e-4, 0.5) * p.gamma_m
        for role in ("red_probe", "blue_probe"):
            noise = resonance_correlators(p, baths, tone_with_gamma_opt(p, gamma_opt, role))
            gap = heisenberg_gap(noise.s_zz, noise.s_ff, noise.s_zf)
            min_gap = min(min_gap, gap.gap)
            assert gap.gap >= -1e-10
    print(f"\nACCEPTANCE 6 PASS: noise inequality holds on 200 draws "
          f"(min gap {min_gap:.2e}); rhs exact at S_zF = +-i/2 and real S_zF")


def test_criterion_7_twin_peak_corrections():
    params, baths, config = preset("si-figure")
    assert config.gamma_big_m(params) == pytest.approx(TWO_PI * 360.0, rel=1e-9)
    floor = noise_floor(params, baths)
    peaks = multitone_spectra(params, baths, config, "symmetrized", np.array([0.0]))
    full = full_rwa_spectrum(params, baths, config,
                             np.array([-config.delta(params), config.delta(params)]))["total"]
    worst = 0.0
    for idx, side in enumerate(("anti_stokes", "stokes")):
        spec = peaks[side]
        expected = (spec.values[0] - floor) * peak_ratio_correction(params, baths,
                                                                    config, side)
        worst = max(worst, abs((full.values[idx] - floor) - expected))
        assert full.values[idx] - floor == pytest.approx(expected, abs=1e-6)

    # correction - 1 falls off as (4 delta / gamma_M)^-2 over three decades
    corrections = []
    for delta_hz in (5e3, 50e3, 500e3, 5e6):
        cfg = balanced_config(params, delta=TWO_PI * delta_hz,
                              probe_gamma_opt=TWO_PI * 117.7,
                              delta_c=TWO_PI * 10 * delta_hz,
                              cooling_gamma_opt=TWO_PI * 350.0)
        corrections.append(peak_ratio_correction(params, baths, cfg, "stokes") - 1.0)
    slope = (math.log(abs(corrections[-1])) - math.log(abs(corrections[0]))) / math.log(1e3)
    assert slope == pytest.approx(-2.0, abs=1e-2)
    print(f"\nACCEPTANCE 7 PASS: twin-peak values match corrected single peaks "
          f"(max abs dev {worst:.1e} quanta), slope {slope:.4f}")


def test_criterion_8_shunt_transmission():
    params, _, config = preset("si-figure")
    c_out = 2.7e-15
    detuning = params.omega_m + config.delta(params)
    up = abs(s21_shunt(params, c_out, params.omega_c + detuning))
    down = abs(s21_shunt(params, c_out, params.omega_c - detuning))
    ratio_db = 20.0 * math.log10(up / down)
    assert ratio_db == pytest.approx(2.4, abs=0.05)
    delta_minus = delta_from_power_ratio(2.6)
    assert delta_minus == pytest.approx(0.29, abs=0.005)
    print(f"\nACCEPTANCE 8 PASS: shunt transmission ratio {ratio_db:.3f} dB, "
          f"Delta(omega-) = {delta_minus:.4f} from the 2.6 dB condition")


def test_criterion_9_calibration_closure():
    params, baths, config = preset("main-text")
    clean = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=0,
                                      noise_level=0.0)
    assert clean["g0_rel_err"] < 0.01

    errs = []
    for seed in range(50):
        noisy = run_synthetic_calibration(params, baths, config, lambda_conv=0.27, seed=seed,
                                          noise_level=0.01)
        errs.append(noisy["g0_rel_err"])
    assert max(errs) < 0.10

    # output-port occupation from a synthetic pump-off floor spectrum
    lam = 0.27
    x = np.linspace(-2.0 * params.kappa, 2.0 * params.kappa, 401)
    device_level = output_floor_model(params, lam, np.array([0.0]), 0.34, 0.0)[0]
    rng = np.random.default_rng(1)
    values = output_floor_model(params, lam, x, 0.34, 11.0) \
        + 0.01 * device_level * rng.standard_normal(x.size)
    fit = fit_output_occupation(x, values, params, lam)
    assert fit.n_r == pytest.approx(0.34, rel=0.03)
    print(f"\nACCEPTANCE 9 PASS: g0 exact-noise err {clean['g0_rel_err']:.2e}, "
          f"worst 1%-noise err {max(errs):.3f}, n_r = {fit.n_r:.4f}")


def test_criterion_10_noise_floor_ledger():
    params, baths, _ = preset("main-text")
    corr = ((2.0 * params.kappa_r - params.kappa) / params.kappa_r) * baths.n_r
    assert corr == pytest.approx(0.03, abs=0.005)
    print(f"\nACCEPTANCE 10 PASS: floor-offset correction {corr:.4f} (0.03 +- 0.005)")
