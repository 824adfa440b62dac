import numpy as np
import pytest

from sideband_lab.errors import ValidityError
from sideband_lab.linear_response import (
    detector_correlators,
    heisenberg_gap,
    output_spectrum_lr,
    resonance_correlators,
    sxx_effective,
)
from sideband_lab.model import BathSpec, Spectrum
from sideband_lab.scattering import noise_floor

from conftest import (
    integrated_weight,
    make_params,
    random_baths,
    random_system,
    tone_with_gamma_opt,
    weak_coupling_weight,
)


def two_port_params(**kw):
    kw.setdefault("kappa_internal_hz", 0.0)
    kw.setdefault("omega_m_hz", 400e6)  # deep good-cavity so resonance values are sharp
    return make_params(**kw)


class TestDetectorCorrelators:
    def test_two_port_gate(self):
        p = make_params(kappa_internal_hz=265e3)
        tone = tone_with_gamma_opt(p, 0.01 * p.gamma_m, "red_probe")
        with pytest.raises(ValidityError, match="two-port"):
            detector_correlators(p, BathSpec(), tone, p.omega_m)

    def test_vacuum_resonance_cross_correlator(self):
        p = two_port_params()
        for role in ("red_probe", "blue_probe"):
            tone = tone_with_gamma_opt(p, 0.01 * p.gamma_m, role)
            sign = tone.detuning_sign
            noise = resonance_correlators(p, BathSpec(), tone)
            # the real part carries the finite-sideband-resolution correction
            assert abs(noise.s_zf.real) < p.kappa / (2.0 * p.omega_m)
            assert noise.s_zf.imag == pytest.approx(-sign * 0.5, rel=1e-5)

    def test_thermal_resonance_cross_correlator(self):
        p = two_port_params()
        baths = BathSpec(n_r=0.4, n_l=1.1)
        expected = 0.5 + 2.0 * baths.n_c(p) - baths.n_r
        for role in ("red_probe", "blue_probe"):
            tone = tone_with_gamma_opt(p, 0.01 * p.gamma_m, role)
            noise = resonance_correlators(p, baths, tone)
            assert noise.s_zf.imag == pytest.approx(-tone.detuning_sign * expected, rel=1e-5)

    def test_detunings_share_magnitudes_at_resonance(self):
        p = two_port_params()
        baths = BathSpec(n_r=0.3, n_l=0.8)
        red, blue = (resonance_correlators(p, baths, tone_with_gamma_opt(p, 0.05 * p.gamma_m, role))
                     for role in ("red_probe", "blue_probe"))
        assert abs(red.chi_if) == pytest.approx(abs(blue.chi_if), rel=1e-12)
        assert red.s_ii == pytest.approx(blue.s_ii, rel=1e-12)
        assert red.s_ff == pytest.approx(blue.s_ff, rel=1e-12)

    def test_cross_correlator_antisymmetry_exact(self):
        p = two_port_params(omega_m_hz=40e6)  # moderate sideband resolution
        baths = BathSpec(n_r=0.3, n_l=0.8)
        red, blue = (resonance_correlators(p, baths, tone_with_gamma_opt(p, 0.05 * p.gamma_m, role))
                     for role in ("red_probe", "blue_probe"))
        assert red.s_zf == pytest.approx(-blue.s_zf, rel=1e-12)


class TestSxxEffective:
    def test_red_vacuum_ground_state_cancels(self):
        p = two_port_params(gamma_m_hz=10.0)
        tone = tone_with_gamma_opt(p, 1e-4 * p.gamma_m, "red_probe")
        grid = np.linspace(-5, 5, 101) * p.gamma_m
        cold = sxx_effective(p, BathSpec(n_m=0.0), tone, grid)
        warm = sxx_effective(p, BathSpec(n_m=1.0), tone, grid)
        assert np.max(np.abs(cold.values)) < 1e-4 * np.max(warm.values)

    def test_blue_vacuum_emission_factor(self):
        # blue drive at n_m = 0 weighs like red at n_m = 1 (the n_m + 1 factor)
        p = two_port_params(gamma_m_hz=10.0)
        red, blue = (tone_with_gamma_opt(p, 1e-4 * p.gamma_m, role)
                     for role in ("red_probe", "blue_probe"))
        grid = np.linspace(-5, 5, 101) * p.gamma_m
        blue_cold = sxx_effective(p, BathSpec(n_m=0.0), blue, grid)
        red_warm = sxx_effective(p, BathSpec(n_m=1.0), red, grid)
        np.testing.assert_allclose(blue_cold.values, red_warm.values, rtol=1e-4)

    def test_zero_correlation_gives_bare_thermal(self):
        # with Im S_zF = 0 the spectrum is the bare thermal one; emulate by
        # comparing the average of red and blue (the S_zF terms cancel)
        p = two_port_params(gamma_m_hz=10.0)
        baths = BathSpec(n_m=3.0)
        grid = np.linspace(-5, 5, 101) * p.gamma_m
        red, blue = (sxx_effective(p, baths, tone_with_gamma_opt(p, 1e-4 * p.gamma_m, role), grid)
                     for role in ("red_probe", "blue_probe"))
        avg = 0.5 * (red.values + blue.values)
        omega = p.omega_m + grid
        chi = 2.0 * p.omega_m / ((omega**2 - p.omega_m**2) + 1j * omega * p.gamma_m)
        bare = -np.imag(chi) * (1.0 + 2.0 * baths.n_m)
        np.testing.assert_allclose(avg, bare, rtol=1e-4)


_VACUUM_WEIGHTS = [dict(zip(("alpha_r", "alpha_l", "alpha_i", "beta"), w))
                   for w in [(1.0, 1.0, 1.0, 1.0),
                             *np.random.default_rng(1404).uniform(0.1, 2.0, (3, 4)).tolist()]]


class TestOutputSpectrumCrossFormulation:
    @pytest.mark.parametrize("weights", _VACUUM_WEIGHTS, ids=["unit", "random0", "random1",
                                                              "random2"])
    def test_weights_and_floor_match_scattering(self, weights):
        # cooperativity 1e-4: Lorentzian weights agree to 1e-3 for both signs,
        # whatever the vacuum weights
        p = two_port_params(gamma_m_hz=100.0, omega_m_hz=400e6)
        baths = BathSpec(n_r=0.2, n_l=0.4, n_m=2.0, **weights)
        grid = np.linspace(-40, 40, 30001) * p.gamma_m
        for role in ("red_probe", "blue_probe"):
            tone = tone_with_gamma_opt(p, 1e-4 * p.gamma_m, role)
            undriven = tone_with_gamma_opt(p, 0.0, role)
            lr = output_spectrum_lr(p, baths, tone, grid)
            floor_lr = output_spectrum_lr(p, baths, undriven, np.array([0.0])).values[0]
            assert floor_lr == pytest.approx(noise_floor(p, baths), rel=1e-3)
            w_lr = integrated_weight(Spectrum(grid, lr.values - floor_lr), 0.0, center=0.0)
            w_scatt = weak_coupling_weight(p, baths, tone)
            assert w_lr == pytest.approx(w_scatt, rel=1e-3)

    def test_thermal_squashing_negative_weight(self):
        # hot cavity, cold-ish mechanics, red drive: the feature is a dip
        p = two_port_params(gamma_m_hz=100.0, omega_m_hz=400e6)
        baths = BathSpec(n_r=2.0, n_l=2.0, n_m=0.5)  # n_eff = 2 > n_m
        tone = tone_with_gamma_opt(p, 1e-4 * p.gamma_m, "red_probe")
        undriven = tone_with_gamma_opt(p, 0.0, "red_probe")
        grid = np.linspace(-40, 40, 30001) * p.gamma_m
        lr = output_spectrum_lr(p, baths, tone, grid)
        floor_lr = output_spectrum_lr(p, baths, undriven, np.array([0.0])).values[0]
        w_lr = integrated_weight(Spectrum(grid, lr.values - floor_lr), 0.0, center=0.0)
        w_scatt = weak_coupling_weight(p, baths, tone)
        assert w_lr < 0
        assert w_lr == pytest.approx(w_scatt, rel=1e-3)

    def test_flat_floor_when_undriven(self):
        p = two_port_params()
        tone = tone_with_gamma_opt(p, 0.0, "red_probe")
        grid = np.linspace(-3, 3, 11) * p.gamma_m
        lr = output_spectrum_lr(p, BathSpec(n_r=0.3, n_l=0.1), tone, grid)
        np.testing.assert_allclose(lr.values, lr.values[0], rtol=1e-12)


class TestHeisenbergGap:
    def test_pure_imaginary_half_reaches_zero(self):
        for s_zf in (0.5j, -0.5j):
            gap = heisenberg_gap(1.0, 1.0, s_zf)
            assert gap.rhs == pytest.approx(0.0, abs=1e-15)

    def test_real_correlator_gives_quarter(self):
        for s_zf in (0.0, 0.3, -1.7):
            gap = heisenberg_gap(1.0, 1.0, s_zf)
            assert gap.rhs == pytest.approx(0.25, rel=1e-12)

    def test_boundary_case(self):
        gap = heisenberg_gap(0.5, 0.5, 0.0)
        assert gap.lhs == pytest.approx(0.25)
        assert gap.gap == pytest.approx(0.0, abs=1e-15)
        assert gap.satisfied

    def test_physical_detectors_satisfy_constraint(self, rng):
        # 200 random two-port draws, both detunings, at the resonance image
        for _ in range(100):
            p = random_system(rng, kappa_i_zero=True, good_cavity_factor=200.0)
            baths = random_baths(rng)
            gamma_opt = rng.uniform(1e-4, 0.5) * p.gamma_m
            for role in ("red_probe", "blue_probe"):
                noise = resonance_correlators(p, baths, tone_with_gamma_opt(p, gamma_opt, role))
                gap = heisenberg_gap(noise.s_zz, noise.s_ff, noise.s_zf)
                assert gap.lhs >= gap.rhs - 1e-10

    def test_vacuum_resonance_rhs_vanishes(self):
        p = two_port_params()
        tone = tone_with_gamma_opt(p, 1e-3 * p.gamma_m, "red_probe")
        noise = resonance_correlators(p, BathSpec(), tone)
        gap = heisenberg_gap(noise.s_zz, noise.s_ff, noise.s_zf)
        # at the ideal point S_zF = -i/2 the bound is exactly zero; the
        # computed correlator sits within finite-kappa corrections of it
        assert gap.rhs < p.kappa / (4.0 * p.omega_m)
        ideal = heisenberg_gap(noise.s_zz, noise.s_ff, -0.5j)
        assert ideal.rhs == pytest.approx(0.0, abs=1e-15)
