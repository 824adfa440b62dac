import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sideband_lab.errors import InstabilityError, ValidityError
from sideband_lab.model import BathSpec, ToneSpec
from sideband_lab.scattering import (
    imbalance,
    integrated_asymmetry,
    mech_denominator,
    noise_floor,
    output_commutator,
    scattering_matrix,
    single_tone_integrated_weight,
    single_tone_spectrum,
    spectrum_from_scattering,
)

from conftest import integrated_weight, make_params, random_baths, random_system, tone_with_gamma_opt


def exact_scattering_matrix(params, gamma_opt, sign, offset):
    """Independent oracle: solve the coupled frequency-domain response of the
    cavity and mechanics directly (no flat-cavity approximation) and read the
    scattering entries off the input-output relations."""
    g = math.sqrt(gamma_opt * params.kappa) / 2.0
    a = -1j * offset + params.kappa / 2.0
    b = -1j * offset + params.gamma_m / 2.0
    if sign == +1:
        m = np.array([[a, 1j * g], [1j * g, b]], dtype=complex)
    else:
        m = np.array([[a, 1j * g], [-1j * g, b]], dtype=complex)
    minv = np.linalg.inv(m)
    sqrt_rates = (math.sqrt(params.kappa_r), math.sqrt(params.kappa_l),
                  math.sqrt(params.gamma_m))
    out = np.zeros((3, 3), dtype=complex)
    for col, drive in enumerate(sqrt_rates):
        rhs = np.array([-drive, 0.0], dtype=complex) if col < 2 else \
            np.array([0.0, -drive], dtype=complex)
        d, c = minv @ rhs
        out[0, col] = (1.0 if col == 0 else 0.0) + sqrt_rates[0] * d
        out[1, col] = (1.0 if col == 1 else 0.0) + sqrt_rates[1] * d
        out[2, col] = (1.0 if col == 2 else 0.0) + sqrt_rates[2] * c
    return out


class TestMechDenominator:
    def test_on_resonance_real(self):
        n = mech_denominator(0.0, +1, 10.0, 4.0)
        assert n == pytest.approx((10.0 + 4.0) / 2.0)

    def test_no_drive_sign_independent(self):
        for offset in (-3.0, 0.5, 11.0):
            assert mech_denominator(offset, +1, 10.0, 0.0) == \
                mech_denominator(offset, -1, 10.0, 0.0)

    def test_substitution_example(self):
        # offset gamma_m, gamma_opt = gamma_m -> N+ = -i gamma_m + gamma_m
        gm = 7.3
        assert mech_denominator(gm, +1, gm, gm) == pytest.approx(gm - 1j * gm)


class TestScatteringMatrix:
    def test_matches_exact_frequency_domain_solve(self):
        # oracle from the coupled linear response; flat-cavity corrections are
        # O(offset/kappa) so rates are chosen tiny against kappa. For the blue
        # pump the phases of the c-dagger rows are convention dependent, so
        # only the moduli are compared there.
        p = make_params(gamma_m_hz=1.0, kappa_i_hz=0.0)
        gamma_opt = 0.5 * p.gamma_m
        for role in ("red_probe", "blue_probe"):
            tone = tone_with_gamma_opt(p, gamma_opt, role)
            sign = tone.detuning_sign
            for offset in (-3.0 * p.gamma_m, 0.0, 0.7 * p.gamma_m, 4.0 * p.gamma_m):
                smat = scattering_matrix(p, tone, offset)
                exact = exact_scattering_matrix(p, gamma_opt, sign, offset)
                if sign == +1:
                    np.testing.assert_allclose(smat.entries, exact, atol=2e-4)
                else:
                    np.testing.assert_allclose(np.abs(smat.entries), np.abs(exact),
                                               atol=2e-4)

    def test_decoupled_limit(self):
        p = make_params()
        tone = ToneSpec(detuning=-p.omega_m, role="red_probe", coupling=0.0)
        smat = scattering_matrix(p, tone, 2.0 * p.gamma_m)
        k = p.kappa
        assert smat.entries[0, 0] == pytest.approx(1 - 2 * p.kappa_r / k)
        assert smat.entries[0, 1] == pytest.approx(-2 * math.sqrt(p.kappa_l * p.kappa_r) / k)
        assert smat.entries[0, 2] == 0.0
        n = mech_denominator(2.0 * p.gamma_m, +1, p.gamma_m, 0.0)
        assert smat.entries[2, 2] == pytest.approx(1 - p.gamma_m / n)

    def test_symmetric_half_half_example(self):
        # kappa_r = kappa_l = kappa/2, gamma_opt = gamma_m, on resonance -> s11 = 1/2
        p = make_params(kappa_l_hz=435e3, kappa_r_hz=435e3, kappa_i_hz=0.0)
        tone = tone_with_gamma_opt(p, p.gamma_m, "red_probe")
        smat = scattering_matrix(p, tone, 0.0)
        assert smat.entries[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_graded_row_norm(self, rng):
        # kappa_i = 0: |s11|^2 + |s12|^2 +- |s13|^2 = 1 at any frequency
        for _ in range(10):
            p = random_system(rng, kappa_i_zero=True)
            gamma_opt = rng.uniform(0.01, 0.8) * p.gamma_m
            for role in ("red_probe", "blue_probe"):
                tone = tone_with_gamma_opt(p, gamma_opt, role)
                for _ in range(20):
                    offset = rng.uniform(-5, 5) * p.gamma_m
                    smat = scattering_matrix(p, tone, offset)
                    s11, s12, s13 = smat.output_row
                    norm = abs(s11) ** 2 + abs(s12) ** 2 + tone.detuning_sign * abs(s13) ** 2
                    assert norm == pytest.approx(1.0, abs=1e-10)

    def test_sign_structure_of_mechanical_term(self, rng):
        # s11 - (1 - 2 kappa_r/kappa) equals +-(kappa_r/kappa) gamma_opt / N^+-
        p = random_system(rng)
        gamma_opt = 0.3 * p.gamma_m
        bare = 1 - 2 * p.kappa_r / p.kappa
        for role in ("red_probe", "blue_probe"):
            tone = tone_with_gamma_opt(p, gamma_opt, role)
            sign = tone.detuning_sign
            offset = 1.7 * p.gamma_m
            smat = scattering_matrix(p, tone, offset)
            n = complex(mech_denominator(offset, sign, p.gamma_m, gamma_opt))
            term = (smat.entries[0, 0] - bare) * n
            assert term == pytest.approx(sign * (p.kappa_r / p.kappa) * gamma_opt, rel=1e-9)

    def test_window_gate(self):
        p = make_params()
        tone = tone_with_gamma_opt(p, p.gamma_m, "red_probe")
        with pytest.raises(ValidityError, match="window"):
            scattering_matrix(p, tone, 0.3 * p.kappa)
        scattering_matrix(p, tone, 0.3 * p.kappa, enforce_window=False)

    def test_good_cavity_gate(self):
        p = make_params(omega_m_hz=100e3)
        tone = tone_with_gamma_opt(p, p.gamma_m, "red_probe")
        with pytest.raises(ValidityError, match="good-cavity"):
            scattering_matrix(p, tone, 0.0)


class TestDetuningGate:
    """Every single-tone form takes the pump on its sideband: a tone kappa/4 or
    more away from Delta = +-omega_m is a ValidityError, whatever the side."""

    def forms(self, p, tone):
        b = BathSpec(n_m=3.0)
        x = np.array([0.0])
        yield lambda: single_tone_spectrum(p, b, tone, "symmetrized", x)
        yield lambda: single_tone_integrated_weight(p, b, tone, "normal_ordered")
        yield lambda: scattering_matrix(p, tone, 0.0)
        yield lambda: output_commutator(p, b, tone, 0.0)
        yield lambda: integrated_asymmetry(p, b, tone, "symmetrized")
        yield lambda: imbalance(p, b, tone, "symmetrized", x)

    @pytest.mark.parametrize("side", [-1, +1])
    @pytest.mark.parametrize("role", ["red_probe", "blue_probe"])
    def test_off_sideband_tone_is_gated(self, side, role):
        p = make_params()
        sideband = p.omega_m if role == "blue_probe" else -p.omega_m
        for miss, gated in ((0.0, False), (0.24, False), (0.26, True), (3.0, True)):
            detuning = sideband + side * miss * p.kappa
            tone = tone_with_gamma_opt(p, 0.01 * p.gamma_m, role, detuning)
            for form in self.forms(p, tone):  # each form runs before the next is made
                if gated:
                    with pytest.raises(ValidityError, match="detuning gate"):
                        form()
                else:
                    form()


class TestNoiseFloor:
    def test_vacuum_floor_is_half(self):
        assert noise_floor(make_params(), BathSpec()) == pytest.approx(0.5)

    def test_arithmetic_example(self):
        p = make_params()  # kappa_r/kappa = 450/870
        n_i = (0.24 * 870e3 - 0.3 * 605e3) / 265e3
        b = BathSpec(n_r=0.3, n_l=0.3, n_i=n_i)
        expected = 0.5 + 0.3 + 4.0 * (450.0 / 870.0) * (0.24 - 0.3)
        assert noise_floor(p, b) == pytest.approx(expected, rel=1e-12)
        assert noise_floor(p, b) == pytest.approx(0.6759, abs=1e-4)

    def test_uniform_bath_collapse(self):
        p = make_params()
        b = BathSpec(n_r=0.7, n_l=0.7, n_i=0.7, alpha_l=1.3, alpha_r=1.3, alpha_i=1.3)
        assert noise_floor(p, b) == pytest.approx(1.3 / 2 + 0.7, rel=1e-12)


class TestSpectrumComposition:
    def test_vacuum_symmetrized_on_resonance_is_half(self):
        p = make_params(kappa_i_hz=0.0)
        tone = tone_with_gamma_opt(p, 0.4 * p.gamma_m, "red_probe")
        smat = scattering_matrix(p, tone, 0.0)
        val = spectrum_from_scattering(smat, BathSpec(), "symmetrized")
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_normal_ordered_vacuum_red_is_zero(self):
        p = make_params()
        tone = tone_with_gamma_opt(p, 0.4 * p.gamma_m, "red_probe")
        for offset in (-2.0, 0.0, 3.0):
            smat = scattering_matrix(p, tone, offset * p.gamma_m)
            assert spectrum_from_scattering(smat, BathSpec(), "normal_ordered") == 0.0

    def test_normal_ordered_vacuum_blue_is_mechanical_upconversion(self):
        p = make_params()
        tone = tone_with_gamma_opt(p, 0.4 * p.gamma_m, "blue_probe")
        baths = BathSpec(beta=1.7)
        smat = scattering_matrix(p, tone, 0.5 * p.gamma_m)
        expected = abs(smat.output_row[2]) ** 2 * 1.7
        assert spectrum_from_scattering(smat, baths, "normal_ordered") == \
            pytest.approx(expected, rel=1e-12)

    def test_closed_form_equals_composition(self, rng):
        # arbitrary kappa_i and occupations; unit, then random vacuum weights
        for trial in range(200):
            p = random_system(rng)
            b = random_baths(rng)
            if trial >= 100:
                a_r, a_l, a_i, beta = rng.uniform(0.3, 2.0, size=4)
                b = replace(b, alpha_r=a_r, alpha_l=a_l, alpha_i=a_i, beta=beta)
            gamma_opt = rng.uniform(0.01, 0.9) * p.gamma_m
            role = "red_probe" if rng.random() < 0.5 else "blue_probe"
            tone = tone_with_gamma_opt(p, gamma_opt, role)
            kind = "symmetrized" if rng.random() < 0.5 else "normal_ordered"
            offset = rng.uniform(-5, 5) * p.gamma_m
            spec = single_tone_spectrum(p, b, tone, kind, np.array([offset]))
            smat = scattering_matrix(p, tone, offset)
            composed = spectrum_from_scattering(smat, b, kind)
            scale = max(abs(composed), noise_floor(p, b))
            assert abs(spec.values[0] - composed) <= 1e-13 * scale


unit_interval = st.floats(min_value=0.05, max_value=1.0)
occupation = st.floats(min_value=0.0, max_value=5.0)
vacuum_weight = st.floats(min_value=0.3, max_value=2.0)


class TestOrderingDifference:
    @settings(max_examples=200, deadline=None)
    @given(kl=unit_interval, kr=unit_interval, ki=st.floats(min_value=0.0, max_value=0.5),
           gamma_m_hz=st.floats(min_value=5.0, max_value=100.0),
           u=st.floats(min_value=0.01, max_value=0.9),
           n=st.tuples(occupation, occupation, occupation,
                       st.floats(min_value=0.0, max_value=100.0)),
           w=st.tuples(vacuum_weight, vacuum_weight, vacuum_weight, vacuum_weight),
           role=st.sampled_from(("red_probe", "blue_probe")))
    def test_symmetrized_minus_normal_is_half_commutator(self, kl, kr, ki, gamma_m_hz, u,
                                                         n, w, role):
        # general form of sym - normal = 1/2: for any vacuum weights the two
        # orderings differ by half the output commutator at every frequency
        p = make_params(kappa_l_hz=kl * 1e5, kappa_r_hz=kr * 1e5, kappa_i_hz=ki * 1e5,
                        gamma_m_hz=gamma_m_hz, omega_m_hz=50.0 * (kl + kr + ki) * 1e5)
        b = BathSpec(*n, *w)
        tone = tone_with_gamma_opt(p, u * p.gamma_m, role)
        grid = np.linspace(-5, 5, 11) * p.gamma_m
        sym = single_tone_spectrum(p, b, tone, "symmetrized", grid).values
        nrm = single_tone_spectrum(p, b, tone, "normal_ordered", grid).values
        half_c = np.array([output_commutator(p, b, tone, x) for x in grid]) / 2.0
        scale = np.maximum(np.abs(sym), np.abs(nrm))
        assert np.all(np.abs(sym - nrm - half_c) <= 1e-13 * scale)


class TestSingleToneSpectrum:
    def test_decoupled_flat_floor(self):
        p = make_params()
        b = BathSpec(n_r=0.2, n_l=0.4, n_i=0.1, n_m=50.0)
        tone = ToneSpec(detuning=-p.omega_m, role="red_probe", coupling=0.0)
        grid = np.linspace(-5, 5, 11) * p.gamma_m
        sym = single_tone_spectrum(p, b, tone, "symmetrized", grid)
        nrm = single_tone_spectrum(p, b, tone, "normal_ordered", grid)
        np.testing.assert_allclose(sym.values, noise_floor(p, b), rtol=1e-14)
        np.testing.assert_allclose(nrm.values, noise_floor(p, b) - 0.5, rtol=1e-13)

    def test_symmetrized_minus_normal_is_half(self, rng):
        # alpha_l = alpha_r = beta = 1: constant offset alpha_r/2 at every point
        for _ in range(20):
            p = random_system(rng)
            b = random_baths(rng)
            gamma_opt = rng.uniform(0.01, 0.8) * p.gamma_m
            role = "red_probe" if rng.random() < 0.5 else "blue_probe"
            tone = tone_with_gamma_opt(p, gamma_opt, role)
            grid = rng.uniform(-5, 5, size=7) * p.gamma_m
            grid.sort()
            sym = single_tone_spectrum(p, b, tone, "symmetrized", grid)
            nrm = single_tone_spectrum(p, b, tone, "normal_ordered", grid)
            np.testing.assert_allclose(sym.values - nrm.values, 0.5, atol=1e-12)

    def test_perfect_squashing_cancellation(self):
        # red tone, n_m = n_eff, n_c = n_r, equal vacuum weights -> flat
        p = make_params()
        n = 0.8
        b = BathSpec(n_r=n, n_l=n, n_i=n, n_m=n)  # n_c = n_r, n_eff = n
        tone = tone_with_gamma_opt(p, 0.2 * p.gamma_m, "red_probe")
        grid = np.linspace(-3, 3, 21) * p.gamma_m
        spec = single_tone_spectrum(p, b, tone, "symmetrized", grid)
        np.testing.assert_allclose(spec.values, noise_floor(p, b), rtol=1e-12)

    def test_blue_instability_raises(self):
        p = make_params()
        tone = tone_with_gamma_opt(p, 2.0 * p.gamma_m, "blue_probe")
        with pytest.raises(InstabilityError):
            single_tone_spectrum(p, BathSpec(), tone, "symmetrized", np.array([0.0]))


class TestImbalance:
    def test_dead_system_zero(self):
        p = make_params()
        b = BathSpec(n_r=0, n_l=0, n_i=0, n_m=0, alpha_r=0, alpha_l=0, alpha_i=0, beta=0)
        tone = tone_with_gamma_opt(p, 0.05 * p.gamma_m, "red_probe")
        grid = np.linspace(-4, 4, 9) * p.gamma_m
        delta_s = imbalance(p, b, tone, "symmetrized", grid)
        np.testing.assert_allclose(delta_s.values, 0.0, atol=1e-300)

    def test_vacuum_peak_height_matches_weight(self):
        # peak of the imbalance ~ weight * 4/gamma_tot at weak coupling
        p = make_params(kappa_i_hz=0.0)
        tone = tone_with_gamma_opt(p, 1e-5 * p.gamma_m, "red_probe")
        grid = np.array([-p.gamma_m * 1e-6, 0.0, p.gamma_m * 1e-6])
        delta_s = imbalance(p, BathSpec(), tone, "symmetrized", grid)
        delta_i = integrated_asymmetry(p, BathSpec(), tone, "symmetrized")
        assert delta_s.values[1] == pytest.approx(delta_i * 4.0 / p.gamma_m, rel=1e-3)

    def test_normal_ordered_vacuum_driven_by_beta(self):
        p = make_params()
        tone = tone_with_gamma_opt(p, 1e-4 * p.gamma_m, "red_probe")
        grid = np.array([0.0])
        for beta in (0.5, 1.0, 2.0):
            b = BathSpec(beta=beta)
            val = imbalance(p, b, tone, "normal_ordered", grid).values[0]
            ref = imbalance(p, BathSpec(beta=1.0), tone, "normal_ordered", grid).values[0]
            assert val == pytest.approx(beta * ref, rel=1e-3)


class TestIntegratedAsymmetry:
    def test_vacuum_plus_one(self):
        p = make_params(kappa_i_hz=0.0)
        tone = tone_with_gamma_opt(p, 0.01 * p.gamma_m, "red_probe")
        gamma_opt = tone.gamma_opt(p)
        pref = p.kappa_r / p.kappa
        for kind in ("symmetrized", "normal_ordered"):
            assert integrated_asymmetry(p, BathSpec(), tone, kind) == \
                pytest.approx(pref * gamma_opt, rel=1e-12)

    def test_zero_coupling(self):
        p = make_params()
        tone = ToneSpec(detuning=-p.omega_m, role="red_probe", coupling=0.0)
        assert integrated_asymmetry(p, BathSpec(n_r=1.0), tone, "symmetrized") == 0.0

    def test_quadrature_oracle(self, rng):
        # trapezoid + 1/x^2 tail correction over +-50 gamma_tot, 1e-4 relative;
        # five two-port systems, then five with intrinsic loss
        for trial in range(10):
            p = random_system(rng, kappa_i_zero=trial < 5)
            b = random_baths(rng, max_n=1.0)
            b = BathSpec(n_r=b.n_r, n_l=b.n_l, n_i=b.n_i, n_m=rng.uniform(0, 3.0))
            tone = tone_with_gamma_opt(p, 1e-6 * p.gamma_m, "red_probe")
            for kind in ("symmetrized", "normal_ordered"):
                closed = integrated_asymmetry(p, b, tone, kind)
                grid = np.linspace(-50, 50, 40001) * p.gamma_m
                delta_s = imbalance(p, b, tone, kind, grid, enforce_window=False)
                quad = integrated_weight(delta_s, 0.0, center=0.0)
                assert quad == pytest.approx(closed, rel=1e-4)

    def test_warns_outside_weak_coupling(self):
        p = make_params()
        tone = tone_with_gamma_opt(p, 0.5 * p.gamma_m, "red_probe")
        with pytest.warns(UserWarning, match="gamma_opt"):
            integrated_asymmetry(p, BathSpec(), tone, "symmetrized")


class TestSingleToneWeight:
    def test_matches_quadrature(self, rng):
        p = random_system(rng)
        b = random_baths(rng)
        tone = tone_with_gamma_opt(p, 0.2 * p.gamma_m, "red_probe")
        gamma_tot = p.gamma_m + tone.gamma_opt(p)
        grid = np.linspace(-60, 60, 40001) * gamma_tot
        spec = single_tone_spectrum(p, b, tone, "symmetrized", grid, enforce_window=False)
        quad = integrated_weight(spec, noise_floor(p, b), center=0.0)
        closed = single_tone_integrated_weight(p, b, tone, "symmetrized")
        assert quad == pytest.approx(closed, rel=1e-5)


class TestOutputCommutator:
    def test_physical_weights_constant(self, rng):
        for _ in range(10):
            p = random_system(rng, kappa_i_zero=True)
            b = random_baths(rng)  # alphas and beta all 1
            gamma_opt = rng.uniform(0.05, 0.8) * p.gamma_m
            for role in ("red_probe", "blue_probe"):
                tone = tone_with_gamma_opt(p, gamma_opt, role)
                vals = [output_commutator(p, b, tone, x)
                        for x in np.linspace(-5, 5, 21) * p.gamma_m]
                assert max(vals) - min(vals) < 1e-12
                assert vals[0] == pytest.approx(1.0, abs=1e-12)

    def test_beta_residue(self):
        # beta = 2, alphas = 1, kappa_i = 0: Lorentzian residue prop to (beta - 1)
        p = make_params(kappa_i_hz=0.0)
        gamma_opt = 0.3 * p.gamma_m
        tone = tone_with_gamma_opt(p, gamma_opt, "red_probe")
        b = BathSpec(beta=2.0)
        offset = 0.7 * p.gamma_m
        val = output_commutator(p, b, tone, offset)
        gamma_tot = p.gamma_m + gamma_opt
        lorentz = p.gamma_m * gamma_opt / (offset**2 + gamma_tot**2 / 4.0)
        expected = 1.0 + (p.kappa_r / p.kappa) * lorentz * (2.0 - 1.0)
        assert val == pytest.approx(expected, rel=1e-9)

    def test_drive_off_constant(self):
        p = make_params(kappa_i_hz=0.0)
        tone = ToneSpec(detuning=-p.omega_m, role="red_probe", coupling=0.0)
        b = BathSpec(alpha_r=1.2, alpha_l=0.7)
        k = p.kappa
        expected = 1.2 + (4 * p.kappa_r * p.kappa_l / k**2) * (0.7 - 1.2)
        for offset in (-2.0, 0.0, 3.0):
            val = output_commutator(p, b, tone, offset * p.gamma_m)
            assert val == pytest.approx(expected, rel=1e-12)
