import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sideband_lab.config import config_from_dict, config_to_dict
from sideband_lab.errors import ConfigError, InstabilityError, UnbalancedError, ValidityError
from sideband_lab.model import (
    HBAR,
    K_B,
    TWO_PI,
    BathSpec,
    Spectrum,
    SystemParams,
    ToneConfig,
    ToneSpec,
    bose_occupation,
    derive_effective_mechanics,
)
from sideband_lab.presets import preset

from conftest import balanced_config, integrated_weight, make_params, tone_with_gamma_opt

rates = st.floats(min_value=1e2, max_value=1e7, allow_nan=False)


class TestSystemParams:
    def test_kappa_is_sum_of_ports(self):
        p = make_params(kappa_left_hz=155e3, kappa_right_hz=450e3, kappa_internal_hz=265e3)
        assert p.kappa == pytest.approx(TWO_PI * 870e3, rel=1e-14)

    @given(kl=rates, kr=rates, ki=st.floats(min_value=0, max_value=1e7))
    def test_kappa_accessor_property(self, kl, kr, ki):
        p = SystemParams(omega_c=1e10, omega_m=1e9, g0=100.0,
                         kappa_l=kl, kappa_r=kr, kappa_i=ki, gamma_m=10.0)
        assert p.kappa == kl + kr + ki

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ConfigError):
            make_params(gamma_m_hz=0.0)
        with pytest.raises(ConfigError):
            make_params(kappa_left_hz=-1.0)

    def test_kappa_i_zero_allowed(self):
        make_params(kappa_internal_hz=0.0)

    def test_good_cavity_gate(self):
        bad = make_params(omega_m_hz=100e3)  # omega_m < kappa
        with pytest.raises(ValidityError, match="good-cavity"):
            bad.require_good_cavity()
        make_params().require_good_cavity()


class TestBathSpec:
    def test_weighted_cavity_occupation(self):
        p = make_params()
        b = BathSpec(n_r=0.3, n_l=0.3, n_i=(0.24 * 870e3 - 0.3 * 605e3) / 265e3)
        assert b.n_c(p) == pytest.approx(0.24, rel=1e-12)
        assert b.n_eff(p) == pytest.approx(0.18, rel=1e-10)

    @given(n_r=st.floats(0, 10), n_l=st.floats(0, 10), n_i=st.floats(0, 10))
    def test_n_c_is_convex_combination(self, n_r, n_l, n_i):
        p = make_params()
        b = BathSpec(n_r=n_r, n_l=n_l, n_i=n_i)
        lo, hi = min(n_r, n_l, n_i), max(n_r, n_l, n_i)
        assert lo - 1e-12 <= b.n_c(p) <= hi + 1e-12

    def test_rejects_negative_occupation(self):
        with pytest.raises(ConfigError):
            BathSpec(n_r=-0.1)


class TestToneSpec:
    def test_exactly_one_of_photons_or_coupling(self):
        with pytest.raises(ConfigError):
            ToneSpec(detuning=0.0, role="generic", n_photons=1.0, coupling=1.0)
        with pytest.raises(ConfigError):
            ToneSpec(detuning=0.0, role="generic", coupling=None)

    @pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, detuning):
        # a NaN would pass every sideband gate and be taken for a blue pump
        with pytest.raises(ConfigError, match="detuning"):
            ToneSpec(detuning=detuning, role="generic", coupling=1.0)

    @given(n_p=st.floats(min_value=1e-3, max_value=1e12))
    @settings(max_examples=50)
    def test_coupling_photon_round_trip(self, n_p):
        p = make_params()
        tone = ToneSpec(detuning=-p.omega_m, role="red_probe", coupling=None, n_photons=n_p)
        g = tone.coupling_rate(p)
        back = ToneSpec(detuning=-p.omega_m, role="red_probe", coupling=g)
        assert (back.coupling / p.g0) ** 2 == pytest.approx(n_p, rel=1e-12)

    def test_gamma_opt_definition(self):
        p = make_params()
        tone = ToneSpec(detuning=-p.omega_m, role="cooling", coupling=TWO_PI * 1e3)
        assert tone.gamma_opt(p) == pytest.approx(4.0 * (TWO_PI * 1e3) ** 2 / p.kappa)


class TestToneConfig:
    def test_cooling_must_be_further_detuned(self):
        # the cooling-order gate is `ToneConfig.delta_c`, which reads both
        # detunings off the tones
        p = make_params()
        with pytest.raises(ConfigError, match="must exceed delta"):
            balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=TWO_PI * 1.0,
                            delta_c=TWO_PI * 1e3, cooling_gamma_opt=TWO_PI * 10.0)
        delta = TWO_PI * 5e3
        probes = balanced_config(p, delta=delta, probe_gamma_opt=TWO_PI * 1.0).tones
        for delta_c in (0.2 * delta, delta):
            cooling = tone_with_gamma_opt(p, TWO_PI * 10.0, "cooling", -(p.omega_m + delta_c))
            cfg = ToneConfig(tones=(*probes, cooling))
            with pytest.raises(ConfigError) as err:
                cfg.delta_c(p)
            assert str(err.value) == (f"cooling detuning delta_c = {delta_c:.6g} "
                                      f"must exceed delta = {delta:.6g}")
        outside = tone_with_gamma_opt(p, TWO_PI * 10.0, "cooling", -(p.omega_m + 6.0 * delta))
        assert ToneConfig(tones=(*probes, outside)).delta_c(p) == pytest.approx(6.0 * delta)
        # a config file with the cooling tone at the probes' detuning, delta_c = delta
        d = config_to_dict(*preset("main-text"))
        d["tones"][2]["detuning_hz"] = d["tones"][0]["detuning_hz"]
        with pytest.raises(ConfigError, match="must exceed delta"):
            config_from_dict(d)

    def test_duplicate_roles_rejected(self):
        p = make_params()
        t = tone_with_gamma_opt(p, TWO_PI, "red_probe")
        with pytest.raises(ConfigError):
            ToneConfig(tones=(t, t))


class TestDeriveEffectiveMechanics:
    def test_cooling_off_is_identity(self):
        p = make_params()
        baths = BathSpec(n_m=17.5)
        cooling = ToneSpec(detuning=-(p.omega_m + TWO_PI * 30e3), role="cooling", coupling=0.0)
        gamma_m_eff, n_m_eff = derive_effective_mechanics(p, baths, ToneConfig(tones=(cooling,)))
        assert gamma_m_eff == pytest.approx(p.gamma_m)
        assert n_m_eff == pytest.approx(17.5)

    def test_no_cooling_tone(self):
        p = make_params()
        baths = BathSpec(n_r=0.3, n_l=0.2, n_i=1.0, n_m=17.5)
        assert derive_effective_mechanics(p, baths, ToneConfig(tones=())) == (p.gamma_m, 17.5)

    def test_hand_arithmetic_example(self):
        # gamma_m = 2pi*10 Hz, n_m = 1e4, gamma_cool = 2pi*350 Hz, n_c = 0.24
        p = make_params(gamma_m_hz=10.0)
        n_i = (0.24 * 870e3 - 0.3 * 605e3) / 265e3
        baths = BathSpec(n_r=0.3, n_l=0.3, n_i=n_i, n_m=1e4)
        cooling = tone_with_gamma_opt(p, TWO_PI * 350.0, "cooling",
                                      detuning=-(p.omega_m + TWO_PI * 30e3))
        gamma_m_eff, n_m_eff = derive_effective_mechanics(p, baths, ToneConfig(tones=(cooling,)))
        assert gamma_m_eff == pytest.approx(TWO_PI * 360.0, rel=1e-12)
        assert n_m_eff == pytest.approx((10 * 1e4 + 350 * 0.24) / 360.0, rel=1e-10)
        assert n_m_eff == pytest.approx(278.011, abs=5e-4)

    def test_equal_bath_symmetry(self):
        p = make_params()
        n_common = 3.7
        baths = BathSpec(n_r=n_common, n_l=n_common, n_i=n_common, n_m=n_common)
        for gamma_cool_hz in (1.0, 350.0, 5000.0):
            cooling = tone_with_gamma_opt(p, TWO_PI * gamma_cool_hz, "cooling",
                                          detuning=-(p.omega_m + TWO_PI * 30e3))
            _, n_m_eff = derive_effective_mechanics(p, baths, ToneConfig(tones=(cooling,)))
            assert n_m_eff == pytest.approx(n_common, rel=1e-12)

    def test_probes_do_not_dress_the_mechanics(self):
        # only the cooling tone of the configuration enters gamma_M and n_M
        p = make_params()
        baths = BathSpec(n_r=0.3, n_m=17.5)
        cooling = tone_with_gamma_opt(p, TWO_PI * 350.0, "cooling",
                                      detuning=-(p.omega_m + TWO_PI * 30e3))
        probes = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=TWO_PI * 100.0).tones
        alone = derive_effective_mechanics(p, baths, ToneConfig(tones=(cooling,)))
        assert derive_effective_mechanics(p, baths, ToneConfig(tones=(*probes, cooling))) == alone
        assert derive_effective_mechanics(p, baths, ToneConfig(tones=probes)) == (p.gamma_m, 17.5)


class TestStability:
    def test_balanced_tones_stable(self):
        p = make_params()
        cfg = balanced_config(p, delta=TWO_PI * 5e3, probe_gamma_opt=TWO_PI * 100.0)
        assert cfg.gamma_tot(p) == pytest.approx(p.gamma_m, rel=1e-12)  # no raise

    def test_lone_blue_tone_unstable(self):
        p = make_params(gamma_m_hz=10.0)
        blue = tone_with_gamma_opt(p, 2.0 * p.gamma_m, "blue_probe")
        with pytest.raises(InstabilityError) as err:
            ToneConfig(tones=(blue,)).gamma_tot(p)
        assert err.value.gamma_tot == p.gamma_m - blue.gamma_opt(p)

    def test_arithmetic_example(self):
        # gamma_M = 2pi*360, gamma_opt+ = 2pi*100, gamma_opt- = 2pi*500
        p = make_params(gamma_m_hz=10.0)
        tones = (
            tone_with_gamma_opt(p, TWO_PI * 100.0, "red_probe",
                                detuning=-(p.omega_m + TWO_PI * 5e3)),
            tone_with_gamma_opt(p, TWO_PI * 500.0, "blue_probe",
                                detuning=+(p.omega_m + TWO_PI * 5e3)),
            tone_with_gamma_opt(p, TWO_PI * 350.0, "cooling",
                                detuning=-(p.omega_m + TWO_PI * 30e3)),
        )
        cfg = ToneConfig(tones=tones)
        with pytest.raises(InstabilityError) as err:
            cfg.gamma_tot(p)
        assert err.value.gamma_tot == pytest.approx(-TWO_PI * 40.0, rel=1e-9)


class TestSpectrum:
    def test_requires_increasing_grid(self):
        with pytest.raises(ConfigError):
            Spectrum(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_requires_finite_values(self):
        with pytest.raises(ConfigError):
            Spectrum(np.arange(3.0), np.array([0.0, np.inf, 1.0]))

    def test_arrays_read_only(self):
        s = Spectrum(np.arange(4.0), np.ones(4))
        with pytest.raises(ValueError):
            s.values[0] = 2.0

    def test_integrated_weight_of_lorentzian(self):
        # unit-weight Lorentzian: gamma / (x^2 + gamma^2/4) integrates to 1 (per 2pi)
        gamma = 7.0
        x = np.linspace(-60 * gamma, 60 * gamma, 200001)
        s = Spectrum(x, gamma / (x**2 + gamma**2 / 4.0))
        assert integrated_weight(s) == pytest.approx(1.0, rel=2e-6)
        # without tail correction the 50-linewidth window misses ~0.5%
        assert integrated_weight(s, tail_correction=False) == pytest.approx(1.0, rel=1e-2)
        assert abs(integrated_weight(s, tail_correction=False) - 1.0) > 1e-3


def test_bose_occupation_values():
    omega_m = TWO_PI * 4e6
    n = bose_occupation(0.2, omega_m)
    assert n == pytest.approx(1041.4, abs=0.5)
    # high-temperature linearity within 0.1%
    from scipy.constants import hbar, k
    assert n == pytest.approx(k * 0.2 / (hbar * omega_m), rel=1e-3)


def test_si_constants_are_exact():
    from scipy.constants import hbar, k
    assert (HBAR, K_B) == (hbar, k)  # bit for bit


@pytest.mark.parametrize("temperature", [0.0, -0.1])
def test_bose_occupation_rejects_nonpositive_temperature(temperature):
    with pytest.raises(ConfigError, match="temperature must be positive"):
        bose_occupation(temperature, TWO_PI * 4e6)


def test_require_balanced_gate():
    p = make_params()
    delta = TWO_PI * 5e3
    red = tone_with_gamma_opt(p, TWO_PI * 10.0, "red_probe", -(p.omega_m + delta))
    balanced = ToneConfig(tones=(red, tone_with_gamma_opt(p, TWO_PI * 10.0, "blue_probe",
                                                          p.omega_m + delta)))
    assert balanced.require_balanced(p) == red.gamma_opt(p)
    unbalanced = ToneConfig(tones=(red, tone_with_gamma_opt(p, TWO_PI * 20.0, "blue_probe",
                                                            p.omega_m + delta)))
    gp, gm = unbalanced.gamma_opt_pair(p)
    with pytest.raises(UnbalancedError) as err:
        unbalanced.require_balanced(p)
    assert str(err.value) == f"balanced probes required: gamma_opt+ = {gp:.6g}, gamma_opt- = {gm:.6g}"
    with pytest.raises(UnbalancedError):
        ToneConfig(tones=(red,)).require_balanced(p)
    cooling = tone_with_gamma_opt(p, TWO_PI * 10.0, "cooling", -(p.omega_m + 6.0 * delta))
    with pytest.raises(ConfigError, match="neither a red_probe nor a blue_probe"):
        ToneConfig(tones=(cooling,)).require_balanced(p)
