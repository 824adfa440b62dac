"""Each validity gate has one home that every public form passes.

The scattering detuning gate decides the good-cavity limit omega_m > kappa,
then refuses a tone kappa/4 or more from its sideband, for every
single-tone, multitone and linear-response form (the detector correlators
pass it before their two-port gate); a tone configuration refuses a tone
without a probe or cooling role and a tone on the wrong side of the cavity
for its role when it is built, and `ToneConfig.delta_c` refuses a cooling
tone not detuned beyond the probes wherever the multitone forms or the
oracle read it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sideband_lab.errors import ConfigError, ValidityError
from sideband_lab.linear_response import (
    detector_correlators,
    output_spectrum_lr,
    resonance_correlators,
)
from sideband_lab.model import CONFIG_ROLES, TWO_PI, BathSpec, ToneConfig, ToneSpec
from sideband_lab.multitone import full_rwa_spectrum, multitone_spectra, sideband_weights
from sideband_lab.presets import PRESET_NAMES, preset
from sideband_lab.scattering import (
    integrated_asymmetry,
    output_commutator,
    scattering_matrix,
    single_tone_integrated_weight,
    single_tone_spectrum,
)

from conftest import (
    balanced_config,
    default_layout,
    make_params,
    random_baths,
    random_system,
    tone_with_gamma_opt,
)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       factor=st.floats(min_value=0.05, max_value=1.0),
       u=st.floats(min_value=0.01, max_value=0.9),
       role=st.sampled_from(("red_probe", "blue_probe")))
def test_bad_cavity_is_refused_by_every_closed_form(seed, factor, u, role):
    # a stable tone on its sideband and a well-separated balanced pair, so
    # that only omega_m <= kappa is wrong
    rng = np.random.default_rng(seed)
    p = random_system(rng, good_cavity_factor=factor)
    baths = random_baths(rng)
    tone = tone_with_gamma_opt(p, u * p.gamma_m, role)
    cfg = balanced_config(p, delta=20.0 * p.gamma_m, probe_gamma_opt=u * p.gamma_m)
    grid = np.array([0.0])
    forms = (
        lambda: scattering_matrix(p, tone, 0.0),
        lambda: single_tone_spectrum(p, baths, tone, "symmetrized", grid),
        lambda: single_tone_integrated_weight(p, baths, tone, "symmetrized"),
        lambda: integrated_asymmetry(p, baths, tone, "symmetrized"),
        lambda: output_commutator(p, baths, tone, 0.0),
        lambda: sideband_weights(p, baths, cfg),
        lambda: multitone_spectra(p, baths, cfg, "symmetrized", grid),
        lambda: full_rwa_spectrum(p, baths, cfg, grid),
        lambda: detector_correlators(p, baths, tone, p.omega_m),
        lambda: output_spectrum_lr(p, baths, tone, grid),
    )
    for form in forms:
        with pytest.raises(ValidityError, match="good-cavity gate"):
            form()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       miss=st.floats(min_value=0.26, max_value=3.0),
       side=st.sampled_from((-1, +1)),
       role=st.sampled_from(("red_probe", "blue_probe")))
def test_off_sideband_tone_is_refused_by_every_single_tone_form(seed, miss, side, role):
    # a stable tone at least kappa/4 from its sideband, on a device that may
    # have internal loss: the detector correlators meet the detuning gate
    # before their two-port gate, as noise-constraint does
    rng = np.random.default_rng(seed)
    p = random_system(rng)
    baths = random_baths(rng)
    sideband = p.omega_m if role == "blue_probe" else -p.omega_m
    tone = tone_with_gamma_opt(p, 0.05 * p.gamma_m, role, sideband + side * miss * p.kappa)
    grid = np.array([0.0])
    forms = (
        lambda: scattering_matrix(p, tone, 0.0),
        lambda: single_tone_spectrum(p, baths, tone, "symmetrized", grid),
        lambda: single_tone_integrated_weight(p, baths, tone, "symmetrized"),
        lambda: integrated_asymmetry(p, baths, tone, "symmetrized"),
        lambda: output_commutator(p, baths, tone, 0.0),
        lambda: detector_correlators(p, baths, tone, p.omega_m),
        lambda: resonance_correlators(p, baths, tone),
        lambda: output_spectrum_lr(p, baths, tone, grid),
    )
    for form in forms:
        with pytest.raises(ValidityError, match=r"detuning gate: \|\|Delta\| - omega_m\|"):
            form()


def _probe_pair(p, delta):
    return (ToneSpec(detuning=-(p.omega_m + delta), role="red_probe", coupling=TWO_PI * 1e3),
            ToneSpec(detuning=+(p.omega_m + delta), role="blue_probe", coupling=TWO_PI * 1e3))


@settings(max_examples=50, deadline=None)
@given(delta_hz=st.floats(min_value=-1e5, max_value=1e5),
       shortfall_hz=st.floats(min_value=0.0, max_value=1e5))
def test_cooling_tone_inside_the_probes_is_refused(delta_hz, shortfall_hz):
    p = make_params()
    delta = TWO_PI * delta_hz
    delta_c = delta - TWO_PI * shortfall_hz
    cooling = ToneSpec(detuning=-(p.omega_m + delta_c), role="cooling", coupling=TWO_PI * 1e3)
    cfg = ToneConfig(tones=(*_probe_pair(p, delta), cooling))
    for gate in (lambda: cfg.delta_c(p), lambda: sideband_weights(p, BathSpec(), cfg),
                 lambda: default_layout(p, cfg)):
        with pytest.raises(ConfigError, match="must exceed delta"):
            gate()


@settings(max_examples=50, deadline=None)
@given(position=st.integers(min_value=0, max_value=2),
       detuning_hz=st.floats(min_value=-1e7, max_value=1e7))
def test_generic_tone_is_refused(position, detuning_hz):
    p = make_params()
    tones = list(_probe_pair(p, TWO_PI * 5e3))
    tones.insert(position, ToneSpec(detuning=TWO_PI * detuning_hz, role="generic",
                                    coupling=TWO_PI * 1e3))
    with pytest.raises(ConfigError, match=rf"tones\[{position}\] needs a role"):
        ToneConfig(tones=tuple(tones))


@pytest.mark.parametrize("side", [+1, 0, -1])
@pytest.mark.parametrize("role", CONFIG_ROLES)
def test_tone_on_the_wrong_side_of_the_cavity_is_refused(role, side):
    # a blue_probe sits above the cavity (detuning_sign -1), a red_probe or a
    # cooling tone below it (+1); a tone on the cavity has no side at all
    p = make_params()
    tone = ToneSpec(detuning=-side * p.omega_m, role=role, coupling=TWO_PI * 1e3)
    if side == (-1 if role == "blue_probe" else +1):
        assert ToneConfig(tones=(tone,)).tones[0].detuning_sign == side
        return
    if side == 0:
        with pytest.raises(ConfigError, match="no sideband"):
            tone.detuning_sign
    with pytest.raises(ConfigError, match=rf"tones\[0\]: a {role} tone sits"):
        ToneConfig(tones=(tone,))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_tones_sit_on_their_role_side(name):
    side = {"red_probe": +1, "cooling": +1, "blue_probe": -1}
    _, _, config = preset(name)
    for tone in config.tones:
        assert tone.detuning_sign == side[tone.role]
