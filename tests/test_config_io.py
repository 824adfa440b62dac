import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sideband_lab
from sideband_lab.config import (
    BATH_KEYS,
    SYSTEM_KEYS,
    config_from_dict,
    config_hash,
    config_to_dict,
    describe_run,
    load_config,
    save_config,
)
from sideband_lab.dataio import (
    dump_json,
    read_xy_csv,
    write_components_csv,
    write_manifest,
    write_spectrum_csv,
)
from sideband_lab.errors import ConfigError, DegenerateData
from sideband_lab.langevin import SimConfig, oracle_compare
from sideband_lab.model import TWO_PI, BathSpec, Spectrum, SystemParams, ToneConfig
from sideband_lab.multitone import sideband_weights
from sideband_lab.presets import PRESET_NAMES, preset


def read_spectrum_csv(path):
    """A spectrum CSV (offsets in Hz) read back into rad/s offsets, in order."""
    x, y = read_xy_csv(path)
    order = np.argsort(x)
    return Spectrum(TWO_PI * x[order], y[order])


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_round_trip_exact(self, name, tmp_path):
        params, baths, config = preset(name)
        path = tmp_path / "config.json"
        save_config(path, params, baths, config)
        params2, baths2, config2 = load_config(path)
        assert params2 == params
        assert baths2 == baths
        # delta is derived from the tone placements, which the file holds exactly
        assert config2.delta(params2) == config.delta(params)
        assert len(config2.tones) == len(config.tones)
        for a, b in zip(config.tones, config2.tones):
            assert a.role == b.role
            assert b.detuning == pytest.approx(a.detuning, rel=1e-15)
            assert b.coupling_rate(params) == pytest.approx(a.coupling_rate(params), rel=1e-15)
        # hash of the resolved dict is reproducible across the round trip
        assert config_hash(config_to_dict(params, baths, config)) == \
            config_hash(config_to_dict(params2, baths2, config2))

    def test_asymmetric_probe_placement_rejected(self):
        params, baths, config = preset("si-figure")
        d = config_to_dict(params, baths, config)
        d["tones"][0]["detuning_hz"] += 1.0  # break the red/blue symmetry
        with pytest.raises(ConfigError, match="symmetric"):
            config_from_dict(d)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"system": {}, "baths": {}})
        with pytest.raises(ConfigError):
            config_from_dict({"system": {"omega_c_hz": 1e9}, "baths": {}, "tones": []})

    def test_bath_defaults(self):
        params, baths, config = preset("oracle-demo")
        d = config_to_dict(params, baths, config)
        del d["baths"]["alpha_right"]
        _, baths2, _ = config_from_dict(d)
        assert baths2.alpha_r == 1.0

    def test_delta_derived_from_tones(self):
        params, _, config = preset("si-figure")
        d = config_to_dict(params, BathSpec(), config)
        params2, _, config2 = config_from_dict(d)
        assert config2.delta(params2) == pytest.approx(TWO_PI * 5e3, rel=1e-12)
        assert config2.delta_c(params2) == pytest.approx(TWO_PI * 30e3, rel=1e-12)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


hz_rates = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False)
occupations = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestKeyTables:
    """`SYSTEM_KEYS` and `BATH_KEYS` are the file format: every key is saved,
    and what is saved loads back equal."""

    @settings(max_examples=300, deadline=None)
    @given(system=st.fixed_dictionaries(
               {key: (st.just(0.0) | hz_rates) if key == "kappa_internal_hz" else hz_rates
                for key in SYSTEM_KEYS}),
           baths=st.fixed_dictionaries({key: occupations for key in BATH_KEYS}))
    def test_round_trip_from_hz(self, system, baths):
        params = SystemParams(**{attr: TWO_PI * system[key] for key, attr in SYSTEM_KEYS.items()})
        bath_spec = BathSpec(**{attr: baths[key] for key, attr in BATH_KEYS.items()})
        saved = config_to_dict(params, bath_spec, ToneConfig(tones=()))
        assert set(saved["system"]) == set(SYSTEM_KEYS)
        assert set(saved["baths"]) == set(BATH_KEYS)
        params2, baths2, _ = config_from_dict(json.loads(json.dumps(saved)))
        assert params2 == params
        assert baths2 == bath_spec

    @pytest.mark.parametrize("x_zp_m", [1e-15, None, "1 fm"])
    def test_a_key_outside_the_format_is_ignored(self, tmp_path, x_zp_m):
        # x_zp_m, the zero-point amplitude, was a system key; no output needs
        # it, so a file that still sets it loads and hashes as one without it
        params, baths, config = preset("main-text")
        save_config(tmp_path / "plain.json", params, baths, config)
        doc = json.loads((tmp_path / "plain.json").read_text())
        doc["system"]["x_zp_m"] = x_zp_m
        (tmp_path / "old.json").write_text(json.dumps(doc))
        plain, old = (load_config(tmp_path / name) for name in ("plain.json", "old.json"))
        assert old == plain
        assert describe_run(*old)["config_hash"] == describe_run(*plain)["config_hash"]

    def test_tables_name_every_field(self):
        assert sorted(SYSTEM_KEYS.values()) == sorted(f.name for f in fields(SystemParams))
        assert sorted(BATH_KEYS.values()) == sorted(f.name for f in fields(BathSpec))


class TestMemoryConfigIsFileConfig:
    """A configuration built in Python is the one its saved file loads: delta
    and delta_c come from the tones, through the loader's gates."""

    @pytest.mark.parametrize("role", ["red_probe", "blue_probe"])
    def test_lone_probe_keeps_its_detuning(self, role):
        params, baths, pair = preset("oracle-demo")
        lone = ToneConfig(tones=(pair.tone(role),))
        assert lone.delta(params) == pair.delta(params)
        # warm mechanics, so that the red feature is not flat
        report, _, _ = oracle_compare(params, replace(baths, n_m=5.0), lone, n_segments=40,
                                      seed=1, n_trajectories=4)
        center = -pair.tone(role).detuning_sign * pair.delta(params)
        assert abs(report["mc_center"]["peak"] - center) < lone.gamma_tot(params)

    def test_asymmetric_probes_are_refused_as_the_loader_refuses_them(self):
        params, baths, config = preset("si-figure")
        red, blue, cooling = config.tones
        shifted = ToneConfig(tones=(replace(red, detuning=red.detuning - TWO_PI), blue, cooling))
        with pytest.raises(ConfigError, match="^probe tones are not symmetric") as loaded:
            config_from_dict(config_to_dict(params, baths, shifted))
        for form in (lambda: shifted.delta(params),
                     lambda: sideband_weights(params, baths, shifted)):
            with pytest.raises(ConfigError) as err:
                form()
            assert str(err.value) == str(loaded.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)
_DELETE = object()


def _preset_dict(name):
    return config_to_dict(*preset(name))


def _field_paths():
    paths = []
    for name in PRESET_NAMES:
        d = _preset_dict(name)
        paths += [(name, block, key) for block in ("system", "baths") for key in d[block]]
        paths += [(name, i, key) for i, tone in enumerate(d["tones"]) for key in tone]
    return paths


def _parses_or_config_error(d):
    try:
        config_from_dict(d)
    except ConfigError:
        pass


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(_field_paths()), value=json_values | st.just(_DELETE))
    def test_single_field_substitution(self, path, value):
        # only ConfigError may escape, whatever one field holds or lacks
        name, block, key = path
        d = _preset_dict(name)
        target = d["tones"][block] if isinstance(block, int) else d[block]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
        _parses_or_config_error(d)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(PRESET_NAMES), where=st.sampled_from(
        ("root", "system", "baths", "tones", "tone")), value=json_values)
    def test_structural_substitution(self, name, where, value):
        d = _preset_dict(name)
        if where == "root":
            d = value
        elif where == "tone":
            d["tones"][0] = value
        else:
            d[where] = value
        _parses_or_config_error(d)

    @pytest.mark.parametrize("value", ["16", None, [16.0], {"hz": 16.0}, True,
                                       pytest.param(10**400, id="huge-int"), float("nan")])
    def test_error_names_block_and_key(self, value):
        d = _preset_dict("oracle-demo")
        d["system"]["g0_hz"] = value
        with pytest.raises(ConfigError, match=r"system\.g0_hz"):
            config_from_dict(d)

    def test_tone_without_detuning(self):
        d = _preset_dict("si-figure")
        del d["tones"][1]["detuning_hz"]
        with pytest.raises(ConfigError, match=r"tones\[1\].*detuning_hz"):
            config_from_dict(d)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        spec = Spectrum(np.linspace(-1e4, 1e4, 7), np.linspace(0.1, 0.7, 7))
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        header = path.read_text().splitlines()[0]
        assert header == "# offset_hz,value_quanta"
        back = read_spectrum_csv(path)
        np.testing.assert_allclose(back.freq_offsets, spec.freq_offsets, rtol=1e-15)
        np.testing.assert_allclose(back.values, spec.values, rtol=1e-15)

    def test_components_csv(self, tmp_path):
        x = np.linspace(-10.0, 10.0, 5)
        comps = {"total": Spectrum(x, np.ones(5)), "floor": Spectrum(x, np.zeros(5))}
        path = tmp_path / "comp.csv"
        write_components_csv(path, comps)
        lines = path.read_text().splitlines()
        assert lines[0] == "# offset_hz,value_quanta,component"
        assert len(lines) == 1 + 2 * 5
        assert lines[1].endswith(",total")
        assert lines[6].endswith(",floor")

    def test_read_xy_skips_comments(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# freq_hz,value\n1.0,2.0\n# comment\n3.0,4.0\n")
        x, y = read_xy_csv(path)
        np.testing.assert_array_equal(x, [1.0, 3.0])
        np.testing.assert_array_equal(y, [2.0, 4.0])

    @pytest.mark.parametrize("cell", ["n/a", "", "nan", "inf", "-inf"])
    def test_read_xy_names_bad_cell(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"# freq_hz,value\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ConfigError, match=r"data\.csv:3: non-"):
            read_xy_csv(path)


class TestManifest:
    def test_write_and_content(self, tmp_path):
        path = write_manifest(tmp_path, command="spectrum", config_hash="ab" * 32,
                              outputs=["spectrum.csv"], seed=7)
        data = json.loads(path.read_text())
        assert data["command"] == "spectrum"
        assert data["config_hash"] == "ab" * 32
        assert data["outputs"] == ["spectrum.csv"]
        assert data["seed"] == 7
        assert data["tool_version"] == sideband_lab.__version__

    def test_dump_json_format(self):
        assert dump_json({"b": [1, "x"], "a": {"d": 0.1, "c": None}}) == (
            '{\n  "a": {\n    "c": null,\n    "d": 0.1\n  },\n  "b": [\n    1,\n    "x"\n  ]\n}\n')

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(-math.inf)],
                             ids=["nan", "inf", "-inf", "numpy-inf"])
    @pytest.mark.parametrize("where, path", [
        (lambda v: {"rel_err": {"peak": v}, "seed": 3}, "rel_err.peak"),
        (lambda v: {"runs": [{"w": 1.0}, {"w": v}]}, "runs.1.w")], ids=["dict", "list"])
    def test_dump_json_names_a_non_finite_value(self, value, where, path):
        with pytest.raises(DegenerateData, match=rf"^{path} is {value}, which strict JSON"):
            dump_json(where(value))

    def test_describe_run_hash_stable(self):
        params, baths, config = preset("si-figure")
        h1 = describe_run(params, baths, config)["config_hash"]
        h2 = describe_run(params, baths, config)["config_hash"]
        assert h1 == h2
        other = describe_run(params, BathSpec(n_r=0.9), config)["config_hash"]
        assert other != h1

    def test_every_sim_field_enters_the_hash(self):
        params, baths, config = preset("oracle-demo")
        sim = SimConfig(dt=1e-6, n_steps=100, n_trajectories=4, seed=0, burn_in=10,
                        psd_segments=8)
        base = describe_run(params, baths, config, sim)
        assert base["resolved"]["sim"] == {f.name: getattr(sim, f.name) for f in fields(sim)}
        for f in fields(sim):
            changed = replace(sim, **{f.name: getattr(sim, f.name) + 1})
            assert describe_run(params, baths, config, changed)["config_hash"] != \
                base["config_hash"], f.name
