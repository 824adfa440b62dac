import json

import numpy as np
import pytest

import sideband_lab
from sideband_lab.config import (
    config_from_dict,
    config_hash,
    config_to_dict,
    describe_run,
    load_config,
    save_config,
)
from sideband_lab.dataio import (
    RunManifest,
    read_spectrum_csv,
    read_xy_csv,
    write_components_csv,
    write_manifest,
    write_spectrum_csv,
)
from sideband_lab.errors import ConfigError
from sideband_lab.model import TWO_PI, BathSpec, Spectrum
from sideband_lab.presets import PRESET_NAMES, preset


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_round_trip_exact(self, name, tmp_path):
        params, baths, config = preset(name)
        path = tmp_path / "config.json"
        save_config(path, params, baths, config)
        params2, baths2, config2 = load_config(path)
        assert params2 == params
        assert baths2 == baths
        # delta is re-derived from the tone placements; the cancellation
        # against omega_m limits it to ~eps*omega_m absolute
        assert config2.delta == pytest.approx(config.delta, abs=1e-6, rel=1e-9)
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
        _, _, config2 = config_from_dict(d)
        assert config2.delta == pytest.approx(TWO_PI * 5e3, rel=1e-12)
        assert config2.delta_c == pytest.approx(TWO_PI * 30e3, rel=1e-12)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


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
        manifest = RunManifest(command="spectrum", config_hash="ab" * 32,
                               outputs=["spectrum.csv"], seed=7)
        path = write_manifest(tmp_path, manifest)
        data = json.loads(path.read_text())
        assert data["command"] == "spectrum"
        assert data["config_hash"] == "ab" * 32
        assert data["outputs"] == ["spectrum.csv"]
        assert data["seed"] == 7
        assert data["tool_version"] == sideband_lab.__version__

    def test_describe_run_hash_stable(self):
        params, baths, config = preset("si-figure")
        h1 = describe_run(params, baths, config)["config_hash"]
        h2 = describe_run(params, baths, config)["config_hash"]
        assert h1 == h2
        other = describe_run(params, BathSpec(n_r=0.9), config)["config_hash"]
        assert other != h1
