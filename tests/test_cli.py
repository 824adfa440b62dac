import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sideband_lab.cli as cli
from sideband_lab.cli import build_parser, main
from sideband_lab.config import config_to_dict, save_config
from sideband_lab.dataio import CALIBRATION_TABLES, read_xy_csv
from sideband_lab.model import TWO_PI, BathSpec, ToneConfig, ToneSpec
from sideband_lab.presets import PRESET_NAMES, preset

from conftest import balanced_config, make_params, tone_with_gamma_opt


def oracle_demo_variant(tmp_path, *, blue=None, **baths):
    """`oracle-demo` saved as a config file, with its blue probe alone (fields
    of ``blue`` replaced) when ``blue`` is given, and bath fields replaced."""
    params, bath_spec, cfg = preset("oracle-demo")
    if blue is not None:
        cfg = ToneConfig(tones=(replace(cfg.tone("blue_probe"), **blue),))
    path = tmp_path / "cfg.json"
    save_config(path, params, replace(bath_spec, **baths), cfg)
    return str(path)


def wrong_side_probe(tmp_path):
    """`oracle-demo`'s red probe alone, moved to the blue sideband (+10.0042 MHz)
    and still labelled red_probe, saved as a config file."""
    d = config_to_dict(*preset("oracle-demo"))
    red = d["tones"][0]
    red["detuning_hz"] = -red["detuning_hz"]
    d["tones"] = [red]
    path = tmp_path / "wrong-side.json"
    path.write_text(json.dumps(d))
    return str(path)


def tripled_probe_pair(tmp_path):
    """`oracle-demo` saved as a config file with both probe detunings tripled
    (delta = 20.0 MHz against kappa/4 = 21 kHz)."""
    d = config_to_dict(*preset("oracle-demo"))
    for tone in d["tones"]:
        tone["detuning_hz"] *= 3.0
    path = tmp_path / "tripled.json"
    path.write_text(json.dumps(d))
    return str(path)


def cooling_variant(tmp_path, row):
    """The three-tone cooling system (balanced probes at delta/2pi = 4.2 kHz, a
    cooling tone at delta_c = 3 delta, n_m = 80) saved as a config file, changed
    as the gate-consistency ``row`` says."""
    p = make_params(omega_c_hz=1e9, omega_m_hz=20e6, g0_hz=50, kappa_left_hz=20e3,
                    kappa_right_hz=120e3, kappa_internal_hz=20e3, gamma_m_hz=300.0)
    cfg = balanced_config(p, delta=TWO_PI * 4200.0, probe_gamma_opt=TWO_PI * 100.0,
                          delta_c=TWO_PI * 12600.0, cooling_gamma_opt=TWO_PI * 100.0)
    d = config_to_dict(p, BathSpec(n_m=80.0), cfg)
    red, blue, cooling = d["tones"]
    if row == "bad-cavity":  # omega_m/2pi = 100 kHz < kappa/2pi = 160 kHz
        d["system"]["omega_m_hz"] = 100e3
        red["detuning_hz"], blue["detuning_hz"] = -104.2e3, 104.2e3
        d["tones"] = [red, blue]
    elif row == "cooling-at-delta":
        cooling["detuning_hz"] = red["detuning_hz"]
    elif row == "generic-tone":
        cooling["role"] = "generic"
    elif row == "no-roles":
        for tone in d["tones"]:
            del tone["role"]
    elif row == "cooling-only":
        d["tones"] = [cooling]
    elif row == "lone-red":
        d["tones"] = [red, cooling]
    path = tmp_path / f"{row}.json"
    path.write_text(json.dumps(d))
    return str(path)


#: a lone blue probe that anti-damps oracle-demo: gamma_opt = 2 pi * 428.6 Hz
#: against gamma_m = 2 pi * 400 Hz
UNSTABLE_BLUE = {"coupling": TWO_PI * 3000.0}


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def synthetic_tables_with(tmp_path, table, value=None, n_rows=None):
    """The tables of `calibrate --synthetic --seed 1` on main-text, with every
    value of ``table`` set to ``value`` and only its first ``n_rows`` rows kept
    (either if given); returns their directory."""
    data = tmp_path / "data"
    assert main(["calibrate", "--preset", "main-text", "--synthetic", "--seed", "1",
                 "--out", str(data)]) == 0
    path = data / f"{table}.csv"
    x, y = read_xy_csv(path)
    values = [repr(float(b)) for b in y] if value is None else [value] * len(x)
    rows = [f"{float(a)!r},{b}" for a, b in zip(x, values)][:n_rows]
    path.write_text("\n".join([path.read_text().splitlines()[0], *rows]) + "\n")
    return data


def read_component_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        offset, value, comp = line.split(",")
        rows.append((float(offset), float(value), comp))
    return rows


def subcommand(name):
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices[name]


SPECTRUM = subcommand("spectrum")


def option_variants(command, base=()):
    """(flag, a second valid value) of every option of ``command`` but the
    source, the calibrate mode and --out: another choice, else half the value
    given in ``base`` or by default, else 1 where that value is 0."""
    variants = []
    for action in subcommand(command)._actions:
        flag = action.option_strings[-1]
        if action.dest in {"help", "config", "preset", "out", "synthetic", "data"}:
            continue
        if action.choices:
            value = next(choice for choice in action.choices if choice != action.default)
        else:
            given = action.type(base[base.index(flag) + 1]) if flag in base else action.default
            value = action.type(given / 2) if given else action.type(1)
        variants.append((flag, str(value)))
    return variants


class TestSpectrumCommand:
    def test_si_figure_multitone_peaks_at_probe_detuning(self, tmp_path):
        rc = main(["spectrum", "--preset", "si-figure", "--mode", "multitone",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_component_csv(tmp_path / "spectrum.csv")
        for comp in ("anti_stokes", "stokes"):
            sub = [(o, v) for o, v, c in rows if c == comp]
            peak_offset = max(sub, key=lambda t: t[1])[0]
            expected = -5e3 if comp == "anti_stokes" else 5e3
            assert peak_offset == pytest.approx(expected, abs=10.0)
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["spectrum.csv"]

    def test_flat_spectrum_when_undriven(self, tmp_path):
        params, baths, _ = preset("si-figure")
        cfg = ToneConfig(tones=(
            ToneSpec(detuning=-(params.omega_m + TWO_PI * 5e3), role="red_probe", coupling=0.0),
            ToneSpec(detuning=+(params.omega_m + TWO_PI * 5e3), role="blue_probe", coupling=0.0),
        ))
        path = tmp_path / "cfg.json"
        save_config(path, params, baths, cfg)
        rc = main(["spectrum", "--config", str(path), "--mode", "multitone",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_component_csv(tmp_path / "spectrum.csv")
        values = [v for _, v, _ in rows]
        assert max(values) - min(values) < 1e-12

    def test_unstable_config_exit_code(self, tmp_path, capsys):
        params, baths, _ = preset("si-figure")
        delta = TWO_PI * 5e3
        cfg = ToneConfig(tones=(
            tone_with_gamma_opt(params, TWO_PI * 10.0, "red_probe",
                                -(params.omega_m + delta)),
            tone_with_gamma_opt(params, TWO_PI * 5000.0, "blue_probe",
                                +(params.omega_m + delta)),
        ))
        path = tmp_path / "cfg.json"
        save_config(path, params, baths, cfg)
        rc = main(["spectrum", "--config", str(path), "--mode", "multitone",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "InstabilityError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["spectrum", "--mode", "single", "--sign", "blue"],
        ["spectrum", "--mode", "multitone"],
        ["asymmetry"],
        ["oracle-compare", "--segments", "200", "--trajectories", "8"],
    ], ids=["single", "multitone", "asymmetry", "oracle-compare"])
    def test_unstable_lone_probe_is_named_by_every_command(self, tmp_path, capsys, command):
        # one gate, ToneConfig.gamma_tot, with one message; oracle-compare used
        # to fail on its derived layout instead (ConfigError, exit 2)
        cfg = oracle_demo_variant(tmp_path, blue=UNSTABLE_BLUE)
        out = [] if command[0] == "asymmetry" else ["--out", str(tmp_path / "out")]
        assert main([*command, "--config", cfg, *out]) == 3
        assert capsys.readouterr().err == \
            "InstabilityError: total damping gamma_tot = -179.52 rad/s <= 0\n"

    @pytest.mark.parametrize("row, command", [
        *[(row, c) for row in ("bad-cavity", "cooling-at-delta", "generic-tone")
          for c in ("multitone", "full-rwa", "asymmetry", "oracle-compare")],
        ("no-roles", "multitone"), ("no-roles", "full-rwa"),
        *[("cooling-only", c) for c in ("multitone", "full-rwa", "asymmetry", "oracle-compare")],
        *[("wrong-side", c) for c in ("single", "multitone", "asymmetry", "oracle-compare",
                                      "noise-constraint")],
        ("lone-red", "oracle-compare"),
    ])
    def test_every_command_applies_the_same_gates(self, tmp_path, capsys, monkeypatch,
                                                  row, command):
        # each gate has one home, so every command refuses these configurations
        # the same way, and oracle-compare before any Monte-Carlo layout
        import sideband_lab.langevin as langevin

        def layout(*args, **kwargs):
            raise AssertionError("derived a Monte-Carlo layout for a gated configuration")

        monkeypatch.setattr(langevin.SimConfig, "auto", layout)
        argv = {"single": ["spectrum", "--mode", "single", "--sign", "red"],
                "multitone": ["spectrum", "--mode", "multitone"],
                "full-rwa": ["spectrum", "--mode", "full-rwa"],
                "asymmetry": ["asymmetry"],
                "oracle-compare": ["oracle-compare", "--trajectories", "8"],
                "noise-constraint": ["noise-constraint"]}[command]
        code, error = {
            "bad-cavity": (3, "ValidityError: good-cavity gate: "),
            "cooling-at-delta": (2, "ConfigError: cooling detuning delta_c = "),
            "generic-tone": (2, "ConfigError: tones[2] needs a role"),
            "no-roles": (2, "ConfigError: tones[0] missing key 'role'\n"),
            "cooling-only": (2, "ConfigError: no probe tone: the configuration "
                                "has neither a red_probe nor a blue_probe tone\n"),
            "wrong-side": (2, "ConfigError: tones[0]: a red_probe tone sits below the cavity"),
            "lone-red": (3, "ValidityError: lone-probe gate: "),
        }[row]
        out = [] if command in ("asymmetry", "noise-constraint") else \
            ["--out", str(tmp_path / "out")]
        path = wrong_side_probe(tmp_path) if row == "wrong-side" else cooling_variant(tmp_path, row)
        assert main([*argv, "--config", path, *out]) == code
        assert capsys.readouterr().err.startswith(error)

    def test_off_sideband_probe_is_a_validity_gate(self, tmp_path, capsys):
        # a stable lone blue probe at three times its sideband detuning: the
        # single-tone forms take the pump on the sideband, so no CSV is written
        params, _, cfg = preset("oracle-demo")
        path = oracle_demo_variant(tmp_path, blue={"detuning": 3.0 * cfg.tone("blue_probe").detuning})
        out = tmp_path / "out"
        rc = main(["spectrum", "--config", path, "--mode", "single", "--sign", "blue",
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ValidityError: detuning gate: ")
        assert not (out / "spectrum.csv").exists()

    def test_off_sideband_probe_pair_is_a_validity_gate(self, tmp_path, capsys):
        # both probes at three times their sideband detuning: the twin-sideband
        # brackets take the tones within kappa/4 of their sidebands too
        out = tmp_path / "out"
        rc = main(["spectrum", "--config", tripled_probe_pair(tmp_path), "--mode", "multitone",
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ValidityError: detuning gate: ")
        assert not (out / "spectrum.csv").exists()

    def test_non_numeric_config_field_is_config_error(self, tmp_path, capsys):
        d = config_to_dict(*preset("oracle-demo"))
        d["system"]["g0_hz"] = "16"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "ConfigError: system.g0_hz must be a finite number" in capsys.readouterr().err

    def test_single_mode(self, tmp_path):
        rc = main(["spectrum", "--preset", "si-figure", "--mode", "single",
                   "--sign", "red", "--points", "101", "--out", str(tmp_path)])
        assert rc == 0
        x, v = read_xy_csv(tmp_path / "spectrum.csv")
        assert x.size == 101
        assert v[50] == max(v)  # peak at zero offset

    def test_full_rwa_components(self, tmp_path):
        rc = main(["spectrum", "--preset", "si-figure", "--mode", "full-rwa",
                   "--points", "801", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_component_csv(tmp_path / "spectrum.csv")
        comps = {c for _, _, c in rows}
        assert comps == {"total", "floor", "mixing", "stokes", "anti_stokes"}

    def test_full_rwa_normal_ordering_lowers_total_by_half(self, tmp_path):
        totals = {}
        for kind in ("sym", "normal"):
            out = tmp_path / kind
            assert main(["spectrum", "--preset", "si-figure", "--mode", "full-rwa", "--kind", kind,
                         "--points", "801", "--out", str(out)]) == 0
            rows = read_component_csv(out / "spectrum.csv")
            totals[kind] = np.array([(o, v) for o, v, c in rows if c == "total"])
        np.testing.assert_array_equal(totals["sym"][:, 0], totals["normal"][:, 0])
        np.testing.assert_allclose(totals["sym"][:, 1] - totals["normal"][:, 1], 0.5,
                                   rtol=0.0, atol=1e-9)

    def test_missing_source_is_config_error(self, capsys):
        assert main(["spectrum", "--mode", "multitone"]) == 2

    @pytest.mark.parametrize("mode", next(a.choices for a in SPECTRUM._actions if a.dest == "mode"))
    @pytest.mark.parametrize("flag, value", option_variants("spectrum"))
    def test_every_option_that_changes_the_csv_changes_the_hash(self, tmp_path, capsys,
                                                                mode, flag, value):
        def run(*extra):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            assert main(["spectrum", "--preset", "oracle-demo", "--mode", mode, *extra,
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            return (out / "spectrum.csv").read_bytes(), manifest["config_hash"]

        (csv, digest), (changed_csv, changed_digest) = run(), run(flag, value)
        if changed_csv != csv:
            assert changed_digest != digest


class TestAsymmetryCommand:
    def test_vacuum_balanced_offset_term(self, tmp_path, capsys):
        params, _, config = preset("si-figure")
        path = tmp_path / "cfg.json"
        save_config(path, params, BathSpec(), config)
        rc = main(["asymmetry", "--config", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_eff"] == pytest.approx(0.0, abs=1e-12)
        gamma_opt, _ = config.gamma_opt_pair(params)
        pref = params.kappa_r / params.kappa
        assert report["delta_I_sym"] == pytest.approx(pref * gamma_opt, rel=1e-9)
        assert report["delta_I_sym"] == report["delta_I_normal"]

    def test_noise_scaling_between_runs(self, tmp_path, capsys):
        # n_eff = 2.5 scales the asymmetry by 2*2.5 + 1 = 6 against vacuum
        params, _, config = preset("si-figure")
        n = 2.5  # uniform ports -> n_eff = n
        path_vac = tmp_path / "vac.json"
        path_hot = tmp_path / "hot.json"
        save_config(path_vac, params, BathSpec(), config)
        save_config(path_hot, params, BathSpec(n_r=n, n_l=n, n_i=n), config)
        main(["asymmetry", "--config", str(path_vac)])
        vac = json.loads(capsys.readouterr().out)
        main(["asymmetry", "--config", str(path_hot)])
        hot = json.loads(capsys.readouterr().out)
        assert hot["delta_I_sym"] / vac["delta_I_sym"] == pytest.approx(6.0, rel=1e-9)

    def test_non_unit_vacuum_weight_is_a_validity_gate(self, tmp_path, capsys):
        # the multitone brackets are written for unit weights
        rc = main(["asymmetry", "--config", oracle_demo_variant(tmp_path, alpha_r=1.5)])
        assert rc == 3
        assert capsys.readouterr().err == \
            "ValidityError: multitone brackets assume unit vacuum weights, got alpha_r = 1.5\n"

    def test_unbalanced_reports_equal_orderings(self, tmp_path, capsys):
        params, baths, _ = preset("si-figure")
        delta = TWO_PI * 5e3
        cfg = ToneConfig(tones=(
            tone_with_gamma_opt(params, TWO_PI * 100.0, "red_probe",
                                -(params.omega_m + delta)),
            tone_with_gamma_opt(params, TWO_PI * 60.0, "blue_probe",
                                +(params.omega_m + delta)),
        ))
        path = tmp_path / "cfg.json"
        save_config(path, params, baths, cfg)
        rc = main(["asymmetry", "--config", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta_I_sym"] == report["delta_I_normal"]


class TestNoiseConstraintCommand:
    def test_vacuum_report(self, tmp_path, capsys):
        params, _, config = preset("si-figure")
        # two-port variant for the linear-response module
        params2 = make_params(kappa_internal_hz=0.0, omega_m_hz=400e6)
        cfg = ToneConfig(tones=(tone_with_gamma_opt(params2, 0.01 * params2.gamma_m,
                                                    "red_probe"),))
        path = tmp_path / "cfg.json"
        save_config(path, params2, BathSpec(), cfg)
        rc = main(["noise-constraint", "--config", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for name, sign in (("red", +1), ("blue", -1)):
            entry = report[name]
            assert entry["S_zF"]["im"] == pytest.approx(-sign * 0.5, rel=1e-4)
            assert entry["rhs"] < 1e-3
            assert entry["gap"] >= -1e-10
            assert entry["satisfied"]

    def test_lone_blue_probe_mirrors_the_red_report(self, tmp_path, capsys):
        # the same strength on the other sideband: both sides are reported
        # either way, so only the hash of the configuration differs
        params = make_params(kappa_internal_hz=0.0, omega_m_hz=400e6)
        baths = BathSpec(n_r=0.3, n_l=0.8, n_m=2.0)
        reports = []
        for role in ("red_probe", "blue_probe"):
            cfg = ToneConfig(tones=(tone_with_gamma_opt(params, 0.01 * params.gamma_m, role),))
            path = tmp_path / f"{role}.json"
            save_config(path, params, baths, cfg)
            assert main(["noise-constraint", "--config", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        red, blue = reports
        assert red.pop("config_hash") != blue.pop("config_hash")
        assert red == blue
        assert red["red"] != red["blue"]

    @pytest.mark.parametrize("command", ["noise-constraint", "asymmetry", "spectrum", "calibrate"])
    def test_off_sideband_probes_are_a_detuning_gate(self, tmp_path, capsys, command):
        # oracle-demo's two-port device with both probes kappa/2 off their
        # sidebands: the detector correlators take the pump on its sideband,
        # as the closed forms of the other commands do
        params, baths, _ = preset("oracle-demo")
        cfg = balanced_config(params, delta=params.kappa / 2.0, probe_gamma_opt=TWO_PI * 200.0)
        path = tmp_path / "cfg.json"
        save_config(path, params, baths, cfg)
        out = tmp_path / "out"
        argv = {"noise-constraint": [], "asymmetry": [], "spectrum": ["--out", str(out)],
                "calibrate": ["--synthetic", "--out", str(out)]}[command]
        assert main([command, "--config", str(path), *argv]) == 3
        assert capsys.readouterr().err.startswith("ValidityError: detuning gate: ")
        assert not out.exists()

    def test_internal_loss_gate(self, tmp_path, capsys):
        params, baths, config = preset("si-figure")  # kappa_i > 0
        path = tmp_path / "cfg.json"
        save_config(path, params, baths, config)
        rc = main(["noise-constraint", "--config", str(path)])
        assert rc == 3
        assert "ValidityError" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_synthetic_run(self, tmp_path, capsys):
        rc = main(["calibrate", "--preset", "main-text", "--synthetic",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "calibration_report.json").read_text())
        assert report["mode"] == "synthetic"
        assert report["g0_rel_err"] < 0.01
        assert (tmp_path / "manifest.json").exists()

    def test_data_directory_ingestion(self, tmp_path):
        params, baths, config = preset("main-text")
        data = tmp_path / "data"
        data.mkdir()
        n_p = np.logspace(3, 7, 9)
        gamma_hz = (params.gamma_m + 4 * params.g0**2 * n_p / params.kappa) / TWO_PI
        lines = ["# power,gamma_tot_hz"] + [f"{float(p)!r},{float(g)!r}" for p, g in zip(n_p, gamma_hz)]
        (data / "linewidth_vs_power.csv").write_text("\n".join(lines) + "\n")
        cfgpath = tmp_path / "cfg.json"
        save_config(cfgpath, params, baths, config)
        out = tmp_path / "out"
        rc = main(["calibrate", "--config", str(cfgpath), "--data", str(data),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "calibration_report.json").read_text())
        assert report["g0_fit"] == pytest.approx(params.g0, rel=1e-6)
        assert "linewidth_vs_power.csv" in report["inputs"]

    def test_requires_mode(self, tmp_path):
        assert main(["calibrate", "--preset", "main-text",
                     "--out", str(tmp_path)]) == 2

    def test_synthetic_and_data_are_exclusive(self, tmp_path, capsys):
        assert main(["calibrate", "--preset", "main-text", "--synthetic",
                     "--data", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert "argument --data: not allowed with argument --synthetic" \
            in capsys.readouterr().err
        assert not (tmp_path / "calibration_report.json").exists()

    def test_invalid_shunt_correction_is_a_gate(self, tmp_path, capsys):
        # oracle-demo's probes sit where |Delta| = 1.9 at C_out = 2.7 fF
        assert main(["calibrate", "--preset", "oracle-demo", "--synthetic",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ValidityError:")
        assert "Delta" in err and "C_out = 2.7 fF" in err

    FIT_KEYS = {"gamma_m_fit", "linewidth_slope", "g0_fit", "c_out_fit", "delta_minus",
                "delta_plus", "n_r_fit", "n_r_err", "amplifier_floor_fit",
                "conversion_slope_plus", "conversion_slope_minus", "conversion_ratio",
                "n_plus_fit", "n_minus_fit", "n_eff_fit", "uncertainties"}

    @pytest.mark.parametrize("name", ["main-text", "si-figure"])
    @pytest.mark.parametrize("noise", ["0", "0.01"])
    def test_data_mode_replays_synthetic_tables(self, tmp_path, noise, name):
        synthetic, data = tmp_path / "synthetic", tmp_path / "data"
        assert main(["calibrate", "--preset", name, "--synthetic", "--seed", "2",
                     "--noise", noise, "--out", str(synthetic)]) == 0
        manifest = json.loads((synthetic / "manifest.json").read_text())
        assert manifest["outputs"][0] == "calibration_report.json"
        assert sorted(manifest["outputs"][1:]) == sorted(f"{t}.csv" for t in CALIBRATION_TABLES)
        assert len(CALIBRATION_TABLES) == 7
        assert main(["calibrate", "--preset", name, "--data", str(synthetic),
                     "--out", str(data)]) == 0
        expected = json.loads((synthetic / "calibration_report.json").read_text())
        replayed = json.loads((data / "calibration_report.json").read_text())
        assert replayed["mode"] == "data"
        assert set(replayed) == self.FIT_KEYS | {"mode", "config_hash", "inputs"}
        # one inversion: the same fits and standard errors to the bit, which are
        # all 0.0 for the exact fits of noise-free tables
        assert {k: replayed[k] for k in self.FIT_KEYS} == {k: expected[k] for k in self.FIT_KEYS}
        errors = [replayed["n_r_err"], *replayed["uncertainties"].values()]
        assert all(e == 0.0 for e in errors) == (noise == "0") and all(e >= 0.0 for e in errors)

    def test_hash_covers_what_produced_the_report(self, tmp_path):
        runs = iter(range(100))

        def config_hash(*args):
            out = tmp_path / f"run{next(runs)}"
            assert main(["calibrate", *args, "--out", str(out)]) == 0
            return json.loads((out / "calibration_report.json").read_text())["config_hash"]

        synthetic = ("--preset", "main-text", "--synthetic")
        base = config_hash(*synthetic, "--noise", "0.01")  # writes the tables to run0
        assert config_hash(*synthetic, "--noise", "0.01") == base
        assert config_hash(*synthetic, "--noise", "0.01", "--lambda-conv", "0.5") != base
        assert config_hash(*synthetic, "--noise", "0.02") != base

        params, baths, config = preset("main-text")
        cfg, wider = tmp_path / "cfg.json", tmp_path / "wider.json"
        save_config(cfg, params, baths, config)
        d = config_to_dict(params, baths, config)
        d["system"]["kappa_internal_hz"] *= 1.01  # kappa sets g0_fit
        wider.write_text(json.dumps(d))
        data = ("--data", str(tmp_path / "run0"))
        base = config_hash("--config", str(cfg), *data)
        assert config_hash("--config", str(cfg), *data) == base
        assert config_hash("--config", str(cfg), *data, "--lambda-conv", "0.5") != base
        assert config_hash("--config", str(wider), *data) != base

    def test_lambda_conv_reaches_synthetic_mode(self, tmp_path):
        reports = []
        for lam in ("0.27", "0.5"):
            out = tmp_path / lam
            assert main(["calibrate", "--preset", "main-text", "--synthetic", "--noise", "0.01",
                         "--lambda-conv", lam, "--out", str(out)]) == 0
            reports.append(json.loads((out / "calibration_report.json").read_text()))
        assert reports[0]["amplifier_floor_fit"] != reports[1]["amplifier_floor_fit"]

    def test_non_positive_temperature_is_named_config_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "thermometry_plus.csv").write_text(
            "# temperature_k,power_ratio\n0.02,1.5e-6\n0.0,2.5e-6\n0.1,7.0e-6\n")
        rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: thermometry_plus.csv: temperature must be positive, "
                              "got 0.0 K")
        assert "Traceback" not in err

    @pytest.mark.parametrize("table, ratio, message", [
        ("thermometry_plus", "0.0", "the power ratios give a conversion slope of 0,"),
        ("thermometry_minus", "0.0", "the power ratios give a conversion slope of 0,"),
        # a subnormal slope, which a zero check misses: minus/plus would be inf
        ("thermometry_plus", "1e-315", "its conversion slope, 1.35677e-318, is too small")])
    def test_degenerate_conversion_slope(self, tmp_path, capsys, table, ratio, message):
        # the tables of a synthetic run, with every power ratio of one thermometry table set
        data = synthetic_tables_with(tmp_path, table, ratio)
        capsys.readouterr()
        rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"DegenerateData: {table}.csv: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table", ["linewidth_vs_power", "s21_db", "output_floor"])
    def test_overflowing_table_is_degenerate_data(self, tmp_path, capsys, table):
        # every value of one table at 1e308: its fit overflows, which numpy
        # would print as a RuntimeWarning before a report of meaningless fits
        data = synthetic_tables_with(tmp_path, table, "1e308")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"DegenerateData: {table}.csv: "
                                           "floating-point overflow in its fit\n")
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table, value, n_rows, error", [
        ("sideband_anti_stokes", "1e308", None,
         "DegenerateData: sideband_anti_stokes.csv: flat spectrum: no peak to fit"),
        ("linewidth_vs_power", None, 1, "DegenerateData: {path}: column 1, power, "
         "must hold at least 2 distinct values, got 1"),
        ("s21_db", None, 1, "DegenerateData: {path}: column 1, freq_hz, "
         "must hold at least 5 distinct values, got 1"),
        ("output_floor", None, 1, "DegenerateData: {path}: column 1, freq_hz, "
         "must hold at least 2 distinct values, got 1"),
        ("thermometry_plus", None, 1, "DegenerateData: {path}: column 1, temperature_k, "
         "must hold at least 2 distinct values, got 1"),
    ], ids=["flat-sideband", "one-row-linewidth", "one-row-s21", "one-row-floor",
            "one-row-thermometry"])
    def test_a_fit_error_names_its_table(self, tmp_path, capsys, table, value, n_rows, error):
        # every error names the table once, keeping its class and exit code: the
        # reader by the file's path, the inversion for a fit that does not know it
        data = synthetic_tables_with(tmp_path, table, value, n_rows)
        capsys.readouterr()
        rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == error.format(path=data / f"{table}.csv") + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table, every, value, column, domain", [
        ("linewidth_vs_power", False, "-25.0", "gamma_tot_hz", "> 0"),
        ("linewidth_vs_power", True, "0.0", "gamma_tot_hz", "> 0"),
        ("sideband_stokes", False, "-0.5", "value_quanta", "> 0"),
        ("thermometry_minus", False, "-1e-07", "power_ratio", ">= 0"),
    ], ids=["negative-linewidth", "all-zero-linewidths", "negative-sideband-quanta",
            "negative-power-ratio"])
    def test_a_value_outside_its_domain_is_named_config_error(self, tmp_path, capsys, table,
                                                              every, value, column, domain):
        # the tables of a synthetic run with one value of a table (its line 4), or
        # every value, where no measurement can be; each fit would return a report
        data = synthetic_tables_with(tmp_path, table, value if every else None)
        path = data / f"{table}.csv"
        if not every:
            lines = path.read_text().splitlines()
            lines[3] = f"{lines[3].split(',')[0]},{value}"
            path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"ConfigError: {path}:{2 if every else 4}: column 2, "
                                           f"{column}, must be {domain}, got {float(value)!r}\n")
        assert not (tmp_path / "out").exists()

    def test_malformed_csv_is_named_config_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "linewidth_vs_power.csv").write_text(
            "# power,gamma_tot_hz\n1000.0,12.5\n10000.0,n/a\n100000.0,260.0\n")
        rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ")
        assert "linewidth_vs_power.csv:3" in err
        assert "Traceback" not in err


def _with_cell(value):
    """The case that sets the value of the middle row to ``value``."""
    def case(x, y):
        y = list(y)
        y[len(y) // 2] = value
        return x, y
    return case


#: the cases of `TestTableFuzz`: a table's (x, y) columns -> the columns its file holds
TABLE_CASES = {
    "header-only": lambda x, y: ([], []),
    "one-row": lambda x, y: (x[:1], y[:1]),
    "two-rows": lambda x, y: (x[:2], y[:2]),
    **{f"cell-{value}": _with_cell(value) for value in ("nan", "inf", "-inf", "1e308", "1e-300")},
    "zeros": lambda x, y: (x, ["0.0"] * len(y)),
    "negatives": lambda x, y: (x, [repr(-float(v)) for v in y]),
    "duplicate-x": lambda x, y: ([x[0]] * len(x), y),
    "reversed": lambda x, y: (x[::-1], y[::-1]),
}


def write_table(directory, table, x, y):
    """``table`` as the file `calibrate --data` reads, with the cells ``x`` and ``y``."""
    path = directory / f"{table}.csv"
    rows = [CALIBRATION_TABLES[table][0], *(f"{a},{b}" for a, b in zip(x, y))]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestTableFuzz:
    """Each calibration table of a synthetic main-text run, alone in its directory and
    broken in one of `TABLE_CASES`, through `calibrate --data`: a strict-JSON report, or
    exit 2 or 3 with the error and the table named on the last stderr line; never a
    traceback or a warning."""

    @pytest.fixture(scope="class")
    def columns(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("synthetic")
        assert main(["calibrate", "--preset", "main-text", "--synthetic", "--seed", "1",
                     "--out", str(out)]) == 0
        return {name: tuple([repr(float(v)) for v in column]
                            for column in read_xy_csv(out / f"{name}.csv"))
                for name in CALIBRATION_TABLES}

    @pytest.mark.parametrize("case", TABLE_CASES)
    @pytest.mark.parametrize("table", CALIBRATION_TABLES)
    def test_report_or_named_error(self, tmp_path, capsys, columns, table, case):
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        write_table(data, table, *TABLE_CASES[case](*columns[table]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in err
        if rc == 0:
            strict_json((out / "calibration_report.json").read_text())
        else:
            assert rc in (2, 3)
            assert re.match(rf"[A-Z]\w+: .*{table}\.csv", err.splitlines()[-1])
            assert not out.exists()

    @pytest.mark.parametrize("table, case, error", [
        ("s21_db", "duplicate-x", "DegenerateData: {path}: column 1, freq_hz, "
         "must hold at least 5 distinct values, got 1"),
        ("thermometry_plus", "duplicate-x", "DegenerateData: {path}: column 1, temperature_k, "
         "must hold at least 2 distinct values, got 1"),
        ("thermometry_minus", "duplicate-x", "DegenerateData: {path}: column 1, temperature_k, "
         "must hold at least 2 distinct values, got 1"),
        ("output_floor", "zeros", "ConfigError: {path}:2: column 2, value, must be > 0, got 0.0"),
        ("output_floor", "negatives",
         "ConfigError: {path}:2: column 2, value, must be > 0, got {negated_first}"),
    ], ids=["s21-one-frequency", "thermometry-plus-one-temperature",
            "thermometry-minus-one-temperature", "floor-zeros", "floor-negated"])
    def test_a_table_without_a_meaningful_fit_is_refused(self, tmp_path, capsys, columns,
                                                         table, case, error):
        # each of these tables fits to a report that means nothing: a shunt
        # capacitance 3 times the true one, a conversion slope 5.5 times it, or
        # a negative n_r and amplifier floor
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        path = write_table(data, table, *TABLE_CASES[case](*columns[table]))
        rc = main(["calibrate", "--preset", "main-text", "--data", str(data),
                   "--out", str(out)])
        assert rc == 2
        negated_first = repr(-float(columns[table][1][0]))
        assert capsys.readouterr().err == error.format(path=path,
                                                       negated_first=negated_first) + "\n"
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--points", "-1"], "ConfigError: --points must be at least 2, got -1"),
    (["spectrum", "--mode", "single", "--points", "1"],
     "ConfigError: --points must be at least 2, got 1"),
    (["oracle-compare", "--trajectories", "0"],
     "ConfigError: --trajectories must be at least 1, got 0"),
    (["oracle-compare", "--segments", "0"], "ConfigError: --segments must be at least 1, got 0"),
    (["oracle-compare", "--segments", "-5"], "ConfigError: --segments must be at least 1, got -5"),
    (["calibrate", "--synthetic", "--noise", "nan"],
     "ConfigError: noise_level must be >= 0 and finite, got nan"),
    (["calibrate", "--synthetic", "--noise", "-1"],
     "ConfigError: noise_level must be >= 0 and finite, got -1.0"),
    (["calibrate", "--synthetic", "--noise", "inf"],
     "ConfigError: noise_level must be >= 0 and finite, got inf"),
    (["calibrate", "--synthetic", "--lambda-conv", "-0.27"],
     "ConfigError: lambda_conv must be strictly positive and finite, got -0.27"),
    (["calibrate", "--synthetic", "--lambda-conv", "0"],
     "ConfigError: lambda_conv must be strictly positive and finite, got 0.0"),
    (["oracle-compare", "--seed", "-1"], "ConfigError: seed must be >= 0, got -1"),
    (["calibrate", "--synthetic", "--seed", "-1"], "ConfigError: seed must be >= 0, got -1"),
    (["calibrate", "--data", "tables", "--seed", "0"],
     "ConfigError: --seed applies to --synthetic only: --data fits the tables as they are"),
    (["calibrate", "--data", "tables", "--noise", "0.01"],
     "ConfigError: --noise applies to --synthetic only: --data fits the tables as they are"),
    (["spectrum", "--span-linewidths", "0"],
     "ConfigError: --span-linewidths must be strictly positive and finite, got 0.0"),
    (["spectrum", "--span-linewidths", "-5"],
     "ConfigError: --span-linewidths must be strictly positive and finite, got -5.0"),
    (["spectrum", "--span-linewidths", "nan"],
     "ConfigError: --span-linewidths must be strictly positive and finite, got nan"),
    (["spectrum", "--mode", "single", "--span-linewidths", "inf"],
     "ConfigError: --span-linewidths must be strictly positive and finite, got inf"),
    # never a count that could be allocated: the bound refuses it before any array
    (["spectrum", "--points", "100000000000"], "ConfigError: the grid is too large: "
     "--points 100000000000 is more than the 1000000-point grid bound\n"),
    (["spectrum", "--span-linewidths", "1e308"], "ConfigError: --span-linewidths 1e+308 is "
     "too wide: the grid would not be finite at gamma_tot = "),
    # a relative-noise factor below zero would make an |S21| magnitude negative
    (["calibrate", "--synthetic", "--noise", "0.3", "--seed", "1"],
     "ConfigError: s21_db.csv: noise_level 0.3 made the table unphysical: row 694 "
     "measures -0.0646 times its true value\n"),
    (["calibrate", "--synthetic", "--noise", "1e308"],
     "ConfigError: linewidth_vs_power.csv: noise_level 1e+308 made the table unphysical: "),
    # the multitone grid's points collapse once shifted to the sidebands at -+delta
    (["spectrum", "--span-linewidths", "1e-300"],
     "ConfigError: --span-linewidths 1e-300 is too narrow: neighbouring grid points coincide "
     "at offsets -+31415.9 rad/s\n"),
], ids=["points-negative", "points-one", "trajectories-zero", "segments-zero",
        "segments-negative", "noise-nan", "noise-negative",
        "noise-inf", "lambda-negative", "lambda-zero", "oracle-seed-negative",
        "calibrate-seed-negative", "data-seed", "data-noise", "span-zero", "span-negative",
        "span-nan", "span-inf", "points-beyond-the-grid-bound", "span-overflow",
        "noise-flips-a-magnitude", "noise-overflow", "span-collapses"])
def test_malformed_number_is_named_config_error(tmp_path, capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([argv[0], "--preset", "si-figure", *argv[1:], "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lam", [1e15, 1e308], ids=["1e15", "1e308"])
def test_lambda_conv_that_hides_n_r_is_degenerate_data(tmp_path, capsys, lam):
    # every floor value rounds to the amplifier floor: the fit used to report
    # its starting guess n_r = 0.1 with a standard error of 0.0
    rc = main(["calibrate", "--preset", "main-text", "--synthetic", "--lambda-conv", repr(lam),
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("DegenerateData: output_floor.csv: its n_r "
                                              f"term cannot move the fit at lambda_conv = {lam:g}: ")
    assert list(tmp_path.iterdir()) == []


#: a cheap run of each command with numeric options; oracle-compare's layout,
#: 16 segments x 2 trajectories, stays inside the golden one
FUZZ_BASE = {"spectrum": ("--preset", "main-text"),
             "oracle-compare": ("--preset", "oracle-demo", "--segments", "16",
                                "--trajectories", "2"),
             "calibrate": ("--preset", "main-text", "--synthetic")}
FUZZ_CASES = [
    (command, action.option_strings[-1], value)
    for command in ("spectrum", "asymmetry", "oracle-compare", "calibrate", "noise-constraint")
    for action in subcommand(command)._actions if action.type in (int, float)
    for value in ("0", "-1", "nan", "inf", "1e308")
    + (("100000000000",) if action.type is int else ("1e-300",))]


@pytest.mark.parametrize("command, flag, value", FUZZ_CASES,
                         ids=[f"{c}{f}={v}" for c, f, v in FUZZ_CASES])
def test_numeric_option_fuzz(tmp_path, capsys, command, flag, value):
    # every numeric option at zero, negative, NaN, infinite and huge values runs
    # or ends in a named error: no traceback, no numpy warning, no other exit code
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, *FUZZ_BASE[command], flag, value, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err and "Warning" not in err
    if rc:
        assert re.match(r"[A-Z]\w+: |sideband-lab [\w-]+: error: ", err.splitlines()[-1])


@pytest.mark.parametrize("command", ["spectrum", "asymmetry", "oracle-compare", "calibrate",
                                     "noise-constraint"])
@pytest.mark.parametrize("source, message", [
    ((), "error: one of the arguments --config --preset is required\n"),
    (("--preset", "si-figure", "--config", "cfg.json"),
     "error: argument --config: not allowed with argument --preset\n"),
], ids=["neither", "both"])
def test_exactly_one_source_is_required(capsys, command, source, message):
    mode = ["--synthetic"] if command == "calibrate" else []
    assert main([command, *source, *mode]) == 2
    err = capsys.readouterr().err
    assert err.endswith(message)
    assert "Traceback" not in err


#: the other commands that write files, each with a small base run
WRITERS = {"oracle-compare": ("--preset", "oracle-demo", "--segments", "20", "--trajectories", "2"),
           "calibrate": ("--preset", "main-text", "--synthetic", "--noise", "0.01")}


@pytest.mark.parametrize("command, flag, value", [
    (command, *variant) for command, base in WRITERS.items()
    for variant in option_variants(command, base)])
def test_every_option_that_changes_an_output_changes_the_hash(tmp_path, capsys,
                                                              command, flag, value):
    def run(*extra):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main([command, *WRITERS[command], *extra, "--out", str(out)]) == 0
        files = {}
        for path in out.iterdir():
            files[path.name] = path.read_bytes()
            if path.suffix == ".json":  # all but the measured seconds and the hash itself
                files[path.name] = json.loads(files[path.name])
                files[path.name].pop("timings_s", None)
                files[path.name].pop("config_hash")
        return files, json.loads((out / "manifest.json").read_text())["config_hash"]

    (files, digest), (changed, changed_digest) = run(), run(flag, value)
    assert changed != files  # each of these options changes an output
    assert changed_digest != digest


@pytest.mark.parametrize("fields", [{"n_photons": 1e5, "coupling_hz": 1e3}, {}],
                         ids=["both", "neither"])
def test_tone_needs_exactly_one_strength(tmp_path, capsys, fields):
    d = config_to_dict(*preset("si-figure"))
    for key in ("n_photons", "coupling_hz"):
        d["tones"][0].pop(key, None)
    d["tones"][0].update(fields)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    assert main(["asymmetry", "--config", str(path)]) == 2
    assert capsys.readouterr().err == \
        "ConfigError: exactly one of n_photons or coupling must be given\n"


PRESET_RUNS = [
    *[["spectrum", "--mode", "single", "--kind", kind, "--sign", sign]
      for kind in ("sym", "normal") for sign in ("red", "blue")],
    *[["spectrum", "--mode", mode, "--kind", kind]
      for mode in ("multitone", "full-rwa") for kind in ("sym", "normal")],
    ["asymmetry"],
    ["noise-constraint"],
    ["calibrate", "--synthetic", "--seed", "2"],
    ["oracle-compare", "--seed", "1", "--segments", "200", "--trajectories", "8"],
]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_and_its_saved_file_are_one_configuration(tmp_path, capsys, name):
    # every command writes the same bytes, manifests and exit code for a
    # preset and for the file it saves, but for the measured seconds
    path = tmp_path / "preset.json"
    save_config(path, *preset(name))

    def untimed(text):
        if not text.startswith("{"):
            return text
        data = json.loads(text)
        data.pop("timings_s", None)
        return data

    def run(argv, source):
        out = tmp_path / argv[0] / source[0]
        writes = argv[0] in ("spectrum", "calibrate", "oracle-compare")
        code = main([argv[0], *source, *argv[1:], *(["--out", str(out)] if writes else [])])
        printed = capsys.readouterr()
        files = {f.name: untimed(f.read_text())
                 for f in (sorted(out.iterdir()) if writes and out.exists() else ())}
        return code, untimed(printed.out.replace(str(out), "<out>")), printed.err, files

    for argv in PRESET_RUNS:
        by_preset = run(argv, ["--preset", name])
        assert run(argv, ["--config", str(path)]) == by_preset, argv
        if "multitone" in argv or "full-rwa" in argv or argv[0] == "oracle-compare":
            assert by_preset[0] == 0, argv  # so that written outputs are compared


@pytest.mark.parametrize("argv, producer, key", [
    (["oracle-compare", "--preset", "oracle-demo", "--segments", "64", "--trajectories", "4"],
     "oracle_compare", "rel_err.anti_stokes"),
    (["calibrate", "--preset", "main-text", "--synthetic"], "run_synthetic_calibration",
     "uncertainties.n_r")], ids=["oracle-compare", "calibrate"])
def test_a_non_finite_report_value_is_a_named_error(tmp_path, capsys, monkeypatch, argv,
                                                     producer, key):
    # the report is serialized, and refused, before any file is written
    real = getattr(cli, producer)

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        *parents, leaf = key.split(".")
        target = result[0] if isinstance(result, tuple) else result
        for part in parents:
            target = target[part]
        target[leaf] = math.nan
        return result

    monkeypatch.setattr(cli, producer, poisoned)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"DegenerateData: {key} is nan, which strict JSON cannot hold\n"
    assert captured.out == ""
    assert not (out / "manifest.json").exists()


def test_unwritable_out_is_named_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["spectrum", "--preset", "si-figure", "--out", str(blocker / "sub")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("NotADirectoryError: ")


class TestOracleCompareCommand:
    def test_writes_report_and_spectra(self, tmp_path, capsys):
        # tiny run on a scaled config: checks plumbing, not statistics
        params, baths, _ = preset("oracle-demo")
        tone = tone_with_gamma_opt(params, 0.2 * params.gamma_m, "red_probe")
        cfg = ToneConfig(tones=(tone,))
        path = tmp_path / "cfg.json"
        save_config(path, params, BathSpec(n_m=30.0), cfg)
        out = tmp_path / "out"
        rc = main(["oracle-compare", "--config", str(path), "--seed", "1",
                   "--trajectories", "8", "--segments", "60", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rng"].startswith("numpy-philox")
        assert (out / "mc_spectrum.csv").exists()
        assert (out / "analytic_spectrum.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"report.json", "mc_spectrum.csv",
                                            "analytic_spectrum.csv"}
        # the layout and stage timers go to both files; the old decimation key is gone
        assert "decimation" not in report
        for key in ("output_step_s", "floquet_slots", "n_output_samples", "timings_s"):
            assert manifest[key] == report[key]
        assert set(report["timings_s"]) == {"propagator_setup", "propagate", "noise", "noise_wait",
                                            "welch", "peaks"}
        timings = report["timings_s"]
        assert timings["noise_wait"] <= timings["noise"] <= timings["propagate"]
        assert all(t >= 0.0 for t in report["timings_s"].values())
        assert report["floquet_slots"] == 1

    @pytest.mark.parametrize("role", ["red_probe", "blue_probe"])
    def test_lone_probe_analytic_spectrum_at_its_peak(self, tmp_path, capsys, role):
        # a lone probe detuned delta from its sideband puts its feature at
        # -delta (red) or +delta (blue): the analytic CSV is centred there too
        # (warm mechanics, so that the red feature is not flat)
        params, baths, pair = preset("oracle-demo")
        lone = ToneConfig(tones=(pair.tone(role),))
        path = tmp_path / "cfg.json"
        save_config(path, params, replace(baths, n_m=5.0), lone)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(path), "--seed", "1",
                     "--trajectories", "4", "--segments", "40", "--out", str(out)]) == 0
        center = -pair.tone(role).detuning_sign * pair.delta(params)
        gamma_tot = lone.gamma_tot(params)
        assert abs(center) > 4.0 * gamma_tot  # far from 0 Hz
        x_hz, y = read_xy_csv(out / "analytic_spectrum.csv")
        assert abs(TWO_PI * x_hz[np.argmax(y)] - center) < gamma_tot
        report = json.loads((out / "report.json").read_text())
        assert abs(report["mc_center"]["peak"] - center) < gamma_tot

    @pytest.mark.parametrize("vacuum", [1.0, 0.0])
    def test_relative_error_against_a_zero_closed_form_is_null(self, tmp_path, capsys, vacuum):
        # a lone red probe on mechanics in its ground state has a feature of
        # weight exactly 0; with every vacuum weight 0 the analytic floor is 0 too
        params, _, pair = preset("oracle-demo")
        path = tmp_path / "cfg.json"
        save_config(path, params, BathSpec(alpha_r=vacuum, alpha_l=vacuum, alpha_i=vacuum,
                                           beta=vacuum), ToneConfig(tones=(pair.tone("red_probe"),)))
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(path), "--segments", "64",
                     "--trajectories", "4", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "report.json").read_text()
        report = strict_json(stdout)
        assert report["analytic_weight"] == {"peak": 0.0}
        assert report["rel_err"] == {"peak": None}
        assert (report["analytic_floor"] == 0.0) == (report["floor_rel_err"] is None) == (vacuum == 0.0)

    def test_gated_probe_pair_stops_before_the_monte_carlo(self, tmp_path, capsys, monkeypatch):
        # the analytic side runs first: the layout of this config alone would
        # be 85 million output steps
        import sideband_lab.langevin as langevin

        def layout(*args, **kwargs):
            raise AssertionError("derived a Monte-Carlo layout for a gated configuration")

        monkeypatch.setattr(langevin.SimConfig, "auto", layout)
        rc = main(["oracle-compare", "--config", tripled_probe_pair(tmp_path),
                   "--trajectories", "8", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ValidityError: detuning gate: ")

    def test_lone_probe_beside_a_cooling_tone_is_a_validity_gate(self, tmp_path, capsys):
        # the single-tone closed form leaves the cooling tone out
        out = tmp_path / "out"
        rc = main(["oracle-compare", "--config", cooling_variant(tmp_path, "lone-red"),
                   "--trajectories", "8", "--segments", "100", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ValidityError: lone-probe gate: ")
        assert not out.exists()

    def test_probe_pair_on_the_sidebands_is_a_separation_gate(self, tmp_path, capsys):
        # oracle-demo's probes rebuilt at delta = 0: the two sidebands share one
        # frequency, which the Monte-Carlo peak measurement cannot separate
        params, baths, _ = preset("oracle-demo")
        path = tmp_path / "cfg.json"
        save_config(path, params, baths,
                    balanced_config(params, delta=0.0, probe_gamma_opt=TWO_PI * 200.0))
        out = tmp_path / "out"
        rc = main(["oracle-compare", "--config", str(path), "--trajectories", "8",
                   "--segments", "100", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ValidityError: sideband separation gate: ")
        assert not out.exists()

    def test_run_length_bound_is_a_config_error(self, tmp_path, capsys):
        rc = main(["oracle-compare", "--preset", "oracle-demo", "--segments", "100000000",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "GiB run-length bound" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers run inline without os.fork")
    def test_a_failed_worker_is_a_named_error(self, tmp_path, capfd, monkeypatch):
        # worker 1 of 2 raises in its forked child, which prints its traceback;
        # the calling process prints only the named error
        import sideband_lab.langevin as langevin

        real_draw = langevin._draw_normals

        def draw(rngs, raw):
            if rngs[0].bit_generator.seed_seq.spawn_key == (4,):  # worker 1's first stream
                raise MemoryError("injected in worker 1")
            real_draw(rngs, raw)

        monkeypatch.setattr(langevin, "_draw_normals", draw)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "out"
        rc = main(["oracle-compare", "--preset", "oracle-demo", "--segments", "16",
                   "--trajectories", "8", "--out", str(out)])
        err = capfd.readouterr().err.splitlines()
        assert rc == 2
        assert err[-1] == "ChildProcessError: forked worker 1 of 2 failed with exit code 1"
        assert err[-2] == "MemoryError: injected in worker 1"  # the end of the child's traceback
        assert sum(line.startswith("Traceback") for line in err) == 1
        assert not out.exists()

    @pytest.mark.parametrize("trajectories", ["1", "8"])  # one worker, or one per CPU
    def test_diverged_oracle_is_a_step_size_error(self, tmp_path, trajectories):
        # in a fresh interpreter, so that stderr shows what every worker prints
        script = f"""
import sys
import sideband_lab.langevin as langevin
from sideband_lab.cli import main

real_propagator = langevin.propagator

def unstable(*args):  # every step multiplies the state by about 1e200
    phi, q, factor = real_propagator(*args)
    return phi * 1e200, q, factor

langevin.propagator = unstable
sys.exit(main(["oracle-compare", "--preset", "oracle-demo", "--segments", "16",
               "--trajectories", "{trajectories}", "--out", {str(tmp_path / "out")!r}]))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True)
        assert done.returncode == 3
        assert done.stderr.endswith("StepSizeError: trajectory diverged: non-finite output samples\n")
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_determinism_across_runs(self, tmp_path):
        params, baths, _ = preset("oracle-demo")
        tone = tone_with_gamma_opt(params, 0.2 * params.gamma_m, "red_probe")
        cfg = ToneConfig(tones=(tone,))
        path = tmp_path / "cfg.json"
        save_config(path, params, BathSpec(n_m=5.0), cfg)
        reports, spectra = [], []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["oracle-compare", "--config", str(path), "--seed", "9",
                  "--trajectories", "4", "--segments", "40", "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            report.pop("timings_s")  # wall-clock stage times, the one field that may differ
            reports.append(report)
            spectra.append((out / "mc_spectrum.csv").read_bytes())
        assert reports[0] == reports[1]
        assert spectra[0] == spectra[1]


def test_commands_run_without_scipy(tmp_path):
    # numpy alone at run time: scipy is a test dependency only; numpy.ma, whose
    # import costs 10-30 ms, stays unloaded too
    script = f"""
import sys
from sideband_lab.cli import main
out = {str(tmp_path)!r}
assert main(["spectrum", "--preset", "si-figure", "--out", out + "/s"]) == 0
assert main(["calibrate", "--preset", "main-text", "--synthetic", "--out", out + "/c"]) == 0
assert main(["oracle-compare", "--preset", "oracle-demo", "--segments", "40",
             "--trajectories", "4", "--out", out + "/o"]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
