"""Fast self-test of the benchmark: report form, inputs, and checks that reject wrong outputs.

    python3 -m pytest bench -q

The runs use the smallest layouts, so they prove the plumbing, not the
program's accuracy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import physics
import run
import workloads
from physics import TWO_PI, System
from workloads import Job, Result

ROOT = Path(__file__).resolve().parent.parent
DEMO = System(physics.PRESETS["oracle-demo"])
COOLED = System(physics.COOLING)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_form(result: dict, units: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def test_cli_analytic_timed_run():
    result = result_line(bench("--workload", "cli-analytic", "--seed", "5", "--seconds", "1"))
    assert_form(result, run.END_TO_END_UNITS)
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (40, 1)  # the malformed CSV


def test_cli_analytic_traced_run():
    result = result_line(bench("--workload", "cli-analytic", "--seed", "6", "--seconds", "1",
                               "--trace", "1"))
    assert_form(result, run.LAYER_UNITS)
    assert result["correct"]
    assert result["failed"] * 40 == result["attempted"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["fitting.gauss_newton_calls"] > 0 and metrics["dataio.csv_rows_written"] > 0
    assert metrics["cli.import_s"] > metrics["langevin.import_s"] > 0


@pytest.mark.parametrize("workload", ["oracle-imbalance", "oracle-cooling"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_oracle_small_runs(workload, trace):
    result = result_line(bench("--workload", workload, "--seed", "2", "--seconds", "1",
                               "--trace", trace, "--small"))
    assert_form(result, run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS)
    assert result["failed"] == 0
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["langevin.trajectory_steps"] > 0 and metrics["langevin.welch_segments"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "cli-analytic", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        workloads.write_inputs(tmp_path / name, seed)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    assert files
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)


# ------------------------------------------------------------- the checks reject wrong values

def write_mc(out: Path, sys_: System, anti: float, stokes: float, floor: float) -> Result:
    """An oracle job's outputs whose spectrum holds the given sideband weights."""
    out.mkdir()
    step = sys_.gamma_tot / 4.0
    omega = np.arange(-400, 401) * step
    gamma = sys_.gamma_tot

    def lorentzian(center):  # unit weight under d(omega)/2pi
        return gamma / ((omega - center) ** 2 + gamma**2 / 4.0)

    values = floor + anti * lorentzian(-sys_.delta) + stokes * lorentzian(sys_.delta)
    np.savetxt(out / "mc_spectrum.csv", np.column_stack([omega / TWO_PI, values]), delimiter=",")
    report = {"n_segments": 4096, "mc_center": {"anti_stokes": -sys_.delta, "stokes": sys_.delta}}
    return Result(Job("oracle", ()), 0, json.dumps(report), "", out, 1.0, 1.0)


def test_imbalance_check(tmp_path):
    scale = DEMO.pref * DEMO.gamma_plus
    anti = DEMO.sideband_weights()[0]
    assert workloads.check_imbalance_oracle(write_mc(tmp_path / "a", DEMO, anti, anti + scale, 0.5), DEMO) == []
    assert workloads.check_imbalance_oracle(write_mc(tmp_path / "b", DEMO, anti, anti + 0.9 * scale, 0.5), DEMO)
    assert workloads.check_imbalance_oracle(write_mc(tmp_path / "c", DEMO, anti, anti + scale, 1.0), DEMO)


def test_cooling_check(tmp_path):
    anti, stokes = COOLED.sideband_weights()
    assert workloads.check_cooling_oracle(write_mc(tmp_path / "a", COOLED, anti, stokes, 0.5), COOLED) == []
    assert workloads.check_cooling_oracle(write_mc(tmp_path / "b", COOLED, 1.08 * anti, stokes, 0.5), COOLED)
    assert workloads.check_cooling_oracle(write_mc(tmp_path / "c", COOLED, anti, stokes, 1.0), COOLED)
    shifted = write_mc(tmp_path / "d", COOLED, anti, stokes, 0.5)
    shifted.stdout = json.dumps({"mc_center": {"anti_stokes": -COOLED.delta + COOLED.gamma_tot / 5,
                                               "stokes": COOLED.delta}})
    assert workloads.check_cooling_oracle(shifted, COOLED)


def test_calibration_check():
    truth = {"g0": TWO_PI * 16.0, "gamma_m": TWO_PI * 10.0, "c_out": 2.7e-15, "n_r": 0.34}
    report = {"g0_fit": truth["g0"], "gamma_m_fit": truth["gamma_m"], "c_out_fit": truth["c_out"],
              "n_r_fit": truth["n_r"]}
    assert workloads.check_calibration(report, truth, workloads.CAL_NOISE, "ok") == []
    wrong_g0 = {**report, "g0_fit": 1.05 * truth["g0"]}
    assert workloads.check_calibration(wrong_g0, truth, workloads.CAL_NOISE, "g0")
    assert workloads.check_calibration({**report, "n_r_fit": 0.34 + 1e-6}, truth, 0.0, "n_r")


def test_spectrum_checks(tmp_path):
    grid = np.linspace(-1e4, 1e4, 101)
    lor = 1.0 / (1.0 + (grid / 1e3) ** 2)
    for name, values in (("sym", 0.5 + lor), ("normal", lor), ("off", 0.1 + lor)):
        (tmp_path / name).mkdir()
        np.savetxt(tmp_path / name / "s.csv", np.column_stack([grid, values]), delimiter=",")
    assert workloads.check_half_offset(tmp_path / "sym" / "s.csv", tmp_path / "normal" / "s.csv") == []
    assert workloads.check_half_offset(tmp_path / "off" / "s.csv", tmp_path / "normal" / "s.csv")

    comps = {"floor": 0.5 + 0 * grid, "mixing": -0.01 * lor, "stokes": lor, "anti_stokes": 0.5 * lor}
    comps["total"] = sum(comps.values())
    for name, total in (("rwa.csv", comps["total"]), ("bad.csv", comps["total"] + 1e-6)):
        rows = [f"{float(x)!r},{float(v)!r},{c}" for c, values in {**comps, "total": total}.items()
                for x, v in zip(grid, values)]
        (tmp_path / name).write_text("# offset_hz,value_quanta,component\n" + "\n".join(rows) + "\n")
    assert workloads.check_full_rwa(tmp_path / "rwa.csv") == []
    assert workloads.check_full_rwa(tmp_path / "bad.csv")


def test_report_checks():
    anti, stokes = DEMO.sideband_weights()
    scale = DEMO.pref * DEMO.gamma_plus
    report = {"weights": {"anti_stokes": anti, "stokes": stokes}, "delta_I_sym": stokes - anti,
              "n_eff": DEMO.n_eff, "n_bar_m": DEMO.n_bar}
    assert workloads.check_asymmetry(report, DEMO, "demo") == []
    assert workloads.check_quantum_imbalance(report, DEMO) == []
    skewed = {**report, "weights": {"anti_stokes": anti, "stokes": anti + 0.9 * scale}}
    assert workloads.check_asymmetry(skewed, DEMO, "demo")
    assert workloads.check_quantum_imbalance(skewed, DEMO)
    gap = {"red": {"gap": 0.1}, "blue": {"gap": -0.2}}
    assert workloads.check_noise_constraint(gap, "gap") == ["gap: blue gap -0.2 < 0"]


def test_gate_jobs_need_their_named_error():
    gate = Job("gate", (), exit_code=3, errors=("InstabilityError",))
    named = Result(gate, 3, "", "InstabilityError: total damping <= 0\n", None, 0.1, 1.0)
    other = Result(gate, 3, "", "ValidityError: window\n", None, 0.1, 1.0)
    traceback = Result(gate, 1, "", "Traceback (most recent call last):\nValueError: x\n", None, 0.1, 1.0)
    assert named.ok and not other.ok and not traceback.ok
