"""The benchmark's workloads: inputs made from the seed, job lists and output checks.

A job is one ``python -m sideband_lab.cli`` invocation. An argument
``{out}`` stands for a fresh output directory; config files and calibration
CSVs come from the inputs directory that `write_inputs` fills.
Each workload's ``check`` looks at the outputs of every job that succeeded
and returns the problems it found; an empty list means the outputs are right.
Reference values come from `physics`, never from the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import physics
from physics import TWO_PI, System

#: Welch layout of acceptance criterion 1.
IMBALANCE_LAYOUT = {"segments": 4000, "trajectories": 128}
#: Sized so one cooled-oracle job takes about 22 s on one thread; 250
#: trajectories of 4 segments each cost fewer steps than 64 of 16.
COOLING_LAYOUT = {"segments": 1000, "trajectories": 250}
#: Minimal layouts for the self-test: they exercise every code path in
#: seconds but are far too short to reach the accuracy the checks demand.
SMALL_LAYOUT = {"segments": 16, "trajectories": 8}

LAMBDA_CONV = 0.27  # the CLI's default --lambda-conv
AMPLIFIER_FLOOR = 12.0
CAL_NOISE = 0.01

#: Recovery tolerances of the calibration checks, per input noise level.
#: At 1% noise the fit errors have standard deviations of 0.22% (g0),
#: 0.86% (gamma_m), 0.23% (C_out) and 0.014 (n_r, absolute); the
#: tolerances sit at about seven of them.
CAL_TOLERANCE = {
    0.0: {"g0": 1e-9, "gamma_m": 1e-9, "c_out": 1e-9, "n_r": 1e-9},
    CAL_NOISE: {"g0": 0.015, "gamma_m": 0.06, "c_out": 0.016, "n_r": 0.1},
}


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]
    exit_code: int = 0
    #: error names accepted as the first word of stderr's last line when
    #: the job is meant to stop at a gate
    errors: tuple[str, ...] = ()


@dataclass
class Result:
    job: Job
    exit_code: int
    stdout: str
    stderr: str
    out: Path | None
    wall_s: float
    rss_mb: float | None  # peak resident set of the job's process; None when replayed in-process

    @property
    def ok(self) -> bool:
        """The job ended as it must: expected exit code, named error, no traceback."""
        if self.exit_code != self.job.exit_code or "Traceback" in self.stderr:
            return False
        if not self.job.errors:
            return True
        lines = self.stderr.strip().splitlines()
        return bool(lines) and lines[-1].split(":", 1)[0] in self.job.errors


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]
    check: Callable[[dict[str, Result]], list[str]]


# --------------------------------------------------------------------- inputs

def _calibration_truth(rng: np.random.Generator) -> dict:
    return {
        "g0": TWO_PI * rng.uniform(12.0, 20.0),
        "gamma_m": TWO_PI * rng.uniform(8.0, 12.0),
        "c_out": rng.uniform(1.5e-15, 3.5e-15),
        "n_r": rng.uniform(0.1, 0.5),
    }


def _write_xy(path: Path, header: str, x, y) -> None:
    rows = [header] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(rows) + "\n")


def _write_calibration_csvs(directory: Path, sys_: System, truth: dict, noise: float,
                            rng: np.random.Generator) -> None:
    """The three measurement files of ``calibrate --data``, made from ``truth``
    with forward models of this module and relative Gaussian noise."""
    directory.mkdir(parents=True)

    def noisy(values):
        values = np.asarray(values, dtype=float)
        return values * (1.0 + noise * rng.standard_normal(values.shape)) if noise else values

    n_p = np.logspace(3, 7, 9)
    gamma_tot = sys_.linewidth(n_p, truth["g0"], truth["gamma_m"])
    _write_xy(directory / "linewidth_vs_power.csv", "# power,gamma_tot_hz", n_p, noisy(gamma_tot) / TWO_PI)

    span = 10.0 * (sys_.omega_m + sys_.delta)
    omega = sys_.omega_c + np.linspace(-span, span, 801)
    mag = noisy([sys_.s21_shunt_mag(w, truth["c_out"]) for w in omega])
    _write_xy(directory / "s21_db.csv", "# freq_hz,mag_db", omega / TWO_PI, 20.0 * np.log10(mag))

    offsets = np.linspace(-2.0 * sys_.kappa, 2.0 * sys_.kappa, 401)
    floor = noisy(sys_.output_floor(offsets, truth["n_r"], AMPLIFIER_FLOOR, LAMBDA_CONV))
    _write_xy(directory / "output_floor.csv", "# freq_hz,value", (sys_.omega_c + offsets) / TWO_PI, floor)
    (directory / "truth.json").write_text(json.dumps({**truth, "noise": noise}, indent=2) + "\n")


def write_inputs(inputs: Path, seed: int) -> None:
    """Config files and calibration CSVs of every workload. Same seed, same files."""
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "cooling.json").write_text(json.dumps(physics.COOLING, indent=2) + "\n")
    (inputs / "two_port.json").write_text(json.dumps(physics.TWO_PORT, indent=2) + "\n")
    rng = np.random.default_rng([seed, 20140412])
    main, si = System(physics.PRESETS["main-text"]), System(physics.PRESETS["si-figure"])
    clean = {"g0": main.g0, "gamma_m": main.gamma_m, "c_out": physics.SYNTHETIC_C_OUT, "n_r": 0.34}
    _write_calibration_csvs(inputs / "cal-clean", main, clean, 0.0, rng)
    _write_calibration_csvs(inputs / "cal-noisy-main", main, _calibration_truth(rng), CAL_NOISE, rng)
    _write_calibration_csvs(inputs / "cal-noisy-si", si, _calibration_truth(rng), CAL_NOISE, rng)
    # A non-numeric cell: fixed content, independent of the seed.
    bad = inputs / "cal-malformed"
    bad.mkdir()
    (bad / "linewidth_vs_power.csv").write_text(
        "# power,gamma_tot_hz\n1000.0,12.5\n10000.0,n/a\n100000.0,260.0\n")


# --------------------------------------------------------------------- readers

def _xy(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", comments="#", usecols=(0, 1), ndmin=2)
    return data[:, 0], data[:, 1]


def _components(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rows: dict[str, list[tuple[float, float]]] = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            x, v, name = line.split(",")
            rows.setdefault(name, []).append((float(x), float(v)))
    return {name: (np.array([r[0] for r in pts]), np.array([r[1] for r in pts]))
            for name, pts in rows.items()}


def _json_out(result: Result) -> dict:
    return json.loads(result.stdout)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# --------------------------------------------------------------------- checks

def trapezoid_weight(f_hz: np.ndarray, values: np.ndarray, floor: float, center_hz: float) -> float:
    """Integral df of (values - floor), plus the 1/f^2 tails beyond the grid."""
    v = values - floor
    weight = float(np.sum((v[1:] + v[:-1]) * np.diff(f_hz)) / 2.0)
    return weight + v[0] * abs(f_hz[0] - center_hz) + v[-1] * abs(f_hz[-1] - center_hz)


def check_half_offset(sym: Path, normal: Path) -> list[str]:
    """Symmetrized minus normal-ordered is exactly the vacuum 1/2 at every point."""
    (xs, vs), (xn, vn) = _xy(sym), _xy(normal)
    if xs.shape != xn.shape or not np.array_equal(xs, xn):
        return [f"{sym.parent.name}: sym and normal grids differ"]
    worst = float(np.max(np.abs(vs - vn - 0.5)))
    return [] if worst <= 1e-9 else [f"{sym.parent.name}: sym - normal deviates from 1/2 by {worst:.3g}"]


def check_full_rwa(path: Path) -> list[str]:
    """The full-RWA total is the sum of its four components at every point."""
    comps = _components(path)
    parts = ("floor", "mixing", "stokes", "anti_stokes")
    if set(comps) != {"total", *parts}:
        return [f"{path}: components {sorted(comps)}"]
    total = comps["total"][1]
    summed = sum(comps[name][1] for name in parts)
    worst = float(np.max(np.abs(total - summed) / np.maximum(np.abs(total), 1.0)))
    return [] if worst <= 1e-12 else [f"{path}: total differs from component sum by {worst:.3g}"]


def check_multitone_weights(path: Path, asym: dict, sys_: System, tol: float = 1e-3) -> list[str]:
    """Tail-corrected trapezoid weight of each multitone peak matches ``asymmetry``."""
    comps = _components(path)
    problems = []
    for name, center in (("anti_stokes", -sys_.delta), ("stokes", sys_.delta)):
        f_hz, values = comps[name]
        weight = trapezoid_weight(f_hz, values, sys_.floor, center / TWO_PI)
        reported = asym["weights"][name]
        if _rel(weight, reported) > tol:
            problems.append(f"{path.parent.name}: {name} trapezoid {weight:.6g} vs asymmetry {reported:.6g}")
    return problems


def check_asymmetry(report: dict, sys_: System, label: str) -> list[str]:
    """Reported weights and occupations equal the closed forms to 1e-9."""
    anti, stokes = sys_.sideband_weights()
    expected = {"anti_stokes": anti, "stokes": stokes}
    problems = [f"{label}: {name} weight {report['weights'][name]:.12g} vs {expected[name]:.12g}"
                for name in expected if _rel(report["weights"][name], expected[name]) > 1e-9]
    for key, value in (("n_eff", sys_.n_eff), ("n_bar_m", sys_.n_bar)):
        if abs(report[key] - value) > 1e-9 * max(1.0, abs(value)):
            problems.append(f"{label}: {key} {report[key]:.12g} vs {value:.12g}")
    return problems


def check_quantum_imbalance(report: dict, sys_: System) -> list[str]:
    """oracle-demo has vacuum baths, so (w_S - w_AS) / ((kappa_r/kappa) gamma_opt) = 1."""
    anti, stokes = report["weights"]["anti_stokes"], report["weights"]["stokes"]
    scale = sys_.pref * sys_.gamma_plus
    problems = []
    for label, value in (("weights", (stokes - anti) / scale), ("delta_I_sym", report["delta_I_sym"] / scale)):
        if abs(value - 1.0) > 1e-9:
            problems.append(f"oracle-demo imbalance from {label} is {value:.12g}, not 1")
    return problems


def check_noise_constraint(report: dict, label: str) -> list[str]:
    return [f"{label}: {side} gap {report[side]['gap']:.6g} < 0"
            for side in ("red", "blue") if not report[side]["gap"] >= 0.0]


def check_calibration(report: dict, truth: dict, noise: float, label: str) -> list[str]:
    """Recovered g0, gamma_m, C_out (relative) and n_r (absolute) against the truth."""
    tol = CAL_TOLERANCE[noise]
    fits = {"g0": "g0_fit", "gamma_m": "gamma_m_fit", "c_out": "c_out_fit", "n_r": "n_r_fit"}
    problems = []
    for name, key in fits.items():
        err = abs(report[key] - truth[name]) if name == "n_r" else _rel(report[key], truth[name])
        if not err <= tol[name]:
            problems.append(f"{label}: {name} off by {err:.3g} (tolerance {tol[name]})")
    return problems


def check_manifest(result: Result) -> list[str]:
    manifest = json.loads((result.out / "manifest.json").read_text())
    missing = [name for name in manifest["outputs"] if not (result.out / name).is_file()]
    return [f"{result.job.name}: manifest names missing outputs {missing}"] if missing else []


def spectrum_floor(f_hz: np.ndarray, values: np.ndarray, sys_: System, exclusion: float) -> float:
    """Median of a Monte-Carlo spectrum farther than ``exclusion`` from both sidebands."""
    omega = TWO_PI * f_hz
    far = (np.abs(omega - sys_.delta) > exclusion) & (np.abs(omega + sys_.delta) > exclusion)
    return float(np.median(values[far]))


def mc_weights(f_hz: np.ndarray, values: np.ndarray, sys_: System, half_window: float,
               floor: float) -> dict[str, float]:
    """Lorentzian weights of both sidebands, measured from a Monte-Carlo spectrum.

    The sum above the floor over the window around each sideband holds the
    share of its own Lorentzian (full width gamma_tot) that falls inside the
    window plus the share of the mirror sideband's Lorentzian that leaks in;
    solving the two window sums for both weights removes both. The twin-peak
    mixing term of the full solution is even in the offset: it adds the same
    amount to both windows, so it cancels in the difference of the weights,
    and on the cooled configuration it is under 1e-4 of either weight.
    """
    omega = TWO_PI * f_hz
    step = float(np.median(np.diff(omega)))
    centers = {"anti_stokes": -sys_.delta, "stokes": sys_.delta}
    sums, own, leak = {}, {}, {}
    for name, center in centers.items():
        inside = np.abs(omega - center) <= half_window
        sums[name] = float(np.sum(values[inside] - floor)) * step / TWO_PI
        lo, hi = omega[inside][0] - step / 2.0, omega[inside][-1] + step / 2.0
        own[name] = physics.lorentzian_fraction(lo, hi, center, sys_.gamma_tot)
        leak[name] = physics.lorentzian_fraction(lo, hi, -center, sys_.gamma_tot)
    a, s = "anti_stokes", "stokes"
    det = own[a] * own[s] - leak[a] * leak[s]
    return {a: (own[s] * sums[a] - leak[a] * sums[s]) / det,
            s: (own[a] * sums[s] - leak[s] * sums[a]) / det}


def _mc_spectrum(result: Result, sys_: System) -> tuple[dict[str, float], float]:
    """(weights, floor) of the job's mc_spectrum.csv.

    The windows span +-4 gamma_tot, half the oracle's own: they still hold
    92% of each Lorentzian, and less of the far wings, where the cavity's
    filtering bends the sidebands away from a Lorentzian. On ten
    oracle-demo seeds this moved the mean imbalance from 0.992 to 0.996
    at the same spread. The floor is taken beyond +-12 gamma_tot.
    """
    f_hz, values = _xy(result.out / "mc_spectrum.csv")
    floor = spectrum_floor(f_hz, values, sys_, 12.0 * sys_.gamma_tot)
    return mc_weights(f_hz, values, sys_, 4.0 * sys_.gamma_tot, floor), floor


def check_imbalance_oracle(result: Result, sys_: System, min_segments: int = 2000) -> list[str]:
    """Criterion 1 on the Monte-Carlo spectrum: imbalance within 0.05 of 1, floor within 2%."""
    report = _json_out(result)
    weights, floor = _mc_spectrum(result, sys_)
    imbalance = (weights["stokes"] - weights["anti_stokes"]) / (sys_.pref * sys_.gamma_plus)
    problems = []
    if abs(imbalance - 1.0) > 0.05:
        problems.append(f"Monte-Carlo imbalance {imbalance:.4f} is not within 0.05 of 1")
    if _rel(floor, sys_.floor) > 0.02:
        problems.append(f"Monte-Carlo floor {floor:.5f} is not within 2% of {sys_.floor}")
    if report["n_segments"] < min_segments:
        problems.append(f"only {report['n_segments']} Welch segments")
    return problems


def check_cooling_oracle(result: Result, sys_: System) -> list[str]:
    """Both weights within 5% of the brackets, floor within 2%, centres within gamma_tot/10."""
    report = _json_out(result)
    weights, floor = _mc_spectrum(result, sys_)
    expected = dict(zip(("anti_stokes", "stokes"), sys_.sideband_weights()))
    centers = {"anti_stokes": -sys_.delta, "stokes": sys_.delta}
    problems = []
    for name, weight in expected.items():
        if _rel(weights[name], weight) > 0.05:
            problems.append(f"{name} Monte-Carlo weight {weights[name]:.5g} not within 5% of {weight:.5g}")
        if abs(report["mc_center"][name] - centers[name]) > sys_.gamma_tot / 10.0:
            problems.append(f"{name} centre {report['mc_center'][name]:.6g} not within gamma_tot/10 "
                            f"of {centers[name]:.6g}")
    if _rel(floor, sys_.floor) > 0.02:
        problems.append(f"Monte-Carlo floor {floor:.5f} not within 2% of {sys_.floor:.5f}")
    return problems


# --------------------------------------------------------------------- workloads

def _oracle(name: str, source: tuple[str, ...], layout: dict, seed: int,
            check: Callable[[Result], list[str]]) -> Workload:
    job = Job("oracle-compare", ("oracle-compare", *source, "--seed", str(seed),
                                 "--segments", str(layout["segments"]),
                                 "--trajectories", str(layout["trajectories"]), "--out", "{out}"))

    def check_all(results: dict[str, Result]) -> list[str]:
        result = results.get(job.name)
        return check(result) + check_manifest(result) if result else []

    return Workload(name, WHY[name], (job,), check_all)


def _spectrum_jobs(source: tuple[str, ...], label: str, variants) -> list[Job]:
    """Both orderings of each (name, extra arguments) variant of ``spectrum``."""
    jobs = []
    for variant, extra in variants:
        for kind in ("sym", "normal"):
            args = ("spectrum", *source, *extra, "--kind", kind, "--out", "{out}")
            if variant == "blue":  # a lone blue probe anti-damps the device below zero
                jobs.append(Job(f"spectrum-{label}-{variant}-{kind}", args, exit_code=3,
                                errors=("InstabilityError",)))
            else:
                jobs.append(Job(f"spectrum-{label}-{variant}-{kind}", args))
    return jobs


def _cli_analytic(seed: int, inputs: Path) -> Workload:
    device_modes = (("red", ("--mode", "single", "--sign", "red")),
                    ("blue", ("--mode", "single", "--sign", "blue")),
                    ("multitone", ("--mode", "multitone")), ("full-rwa", ("--mode", "full-rwa")))
    cooling = ("--config", str(inputs / "cooling.json"))
    two_port = ("--config", str(inputs / "two_port.json"))
    synthetic = [(p, 0.0, seed) for p in ("main-text", "si-figure")]
    synthetic += [(p, CAL_NOISE, 3 * seed + k) for p in ("main-text", "si-figure") for k in range(3)]

    def data_job(tag: str, **kw) -> Job:
        preset = "si-figure" if tag.endswith("-si") else "main-text"
        return Job(f"calibrate-data-{tag}", ("calibrate", "--preset", preset, "--data",
                                              str(inputs / f"cal-{tag}"), "--out", "{out}"), **kw)

    jobs = [
        *_spectrum_jobs(("--preset", "main-text"), "main-text", device_modes),
        data_job("clean"),
        *_spectrum_jobs(("--preset", "si-figure"), "si-figure", device_modes),
        data_job("noisy-main"),
        *_spectrum_jobs(("--preset", "oracle-demo"), "oracle-demo", device_modes[2:3]),
        Job("spectrum-oracle-demo-full-rwa", ("spectrum", "--preset", "oracle-demo", "--mode",
                                              "full-rwa", "--out", "{out}")),
        # Until read_xy_csv names the bad cell this job escapes with a
        # ValueError traceback and exit 1, and is counted as failed.
        data_job("malformed", exit_code=2, errors=("ConfigError", "DegenerateData")),
        Job("spectrum-cooling-multitone", ("spectrum", *cooling, "--mode", "multitone", "--out", "{out}")),
        Job("asymmetry-cooling", ("asymmetry", *cooling)),
        data_job("noisy-si"),
        *[Job(f"asymmetry-{p}", ("asymmetry", "--preset", p))
          for p in ("main-text", "si-figure", "oracle-demo")],
        Job("noise-constraint-oracle-demo", ("noise-constraint", "--preset", "oracle-demo")),
        Job("noise-constraint-two-port", ("noise-constraint", *two_port)),
        *[Job(f"noise-constraint-{p}", ("noise-constraint", "--preset", p), exit_code=3,
              errors=("ValidityError",)) for p in ("main-text", "si-figure")],
        *[Job(f"calibrate-synthetic-{p}-{noise}-{s}",
              ("calibrate", "--preset", p, "--synthetic", "--seed", str(s), "--noise", str(noise),
               "--out", "{out}")) for p, noise, s in synthetic],
    ]
    systems = {name: System(cfg) for name, cfg in physics.PRESETS.items()}
    systems["cooling"] = System(physics.COOLING)

    def check(results: dict[str, Result]) -> list[str]:
        out = {name: r.out for name, r in results.items()}
        problems: list[str] = []
        for r in results.values():
            if r.out is not None and r.exit_code == 0:
                problems += check_manifest(r)
        for label in ("main-text", "si-figure", "oracle-demo"):
            for stem in ("red", "multitone"):
                sym, normal = f"spectrum-{label}-{stem}-sym", f"spectrum-{label}-{stem}-normal"
                if sym in out and normal in out:
                    problems += check_half_offset(out[sym] / "spectrum.csv", out[normal] / "spectrum.csv")
        for name, path in out.items():
            if "full-rwa" in name:
                problems += check_full_rwa(path / "spectrum.csv")
        for label, sys_ in systems.items():
            asym = results.get(f"asymmetry-{label}")
            if asym is None:
                continue
            report = _json_out(asym)
            problems += check_asymmetry(report, sys_, label)
            spectrum = out.get(f"spectrum-{label}-multitone-sym", out.get(f"spectrum-{label}-multitone"))
            if spectrum is not None:
                problems += check_multitone_weights(spectrum / "spectrum.csv", report, sys_)
            if label == "oracle-demo":
                problems += check_quantum_imbalance(report, sys_)
        for name in ("noise-constraint-oracle-demo", "noise-constraint-two-port"):
            if name in results:
                problems += check_noise_constraint(_json_out(results[name]), name)
        for p, noise, s in synthetic:
            name = f"calibrate-synthetic-{p}-{noise}-{s}"
            if name in results:
                sys_ = systems[p]
                truth = {"g0": sys_.g0, "gamma_m": sys_.gamma_m, "c_out": physics.SYNTHETIC_C_OUT,
                         "n_r": sys_.n_r}
                report = json.loads((out[name] / "calibration_report.json").read_text())
                problems += check_calibration(report, truth, noise, name)
        for tag in ("clean", "noisy-main", "noisy-si"):
            name = f"calibrate-data-{tag}"
            if name in results:
                truth = json.loads((inputs / f"cal-{tag}" / "truth.json").read_text())
                report = json.loads((out[name] / "calibration_report.json").read_text())
                problems += check_calibration(report, truth, truth["noise"], name)
        return problems

    return Workload("cli-analytic", WHY["cli-analytic"], tuple(jobs), check)


WHY = {
    "oracle-imbalance": "criterion 1: the paper's +1 quantum imbalance from the stochastic "
                        "oracle at 4000 segments x 128 trajectories; drives the integrator",
    "oracle-cooling": "same integrator with three rotating phases, a residual cooling frequency, "
                      "thermal mechanics and decimation 87 instead of 45",
    "cli-analytic": "40 analytic CLI jobs that bypass the oracle: import start-up, spectra, "
                    "fits, config hashing and CSV I/O",
}
WORKLOADS = tuple(WHY)


def make(name: str, seed: int, inputs: Path, *, small: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; `write_inputs` must have filled ``inputs``."""
    if name == "cli-analytic":
        return _cli_analytic(seed, inputs)
    if name == "oracle-imbalance":
        demo = System(physics.PRESETS["oracle-demo"])
        return _oracle(name, ("--preset", "oracle-demo"),
                       SMALL_LAYOUT if small else IMBALANCE_LAYOUT, seed,
                       lambda r: check_imbalance_oracle(r, demo))
    if name == "oracle-cooling":
        cooled = System(physics.COOLING)
        return _oracle(name, ("--config", str(inputs / "cooling.json")),
                       SMALL_LAYOUT if small else COOLING_LAYOUT, seed,
                       lambda r: check_cooling_oracle(r, cooled))
    raise KeyError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
