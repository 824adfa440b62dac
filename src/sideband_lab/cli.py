"""Command-line front end.

Subcommands: spectrum, asymmetry, oracle-compare, calibrate,
noise-constraint. All file outputs come with a manifest.json whose hash
covers the fully resolved configuration, so reruns are verifiable.

Exit codes: 0 success, 2 configuration errors and reports that are not
strict JSON (`dataio.dump_json`), 3 validity/stability gate errors (the
gate's exception name is printed verbatim on stderr).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import invert_measurements, run_synthetic_calibration
from .config import describe_run, load_config
from .dataio import (
    dump_json,
    file_sha256,
    read_calibration_tables,
    write_calibration_tables,
    write_components_csv,
    write_manifest,
    write_spectrum_csv,
)
from .errors import GATE_ERRORS, ConfigError, SidebandLabError
from .langevin import oracle_compare
from .linear_response import heisenberg_gap, resonance_correlators
from .model import ToneConfig, _require_positive
from .multitone import (
    averaged_occupation,
    full_rwa_spectrum,
    multitone_spectra,
    sideband_ratio_model,
    sideband_weights,
)
from .presets import PRESET_NAMES, preset
from .scattering import single_tone_spectrum

MAX_POINTS = 10**6  # grid bound of spectrum --points: full-rwa at 10^6 points peaks near 1 GB


def _load(args) -> tuple:
    return load_config(args.config) if args.config else preset(args.preset)


def _add_source_args(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON parameter file")
    source.add_argument("--preset", choices=PRESET_NAMES, help="named parameter set")


def _linewidth_grid(args, gamma_tot: float, center: float) -> np.ndarray:
    """``--points`` offsets over +-``--span-linewidths`` gamma_tot, finite and apart at -+center."""
    if not math.isfinite(2.0 * args.span_linewidths * gamma_tot):
        raise ConfigError(f"--span-linewidths {args.span_linewidths!r} is too wide: the grid "
                          f"would not be finite at gamma_tot = {gamma_tot:.6g} rad/s")
    grid = np.linspace(-args.span_linewidths, args.span_linewidths, args.points) * gamma_tot
    if not all(np.all(np.diff(grid + shift) > 0.0) for shift in (-center, center)):
        raise ConfigError(f"--span-linewidths {args.span_linewidths!r} is too narrow: "
                          f"neighbouring grid points coincide at offsets -+{center:.6g} rad/s")
    return grid


def cmd_spectrum(args) -> int:
    params, baths, config = _load(args)
    if args.points < 2:
        raise ConfigError(f"--points must be at least 2, got {args.points}")
    if args.points > MAX_POINTS:
        raise ConfigError(f"the grid is too large: --points {args.points} is more than the "
                          f"{MAX_POINTS}-point grid bound")
    _require_positive("--span-linewidths", args.span_linewidths)
    kind = {"sym": "symmetrized", "normal": "normal_ordered"}[args.kind]

    if args.mode == "single":
        tone = config.tone(f"{args.sign}_probe")
        if tone is None:
            raise ConfigError(f"config has no {args.sign}_probe tone")
        grid = _linewidth_grid(args, ToneConfig(tones=(tone,)).gamma_tot(params), 0.0)
        spectrum = single_tone_spectrum(params, baths, tone, kind, grid)
    elif args.mode == "multitone":
        grid = _linewidth_grid(args, config.gamma_tot(params), config.delta(params))
        spectrum = multitone_spectra(params, baths, config, kind, grid)
    else:  # full-rwa
        delta = config.delta(params)
        grid = np.linspace(-4.0 * delta, 4.0 * delta, args.points)
        spectrum = full_rwa_spectrum(params, baths, config, grid, kind=kind)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "spectrum.csv"
    write = write_spectrum_csv if args.mode == "single" else write_components_csv
    write(path, spectrum)

    desc = describe_run(params, baths, config, extra={
        "command": "spectrum", "kind": kind, "mode": args.mode, "sign": args.sign,
        "points": args.points, "span_linewidths": args.span_linewidths})
    write_manifest(out, "spectrum", desc["config_hash"], [path.name])
    print(str(path))
    return 0


def cmd_asymmetry(args) -> int:
    params, baths, config = _load(args)
    w_anti, w_stokes = sideband_weights(params, baths, config)  # gated before the pair check
    if not config.has_probe_pair:
        raise ConfigError("asymmetry needs a red_probe + blue_probe pair")
    delta_i = w_stokes - w_anti
    n_bar = averaged_occupation(params, baths, config)
    n_eff = baths.n_eff(params)
    report = {
        "delta_I_sym": delta_i,
        "delta_I_normal": delta_i,
        "n_eff": n_eff,
        "n_bar_m": n_bar,
        "ratio_model": sideband_ratio_model(n_bar - n_eff, n_eff),
        "weights": {"anti_stokes": w_anti, "stokes": w_stokes},
        "config_hash": describe_run(params, baths, config)["config_hash"],
    }
    sys.stdout.write(dump_json(report))
    return 0


def cmd_oracle_compare(args) -> int:
    params, baths, config = _load(args)
    for option, value in (("--segments", args.segments), ("--trajectories", args.trajectories)):
        if value < 1:
            raise ConfigError(f"{option} must be at least 1, got {value}")
    report, mc_spec, analytic = oracle_compare(params, baths, config, n_segments=args.segments,
                                               seed=args.seed, n_trajectories=args.trajectories)
    text = dump_json(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(out / "mc_spectrum.csv", mc_spec)
    write = write_components_csv if config.has_probe_pair else write_spectrum_csv
    write(out / "analytic_spectrum.csv", analytic)
    (out / "report.json").write_text(text)
    outputs = ["report.json", "mc_spectrum.csv", "analytic_spectrum.csv"]
    layout = ("timings_s", "output_step_s", "floquet_slots", "n_output_samples")
    write_manifest(out, "oracle-compare", report["config_hash"], outputs, seed=args.seed,
                   extra={key: report[key] for key in layout})
    sys.stdout.write(text)
    return 0


def cmd_calibrate(args) -> int:
    """Invert measurement tables: synthetic ones (also written as CSVs) or --data files."""
    params, baths, config = _load(args)
    extra = {"command": "calibrate", "lambda_conv": args.lambda_conv}
    if args.synthetic:
        seed = 0 if args.seed is None else args.seed
        noise = 0.0 if args.noise is None else args.noise
        report = run_synthetic_calibration(params, baths, config, lambda_conv=args.lambda_conv,
                                           seed=seed, noise_level=noise)
        tables = report.pop("measurements")
        extra.update(mode="synthetic", seed=seed, noise=noise)
    else:
        for option, value in (("--seed", args.seed), ("--noise", args.noise)):
            if value is not None:
                raise ConfigError(f"{option} applies to --synthetic only: --data fits the "
                                  "tables as they are")
        data = Path(args.data)
        tables = read_calibration_tables(data)
        report = invert_measurements(params, config, tables, lambda_conv=args.lambda_conv)
        report["inputs"] = {f"{name}.csv": file_sha256(data / f"{name}.csv") for name in tables}
        extra.update(mode="data", inputs=report["inputs"])
    report["mode"] = extra["mode"]
    report["config_hash"] = describe_run(params, baths, config, extra=extra)["config_hash"]
    text = dump_json(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "calibration_report.json"
    path.write_text(text)
    outputs = [path.name] + (write_calibration_tables(out, tables) if args.synthetic else [])
    write_manifest(out, "calibrate", report["config_hash"], outputs, seed=extra.get("seed"))
    print(str(path))
    return 0


def cmd_noise_constraint(args) -> int:
    params, baths, config = _load(args)
    tone = config.probe()
    report = {}
    # both sidebands at the probe's strength: the probe and its mirror image
    for name, pump in zip(("red", "blue"), tone.sidebands()):
        noise = resonance_correlators(params, baths, pump)
        gap = heisenberg_gap(noise.s_zz, noise.s_ff, noise.s_zf)
        report[name] = {
            "S_zF": {"re": noise.s_zf.real, "im": noise.s_zf.imag},
            "lhs": gap.lhs,
            "rhs": gap.rhs,
            "gap": gap.gap,
            "satisfied": gap.satisfied,
        }
    report["config_hash"] = describe_run(params, baths, config)["config_hash"]
    sys.stdout.write(dump_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sideband-lab",
        description="Output noise spectra and calibrations of driven cavity "
                    "electro/opto-mechanical systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="write spectrum CSV")
    _add_source_args(p)
    p.add_argument("--kind", choices=("sym", "normal"), default="sym")
    p.add_argument("--mode", choices=("single", "multitone", "full-rwa"), default="multitone")
    p.add_argument("--sign", choices=("red", "blue"), default="red",
                   help="which probe tone --mode single uses")
    p.add_argument("--points", type=int, default=4001)
    p.add_argument("--span-linewidths", type=float, default=25.0,
                   help="half-span of the grid in units of gamma_tot (single/multitone)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("asymmetry", help="integrated sideband asymmetry report")
    _add_source_args(p)
    p.set_defaults(func=cmd_asymmetry)

    p = sub.add_parser("oracle-compare", help="stochastic oracle vs analytic spectra")
    _add_source_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trajectories", type=int, default=64)
    p.add_argument("--segments", type=int, default=2000)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("calibrate", help="run the calibration pipeline")
    _add_source_args(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--synthetic", action="store_true")
    mode.add_argument("--data", help="directory with measurement CSVs")
    p.add_argument("--seed", type=int, help="--synthetic only (default 0)")
    p.add_argument("--noise", type=float, help="--synthetic only (default 0.0)")
    p.add_argument("--lambda-conv", type=float, default=0.27, dest="lambda_conv")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("noise-constraint", help="detector noise inequality report")
    _add_source_args(p)
    p.set_defaults(func=cmd_noise_constraint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GATE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (SidebandLabError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
