#!/usr/bin/env python3
"""The sideband-lab benchmark: one command for every workload and metric.

    python3 bench/run.py --workload cli-analytic --seed 1 --seconds 30 --trace 0

Run it from the repository root. The program is run from source
(``PYTHONPATH=src``), one job at a time by one client (a closed loop), each
job a ``python -m sideband_lab.cli`` subprocess with
``SIDEBAND_LAB_THREADS=1`` writing into a fresh output directory. A run
first times ``SETUP_REPEATS`` fresh-interpreter imports of
``sideband_lab.cli``, then repeats whole rounds of the workload's job list
while another round still fits in ``--seconds`` (always at least one), and
checks every round's outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` replays the
same rounds in this process instead, alternating an untraced and a traced
replay, and reports the per-layer metrics and the tracing overhead. The
last line of stdout is the JSON result; the full report goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer
from workloads import Result

ROOT = Path.cwd()
WORK = Path(".bench_work")
RESULTS = Path(".bench_results")
SETUP_REPEATS = 3
THREADS = "1"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "langevin.integrate_s": "s", "langevin.ns_per_traj_step": "ns",
    "langevin.trajectory_steps": "count", "langevin.kept_step_ratio": "ratio",
    "langevin.output_samples": "count", "langevin.decimation": "count",
    "langevin.welch_segments": "count", "langevin.output_mb": "MB",
    "langevin.psd_s": "s", "langevin.peaks_s": "s", "langevin.oracle_compare_s": "s",
    "langevin.import_s": "s",
    "multitone.spectra_s": "s", "multitone.full_rwa_s": "s", "multitone.weights_s": "s",
    "scattering.single_tone_s": "s", "linear_response.correlators_s": "s",
    "fitting.gauss_newton_s": "s", "fitting.gauss_newton_calls": "count",
    "fitting.gauss_newton_iterations": "count",
    "calibration.synthetic_s": "s", "calibration.fit_s": "s", "calibration.import_s": "s",
    "config.load_s": "s", "config.describe_run_s": "s",
    "dataio.write_csv_s": "s", "dataio.csv_rows_written": "count", "dataio.read_csv_s": "s",
    "dataio.manifest_s": "s",
    "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}
IMPORTED_MODULES = ("cli", "langevin", "calibration")


def job_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH="src", SIDEBAND_LAB_THREADS=THREADS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                        platform.machine())
    except OSError:
        return platform.machine()


def environment(seed: int) -> dict:
    """What a result depends on besides the code, so runs elsewhere cannot pass for these."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "SIDEBAND_LAB_THREADS": THREADS,
        "seed": seed,
    }


# ------------------------------------------------------------------ set-up

def import_seconds(trace: bool) -> list[dict[str, float]]:
    """Per-module import times (s) of fresh interpreters importing the CLI.

    The first import, which may compile bytecode, is a warm-up and is not
    kept. With ``trace`` the interpreter's own ``-X importtime`` table gives
    the cumulative import time of the traced modules too.
    """
    code = ("import time; t = time.perf_counter(); import sideband_lab.cli; "
            "print(time.perf_counter() - t)")
    flags = ["-X", "importtime"] if trace else []
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, *flags, "-c", code], env=job_env(),
                              capture_output=True, text=True, check=True)
        sample = {"setup": float(proc.stdout.split()[-1])}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)sideband_lab\.(\w+)$", line)
            if match and match.group(3) in IMPORTED_MODULES:
                sample[match.group(3)] = int(match.group(1)) * 1e-6
        samples.append(sample)
    return samples[1:]


# ------------------------------------------------------------------ jobs

def _out_dir(job: workloads.Job, round_dir: Path, index: int) -> Path | None:
    return round_dir / f"{index:02d}-{job.name}" if "{out}" in job.args else None


def _argv(job: workloads.Job, out: Path | None) -> list[str]:
    return [arg.replace("{out}", str(out)) for arg in job.args]


def run_subprocess(job: workloads.Job, out: Path | None, logs: Path) -> Result:
    """Run one job as users do; wall time and peak RSS come from its own rusage."""
    stdout_path, stderr_path = logs / f"{job.name}.out", logs / f"{job.name}.err"
    with open(stdout_path, "w") as stdout, open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sideband_lab.cli", *_argv(job, out)],
                                env=job_env(), stdout=stdout, stderr=stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(job, proc.returncode, stdout_path.read_text(), stderr_path.read_text(), out,
                  wall, usage.ru_maxrss / 1024.0)


def run_in_process(job: workloads.Job, out: Path | None, main) -> Result:
    """Replay one job through ``main``; an escaping exception counts as exit 1."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(_argv(job, out))
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return Result(job, code, stdout.getvalue(), stderr.getvalue(), out, wall, None)


def run_round(workload: workloads.Workload, round_dir: Path, runner) -> tuple[list[Result], float, list[str]]:
    """Every job of the workload once, then the output checks (not timed)."""
    round_dir.mkdir(parents=True)
    start = time.perf_counter()
    results = [runner(job, _out_dir(job, round_dir, i)) for i, job in enumerate(workload.jobs)]
    wall = time.perf_counter() - start
    try:
        problems = workload.check({r.job.name: r for r in results if r.ok})
    except Exception as exc:  # a malformed output is a wrong output
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    shutil.rmtree(round_dir)
    return results, wall, problems


def _failure(result: Result) -> str:
    lines = result.stderr.strip().splitlines()
    return f"{result.job.name}: exit {result.exit_code}, {lines[-1] if lines else 'no stderr'}"


# ------------------------------------------------------------------ runs

def timed_run(workload: workloads.Workload, seconds: float, work: Path) -> dict:
    setup = [s["setup"] for s in import_seconds(trace=False)]
    logs = work / "logs"
    logs.mkdir()
    deadline = time.perf_counter() + seconds
    results, walls, problems = [], [], []
    while True:
        round_results, wall, round_problems = run_round(
            workload, work / f"round-{len(walls)}", lambda job, out: run_subprocess(job, out, logs))
        results += round_results
        walls.append(wall)
        problems += round_problems
        if time.perf_counter() + wall > deadline:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1000.0 * statistics.median(r.wall_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "results": results, "rounds": len(walls),
            "problems": problems, "setup_samples_s": setup, "round_walls_s": walls}


def traced_run(workload: workloads.Workload, seconds: float, work: Path) -> dict:
    imports = import_seconds(trace=True)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["SIDEBAND_LAB_THREADS"] = THREADS
    from sideband_lab import cli

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)

    def traced_job(job, out):
        tracer.job = job.name
        return run_in_process(job, out, traced_main)

    deadline = time.perf_counter() + seconds
    results, plain_walls, traced_walls, problems = [], [], [], []
    while True:
        plain, wall, round_problems = run_round(
            workload, work / f"plain-{len(plain_walls)}", lambda job, out: run_in_process(job, out, cli.main))
        plain_walls.append(wall)
        with tracer.instrument():
            traced, traced_wall, traced_problems = run_round(
                workload, work / f"traced-{len(traced_walls)}", traced_job)
        traced_walls.append(traced_wall)
        results += plain + traced
        problems += round_problems + traced_problems
        if time.perf_counter() + wall + traced_wall > deadline:
            break
    metrics = layer_metrics(tracer, imports, len(traced_walls))
    plain_wall, traced_wall = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    return {"metrics": metrics, "units": LAYER_UNITS, "results": results,
            "rounds": len(plain_walls) + len(traced_walls),
            "problems": problems, "spans": tracer.dump(),
            "round_walls_s": {"untraced": plain_walls, "traced": traced_walls}}


def layer_metrics(tracer: Tracer, imports: list[dict[str, float]], rounds: int) -> dict[str, float]:
    """Per-round self times and counts of every layer, from the traced replays."""
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {name: self_s.get(name[:-2], 0.0) / rounds
               for name, unit in LAYER_UNITS.items()
               if unit == "s" and not name.endswith("import_s") and not name.startswith("trace.")}
    metrics["cli.self_s"] = self_s.get("cli.main", 0.0) / rounds
    steps = counts.get("langevin.trajectory_steps", 0)
    metrics.update({
        "langevin.ns_per_traj_step": 1e9 * self_s.get("langevin.integrate", 0.0) / steps if steps else 0.0,
        "langevin.trajectory_steps": steps / rounds,
        "langevin.kept_step_ratio": counts.get("langevin.kept_steps", 0) / steps if steps else 0.0,
        "langevin.output_samples": counts.get("langevin.output_samples", 0) / rounds,
        "langevin.decimation": tracer.gauges.get("langevin.decimation", 0),
        "langevin.welch_segments": counts.get("langevin.welch_segments", 0) / rounds,
        "langevin.output_mb": counts.get("langevin.output_bytes", 0) / rounds / 1e6,
        "fitting.gauss_newton_calls": counts.get("fitting.gauss_newton_calls", 0) / rounds,
        "fitting.gauss_newton_iterations": counts.get("fitting.gauss_newton_iterations", 0) / rounds,
        "dataio.csv_rows_written": counts.get("dataio.csv_rows_written", 0) / rounds,
    })
    for module in IMPORTED_MODULES:
        metrics[f"{module}.import_s"] = statistics.median(sample[module] for sample in imports)
    return metrics


# ------------------------------------------------------------------ report

def report(workload: workloads.Workload, args, env: dict, run: dict) -> dict:
    results = run["results"]
    failed = [r for r in results if not r.ok]
    lines = [
        f"sideband-lab benchmark: workload {workload.name}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        f"rounds {run['rounds']} of {len(workload.jobs)} jobs: attempted {len(results)}, "
        f"failed {len(failed)}",
        *sorted({f"  failed  {_failure(r)}" for r in failed}),
        *[f"  wrong   {p}" for p in run["problems"]],
        *[f"{name:34s} {value:.6g} {run['units'][name]}" for name, value in run["metrics"].items()],
        f"correct: {str(not run['problems']).lower()}",
    ]
    print("\n".join(lines))
    return {
        "correct": not run["problems"],
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in run["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test only: minimal oracle layouts, too short for the checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sideband_lab" / "cli.py").is_file():
        print(f"no sideband_lab sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.write_inputs(work / "inputs", args.seed)
        workload = workloads.make(args.workload, args.seed, work / "inputs", small=args.small)
        run = (traced_run if args.trace else timed_run)(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(workload, args, env, run)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "environment": env, "workload": workload.name, "why": workload.why,
              "rounds": run["rounds"], "problems": run["problems"],
              "round_walls_s": run["round_walls_s"], "setup_samples_s": run.get("setup_samples_s"),
              "jobs": [{"name": r.job.name, "exit_code": r.exit_code, "ok": r.ok, "wall_s": r.wall_s,
                        "rss_mb": r.rss_mb, "stdout": r.stdout[-4000:]} for r in run["results"]]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in run:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
