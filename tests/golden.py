"""The fixed set of CLI runs whose outputs `golden.json` holds digests of.

Each run goes through `sideband_lab.cli.main` in this process, in a fresh
directory, with its files written under ``out/``; a ``calibrate --data`` run
first writes the tables it reads with the synthetic run of `TABLES`. Its
record is its exit code, its stderr, and the SHA-256 of its stdout and of
every file it wrote.
A JSON object that carries ``timings_s`` (the oracle's report.json,
manifest.json and stdout) is digested without it, re-serialized by
`config.canonical_json`: wall-clock seconds are the one part of an output
that may change between two runs. `scripts/bless_golden.py` rewrites
`golden.json`; `test_golden.py` checks every run against it.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from sideband_lab.cli import main
from sideband_lab.config import canonical_json, save_config
from sideband_lab.presets import PRESET_NAMES

from conftest import equivalence_case

GOLDEN = Path(__file__).with_name("golden.json")
ORACLE = ["--segments", "64", "--trajectories", "4", "--out", "out"]
CALIBRATE = ["calibrate", "--preset", "main-text"]
#: the directory a ``calibrate --data`` run reads -> the synthetic run that writes its tables
TABLES = {"tables": [*CALIBRATE, "--synthetic"],
          "noisy-tables": [*CALIBRATE, "--synthetic", "--noise", "0.01", "--seed", "2"]}

RUNS = {
    **{f"spectrum {mode} {name}": ["spectrum", "--preset", name, "--mode", mode, "--out", "out"]
       for name in PRESET_NAMES for mode in ("single", "multitone", "full-rwa")},
    **{f"spectrum {mode} {name} normal": ["spectrum", "--preset", name, "--mode", mode,
                                          "--kind", "normal", "--out", "out"]
       for name in PRESET_NAMES for mode in ("single", "multitone", "full-rwa")},
    **{f"{command} {name}": [command, "--preset", name]
       for name in PRESET_NAMES for command in ("asymmetry", "noise-constraint")},
    "calibrate synthetic main-text": [*TABLES["tables"], "--out", "out"],
    "calibrate synthetic main-text noise 0.01": [*TABLES["noisy-tables"], "--out", "out"],
    "calibrate synthetic si-figure": ["calibrate", "--preset", "si-figure", "--synthetic",
                                      "--out", "out"],
    # one inversion: the same fits, standard errors included, from the files
    "calibrate data main-text": [*CALIBRATE, "--data", "tables", "--out", "out"],
    "calibrate data main-text noise 0.01": [*CALIBRATE, "--data", "noisy-tables", "--out", "out"],
    "oracle-compare oracle-demo": ["oracle-compare", "--preset", "oracle-demo", *ORACLE],
    # the cooling case of the oracle-equivalence check: 35 Floquet slots
    "oracle-compare cooled": ["oracle-compare", "--config", "cooled.json", *ORACLE],
}


def digest(data: bytes) -> str:
    """SHA-256 of an output; a JSON object with ``timings_s`` is digested without it."""
    if b'"timings_s"' in data:
        doc = json.loads(data)
        del doc["timings_s"]
        data = canonical_json(doc).encode()
    return hashlib.sha256(data).hexdigest()


def run(argv, directory) -> dict:
    """The record of ``main(argv)`` run in ``directory``."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        if "cooled.json" in argv:
            params, baths, config, _ = equivalence_case("cooling")
            save_config("cooled.json", params, baths, config)
        for tables, synthetic in TABLES.items():
            if tables in argv:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([*synthetic, "--out", tables]) == 0
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out = Path("out")
        files = sorted(out.iterdir()) if out.exists() else []
        return {"exit": code, "stderr": stderr.getvalue(),
                "stdout": digest(stdout.getvalue().encode()),
                "files": {path.name: digest(path.read_bytes()) for path in files}}
    finally:
        os.chdir(cwd)
