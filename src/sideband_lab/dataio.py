"""CSV spectrum files, and `dump_json`: the one strict JSON writer of reports and manifests.

Spectrum CSV format: a `# offset_hz,value_quanta` header line, one row per
grid point, offsets in Hz (angular rates divided by 2*pi at this boundary).
Component files add a third column with the component name. The
calibration measurement tables use the same two-column format; their file
names and headers are listed in `CALIBRATION_TABLES`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateData
from .model import TWO_PI, Spectrum

__all__ = [
    "write_spectrum_csv", "read_xy_csv", "write_xy_csv",
    "write_components_csv", "CALIBRATION_TABLES", "read_calibration_tables",
    "write_calibration_tables", "dump_json", "write_manifest", "file_sha256",
]

#: Calibration measurement tables, stored as ``<name>.csv``: name -> (header,
#: the domain of the second column or None for any finite value, the fewest
#: distinct values of the first column that the table's fit needs). Units: pump
#: power (any unit) vs total linewidth in Hz, which is positive; probe
#: frequency in Hz vs |S21| in dB; frequency in Hz vs the positive pump-off
#: detected floor; temperature in K vs sideband-to-through power ratio of the
#: red (plus) or blue (minus) probe, never negative (all zero is a degenerate
#: conversion, which its fit names); each sideband's offset in Hz vs its
#: positive value in quanta, as in spectrum CSVs.
CALIBRATION_TABLES = {
    "linewidth_vs_power": ("# power,gamma_tot_hz", "> 0", 2),
    "s21_db": ("# freq_hz,mag_db", None, 5),
    "output_floor": ("# freq_hz,value", "> 0", 2),
    "thermometry_plus": ("# temperature_k,power_ratio", ">= 0", 2),
    "thermometry_minus": ("# temperature_k,power_ratio", ">= 0", 2),
    "sideband_anti_stokes": ("# offset_hz,value_quanta", "> 0", 20),
    "sideband_stokes": ("# offset_hz,value_quanta", "> 0", 20),
}


def write_xy_csv(path, header: str, x, y) -> None:
    """Two-column CSV; floats are written in shortest-repr form and read back exactly."""
    lines = [header] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_spectrum_csv(path, spec: Spectrum) -> None:
    write_xy_csv(path, "# offset_hz,value_quanta", spec.freq_offsets / TWO_PI, spec.values)


def write_components_csv(path, components: dict[str, Spectrum]) -> None:
    lines = ["# offset_hz,value_quanta,component"]
    for name, spec in components.items():
        for x, v in zip(spec.freq_offsets, spec.values):
            lines.append(f"{float(x) / TWO_PI!r},{float(v)!r},{name}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column numeric CSV with `#` comment lines; returns (x, y) as given.
    A short row or a non-numeric or non-finite cell is a ConfigError naming the line."""
    xs, ys = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"{path}:{lineno}: expected at least two columns, got {line!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric cell in {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(f"{path}:{lineno}: non-finite value in {line!r}")
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ConfigError(f"{path}: no data rows")
    return np.asarray(xs), np.asarray(ys)


def _line_of_row(path, row: int) -> int:
    """The line number of data row ``row`` (from 0) of `read_xy_csv`."""
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [n for n, line in enumerate(lines, start=1) if line and not line.startswith("#")][row]


def read_calibration_tables(directory) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every calibration table present in ``directory``, keyed by table name, held
    to its entry of `CALIBRATION_TABLES`: a value outside its column's domain is a
    ConfigError naming the file, the line and the column, and fewer distinct
    values in column 1 than the table's fit needs is DegenerateData naming the
    file and the column."""
    tables = {}
    for name, (header, domain, fewest) in CALIBRATION_TABLES.items():
        path = Path(directory) / f"{name}.csv"
        if not path.exists():
            continue
        x, y = read_xy_csv(path)
        x_name, y_name = header[2:].split(",")
        outside = np.flatnonzero(y <= 0.0 if domain == "> 0" else y < 0.0) if domain else []
        if len(outside):
            row = outside[0]
            raise ConfigError(f"{path}:{_line_of_row(path, row)}: column 2, "
                              f"{y_name}, must be {domain}, got {float(y[row])!r}")
        distinct = np.unique(x).size
        if distinct < fewest:
            raise DegenerateData(f"{path}: column 1, {x_name}, must hold at least {fewest} "
                                 f"distinct values, got {distinct}")
        tables[name] = x, y
    if not tables:
        expected = ", ".join(f"{name}.csv" for name in CALIBRATION_TABLES)
        raise ConfigError(f"no recognized calibration files in {directory} "
                          f"(expected one of {expected})")
    return tables


def write_calibration_tables(directory, tables: dict) -> list[str]:
    """Write each (x, y) table as ``<name>.csv``; returns the file names."""
    for name, (x, y) in tables.items():
        write_xy_csv(Path(directory) / f"{name}.csv", CALIBRATION_TABLES[name][0], x, y)
    return [f"{name}.csv" for name in tables]


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dump_json(obj) -> str:
    """``obj`` as strict JSON: indent 2, sorted keys, one trailing newline. A value that
    is not a finite number is DegenerateData naming its dotted key path (``rel_err.peak``)."""
    stack = [("", obj)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise DegenerateData(f"{path} is {value}, which strict JSON cannot hold")
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, (list, tuple)) else ())
        stack.extend((f"{path}.{key}".lstrip("."), item) for key, item in items)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_manifest(directory, command: str, config_hash: str, outputs: list[str], *,
                   seed: int | None = None, extra: dict | None = None) -> Path:
    """manifest.json: a CLI run's command, input hash and outputs, ``extra`` at the top level."""
    path = Path(directory) / "manifest.json"
    path.write_text(dump_json({**(extra or {}), "command": command, "config_hash": config_hash,
                               "outputs": outputs, "seed": seed, "tool_version": __version__}))
    return path
