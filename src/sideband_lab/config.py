"""JSON parameter files: {"system": {...}, "baths": {...}, "tones": [...]}.

All frequencies in config files are plain Hz; the 2*pi conversion to the
angular rates used internally happens here and only here. A file's Hz values
round-trip exactly (floats survive JSON via shortest-repr); a configuration
built in Python in rad/s can move by one ulp through the /2*pi on save and
the *2*pi on load.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .model import TWO_PI, BathSpec, SystemParams, ToneConfig, ToneSpec

__all__ = [
    "params_to_dict", "params_from_dict",
    "baths_to_dict", "baths_from_dict",
    "tones_to_list", "tones_from_list",
    "config_to_dict", "config_from_dict",
    "load_config", "save_config",
    "canonical_json", "config_hash", "describe_run",
]

def params_to_dict(params: SystemParams) -> dict:
    d = {
        "omega_c_hz": params.omega_c / TWO_PI,
        "omega_m_hz": params.omega_m / TWO_PI,
        "g0_hz": params.g0 / TWO_PI,
        "kappa_left_hz": params.kappa_l / TWO_PI,
        "kappa_right_hz": params.kappa_r / TWO_PI,
        "kappa_internal_hz": params.kappa_i / TWO_PI,
        "gamma_m_hz": params.gamma_m / TWO_PI,
    }
    if params.x_zp is not None:
        d["x_zp_m"] = params.x_zp
    return d


def _number(block: str, d: dict, key: str, default: float | None = None):
    """Finite number ``d[key]`` (``default`` if absent, required if None), else ConfigError."""
    if key not in d:
        if default is None:
            raise ConfigError(f"{block} block missing key {key!r}")
        return default
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{block}.{key} must be a finite number, got {value!r}")
    return value


def _object(block: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{block} must be a JSON object, got {type(value).__name__}")
    return value


def params_from_dict(d: dict) -> SystemParams:
    d = _object("system", d)
    return SystemParams.from_hz(
        omega_c_hz=_number("system", d, "omega_c_hz"),
        omega_m_hz=_number("system", d, "omega_m_hz"),
        g0_hz=_number("system", d, "g0_hz"),
        kappa_l_hz=_number("system", d, "kappa_left_hz"),
        kappa_r_hz=_number("system", d, "kappa_right_hz"),
        kappa_i_hz=_number("system", d, "kappa_internal_hz", 0.0),
        gamma_m_hz=_number("system", d, "gamma_m_hz"),
        x_zp_m=None if d.get("x_zp_m") is None else _number("system", d, "x_zp_m"),
    )


def baths_to_dict(baths: BathSpec) -> dict:
    return {
        "n_right": baths.n_r, "n_left": baths.n_l, "n_internal": baths.n_i,
        "n_mech": baths.n_m, "alpha_right": baths.alpha_r, "alpha_left": baths.alpha_l,
        "alpha_internal": baths.alpha_i, "beta": baths.beta,
    }


def baths_from_dict(d: dict) -> BathSpec:
    d = _object("baths", d)
    return BathSpec(
        n_r=_number("baths", d, "n_right", 0.0), n_l=_number("baths", d, "n_left", 0.0),
        n_i=_number("baths", d, "n_internal", 0.0), n_m=_number("baths", d, "n_mech", 0.0),
        alpha_r=_number("baths", d, "alpha_right", 1.0),
        alpha_l=_number("baths", d, "alpha_left", 1.0),
        alpha_i=_number("baths", d, "alpha_internal", 1.0),
        beta=_number("baths", d, "beta", 1.0),
    )


def tones_to_list(config: ToneConfig) -> list[dict]:
    out = []
    for tone in config.tones:
        entry: dict = {"role": tone.role, "detuning_hz": tone.detuning / TWO_PI}
        if tone.n_photons is not None:
            entry["n_photons"] = tone.n_photons
        else:
            entry["coupling_hz"] = tone.coupling / TWO_PI
        out.append(entry)
    return out


def tones_from_list(entries: list[dict]) -> ToneConfig:
    """Build a ToneConfig from its tone entries."""
    if not isinstance(entries, list):
        raise ConfigError(f"tones must be a JSON list, got {type(entries).__name__}")
    tones = []
    for i, entry in enumerate(entries):
        block = f"tones[{i}]"
        entry = _object(block, entry)
        kwargs: dict = {"role": entry.get("role", "generic"),
                        "detuning": TWO_PI * _number(block, entry, "detuning_hz")}
        if "n_photons" in entry and "coupling_hz" in entry:
            raise ConfigError("tone may carry n_photons or coupling_hz, not both")
        if "n_photons" in entry:
            kwargs["n_photons"] = _number(block, entry, "n_photons")
        elif "coupling_hz" in entry:
            kwargs["coupling"] = TWO_PI * _number(block, entry, "coupling_hz")
        else:
            raise ConfigError("tone needs n_photons or coupling_hz")
        tones.append(ToneSpec(**kwargs))

    return ToneConfig(tones=tuple(tones))


def config_to_dict(params: SystemParams, baths: BathSpec, config: ToneConfig) -> dict:
    return {
        "system": params_to_dict(params),
        "baths": baths_to_dict(baths),
        "tones": tones_to_list(config),
    }


def config_from_dict(d: dict) -> tuple[SystemParams, BathSpec, ToneConfig]:
    """Parse a config object; any malformed input raises ConfigError."""
    d = _object("config root", d)
    for key in ("system", "baths", "tones"):
        if key not in d:
            raise ConfigError(f"config missing top-level key {key!r}")
    params = params_from_dict(d["system"])
    baths = baths_from_dict(d["baths"])
    config = tones_from_list(d["tones"])
    config.delta_c(params)  # the symmetric-probe and cooling-order gates, at load
    return params, baths, config


def load_config(path) -> tuple[SystemParams, BathSpec, ToneConfig]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(path, params: SystemParams, baths: BathSpec, config: ToneConfig) -> None:
    Path(path).write_text(json.dumps(config_to_dict(params, baths, config), indent=2) + "\n")


def canonical_json(obj) -> str:
    """Deterministic JSON used for hashing (sorted keys, tight separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def describe_run(params: SystemParams, baths: BathSpec, config: ToneConfig,
                 sim=None, extra: dict | None = None) -> dict:
    """Fully resolved run description plus its hash."""
    resolved = config_to_dict(params, baths, config)
    if sim is not None:
        resolved["sim"] = {
            "dt": sim.dt, "n_steps": sim.n_steps, "n_trajectories": sim.n_trajectories,
            "seed": sim.seed, "burn_in": sim.burn_in, "psd_segments": sim.psd_segments,
        }
    if extra:
        resolved["extra"] = extra
    return {"config_hash": config_hash(resolved), "resolved": resolved}
