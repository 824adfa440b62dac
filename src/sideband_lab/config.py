"""JSON parameter files: {"system": {...}, "baths": {...}, "tones": [...]}.

`SYSTEM_KEYS` and `BATH_KEYS` are the file format of their blocks, read by
save and load alike, and a tone entry holds "role", "detuning_hz" and one of
"n_photons" or "coupling_hz"; a key the format does not name is ignored, and
left out of the hash, since the hash covers the loaded values. All
frequencies in config files are plain Hz; the 2*pi conversion to the angular
rates used internally happens here and only here. A file's Hz values
round-trip exactly (floats survive JSON via shortest-repr); a configuration
built in Python in rad/s can move by one ulp through the /2*pi on save and
the *2*pi on load.
"""

from __future__ import annotations

import dataclasses
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
    "canonical_json", "config_hash", "describe_run", "SYSTEM_KEYS", "BATH_KEYS",
]

#: file key -> `SystemParams` rate, in Hz; all required but kappa_internal_hz (0.0)
SYSTEM_KEYS = {"omega_c_hz": "omega_c", "omega_m_hz": "omega_m", "g0_hz": "g0",
               "kappa_left_hz": "kappa_l", "kappa_right_hz": "kappa_r",
               "kappa_internal_hz": "kappa_i", "gamma_m_hz": "gamma_m"}
#: file key -> `BathSpec` attribute; an absent key takes the dataclass default
BATH_KEYS = {"n_right": "n_r", "n_left": "n_l", "n_internal": "n_i", "n_mech": "n_m",
             "alpha_right": "alpha_r", "alpha_left": "alpha_l",
             "alpha_internal": "alpha_i", "beta": "beta"}


def params_to_dict(params: SystemParams) -> dict:
    return {key: getattr(params, attr) / TWO_PI for key, attr in SYSTEM_KEYS.items()}


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
    rates = {attr: TWO_PI * _number("system", d, key, 0.0 if attr == "kappa_i" else None)
             for key, attr in SYSTEM_KEYS.items()}
    return SystemParams(**rates)


def baths_to_dict(baths: BathSpec) -> dict:
    return {key: getattr(baths, attr) for key, attr in BATH_KEYS.items()}


def baths_from_dict(d: dict) -> BathSpec:
    d = _object("baths", d)
    default = BathSpec()
    return BathSpec(**{attr: _number("baths", d, key, getattr(default, attr))
                       for key, attr in BATH_KEYS.items()})


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
        # ToneSpec refuses an entry with both or neither of the two
        tones.append(ToneSpec(
            role=entry.get("role", "generic"),
            detuning=TWO_PI * _number(block, entry, "detuning_hz"),
            n_photons=_number(block, entry, "n_photons") if "n_photons" in entry else None,
            coupling=TWO_PI * _number(block, entry, "coupling_hz")
            if "coupling_hz" in entry else None,
        ))
    return ToneConfig(tones=tuple(tones))


def config_to_dict(params: SystemParams, baths: BathSpec, config: ToneConfig) -> dict:
    return {"system": params_to_dict(params), "baths": baths_to_dict(baths),
            "tones": tones_to_list(config)}


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
        resolved["sim"] = dataclasses.asdict(sim)
    if extra:
        resolved["extra"] = extra
    return {"config_hash": config_hash(resolved), "resolved": resolved}
