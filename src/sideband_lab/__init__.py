"""Noise spectra, sideband asymmetry and calibrations of driven
electro/opto-mechanical cavities, cross-checked by a stochastic Langevin
integrator."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateData,
    InstabilityError,
    NonConvergence,
    SidebandLabError,
    StepSizeError,
    UnbalancedError,
    ValidityError,
)
from .model import (
    BathSpec,
    Spectrum,
    SystemParams,
    ToneConfig,
    ToneSpec,
    bose_occupation,
    derive_effective_mechanics,
)
from .presets import PRESET_NAMES, preset

__all__ = [
    "__version__",
    "BathSpec", "Spectrum", "SystemParams", "ToneConfig", "ToneSpec",
    "bose_occupation", "derive_effective_mechanics",
    "PRESET_NAMES", "preset",
    "SidebandLabError", "ConfigError", "ValidityError", "InstabilityError",
    "UnbalancedError", "StepSizeError", "NonConvergence", "DegenerateData",
]
