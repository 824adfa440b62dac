"""Exception types shared across the package.

The class name is the "gate name" surfaced verbatim on stderr by the CLI, so
keep these names stable.
"""


class SidebandLabError(Exception):
    """Base class for all package errors."""


class ConfigError(SidebandLabError):
    """Malformed or inconsistent configuration input."""


class ValidityError(SidebandLabError):
    """An approximation gate was violated (good-cavity, frequency window,
    sideband separation). Carries the gate description in the message."""


class InstabilityError(SidebandLabError):
    """Total mechanical damping is non-positive for the requested drive."""

    def __init__(self, gamma_tot: float):
        self.gamma_tot = gamma_tot
        super().__init__(f"total damping gamma_tot = {gamma_tot:.6g} rad/s <= 0")


class UnbalancedError(SidebandLabError):
    """Operation requires balanced probe couplings (G- == G+)."""


class StepSizeError(SidebandLabError):
    """Stochastic oracle length gate or cooling-period step gate violated."""


class NonConvergence(SidebandLabError):
    """Least-squares iteration failed to converge."""


class DegenerateData(SidebandLabError):
    """Input data carries no usable feature (e.g. flat spectrum)."""


#: The validity and stability gates: exit code 3 in the CLI, where any other error is 2.
GATE_ERRORS = (ValidityError, InstabilityError, UnbalancedError, StepSizeError)
