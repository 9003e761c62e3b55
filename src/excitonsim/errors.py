"""Exception types shared across the package."""


class ExcitonSimError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(ExcitonSimError, ValueError):
    """A physical parameter violates its constraints."""


class TimeStepError(InvalidParameterError):
    """An integration step too coarse for the pulses or the frame."""


class ConvergenceError(ExcitonSimError, RuntimeError):
    """Quadrature failed to reach the configured tolerance.

    Carries the tolerance that was actually achieved.
    """

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved relative tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


class InvalidPairError(ExcitonSimError, ValueError):
    """A pairwise quantity was requested for a dot paired with itself."""


class InvalidGateError(ExcitonSimError, ValueError):
    """A gate specification is internally inconsistent."""


class CompileError(ExcitonSimError, ValueError):
    """A gate cannot be compiled under the requested timing policy.

    ``required_tau_ps`` is the minimum pulse duration that would satisfy
    the selectivity budget.
    """

    def __init__(self, message: str, required_tau_ps: float | None = None):
        if required_tau_ps is not None:
            message = f"{message} (required minimum duration {required_tau_ps:.6g} ps)"
        super().__init__(message)
        self.required_tau_ps = required_tau_ps


class ZeroDipoleError(CompileError):
    """A gate targets a dot whose transition dipole is zero: no pulse drives it."""

    def __init__(self, dot: int):
        super().__init__(f"dot {dot} has zero transition dipole, so no pulse drives it")
        self.dot = dot


class PropagationDiagnosticsError(ExcitonSimError, RuntimeError):
    """A propagated state violated its invariants beyond tolerance.

    Carries the index of the offending integration step.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


class NumericalConsistencyError(ExcitonSimError, RuntimeError):
    """A quantity that should be real carries too large an imaginary part."""


class InvalidConditioningError(ExcitonSimError, ValueError):
    """A spectrum conditioning pattern occupies the emitting dot."""

    def __init__(self, dot: int):
        super().__init__(f"conditioning occupies the emitting dot {dot}")
        self.dot = dot


class UnsupportedDimensionError(ExcitonSimError, ValueError):
    """An operation only defined for a specific register size was misused."""


class ConfigError(ExcitonSimError, ValueError):
    """A run-configuration file is missing or inconsistent.

    ``section`` and ``key`` name the config entry at fault; the message
    reads "[section] key: ...".
    """

    def __init__(
        self, message: str, section: str | None = None, key: str | None = None
    ):
        if key:
            message = f"{key}: {message}"
        if section is not None:
            message = f"[{section}] {message}"
        super().__init__(message)
        self.section = section
