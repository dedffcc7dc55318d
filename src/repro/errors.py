"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    Marker base for retryable failures: injected faults
    (:class:`repro.testing.faults.InjectedFault`) and pool workers that
    died mid-chunk (:class:`repro.engine.WorkerDiedError`).
    """


class ConfigError(ReproError):
    """An environment variable or config value failed validation.

    Always names the offending variable and the accepted range, so a
    bad ``REPRO_*`` setting fails at construction with a one-line
    message instead of a bare ``ValueError`` deep inside a subsystem.
    """


class VerilogError(ReproError):
    """Base class for Verilog front-end errors."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class LexError(VerilogError):
    """Raised when the lexer encounters an illegal character sequence."""


class ParseError(VerilogError):
    """Raised when the parser cannot derive a valid construct."""


class ElaborationError(ReproError):
    """Raised when a parsed design cannot be elaborated for simulation."""


class SimulationError(ReproError):
    """Raised when simulation fails (oscillation, missing signal, ...)."""


class GitHubAPIError(ReproError):
    """Raised by the simulated GitHub API (rate limits, bad queries)."""

    def __init__(self, message: str, status: int = 400) -> None:
        self.status = status
        super().__init__(message)


class TrainingError(ReproError):
    """Raised when language-model training is misconfigured."""


class EvaluationError(ReproError):
    """Raised by the benchmark harnesses."""
