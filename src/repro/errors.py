"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses mirror the major
subsystems: netlist construction and parsing, analog simulation, switch-level
simulation, and timing analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class NetlistError(ReproError):
    """Invalid netlist construction (unknown node, bad device, …)."""


class ParseError(NetlistError):
    """A netlist file could not be parsed.

    Carries the file name and line number when available.
    """

    def __init__(self, message: str, filename: str = "<string>", line: int = 0):
        self.filename = filename
        self.line = line
        if line:
            message = f"{filename}:{line}: {message}"
        super().__init__(message)


class ValidationError(NetlistError):
    """A structurally complete netlist violates a sanity rule."""


class TechnologyError(ReproError):
    """Missing or inconsistent technology data (device kind, table, …)."""


class AnalysisError(ReproError):
    """Base class for failures of the analysis engines."""


class ConvergenceError(AnalysisError):
    """The analog simulator's Newton iteration failed to converge."""

    def __init__(self, message: str, time: float | None = None):
        self.time = time
        if time is not None:
            message = f"{message} (at t={time:.4g}s)"
        super().__init__(message)


class SimulationError(AnalysisError):
    """Generic analog/switch-level simulation failure."""


class TimingError(AnalysisError):
    """Static timing analysis failed (no paths, inconsistent states, …)."""


class SweepError(AnalysisError):
    """A batch scenario sweep could not be set up or run.

    Carries the vector file name and line number when the failure is a
    malformed vector file.
    """

    def __init__(self, message: str, filename: str | None = None,
                 line: int = 0):
        self.filename = filename
        self.line = line
        if filename is not None and line:
            message = f"{filename}:{line}: {message}"
        super().__init__(message)


class MeasurementError(AnalysisError):
    """A waveform measurement could not be taken (no crossing, …)."""


class TraceError(ReproError):
    """A trace file is malformed or unwritable."""


class ServiceError(ReproError):
    """A timing-service request or response is invalid.

    Raised by the daemon for malformed request envelopes and by the
    client for transport failures and error responses; carries the
    HTTP-ish status the daemon maps it to (400 unless stated).
    """

    def __init__(self, message: str, status: int = 400):
        self.status = status
        super().__init__(message)
