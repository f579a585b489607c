"""Exception hierarchy for :mod:`repro`.

All package-specific failures derive from :class:`ReproError`, so callers can
catch one type at an application boundary while tests assert on precise
subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class SimulationError(ReproError):
    """The performance simulator reached an inconsistent state."""


class TraceError(ReproError):
    """A workload trace or warp program is malformed."""


class CalibrationError(ReproError):
    """EPI/EPT calibration could not be completed from the measurements."""


class ValidationError(ReproError):
    """Model-vs-measurement validation was asked to do something impossible."""


class ExperimentError(ReproError):
    """An experiment driver was configured with unknown settings."""
