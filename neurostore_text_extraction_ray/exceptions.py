"""Typed pipeline exceptions — parity with the reference's public
error surface (``ns_extract/pipelines/exceptions.py:1-39``), so a user
switching engines keeps their except-clauses.

Row-level failures in extraction stages deliberately do NOT raise:
they are counted (``parse_failed``/``empty`` columns + manifest
counters), matching the reference's per-study tolerance
(``base.py:740-750``). These types cover driver-side configuration and
I/O errors."""

from __future__ import annotations


class PipelineError(Exception):
    """Base exception for all pipeline-related errors."""


class InputError(PipelineError):
    """Raised when there are issues with pipeline inputs."""


class ValidationError(PipelineError):
    """Raised when output validation fails (stage-level; per-row
    validation sets ``valid=False`` instead, base.py:1072-1095)."""


class ProcessingError(PipelineError):
    """Raised when study processing fails."""

    def __init__(self, study_id: str, message: str):
        self.study_id = study_id
        super().__init__(f"Error processing study {study_id}: {message}")


class FileOperationError(PipelineError):
    """Raised when file operations (read/write) fail."""


class ConfigurationError(PipelineError):
    """Raised when pipeline configuration is invalid."""


class BudgetError(PipelineError, RuntimeError):
    """Raised when a table a step must broadcast exceeds its budget in
    ``stages.exchange.BUDGETS``; the message names the key and the fix."""
