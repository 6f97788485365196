"""Every exception the package raises. Each names a kind of fault, not the
module that found it; the message says what was wrong.

    ConfigError     a config or request that cannot be satisfied
    InputError      in-memory data the program cannot use
    StateError      a damaged or mismatched run record, or a strategy
                    state that does not match
    DimensionError  a kernel got shapes that do not fit
    NumericError    a kernel produced a non-finite value
"""
from __future__ import annotations

__all__ = ["ConfigError", "InputError", "StateError", "DimensionError", "NumericError"]


class ConfigError(ValueError):
    """A config or request that cannot be satisfied."""


class InputError(ValueError):
    """In-memory data the program cannot use: an empty or malformed
    trajectory, pool, batch, metrics matrix or context."""


class StateError(ValueError):
    """A run record that is damaged (`cpdistill.checkpoint.read_record`
    names the file), missing, or written by another run, or a strategy
    state (EWC anchors, KL snapshot) that does not match the run or
    model."""


class DimensionError(ValueError):
    """Shapes handed to a kernel are inconsistent."""


class NumericError(ArithmeticError):
    """A kernel produced a non-finite value."""
