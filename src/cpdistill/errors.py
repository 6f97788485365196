"""Every exception the package raises. Each names a kind of fault and is
raised where its input enters the program; data the program made itself is
not checked again downstream. The message says what was wrong.

    ConfigError     a config value that breaks a rule: raised when
                    `ProtocolConfig` or `ModelConfig` is built, or by
                    `load_config`, and for a negative run seed (the CLI's
                    ``--seed``) by `ProtocolRunner`
    StateError      a run record that is damaged, missing, or written by
                    another run: raised by the record's reader inside
                    `cpdistill.checkpoint.read_record`, which names the file,
                    or by `ProtocolRunner.load_stage` and the run-directory
                    checks of `cpdistill.continual` and `cpdistill.report`
    DimensionError  shapes handed to a tensor kernel that do not fit
    NumericError    a tensor kernel that produced a non-finite value
"""
from __future__ import annotations

__all__ = ["ConfigError", "StateError", "DimensionError", "NumericError"]


class ConfigError(ValueError):
    """A config value, or the run seed, that breaks a rule."""


class StateError(ValueError):
    """A run record that is damaged (`cpdistill.checkpoint.read_record`
    names the file), missing, or written by another run, strategy, seed or
    model config."""


class DimensionError(ValueError):
    """Shapes handed to a tensor kernel are inconsistent."""


class NumericError(ArithmeticError):
    """A tensor kernel produced a non-finite value."""
