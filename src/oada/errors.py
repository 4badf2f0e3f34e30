"""Exception types the command line maps to exit codes.

Each subclasses the built-in a caller would already catch, so code that
handles ValueError or RuntimeError keeps working. Bad input files raise
`fcidump.FcidumpError`.
"""

from __future__ import annotations

__all__ = ["DimensionCapError", "ObjectiveError", "ConvergenceError"]


class DimensionCapError(ValueError):
    """A basis, sector or qubit count above the cap the solvers allow."""


class ObjectiveError(ValueError):
    """An optimizer objective that evaluated to a non-finite value."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolver that stopped short of its tolerance."""
