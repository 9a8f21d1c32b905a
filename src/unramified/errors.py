"""Exception types shared across the package."""

from __future__ import annotations


class UnramifiedError(Exception):
    """Base class for all package errors."""


class SpecError(UnramifiedError):
    """A group specification is structurally invalid (CLI exit code 1)."""


class NotPrimeError(SpecError):
    pass


class EvenPrimeError(SpecError):
    pass


class NotSurjectiveError(SpecError):
    """gamma does not surject onto V, so V != [G, G]."""


class NontrivialRadicalError(SpecError):
    """gamma has a nonzero radical, so Z(G) != [G, G]."""


class DimensionMismatchError(UnramifiedError):
    pass


class GuardExceededError(UnramifiedError):
    """A resource guard was hit (CLI exit code 3).

    ``required`` carries the bound that would have admitted the request.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class InternalInconsistencyError(UnramifiedError):
    """Two routes that must agree did not; aborts rather than reporting junk."""
