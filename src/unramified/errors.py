"""Exception types shared across the package, each with the exit code and
the stderr label cli.main reports it with."""

from __future__ import annotations


class UnramifiedError(Exception):
    """Base class for all package errors: CLI exit code 1, label "error"."""

    exit_code = 1
    label = "error"


class SpecError(UnramifiedError):
    """A group specification is invalid (CLI exit code 1, label "invalid
    spec"): malformed, p not an odd prime below 2^16, or, in strict mode,
    gamma not surjective or with a nonzero radical."""

    label = "invalid spec"


class DimensionMismatchError(UnramifiedError):
    pass


class GuardExceededError(UnramifiedError):
    """A resource guard was hit (CLI exit code 3, label "guard exceeded").

    ``required`` carries the bound that would have admitted the request.
    """

    exit_code = 3
    label = "guard exceeded"

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class InternalInconsistencyError(UnramifiedError):
    """Two routes that must agree did not; aborts rather than reporting junk."""


def check_bound(what: str, required: int, bound: int) -> None:
    """The one resource guard: refuse when required exceeds bound, before
    the work that required measures starts."""
    if required > bound:
        raise GuardExceededError(f"{what} needs {required} > {bound}",
                                 required=required)
