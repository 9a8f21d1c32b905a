"""Rationality obstructions for invariant fields of p-group central extensions.

Given an odd prime p and an alternating form gamma: Lambda^2 U -> V over
F_p, the package builds the central extension 0 -> V -> G -> U -> 0 of
exponent p, decides whether the invariant field of a faithful complex
representation of G has trivial unramified Brauer group, and computes a
degree-3 unramified-cohomology obstruction that can detect non-rationality
even when the Brauer obstruction vanishes.  Every computed quantity has an
independent check: a brute-force enumeration of decomposable multivectors
and a normalized bar-resolution cohomology oracle.

The group law (``groups.law``) and the wedge product
(``exterior.wedge_basis_tensor``) act on batched coordinate arrays; there
are no element objects.  This namespace re-exports the spec, analysis and
subspace entry points.
"""

from .catalog import BUILTINS, builtin
from .divisors import ElementaryDivisors
from .errors import (
    DimensionMismatchError,
    GuardExceededError,
    InternalInconsistencyError,
    SpecError,
    UnramifiedError,
)
from .exterior import render_basis
from .groups import GroupSpec, load_spec, validate_spec
from .linalg import Subspace, kernel
from .obstruction import ObstructionReport, analyze, dec_subgroup, dec_subgroup_bruteforce

__version__ = "0.1.0"

__all__ = [
    "BUILTINS",
    "ElementaryDivisors",
    "GroupSpec",
    "ObstructionReport",
    "Subspace",
    "analyze",
    "builtin",
    "dec_subgroup",
    "dec_subgroup_bruteforce",
    "kernel",
    "load_spec",
    "render_basis",
    "validate_spec",
]
