"""Central extensions 0 -> V -> G -> U -> 0 of exponent p.

A group is specified by an odd prime p, dimensions n = dim U, m = dim V and
a matrix gamma: Lambda^2 U -> V (m rows, C(n, 2) columns, lex pair order).
Elements are pairs (u, v); the group law uses the alternating 2-cocycle

    (u1, v1) * (u2, v2) = (u1 + u2, v1 + v2 + (1/2) gamma(u1 ^ u2)),

whose defining property is the commutator identity
[ (u1, *), (u2, *) ] = (0, gamma(u1 ^ u2)); it forces exponent p and fixes
the extension up to isomorphism.  A spec stores gamma with its stack of
alternating forms: forms[k] is the n x n matrix of (u, w) -> gamma(u ^ w)_k,
scattered once from gamma's columns; law and gamma_of contract it in one
blocked kernel on narrow dtypes.  The stack and the element numbering
below are private to this module: other modules read gamma's
coefficients and an element's digits.
The section s(u) = (u, 0) satisfies g * s(pi(g))^-1 = (0, v-part of g).
``law`` evaluates this product on coordinate arrays; the multiplication
table and the sampled structure checks go through it.  ``build_tables`` is
the one source of group tables, and each command builds and owns its own.
``validate_spec`` eliminates gamma's row space and radical once a spec:
analyze reads K^2, and verify-group the radical, from its report.

Element enumeration is lexicographic on the concatenated (u, v) digit
string, so the identity has index 0 and all derived tables are
deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import comb, prod

import numpy as np

from .errors import SpecError, check_bound
from .exterior import form_matrices, subsets
from .linalg import (Subspace, check_odd_prime, half_mod, kernel, reduce_mod,
                     signed_dtype)

Array = np.ndarray
MAX_SPEC_BYTES = 1 << 26
_GAMMA_BLOCK = 1 << 16


@dataclass(frozen=True)
class GroupSpec:
    """(p, dim U, dim V, gamma) with gamma an m x C(n,2) matrix over F_p;
    forms is gamma's read-only (m, n, n) stack of alternating forms."""

    p: int
    n: int
    m: int
    gamma: Array = field(compare=False)
    name: str | None = field(default=None, compare=False)
    forms: Array = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_odd_prime(self.p)
        if self.n < 0 or self.m < 0:
            raise SpecError("dimensions must be nonnegative")
        g = np.asarray(self.gamma, dtype=np.int64) % self.p
        if g.shape != (self.m, comb(self.n, 2)):
            raise SpecError(
                f"gamma must be {self.m} x {comb(self.n, 2)}, got {g.shape}")
        forms = form_matrices(g, self.n)
        forms %= self.p
        for a in (g, forms):
            a.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "forms", forms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupSpec)
                and (self.p, self.n, self.m) == (other.p, other.n, other.m)
                and bool(np.array_equal(self.gamma, other.gamma)))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.m, self.gamma.tobytes()))

    @property
    def order(self) -> int:
        return self.p ** (self.n + self.m)

    @property
    def half(self) -> int:
        return half_mod(self.p)

    def gamma_of(self, u, w) -> Array:
        """gamma(u ^ w) in V; u, w may be batched with broadcast leading axes."""
        return _blocked_law(self, u, w)[1]


def law(spec: GroupSpec, u1, v1, u2, v2) -> tuple[Array, Array]:
    """(u1, v1) * (u2, v2) on coordinate arrays, with broadcast leading axes."""
    return _blocked_law(spec, u1, u2, v1, v2)


def _blocked_law(spec: GroupSpec, u1, u2, *vs) -> tuple[Array, Array]:
    """(u1 + u2, gamma(u1 ^ u2) / 2 + v1 + v2) for vs = (v1, v2), else
    (u1 + u2, gamma(u1 ^ u2)), as residues in the inputs' result type.
    Blocks run along the first leading axis, about _GAMMA_BLOCK cells of
    u1 . forms each.  An input block is reduced in its own dtype, then
    narrowed to one that holds n (p - 1)^2, for the n terms below p^2 of
    u1 . forms (exact in float64 by the spec-arrays guard) and of its
    product with u2, and (p^2 - 1)/2 + 2 (p - 1), for gamma / 2 + v1 + v2."""
    p, n, m = spec.p, spec.n, spec.m
    ins = [np.asarray(x) for x in (u1, u2, *vs)]
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in ins))
    lead = shape or (1,)
    out = [np.empty(lead + (k,), np.result_type(*ins)) for k in (n, m)]
    block = signed_dtype(max(n * (p - 1) ** 2, (p * p - 1) // 2 + 2 * (p - 1)))
    forms = spec.forms.transpose(1, 0, 2).reshape(n, m * n).astype(np.float64)
    step = max(1, _GAMMA_BLOCK // (prod(lead[1:]) * max(m, 1) * n or 1))
    for i in range(0, lead[0], step):
        ub, wb, *vb = (
            reduce_mod(np.array(x if x.ndim <= len(lead) or len(x) == 1
                                else x[i:i + step]), p).astype(block, copy=False)
            for x in ins)
        uf = (ub.astype(np.float64) @ forms).astype(block)
        uf = reduce_mod(uf, p).reshape(ub.shape[:-1] + (m, n))
        v = (uf @ wb[..., None])[..., 0]
        if vb:
            v = reduce_mod(v, p) * spec.half + vb[0] + vb[1]
        out[0][i:i + step] = reduce_mod(ub + wb, p)
        out[1][i:i + step] = reduce_mod(v, p)
    return tuple(o.reshape(shape + o.shape[-1:]) for o in out)


# -- structure ---------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """gamma's row space, of dim rank gamma = dim [G, G], and its radical
    {u in U : gamma(u ^ w) = 0 for all w}, with Z(G) = radical + V."""

    k2: Subspace        # row space of gamma: K^2 of the obstruction pipeline
    radical: Subspace   # trivial iff Z(G) = [G, G]

    @property
    def gamma_rank(self) -> int:
        return self.k2.dim

    @property
    def radical_dim(self) -> int:
        return self.radical.dim


def validate_spec(spec: GroupSpec, strict: bool = True) -> ValidationReport:
    """Row space of gamma and kernel of its (m n) x n forms, its radical;
    strict mode raises unless V = [G,G] = Z(G)."""
    k2 = Subspace.from_generators(spec.gamma, spec.p, comb(spec.n, 2))
    radical = kernel(spec.forms.reshape(spec.m * spec.n, spec.n), spec.p)
    if strict:
        if k2.dim < spec.m:
            raise SpecError(
                f"gamma has rank {k2.dim} < m = {spec.m}: V != [G, G]")
        if radical.dim:
            raise SpecError(f"gamma has radical of dim {radical.dim} > 0: "
                            "Z(G) != [G, G]")
    return ValidationReport(k2, radical)


# -- index tables ------------------------------------------------------------

@dataclass(frozen=True)
class GroupTables:
    """Dense index tables for an enumerable group (identity has index 0)."""

    spec: GroupSpec
    mul: Array          # (N, N) product indices
    inv: Array          # (N,)
    udigits: Array      # (N, n)
    vdigits: Array      # (N, m)

    def u_eval(self, functional) -> Array:
        """Values of a U-functional (coeff vector) at every element."""
        return self.udigits @ np.asarray(functional, np.int64) % self.spec.p

    def v_eval(self, functional) -> Array:
        return self.vdigits @ np.asarray(functional, np.int64) % self.spec.p

    def biform(self, form2: Array) -> Array:
        """B[g, h] = (2-form on U)(ubar_g ^ ubar_h) for all pairs."""
        return (self.udigits @ form2 @ self.udigits.T) % self.spec.p


# The guard admits |G| <= 2^13, so n + m <= 8.  build_tables evaluates law
# on at most _TABLE_BLOCK (g, h) pairs at a time, a few int64 vectors of
# n + m coordinates a pair: at most 15.4 MiB traced over the admitted shapes
# (the most at n = 0, m = 8).
_TABLE_BLOCK = 1 << 16


def table_bytes(N: int) -> int:
    """Peak bytes of build_tables: the 8-byte N x N table and one block."""
    return 8 * N * N + (24 << 20)


def build_tables(spec: GroupSpec) -> GroupTables:
    N = spec.order
    check_bound(f"group tables at |G| = {N}: bytes", table_bytes(N),
                table_bytes(1 << 13))
    p, n, m = spec.p, spec.n, spec.m
    digits = np.zeros((N, n + m), dtype=np.int64)
    idx = np.arange(N)
    for pos in range(n + m):
        digits[:, pos] = (idx // p ** (n + m - 1 - pos)) % p
    ud, vd = digits[:, :n], digits[:, n:]
    weights = p ** np.arange(n + m - 1, -1, -1, dtype=np.int64)
    multab = np.empty((N, N), dtype=np.int64)
    step = max(1, _TABLE_BLOCK // N)
    for r in range(0, N, step):
        u, v = law(spec, ud[r:r + step, None], vd[r:r + step, None],
                   ud[None], vd[None])
        multab[r:r + step] = u @ weights[:n] + v @ weights[n:]
    invtab = (-digits) % p @ weights
    return GroupTables(spec, multab, invtab, ud, vd)


# -- spec JSON ---------------------------------------------------------------

def spec_to_json_dict(spec: GroupSpec) -> dict:
    terms = []
    for s, (i, j) in enumerate(subsets(spec.n, 2)):
        col = spec.gamma[:, s]
        if col.any():
            terms.append({"i": i, "j": j, "v": [int(x) for x in col]})
    return {"p": spec.p, "dimU": spec.n, "dimV": spec.m, "gamma": terms}


def _integer(x) -> int:
    """x itself if it is a JSON integer: floats, bools and strings are
    refused, not truncated or parsed."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def spec_from_json_dict(data: dict, name: str | None = None) -> GroupSpec:
    try:
        p = _integer(data["p"])
        n = _integer(data["dimU"])
        m = _integer(data["dimV"])
        terms = data.get("gamma", [])
        if not isinstance(terms, list):
            raise TypeError(f"gamma {terms!r} is not a list of terms")
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed spec: {exc}") from exc
    if n < 0 or m < 0:
        raise SpecError("dimU and dimV must be nonnegative")
    check_odd_prime(p)          # before any coefficient meets int64
    # the traced peak: gamma, its reduced copy and the negated coefficients
    # (m x C(n, 2) each), the m x n x n forms, the last term's m coefficients,
    # and the pairs of np.triu_indices with their n x n mask
    check_bound(f"spec arrays at dimU = {n}, dimV = {m}: bytes",
                8 * m * (3 * comb(n, 2) + n * n + 1) + 16 * comb(n, 2)
                + 2 * n * n + (1 << 16), MAX_SPEC_BYTES)
    gamma = np.zeros((m, comb(n, 2)), dtype=np.int64)
    for t, term in enumerate(terms, start=1):
        try:
            i, j = _integer(term["i"]), _integer(term["j"])
            v = [_integer(x) for x in term["v"]]
        except (KeyError, TypeError) as exc:
            raise SpecError(f"gamma term {t}: malformed entry ({exc})") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise SpecError(f"gamma term {t}: indices must lie in 1..{n}")
        if i >= j:
            raise SpecError(f"gamma term {t}: i<j required")
        if len(v) != m:
            raise SpecError(f"gamma term {t}: v must have length {m}")
        if any(x < 0 or x >= p for x in v):
            raise SpecError(f"gamma term {t}: coefficients must lie in [0, {p - 1}]")
        s = (i - 1) * (2 * n - i) // 2 + j - i - 1    # (i, j) in lex order
        gamma[:, s] = (gamma[:, s] + v) % p
    return GroupSpec(p, n, m, gamma, name=name)


def load_spec(path: str) -> GroupSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON/UTF-8, too deep
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    return spec_from_json_dict(data, name=os.path.basename(path))
