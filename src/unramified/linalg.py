"""Exact linear algebra over F_p and Z/p^k, with canonical F_p subspaces.

Matrices are numpy ``int64`` arrays holding reduced residues; a subspace of
F_p^N is always stored as the reduced row-echelon basis of its row space, so
two equal subspaces have byte-identical basis tables and ``==`` / ``hash``
are exact.  Only odd primes are accepted: 1/2 = (p+1)/2 is needed everywhere
downstream.  ``check_odd_prime`` also refuses p >= 2^16, so that a product
of two residues is below 2^32: a sum of them is exact in int64 up to 2^31
terms and in float64 (below 2^53) up to 2^21.  A membership test adds dim
terms; gamma(u ^ w) adds n in float64, then n in a narrow dtype (groups).

One elimination, ``rref_stack``, serves every modulus q = p^k (only units
pivot; F_p is k = 1).  ``subspaces`` gives the canonical subspaces of many
row spaces and kernels from one stacked elimination; ``from_generators`` and
``kernel`` are its one-matrix cases (groups.validate_spec takes gamma's row
space and radical with them, once a spec).  All three take 2-D arrays, (0, N)
for no rows, and refuse any other shape with DimensionMismatchError.

Large arrays are reduced in place by ``reduce_mod``, A - (A // p) * p: numpy
vectorizes integer floor division by a scalar but not the remainder, so on
thousands of cells it is several times faster than ``%``.  Its quotient is as
large as A, so rref_stack's row updates and Subspace.contains reduce int64
blocks of about _UPDATE_CELLS cells.  Plain ``%`` stays for scalars and arrays
of a few hundred cells, where it is faster, and for rref_stack's entry
reduction, where a full-size quotient would raise peak memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .errors import DimensionMismatchError, SpecError

Array = np.ndarray


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p: int) -> int:
    """Validate the scalar modulus; the whole pipeline needs 2 invertible."""
    if p >= 2 ** 16:
        raise SpecError(f"p = {p} is too large: exact int64 arithmetic "
                        "needs p < 2^16")
    if not is_prime(p):
        raise SpecError(f"modulus {p} is not prime")
    if p == 2:
        raise SpecError("p = 2 is not supported; 1/2 must exist mod p")
    return p


def reduce_mod(A: Array, p: int) -> Array:
    """A % p in place, for any integer dtype and p > 0; returns A.  q * p
    may wrap in a narrow dtype, but A - q * p wraps back to the residue."""
    q = A // p
    q *= p
    A -= q
    return A


def signed_dtype(bound: int) -> type:
    """The narrowest signed integer dtype holding every |x| <= bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)


def half_mod(p: int) -> int:
    """The element 1/2 = (p+1)/2 of F_p."""
    return (p + 1) // 2


# One pivot update, or one block of a membership test, holds at most this many
# cells: no wide elimination or long stack is ever copied to int64 whole.
_UPDATE_CELLS = 1 << 14


def projective_lines(p: int, n: int, leads=None):
    """Canonical line representatives, first nonzero coordinate 1, whose lead
    is in leads (default all): range(j, n) gives the lines of
    {x_0 = ... = x_(j-1) = 0}, in the order of the full enumeration."""
    for lead in range(n) if leads is None else leads:
        for rest in itertools.product(range(p), repeat=n - lead - 1):
            v = np.zeros(n, dtype=np.int64)
            v[lead] = 1
            v[lead + 1:] = rest
            yield v


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> Array:
    """inv[a] = 1/a mod q for units a, else 0; read-only, since cached."""
    inv = np.array([pow(a, -1, q) if gcd(a, q) == 1 else 0 for a in range(q)],
                   dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _pivot_inverses(a: Array, q: int) -> Array:
    """1/a mod q for units a: from a table of q entries unless q > _UPDATE_CELLS."""
    if q > _UPDATE_CELLS:
        return np.array([pow(x, -1, q) for x in a.tolist()], dtype=np.int64)
    return _inverse_table(q)[a]


def rref_stack(A: Array, p: int, q: int | None = None
               ) -> tuple[Array, Array, Array]:
    """Gauss-Jordan over Z/q, q = p^k (q = p by default), on each matrix of
    a stack of shape (L, m, n).

    Returns (R, ranks, pivots): R[l] is A[l] after row operations, its
    ranks[l] pivot rows first; pivots[l, i] is the pivot column of row i,
    or -1 for i >= ranks[l].  Only units pivot: a pivot is scaled to 1 and
    its column cleared, and a column with no unit below the rank is
    skipped, so rows ranks[l]: end up divisible by p, which over F_p means
    zero, and R[l] is then the reduced row echelon form.  Over Z/p^k a
    skipped column's multiples of p stay in rows that pivot later, so a
    pivot row updates the columns left of its pivot too.  A pivot updates
    only the rows that are nonzero in its column, and in them only the
    columns where its row is nonzero, so sparse matrices stay cheap.
    """
    q = q or p
    A = np.array(A, dtype=np.int64, order="C")
    A %= q
    L, m, n = A.shape
    flat = A.reshape(-1)
    ranks = np.zeros(L, dtype=np.int64)
    pivots = np.full((L, min(m, n)), -1, dtype=np.int64)
    for c in range(n):
        lo = int(ranks.min()) if L else m
        if lo == m:
            break
        cand = A[:, lo:, c] % p != 0
        if L > 1:
            cand &= np.arange(lo, m) >= ranks[:, None]
        P = np.flatnonzero(cand.any(axis=1))
        if not P.size:
            continue
        r = ranks[P]
        i = lo + cand[P].argmax(axis=1)
        if (i != r).any():
            A[P, r], A[P, i] = A[P, i], A[P, r]
        piv = A[P, r]
        piv = piv * _pivot_inverses(piv[:, c], q)[:, None] % q
        A[P, r] = piv
        hit = A[P, :, c] != 0
        hit[np.arange(P.size), r] = False
        k, j = np.nonzero(hit)
        cols = np.flatnonzero(piv.any(axis=0))
        at_c = int(np.searchsorted(cols, c))
        step = max(1, _UPDATE_CELLS // cols.size)
        for s in range(0, k.size, step):
            ks = k[s:s + step]
            at = ((P[ks] * m + j[s:s + step]) * n)[:, None] + cols
            block = flat[at]
            block -= block[:, at_c, None] * piv[ks[:, None], cols]
            flat[at] = reduce_mod(block, q)
        pivots[P, r] = c
        ranks[P] = r + 1
    return A, ranks, pivots


def rref_mod(A: Array, p: int) -> tuple[Array, list[int]]:
    """(nonzero rref rows, pivot columns) over F_p.  No module of src/ calls
    it: it stays because bench/layers.py wraps it by name."""
    (R,), (r,), (pivots,) = rref_stack(np.asarray(A)[None], p)
    return R[:r], pivots[:r].tolist()


def _kernels(R: Array, pivots: Array, p: int) -> Array:
    """(I - R')^T mod p for each slice of rref_stack's (R, pivots), where
    R'[c] is the row with pivot in column c (zero for free c): row f is
    the kernel vector of free column f, and a pivot column's row is 0."""
    L, _, n = R.shape
    K = np.zeros((L, n, n), dtype=np.int64)
    ls, rs = np.nonzero(pivots >= 0)
    K[ls, pivots[ls, rs]] = -R[ls, rs]
    K[:, np.arange(n), np.arange(n)] += 1
    return reduce_mod(K, p).transpose(0, 2, 1)


def kernel_stack(A: Array, p: int) -> Array:
    """Kernels over F_p of a stack (L, m, n), as an (L, n, n) stack whose
    nonzero rows in slice l, one per free column in increasing order, are
    a basis of {x : A[l] x = 0}."""
    R, _, pivots = rref_stack(A, p)
    return _kernels(R, pivots, p)


def kernel_basis(A: Array, p: int) -> Array:
    """Basis (as rows) of {x : A x = 0} over F_p.  No module of src/ calls
    it: it stays because bench/layers.py wraps it by name."""
    K = kernel_stack(np.asarray(A, dtype=np.int64)[None], p)[0]
    return K[K.any(axis=1)]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^N in canonical reduced-row-echelon form."""

    p: int
    ambient: int
    basis: Array = field(compare=False)

    def __post_init__(self):
        b = np.ascontiguousarray(self.basis, dtype=np.int64)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, gens, p: int, ambient: int) -> "Subspace":
        M = np.asarray(gens)
        if M.shape[1:] != (ambient,):
            raise DimensionMismatchError(
                f"generators of shape {M.shape}, expected (rows, {ambient})")
        return subspaces(p, spans=(M,))[0]

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, np.zeros((0, ambient), dtype=np.int64))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def pivots(self) -> Array:
        """Column of each basis row's leading entry."""
        if self.dim == 0:
            return np.zeros(0, dtype=np.intp)
        return (self.basis != 0).argmax(axis=1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.p == other.p
                and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self) -> int:
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def contains(self, vecs) -> Array:
        """Membership of each vector of a stack (..., N) of any integer dtype:
        one bool per vector, a 0-d bool for one vector.  v = v[pivots] @
        basis mod p is tested on int64 copies of _UPDATE_CELLS-cell blocks."""
        v = np.asarray(vecs)
        if v.shape[-1:] != (self.ambient,):
            raise DimensionMismatchError(
                f"vectors of shape {v.shape} in F^{self.ambient}")
        out = np.empty(v.shape[:-1], dtype=bool)
        rows, hits = v.reshape(out.size, self.ambient), out.reshape(-1)
        step = max(1, _UPDATE_CELLS // max(self.ambient, 1))
        for i in range(0, len(rows), step):
            b = reduce_mod(rows[i:i + step].astype(np.int64), self.p)
            b -= b[:, self.pivots] @ self.basis
            hits[i:i + step] = ~reduce_mod(b, self.p).any(axis=1)
        return out[()]

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"ambient mismatch: F_{self.p}^{self.ambient} vs "
                f"F_{other.p}^{other.ambient}")
        return bool(self.contains(other.basis).all())

    def orthogonal(self) -> "Subspace":
        """{x : s . x = 0 for all s in self}, for the identity pairing."""
        return kernel(self.basis, self.p)


def kernel(M, p: int) -> Subspace:
    """{x : M x = 0} as a canonical subspace."""
    return subspaces(p, kernels=(M,))[0]


def subspaces(p: int, spans=(), kernels=()) -> tuple[Subspace, ...]:
    """The canonical subspace of each row space in spans, then of each
    kernel {x : M x = 0} in kernels, from one stacked elimination.

    Each matrix is padded with zero rows and columns to the stack's shape,
    which changes no rref and no pivot.  A kernel is read off the
    elimination of its c columns in reverse order: free column f's kernel
    vector is 1 at f, else nonzero only at pivot columns left of f, and the
    others are 0 at f.  Reversed back, it leads with 1 at c-1-f where the
    others are 0: these vectors, by increasing leading column, are the rref
    basis of ker M.  The padding columns, right of the c, are free, and
    their vectors e_f are cut."""
    s = len(spans)
    mats = [np.asarray(M) for M in (*spans, *kernels)]
    if any(M.ndim != 2 for M in mats):
        raise DimensionMismatchError(
            f"matrices of shapes {[M.shape for M in mats]}, expected 2-D")
    mats[s:] = [M[:, ::-1] for M in mats[s:]]
    if not mats:
        return ()
    rows = max(M.shape[0] for M in mats)
    cols = max(M.shape[1] for M in mats)
    R, ranks, pivots = rref_stack(
        [M if M.shape == (rows, cols) else
         np.pad(M, ((0, rows - M.shape[0]), (0, cols - M.shape[1])))
         for M in mats], p)
    out = [Subspace(p, M.shape[1], R[l, :r, :M.shape[1]].copy())
           for l, (M, r) in enumerate(zip(mats[:s], ranks.tolist()))]
    for k, M in zip(_kernels(R[s:], pivots[s:], p), mats[s:]):
        k = k[:M.shape[1], :M.shape[1]]
        out.append(Subspace(p, M.shape[1], k[k.any(axis=1)][::-1, ::-1]))
    return tuple(out)
