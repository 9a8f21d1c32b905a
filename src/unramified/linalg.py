"""Exact linear algebra over F_p with canonical subspace representations.

Matrices are numpy ``int64`` arrays holding reduced residues; a subspace of
F_p^N is always stored as the reduced row-echelon basis of its row space, so
two equal subspaces have byte-identical basis tables and ``==`` / ``hash``
are exact.  Only odd primes are accepted: 1/2 = (p+1)/2 is needed everywhere
downstream.

Large arrays are reduced in place by ``reduce_mod``, A - (A // p) * p: numpy
vectorizes integer floor division by a scalar but not the remainder, so on
thousands of cells it is several times faster than ``%``.  Plain ``%`` stays
for scalars and arrays of a few hundred cells, where it is faster, and where
a full-size quotient would raise peak memory: rref_stack's entry reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, EvenPrimeError, NotPrimeError

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
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    if p == 2:
        raise EvenPrimeError("p = 2 is not supported; 1/2 must exist mod p")
    return p


def inv_mod(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def reduce_mod(A: Array, p: int) -> Array:
    """A % p in place, for any integer dtype and p > 0; returns A.  q * p
    may wrap in a narrow dtype, but A - q * p wraps back to the residue."""
    q = A // p
    q *= p
    A -= q
    return A


def half_mod(p: int) -> int:
    """The element 1/2 = (p+1)/2 of F_p."""
    return (p + 1) // 2


def as_matrix(rows, cols: int | None = None) -> Array:
    """Coerce nested lists / arrays to a 2-d int64 matrix."""
    A = np.array(rows, dtype=np.int64)
    if A.ndim == 1:
        A = A.reshape(1, -1) if A.size else A.reshape(0, cols or 0)
    if A.size == 0 and cols is not None:
        A = np.zeros((0, cols), dtype=np.int64)
    return A


# One pivot updates at most this many cells at a time, so that a wide
# elimination never holds a dense copy of all the rows it touches.
_UPDATE_CELLS = 1 << 14


def projective_lines(p: int, n: int):
    """Canonical line representatives: first nonzero coordinate equals 1."""
    for lead in range(n):
        for rest in itertools.product(range(p), repeat=n - lead - 1):
            v = np.zeros(n, dtype=np.int64)
            v[lead] = 1
            v[lead + 1:] = rest
            yield v


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> Array:
    """inv[a] = 1/a mod p (inv[0] = 0); read-only, since cached."""
    inv = np.array([pow(a, p - 2, p) for a in range(p)], dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _pivot_inverses(a: Array, p: int) -> Array:
    """1/a mod p for units a: from a table of p entries unless p > _UPDATE_CELLS."""
    if p > _UPDATE_CELLS:
        return np.array([pow(x, p - 2, p) for x in a.tolist()], dtype=np.int64)
    return _inverse_table(p)[a]


def rref_stack(A: Array, p: int) -> tuple[Array, Array, Array]:
    """Gauss-Jordan over F_p on each matrix of a stack of shape (L, m, n).

    Returns (R, ranks, pivots): R[l] is the reduced row echelon form of
    A[l], its ranks[l] nonzero rows first; pivots[l, i] is the pivot column
    of row i, or -1 for i >= ranks[l].  A pivot updates only the rows that
    are nonzero in its column, and in them only the columns where its row
    is nonzero, so sparse matrices stay cheap.
    """
    A = np.array(A, dtype=np.int64, order="C")
    A %= p
    L, m, n = A.shape
    flat = A.reshape(-1)
    ranks = np.zeros(L, dtype=np.int64)
    pivots = np.full((L, min(m, n)), -1, dtype=np.int64)
    for c in range(n):
        lo = int(ranks.min()) if L else m
        if lo == m:
            break
        cand = A[:, lo:, c] != 0
        if L > 1:
            cand &= np.arange(lo, m) >= ranks[:, None]
        P = np.flatnonzero(cand.any(axis=1))
        if not P.size:
            continue
        r = ranks[P]
        i = lo + cand[P].argmax(axis=1)
        if (i != r).any():
            A[P, r], A[P, i] = A[P, i], A[P, r]
        piv = A[P, r, c:]
        piv = piv * _pivot_inverses(piv[:, 0], p)[:, None] % p
        A[P, r, c:] = piv
        hit = A[P, :, c] != 0
        hit[np.arange(P.size), r] = False
        k, j = np.nonzero(hit)
        cols = np.flatnonzero(piv.any(axis=0))
        step = max(1, _UPDATE_CELLS // cols.size)
        for s in range(0, k.size, step):
            ks = k[s:s + step]
            at = ((P[ks] * m + j[s:s + step]) * n + c)[:, None] + cols
            block = flat[at]
            block -= block[:, :1] * (piv[:, cols] if P.size == 1
                                     else piv[ks[:, None], cols])
            flat[at] = reduce_mod(block, p)
        pivots[P, r] = c
        ranks[P] = r + 1
    return A, ranks, pivots


def rref_mod(A: Array, p: int) -> tuple[Array, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_columns) where R keeps only the nonzero rows, pivots
    are 1 and their columns are cleared, and pivot columns increase.
    """
    (R,), (r,), (pivots,) = rref_stack(np.asarray(A)[None], p)
    return R[:r], pivots[:r].tolist()


def rank_mod(A: Array, p: int) -> int:
    return len(rref_mod(A, p)[1])


def kernel_stack(A: Array, p: int) -> Array:
    """Kernels over F_p of a stack (L, m, n), as an (L, n, n) stack.

    Slice l is (I - R')^T mod p, where R'[c] is the row of rref(A[l]) with
    pivot in column c (zero for free c); its nonzero rows, one per free
    column in increasing order, are a basis of {x : A[l] x = 0}.
    """
    R, _, pivots = rref_stack(A, p)
    L, _, n = R.shape
    K = np.zeros((L, n, n), dtype=np.int64)
    ls, rs = np.nonzero(pivots >= 0)
    K[ls, pivots[ls, rs]] = -R[ls, rs]
    K[:, np.arange(n), np.arange(n)] += 1
    return reduce_mod(K, p).transpose(0, 2, 1)


def kernel_basis(A: Array, p: int) -> Array:
    """Basis (as rows) of {x : A x = 0} over F_p."""
    K = kernel_stack(np.asarray(A, dtype=np.int64)[None], p)[0]
    return K[K.any(axis=1)]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^N in canonical reduced-row-echelon form."""

    p: int
    ambient: int
    basis: Array = field(compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.int64)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, gens, p: int, ambient: int) -> "Subspace":
        M = as_matrix(gens, ambient)
        if M.shape[0] == 0:
            return cls.zero(p, ambient)
        if M.shape[1] != ambient:
            raise DimensionMismatchError(
                f"generators live in dim {M.shape[1]}, expected {ambient}")
        R, _ = rref_mod(M, p)
        return cls(p, ambient, R)

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, np.zeros((0, ambient), dtype=np.int64))

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, np.eye(ambient, dtype=np.int64))

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

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"ambient mismatch: F_{self.p}^{self.ambient} vs "
                f"F_{other.p}^{other.ambient}")

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64).reshape(-1) % self.p
        if v.shape[0] != self.ambient:
            raise DimensionMismatchError(
                f"vector of dim {v.shape[0]} in F^{self.ambient}")
        return not ((v - v[self.pivots] @ self.basis) % self.p).any()

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(r) for r in other.basis)

    # -- lattice operations ------------------------------------------------

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_generators(
            np.vstack([self.basis, other.basis]), self.p, self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref [S|S ; T|0], rows with zero left half span S∩T."""
        self._check_compatible(other)
        N = self.ambient
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        R, _ = rref_mod(np.vstack([top, bot]), self.p)
        rows = [R[i, N:] for i in range(R.shape[0]) if not R[i, :N].any()]
        return Subspace.from_generators(rows, self.p, N)

    def orthogonal(self) -> "Subspace":
        """{x : s . x = 0 for all s in self}, for the identity pairing."""
        N = self.ambient
        if self.dim == 0:
            return Subspace.full(self.p, N)
        return Subspace.from_generators(kernel_basis(self.basis, self.p), self.p, N)


def kernel(M, p: int) -> Subspace:
    """{x : M x = 0} as a canonical subspace."""
    A = as_matrix(M)
    return Subspace.from_generators(kernel_basis(A, p), p, A.shape[1])
