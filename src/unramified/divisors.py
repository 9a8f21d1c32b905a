"""Elementary divisors of sparse matrices over Z/p^k, in two passes.

Z/p^k is local, so any unit (an entry not divisible by p) can pivot.  Both
passes stream the matrix M in row blocks of at most _BLOCK_CELLS cells in
the columns that hold no pivot yet (the free columns).

Pass 1 collects every unit pivot as rows T in Gauss-Jordan form.  A block
is cleared by the pivots so far (x - x[piv] T) and eliminated over Z/p^k
with unit pivots only (``linalg.rref_stack``); its new pivot rows clear
their columns from T and join it.  Mod p each row of M then lies in the
span of T: it was a pivot row or was left divisible by p, and new pivots
keep that span.

Pass 2 reduces each row to r = x - x[piv] T, zero in the pivot columns and,
mod p, in the span of T: so r = 0 mod p, or else T was incomplete and the
elimination aborts.  M and [T; R] have the same row module, and column
operations with the pivot columns clear T without touching R, so
[T; R] ~ [I 0; 0 R] with R = pQ.  The divisors are rank(T) units, then p
times those of Q over Z/p^(k-1), found by the next round.  Exponent e
stands for the divisor p^e; zero divisors (p^k) are not listed.  Memory is
one block and T in the free columns, at most cols^2 / 4 cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import InternalInconsistencyError, check_bound
from .linalg import reduce_mod, rref_stack

# Cells of a row block in the free columns (or one row).  A block adds at
# most min(rows, free columns) <= isqrt(_BLOCK_CELLS) pivots, the inner
# dimension of the float64 product that clears them from T: exact while
# isqrt(_BLOCK_CELLS) * (q - 1)^2 < 2^53, which check_modulus checks.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ElementaryDivisors:
    """Divisor multiset of a map (Z/p^k)^cols -> (Z/p^k)^rows."""

    p: int
    k: int
    rows: int
    cols: int
    exponents: tuple[int, ...]  # one entry per nonzero divisor p^e, e < k

    @property
    def image_exp(self) -> int:
        """|image| = p ** image_exp."""
        return sum(self.k - e for e in self.exponents)

    @property
    def kernel_exp(self) -> int:
        """|kernel| = p ** kernel_exp; image_exp + kernel_exp = k * cols."""
        return self.k * self.cols - self.image_exp


def _blocks(r, pos):
    """(lo, hi, entry slice) of row blocks of the entries, sorted by row r,
    each sized by the free columns (pos < 0) as they are when it starts."""
    lo, rows = 0, int(r[-1]) + 1 if r.size else 0
    while lo < rows and (pos < 0).any():
        hi = min(rows, lo + max(1, _BLOCK_CELLS // int((pos < 0).sum())))
        yield lo, hi, slice(*np.searchsorted(r, (lo, hi)))
        lo = hi


def _reduced_rows(lo, hi, r, c, v, Tf, pos, q):
    """Rows lo..hi-1 minus x[piv] T, mod q, in the free columns; Tf is T
    there, and pos[col] is the row of T pivoting on col, or -1."""
    X = np.zeros((hi - lo, Tf.shape[1]), dtype=np.int64)
    r, free = r - lo, pos[c] < 0
    np.add.at(X, (r[free], np.cumsum(pos < 0)[c[free]] - 1), v[free])
    reduce_mod(X, q)
    r, t, v = r[~free], pos[c[~free]], v[~free]
    slot = np.arange(r.size) - np.searchsorted(r, r)   # repeats of a row
    for j in range(int(slot.max()) + 1 if r.size else 0):
        at = slot == j
        X[r[at]] = reduce_mod(X[r[at]] - v[at, None] * Tf[t[at]], q)
    return X


def _unit_pivots(r, c, v, cols: int, p: int, q: int):
    """Pass 1: (Tf, pos), T in the free columns (it is the identity in the
    pivot columns) and pos[col] = the row of T pivoting on col, or -1."""
    pos = np.full(cols, -1)
    Tf = np.zeros((0, cols), dtype=np.int64)
    for lo, hi, s in _blocks(r, pos):
        free = np.flatnonzero(pos < 0)
        X = _reduced_rows(lo, hi, r[s], c[s], v[s], Tf, pos, q)
        live = np.flatnonzero(X.any(axis=0))
        (R,), (rank,), (pc,) = rref_stack(X[:, live][None], p, q)
        if not rank:
            continue
        R, new, t = R[:rank], live[pc[:rank]], len(Tf)
        Tf[:, live] -= (Tf[:, new].astype(np.float64)
                        @ R.astype(np.float64)).astype(np.int64)
        pos[free[new]] = np.arange(t, t + rank)
        keep = np.flatnonzero(pos[free] < 0)
        grown = np.zeros((t + rank, keep.size), dtype=np.int64)
        # keep indexes Tf's columns: "clip" clips nothing, and drops raise's out buffer
        np.take(reduce_mod(Tf, q), keep, axis=1, out=grown[:t], mode="clip")
        kept = pos[free[live]] < 0
        grown[t:, np.searchsorted(keep, live[kept])] = R[:, kept]
        Tf = grown
    return Tf, pos


def _residual(r, c, v, Tf, pos, p: int, q: int):
    """Pass 2: (row, free column, value / p) of the rows reduced by every
    unit pivot, which must all be divisible by p."""
    out = [np.zeros((3, 0), dtype=np.int64)]
    for lo, hi, s in _blocks(r, pos):
        X = _reduced_rows(lo, hi, r[s], c[s], v[s], Tf, pos, q)
        if (X % p).any():
            raise InternalInconsistencyError(
                "a row keeps a unit after reduction by every unit pivot")
        i, j = np.nonzero(X)
        out.append(np.stack((i + lo, j, X[i, j] // p)))
    return np.concatenate(out, axis=1)


def check_modulus(p: int, k: int) -> None:
    """Refuse Z/p^k where a float64 product of T could round: a block's
    dot products sum isqrt(_BLOCK_CELLS) terms below (p^k - 1)^2."""
    check_bound(f"modulus {p}^{k}: float64 dot-product magnitude",
                isqrt(_BLOCK_CELLS) * (p ** k - 1) ** 2, (1 << 53) - 1)


def elementary_divisors(rows: int, cols: int, entries, p: int,
                        k: int) -> ElementaryDivisors:
    """Divisors of a sparse matrix given as (row, col, value) triples, in a
    list or an (nnz, 3) array; repeated coordinates add up."""
    if k < 1:
        raise ValueError("modulus exponent k must be >= 1")
    check_modulus(p, k)
    e = np.asarray(entries, dtype=np.int64).reshape(-1, 3)
    r, c, v = e[np.argsort(e[:, 0], kind="stable")].T
    exps: list[int] = []
    width = cols
    for shift in range(k):
        q = p ** (k - shift)
        v %= q
        Tf, pos = _unit_pivots(r, c, v, width, p, q)
        exps += [shift] * len(Tf)
        r, c, v = _residual(r, c, v, Tf, pos, p, q)
        width = Tf.shape[1]
    return ElementaryDivisors(p, k, rows, cols, tuple(exps))
