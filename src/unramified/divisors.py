"""Elementary divisors of sparse matrices over Z/p^k.

The ring Z/p^k is local, so Smith-style reduction needs no gcd machinery:
any unit entry can serve as a pivot.  The elimination below takes, from
the column with the fewest entries that holds a unit, the unit whose row
has the fewest entries; when no unit entry is left it divides the whole
residual block by p and drops to modulus p^(k-1).  Only nonzero residues
are stored, and a division round runs only when all of them are divisible
by p, so no entry vanishes in it.  Each unit pivot found after s division
rounds contributes the divisor p^s; columns left without a pivot are zero
columns (divisor p^k) and are not listed.

Pivot order does not affect the exponents, which is all that is consumed
downstream: |image| = p^image_exp with image_exp = sum(k - e_i), and
|kernel| = p^(k * cols - image_exp).

The elimination runs to the end once started: it has no time or memory
bound of its own.  The bound on its cost is the caller's size check on
the matrix, made before the matrix is built (bar's row tiers).
"""

from __future__ import annotations

from dataclasses import dataclass


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


def _drop(coldata, c, r):
    """Remove row r from column c's row set, and the column once it is empty."""
    cset = coldata[c]
    cset.discard(r)
    if not cset:
        del coldata[c]


def _pick_unit_pivot(rowdata, coldata, p):
    """The unit with the fewest row entries in the sparsest column holding
    a unit, as (row, col), or None if every entry is divisible by p."""
    for c in sorted(coldata, key=lambda c: len(coldata[c])):
        units = [r for r in coldata[c] if rowdata[r][c] % p]
        if units:
            return min(units, key=lambda r: len(rowdata[r])), c
    return None


def elementary_divisors(rows: int, cols: int, entries, p: int,
                        k: int) -> ElementaryDivisors:
    """Divisors of a sparse matrix given as (row, col, value) triples."""
    if k < 1:
        raise ValueError("modulus exponent k must be >= 1")
    mod = p ** k
    rowdata: dict[int, dict[int, int]] = {}
    for r, c, v in entries:
        row = rowdata.setdefault(int(r), {})
        c = int(c)
        row[c] = row.get(c, 0) + int(v)
    coldata: dict[int, set[int]] = {}
    for r, row in list(rowdata.items()):
        row = {c: v % mod for c, v in row.items() if v % mod}
        if not row:
            del rowdata[r]
            continue
        rowdata[r] = row
        for c in row:
            coldata.setdefault(c, set()).add(r)

    shift = 0
    exps: list[int] = []
    while rowdata:
        pivot = _pick_unit_pivot(rowdata, coldata, p)
        if pivot is None:
            # every remaining entry is divisible by p: strip one factor
            shift += 1
            mod //= p
            if mod == 1:
                break
            for row in rowdata.values():
                for c in row:
                    row[c] //= p
            continue
        pr, pc = pivot
        exps.append(shift)
        prow = rowdata.pop(pr)
        inv = pow(prow.pop(pc), -1, mod)
        for c in prow:
            _drop(coldata, c, pr)
        # clear the pivot column with row operations; the pivot row itself
        # is removed, which is equivalent to also clearing it with column
        # operations since its column is zero elsewhere afterwards
        for r in coldata.pop(pc):
            if r == pr:
                continue
            row = rowdata[r]
            f = (row.pop(pc) * inv) % mod
            for c, v in prow.items():
                w = (row.get(c, 0) - f * v) % mod
                if w:
                    if c not in row:
                        coldata.setdefault(c, set()).add(r)
                    row[c] = w
                elif c in row:
                    del row[c]
                    _drop(coldata, c, r)
            if not row:
                del rowdata[r]

    return ElementaryDivisors(p, k, rows, cols, tuple(sorted(exps)))
