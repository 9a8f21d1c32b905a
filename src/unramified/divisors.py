"""Elementary divisors of sparse matrices over Z/p^k.

The ring Z/p^k is local, so Smith-style reduction needs no gcd machinery:
any entry of minimal p-valuation can serve as a pivot.  The elimination
below prefers valuation-0 (unit) pivots with a Markowitz fill heuristic,
defers everything else, and when no unit entry is left divides the whole
residual block by p and drops to modulus p^(k-1).  Each unit pivot found
after s division rounds contributes the divisor p^s; columns that survive
with no entries are zero columns (divisor p^k).

Pivot order does not affect the divisor multiset, which is all that is
consumed downstream: |image| = prod p^(k-e_i) and |kernel| is determined
by |image| * |kernel| = p^(k * cols).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import GuardExceededError


@dataclass(frozen=True)
class ElementaryDivisors:
    """Divisor multiset of a map (Z/p^k)^cols -> (Z/p^k)^rows."""

    p: int
    k: int
    rows: int
    cols: int
    exponents: tuple[int, ...]  # one entry per nonzero divisor p^e, e < k

    @property
    def zero_cols(self) -> int:
        return self.cols - len(self.exponents)

    @property
    def zero_rows(self) -> int:
        return self.rows - len(self.exponents)

    @property
    def image_exp(self) -> int:
        """|image| = p ** image_exp."""
        return sum(self.k - e for e in self.exponents)

    @property
    def kernel_exp(self) -> int:
        """|kernel| = p ** kernel_exp; image_exp + kernel_exp = k * cols."""
        return self.k * self.cols - self.image_exp

    def order_image(self) -> int:
        return self.p ** self.image_exp

    def order_kernel(self) -> int:
        return self.p ** self.kernel_exp

    def divisor_multiset(self) -> list[int]:
        """All cols divisors, zero columns reported as p^k."""
        return sorted(self.p ** e for e in self.exponents) + \
            [self.p ** self.k] * self.zero_cols


def _pick_unit_pivot(rowdata, coldata, p, scan=24):
    """A unit entry with small (nnz_row - 1) * (nnz_col - 1), or None."""
    best = None
    best_cost = None
    cols_by_fill = sorted(coldata, key=lambda c: len(coldata[c]))
    scanned = 0
    for c in cols_by_fill:
        col_fill = len(coldata[c]) - 1
        for r in coldata[c]:
            if rowdata[r][c] % p == 0:
                continue
            cost = (len(rowdata[r]) - 1) * col_fill
            if best_cost is None or cost < best_cost:
                best, best_cost = (r, c), cost
                if cost == 0:
                    return best
        scanned += 1
        if scanned >= scan and best is not None:
            break
    return best


def elementary_divisors(rows: int, cols: int, entries, p: int, k: int,
                        deadline: float | None = None) -> ElementaryDivisors:
    """Divisors of a sparse matrix given as (row, col, value) triples.

    ``deadline``: absolute time.monotonic() bound; exceeding it raises
    GuardExceededError (used by the opt-in heavy tier).
    """
    if k < 1:
        raise ValueError("modulus exponent k must be >= 1")
    mod = p ** k
    rowdata: dict[int, dict[int, int]] = {}
    coldata: dict[int, set[int]] = {}
    for r, c, v in entries:
        v = int(v) % mod
        if v == 0:
            continue
        row = rowdata.setdefault(int(r), {})
        c = int(c)
        w = (row.get(c, 0) + v) % mod
        if w:
            row[c] = w
            coldata.setdefault(c, set()).add(int(r))
        else:
            row.pop(c, None)
            cset = coldata.get(c)
            if cset is not None:
                cset.discard(int(r))
                if not cset:
                    del coldata[c]
    for r in [r for r, d in rowdata.items() if not d]:
        del rowdata[r]

    shift = 0
    exps: list[int] = []
    steps = 0
    while rowdata:
        steps += 1
        if deadline is not None and steps % 32 == 0 and time.monotonic() > deadline:
            raise GuardExceededError("elimination exceeded the time guard")
        pivot = _pick_unit_pivot(rowdata, coldata, p)
        if pivot is None:
            # every remaining entry is divisible by p: strip one factor
            shift += 1
            mod //= p
            if mod == 1:
                break
            for r, row in list(rowdata.items()):
                for c in list(row):
                    w = (row[c] // p) % mod
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        cset = coldata[c]
                        cset.discard(r)
                        if not cset:
                            del coldata[c]
                if not row:
                    del rowdata[r]
            continue
        pr, pc = pivot
        exps.append(shift)
        prow = rowdata.pop(pr)
        inv = pow(prow[pc], -1, mod)
        # clear the pivot column with row operations; the pivot row itself
        # is removed, which is equivalent to also clearing it with column
        # operations since its column is zero elsewhere afterwards
        for r in list(coldata[pc]):
            if r == pr:
                continue
            row = rowdata[r]
            f = (row[pc] * inv) % mod
            del row[pc]
            for c, v in prow.items():
                if c == pc:
                    continue
                w = (row.get(c, 0) - f * v) % mod
                if w:
                    if c not in row:
                        coldata.setdefault(c, set()).add(r)
                    row[c] = w
                elif c in row:
                    del row[c]
                    cset = coldata[c]
                    cset.discard(r)
                    if not cset:
                        del coldata[c]
            if not row:
                del rowdata[r]
        del coldata[pc]
        for c in prow:
            if c == pc:
                continue
            cset = coldata.get(c)
            if cset is not None:
                cset.discard(pr)
                if not cset:
                    del coldata[c]

    return ElementaryDivisors(p, k, rows, cols, tuple(sorted(exps)))

