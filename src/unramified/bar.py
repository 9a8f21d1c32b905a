"""Normalized bar-resolution cohomology orders: the independent ground truth.

Cochains are restricted to tuples of non-identity elements, so C^n has
(|G| - 1)^n coordinates and the same cohomology as the full complex.  With
coefficients Z/q for q = p^k and trivial action, the differential matrix of

    (delta f)(g_1, ..., g_{n+1}) = f(g_2, ..., g_{n+1})
        + sum_i (-1)^i f(..., g_i g_{i+1}, ...) + (-1)^{n+1} f(g_1, ..., g_n)

has at most n + 2 nonzeros per row (terms whose merged entry is the
identity drop out).  |H^n(G, Z/q)| = |ker delta^n| / |im delta^{n-1}|, both
read off the elementary divisors of the two sparse matrices.

Deriving Q/Z orders.  Take q = |G| = p^k (q = p if |G| = 1: every order is
1), so q kills every positive-degree cohomology group.  The exact sequence
0 -> Z -> Z -> Z/q -> 0 (multiplication by q) then splits into

    0 -> H^i(G, Z) -> H^i(G, Z/q) -> H^{i+1}(G, Z) -> 0   (i >= 1),

because multiplication by q is zero on both ends, so for i >= 1

    |H^{i+1}(G, Z)| = |H^i(G, Z/q)| / |H^i(G, Z)|,   |H^1(G, Z)| = 1.

Finally 0 -> Z -> Q -> Q/Z -> 0 with H^i(G, Q) = 0 for i >= 1 gives
|H^i(G, Q/Z)| = |H^{i+1}(G, Z)| for i >= 1.  The recursion is exact
integer arithmetic; a non-integral quotient cannot happen and would abort.

p-torsion structure check.  For any finite G and j >= 1,

    |H^i(G, Z/p^j)| = |H^i(G, Z)/p^j| * |H^{i+1}(G, Z)[p^j]|,

and both factors are nondecreasing in j, strictly until p^j reaches the
exponent.  Hence the integral cohomology through degree d is killed by p
iff |H^i(G, Z/p)| = |H^i(G, Z/|G|)| for all i <= d.  The tests run this
check on elementary abelian groups from the divisor data of ``mod_exps``.

Reading off other moduli.  The orders at every power p^j of p come from
the divisors over Z/p^k, p^k = |G|: a Smith form over Z/p^k reduces to
one over Z/p^j, where a divisor p^e with e >= j becomes 0, so im delta^i
has p-exponent sum_{e < j} (j - e) and the orders follow as in
``mod_exps``.  For j >= k the orders are those at p^k: |G| kills
H^i(G, Z) for i >= 1, so both factors above stop growing at p^j = |G|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divisors import ElementaryDivisors, check_modulus, elementary_divisors
from .errors import InternalInconsistencyError, check_bound
from .groups import GroupSpec, build_tables

Array = np.ndarray

GUARANTEED_ROWS = 20_000       # largest differential assembled without opt-in
HEAVY_ROWS = 600_000           # hard cap even with --allow-heavy


def bar_matrix(spec: GroupSpec, n: int, modulus: int) -> tuple[int, int, Array]:
    """Sparse matrix of delta^n: C^n -> C^{n+1} over Z/modulus.

    Returns (rows, cols, entries) with entries an (nnz, 3) int64 array of
    (row, col, value) rows sorted by (row, col), values nonzero mod modulus;
    rows = (N-1)^{n+1}, cols = (N-1)^n in the normalized complex.
    """
    t = build_tables(spec)
    N = len(t.mul)
    M = N - 1
    rows, cols = M ** (n + 1), M ** n
    # decode all row tuples; digits in 0..M-1 stand for elements 1..M
    ridx = np.arange(rows)
    elems = ridx[:, None] // M ** np.arange(n, -1, -1) % M + 1
    weights = M ** np.arange(n - 1, -1, -1, dtype=np.int64)

    keys, vals = [], []          # row * cols + col, and the coefficient

    def emit(rowsel: Array, coltuples: Array, coeff: int) -> None:
        keys.append(rowsel * cols + (coltuples - 1) @ weights)
        vals.append(np.full(rowsel.shape[0], coeff, dtype=np.int64))

    emit(ridx, elems[:, 1:], 1)                          # drop g_1
    mul = t.mul
    for i in range(1, n + 1):
        merged = mul[elems[:, i - 1], elems[:, i]]
        keep = merged != 0                              # normalized: e drops
        tup = np.concatenate(
            [elems[:, :i - 1], merged[:, None], elems[:, i + 1:]], axis=1)
        emit(ridx[keep], tup[keep], (-1) ** i)
    emit(ridx, elems[:, :n], (-1) ** (n + 1))            # drop g_{n+1}

    # combine duplicate coordinates (coefficients are +-1, so floats are exact)
    uniq, at = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(at, np.concatenate(vals)).astype(np.int64) % modulus
    keep = sums != 0
    return rows, cols, np.stack(
        ((uniq // cols)[keep], (uniq % cols)[keep], sums[keep]), axis=1)


@dataclass(frozen=True)
class CohomologyOrders:
    """Derived |H^n(G, Q/Z)| (p-exponents), delta^n's divisors over Z/|G|."""

    spec_name: str
    group_order: int
    p: int
    k: int
    degmax: int
    qz_exps: tuple[int, ...]        # |H^n(G, Q/Z)|  = p ** qz_exps[n-1]
    divisors: tuple[tuple[int, ...], ...]   # of delta^n

    def mod_orders(self, j: int) -> dict[str, int]:
        """|H^i(G, Z/p^j)| for i = 1..degmax, read off the divisors: mod p^j
        a divisor p^e with e >= j is 0, and j >= k gives the orders at p^k."""
        j, lower_im, orders = min(j, self.k), 0, {}
        for i, d in enumerate(self.divisors, 1):
            im = sum(j - e for e in d if e < j)
            orders[str(i)] = self.p ** (
                j * (self.group_order - 1) ** i - im - lower_im)
            lower_im = im
        return orders

    def to_json_dict(self) -> dict:
        return {
            "group": self.spec_name,
            "order": self.group_order,
            "p": self.p,
            "modulus": self.p ** self.k,
            "degmax": self.degmax,
            "mod_orders": self.mod_orders(self.k),
            "qz_orders": {str(i + 1): self.p ** e
                          for i, e in enumerate(self.qz_exps)},
            "divisor_exponents": {str(i): list(d)
                                  for i, d in enumerate(self.divisors)},
        }


def mod_exps(spec: GroupSpec, degmax: int, k: int, allow_heavy: bool = False
             ) -> tuple[tuple[int, ...], tuple[ElementaryDivisors, ...]]:
    """p-exponents of |H^i(G, Z/p^k)| for i = 1..degmax, with the divisors
    of delta^1..delta^degmax over Z/p^k; each differential is eliminated once.

    |H^i| = |ker delta^i| / |im delta^{i-1}|, and delta^0 = 0.
    """
    N = spec.order
    check_bound(f"degree {degmax} at |G| = {N}"
                f"{'' if allow_heavy else ' without allow_heavy'}: bar rows",
                (N - 1) ** (degmax + 1),    # rows grow with the degree
                HEAVY_ROWS if allow_heavy else GUARANTEED_ROWS)
    check_modulus(spec.p, k)
    q = spec.p ** k
    divs = tuple(elementary_divisors(*bar_matrix(spec, i, q), spec.p, k)
                 for i in range(1, degmax + 1))
    exps = []
    lower_im = 0
    for i, d in enumerate(divs, 1):
        exp = d.kernel_exp - lower_im
        if exp < 0:
            raise InternalInconsistencyError(
                f"negative cohomology exponent at degree {i}")
        exps.append(exp)
        lower_im = d.image_exp
    return tuple(exps), divs


def qz_orders(spec: GroupSpec, degmax: int = 3,
              allow_heavy: bool = False) -> CohomologyOrders:
    """Derived |H^i(G, Q/Z)| for i <= degmax via the integral recursion."""
    if not 1 <= degmax <= 3:
        raise ValueError("degmax must be between 1 and 3")
    p = spec.p
    k = max(1, spec.n + spec.m)    # p^k = |G|, or p if |G| = 1
    hk, divs = mod_exps(spec, degmax, k, allow_heavy)
    z_exp = 0                      # |H^1(G, Z)| = 1
    qz_exps = []
    for i, h in enumerate(hk, 1):
        e = h - z_exp
        if e < 0:
            raise InternalInconsistencyError(
                f"recursion broke at degree {i}: |H^{i}(Z/p^k)| < |H^{i}(Z)|")
        qz_exps.append(e)          # |H^i(Q/Z)| = |H^{i+1}(Z)|
        z_exp = e
    return CohomologyOrders(spec.name or "custom", spec.order, p, k, degmax,
                            tuple(qz_exps),
                            tuple(d.exponents for d in divs))
