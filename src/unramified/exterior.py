"""Exterior powers of F_p^n and their duals.

Basis convention, fixed globally: the basis of Lambda^k(F_p^n) is indexed
by the strictly increasing k-subsets of {1, ..., n} in lexicographic order,
and the dual wedge basis of Lambda^k((F_p^n)^dual) is indexed the same way.
The duality pairing is normalized so that on pure wedges

    <f_1 ^ ... ^ f_k, v_1 ^ ... ^ v_k> = det(f_i(v_j))

(no 1/k! factor), which makes the two bases literally dual: the pairing
matrix is the identity, and orthogonal complements reduce to plain kernels.

Degrees with k > n are carried as the zero space of dimension C(n, k) = 0
so that degree-3 computations run uniformly for small n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .linalg import Subspace, half_mod, kernel

Array = np.ndarray


@lru_cache(maxsize=None)
def subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing k-subsets of {1..n}, lex order."""
    return tuple(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(subsets(n, k))}


def merge_sign(S: tuple[int, ...], T: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign and sorted union of disjoint index tuples; sign 0 on overlap."""
    if set(S) & set(T):
        return 0, ()
    inversions = sum(1 for s in S for t in T if s > t)
    merged = tuple(sorted(S + T))
    return (-1) ** inversions, merged


@lru_cache(maxsize=None)
def wedge_basis_tensor(n: int, k: int) -> Array:
    """E[j] = matrix of (omega -> omega ^ e_{j+1}), shape (n, C(n,k), C(n,k+1)).

    Entries are the signs 0, +1, -1 of merge_sign; read-only, since cached.
    """
    E = np.zeros((n, comb(n, k), comb(n, k + 1)), dtype=np.int64)
    idx = subset_index(n, k + 1)
    for i, S in enumerate(subsets(n, k)):
        for j in range(n):
            sign, merged = merge_sign(S, (j + 1,))
            if sign:
                E[j, i, idx[merged]] = sign
    E.setflags(write=False)
    return E


def wedge_by_vector_matrix(p: int, n: int, k: int, v) -> Array:
    """Matrix of (omega -> omega ^ v): Lambda^k -> Lambda^{k+1}, rows = source basis."""
    v = np.asarray(v, dtype=np.int64) % p
    return np.tensordot(v, wedge_basis_tensor(n, k), axes=1) % p


def flag_subspace(p: int, n: int, k: int, v) -> Subspace:
    """{omega ^ v : omega in Lambda^k(F_p^n)} as a subspace of Lambda^{k+1}.

    Has dimension C(n-1, k) for v != 0; also equals ker(^ v) on Lambda^{k+1}.
    """
    v = np.asarray(v, dtype=np.int64) % p
    if not v.any():
        raise ValueError("flag_subspace requires a nonzero vector")
    M = wedge_by_vector_matrix(p, n, k, v)
    return Subspace.from_generators(M, p, M.shape[1])


# -- the multiplication map S^2(Lambda^2 U*) -> Lambda^4 U* ------------------

@lru_cache(maxsize=None)
def sym2_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Basis of S^2 of a d-dim space: index pairs (i, j), i <= j, lex order."""
    return tuple((i, j) for i in range(d) for j in range(i, d))


def sym2_product(x: Array, y: Array, p: int) -> Array:
    """Coordinates of x.y in the {e_i e_j : i <= j} basis of S^2."""
    d = x.shape[0]
    out = np.zeros(len(sym2_pairs(d)), dtype=np.int64)
    for t, (i, j) in enumerate(sym2_pairs(d)):
        out[t] = (x[i] * y[j] + x[j] * y[i]) % p if i != j else (x[i] * y[i]) % p
    return out


def mult_map_matrix(n: int, p: int) -> Array:
    """Matrix of S^2(Lambda^2 U*) -> Lambda^4 U*, rows = S^2 basis elements."""
    d2 = comb(n, 2)
    d4 = comb(n, 4) if n >= 4 else 0
    pairs = sym2_pairs(d2)
    M = np.zeros((len(pairs), d4), dtype=np.int64)
    if d4 == 0:
        return M
    S2 = subsets(n, 2)
    idx4 = subset_index(n, 4)
    for t, (i, j) in enumerate(pairs):
        sign, merged = merge_sign(S2[i], S2[j])
        if sign:
            M[t, idx4[merged]] = sign % p
    return M


def square_kernel_generators(n: int, p: int) -> list[Array]:
    """Images of (1/2)(u^v . w^x + u^w . v^x) over all basis 4-tuples.

    These span the kernel of the multiplication map; coordinates are in the
    S^2(Lambda^2) basis of sym2_pairs.
    """
    half = half_mod(p)
    d2 = comb(n, 2)
    idx2 = subset_index(n, 2)

    def wedge2(a: int, b: int) -> Array:
        out = np.zeros(d2, dtype=np.int64)
        if a == b:
            return out
        s = 1 if a < b else -1
        out[idx2[(min(a, b), max(a, b))]] = s % p
        return out

    gens = []
    for u, v, w, x in itertools.product(range(1, n + 1), repeat=4):
        g = (half * (sym2_product(wedge2(u, v), wedge2(w, x), p)
                     + sym2_product(wedge2(u, w), wedge2(v, x), p))) % p
        gens.append(g)
    return gens


def mult_map_kernel(n: int, p: int) -> Subspace:
    """ker(S^2(Lambda^2 U*) -> Lambda^4 U*) computed from the matrix."""
    M = mult_map_matrix(n, p)
    # rows act on the left; kernel of the transposed action
    return kernel(M.T, p)


# -- text rendering ----------------------------------------------------------

def _balanced(c: int, p: int) -> int:
    return c if c <= p // 2 else c - p


def render_multivector(coeffs, n: int, k: int, p: int, symbol: str = "u") -> str:
    """Canonical text form, e.g. 'u[1,2,3] + u[3,4,5] - u[1,5,6]'.

    Coefficients are balanced to (-p/2, p/2]; unit coefficients are omitted.
    Basis terms appear in lex order of their index subsets.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    terms = []
    for i, S in enumerate(subsets(n, k)):
        c = _balanced(int(coeffs[i]), p)
        if c == 0:
            continue
        body = f"{symbol}[{','.join(map(str, S))}]"
        mag = abs(c)
        text = body if mag == 1 else f"{mag}{body}"
        terms.append((c < 0, text))
    if not terms:
        return "0"
    out = []
    for i, (neg, text) in enumerate(terms):
        if i == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append(("- " if neg else "+ ") + text)
    return " ".join(out)
