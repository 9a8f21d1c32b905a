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

The basis of S^2(Lambda^2) is {e_i e_j : i <= j} over the Lambda^2 basis,
ordered as np.triu_indices orders the pairs (i, j): by i, then by j.
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


@lru_cache(maxsize=None)
def wedge_basis_tensor(n: int, k: int) -> Array:
    """E[j] = matrix of (omega -> omega ^ e_{j+1}), shape (n, C(n,k), C(n,k+1)).

    e_S ^ e_t is 0 for t in S, else (-1)^#{s in S : s > t} e_(S + t sorted);
    read-only, since cached.
    """
    E = np.zeros((n, comb(n, k), comb(n, k + 1)), dtype=np.int64)
    idx = subset_index(n, k + 1)
    for i, S in enumerate(subsets(n, k)):
        for t in set(range(1, n + 1)) - set(S):
            E[t - 1, i, idx[tuple(sorted(S + (t,)))]] = (-1) ** sum(s > t for s in S)
    E.setflags(write=False)
    return E


def form_matrices(coeffs, n: int) -> Array:
    """Alternating n x n matrices of Lambda^2-functionals: coeffs of shape
    (..., C(n, 2)) give A of shape (..., n, n) with A[..., i, j] the value
    on e_{i+1} ^ e_{j+1}, so u . A . w = coeffs . (u ^ w): scattered onto
    i < j in np.triu_indices order (lex), negated onto (j, i)."""
    c = np.asarray(coeffs, dtype=np.int64)
    A = np.zeros(c.shape[:-1] + (n, n), dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    A[..., i, j] = c
    A[..., j, i] = -c
    return A


def wedge_by_vector_matrix(p: int, n: int, k: int, v) -> Array:
    """Matrix of (omega -> omega ^ v): Lambda^k -> Lambda^{k+1}, rows = source basis."""
    v = np.asarray(v, dtype=np.int64) % p
    return np.tensordot(v, wedge_basis_tensor(n, k), axes=1) % p


# -- the multiplication map S^2(Lambda^2 U*) -> Lambda^4 U* ------------------

def mult_map_matrix(n: int, p: int) -> Array:
    """Matrix of S^2(Lambda^2 U*) -> Lambda^4 U*, rows = S^2 basis elements.

    Row e_i e_j is e_Si ^ e_Sj = e_Si ^ e_a ^ e_b for S_j = (a, b), read off
    the wedge tensor in degrees 2 and 3."""
    a, b = np.triu_indices(n, 1)            # the 2-subsets, lex order
    W = wedge_basis_tensor(n, 2)[a] @ wedge_basis_tensor(n, 3)[b]
    i, j = np.triu_indices(comb(n, 2))
    return W[j, i] % p                      # W[j, i] = e_Si ^ e_Sj


def square_kernel_generators(n: int, p: int) -> Array:
    """Rows (1/2)(u^v . w^x + u^w . v^x) over all basis 4-tuples (u, v, w, x)
    in lex order, in the S^2(Lambda^2) basis.

    These span the kernel of the multiplication map.  The coordinate of
    y . z on e_i e_j is y_i z_j + y_j z_i for i < j and y_i z_i for i = j.
    """
    A = wedge_basis_tensor(n, 1).transpose(1, 0, 2)     # A[a, b] = e_a ^ e_b
    P = (np.einsum("uvi,wxj->uvwxij", A, A)             # u^v (x) w^x
         + np.einsum("uwi,vxj->uvwxij", A, A))          # + u^w (x) v^x
    i, j = np.triu_indices(comb(n, 2))
    gens = P[..., i, j] + P[..., j, i] * (i != j)
    return half_mod(p) * gens.reshape(n ** 4, len(i)) % p


def mult_map_kernel(n: int, p: int) -> Subspace:
    """ker(S^2(Lambda^2 U*) -> Lambda^4 U*) computed from the matrix."""
    M = mult_map_matrix(n, p)
    # rows act on the left; kernel of the transposed action
    return kernel(M.T, p)


# -- text rendering ----------------------------------------------------------

def render_basis(basis, n: int, k: int, p: int, symbol: str = "u"
                 ) -> list[str]:
    """Canonical text form of each row of basis, a stack (rows, C(n, k)),
    e.g. 'u[1,2,3] + u[3,4,5] - u[1,5,6]'; a row of zeros is '0'.

    Coefficients are balanced to (-p/2, p/2]; unit coefficients are omitted.
    Basis terms appear in lex order of their index subsets.  The labels are
    built once per call, and the nonzero entries read as Python ints once.
    """
    B = np.asarray(basis, dtype=np.int64) % p
    labels = [f"{symbol}[{','.join(map(str, s))}]" for s in subsets(n, k)]
    terms = [[] for _ in range(len(B))]
    rows, cols = np.nonzero(B)          # row by row, columns increasing
    for r, c, x in zip(rows.tolist(), cols.tolist(), B[rows, cols].tolist()):
        neg = x > p // 2
        mag = p - x if neg else x
        sign = ("- " if neg else "+ ") if terms[r] else ("-" if neg else "")
        terms[r].append(sign + (labels[c] if mag == 1
                                else f"{mag}{labels[c]}"))
    return [" ".join(t) or "0" for t in terms]
