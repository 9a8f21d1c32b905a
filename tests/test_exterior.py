"""Exterior algebra: the wedge table, duality, flag subspaces, the square kernel."""

import itertools
from math import comb

import numpy as np
import pytest

from unramified.exterior import (
    form_matrices,
    mult_map_kernel,
    mult_map_matrix,
    render_basis,
    square_kernel_generators,
    subset_index,
    subsets,
    wedge_basis_tensor,
    wedge_by_vector_matrix,
)
from unramified.linalg import Subspace, half_mod


def basis(n, k, subset):
    """The coordinates of e_S in Lambda^k(F^n)."""
    out = np.zeros(comb(n, k), dtype=np.int64)
    out[subset_index(n, k)[tuple(subset)]] = 1
    return out


def wedge(p, n, x, a, y, b):
    """x ^ y for x in Lambda^a and y in Lambda^b, read off wedge_basis_tensor
    alone: x ^ e_T = x E(a)[t_1] E(a+1)[t_2] ..., summed over y's terms."""
    out = np.zeros(comb(n, a + b), dtype=np.int64)
    for c, T in zip(np.asarray(y, dtype=np.int64), subsets(n, b), strict=True):
        term = np.asarray(x, dtype=np.int64)
        for k, t in enumerate(T, start=a):
            term = term @ wedge_basis_tensor(n, k)[t - 1]
        out += c * term
    return out % p


def det_mod(M, p):
    """Permutation-expansion determinant: the independent pairing oracle."""
    n = M.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * int(M[i, perm[i]])
        total += term
    return total % p


def test_wedge_basis_cases():
    p, n = 3, 3
    e1, e2 = np.array([1, 0, 0]), np.array([0, 1, 0])
    e12 = basis(n, 2, (1, 2))
    assert np.array_equal(wedge(p, n, e1, 1, e2, 1), e12)
    assert np.array_equal(wedge(p, n, e2, 1, e1, 1), -e12 % p)
    s = np.array([1, 1, 0])
    assert np.array_equal(wedge(p, n, s, 1, e2, 1), e12)  # e2 ^ e2 = 0


def test_wedge_beyond_top_degree_is_zero_space():
    p, n = 3, 2
    x = wedge(p, n, basis(n, 2, (1, 2)), 2, np.array([1, 0]), 1)
    assert x.shape == (0,) == (comb(n, 3),)


def test_pairing_dual_bases_are_dual():
    # <e*_S, e_T> = det(e*_s(e_t)) is 1 for S = T and 0 otherwise, so the
    # pairing of coordinates is the plain dot product
    p, n = 3, 4
    e = np.eye(n, dtype=np.int64)
    for S in subsets(n, 2):
        for T in subsets(n, 2):
            f = wedge(p, n, e[S[0] - 1], 1, e[S[1] - 1], 1)
            x = wedge(p, n, e[T[0] - 1], 1, e[T[1] - 1], 1)
            M = np.array([[int(s == t) for t in T] for s in S])
            assert int(f @ x % p) == det_mod(M, p) == (1 if S == T else 0)


def test_pairing_two_by_two_determinant():
    p, n = 3, 2
    f = wedge(p, n, [1, 1], 1, [0, 1], 1)   # (e1* + e2*) ^ e2*
    x = wedge(p, n, [1, 0], 1, [0, 1], 1)
    assert int(f @ x % p) == 1  # det [[1,1],[0,1]]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pairing_matches_determinant_oracle_seed(seed):
    p, n, k = 3, 6, 3
    rng = np.random.default_rng(seed)
    fs = rng.integers(0, p, size=(k, n))
    vs = rng.integers(0, p, size=(k, n))
    f = wedge(p, n, wedge(p, n, fs[0], 1, fs[1], 1), 2, fs[2], 1)
    x = wedge(p, n, wedge(p, n, vs[0], 1, vs[1], 1), 2, vs[2], 1)
    M = fs @ vs.T % p
    assert int(f @ x % p) == det_mod(M, p)


@pytest.mark.parametrize("seed,a,b", [(0, 1, 1), (1, 1, 2), (2, 2, 2), (3, 2, 3)])
def test_graded_anticommutativity_seed(seed, a, b):
    p, n = 3, 6
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=comb(n, a))
    y = rng.integers(0, p, size=comb(n, b))
    sign = (-1) ** (a * b)
    assert np.array_equal(wedge(p, n, x, a, y, b),
                          sign * wedge(p, n, y, b, x, a) % p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wedge_associativity_seed(seed):
    p, n = 5, 5
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=n)
    y = rng.integers(0, p, size=comb(n, 2))
    z = rng.integers(0, p, size=n)
    assert np.array_equal(wedge(p, n, wedge(p, n, x, 1, y, 2), 3, z, 1),
                          wedge(p, n, x, 1, wedge(p, n, y, 2, z, 1), 3))


def _flag(p, n, k, v):
    """{omega ^ v : omega in Lambda^k(F_p^n)} as a subspace of Lambda^{k+1}."""
    return Subspace.from_generators(wedge_by_vector_matrix(p, n, k, v), p,
                                    comb(n, k + 1))


def test_flag_subspace_small():
    F = _flag(3, 3, 1, [1, 0, 0])
    assert F == Subspace.from_generators(
        [basis(3, 2, (1, 2)), basis(3, 2, (1, 3))], 3, 3)
    assert F.dim == 2 == comb(2, 1)


def test_flag_subspace_dimension_formula():
    assert _flag(3, 6, 2, [0, 0, 0, 0, 0, 1]).dim == comb(5, 2)


def test_flag_subspace_mixed_vector():
    p, n = 3, 6
    v = np.array([1, 0, 1, 0, 1, 0])
    F = _flag(p, n, 2, v)
    assert F.dim == comb(n - 1, 2)
    for row in F.basis:
        # every member wedges to zero against v again
        assert not wedge(p, n, row, 3, v, 1).any()


def test_flag_subspace_equals_kernel_of_wedge():
    # contraction homotopy: im(^v) = ker(^v) one degree up
    p, n = 3, 5
    rng = np.random.default_rng(9)
    v = rng.integers(0, p, size=n)
    v[0] = 1
    F = _flag(p, n, 1, v)
    W = wedge_by_vector_matrix(p, n, 2, v)
    from unramified.linalg import kernel
    assert F == kernel(W.T, p)


@pytest.mark.parametrize("n,p", [(0, 3), (1, 3), (2, 3), (3, 3), (0, 5),
                                 (1, 5), (2, 5), (3, 5)])
def test_mult_map_kernel_is_everything_below_dim_4(n, p):
    M, gens = mult_map_matrix(n, p), square_kernel_generators(n, p)
    dim_s2 = comb(comb(n, 2) + 1, 2)
    assert M.shape == (dim_s2, 0) and gens.shape == (n ** 4, dim_s2)
    K = mult_map_kernel(n, p)
    assert K.dim == dim_s2
    assert Subspace.from_generators(gens, p, K.ambient) == K


@pytest.mark.parametrize("n,p", [(4, 3), (4, 5), (5, 3), (5, 5)])
def test_mult_map_kernel_equals_generator_span(n, p):
    M, gens = mult_map_matrix(n, p), square_kernel_generators(n, p)
    K = mult_map_kernel(n, p)
    span = Subspace.from_generators(gens, p, K.ambient)
    assert span == K
    # row e_Si e_Sj of M is e_Si ^ e_Sj
    S2 = subsets(n, 2)
    for t, (i, j) in enumerate(zip(*np.triu_indices(len(S2)))):
        assert np.array_equal(
            M[t], wedge(p, n, basis(n, 2, S2[i]), 2, basis(n, 2, S2[j]), 2))
    if n == 4:
        # dim S^2(Lambda^2) = 21, the map onto the 1-dim Lambda^4 has rank 1
        from conftest import rank_mod
        assert K.ambient == 21
        assert rank_mod(M.T, p) == 1
        assert K.dim == 20


def tensor4_of_sym2(vec, n, p):
    """Embed S^2(Lambda^2 U*) into (U*)^(x4), as an (n, n, n, n) array.

    e_S . e_T -> (1/2)(w_S x w_T + w_T x w_S) with w_(i,j) = (1/2)(e_i x e_j
    - e_j x e_i); combined with the generator normalization this realizes the
    1/16-scaled square symmetrizer.
    """
    half = half_mod(p)
    T = np.zeros((n,) * 4, dtype=np.int64)
    S2 = subsets(n, 2)

    def w2(S):
        out = np.zeros((n, n), dtype=np.int64)
        a, b = S[0] - 1, S[1] - 1
        out[a, b] = half
        out[b, a] = (-half) % p
        return out

    for t, (i, j) in enumerate(zip(*np.triu_indices(comb(n, 2)))):
        c = int(vec[t])
        if not c:
            continue
        A, B = w2(S2[i]), w2(S2[j])
        sym = np.einsum('ab,cd->abcd', A, B) + np.einsum('ab,cd->abcd', B, A)
        T = (T + c * half * sym) % p
    return T


def square_symmetrizer_tensor(n, p, u, v, w, x):
    """Sum over sigma in <(12),(34)> of eps(sigma) sigma (sum over <(14),(23)> of sigma' t).

    t = e_u x e_v x e_w x e_x (1-based indices); returns an (n, n, n, n) array.
    """
    plus = [(0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0)]
    minus_group = [((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1),
                   ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1)]
    base = (u - 1, v - 1, w - 1, x - 1)
    T = np.zeros((n,) * 4, dtype=np.int64)
    for perm_m, sign in minus_group:
        for perm_p in plus:
            # slot i of the result receives base[perm_p[perm_m[i]]]
            word = tuple(base[perm_p[perm_m[i]]] for i in range(4))
            T[word] = (T[word] + sign) % p
    return T


def test_square_symmetrizer_matches_sixteen_term_expansion():
    n, p = 4, 5
    # the expansion of the double symmetrization of e1 x e2 x e3 x e4
    words = [
        ((1, 2, 3, 4), 1), ((3, 4, 1, 2), 1), ((2, 1, 3, 4), -1), ((3, 4, 2, 1), -1),
        ((2, 1, 4, 3), 1), ((4, 3, 2, 1), 1), ((1, 2, 4, 3), -1), ((4, 3, 1, 2), -1),
        ((1, 3, 2, 4), 1), ((2, 4, 1, 3), 1), ((3, 1, 2, 4), -1), ((2, 4, 3, 1), -1),
        ((3, 1, 4, 2), 1), ((4, 2, 3, 1), 1), ((1, 3, 4, 2), -1), ((4, 2, 1, 3), -1),
    ]
    expected = np.zeros((n,) * 4, dtype=np.int64)
    for word, sign in words:
        idx = tuple(w - 1 for w in word)
        expected[idx] = (expected[idx] + sign) % p
    got = square_symmetrizer_tensor(n, p, 1, 2, 3, 4)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("p", [3, 5])
def test_kernel_generators_embed_as_scaled_symmetrizer(p):
    n = 4
    gens = square_kernel_generators(n, p)
    inv16 = pow(16, -1, p)
    for t, (u, v, w, x) in enumerate(itertools.product(range(1, n + 1), repeat=4)):
        emb = tensor4_of_sym2(gens[t], n, p)
        sym = square_symmetrizer_tensor(n, p, u, v, w, x)
        assert np.array_equal(emb, (inv16 * sym) % p), (u, v, w, x)


@pytest.mark.parametrize("n", range(7))
def test_form_matrices_of_basis_functionals(n):
    # the form of e_s is +1 at (i, j) = subsets(n, 2)[s], -1 at (j, i)
    for s, (i, j) in enumerate(subsets(n, 2)):
        A = form_matrices(np.eye(comb(n, 2), dtype=np.int64)[s], n)
        expected = np.zeros((n, n), dtype=np.int64)
        expected[i - 1, j - 1], expected[j - 1, i - 1] = 1, -1
        assert np.array_equal(A, expected), (n, s)
    # a stack of functionals gives the stack of their forms
    assert form_matrices(np.eye(comb(n, 2), dtype=np.int64), n).shape == \
        (comb(n, 2), n, n)


def test_form_matrices_pair_with_the_wedge():
    # u . A . w = c . (u ^ w) for random u, w and c
    p, n = 5, 5
    rng = np.random.default_rng(7)
    c = rng.integers(0, p, size=comb(n, 2))
    for _ in range(20):
        u, w = rng.integers(0, p, size=(2, n))
        assert (u @ form_matrices(c, n) @ w - c @ wedge(p, n, u, 1, w, 1)) \
            % p == 0


def test_render_multivector():
    p, n = 3, 6
    t = (basis(n, 3, (1, 2, 3)) + basis(n, 3, (3, 4, 5))
         + 2 * basis(n, 3, (1, 5, 6)))

    def render(coeffs, n, k, p, **kw):      # the one-row case
        return render_basis([coeffs], n, k, p, **kw)[0]

    # terms print in lex order of the index subsets, coefficients balanced
    assert render(t, n, 3, p) == "u[1,2,3] - u[1,5,6] + u[3,4,5]"
    assert render(np.zeros(comb(n, 3)), n, 3, p) == "0"
    assert render(2 * basis(3, 1, (2,)), 3, 1, 5) == "2u[2]"
    assert render(3 * basis(3, 1, (2,)), 3, 1, 5) == "-2u[2]"
    assert render(2 * basis(n, 2, (1, 2)), n, 2, p, symbol="u*") == "-u*[1,2]"
    # a whole basis renders row by row, a zero row as "0", none as []
    rows = np.array([t, np.zeros(comb(n, 3)), 2 * t, -basis(n, 3, (4, 5, 6))])
    assert render_basis(rows, n, 3, p) == [
        "u[1,2,3] - u[1,5,6] + u[3,4,5]", "0",
        "-u[1,2,3] + u[1,5,6] - u[3,4,5]", "-u[4,5,6]"]
    assert render_basis(np.zeros((0, comb(n, 3))), n, 3, p) == []
    assert render_basis([[0, 3, 1, 4]], 4, 1, 7, symbol="u*") == \
        ["3u*[2] + u*[3] - 3u*[4]"]


def test_unsorted_wedge_canonicalizes_with_even_permutation_sign():
    # u5 ^ u6 ^ u1 re-sorts to +u1 ^ u5 ^ u6 (even permutation)
    p, n = 3, 6
    e = np.eye(n, dtype=np.int64)
    w = wedge(p, n, wedge(p, n, e[4], 1, e[5], 1), 2, e[0], 1)
    assert np.array_equal(w, basis(n, 3, (1, 5, 6)))
    assert render_basis([w], n, 3, p) == ["u[1,5,6]"]
