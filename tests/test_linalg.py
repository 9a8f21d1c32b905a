"""Exact F_p linear algebra: canonical forms, lattice ops, orthogonality.

Derived expectations are computed by independent enumeration oracles inside
the tests; random instances are seeded and the seed appears in the test id.
"""

import itertools

import numpy as np
import pytest

from unramified.errors import DimensionMismatchError, EvenPrimeError, NotPrimeError
from unramified.linalg import (
    Subspace,
    check_odd_prime,
    half_mod,
    kernel,
    kernel_basis,
    kernel_stack,
    reduce_mod,
    rref_mod,
    rref_stack,
)


def span_size_by_enumeration(rows, p):
    """|row space| counted by enumerating every coefficient combination."""
    rows = np.asarray(rows, dtype=np.int64)
    seen = set()
    for coeffs in itertools.product(range(p), repeat=rows.shape[0]):
        v = (np.array(coeffs) @ rows) % p
        seen.add(tuple(int(x) for x in v))
    return len(seen)


def rref_reference(A, p):
    """Textbook Gauss-Jordan on Python ints: (nonzero rows, pivot columns)."""
    rows = [[int(x) % p for x in r] for r in A]
    n = np.shape(A)[1]
    pivots = []
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [(a - f * b) % p for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def kernel_reference(A, p):
    """One kernel vector per free column f: e_f minus the rref entries of f."""
    rows, pivots = rref_reference(A, p)
    n = np.shape(A)[1]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[f] = 1
        for row, c in zip(rows, pivots):
            x[c] = -row[f] % p
        basis.append(x)
    return basis


def random_matrices(rng, p, count, max_dim=8):
    """Seeded matrices of varied shape and density, some with zero rows/cols."""
    out = []
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(0, max_dim + 1, size=2))
        A = rng.integers(0, p, size=(m, n))
        A *= rng.random((m, n)) < rng.choice([0.2, 0.6, 1.0])
        if m and rng.random() < 0.5:
            A[rng.integers(0, m)] = 0
        if n and rng.random() < 0.5:
            A[:, rng.integers(0, n)] = 0
        out.append(A)
    return out


@pytest.mark.parametrize("seed,p", [(s, p) for p in (3, 5, 7, 11) for s in (0, 1)])
def test_rref_and_kernel_match_reference_seed(seed, p):
    for A in random_matrices(np.random.default_rng(seed), p, 40):
        rows, pivots = rref_reference(A, p)
        R, got_pivots = rref_mod(A, p)
        assert got_pivots == pivots
        assert R.shape == (len(pivots), A.shape[1])
        assert R.tolist() == rows
        B = kernel_basis(A, p)
        assert B.shape == (A.shape[1] - len(pivots), A.shape[1])
        assert B.tolist() == kernel_reference(A, p)


@pytest.mark.parametrize("p", [16411, 2147483647])
def test_rref_matches_reference_beyond_the_inverse_table(p):
    """Primes too large for a table of inverses invert pivots one by one."""
    for A in random_matrices(np.random.default_rng(p), p, 20):
        rows, pivots = rref_reference(A, p)
        R, got_pivots = rref_mod(A, p)
        assert got_pivots == pivots and R.tolist() == rows


@pytest.mark.parametrize("dtype,p", [
    (dtype, p) for dtype in (np.int16, np.int64) for p in (3, 5, 7, 16411)
] + [(np.int64, 2147483647)])
def test_reduce_mod_equals_remainder_in_place(dtype, p):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(p)
    A = rng.integers(info.min, info.max, size=(37, 41), dtype=dtype,
                     endpoint=True)
    A[0, :4] = [info.min, info.max, -p, -1]
    expected = np.remainder(A, p)
    out = reduce_mod(A, p)
    assert out is A and A.dtype == dtype
    assert np.array_equal(A, expected)


@pytest.mark.parametrize("seed,p", [(s, p) for p in (3, 5, 7, 11) for s in (0, 1)])
def test_stack_slices_equal_their_own_2d_result_seed(seed, p):
    rng = np.random.default_rng(seed)
    L, m, n = 9, 6, 7
    # slices of every rank from 0 to 6, plus zero rows and columns
    A = np.stack([rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))
                  for r in range(L - 2)]
                 + [np.zeros((m, n), dtype=np.int64),
                    rng.integers(0, p, size=(m, n))]) % p
    A[3, 2] = 0
    A[5, :, 4] = 0
    before = A.copy()
    R, ranks, pivots = rref_stack(A, p)
    K = kernel_stack(A, p)
    assert np.array_equal(A, before)
    for l in range(L):
        R2, pivots2 = rref_mod(A[l], p)
        r = len(pivots2)
        assert ranks[l] == r
        assert np.array_equal(R[l, :r], R2) and not R[l, r:].any()
        assert pivots[l, :r].tolist() == pivots2 and (pivots[l, r:] == -1).all()
        assert np.array_equal(K[l][K[l].any(axis=1)], kernel_basis(A[l], p))


def test_scalar_validation():
    assert check_odd_prime(3) == 3
    assert check_odd_prime(13) == 13
    with pytest.raises(EvenPrimeError):
        check_odd_prime(2)
    with pytest.raises(NotPrimeError):
        check_odd_prime(9)
    with pytest.raises(NotPrimeError):
        check_odd_prime(1)
    assert half_mod(3) == 2 and (2 * half_mod(3)) % 3 == 1
    assert half_mod(7) == 4 and (2 * half_mod(7)) % 7 == 1


def test_rref_identity_case():
    S = Subspace.from_generators(np.eye(3, dtype=np.int64), 3, 3)
    assert S.dim == 3
    assert np.array_equal(S.basis, np.eye(3, dtype=np.int64))


def test_rref_dependent_rows():
    S = Subspace.from_generators([[1, 2], [2, 4]], 5, 2)
    assert S.dim == 1
    assert np.array_equal(S.basis, [[1, 2]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rref_rank_matches_enumerated_span_seed(seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 3, size=(6, 10))
    rank = Subspace.from_generators(M, 3, 10).dim
    assert 3 ** rank == span_size_by_enumeration(M, 3)


def test_kernel_rank_nullity_small():
    K = kernel([[1, 1, 1]], 3)
    assert K.dim == 2
    K = kernel(np.zeros((2, 4), dtype=np.int64), 5)
    assert K == Subspace.full(5, 4)


@pytest.mark.parametrize("seed,p", [(0, 3), (1, 3), (2, 5), (3, 5)])
def test_kernel_vectors_annihilate_seed(seed, p):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(4, 7))
    K = kernel(M, p)
    rank = Subspace.from_generators(M, p, 7).dim
    assert K.dim + rank == 7
    for row in K.basis:
        assert not ((M @ row) % p).any()


def test_subspace_sum_and_intersection_trivial():
    p = 3
    e1 = Subspace.from_generators([[1, 0, 0]], p, 3)
    e2 = Subspace.from_generators([[0, 1, 0]], p, 3)
    assert (e1 + e2).dim == 2
    assert e1.intersect(e2).dim == 0
    assert (e1 + e1) == e1 and e1.intersect(e1) == e1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_intersection_matches_enumeration_seed(seed):
    p = 5
    rng = np.random.default_rng(seed)
    S = Subspace.from_generators(rng.integers(0, p, size=(3, 6)), p, 6)
    T = Subspace.from_generators(rng.integers(0, p, size=(3, 6)), p, 6)
    got = S.intersect(T)
    elements = np.array(list(itertools.product(range(p), repeat=S.dim))) @ S.basis
    hits = [v for v in elements % p if T.contains(v)]
    expected = Subspace.from_generators(hits, p, 6)
    assert got == expected
    assert (S + T).dim + got.dim == S.dim + T.dim


def test_orthogonal_trivial_cases():
    p = 3
    e1 = Subspace.from_generators([[1, 0, 0]], p, 3)
    assert e1.orthogonal() == Subspace.from_generators(
        [[0, 1, 0], [0, 0, 1]], p, 3)
    assert Subspace.full(p, 4).orthogonal().dim == 0
    assert Subspace.zero(p, 4).orthogonal() == Subspace.full(p, 4)


@pytest.mark.parametrize("seed,p", [(0, 3), (1, 3), (2, 5)])
def test_double_orthogonal_is_identity_seed(seed, p):
    rng = np.random.default_rng(seed)
    S = Subspace.from_generators(rng.integers(0, p, size=(3, 7)), p, 7)
    perp = S.orthogonal()
    assert S.dim + perp.dim == 7
    assert perp.orthogonal() == S


def test_ambient_mismatch_rejected():
    S = Subspace.from_generators([[1, 0]], 3, 2)
    T = Subspace.from_generators([[1, 0, 0]], 3, 3)
    with pytest.raises(DimensionMismatchError):
        S + T
    with pytest.raises(DimensionMismatchError):
        S.contains([1, 0, 0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_form_is_generator_order_independent_seed(seed):
    p = 3
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, p, size=(5, 8))
    S = Subspace.from_generators(gens, p, 8)
    for shuffle_seed in range(3):
        sh = np.random.default_rng(shuffle_seed).permutation(5)
        mixed = gens[sh].copy()
        mixed[0] = (mixed[0] + 2 * mixed[-1]) % p  # row-op: same span
        T = Subspace.from_generators(mixed, p, 8)
        assert S == T
        assert np.array_equal(S.basis, T.basis)
        assert hash(S) == hash(T)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_modular_lattice_identity_seed(seed):
    p = 3
    rng = np.random.default_rng(seed)
    S = Subspace.from_generators(rng.integers(0, p, size=(3, 6)), p, 6)
    T = Subspace.from_generators(rng.integers(0, p, size=(2, 6)), p, 6)
    assert (S + T).dim + S.intersect(T).dim == S.dim + T.dim


def test_zero_ambient_edge_cases():
    Z = Subspace.zero(3, 0)
    assert Z.dim == 0 and Z == Subspace.full(3, 0)
    assert Z.orthogonal() == Z
    assert Subspace.from_generators(np.zeros((0, 0), dtype=np.int64), 3, 0).dim == 0


def test_rref_mod_pivots_are_lex_ordered():
    R, pivots = rref_mod(np.array([[0, 1, 2], [1, 0, 1], [1, 1, 0]]), 3)
    assert pivots == sorted(pivots)
    for i, c in enumerate(pivots):
        col = np.zeros(len(pivots), dtype=np.int64)
        col[i] = 1
        assert np.array_equal(R[:, c], col)


def test_kernel_basis_of_wide_matrix():
    M = np.array([[1, 2, 0, 1], [0, 0, 1, 1]])
    B = kernel_basis(M, 3)
    assert B.shape[0] == 2
    for row in B:
        assert not ((M @ row) % 3).any()
