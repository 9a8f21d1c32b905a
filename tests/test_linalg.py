"""Exact F_p linear algebra: canonical forms, lattice ops, orthogonality.

Derived expectations are computed by independent enumeration oracles inside
the tests; random instances are seeded and the seed appears in the test id.
"""

import itertools
import time

import numpy as np
import pytest

from unramified import linalg
from unramified.errors import DimensionMismatchError, SpecError
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
    subspaces,
)

from conftest import intersect, local_smith_exponents, rank_mod, span_sum


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


def assert_kernel_is_canonical(A, p):
    """kernel's one elimination gives, byte for byte, the rref of the
    reference kernel basis."""
    basis = kernel_reference(A, p)
    rows, _ = rref_reference(np.reshape(basis, (len(basis), A.shape[1])), p)
    expected = np.array(rows, dtype=np.int64).reshape(len(basis), A.shape[1])
    got = kernel(A, p).basis
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
        assert_kernel_is_canonical(A, p)


@pytest.mark.parametrize("p", [16411, 2147483647])
def test_rref_matches_reference_beyond_the_inverse_table(p):
    """Primes too large for a table of inverses invert pivots one by one."""
    for A in random_matrices(np.random.default_rng(p), p, 20):
        rows, pivots = rref_reference(A, p)
        R, got_pivots = rref_mod(A, p)
        assert got_pivots == pivots and R.tolist() == rows
        assert_kernel_is_canonical(A, p)


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


@pytest.mark.parametrize("seed,p", [(0, 3), (1, 5), (2, 16411)])
def test_stack_columns_with_one_candidate_match_reference_seed(seed, p):
    """Columns where one slice of the stack holds every candidate pivot,
    and in half of them one row: the slice pivots alone, at L = 1 and at
    L > 1.  The last two columns are live in every slice."""
    rng = np.random.default_rng(seed)
    L, m, n = 5, 6, 14
    c = np.arange(n)
    live = (c % L == np.arange(L)[:, None]) | (c >= n - 2)
    A = rng.integers(0, p, size=(L, m, n)) * live[:, None, :]
    for col in range(0, n - 2, 2):
        keep = rng.integers(0, m)
        A[:, np.arange(m) != keep, col] = 0
    for stack in (A, A[:1], A[3:4]):
        R, ranks, pivots = rref_stack(stack, p)
        for l, M in enumerate(stack):
            rows, got = rref_reference(M, p)
            r = ranks[l]
            assert pivots[l, :r].tolist() == got
            assert (pivots[l, r:] == -1).all()
            assert R[l, :r].tolist() == rows and not R[l, r:].any()


@pytest.mark.parametrize("seed,p,k", [(0, 3, 2), (1, 3, 3), (2, 5, 2)])
def test_rref_over_prime_power_keeps_the_divisors_seed(seed, p, k):
    """Over Z/p^k a column without a unit is skipped, but its multiples of
    p stay in rows that pivot later: clearing with such a row must update
    the columns left of its pivot too.  In [[p, 1], [0, 1]] column 0 is
    skipped, row 0 pivots on column 1, and clearing row 1 leaves -p in
    column 0; a loop that starts at the pivot column leaves 0 there."""
    q = p ** k
    rng = np.random.default_rng(seed)
    mats = [np.array([[p, 1], [0, 1]])]
    for _ in range(30):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        A = rng.integers(0, q, size=(m, n)) * p ** rng.integers(0, k + 1, (m, n))
        A[:, :int(rng.integers(0, n + 1))] *= p   # columns with no unit
        mats.append(A % q)
    for A in mats:
        (R,), (rank,), (pivots,) = rref_stack(A[None], p, q)
        assert not (R[rank:] % p).any()
        assert (R[np.arange(rank), pivots[:rank]] == 1).all()
        assert all(np.count_nonzero(R[:, c]) == 1 for c in pivots[:rank])
        entries = [[(i, j, int(x)) for (i, j), x in np.ndenumerate(M) if x]
                   for M in (A, R)]
        assert (local_smith_exponents(*A.shape, entries[1], p, k)
                == local_smith_exponents(*A.shape, entries[0], p, k))


def test_scalar_validation():
    assert check_odd_prime(3) == 3
    assert check_odd_prime(13) == 13
    with pytest.raises(SpecError, match="p = 2 is not supported"):
        check_odd_prime(2)
    with pytest.raises(SpecError, match="modulus 9 is not prime"):
        check_odd_prime(9)
    with pytest.raises(SpecError, match="modulus 1 is not prime"):
        check_odd_prime(1)
    # the largest accepted prime, then the first refused one and a big one
    assert check_odd_prime(65521) == 65521
    for p in (65537, 10 ** 18 + 3):
        start = time.perf_counter()
        with pytest.raises(SpecError, match="too large"):
            check_odd_prime(p)
        assert time.perf_counter() - start < 1
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
    assert K == Subspace.from_generators(np.eye(4, dtype=np.int64), 5, 4)


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
    assert span_sum(e1, e2).dim == 2
    assert intersect(e1, e2).dim == 0
    assert span_sum(e1, e1) == e1 and intersect(e1, e1) == e1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_intersection_matches_enumeration_seed(seed):
    p = 5
    rng = np.random.default_rng(seed)
    S = Subspace.from_generators(rng.integers(0, p, size=(3, 6)), p, 6)
    T = Subspace.from_generators(rng.integers(0, p, size=(3, 6)), p, 6)
    got = intersect(S, T)
    elements = np.array(list(itertools.product(range(p), repeat=S.dim))) @ S.basis
    hits = [v for v in elements % p if T.contains(v)]
    # the stack form answers each vector as the one-vector form does
    assert np.array_equal(T.contains(elements),
                          [bool(T.contains(v)) for v in elements])
    expected = Subspace.from_generators(hits, p, 6)
    assert got == expected
    assert span_sum(S, T).dim + got.dim == S.dim + T.dim


def test_orthogonal_trivial_cases():
    p = 3
    e1 = Subspace.from_generators([[1, 0, 0]], p, 3)
    assert e1.orthogonal() == Subspace.from_generators(
        [[0, 1, 0], [0, 0, 1]], p, 3)
    full = Subspace.from_generators(np.eye(4, dtype=np.int64), p, 4)
    assert full.orthogonal().dim == 0
    assert Subspace.zero(p, 4).orthogonal() == full


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
        S.contains_subspace(T)
    with pytest.raises(DimensionMismatchError):
        Subspace.from_generators([[1, 0]], 5, 2).contains_subspace(S)
    with pytest.raises(DimensionMismatchError):
        S.contains([1, 0, 0])
    with pytest.raises(DimensionMismatchError):
        S.contains(np.zeros((4, 3), dtype=np.int64))


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
    assert span_sum(S, T).dim + intersect(S, T).dim == S.dim + T.dim


def test_zero_ambient_edge_cases():
    Z = Subspace.zero(3, 0)
    assert Z.dim == 0
    assert Z == Subspace.from_generators(np.eye(0, dtype=np.int64), 3, 0)
    assert Z.orthogonal() == Z
    assert Subspace.from_generators(np.zeros((0, 0), dtype=np.int64), 3, 0).dim == 0


def test_rref_mod_pivots_are_lex_ordered():
    R, pivots = rref_mod(np.array([[0, 1, 2], [1, 0, 1], [1, 1, 0]]), 3)
    assert pivots == sorted(pivots)
    for i, c in enumerate(pivots):
        col = np.zeros(len(pivots), dtype=np.int64)
        col[i] = 1
        assert np.array_equal(R[:, c], col)


@pytest.mark.parametrize("seed,p", [(0, 3), (1, 5)])
def test_kernel_eliminates_once_seed(monkeypatch, seed, p):
    """kernel's subspace is the canonical form of its one elimination, also
    through Subspace.orthogonal."""
    calls = []
    real = linalg.rref_stack
    monkeypatch.setattr(linalg, "rref_stack",
                        lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(3, 7))
    S = Subspace(p, 7, rref_reference(M, p)[0])
    for K in (lambda: kernel(M, p), S.orthogonal):
        calls.clear()
        assert K().dim >= 4 and len(calls) == 1


def _check_span(S, M, p):
    """S is the canonical row space of M: rank_mod says the spans agree,
    and the textbook rref says byte for byte how it is written."""
    rank = rank_mod(M, p) if M.size else 0
    assert (S.p, S.ambient, S.dim) == (p, M.shape[1], rank)
    if rank:
        assert rank_mod(np.vstack([S.basis, M]), p) == rank
    rows, _ = rref_reference(M, p)
    assert S.basis.tolist() == rows


def _check_kernel(K, M, p):
    """K is ker M: each row is killed by M, the rows are independent and
    as many as the nullity, and K is written as the rref of the textbook
    kernel vectors."""
    rank = rank_mod(M, p) if M.size else 0
    assert (K.p, K.ambient, K.dim) == (p, M.shape[1], M.shape[1] - rank)
    assert not (M @ K.basis.T % p).any()
    if K.dim:
        assert rank_mod(K.basis, p) == K.dim
        basis = np.reshape(kernel_reference(M, p), (K.dim, M.shape[1]))
        assert K.basis.tolist() == rref_reference(basis, p)[0]


# matrices no stack pads away: no rows, no columns, neither, and 1 x 1
_EDGES = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
          np.zeros((0, 0), dtype=np.int64), np.array([[2]])]


@pytest.mark.parametrize("seed,p", [(s, p) for p in (3, 5, 7) for s in (0, 1, 2)])
def test_subspaces_match_rank_and_kernel_references_seed(monkeypatch, seed, p):
    """Random lists of mixed shapes, with the edge shapes mixed in: each
    row space and each kernel from the one elimination of their padded
    stack equals what the references say."""
    calls = []
    real = linalg.rref_stack
    monkeypatch.setattr(linalg, "rref_stack",
                        lambda *a: calls.append(np.shape(a[0])) or real(*a))
    rng = np.random.default_rng(seed)
    for _ in range(8):
        mats = random_matrices(rng, p, int(rng.integers(1, 6)), max_dim=9)
        mats += [_EDGES[i] for i in rng.permutation(4)[:rng.integers(0, 3)]]
        mats = [mats[i] for i in rng.permutation(len(mats))]
        cut = int(rng.integers(0, len(mats) + 1))
        spans, kernels = mats[:cut], mats[cut:]
        calls.clear()
        out = subspaces(p, spans=spans, kernels=kernels)
        assert len(calls) == 1 and calls[0][0] == len(mats)
        assert len(out) == len(mats)
        for S, M in zip(out, spans):
            _check_span(S, M, p)
        for K, M in zip(out[cut:], kernels):
            _check_kernel(K, M, p)
    assert subspaces(p) == ()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_subspaces_of_the_edge_shapes_alone(p):
    """A 0-row matrix spans 0 and has the whole space as kernel; a 0-column
    matrix, such as a C(n, 3) = 0 table at n < 3, lives in F^0."""
    out = subspaces(p, spans=_EDGES, kernels=_EDGES)
    for S, M in zip(out, _EDGES):
        _check_span(S, M, p)
    for K, M in zip(out[len(_EDGES):], _EDGES):
        _check_kernel(K, M, p)
    assert out[4] == Subspace.from_generators(np.eye(4, dtype=np.int64), p, 4)
    assert [S.ambient for S in out] == [4, 0, 0, 1] * 2


def test_kernel_basis_of_wide_matrix():
    M = np.array([[1, 2, 0, 1], [0, 0, 1, 1]])
    B = kernel_basis(M, 3)
    assert B.shape[0] == 2
    for row in B:
        assert not ((M @ row) % 3).any()
