"""Elementary divisors over Z/p^k, cross-checked by full enumeration."""

import itertools

import numpy as np
import pytest

from unramified.divisors import elementary_divisors


def dense_entries(M):
    M = np.asarray(M)
    return [(i, j, int(M[i, j])) for i in range(M.shape[0])
            for j in range(M.shape[1]) if M[i, j]]


def orders_by_enumeration(M, p, k):
    """(|image|, |kernel|) of x -> Mx over Z/p^k, by trying every x."""
    M = np.asarray(M, dtype=np.int64)
    q = p ** k
    rows, cols = M.shape
    images = set()
    kernel = 0
    for x in itertools.product(range(q), repeat=cols):
        y = tuple(int(t) for t in (M @ np.array(x)) % q)
        images.add(y)
        if not any(y):
            kernel += 1
    return len(images), kernel


def test_diagonal_case():
    d = elementary_divisors(2, 2, dense_entries([[1, 0], [0, 3]]), 3, 2)
    assert d.exponents == (0, 1)
    assert d.order_kernel() == 3
    assert d.order_image() == 27


def test_zero_matrix():
    d = elementary_divisors(3, 2, [], 3, 2)
    assert d.order_image() == 1
    assert d.order_kernel() == 9 ** 2
    assert d.zero_cols == 2
    assert d.divisor_multiset() == [9, 9]


@pytest.mark.parametrize("seed,p,k,shape", [
    (0, 3, 2, (3, 3)),
    (1, 3, 2, (2, 3)),
    (2, 3, 3, (3, 2)),
    (3, 5, 2, (3, 2)),
    (4, 3, 2, (4, 3)),
])
def test_orders_match_enumeration_seed(seed, p, k, shape):
    rng = np.random.default_rng(seed)
    q = p ** k
    M = rng.integers(0, q, size=shape)
    d = elementary_divisors(shape[0], shape[1], dense_entries(M), p, k)
    im, ker = orders_by_enumeration(M, p, k)
    assert d.order_image() == im
    assert d.order_kernel() == ker
    assert d.order_image() * d.order_kernel() == q ** shape[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pivot_order_invariance_seed(seed):
    rng = np.random.default_rng(seed)
    p, k = 3, 2
    M = rng.integers(0, p ** k, size=(4, 4))
    base = elementary_divisors(4, 4, dense_entries(M), p, k)
    for permseed in range(3):
        prng = np.random.default_rng(100 + permseed)
        P = M[prng.permutation(4)][:, prng.permutation(4)]
        d = elementary_divisors(4, 4, dense_entries(P), p, k)
        assert d.exponents == base.exponents


def test_duplicate_entries_accumulate():
    # (0,0) listed twice: 5 + 4 = 9 = 0 mod 9, so the matrix is [[0,1],[0,0]]
    entries = [(0, 0, 5), (0, 0, 4), (0, 1, 1)]
    d = elementary_divisors(2, 2, entries, 3, 2)
    assert d.exponents == (0,)
    assert d.order_image() == 9
    assert d.order_kernel() == 9


def test_all_entries_divisible_by_p():
    # 3 * identity over Z/27: divisors (p^1, p^1)
    d = elementary_divisors(2, 2, dense_entries([[3, 0], [0, 3]]), 3, 3)
    assert d.exponents == (1, 1)
    assert d.order_image() == 9 ** 2
    assert d.order_kernel() == 3 ** 2
