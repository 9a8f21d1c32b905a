"""Elementary divisors over Z/p^k, cross-checked by full enumeration."""

import itertools

import numpy as np
import pytest

from unramified import divisors
from unramified.divisors import elementary_divisors

from conftest import local_smith_exponents


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
    assert d.kernel_exp == 1
    assert d.image_exp == 3


def test_zero_matrix():
    d = elementary_divisors(3, 2, [], 3, 2)
    assert d.image_exp == 0
    assert d.kernel_exp == 4
    assert d.exponents == ()


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
    assert p ** d.image_exp == im
    assert p ** d.kernel_exp == ker
    assert d.image_exp + d.kernel_exp == k * shape[1]


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
    assert d.image_exp == 2
    assert d.kernel_exp == 2


def test_all_entries_divisible_by_p():
    # 3 * identity over Z/27: divisors (p^1, p^1)
    d = elementary_divisors(2, 2, dense_entries([[3, 0], [0, 3]]), 3, 3)
    assert d.exponents == (1, 1)
    assert d.image_exp == 4
    assert d.kernel_exp == 2


@pytest.mark.parametrize("p,k,case", [
    (p, k, case) for p in (3, 5) for k in (1, 2, 3) for case in range(4)
] + [(p, k, shape) for p in (3, 5) for k in (2, 3) for shape in ("tall", "wide")])
def test_matches_dense_local_smith(monkeypatch, p, k, case):
    """An integer case is a random matrix.  "tall" is shaped like a bar
    differential (rows >> cols, at most 5 entries a row) with column c
    scaled by p^(c % k); "wide" has row r scaled by p^(r % k) instead.
    Both run in blocks of a few cells, so that block boundaries fall inside
    the matrix and the rounds after the first span several blocks."""
    rng = np.random.default_rng([p, k, {"tall": 4, "wide": 5}.get(case, case)])
    q = p ** k
    if isinstance(case, str):
        monkeypatch.setattr(divisors, "_BLOCK_CELLS", 50)
        rows, cols, per_row = (240, 12, 5) if case == "tall" else (12, 240, 30)
        scale = (lambda r, c: p ** (c % k)) if case == "tall" else \
            (lambda r, c: p ** (r % k))
        entries = [(r, c, int(rng.integers(1, q)) * scale(r, c))
                   for r in range(rows)
                   for c in rng.choice(cols, int(rng.integers(1, per_row + 1)),
                                       replace=False).tolist()]
    else:
        rows, cols = int(rng.integers(1, 41)), int(rng.integers(1, 31))
        scale = lambda r, c: 1
        entries = [(int(rng.integers(rows)), int(rng.integers(cols)),
                    int(rng.integers(1, q)) * p ** int(rng.integers(0, k + 1)))
                   for _ in range(int(rng.integers(0, rows * cols // 3 + 2)))]
    # repeat some coordinates so that entries accumulate, or cancel
    entries += [(r, c, int(rng.integers(-q, q)) * scale(r, c))
                for r, c, _ in entries[:len(entries) // 4]]
    d = elementary_divisors(rows, cols, entries, p, k)
    assert d.exponents == local_smith_exponents(rows, cols, entries, p, k)
    if isinstance(case, str):
        assert len(set(d.exponents)) >= 2
