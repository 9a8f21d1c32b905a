"""Bar-resolution oracle: matrix shapes, d o d = 0, cohomology orders."""

import inspect
import textwrap
from collections import Counter
from functools import lru_cache
from math import log

import numpy as np
import pytest

from unramified import bar
from unramified.bar import bar_matrix, mod_exps, qz_orders
from unramified.catalog import builtin
from unramified.cli import main
from unramified.divisors import elementary_divisors
from unramified.errors import GuardExceededError

from conftest import (p_annihilated, random_invertible, random_strict_spec,
                      rank_mod)


def order_mod(spec, n, modulus):
    """|H^n(G, Z/modulus)| read off mod_exps, for modulus a power of p."""
    k = round(log(modulus, spec.p))
    assert spec.p ** k == modulus
    exps, _ = mod_exps(spec, n, k)
    return spec.p ** exps[n - 1]


def sparse_matmul_is_zero(a, b, q):
    """Is A @ B = 0 over Z/q for COO (rows, cols, entries) matrices?"""
    rows_a, cols_a, ea = a
    rows_b, cols_b, eb = b
    assert cols_a == rows_b, "shape mismatch"
    brows = {}
    for r, c, v in eb:
        brows.setdefault(r, []).append((c, v))
    acc = {}
    for r, c, v in ea:
        for c2, v2 in brows.get(c, ()):
            acc[r, c2] = (acc.get((r, c2), 0) + v * v2) % q
    return not any(acc.values())


def test_bar_matrix_shapes_cyclic3():
    d1 = bar_matrix(builtin("elem3"), 1, 9)
    assert (d1[0], d1[1]) == (4, 2)
    d2 = bar_matrix(builtin("elem3"), 2, 9)
    assert (d2[0], d2[1]) == (8, 4)
    assert sparse_matmul_is_zero(d2, d1, 9)


def test_bar_matrix_row_sparsity_bound():
    rows, cols, entries = bar_matrix(builtin("elem9"), 2, 9)
    per_row = {}
    for r, _, _ in entries:
        per_row[r] = per_row.get(r, 0) + 1
    assert max(per_row.values()) <= 4  # n + 2 for n = 2


@pytest.mark.parametrize("name,n,q", [
    ("elem3", 0, 9), ("elem3", 1, 9), ("elem3", 2, 9), ("elem9", 1, 9),
    ("elem9", 2, 9), ("heisenberg3", 1, 27),
])
def test_d_composed_with_d_is_zero(name, n, q):
    a = bar_matrix(builtin(name), n, q)
    b = bar_matrix(builtin(name), n + 1, q)
    assert sparse_matmul_is_zero(b, a, q)


def test_d_composed_with_d_is_zero_heisenberg27_degree2():
    # 17576 x 676 differential against the 676 x 26 one, over Z/27
    spec = builtin("heisenberg3")
    d1 = bar_matrix(spec, 1, 27)
    d2 = bar_matrix(spec, 2, 27)
    assert (d2[0], d2[1]) == (17576, 676)
    assert sparse_matmul_is_zero(d2, d1, 27)


@pytest.mark.parametrize("name,n,k,counts", [
    ("heisenberg3", 2, 3, {0: 648, 1: 2}),
    ("elem27", 2, 3, {0: 647, 1: 3}),
    ("elem9", 3, 2, {0: 453, 1: 3}),
    ("heisenberg5", 1, 3, {0: 122, 1: 2}),
], ids=["heisenberg3-d2", "elem27-d2", "elem9-d3", "heisenberg5-d1"])
def test_divisor_multisets_of_the_largest_differentials(name, n, k, counts):
    # {exponent: count} of delta^n over Z/p^k, as a sparse dict-of-dict
    # Smith elimination with a different pivot order computed them
    spec = builtin(name)
    d = elementary_divisors(*bar_matrix(spec, n, spec.p ** k), spec.p, k)
    assert Counter(d.exponents) == counts


def test_h2_of_cyclic3_mod9():
    assert order_mod(builtin("elem3"), 2, 9) == 3


def test_h1_values():
    assert order_mod(builtin("elem3"), 1, 3) == 3
    # Hom(G, Z/27) = Hom((Z/3)^2, Z/27) has order 9 for the order-27
    # Heisenberg group (G^ab is 2-dimensional)
    assert order_mod(builtin("heisenberg3"), 1, 27) == 9


def test_h2_of_elem9_mod3():
    # dim H^2((Z/3)^2, F_3) = 3: regression value from the oracle itself
    assert order_mod(builtin("elem9"), 2, 3) == 27


def test_qz_orders_cyclic():
    co = qz_orders(builtin("elem3"), 3)
    assert co.to_json_dict()["qz_orders"] == {"1": 3, "2": 1, "3": 3}


def test_qz_orders_elem9_match_exterior_and_symmetric_dimensions():
    co = qz_orders(builtin("elem9"), 3)
    # |H^2| = |Lambda^2 E*| = 3^1; |H^3| = |Lambda^3 E* + S^2 E*| = 3^(0+3)
    assert co.to_json_dict()["qz_orders"] == {"1": 9, "2": 3, "3": 27}


def test_qz_orders_heisenberg27_degree1():
    co = qz_orders(builtin("heisenberg3"), 1)
    assert co.to_json_dict()["qz_orders"] == {"1": 9}


def test_qz_orders_heisenberg27_degree2_regression():
    # oracle-derived regression value (|H^2(G, Q/Z)| = 9 for the order-27
    # exponent-3 group); degree 2 at |G| = 27 sits in the guaranteed tier
    co = qz_orders(builtin("heisenberg3"), 2)
    d = co.to_json_dict()
    assert d["qz_orders"]["2"] == 9
    assert d["mod_orders"]["2"] == 81


@pytest.mark.parametrize("name", ["elem3", "elem9", "heisenberg3"])
def test_degree1_sanity_equals_abelianization(name):
    spec = builtin(name)
    co = qz_orders(spec, 1)
    # |G^ab| = p^(n + m - rank gamma), computed away from the bar complex
    assert co.qz_exps[0] == spec.n + spec.m - rank_mod(spec.gamma, spec.p)


def test_degree1_sanity_random_spec():
    rng = np.random.default_rng(4)
    spec = random_strict_spec(rng, 3, n_max=2)  # heisenberg-like, |G| = 27
    co = qz_orders(spec, 1)
    # |G^ab| = p^(n + m - rank gamma), computed away from the bar complex
    assert co.qz_exps[0] == spec.n + spec.m - rank_mod(spec.gamma, spec.p)


@pytest.mark.parametrize("name,degmax", [("elem3", 3), ("elem9", 3)])
def test_p_annihilation_structural(name, degmax):
    assert p_annihilated(builtin(name), degmax)


def test_qz_orders_of_elementary_abelian_are_p_powers_of_dimension():
    # |H^i(E, Q/Z)| = p^(F_p-dimension), all killed by p
    co = qz_orders(builtin("elem9"), 3)
    assert all(e >= 0 for e in co.qz_exps)


def test_heavy_tier_guard():
    with pytest.raises(GuardExceededError):
        qz_orders(builtin("heisenberg3"), 3, allow_heavy=False)
    with pytest.raises(GuardExceededError):
        # even allow_heavy refuses above the hard cap (|G| = 125, degree 3)
        qz_orders(builtin("heisenberg5"), 3, allow_heavy=True)


@pytest.mark.parametrize("check,name", [(qz_orders, "heisenberg3"),
                                        (p_annihilated, "elem27")])
def test_guard_refuses_before_any_matrix(monkeypatch, check, name):
    # degrees 1 and 2 are within the guaranteed tier, degree 3 is not
    def no_matrix(*args):
        raise AssertionError("a bar matrix was built before the guard refused")

    monkeypatch.setattr(bar, "bar_matrix", no_matrix)
    with pytest.raises(GuardExceededError):
        check(builtin(name), 3)


@pytest.mark.parametrize("run,calls", [
    (lambda: qz_orders(builtin("elem9"), 3), 3),
    (lambda: p_annihilated(builtin("elem9"), 3), 6),
    (lambda: main(["oracle", "cohomology", "--builtin", "elem9", "--degree",
                   "3", "--modulus", "9"]), 3),
], ids=["qz_orders", "p_annihilation", "cli-modulus"])
def test_each_differential_eliminated_once_per_modulus(monkeypatch, capsys,
                                                       run, calls):
    seen = []
    real = bar.elementary_divisors

    def counting(rows, cols, entries, p, k):
        seen.append((rows, cols, k))
        return real(rows, cols, entries, p, k)

    monkeypatch.setattr(bar, "elementary_divisors", counting)
    run()
    assert len(seen) == len(set(seen)) == calls


@pytest.mark.parametrize("modulus", [None, 3, 9, 27, 81, 3 ** 15])
def test_oracle_cohomology_eliminates_each_differential_once(
        monkeypatch, capsys, modulus):
    # the orders at any --modulus are read off the eliminations over Z/|G|
    seen = []
    real = bar.elementary_divisors

    def counting(rows, cols, entries, p, k):
        seen.append(k)
        return real(rows, cols, entries, p, k)

    monkeypatch.setattr(bar, "elementary_divisors", counting)
    argv = ["oracle", "cohomology", "--builtin", "heisenberg3", "--degree",
            "2", "--json"]
    assert main(argv + ([] if modulus is None else
                        ["--modulus", str(modulus)])) == 0
    assert seen == [3, 3]


def test_float64_bound_refuses_before_any_matrix(monkeypatch):
    monkeypatch.setattr(bar, "bar_matrix", lambda *a: pytest.fail(
        "a bar matrix was built before the guard refused"))
    with pytest.raises(GuardExceededError, match="modulus 3\\^15: float64"):
        mod_exps(builtin("elem9"), 2, 15)


# every guaranteed-tier builtin at its largest admitted degree
GUARANTEED = {"elem3": 3, "elem9": 3, "elem27": 2, "heisenberg3": 2,
              "elem25": 2, "heisenberg5": 1}


@lru_cache(maxsize=None)
def _read_off_cases(name):
    """((orders of degree d, j, |H^i(G, Z/p^j)| for i <= d by a direct
    elimination over Z/p^j), ...) for every degree d and j = 1..k+2."""
    spec = builtin(name)
    dmax, k = GUARANTEED[name], spec.n + spec.m
    orders = [qz_orders(spec, d) for d in range(1, dmax + 1)]
    cases = []
    for j in range(1, k + 3):
        exps = mod_exps(spec, dmax, j)[0]
        cases += [(o, j, {str(i): spec.p ** e
                          for i, e in enumerate(exps[:o.degmax], 1)})
                  for o in orders]
    return tuple(cases)


@lru_cache(maxsize=None)
def _higher_divisor_cases():
    """The bar differentials above have divisor exponents e <= 1, where the
    e < j filter changes nothing.  So also read off a 6 x 5 map over Z/3^4
    with divisors 1, 3, 9, 27 and 0 as the degree-1 differential of a
    complex, against its direct elimination over each Z/3^j, j <= 4."""
    p, k = 3, 4
    rng = np.random.default_rng(0)
    D = np.zeros((6, 5), dtype=np.int64)
    D[range(4), range(4)] = [1, 3, 9, 27]
    A = random_invertible(rng, 6, p) @ D @ random_invertible(rng, 5, p)

    def divisors(j):
        M = A % p ** j
        r, c = np.nonzero(M)
        return elementary_divisors(6, 5, np.stack([r, c, M[r, c]], axis=1),
                                   p, j)

    assert divisors(k).exponents == (0, 1, 2, 3)
    orders = bar.CohomologyOrders("higher", 6, p, k, 1, (),
                                  (divisors(k).exponents,))
    return tuple((orders, j, {"1": p ** divisors(j).kernel_exp})
                 for j in range(1, k + 1))


def _read_off_mismatches(read):
    cases = [c for name in GUARANTEED for c in _read_off_cases(name)]
    return [(o.spec_name, o.degmax, j)
            for o, j, direct in cases + list(_higher_divisor_cases())
            if read(o, j) != direct]


def test_mod_orders_read_off_matches_direct_elimination():
    assert _read_off_mismatches(bar.CohomologyOrders.mod_orders) == []


@pytest.mark.parametrize("old,new", [(" if e < j", ""),
                                     ("min(j, self.k)", "j")],
                         ids=["no-e<j-filter", "no-clamp-to-k"])
def test_mod_orders_mutants_are_caught(old, new):
    # the real method with one step left out must disagree somewhere
    src = textwrap.dedent(inspect.getsource(bar.CohomologyOrders.mod_orders))
    assert old in src
    scope = {}
    exec(src.replace(old, new), vars(bar), scope)
    assert _read_off_mismatches(scope["mod_orders"]) != []


def test_divisors_reported_per_degree():
    co = qz_orders(builtin("elem3"), 2)
    assert len(co.divisors) >= 2
    d = co.to_json_dict()
    assert d["qz_orders"]["1"] == 3


def _dense_rank_mod_p(rows, cols, entries, p):
    """Forward elimination on a dense array: independent of the sparse engine."""
    A = np.zeros((rows, cols), dtype=np.int64)
    for r, c, v in entries:
        A[r, c] = (A[r, c] + v) % p
    rank = 0
    for c in range(cols):
        piv = None
        nz = np.nonzero(A[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, c]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        below = np.nonzero(A[rank + 1:, c])[0] + rank + 1
        if below.size:
            A[below] = (A[below] - np.outer(A[below, c], A[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


@pytest.mark.parametrize("name,degmax", [("elem3", 3), ("elem9", 3)])
def test_mod_p_orders_match_dense_rank_computation(name, degmax):
    spec = builtin(name)
    p = spec.p
    ranks = {}
    for d in range(degmax + 1):
        rows, cols, entries = bar_matrix(spec, d, p)
        ranks[d] = _dense_rank_mod_p(rows, cols, entries, p)
    for i in range(1, degmax + 1):
        cols_i = (spec.order - 1) ** i
        dim = (cols_i - ranks[i]) - ranks[i - 1]
        assert order_mod(spec, i, p) == p ** dim


def test_degree2_abelian_orders_up_to_dim3():
    # |H^2(E, Q/Z)| = p^C(n,2) for E = (F_3)^n, n <= 3
    for name, n in (("elem3", 1), ("elem9", 2), ("elem27", 3)):
        co = qz_orders(builtin(name), 2)
        assert co.qz_exps[1] == n * (n - 1) // 2
