"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.

Criterion 5 is split in two: the coboundary identities and square
identities (which hold and must pass), and the tau13/tau23
agreement-mod-coboundary on U = (F_3)^2, which the criterion asserts but
which is mathematically false at p = 3 (the difference cochain represents
the nonzero class beta(u) cup v in H^3(U, Z/p); an explicit primitive
exists only when 6 is invertible, i.e. p >= 5).  That single test is
implemented faithfully as stated and is EXPECTED TO FAIL; it is the honest
record of the gap, not a defect of the implementation.  The same solver
proves the p = 5 analogue, which does pass.
"""

import time
from math import comb

import numpy as np

from unramified.bar import qz_orders
from unramified.catalog import builtin
from unramified.cochains import verify_identity
from unramified.exterior import (
    mult_map_kernel,
    square_kernel_generators,
    subset_index,
)
from unramified.groups import GroupSpec
from unramified.linalg import Subspace
from unramified.obstruction import analyze, dec_subgroup, dec_subgroup_bruteforce
from unramified.structure import verify_group_structure

from conftest import (change_basis, intersect, p_annihilated,
                      random_strict_spec, span_sum)
from test_exterior import wedge


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def trivector(p, n, *subsets_):
    out = np.zeros(comb(n, 3), dtype=np.int64)
    idx = subset_index(n, 3)
    for s in subsets_:
        out[idx[s]] = (out[idx[s]] + 1) % p
    return out


def bivector(p, n, *terms):
    out = np.zeros(comb(n, 2), dtype=np.int64)
    idx = subset_index(n, 2)
    for i, j, c in terms:
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out[idx[(i, j)]] = (out[idx[(i, j)]] + sign * c) % p
    return out


def test_criterion_1_headline_example_exact():
    """Exact reproduction of the order-3^12 example, in under a second."""
    t0 = time.monotonic()
    rep = analyze(builtin("peyre6"))
    elapsed = time.monotonic() - t0
    p, n = 3, 6

    # the six stated generators of K^2 and the nine of its perp
    k2_expected = Subspace.from_generators([
        bivector(p, n, (1, 2, 1), (4, 5, -1)),
        bivector(p, n, (2, 3, 1), (5, 6, -1)),
        bivector(p, n, (1, 4, 1)),
        bivector(p, n, (2, 5, 1)),
        bivector(p, n, (3, 6, 1)),
        bivector(p, n, (4, 6, 1)),
    ], p, comb(n, 2))
    s2_expected = Subspace.from_generators([
        bivector(p, n, (1, 2, 1), (4, 5, 1)),
        bivector(p, n, (2, 3, 1), (5, 6, 1)),
        bivector(p, n, (3, 4, 1)),
        bivector(p, n, (6, 1, 1)),
        bivector(p, n, (1, 3, 1)),
        bivector(p, n, (2, 4, 1)),
        bivector(p, n, (3, 5, 1)),
        bivector(p, n, (5, 1, 1)),
        bivector(p, n, (6, 2, 1)),
    ], p, comb(n, 2))
    s3_expected = Subspace.from_generators([
        trivector(p, n, (1, 2, 3), (3, 4, 5), (1, 5, 6)),
        trivector(p, n, (1, 3, 5)),
    ], p, comb(n, 3))
    s3dec_expected = Subspace.from_generators(
        [trivector(p, n, (1, 3, 5))], p, comb(n, 3))

    checks = [
        rep.deg2.ki.dim == 6,
        rep.deg2.ki == k2_expected,
        rep.deg2.si.dim == 9,
        rep.deg2.si == s2_expected,
        rep.deg2.ki_max == rep.deg2.ki,
        rep.b0_dim == 0,
        rep.deg3.ki.dim == 18,
        rep.deg3.si == s3_expected,
        rep.deg3.si_dec == s3dec_expected,
        rep.deg3.ki_max.dim == 19,
        rep.h3_dim == 1,
        rep.verdict_line() == ("unramified Brauer group trivial; "
                               "degree-3 unramified obstruction nonzero; "
                               "invariant field NOT rational"),
        elapsed < 1.0,
    ]
    announce(1, all(checks),
             f"headline example: b0=0, h3=1, spans exact ({elapsed:.2f}s)")


def test_criterion_2_low_dimension_collapse():
    """100 seeded strict specs with n <= 5: the degree-3 obstruction is 0."""
    t0 = time.monotonic()
    failures = []
    for seed in range(100):
        p = 3 if seed % 2 == 0 else 5
        rng = np.random.default_rng(seed)
        spec = random_strict_spec(rng, p, n_max=5)
        rep = analyze(spec)
        if rep.h3_dim != 0:
            failures.append((seed, p, spec.n, spec.m))
    elapsed = time.monotonic() - t0
    announce(2, not failures and elapsed < 30.0,
             f"100 strict specs, h3 = 0 everywhere ({elapsed:.1f}s)")


def test_criterion_3_decomposable_oracle_agreement():
    """Fast vs brute-force decomposable subgroups, plus the headline case."""
    t0 = time.monotonic()
    mismatches = []
    for seed in range(20):
        p = 3 if seed % 2 == 0 else 5
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 5))
        for k in (2, 3):
            amb = comb(n, k)
            S = Subspace.from_generators(
                rng.integers(0, p, size=(3, amb)), p, amb)
            if dec_subgroup(S, k, n) != dec_subgroup_bruteforce(S, k, n):
                mismatches.append((seed, p, n, k))
    rep = analyze(builtin("peyre6"))
    brute = dec_subgroup_bruteforce(rep.deg3.si, 3, 6, max_work=3 * 10 ** 7)
    expected = Subspace.from_generators(
        [trivector(3, 6, (1, 3, 5))], 3, comb(6, 3))
    ok = not mismatches and brute == expected
    elapsed = time.monotonic() - t0
    announce(3, ok and elapsed < 120.0,
             f"20 seeded specs agree; headline brute force = span{{u[1,3,5]}} "
             f"({elapsed:.1f}s)")


def test_criterion_4_group_structure():
    """Axioms, exponent, |G|, [G,G] = im gamma, Z(G) = radical + V."""
    t0 = time.monotonic()
    bad = []
    # exhaustive tier: orders 27, 125, 27, 243
    symplectic4 = np.zeros((1, comb(4, 2)), dtype=np.int64)
    symplectic4[0, subset_index(4, 2)[(1, 2)]] = 1
    symplectic4[0, subset_index(4, 2)[(3, 4)]] = 1
    order243 = GroupSpec(3, 4, 1, symplectic4, name="symplectic4")
    for spec in (builtin("heisenberg3"), builtin("heisenberg5"),
                 builtin("elem27"), order243):
        for r in verify_group_structure(spec):
            if not r.passed:
                bad.append((spec.name, r.identity))
    # sampled tier for the order-3^12 example
    for r in verify_group_structure(builtin("peyre6"), seed=0, samples=100_000):
        if not r.passed:
            bad.append(("peyre6", r.identity))
    elapsed = time.monotonic() - t0
    announce(4, not bad and elapsed < 60.0,
             f"exhaustive to order 243, sampled at order 3^12 ({elapsed:.1f}s)")


def test_criterion_5_cochain_identities():
    """dh and df over all tuples for both Heisenberg groups; squares; dd = 0."""
    t0 = time.monotonic()
    bad = []
    for name in ("heisenberg3", "heisenberg5"):
        spec = builtin(name)
        for which in ("dh", "df"):
            r = verify_identity(spec, which)
            if not r.passed or r.skipped:
                bad.append((name, which))
    r = verify_identity(builtin("elem9"), "tau_squares")
    if not r.passed:
        bad.append(("elem9", "tau_squares"))
    # delta o delta = 0 on random cochains, exhaustively over tuples, by
    # stacking the slices the identities are checked with
    from conftest import coboundary_by_slices
    for name, degree in (("heisenberg3", 1), ("heisenberg3", 2),
                         ("elem9", 2), ("elem27", 2)):
        spec = builtin(name)
        rng = np.random.default_rng(degree)
        f = rng.integers(0, spec.p, size=(spec.order,) * degree, dtype=np.int16)
        delta_f = coboundary_by_slices(spec, f)
        if coboundary_by_slices(spec, delta_f).any():
            bad.append((name, f"dd degree {degree}"))
    elapsed = time.monotonic() - t0
    announce(5, not bad and elapsed < 120.0,
             f"dh/df exhaustive at orders 27 and 125, squares, dd = 0 "
             f"({elapsed:.1f}s)")


def test_criterion_5_tau_agreement_on_F3_squared():
    """Agreement-mod-coboundary of the two liftings on U = (F_3)^2.

    Stated criterion; mathematically false at p = 3 (see module docstring).
    EXPECTED TO FAIL: a bar 3-cycle z with dz = 0 and <diff, z> != 0,
    both checked, exhibits the nonzero class.  The p = 5 companion check
    below it passes, by the checked witness delta(-u^3 v / 6) = diff, which
    isolates the failure to the prime, not the machinery.
    """
    r5 = verify_identity(builtin("elem25"), "tau_agree")
    assert r5.passed, "the p = 5 agreement must hold (witness -a^3/6)"
    r3 = verify_identity(builtin("elem9"), "tau_agree")
    announce("5 (tau agreement at p = 3)", r3.passed,
             r3.counterexample or "")


def test_criterion_6_square_kernel():
    """Kernel of S^2(Lambda^2 U*) -> Lambda^4 U*: dimension and generators."""
    t0 = time.monotonic()
    checks = []
    for p in (3, 5):
        K = mult_map_kernel(4, p)
        span = Subspace.from_generators(
            square_kernel_generators(4, p), p, K.ambient)
        checks.append(K.dim == 20)
        checks.append(span == K)
    for n in (2, 3):
        for p in (3, 5):
            K = mult_map_kernel(n, p)
            checks.append(K.dim == comb(comb(n, 2) + 1, 2))
            span = Subspace.from_generators(
                square_kernel_generators(n, p), p, K.ambient)
            checks.append(span == K)
    elapsed = time.monotonic() - t0
    announce(6, all(checks) and elapsed < 30.0,
             f"n = 4: kernel dim 20 = generator span; n in {{2,3}}: kernel is "
             f"everything ({elapsed:.1f}s)")


def test_criterion_7_bar_oracle():
    """Cohomology orders for Z/3, (Z/3)^2, the order-27 group; p-torsion."""
    t0 = time.monotonic()
    checks = []
    co = qz_orders(builtin("elem3"), 3)
    checks.append(co.to_json_dict()["qz_orders"] == {"1": 3, "2": 1, "3": 3})
    co = qz_orders(builtin("elem9"), 3)
    checks.append(co.to_json_dict()["qz_orders"] == {"1": 9, "2": 3, "3": 27})
    co = qz_orders(builtin("heisenberg3"), 1)
    checks.append(co.to_json_dict()["qz_orders"] == {"1": 9})
    for name, degmax in (("elem3", 3), ("elem9", 3), ("elem27", 2)):
        checks.append(p_annihilated(builtin(name), degmax))
    # Q/Z orders of elementary abelian groups match the graded dimensions
    co = qz_orders(builtin("elem9"), 3)
    n = 2
    checks.append(co.qz_exps[0] == n)                      # E*
    checks.append(co.qz_exps[1] == comb(n, 2))             # Lambda^2 E*
    checks.append(co.qz_exps[2] == comb(n, 3) + comb(n + 1, 2))  # L^3 + S^2
    elapsed = time.monotonic() - t0
    announce(7, all(checks) and elapsed < 600.0,
             f"orders (3,1,3), (9,3,27), degree-1 order 9 at |G| = 27, "
             f"p-annihilation ({elapsed:.1f}s)")


def test_criterion_8_property_suites():
    """Seeded property checks across the linear-algebra substrate."""
    t0 = time.monotonic()
    bad = []
    p = 3
    for seed in range(25):
        rng = np.random.default_rng(seed)
        N = 7
        S = Subspace.from_generators(rng.integers(0, p, size=(3, N)), p, N)
        T = Subspace.from_generators(rng.integers(0, p, size=(3, N)), p, N)
        if span_sum(S, T).dim + intersect(S, T).dim != S.dim + T.dim:
            bad.append(("lattice", seed))
        if S.orthogonal().orthogonal() != S:
            bad.append(("double-perp", seed))
        if S.dim + S.orthogonal().dim != N:
            bad.append(("perp-dim", seed))
        gens = rng.integers(0, p, size=(4, N))
        A = Subspace.from_generators(gens, p, N)
        B = Subspace.from_generators(gens[rng.permutation(4)], p, N)
        if not (A == B and np.array_equal(A.basis, B.basis)):
            bad.append(("canonical", seed))
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = 6
        a, b = 1 + seed % 2, 2
        x = rng.integers(0, p, size=comb(n, a))
        y = rng.integers(0, p, size=comb(n, b))
        z = rng.integers(0, p, size=n)
        xy = wedge(p, n, x, a, y, b)
        if not np.array_equal(xy, (-1) ** (a * b) * wedge(p, n, y, b, x, a) % p):
            bad.append(("anticommutativity", seed))
        if not np.array_equal(wedge(p, n, xy, a + b, z, 1),
                              wedge(p, n, x, a, wedge(p, n, y, b, z, 1), b + 1)):
            bad.append(("associativity", seed))
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        spec = random_strict_spec(rng, 3, n_max=4)
        rep = analyze(spec)
        rep2 = analyze(change_basis(spec, rng))
        if (rep.b0_dim, rep.h3_dim) != (rep2.b0_dim, rep2.h3_dim):
            bad.append(("basis-change-invariance", seed))
    elapsed = time.monotonic() - t0
    announce(8, not bad and elapsed < 60.0,
             f"lattice, duality, wedge, canonicality, invariance "
             f"({elapsed:.1f}s)")
