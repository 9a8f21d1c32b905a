"""Helpers shared by the test modules.

They live on the test side because no command runs them: the rank over
F_p, seeded random strict specs, GL(U) x GL(V) changes of basis for the
invariance tests, the sum and the Zassenhaus intersection of two
subspaces, the p-annihilation check of the bar oracle, the full-table coboundary that the
slices of ``cochains.coboundary_slice`` are checked against, the
coboundary image that the tau_agree certificates are checked against, and
a dense Smith form over Z/p^k.
"""

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from unramified.bar import mod_exps
from unramified.cochains import coboundary_slice
from unramified.groups import GroupSpec, build_tables, validate_spec
from unramified.linalg import Subspace, rref_mod


def rank_mod(A, p: int) -> int:
    """Rank of A over F_p."""
    return len(rref_mod(A, p)[1])


def random_strict_spec(rng: np.random.Generator, p: int,
                       n_min: int = 2, n_max: int = 5,
                       max_tries: int = 1000) -> GroupSpec:
    """A seeded random spec with gamma surjective and trivial radical."""
    for _ in range(max_tries):
        n = int(rng.integers(n_min, n_max + 1))
        d2 = comb(n, 2)
        m = int(rng.integers(1, d2 + 1))
        gamma = rng.integers(0, p, size=(m, d2))
        spec = GroupSpec(p, n, m, gamma)
        rep = validate_spec(spec, strict=False)
        if (rep.radical_dim, rep.gamma_rank) == (0, m):
            return spec
    raise RuntimeError("could not find a strict spec; widen the search")


def wedge2(g: np.ndarray, p: int) -> np.ndarray:
    """Lambda^2 g in the lex pair basis: the (a, b), (i, j) entry is
    g[a, i] g[b, j] - g[a, j] g[b, i]."""
    pairs = list(itertools.combinations(range(g.shape[0]), 2))
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return (g[np.ix_(a, a)] * g[np.ix_(b, b)]
            - g[np.ix_(a, b)] * g[np.ix_(b, a)]) % p


def moved(spec: GroupSpec, g, h) -> GroupSpec:
    """The spec with form h o gamma o Lambda^2 g, so that
    gamma'(u ^ w) = h gamma(g u ^ g w); isomorphic to spec for g, h
    invertible."""
    g = np.asarray(g, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    gamma = h @ spec.gamma @ wedge2(g, spec.p) % spec.p
    return GroupSpec(spec.p, spec.n, spec.m, gamma,
                     name=(spec.name or "spec") + "-moved")


def random_invertible(rng: np.random.Generator, k: int, p: int) -> np.ndarray:
    while True:
        g = rng.integers(0, p, size=(k, k))
        if rank_mod(g, p) == k:
            return g


def change_basis(spec: GroupSpec, rng: np.random.Generator) -> GroupSpec:
    """gamma -> h o gamma o Lambda^2 g for random g in GL(U), h in GL(V)."""
    g = random_invertible(rng, spec.n, spec.p)
    h = random_invertible(rng, spec.m, spec.p)
    return moved(spec, g, h)


def span_sum(S: Subspace, T: Subspace) -> Subspace:
    """S + T, spanned by both bases."""
    return Subspace.from_generators(np.vstack([S.basis, T.basis]), S.p,
                                    S.ambient)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """Zassenhaus: rref [S|S ; T|0], rows with zero left half span S n T."""
    N = S.ambient
    top = np.hstack([S.basis, S.basis])
    bot = np.hstack([T.basis, np.zeros_like(T.basis)])
    R, _ = rref_mod(np.vstack([top, bot]), S.p)
    rows = [R[i, N:] for i in range(R.shape[0]) if not R[i, :N].any()]
    return Subspace.from_generators(rows, S.p, N)


def p_annihilated(spec: GroupSpec, degmax: int) -> bool:
    """Does p kill H^i(E, Q/Z) for i <= degmax, E = (Z/p)^n?  Iff
    |H^i(E, Z/p)| = |H^i(E, Z/|E|)| for each i (``bar`` docstring)."""
    return mod_exps(spec, degmax, 1)[0] == mod_exps(spec, degmax, spec.n)[0]


def coboundary(spec: GroupSpec, F: np.ndarray, rows=None) -> np.ndarray:
    """(delta F)(g1, ...) for g1 in rows (all of G by default), reduced mod
    p, for a reduced int16 table F: the standard inhomogeneous coboundary
    with trivial action, built with one axis per argument."""
    N, d = spec.order, F.ndim
    rows = np.arange(N) if rows is None else np.asarray(rows)
    if d == 0:
        return np.zeros(len(rows), dtype=np.int16)
    mul = build_tables(spec).mul
    out = np.broadcast_to(F, (len(rows),) + F.shape).astype(np.int16)
    for i in range(1, d + 2):
        if i == 1:
            t = np.take(F, mul[rows], axis=0)
        elif i <= d:
            t = np.take(F[rows], mul, axis=i - 1)
        else:
            t = F[rows][..., None]
        (np.add if i % 2 == 0 else np.subtract)(out, t, out=out)
    return out % spec.p


def coboundary_by_slices(spec: GroupSpec, F: np.ndarray, rows=None) -> np.ndarray:
    """The same rows stacked from cochains.coboundary_slice."""
    mul = build_tables(spec).mul
    rows = range(spec.order) if rows is None else rows
    return np.stack([coboundary_slice(F, mul, g, np.empty_like(F))
                     for g in rows]) % spec.p


@lru_cache(maxsize=8)
def coboundary_image(spec: GroupSpec) -> Subspace:
    """im(delta: C^2 -> C^3) as a canonical subspace of F_p^(N^3), by
    eliminating the coboundaries of all N^2 basis 2-cochains: the
    reference that decides membership with no certificate."""
    N = spec.order
    cols = [coboundary(spec, E).reshape(-1)
            for E in np.eye(N * N, dtype=np.int16).reshape(-1, N, N)]
    return Subspace.from_generators(cols, spec.p, N ** 3)


def local_smith_exponents(rows, cols, entries, p, k):
    """Divisor exponents of a dense matrix over Z/p^k: each step pivots on an
    entry of least p-valuation anywhere in the live block."""
    q = p ** k
    A = [[0] * cols for _ in range(rows)]
    for r, c, v in entries:
        A[r][c] = (A[r][c] + v) % q

    def valuation(x):
        e = 0
        while e < k and x % p == 0:
            x //= p
            e += 1
        return e            # k for x = 0

    live_rows, live_cols = set(range(rows)), set(range(cols))
    exps = []
    while live_rows and live_cols:
        e, pr, pc = min((valuation(A[r][c]), r, c)
                        for r in live_rows for c in live_cols)
        if e == k:
            break
        inv = pow(A[pr][pc] // p ** e, -1, q)
        for r in live_rows - {pr}:
            f = (A[r][pc] // p ** e) * inv % q
            A[r] = [(x - f * y) % q for x, y in zip(A[r], A[pr])]
        # every live entry of row pr is a multiple of p^e, so column
        # operations clear it without touching the other live rows
        live_rows.discard(pr)
        live_cols.discard(pc)
        exps.append(e)
    return tuple(sorted(exps))
