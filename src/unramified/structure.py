"""Group-structure verification: axioms, exponent, center and derived group.

Exhaustive for |G| <= 3^5 via dense index tables; above that, seeded random
sampling on coordinate arrays (the sample size and seed are reported, so a
run is reproducible from its output line).
"""

from __future__ import annotations

import numpy as np

from .groups import GroupSpec, build_tables, law, radical_subspace
from .linalg import Subspace
from .results import VerificationResult

EXHAUSTIVE_BOUND = 3 ** 5


def _verify_exhaustive(spec: GroupSpec) -> list[VerificationResult]:
    t = build_tables(spec)
    N = t.size
    mul, inv = t.mul, t.inv
    idx = np.arange(N)
    out = []

    bad = None
    for a in range(N):
        left = mul[mul[a]]          # (b, c) -> (a b) c
        right = mul[a][mul]         # (b, c) -> a (b c)
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            bad = (a, int(b), int(c))
            break
    out.append(VerificationResult(
        "associativity", bad is None, N ** 3,
        counterexample=None if bad is None else f"indices {bad}"))

    ok = np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)
    out.append(VerificationResult("identity", bool(ok), 2 * N))

    ok = (mul[idx, inv] == 0).all() and (mul[inv, idx] == 0).all()
    out.append(VerificationResult("inverses", bool(ok), 2 * N))

    acc = np.zeros(N, dtype=np.int64)
    for _ in range(spec.p):
        acc = mul[acc, idx]
    out.append(VerificationResult(
        "exponent_p", bool((acc == 0).all()), N,
        counterexample=None if (acc == 0).all() else
        f"index {int(np.nonzero(acc)[0][0])}"))

    out.append(VerificationResult(
        "order", spec.order == N, 1,
        counterexample=None if spec.order == N else f"{N} != {spec.order}"))

    # commutators realize gamma exactly, and their span is im gamma
    wv = spec.p ** np.arange(spec.m - 1, -1, -1, dtype=np.int64) \
        if spec.m else np.zeros(0, dtype=np.int64)
    bad = None
    seen_v: set[tuple[int, ...]] = set()
    for a in range(N):
        x = mul[a]
        y = mul[:, a]
        comm = mul[x, inv[y]]
        gv = spec.gamma_of(t.udigits[a], t.udigits)
        expected = gv @ wv if spec.m else np.zeros(N, dtype=np.int64)
        if not np.array_equal(comm, expected):
            b = int(np.flatnonzero(comm != expected)[0])
            bad = (a, b)
            break
        if spec.m:
            seen_v.update(map(tuple, gv))
    out.append(VerificationResult(
        "commutator_is_gamma", bad is None, N ** 2,
        counterexample=None if bad is None else f"indices {bad}"))

    if spec.m:
        span = Subspace.from_generators(
            np.array(sorted(seen_v), dtype=np.int64), spec.p, spec.m)
        image = Subspace.from_generators(spec.gamma.T, spec.p, spec.m)
        ok = span == image
        out.append(VerificationResult(
            "derived_equals_im_gamma", ok, len(seen_v),
            counterexample=None if ok else
            f"span dim {span.dim} != rank gamma {image.dim}"))
    else:
        out.append(VerificationResult("derived_equals_im_gamma", True, 0,
                                      note="gamma = 0: [G,G] = 1"))

    # center = {(u, v) : u in radical}
    rad = radical_subspace(spec)
    central = np.array([np.array_equal(mul[g], mul[:, g]) for g in range(N)])
    expected_central = rad.contains(t.udigits)
    ok = bool((central == expected_central).all())
    out.append(VerificationResult(
        "center_is_radical_plus_V", ok, N,
        counterexample=None if ok else
        f"index {int(np.nonzero(central != expected_central)[0][0])}"))
    return out


def _verify_sampled(spec: GroupSpec, seed: int,
                    samples: int) -> list[VerificationResult]:
    rng = np.random.default_rng(seed)
    p, n, m = spec.p, spec.n, spec.m
    B = samples
    U = [rng.integers(0, p, size=(B, n)) for _ in range(3)]
    V = [rng.integers(0, p, size=(B, m)) for _ in range(3)]
    out = []
    note = f"sampled, seed={seed}, samples={samples}"

    ab = law(spec, U[0], V[0], U[1], V[1])
    ab_c = law(spec, *ab, U[2], V[2])
    bc = law(spec, U[1], V[1], U[2], V[2])
    a_bc = law(spec, U[0], V[0], *bc)
    ok = all(np.array_equal(x, y) for x, y in zip(ab_c, a_bc))
    out.append(VerificationResult("associativity", ok, B, note=note))

    zero_u = np.zeros((B, n), dtype=np.int64)
    zero_v = np.zeros((B, m), dtype=np.int64)
    eu, ev = law(spec, U[0], V[0], zero_u, zero_v)
    ok = np.array_equal(eu, U[0] % p) and np.array_equal(ev, V[0] % p)
    out.append(VerificationResult("identity", ok, B, note=note))

    iu, iv = law(spec, U[0], V[0], (-U[0]) % p, (-V[0]) % p)
    ok = not iu.any() and not iv.any()
    out.append(VerificationResult("inverses", ok, B, note=note))

    au, av = zero_u, zero_v
    for _ in range(p):
        au, av = law(spec, au, av, U[0], V[0])
    ok = not au.any() and not av.any()
    out.append(VerificationResult("exponent_p", ok, B, note=note))

    # commutator against gamma
    yx = law(spec, U[1], V[1], U[0], V[0])
    cu, cv = law(spec, *ab, (-yx[0]) % p, (-yx[1]) % p)
    expected = spec.gamma_of(U[0], U[1])
    ok = not cu.any() and np.array_equal(cv, expected)
    out.append(VerificationResult("commutator_is_gamma", ok, B, note=note))

    # central elements (0, v) commute with everything sampled; elements with
    # u outside the radical fail to commute with some basis section
    rad = radical_subspace(spec)
    k = min(B, 1000)
    g = spec.gamma_of(U[0][:k, None], np.eye(n, dtype=np.int64))  # (k, n, m)
    commuting = U[0][:k][~g.any(axis=(1, 2))]
    bad = commuting[~rad.contains(commuting)]
    out.append(VerificationResult(
        "center_is_radical_plus_V", not len(bad), k, note=note,
        counterexample=f"u={bad[0].tolist()} commutes with all sections"
        if len(bad) else None))

    if m:
        span = Subspace.from_generators(cv, p, m)
        image = Subspace.from_generators(spec.gamma.T, p, m)
        ok = span == image
        out.append(VerificationResult(
            "derived_equals_im_gamma", ok, B, note=note,
            counterexample=None if ok else
            f"sampled commutator span dim {span.dim} != rank gamma {image.dim}"))
    else:
        out.append(VerificationResult("derived_equals_im_gamma", True, 0,
                                      note="gamma = 0: [G,G] = 1"))
    return out


def verify_group_structure(spec: GroupSpec, seed: int = 0,
                           samples: int = 100_000) -> list[VerificationResult]:
    if spec.order <= EXHAUSTIVE_BOUND:
        return _verify_exhaustive(spec)
    return _verify_sampled(spec, seed, samples)
