"""Group-structure verification: axioms, exponent, center and derived group.

Exhaustive for |G| <= 3^5 via dense index tables; above that, seeded random
sampling on coordinate arrays (the sample size and seed are reported, so a
run is reproducible from its output line).

Both tiers take commutation from the law: the commutator, derived-group and
center checks read one x y (y x)^-1 result; gamma only forms expected values.
The center check holds the central elements to the radical it is given,
groups.validate_spec's, since Z(G) = radical + V.
"""

from __future__ import annotations

import numpy as np

from .errors import check_bound
from .groups import GroupSpec, build_tables, law
from .linalg import Subspace, reduce_mod
from .results import VerificationResult

EXHAUSTIVE_BOUND = 3 ** 5
MAX_SAMPLE_BYTES = 1 << 29
_DERIVED_HEAD = 1000


def _derived(spec: GroupSpec, values, checked, note="") -> VerificationResult:
    """[G, G] = im gamma, with values the V-parts of the commutators found.
    Only the first _DERIVED_HEAD values are eliminated, and then the later
    ones outside their span: the result spans all the values."""
    if not spec.m:
        return VerificationResult("derived_equals_im_gamma", True, 0,
                                  note="gamma = 0: [G,G] = 1")
    head = Subspace.from_generators(values[:_DERIVED_HEAD], spec.p, spec.m)
    rest = values[_DERIVED_HEAD:]
    span = Subspace.from_generators(
        np.vstack([head.basis, rest[~head.contains(rest)]]), spec.p, spec.m)
    image = Subspace.from_generators(spec.gamma.T, spec.p, spec.m)
    ok = span == image
    return VerificationResult(
        "derived_equals_im_gamma", ok, checked, note=note,
        counterexample=None if ok else
        f"span dim {span.dim} != rank gamma {image.dim}")


def _verify_exhaustive(spec: GroupSpec,
                       radical: Subspace) -> list[VerificationResult]:
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

    # comm[a, b] = a b (b a)^-1; expected: the index of (0, gamma(u_a ^ u_b))
    comm = mul[mul, inv[mul.T]]
    wv = spec.p ** np.arange(spec.m - 1, -1, -1, dtype=np.int64)
    expected = spec.gamma_of(t.udigits[:, None], t.udigits[None]) @ wv
    bad = np.argwhere(comm != expected)
    out.append(VerificationResult(
        "commutator_is_gamma", not len(bad), N ** 2,
        counterexample=f"indices {tuple(map(int, bad[0]))}" if len(bad)
        else None))

    values = np.unique(comm)
    out.append(_derived(spec, t.vdigits[values], len(values)))

    # center = {(u, v) : u in radical}
    central = (comm == 0).all(axis=1)
    bad = np.flatnonzero(central != radical.contains(t.udigits))
    out.append(VerificationResult(
        "center_is_radical_plus_V", not len(bad), N,
        counterexample=f"index {bad[0]}" if len(bad) else None))
    return out


def _verify_sampled(spec: GroupSpec, radical: Subspace, seed: int,
                    samples: int) -> list[VerificationResult]:
    p, n, m = spec.p, spec.n, spec.m
    B, k = samples, min(samples, 1000)
    # traced peak: 8 int64 (n + m)-vectors a sample, whatever p, and the
    # center check's k x n commutators
    check_bound("verify-group: sample bytes",
                8 * (n + m) * (8 * B + 5 * k * n), MAX_SAMPLE_BYTES)
    rng = np.random.default_rng(seed)
    # three elements (u, v); every U is drawn before any V
    a, b, c = zip([rng.integers(0, p, size=(B, n)) for _ in range(3)],
                  [rng.integers(0, p, size=(B, m)) for _ in range(3)])
    out = []
    note = f"sampled, seed={seed}, samples={samples}"

    # each check forms its own products, so none outlives its check
    def prod(x, y):
        return law(spec, *x, *y)

    def commutator(x, y):       # x y (y x)^-1 by the law
        inverse = [reduce_mod(np.negative(t, out=t), p) for t in prod(y, x)]
        return prod(prod(x, y), inverse)

    def power(x, e):            # x^e, squaring down the bits of e >= 1
        y = x
        for bit in bin(e)[3:]:
            y = prod(prod(y, y), x) if bit == "1" else prod(y, y)
        return y

    ok = all(map(np.array_equal, prod(prod(a, b), c), prod(a, prod(b, c))))
    out.append(VerificationResult("associativity", ok, B, note=note))

    ok = all(map(np.array_equal, prod(a, [np.zeros_like(t) for t in a]), a))
    out.append(VerificationResult("identity", ok, B, note=note))

    ok = not any(x.any() for x in prod(a, [-t % p for t in a]))
    out.append(VerificationResult("inverses", ok, B, note=note))

    ok = not any(x.any() for x in power(a, p))
    out.append(VerificationResult("exponent_p", ok, B, note=note))

    cu, cv = commutator(a, b)
    bad = np.flatnonzero(cu.any(axis=1)
                         | (cv != spec.gamma_of(a[0], b[0])).any(axis=1))
    out.append(VerificationResult(
        "commutator_is_gamma", not len(bad), B, note=note,
        counterexample=f"(u, w) = ({a[0][bad[0]].tolist()}, "
        f"{b[0][bad[0]].tolist()})" if len(bad) else None))

    # the first k samples against the sections (e_j, 0): central iff u in rad
    e = np.eye(n, dtype=np.int64), np.zeros((n, m), dtype=np.int64)
    zu, zv = commutator((a[0][:k, None], a[1][:k, None]), e)
    central = ~zu.any(axis=(1, 2)) & ~zv.any(axis=(1, 2))
    bad = np.flatnonzero(central != radical.contains(a[0][:k]))
    out.append(VerificationResult(
        "center_is_radical_plus_V", not len(bad), k, note=note,
        counterexample=f"u={a[0][bad[0]].tolist()} is "
        f"{'' if central[bad[0]] else 'not '}central" if len(bad) else None))

    out.append(_derived(spec, cv, B, note))
    return out


def verify_group_structure(spec: GroupSpec, radical: Subspace, seed: int = 0,
                           samples: int = 100_000) -> list[VerificationResult]:
    if spec.order <= EXHAUSTIVE_BOUND:
        return _verify_exhaustive(spec, radical)
    return _verify_sampled(spec, radical, seed, samples)
