"""Group construction: validation, the group law and its tables, spec JSON."""

import hashlib
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from unramified import exterior, groups, structure
from unramified.catalog import builtin
from unramified.errors import GuardExceededError, SpecError
from unramified.groups import (
    GroupSpec,
    build_tables,
    law,
    spec_from_json_dict,
    spec_to_json_dict,
    table_bytes,
    validate_spec,
)
from unramified.linalg import Subspace, is_prime
from unramified.structure import verify_group_structure

from conftest import (change_basis, moved, random_invertible,
                      random_strict_spec, verify_group)


def _inverse(spec, u, v):
    """(u, v)^-1 = (-u, -v), since gamma(u ^ u) = 0."""
    return (-np.asarray(u)) % spec.p, (-np.asarray(v)) % spec.p


def _commutator(spec, g1, g2):
    """[g1, g2] = g1 g2 (g2 g1)^-1 through law."""
    return law(spec, *law(spec, *g1, *g2),
               *_inverse(spec, *law(spec, *g2, *g1)))


def test_heisenberg_is_strict():
    rep = validate_spec(builtin("heisenberg3"), strict=True)
    assert rep.gamma_rank == 1 and rep.radical_dim == 0


def test_zero_gamma_not_surjective():
    spec = GroupSpec(3, 2, 1, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(SpecError, match=r"rank 0 < m = 1: V != \[G, G\]"):
        validate_spec(spec, strict=True)


def test_abelian_radical_rejected_in_strict_mode():
    with pytest.raises(SpecError,
                       match=r"radical of dim 2 > 0: Z\(G\) != \[G, G\]"):
        validate_spec(builtin("elem9"), strict=True)
    rep = validate_spec(builtin("elem9"), strict=False)
    assert (rep.radical_dim, rep.gamma_rank) == (2, 0)


def test_even_and_composite_moduli_rejected():
    with pytest.raises(SpecError, match="p = 2 is not supported"):
        GroupSpec(2, 2, 1, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(SpecError, match="modulus 9 is not prime"):
        GroupSpec(9, 2, 1, np.zeros((1, 1), dtype=np.int64))


@pytest.mark.parametrize("p", [2 ** 16 + 1, 10 ** 18 + 3])
def test_primes_beyond_exact_int64_arithmetic_rejected_at_once(p):
    # p = 2^16 + 1 is prime; 10^18 + 3 is prime and would take minutes of
    # trial division, so the bound must come first
    start = time.perf_counter()
    with pytest.raises(SpecError, match="too large"):
        GroupSpec(p, 2, 1, np.zeros((1, 1), dtype=np.int64))
    assert time.perf_counter() - start < 1


def test_peyre6_radical_confirmed_by_exhaustive_enumeration():
    spec = builtin("peyre6")
    rad = validate_spec(spec).radical
    assert rad.dim == 0
    # oracle: try all 3^6 candidates u and test gamma(u ^ e_j) = 0 for all j
    basis = np.eye(6, dtype=np.int64)
    hits = []
    for u in itertools.product(range(3), repeat=6):
        ua = np.array(u, dtype=np.int64)
        g = spec.gamma_of(np.broadcast_to(ua, basis.shape), basis)
        if not g.any():
            hits.append(u)
    assert hits == [(0,) * 6]


def test_heisenberg_commutator_of_sections():
    spec = builtin("heisenberg3")
    e, zero = np.eye(2, dtype=np.int64), np.zeros(1, dtype=np.int64)
    u, v = _commutator(spec, (e[0], zero), (e[1], zero))
    assert u.tolist() == [0, 0] and v.tolist() == [1]
    # the same through the tables, where (u1, u2, v) has index 9 u1 + 3 u2 + v
    t = build_tables(spec)
    assert t.mul[t.mul[9, 3], t.inv[t.mul[3, 9]]] == 1


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5", "peyre6"])
def test_power_p_is_identity(name):
    spec = builtin(name)
    rng = np.random.default_rng(5)
    U = rng.integers(0, spec.p, size=(20, spec.n))
    V = rng.integers(0, spec.p, size=(20, spec.m))
    # fold the multiplication: g^k = (k u, k v), so g^p = e
    acc = np.zeros_like(U), np.zeros_like(V)
    for k in range(1, spec.p + 1):
        acc = law(spec, *acc, U, V)
        assert np.array_equal(acc[0], k * U % spec.p)
        assert np.array_equal(acc[1], k * V % spec.p)
    assert not acc[0].any() and not acc[1].any()
    u, v = law(spec, U, V, *_inverse(spec, U, V))
    assert not u.any() and not v.any()


def test_peyre6_section_products():
    spec = builtin("peyre6")
    e, zero = np.eye(6, dtype=np.int64), np.zeros(6, dtype=np.int64)
    e1, e2 = (e[0], zero), (e[1], zero)
    a = law(spec, *e1, *e2)
    b = law(spec, *e2, *e1)
    half = spec.half  # 2 mod 3
    assert a[0].tolist() == [1, 1, 0, 0, 0, 0]
    assert a[1].tolist() == [half % 3, 0, 0, 0, 0, 0]          # +(1/2) v1
    assert b[1].tolist() == [(-half) % 3, 0, 0, 0, 0, 0]       # -(1/2) v1
    quot = law(spec, *a, *_inverse(spec, *b))
    assert quot[0].tolist() == [0] * 6 and quot[1].tolist() == [1, 0, 0, 0, 0, 0]
    assert all(np.array_equal(x, y)
               for x, y in zip(quot, _commutator(spec, e1, e2)))


def _center_and_derived(spec):
    """(dim radical(gamma), rank gamma) = (dim Z(G) - m, dim [G, G])."""
    rep = validate_spec(spec, strict=False)
    return rep.radical_dim, rep.gamma_rank


def test_center_and_derived_cases():
    assert _center_and_derived(builtin("heisenberg3")) == (0, 1)
    assert _center_and_derived(builtin("peyre6")) == (0, 6)
    # n = 3 with gamma only involving u1 ^ u2: u3 is radical
    gamma = np.zeros((1, 3), dtype=np.int64)
    gamma[0, 0] = 1  # pair (1,2)
    spec = GroupSpec(3, 3, 1, gamma)
    assert _center_and_derived(spec) == (1, 1)


def test_forms_are_read_only_and_outside_the_spec_identity():
    spec = builtin("peyre6")
    assert spec.forms.shape == (6, 6, 6)
    with pytest.raises(ValueError):
        spec.forms[0, 0, 1] = 1
    assert "forms" not in repr(spec)
    twin = GroupSpec(spec.p, spec.n, spec.m, spec.gamma.copy())
    assert twin == spec and hash(twin) == hash(spec)
    with pytest.raises(TypeError):
        GroupSpec(3, 2, 1, [[1]], forms=np.zeros((1, 2, 2)))


@pytest.mark.parametrize("name", ["heisenberg5", "peyre6"])
def test_forms_evaluate_gamma_after_a_change_of_basis(name):
    # u . forms . w = gamma(u ^ w), read off the gamma columns one pair at
    # a time, also in a random GL(U) x GL(V) basis
    rng = np.random.default_rng(6)
    spec = change_basis(builtin(name), rng)
    p, n = spec.p, spec.n
    u, w = rng.integers(0, p, size=(2, 30, n))
    ref = sum(np.multiply.outer(u[:, i] * w[:, j] - u[:, j] * w[:, i],
                                spec.gamma[:, s])
              for s, (i, j) in enumerate(itertools.combinations(range(n), 2)))
    got = np.einsum("bi,kij,bj->bk", u, spec.forms, w) % p
    assert np.array_equal(got, ref % p)
    assert np.array_equal(spec.gamma_of(u, w), got)


def _gamma_by_definition(spec, u, w):
    """gamma(u ^ w)_k = u . forms[k] . w, summed in Python ints, for each
    pair of the broadcast of u and w."""
    u, w = np.broadcast_arrays(np.asarray(u), np.asarray(w))
    out = np.zeros(u.shape[:-1] + (spec.m,), dtype=np.int64)
    for at in np.ndindex(u.shape[:-1]):
        x, y = u[at].tolist(), w[at].tolist()
        for k, form in enumerate(spec.forms.tolist()):
            out[at + (k,)] = sum(a * f * b for a, row in zip(x, form)
                                 for f, b in zip(row, y)) % spec.p
    return out


@pytest.mark.parametrize("p,n,m,block", [
    (3, 6, 6, None), (5, 5, 3, 7), (65521, 7, 4, None), (65521, 5, 2, 11),
    (7, 4, 0, None), (3, 0, 2, 5)])
def test_gamma_of_is_its_definition(monkeypatch, p, n, m, block):
    """On single vectors, batches and broadcast pairs, unreduced inputs
    included, and with blocks so small that a call runs many of them."""
    if block is not None:
        monkeypatch.setattr(groups, "_GAMMA_BLOCK", block)
    rng = np.random.default_rng(p + n)
    spec = GroupSpec(p, n, m, rng.integers(0, p, (m, n * (n - 1) // 2)))
    x = lambda *shape: rng.integers(-p, 2 * p, shape + (n,))
    for u, w in [(x(), x()), (x(), x(9)), (x(9), x()), (x(13), x(13)),
                 (x(6, 1), x(1, 5)), (x(4, 1), x(3)), (x(2, 3, 1), x(3, 4)),
                 (x(0), x(0)), (x(3, 1), np.eye(n, dtype=np.int64))]:
        got = spec.gamma_of(u, w)
        assert got.shape == np.broadcast_shapes(u.shape, w.shape)[:-1] + (m,)
        assert np.array_equal(got, _gamma_by_definition(spec, u, w))


def test_gamma_of_and_law_are_exact_on_a_wide_spec():
    """At p = 65521 and dim U = 600, u . forms sums 600 terms near p^2,
    and its unreduced product with w would sum 600 terms near 600 p^3,
    past int64; gamma_of and law agree with the definition in Python ints."""
    p, n = 65521, 600
    rng = np.random.default_rng(26)
    spec = GroupSpec(p, n, 1, rng.integers(0, p, (1, n * (n - 1) // 2)))
    u1, u2 = rng.integers(0, p, (2, 3, n))
    v1, v2 = rng.integers(0, p, (2, 3, 1))
    gamma = _gamma_by_definition(spec, u1, u2)
    assert np.array_equal(spec.gamma_of(u1, u2), gamma)
    u, v = law(spec, u1, v1, u2, v2)
    assert np.array_equal(u, (u1 + u2) % p)
    assert np.array_equal(v, (v1 + v2 + spec.half * gamma) % p)


def test_spec_arrays_guard_keeps_gamma_of_exact(monkeypatch):
    """gamma_of's float64 product sums n terms below (p - 1)^2, exact
    while n (p - 1)^2 < 2^53: for every n < 2^21 at the largest prime
    below 2^16.  The spec-arrays figure grows with n and m and refuses
    n = 2^21 at m = 0, before numpy builds any array."""
    p = max(q for q in range(2 ** 16 - 64, 2 ** 16) if is_prime(q))
    assert p == 65521 and (2 ** 21 - 1) * (p - 1) ** 2 < 2 ** 53

    class NoNumpy:
        def __getattr__(self, name):
            pytest.fail(f"np.{name} was used before the guard refused")

    monkeypatch.setattr(groups, "np", NoNumpy())
    with pytest.raises(GuardExceededError,
                       match=f"spec arrays at dimU = {2 ** 21}, dimV = 0"):
        spec_from_json_dict({"p": p, "dimU": 2 ** 21, "dimV": 0})


def test_enumeration_counts_and_order():
    # lex on the (u, v) digit string, so the identity has index 0
    for name in ("heisenberg3", "elem9"):
        spec = builtin(name)
        t = build_tables(spec)
        digits = itertools.product(range(spec.p), repeat=spec.n + spec.m)
        assert t.size == spec.order
        assert np.hstack([t.udigits, t.vdigits]).tolist() == \
            [list(d) for d in digits]


def test_table_guard():
    # the guard admits the 8-byte product table up to |G| = 2^13:
    # |G| = 3^9 is refused, with the bytes it would need
    for spec in (GroupSpec(3, 9, 0, np.zeros((0, 36))), builtin("peyre6")):
        with pytest.raises(GuardExceededError,
                           match=rf"group tables at \|G\| = {spec.order}: "
                           ) as exc:
            build_tables(spec)
        assert exc.value.required == table_bytes(spec.order)


def test_table_guard_admits_the_same_orders_as_the_cell_count():
    # the byte figure refuses exactly the |G| with |G|^2 > 2^26 cells
    guard = table_bytes(1 << 13)
    for N in (3 ** 8, 5 ** 5, 89 ** 2, 8191, 3 ** 9, 97 ** 2, 8209):
        assert (table_bytes(N) > guard) == (N * N > 1 << 26)


def test_spec_json_round_trip():
    spec = builtin("peyre6")
    data = spec_to_json_dict(spec)
    back = spec_from_json_dict(data, name="peyre6")
    assert back == spec
    text = json.dumps(data, sort_keys=True)
    assert spec_from_json_dict(json.loads(text)) == spec


# name -> SHA-256 of its sorted spec JSON, taken from the coefficient-pair
# construction the spec JSON table replaced
_BUILTIN_DIGESTS = {
    "peyre6": "17669e90e5a30ac8686e0f732fcfec46977cba10dc65f60efa1ee934d1b6bb1a",
    "heisenberg3":
        "e7e5628d42988743fbdb33f4c183bcb7e0956aa754a6c9163e77659a7bfea84a",
    "heisenberg5":
        "91de01c1f9d5ec0387e77211642127aaea0babebe67a7c4d5a30c317415bc3fb",
    "elem3": "8319a4c4836a36faae3941974a09d4bdbf0759c9239ff214f8ae6860f0871c4a",
    "elem9": "01aa79eaa74837c2a1726a9c15cc94877e0198238179dde0597c82518f320707",
    "elem27": "55244a073283438ba6f78e9efa0e2c1cb408eafca7c9197543a5da1c0291a2d9",
    "elem25": "6e7f8f31a243193ecde5973de6e3693982033e2a68acb1358dd8d36a00264925",
}


@pytest.mark.parametrize("name", _BUILTIN_DIGESTS)
def test_builtin_is_pinned(name):
    spec = builtin(name)
    text = json.dumps(spec_to_json_dict(spec), sort_keys=True)
    assert spec.name == name
    assert hashlib.sha256(text.encode()).hexdigest() == _BUILTIN_DIGESTS[name]


def test_spec_json_error_messages():
    base = {"p": 3, "dimU": 3, "dimV": 1}
    good = [{"i": 1, "j": 2, "v": [1]}, {"i": 1, "j": 3, "v": [1]},
            {"i": 2, "j": 3, "v": [1]}]
    with pytest.raises(SpecError, match=r"gamma term 4: i<j required"):
        spec_from_json_dict({**base, "gamma": good + [{"i": 2, "j": 2, "v": [1]}]})
    with pytest.raises(SpecError, match=r"gamma term 1: .*length 1"):
        spec_from_json_dict({**base, "gamma": [{"i": 1, "j": 2, "v": [1, 0]}]})
    with pytest.raises(SpecError, match=r"gamma term 1: coefficients"):
        spec_from_json_dict({**base, "gamma": [{"i": 1, "j": 2, "v": [3]}]})
    with pytest.raises(SpecError, match=r"indices"):
        spec_from_json_dict({**base, "gamma": [{"i": 0, "j": 2, "v": [1]}]})
    with pytest.raises(SpecError, match=r"malformed"):
        spec_from_json_dict({"p": 3, "dimU": 2})


def test_change_basis_transforms_gamma_covariantly():
    # gamma' = h o gamma o Lambda^2 g, so gamma'(u ^ w) = h gamma(gu ^ gw)
    spec = builtin("peyre6")
    rng = np.random.default_rng(3)
    g = random_invertible(rng, 6, 3)
    h = random_invertible(rng, 6, 3)
    spec2 = moved(spec, g, h)
    rep = validate_spec(spec2, strict=False)
    assert (rep.radical_dim, rep.gamma_rank) == (0, 6)
    for _ in range(50):
        u = rng.integers(0, 3, size=6)
        w = rng.integers(0, 3, size=6)
        assert np.array_equal(spec2.gamma_of(u, w),
                              h @ spec.gamma_of(g @ u, g @ w) % 3)


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5", "elem27"])
def test_exhaustive_group_structure(name):
    for r in verify_group(builtin(name)):
        assert r.passed, r.line()


def test_sampled_group_structure_peyre6():
    for r in verify_group(builtin("peyre6"), seed=1, samples=20_000):
        assert r.passed, r.line()


@pytest.mark.parametrize("p,n,m,samples", [
    (3, 6, 6, 20_000), (65521, 3, 2, 10_000), (3, 14, 14, 1_000)])
def test_sample_bytes_bound_the_traced_peak(monkeypatch, p, n, m, samples):
    """The sample-bytes figure, read off its refusal, bounds the sampled
    tier's traced peak: per sample at large counts and at a large p, and
    the center check's commutators at small ones."""
    gamma = np.random.default_rng(0).integers(0, p, (m, n * (n - 1) // 2))
    spec = GroupSpec(p, n, m, gamma)
    radical = validate_spec(spec, strict=False).radical
    monkeypatch.setattr(structure, "MAX_SAMPLE_BYTES", 0)
    with pytest.raises(GuardExceededError) as info:
        verify_group_structure(spec, radical, samples=samples)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        verify_group_structure(spec, radical, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= info.value.required


def test_loading_a_wide_spec_builds_no_wedge_table(monkeypatch):
    # the forms are scattered from gamma's columns: loading dim U = 80 stays
    # O(m n^2), not the 161 MB (n, n, C(n, 2)) wedge table
    monkeypatch.setattr(exterior, "wedge_basis_tensor",
                        lambda *a: pytest.fail("a wedge table was built"))
    tracemalloc.start()
    try:
        spec = spec_from_json_dict({"p": 3, "dimU": 80, "dimV": 1, "gamma": [
            {"i": 1, "j": 2, "v": [1]}]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6
    assert spec.forms[0, 0, 1] == 1 and spec.forms[0, 1, 0] == 2
    assert np.count_nonzero(spec.forms) == 2


@pytest.mark.parametrize("n,m", [(80, 1), (40, 780), (3, 100_000), (1000, 0)])
def test_spec_bytes_bound_the_traced_peak(monkeypatch, n, m):
    """The spec-bytes figure, read off its refusal, bounds the loader's
    traced peak with a term for each of the first m pairs (i, j)."""
    pairs = itertools.islice(itertools.combinations(range(1, n + 1), 2), m)
    data = {"p": 3, "dimU": n, "dimV": m,
            "gamma": [{"i": i, "j": j, "v": [int(t == s) for t in range(m)]}
                      for s, (i, j) in enumerate(pairs)]}
    monkeypatch.setattr(groups, "MAX_SPEC_BYTES", 0)
    with pytest.raises(GuardExceededError) as info:
        spec_from_json_dict(data)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        spec_from_json_dict(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= info.value.required


def test_sampled_exponent_check_powers_by_squaring(monkeypatch):
    # g^p by repeated squaring: at p = 65521 the exponent check makes at
    # most 2 bit_length(p) + 2 law calls, not p - 1
    spec = GroupSpec(65521, 2, 1, [[1]], name="heisenberg65521")
    calls = []
    real_law = structure.law
    monkeypatch.setattr(structure, "law",
                        lambda *a: calls.append(1) or real_law(*a))
    results = verify_group(spec, seed=3, samples=50)
    assert all(r.passed for r in results)
    # associativity 4, identity 1, inverses 1, two commutators 3 each
    others = 4 + 1 + 1 + 2 * 3
    assert len(calls) - others <= 2 * spec.p.bit_length() + 2


def test_sampled_checks_drop_their_products():
    # each sampled check forms its own products and drops them before the
    # next, so the peak is the six sample arrays plus one check's products,
    # not every intermediate at once (about 150 MB here)
    spec = builtin("peyre6")
    radical = validate_spec(spec).radical
    tracemalloc.start()
    try:
        results = verify_group_structure(spec, radical, seed=1773293560,
                                         samples=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak <= 90 * 10 ** 6


def test_derived_check_folds_values_past_its_head():
    """_derived eliminates the first _DERIVED_HEAD commutator values and
    then only the later ones outside their span: a direction of im gamma
    first seen after the head still counts, and without that one value
    the check fails."""
    spec = GroupSpec(3, 3, 2, [[1, 0, 0], [0, 1, 0]])
    at = structure._DERIVED_HEAD + 200
    values = np.zeros((at + 300, 2), dtype=np.int64)
    values[::2, 0] = 1
    values[1::3, 0] = 2
    values[at] = [2, 1]
    assert structure._derived(spec, values, len(values)).passed
    values = np.delete(values, at, axis=0)
    result = structure._derived(spec, values, len(values))
    assert not result.passed
    assert result.counterexample == "span dim 1 != rank gamma 2"


# gamma(u1 ^ u2) = v1 on U = F_3^3: the radical is spanned by e3
_RADICAL_SPEC = GroupSpec(3, 3, 1, [[1, 0, 0]], name="radical3")


@pytest.mark.parametrize("spec", [builtin("heisenberg3"),
                                  builtin("heisenberg5"), builtin("elem27"),
                                  _RADICAL_SPEC], ids=lambda s: s.name)
def test_sampled_tier_passes_on_enumerable_groups(monkeypatch, spec):
    # the sampled checks, forced below the exhaustive bound, pass wherever
    # the exhaustive ones do, a nontrivial radical included
    assert all(r.passed for r in verify_group(spec))
    monkeypatch.setattr(structure, "EXHAUSTIVE_BOUND", 0)
    results = verify_group(spec, seed=2, samples=3000)
    assert "sampled" in results[0].note
    for r in results:
        assert r.passed, r.line()


@pytest.mark.parametrize("bound", [structure.EXHAUSTIVE_BOUND, 0])
def test_center_check_reads_the_law(monkeypatch, bound):
    """Negative control for both tiers: a law built from another gamma,
    with radical e1 + e3 in place of e3, fails the commutator and center
    checks; the derived group, im gamma = V either way, still passes."""
    twisted = GroupSpec(3, 3, 1, [[1, 0, 1]])
    real_law = groups.law
    monkeypatch.setattr(groups, "law", lambda s, *a: real_law(twisted, *a))
    monkeypatch.setattr(structure, "law", groups.law)
    monkeypatch.setattr(structure, "EXHAUSTIVE_BOUND", bound)
    results = verify_group(_RADICAL_SPEC, samples=2000)
    failed = [r.identity for r in results if not r.passed]
    assert failed == ["commutator_is_gamma", "center_is_radical_plus_V"]
    assert all(r.counterexample for r in results if not r.passed)


@pytest.mark.parametrize("bound", [structure.EXHAUSTIVE_BOUND, 0])
def test_center_check_reads_the_radical_it_is_given(monkeypatch, bound):
    """Mutation control for both tiers: given 0 in place of the radical
    <e3>, the center check fails, and no other check does."""
    monkeypatch.setattr(structure, "EXHAUSTIVE_BOUND", bound)
    results = verify_group_structure(_RADICAL_SPEC, Subspace.zero(3, 3),
                                     samples=2000)
    assert ("sampled" in results[0].note) == (bound == 0)
    failed = [r for r in results if not r.passed]
    assert [r.identity for r in failed] == ["center_is_radical_plus_V"]
    assert failed[0].counterexample


@pytest.mark.parametrize("seed,p", [(0, 3), (1, 3), (2, 5)])
def test_random_strict_specs_are_strict_seed(seed, p):
    rng = np.random.default_rng(seed)
    spec = random_strict_spec(rng, p, n_max=5)
    rep = validate_spec(spec, strict=False)
    assert (rep.radical_dim, rep.gamma_rank) == (0, spec.m)


def _law_reference(spec, u1, v1, u2, v2):
    """The product read off the gamma columns, one pair term at a time;
    coordinates on the last axis, leading axes broadcast."""
    v = v1 + v2
    for s, (i, j) in enumerate(itertools.combinations(range(spec.n), 2)):
        w = u1[..., i] * u2[..., j] - u1[..., j] * u2[..., i]
        v = v + spec.half * spec.gamma[:, s] * w[..., None]
    return (u1 + u2) % spec.p, v % spec.p


def _strict_spec_243():
    rng = np.random.default_rng(0)
    while True:
        spec = random_strict_spec(rng, 3, n_min=3, n_max=3)
        if spec.m == 2:
            return spec


@pytest.mark.parametrize("which", ["heisenberg3", "random-3-2"])
def test_table_products_equal_element_products(which):
    spec = builtin(which) if which != "random-3-2" else _strict_spec_243()
    assert spec.order <= 243
    t = build_tables(spec)
    p, k = spec.p, spec.n + spec.m
    ud, vd = t.udigits, t.vdigits
    # index encoding: g is the base-p number of its (u, v) digits
    digits = np.hstack([ud, vd])
    assert ((digits @ p ** np.arange(k - 1, -1, -1)) == np.arange(t.size)).all()
    assert np.array_equal(digits[t.inv], -digits % p)
    u, v = _law_reference(spec, ud[:, None], vd[:, None], ud[None], vd[None])
    assert np.array_equal(ud[t.mul], u) and np.array_equal(vd[t.mul], v)


def test_build_tables_peak_is_the_table_plus_bounded_blocks():
    # law runs on row blocks, so the build holds little beyond the 8-byte
    # N x N product table, and the guard's byte figure bounds it
    spec = GroupSpec(3, 6, 0, np.zeros((0, 15), dtype=np.int64))
    N = spec.order
    tracemalloc.start()
    try:
        build_tables(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N * N + 16 * 2 ** 20
    assert peak <= table_bytes(N)


@pytest.mark.parametrize("name", ["heisenberg3", "peyre6"])
def test_law_broadcasts_like_its_elementwise_results(name):
    spec = builtin(name)
    rng = np.random.default_rng(4)
    B, p, n, m = 6, spec.p, spec.n, spec.m
    U1, U2 = rng.integers(0, p, size=(2, B, n))
    V1, V2 = rng.integers(0, p, size=(2, B, m))
    u, v = law(spec, U1[:, None], V1[:, None], U2[None], V2[None])
    assert u.shape == (B, B, n) and v.shape == (B, B, m)
    for i in range(B):
        for j in range(B):
            ui, vi = law(spec, U1[i], V1[i], U2[j], V2[j])
            assert np.array_equal(u[i, j], ui) and np.array_equal(v[i, j], vi)
            ur, vr = _law_reference(spec, U1[i], V1[i], U2[j], V2[j])
            assert np.array_equal(ui, ur) and np.array_equal(vi, vr)
