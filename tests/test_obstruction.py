"""The obstruction pipeline against hand-checkable and enumerated truth."""

import hashlib
import itertools
import json
from math import comb

import numpy as np
import pytest

from unramified.catalog import builtin
from unramified.cli import main
from unramified.errors import (GuardExceededError, InternalInconsistencyError,
                               SpecError)
from unramified.exterior import subset_index
from unramified.groups import GroupSpec, spec_to_json_dict, validate_spec
from unramified.linalg import Subspace
from unramified import linalg, obstruction
from unramified.obstruction import (
    analyze,
    compute_k3,
    dec_subgroup,
    dec_subgroup_bruteforce,
    dec_subgroups,
    projective_lines,
)

from conftest import change_basis, random_strict_spec, rank_mod


def dual_bivector(p, n, *terms):
    """Sum of signed dual-basis bivectors, e.g. (1,2,+1), (4,5,-1)."""
    out = np.zeros(comb(n, 2), dtype=np.int64)
    idx = subset_index(n, 2)
    for i, j, c in terms:
        out[idx[(i, j)]] = c % p
    return out


def k2_of(spec):
    """K^2, the row space of gamma, as validate_spec takes it."""
    return validate_spec(spec, strict=False).k2


def trivector(p, n, *subsets_):
    out = np.zeros(comb(n, 3), dtype=np.int64)
    idx = subset_index(n, 3)
    for s in subsets_:
        out[idx[s]] = (out[idx[s]] + 1) % p
    return out


# -- K^2 ----------------------------------------------------------------------

def test_k2_peyre6_matches_listed_generators():
    spec = builtin("peyre6")
    k2 = k2_of(spec)
    assert k2.dim == 6
    expected = Subspace.from_generators([
        dual_bivector(3, 6, (1, 2, 1), (4, 5, -1)),
        dual_bivector(3, 6, (2, 3, 1), (5, 6, -1)),
        dual_bivector(3, 6, (1, 4, 1)),
        dual_bivector(3, 6, (2, 5, 1)),
        dual_bivector(3, 6, (3, 6, 1)),
        dual_bivector(3, 6, (4, 6, 1)),
    ], 3, comb(6, 2))
    assert k2 == expected


def test_k2_heisenberg_is_everything():
    k2 = k2_of(builtin("heisenberg3"))
    assert k2.dim == 1 and k2.ambient == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k2_functional_consistency_seed(seed):
    # every element rho* of K^2 satisfies <rho*, x> = rho(gamma(x))
    p, n, m = 3, 3, 2
    rng = np.random.default_rng(seed)
    while True:
        gamma = rng.integers(0, p, size=(m, comb(n, 2)))
        spec = GroupSpec(p, n, m, gamma)
        if rank_mod(gamma, p) == m:
            break
    k2 = k2_of(spec)
    assert k2.dim == m
    for rho in np.eye(m, dtype=np.int64):
        dual = (rho @ spec.gamma) % p
        for _ in range(100):
            x = rng.integers(0, p, size=comb(n, 2))
            lhs = int(dual @ x % p)  # the dual wedge bases pair as the identity
            rhs = int((rho @ ((spec.gamma @ x) % p)) % p)
            assert lhs == rhs


# -- K^3 ----------------------------------------------------------------------

def test_k3_heisenberg_is_zero_space_of_zero_ambient():
    spec = builtin("heisenberg3")
    k3, s2, s3 = compute_k3(spec, k2_of(spec))
    assert k3.ambient == 0 and k3.dim == 0
    assert s3 == k3 and s2 == k2_of(spec).orthogonal() and s2.dim == 0


def test_k3_peyre6_dimension_and_perp():
    spec = builtin("peyre6")
    k3, _, s3 = compute_k3(spec, k2_of(spec))
    assert k3.dim == 18
    assert s3 == k3.orthogonal()
    expected = Subspace.from_generators([
        trivector(3, 6, (1, 2, 3), (3, 4, 5), (1, 5, 6)),
        trivector(3, 6, (1, 3, 5)),
    ], 3, comb(6, 3))
    assert s3 == expected


@pytest.mark.parametrize("seed", [0, 1])
def test_s3_matches_exhaustive_orthogonal_enumeration_seed(seed):
    # oracle: S^3 recomputed by enumerating all of Lambda^3(F_3^4)
    p, n = 3, 4
    rng = np.random.default_rng(seed)
    spec = GroupSpec(p, n, 2, rng.integers(0, p, size=(2, comb(n, 2))))
    k3, s2, s3 = compute_k3(spec, k2_of(spec))
    assert s2 == k2_of(spec).orthogonal()
    hits = []
    for x in itertools.product(range(p), repeat=comb(n, 3)):
        xv = np.array(x, dtype=np.int64)
        if all(int((row @ xv) % p) == 0 for row in k3.basis):
            hits.append(xv)
    assert s3 == Subspace.from_generators(hits, p, comb(n, 3))


# -- decomposable subgroups ----------------------------------------------------

def test_dec_full_bivector_space_is_fixed():
    p, n = 3, 4
    N = comb(n, 2)
    S = Subspace.from_generators(np.eye(N, dtype=np.int64), p, N)
    assert dec_subgroup(S, 2, n) == S


def test_dec_single_decomposable_trivector_is_fixed():
    p, n = 3, 5
    S = Subspace.from_generators([trivector(p, n, (1, 2, 3))], p, comb(n, 3))
    assert dec_subgroup(S, 3, n) == S


def test_dec_zero_space():
    S = Subspace.zero(3, comb(4, 3))
    assert dec_subgroup(S, 3, 4).dim == 0
    assert dec_subgroup_bruteforce(S, 3, 4).dim == 0


@pytest.mark.parametrize("route", [dec_subgroup, dec_subgroup_bruteforce])
@pytest.mark.parametrize("k,ambient,error", [
    (1, 4, ValueError), (4, 1, ValueError),
    (2, comb(4, 3), SpecError), (3, comb(4, 2), SpecError),
], ids=["degree-1", "degree-4", "degree-2-ambient", "degree-3-ambient"])
def test_decomposable_routes_refuse_bad_input(route, k, ambient, error):
    # a degree outside {2, 3}, and an ambient other than C(n, k), at n = 4
    with pytest.raises(error):
        route(Subspace.zero(3, ambient), k, 4)


@pytest.mark.parametrize("route", [dec_subgroup, dec_subgroup_bruteforce])
def test_decomposable_routes_share_one_argument_check(monkeypatch, route):
    """Both routes run obstruction._route_args: a degree outside {2, 3}
    raises ValueError, an ambient other than C(n, k) SpecError, and S = 0,
    as always at n = 0, is returned as its own span with no line swept."""
    seen = []
    real = obstruction._route_args
    monkeypatch.setattr(obstruction, "_route_args",
                        lambda S, k, n: seen.append((k, n)) or real(S, k, n))
    monkeypatch.setattr(obstruction, "projective_lines",
                        lambda *a: pytest.fail("swept"))
    with pytest.raises(ValueError):
        route(Subspace.zero(3, comb(6, 4)), 4, 6)
    with pytest.raises(SpecError):
        route(Subspace.zero(3, comb(6, 2)), 3, 6)
    for k, n in ((2, 6), (3, 6), (2, 0), (3, 0)):
        assert route(Subspace.zero(3, comb(n, k)), k, n) == \
            Subspace.zero(3, comb(n, k))
    assert seen == [(4, 6), (3, 6), (2, 6), (3, 6), (2, 0), (3, 0)]


def test_dec_peyre6_degree3_is_u135():
    rep = analyze(builtin("peyre6"))
    assert rep.deg3.si_dec == Subspace.from_generators(
        [trivector(3, 6, (1, 3, 5))], 3, comb(6, 3))


def _is_canonical(S: Subspace) -> bool:
    """S's basis is what one more elimination of it gives, byte for byte."""
    T = Subspace.from_generators(S.basis, S.p, S.ambient)
    return S.basis.shape == T.basis.shape and \
        S.basis.tobytes() == T.basis.tobytes()


DEC_CASES = [
    (0, 3, 4, 2, False), (1, 3, 4, 2, False), (2, 3, 4, 3, False),
    (3, 3, 4, 3, False), (4, 5, 3, 2, False), (5, 5, 4, 3, False),
    (6, 3, 5, 3, False), (7, 3, 5, 2, True), (8, 3, 6, 2, True),
    (9, 5, 5, 2, True), (10, 3, 2, 2, False), (11, 5, 2, 2, False),
    (12, 3, 3, 3, False), (13, 5, 3, 3, False), (14, 5, 5, 2, False),
]


@pytest.mark.parametrize(
    "seed,p,n,k,walker", DEC_CASES,
    ids=["-".join(map(str, c[:4])) + ("-walker" if c[4] else "")
         for c in DEC_CASES])
def test_dec_fast_equals_bruteforce_seed(seed, p, n, k, walker):
    """A walker S also holds the last basis bivector e_{n-1}^e_n: it is
    decomposable, and its factor lines are the last lines swept.  S_dec != S
    for these seeds, so the sweep visits every line, in several batches,
    and must still find it.  Walkers are degree 2 only: at n = 5 every
    3-vector has a vector factor, so S_dec = S in degree 3, and n = 6 makes
    the brute force too slow here (the peyre6 acceptance test covers a
    degree-3 sweep over every line)."""
    rng = np.random.default_rng(seed)
    amb = comb(n, k)
    gens = rng.integers(0, p, size=(3, amb))
    last = np.eye(amb, dtype=np.int64)[-1]
    if walker:
        gens = np.vstack([gens, last])
    S = Subspace.from_generators(gens, p, amb)
    fast = dec_subgroup(S, k, n)
    brute = dec_subgroup_bruteforce(S, k, n)
    assert fast == brute
    assert obstruction._flags_in_subspace(S, k, n) == fast
    assert obstruction._points_in_flags(S, k, n) == fast
    assert S.contains_subspace(fast) and _is_canonical(fast)
    if walker:
        assert fast != S and fast.contains(last)
        assert (p ** n - 1) // (p - 1) > obstruction._FIRST_BATCH


# Seeded strict specs over F_3 with dim U = 6 with 0 != S_dec != S: in
# degree 2 for seeds 6 and 9, in degree 3 for seeds 14 and 202.  No sweep
# exits early on them: dec_subgroup visits all 364 lines, and analyze all
# 121 lines of H0 = {x_0 = 0} (degree 2) or all 364 (degree 3).
WALK_SEEDS = {6: 2, 9: 2, 14: 3, 202: 3}


@pytest.mark.parametrize("seed", sorted(WALK_SEEDS))
def test_dec_subgroup_needs_no_elimination_after_its_sweep_seed(monkeypatch,
                                                                seed):
    """Each batch is one kernel_stack and one fold into the span; the
    product of the span with the basis of S is returned as it is, and it
    is canonical, also in a random basis of the same group."""
    spec = random_strict_spec(np.random.default_rng(seed), 3, 6, 6)
    k = WALK_SEEDS[seed]
    events = []
    real_stack, real_kernels = linalg.rref_stack, obstruction.kernel_stack
    monkeypatch.setattr(linalg, "rref_stack",
                        lambda *a: events.append("elim") or real_stack(*a))
    monkeypatch.setattr(obstruction, "kernel_stack",
                        lambda *a: events.append("batch") or real_kernels(*a))
    for s in (spec, change_basis(spec, np.random.default_rng(seed))):
        rep = analyze(s)
        walked = rep.deg2 if k == 2 else rep.deg3
        assert walked.si_dec != walked.si and walked.si_dec.dim
        for deg in (rep.deg2, rep.deg3):
            assert _is_canonical(deg.si_dec) and _is_canonical(deg.ki_max)
        events.clear()
        assert dec_subgroup(walked.si, k, 6) == walked.si_dec
        batches = events.count("batch")
        assert batches > 1 and events == ["batch", "elim", "elim"] * batches


# -- the centralizer sweep -----------------------------------------------------

def with_radical(spec: GroupSpec) -> GroupSpec:
    """spec on U + <e_{n+1}>, where gamma vanishes on every e_i ^ e_{n+1}:
    a non-strict spec whose radical holds e_{n+1}."""
    n = spec.n + 1
    idx = subset_index(n, 2)
    gamma = np.zeros((spec.m, comb(n, 2)), dtype=np.int64)
    for pair, s in subset_index(spec.n, 2).items():
        gamma[:, idx[pair]] = spec.gamma[:, s]
    return GroupSpec(spec.p, n, spec.m, gamma)


# (seed, p, dim U, strict): seeded specs from random_strict_spec, with
# dim U in [3, 5] (p = 3) or [3, 4] (p = 5) for seeds below 6; the WALK_SEEDS
# specs; and non-strict ones, with_radical of a dim U in [4, 5] or [4, 4]
# draw, where 0 != S^2_dec != S^2.
ROUTE_CASES = [(seed, 3 if seed % 2 == 0 else 5, None, True)
               for seed in range(6)] \
    + [(seed, 3, 6, True) for seed in sorted(WALK_SEEDS)] \
    + [(seed, 3 if seed % 2 == 0 else 5, None, False)
       for seed in (0, 3, 6, 16, 19)]
# Non-strict seeds whose spec, after change_basis, has a radical line
# outside H0 and an S^3_dec that H0's lines do not span: (5, 5, 5) at
# seed 3 and (3, 5, 4) at seed 6.  Without the lead-0 lines with
# dim D(v) >= 4, the sweep would read h3 = 1 on both.
OFF_H0_SEEDS = (3, 6)


def _route_spec(seed, p, n, strict):
    rng = np.random.default_rng(seed)
    if n is not None:
        return random_strict_spec(rng, p, n, n)
    if strict:
        return random_strict_spec(rng, p, 3, 5 if p == 3 else 4)
    return with_radical(random_strict_spec(rng, p, 4, 5 if p == 3 else 4))


@pytest.mark.parametrize(
    "seed,p,n,strict", ROUTE_CASES,
    ids=[f"{c[0]}-{c[1]}" + ("" if c[3] else "-radical") for c in ROUTE_CASES])
def test_centralizer_sweep_equals_both_other_routes_seed(monkeypatch, seed,
                                                        p, n, strict):
    """Also checks, against dec_subgroup restricted to H0's lines, that
    H0 = {x_0 = 0} spans S^2_dec, and that on the OFF_H0_SEEDS specs it
    does not span S^3_dec."""
    spec = _route_spec(seed, p, n, strict)
    nontrivial = False
    for moved, s in enumerate(
            (spec, change_basis(spec, np.random.default_rng(seed)))):
        rep = analyze(s, strict=strict)
        assert (rep.validation.radical_dim == 0) == strict
        for deg in (rep.deg2, rep.deg3):
            assert dec_subgroups(s, rep.deg2.si, rep.deg3.si)[deg.i - 2] \
                == deg.si_dec
            assert dec_subgroup(deg.si, deg.i, s.n) == deg.si_dec
            assert dec_subgroup_bruteforce(deg.si, deg.i, s.n) == deg.si_dec
            assert _is_canonical(deg.si_dec)
            nontrivial |= 0 < deg.si_dec.dim < deg.si.dim
        assert _h0_span(monkeypatch, rep.deg2.si, 2, s.n) == rep.deg2.si_dec
        h0_3 = _h0_span(monkeypatch, rep.deg3.si, 3, s.n)
        assert rep.deg3.si_dec.contains_subspace(h0_3)
        if not strict and moved and seed in OFF_H0_SEEDS:
            assert h0_3.dim < rep.deg3.si_dec.dim
    assert nontrivial or (n is None and strict)


def _h0_span(monkeypatch, S: Subspace, k: int, n: int) -> Subspace:
    """dec_subgroup's span over H0's lines only, those whose lead is not 0."""
    real_lines = obstruction.projective_lines
    with monkeypatch.context() as m:
        m.setattr(obstruction, "projective_lines",
                  lambda p, n: real_lines(p, n, range(1, n)))
        return dec_subgroup(S, k, n)


class _Spy:
    """Records every kernel_stack input shape, every (input, kernel) pair
    and every line consumed."""

    def __init__(self, monkeypatch):
        self.kernels, self.calls, self.lines = [], [], 0
        real_kernels = obstruction.kernel_stack
        real_lines = obstruction.projective_lines

        def lines(*args):
            for v in real_lines(*args):
                self.lines += 1
                yield v

        def kernels(A, p):
            K = real_kernels(A, p)
            self.kernels.append(A.shape)
            self.calls.append((A, K))
            return K

        monkeypatch.setattr(obstruction, "kernel_stack", kernels)
        monkeypatch.setattr(obstruction, "projective_lines", lines)
        monkeypatch.setattr(obstruction, "dec_subgroup",
                            lambda *a: pytest.fail("analyze ran dec_subgroup"))


@pytest.mark.parametrize("seed", sorted(WALK_SEEDS))
def test_one_kernel_serves_both_degrees_per_batch_seed(monkeypatch, seed):
    """Each batch takes one (lines, m + 1, n) kernel, whose D(v) serve both
    degrees; its last row is e_l, l = lead(v), so column 0 of that row is
    1 exactly on the lead-0 lines.  H0's lines come first, in batches of
    32, 64, ...: a degree-2 walker stops with them, after (3^5 - 1)/2 = 121.
    A degree-3 walker goes on to the 243 lead-0 lines, and of those only
    the lines with d = dim D(v) >= 4 reach a second kernel, of shape
    (lines, m, C(d, 2)); on H0 every line with d >= 2 does."""
    spec = random_strict_spec(np.random.default_rng(seed), 3, 6, 6)
    spy = _Spy(monkeypatch)
    analyze(spec)
    batches = []            # per centralizer kernel: lead 0?, dims, cycles
    for A, K in spy.calls:
        if A.shape[1:] == (spec.m + 1, 6):
            lead0 = A[:, -1, 0]
            assert (lead0 == lead0[0]).all()
            batches.append([bool(lead0[0]), K.any(axis=2).sum(axis=1), 0])
        else:
            d = next(d for d in range(7) if comb(d, 2) == A.shape[2])
            assert A.shape[1] == spec.m and d >= (4 if batches[-1][0] else 2)
            batches[-1][2] += len(A)
    assert spy.lines == sum(len(dims) for _, dims, _ in batches)
    for lead0, dims, cycles in batches:
        assert cycles == int((dims >= (4 if lead0 else 2)).sum())
    h0 = [len(dims) for lead0, dims, _ in batches if not lead0]
    assert h0 == [32, 64, 25] and sum(h0) == (3 ** 5 - 1) // 2
    if WALK_SEEDS[seed] == 2:
        assert spy.lines == sum(h0)
    else:
        assert spy.lines == (3 ** 6 - 1) // 2
        assert any(lead0 and ((dims >= 2) & (dims < 4)).any()
                   for lead0, dims, _ in batches)


def test_early_exit_eliminates_only_the_first_batch(monkeypatch):
    """S^2_dec = S^2 and S^3_dec = S^3 after 32 lines: no second batch."""
    spec = random_strict_spec(np.random.default_rng(23), 3, 6, 6)
    rep = analyze(spec)
    assert all(d.si_dec == d.si and d.si.dim for d in (rep.deg2, rep.deg3))
    spy = _Spy(monkeypatch)
    assert _dims(analyze(spec)) == _dims(rep)
    assert spy.lines == 32 and spy.kernels[0] == (32, spec.m + 1, 6)
    assert all(s[0] <= 32 and s[1:] != (spec.m + 1, 6)
               for s in spy.kernels[1:])


def test_analyze_stacks_its_independent_eliminations(monkeypatch):
    """Every rref_stack of one analyze of the early-exit spec above:
    validate_spec's two (gamma's row space, the radical), one stack for K^3,
    S^2 = ker K^2 and S^3 = ker K^3, and for the one batch of 32 lines its
    centralizer kernel, one kernel per group of lines with equal
    d = dim D(v) >= 2, and one fold of both degrees.  A change that splits
    a stack back into its eliminations adds calls."""
    spec = random_strict_spec(np.random.default_rng(23), 3, 6, 6)
    p, n, m = spec.p, spec.n, spec.m
    seen = []
    real = linalg.rref_stack
    monkeypatch.setattr(linalg, "rref_stack",
                        lambda A, *a: seen.append(np.shape(A)) or real(A, *a))
    rep = analyze(spec)
    monkeypatch.undo()
    assert all(d.si_dec == d.si and d.si.dim for d in (rep.deg2, rep.deg3))
    dims = []                       # d = dim D(v) on H0's first 32 lines
    for v in itertools.islice(projective_lines(p, n, range(1, n)), 32):
        M = spec.gamma_of(v, np.eye(n, dtype=np.int64)).T
        lead = np.eye(n, dtype=np.int64)[[int(np.flatnonzero(v)[0])]]
        dims.append(n - rank_mod(np.vstack([M, lead]), p))
    groups = sorted({d for d in dims if d >= 2})
    k2 = rep.deg2.ki.dim
    assert seen[:4] == [(1, m, comb(n, 2)), (1, m * n, n),
                        (3, k2 * n, comb(n, 3)), (32, m + 1, n)]
    assert [(A[1], A[2]) for A in seen[4:-1]] == \
        [(m, comb(d, 2)) for d in groups]
    assert len(seen) == 5 + len(groups) and seen[-1][0] == 2


def _h3_27_spec() -> GroupSpec:
    """The first strict draw of a (3, 9, 6) gamma from default_rng(1)."""
    rng = np.random.default_rng(1)
    while True:
        spec = GroupSpec(3, 9, 6, rng.integers(0, 3, (6, 36)))
        v = validate_spec(spec, strict=False)
        if (v.gamma_rank, v.radical_dim) == (6, 0):
            return spec


def test_h3_27_regression_3_9_6():
    """9841 lines, all swept in degree 3 (H0's 3280, then the lead-0
    lines with dim D(v) >= 4)."""
    rep = analyze(_h3_27_spec())
    assert (rep.b0_dim, rep.h3_dim) == (0, 27)
    assert rep.deg3.si_dec != rep.deg3.si


@pytest.mark.parametrize("name,digest", [
    ("peyre6",
     "e01ef43c0a3603f03e36fd581044e836b71cdc0bbfb950ee56557755d59dc1f5"),
    ("walker6",
     "ebe478e93e7464a7f4489033d98755783d61e5db622378e311c8efcba56fe8b3"),
    ("h3_27",
     "fb803a2fd4ae8c94229077179f1f848ac94f48c31c781cbc9200935313df0599"),
])
def test_analyze_json_bytes_are_pinned(tmp_path, monkeypatch, capsys, name,
                                       digest):
    """SHA-256 of `analyze --json` stdout, as the all-lines sweep printed
    it: peyre6, the degree-2 walker of WALK_SEEDS seed 6, and the (3, 9, 6)
    spec with h3 = 27.  A change of line order or batches must not move a
    byte.  The report names a spec by its file's base name, so the file is
    spec.json."""
    if name == "peyre6":
        argv = ["--builtin", "peyre6"]
    else:
        spec = _h3_27_spec() if name == "h3_27" else \
            random_strict_spec(np.random.default_rng(6), 3, 6, 6)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps(spec_to_json_dict(spec)))
        argv = ["--spec", "spec.json"]
    assert main(["analyze", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_line_guard_refuses_before_k3_and_the_sweep(monkeypatch):
    """p = 65521, dim U = 3: 65521^2 + 65521 + 1 lines and S^2 = <e2 ^ e3>.
    Every element of Lambda^2 U is decomposable at dim U = 3, so the sweep
    would stop after its first batch; the guard cannot know that in advance
    and refuses the spec all the same."""
    spec = GroupSpec(65521, 3, 2, [[1, 0, 0], [0, 1, 0]])
    for name in ("compute_k3", "dec_subgroups"):
        monkeypatch.setattr(obstruction, name,
                            lambda *a: pytest.fail("got past the guard"))
    with pytest.raises(GuardExceededError) as info:
        analyze(spec)
    assert info.value.required == 65521 ** 2 + 65521 + 1
    monkeypatch.undo()
    spec = GroupSpec(3, 3, 2, [[1, 0, 0], [0, 1, 0]])      # 13 lines
    monkeypatch.setattr(obstruction, "MAX_LINES", 13)
    assert analyze(spec).deg2.si.dim == 1
    monkeypatch.setattr(obstruction, "MAX_LINES", 12)
    with pytest.raises(GuardExceededError):
        analyze(spec)


def test_line_guard_passes_a_spec_with_nothing_to_sweep(monkeypatch):
    """The free class-2 group at p = 1009, dim U = 3 (gamma = identity):
    1,019,091 lines, but S^2 = S^3 = 0, so no line is swept."""
    spec = GroupSpec(1009, 3, 3, np.eye(3, dtype=np.int64))
    monkeypatch.setattr(obstruction, "projective_lines",
                        lambda *a: pytest.fail("swept"))
    rep = analyze(spec)
    assert (rep.deg2.si.dim, rep.deg3.si.dim) == (0, 0)
    assert (rep.b0_dim, rep.h3_dim) == (0, 0)


@pytest.mark.parametrize("seed,strict", [(0, True), (1, True), (2, False)])
def test_gamma_is_eliminated_once_per_analyze(monkeypatch, seed, strict):
    """K^2 is the row space that validate_spec takes: gamma is eliminated
    once."""
    spec = random_strict_spec(np.random.default_rng(seed), 3, 4, 5)
    if not strict:
        spec = with_radical(spec)
    rank = rank_mod(spec.gamma, spec.p)
    seen = []
    real = linalg.rref_stack
    monkeypatch.setattr(linalg, "rref_stack",
                        lambda A, *a: seen.append(np.array(A)) or real(A, *a))
    rep = analyze(spec, strict=strict)
    assert rep.validation.gamma_rank == rank
    assert sum(a.shape == (1,) + spec.gamma.shape
               and bool((a[0] % spec.p == spec.gamma).all())
               for a in seen) == 1


def _refuse(*args):
    raise AssertionError("the brute force ran its costlier side")


def test_brute_force_guard_counts_the_point_side(monkeypatch):
    """peyre6 in degree 3: dim S^3 = 2, so 364 lines x 4 points."""
    S = analyze(builtin("peyre6")).deg3.si
    monkeypatch.setattr(obstruction, "_flags_in_subspace", _refuse)
    with pytest.raises(GuardExceededError) as info:
        dec_subgroup_bruteforce(S, 3, 6, max_work=1455)
    assert info.value.required == 364 * 4
    assert dec_subgroup_bruteforce(S, 3, 6, max_work=1456) == \
        Subspace.from_generators([trivector(3, 6, (1, 3, 5))], 3, comb(6, 3))


def test_brute_force_guard_counts_the_flag_side(monkeypatch):
    """All of Lambda^2 F_3^4: 364 points, but only 3^3 elements per flag."""
    S = Subspace.from_generators(np.eye(6, dtype=np.int64), 3, 6)
    monkeypatch.setattr(obstruction, "_points_in_flags", _refuse)
    lines = (3 ** 4 - 1) // 2
    with pytest.raises(GuardExceededError) as info:
        dec_subgroup_bruteforce(S, 2, 4, max_work=lines * 3 ** 3 - 1)
    assert info.value.required == lines * 3 ** 3
    assert dec_subgroup_bruteforce(S, 2, 4, max_work=lines * 3 ** 3) == S


def test_brute_force_never_takes_the_kernel_route(monkeypatch):
    def no_kernels(*args):
        raise AssertionError("the brute force called kernel_stack")

    monkeypatch.setattr(obstruction, "kernel_stack", no_kernels)
    # u[1,2,3] + u[3,4,5] = u3 ^ (u[1,2] + u[4,5]) has the factor u3
    S = Subspace.from_generators([trivector(3, 5, (1, 2, 3), (3, 4, 5))], 3,
                                 comb(5, 3))
    assert obstruction._flags_in_subspace(S, 3, 5) == S
    assert obstruction._points_in_flags(S, 3, 5) == S


def test_brute_force_checks_each_flag_dimension(monkeypatch):
    monkeypatch.setattr(obstruction, "wedge_basis_tensor",
                        lambda n, k: np.zeros((n, comb(n, k), comb(n, k + 1)),
                                              dtype=np.int64))
    S = Subspace.from_generators(np.eye(6, dtype=np.int64), 3, 6)
    for side in (obstruction._flags_in_subspace, obstruction._points_in_flags):
        with pytest.raises(InternalInconsistencyError):
            side(S, 2, 4)


def test_projective_line_count():
    assert len(list(projective_lines(3, 6))) == (3 ** 6 - 1) // 2
    assert len(list(projective_lines(5, 3))) == (5 ** 3 - 1) // 4


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", range(1, 6))
def test_projective_lines_by_lead(p, n):
    """leads = range(j, n) gives the lines of {x_0 = ... = x_(j-1) = 0} in
    the full enumeration's order, range(j, j + 1) the p^(n-j-1) lines with
    lead j, and range(1, n), H0's lines, what (0, w) over the lines w of
    F_p^(n-1) gave."""
    lines = lambda *leads: [tuple(v.tolist())
                            for v in projective_lines(p, *leads)]
    every = lines(n)
    for j in range(n + 1):
        tail = lines(n, range(j, n))
        assert tail == [v for v in every if not any(v[:j])]
        assert len(tail) == (p ** (n - j) - 1) // (p - 1)
        if j < n:
            assert len(lines(n, range(j, j + 1))) == p ** (n - j - 1)
    assert lines(n, range(1, n)) == [(0,) + w for w in lines(n - 1)]


# -- analyze ------------------------------------------------------------------

def test_analyze_peyre6_headline_numbers():
    rep = analyze(builtin("peyre6"))
    assert rep.deg2.ki.dim == 6
    assert rep.deg2.si.dim == 9
    assert rep.deg2.ki_max == rep.deg2.ki
    assert rep.b0_dim == 0
    assert rep.deg3.ki.dim == 18
    assert rep.deg3.ki_max.dim == 19
    assert rep.h3_dim == 1
    assert rep.brauer_trivial and rep.degree3_obstruction_nonzero
    assert rep.verdict_line() == ("unramified Brauer group trivial; "
                                  "degree-3 unramified obstruction nonzero; "
                                  "invariant field NOT rational")


def test_analyze_heisenberg_trivial():
    rep = analyze(builtin("heisenberg3"))
    assert rep.b0_dim == 0 and rep.h3_dim == 0
    assert rep.deg2.si.dim == 0
    assert rep.deg3.ki.ambient == 0


@pytest.mark.parametrize("seed", list(range(10)))
def test_low_dimension_collapse_sample_seed(seed):
    # every trivector in dim <= 5 has a vector factor, so h3 = 0
    p = 3 if seed % 2 else 5
    rng = np.random.default_rng(seed)
    spec = random_strict_spec(rng, p, n_max=5)
    rep = analyze(spec)
    assert rep.h3_dim == 0


def test_chain_inclusions_and_perp_consistency():
    for name in ("peyre6", "heisenberg3", "heisenberg5"):
        rep = analyze(builtin(name))
        for deg in (rep.deg2, rep.deg3):
            assert deg.ki_max.contains_subspace(deg.ki)
            assert deg.si.contains_subspace(deg.si_dec)
            assert deg.ki.orthogonal() == deg.si
            assert deg.si.orthogonal() == deg.ki
            assert deg.ki.dim + deg.si.dim == deg.ki.ambient


def test_b0_zero_for_tiny_n():
    # n <= 2: Lambda^2 is at most a line, S^2 has no room for
    # non-decomposable elements
    for name in ("heisenberg3", "heisenberg5"):
        assert analyze(builtin(name)).b0_dim == 0


def _dims(rep):
    return [(d.ki.dim, d.si.dim, d.si_dec.dim, d.ki_max.dim)
            for d in (rep.deg2, rep.deg3)] + [(rep.b0_dim, rep.h3_dim)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_obstruction_dims_are_basis_permutation_invariant_seed(seed):
    # under any gamma -> h o gamma o Lambda^2 g, of which basis permutations
    # are one case, the group is the same, so every dim is unchanged
    rng = np.random.default_rng(seed)
    spec = builtin("peyre6")
    rep = analyze(change_basis(spec, rng))
    assert (rep.b0_dim, rep.h3_dim) == (0, 1) and rep.deg3.si_dec.dim == 1
    assert _dims(rep) == _dims(analyze(spec))
    assert dec_subgroup_bruteforce(rep.deg3.si, 3, 6) == rep.deg3.si_dec
    small = random_strict_spec(rng, 3, n_max=4)
    assert _dims(analyze(change_basis(small, rng))) == _dims(analyze(small))


@pytest.mark.parametrize("seed", range(12))
def test_obstruction_dims_are_basis_change_invariant_seed(seed):
    p = 3 if seed % 2 == 0 else 5
    rng = np.random.default_rng(seed)
    spec = random_strict_spec(rng, p, n_min=3, n_max=5)
    rep = analyze(change_basis(spec, rng))
    assert _dims(rep) == _dims(analyze(spec))
    for deg in (rep.deg2, rep.deg3):
        assert dec_subgroup(deg.si, deg.i, spec.n) == \
            dec_subgroup_bruteforce(deg.si, deg.i, spec.n)


def _census_spec(p, seed):
    """The first strict draw of a (p, 6, 3) gamma from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    while True:
        spec = GroupSpec(p, 6, 3, rng.integers(0, p, (3, 15)))
        rep = validate_spec(spec, strict=False)
        if (rep.radical_dim, rep.gamma_rank) == (0, 3):
            return spec


@pytest.mark.parametrize("p,seed,dims", [(3, 1, (0, 2)), (3, 2, (0, 1)),
                                         (3, 3, (0, 1)), (5, 2, (0, 2))])
def test_census_at_order_p9_seed(p, seed, dims):
    """What the calculator reports at |G| = p^9, below peyre6's 3^12: a
    trivial b0 and a nonzero h3.  The sweep, dec_subgroup and the brute
    force agree in degree 3, and at p = 3 in degree 2; the degree-2 brute
    force at p = 5 takes seconds, so there the first two routes agree."""
    spec = _census_spec(p, seed)
    rep = analyze(spec)
    assert (rep.b0_dim, rep.h3_dim) == dims
    for deg in (rep.deg2, rep.deg3):
        assert dec_subgroup(deg.si, deg.i, spec.n) == deg.si_dec
        if p == 3 or deg.i == 3:
            assert dec_subgroup_bruteforce(deg.si, deg.i, spec.n) == \
                deg.si_dec


def test_nonstrict_analysis_is_stamped():
    rep = analyze(builtin("elem9"), strict=False)
    assert not rep.hypotheses_ok
    assert "hypotheses violated" in rep.verdict_line()
    assert rep.b0_dim == 0 and rep.h3_dim == 0


def test_analyze_tiny_carriers():
    # n = 1: no bivectors at all; everything degenerates to zero spaces
    rep = analyze(builtin("elem3"), strict=False)
    assert rep.deg2.ki.ambient == 0 and rep.b0_dim == 0 and rep.h3_dim == 0
    # n = 0: the trivial group
    trivial = GroupSpec(3, 0, 0, np.zeros((0, 0), dtype=np.int64))
    rep = analyze(trivial, strict=True)
    assert rep.b0_dim == 0 and rep.h3_dim == 0


def _enumerate_span(vectors, p, length):
    """Closure of a set of vectors under the F_p span, by plain sets."""
    span = {(0,) * length}
    frontier = [tuple(int(x) for x in v) for v in vectors]
    for v in frontier:
        if v in span:
            continue
        additions = []
        for c in range(1, p):
            for s in list(span):
                w = tuple((c * a + b) % p for a, b in zip(v, s))
                additions.append(w)
        span.update(additions)
    return span


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_full_pipeline_matches_raw_enumeration_seed(seed):
    """Recompute b0/h3 with sets and loops only; no shared code with analyze."""
    p = 3
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(0, 3))
    spec = GroupSpec(p, n, m, rng.integers(0, p, size=(m, comb(n, 2))))
    rep = analyze(spec, strict=False)

    d2, d3 = comb(n, 2), comb(n, 3)
    idx2 = subset_index(n, 2)
    idx3 = subset_index(n, 3)

    def wedge2(u, v):
        out = [0] * d2
        for (i, j), t in idx2.items():
            out[t] = (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]) % p
        return tuple(out)

    vectors = list(itertools.product(range(p), repeat=n))
    k2 = _enumerate_span(spec.gamma, p, d2)
    s2 = {x for x in itertools.product(range(p), repeat=d2)
          if all(sum(a * b for a, b in zip(f, x)) % p == 0 for f in k2)}
    dec2 = {wedge2(u, v) for u in vectors for v in vectors}
    s2dec = _enumerate_span([x for x in s2 if x in dec2], p, d2)
    k2max = {f for f in itertools.product(range(p), repeat=d2)
             if all(sum(a * b for a, b in zip(f, x)) % p == 0 for x in s2dec)}

    def log_p(size):
        e = 0
        while size > 1:
            size //= p
            e += 1
        return e

    assert rep.deg2.ki.dim == log_p(len(k2))
    assert rep.deg2.si.dim == log_p(len(s2))
    assert rep.deg2.si_dec.dim == log_p(len(s2dec))
    assert rep.b0_dim == log_p(len(k2max)) - log_p(len(k2))
    assert _enumerate_span(rep.deg2.si_dec.basis, p, d2) == s2dec

    k3 = _enumerate_span(_k3_generators(spec, idx2, p, d3), p, d3)
    s3 = {x for x in itertools.product(range(p), repeat=d3)
          if all(sum(a * b for a, b in zip(f, x)) % p == 0 for f in k3)}
    bivectors = {tuple(int(x) for x in b)
                 for b in itertools.product(range(p), repeat=d2)}
    dec3 = set()
    for ucoef in bivectors:
        for v in vectors:
            dec3.add(_wedge_2_1(ucoef, v, idx2, idx3, n, p, d3))
    s3dec = _enumerate_span([x for x in s3 if x in dec3], p, d3)
    k3max = {f for f in itertools.product(range(p), repeat=d3)
             if all(sum(a * b for a, b in zip(f, x)) % p == 0 for x in s3dec)}
    assert rep.deg3.ki.dim == log_p(len(k3))
    assert rep.deg3.si.dim == log_p(len(s3))
    assert rep.deg3.si_dec.dim == log_p(len(s3dec))
    assert rep.h3_dim == log_p(len(k3max)) - log_p(len(k3))


def _k3_generators(spec, idx2, p, d3):
    """K^3 generators by definition: gamma-dual rows wedged with duals e_j*."""
    n = spec.n
    idx3 = subset_index(n, 3)
    gens = []
    for row in spec.gamma:
        for j in range(1, n + 1):
            out = [0] * d3
            for (a, b), t2 in idx2.items():
                cval = int(row[t2])
                if not cval or j in (a, b):
                    continue
                S = tuple(sorted((a, b, j)))
                # sign of sorting (a, b, j): one inversion iff a < j < b
                sign = -1 if a < j < b else 1
                out[idx3[S]] = (out[idx3[S]] + sign * cval) % p
            gens.append(tuple(out))
    return gens


def _wedge_2_1(bcoef, v, idx2, idx3, n, p, d3):
    out = [0] * d3
    for (a, b), t2 in idx2.items():
        c = int(bcoef[t2])
        if not c:
            continue
        for j in range(1, n + 1):
            if not v[j - 1] or j in (a, b):
                continue
            S = tuple(sorted((a, b, j)))
            sign = -1 if a < j < b else 1
            out[idx3[S]] = (out[idx3[S]] + sign * c * v[j - 1]) % p
    return tuple(out)


def dual_trivector(p, n, *terms):
    out = np.zeros(comb(n, 3), dtype=np.int64)
    idx = subset_index(n, 3)
    for subset, c in terms:
        out[idx[subset]] = (out[idx[subset]] + c) % p
    return out


def test_k3_peyre6_matches_listed_generator_table():
    # the 18 stated generators of K^3 for the headline example
    spec = builtin("peyre6")
    k3 = compute_k3(spec, k2_of(spec))[0]
    g = dual_trivector
    p, n = 3, 6
    expected = Subspace.from_generators([
        g(p, n, ((1, 2, 3), 1), ((1, 5, 6), -1)),
        g(p, n, ((1, 2, 3), 1), ((3, 4, 5), -1)),
        g(p, n, ((1, 2, 4), 1)),
        g(p, n, ((1, 2, 5), 1)),
        g(p, n, ((1, 2, 6), 1)),
        g(p, n, ((1, 3, 4), 1)),
        g(p, n, ((1, 3, 6), 1)),
        g(p, n, ((1, 4, 5), 1)),
        g(p, n, ((1, 4, 6), 1)),
        g(p, n, ((2, 3, 4), 1)),
        g(p, n, ((2, 3, 5), 1)),
        g(p, n, ((2, 3, 6), 1)),
        g(p, n, ((2, 4, 5), 1)),
        g(p, n, ((2, 4, 6), 1)),
        g(p, n, ((2, 5, 6), 1)),
        g(p, n, ((3, 4, 6), 1)),
        g(p, n, ((3, 5, 6), 1)),
        g(p, n, ((4, 5, 6), 1)),
    ], p, comb(n, 3))
    assert k3 == expected


def test_report_text_renders_bases():
    from unramified.obstruction import report_text
    text = report_text(analyze(builtin("peyre6")))
    assert "dim K^2 = 6; dim S^2 = 9" in text
    assert "S^3_dec basis: u[1,3,5]" in text
    assert "b0_dim = 0; h3_dim = 1" in text
