"""The obstruction pipeline.

For a spec with form gamma: Lambda^2 U -> V the chain is, per degree
i in {2, 3}:

    K^2 = image of gamma* : V* -> Lambda^2 U*      (row space of gamma)
    K^3 = K^2 ^ U*                                 (inside Lambda^3 U*)
    S^i = (K^i)^perp                               (inside Lambda^i U)
    S^i_dec = span of the elements of S^i of the form omega ^ v, v in U
    K^i_max = (S^i_dec)^perp                       (back inside Lambda^i U*)

    b0_dim = dim K^2_max - dim K^2     (trivial iff the unramified Brauer
                                        group of the invariant field is 0)
    h3_dim = dim K^3_max - dim K^3     (a lower bound for the degree-3
                                        unramified cohomology)

All complements use the identity pairing of the dual wedge bases.  Every
partially decomposable element has a factor line, so S^i_dec is the span,
over the projective lines [v], of S^i intersect F_v, where
F_v = {omega ^ v}.

analyze reads both intersections off the centralizer of v.  Let l be the
leading coordinate of v (v_l = 1), and let

    C(v) = {w in U : gamma(v ^ w) = 0},   H = {w : w_l = 0},
    D(v) = C(v) intersect H.

Then

    S^2 intersect F_v = v ^ D(v),
    S^3 intersect F_v = v ^ {y in Lambda^2 D(v) : gamma(y) = 0}.

Proof.  U = <v> + H, and omega -> v ^ omega is injective on Lambda^(i-1) H,
so each element of F_v is v ^ y for exactly one y in Lambda^(i-1) H.
Degree 2: S^2 = ker gamma, and v ^ w lies in it iff w is in C(v), that is,
for w in H, iff w is in D(v).  Degree 3: K^3 is spanned by the
(rho o gamma) ^ xi for rho in V* and xi in U*, and <kappa ^ xi, x> is
+-<kappa, xi _| x>, so x lies in S^3 iff gamma(xi _| x) = 0 for every xi.
For x = v ^ y with y in Lambda^2 H,

    xi _| (v ^ y) = xi(v) y - v ^ (xi _| y).

The condition is linear in xi, and U* is spanned by e_l* (1 at v, 0 on H)
and the xi with xi(v) = 0, which restrict to all of H*.  For xi = e_l*,
xi _| y = 0, and the condition is gamma(y) = 0.  For xi(v) = 0 it is
gamma(v ^ (xi _| y)) = 0, that is xi _| y in C(v); as xi _| y lies in H,
that is xi _| y in D(v).  This holds for every xi in H* iff y, read as an
alternating form on H*, vanishes on H* x D(v)^0, that is iff y lies in
Lambda^2 D(v).  QED.  (Degree 2 is Bogomolov's commuting-pairs
description of B0 for these groups.)

Not every line is needed.  Let H0 = {x : x_0 = 0}, a hyperplane of U.

Degree 2: S^2_dec is the span over the lines v of H0 of v ^ D(v).  An
element v ^ w != 0 of S^2 has the plane span(v, w) as its factor space;
the plane meets H0 in a line v', so span(v, w) = span(v', w') and v ^ w
is a multiple of v' ^ w', which lies in S^2 intersect F_v'.

Degree 3: S^3_dec is spanned by the S^3 intersect F_v for v in H0 and for
the lines v outside H0 with d = dim D(v) >= 4.  Take v outside H0 and
x = v ^ y in S^3, y in Lambda^2 D(v) (above).  If d <= 3, every y in
Lambda^2 D(v) is decomposable, y = a ^ b, so x = v ^ a ^ b has the
3-dimensional factor space span(v, a, b) (or is 0), which meets H0 in a
plane; writing span(v, a, b) = span(v', a', b') with v' in H0 makes x a
multiple of v' ^ a' ^ b', in S^3 intersect F_v'.  So only an x whose one
factor line is v, that is an indecomposable v ^ y, needs the line v; that
needs rank y >= 4, hence d >= 4.

No smaller fixed set of lines serves every spec in degree 2 by this
argument: the set must meet every plane of U, and by the Bose-Burton
theorem (Bose and Burton, J. Combin. Theory 1, 1966) the smallest set of
points of PG(n - 1, p) that meets every line is a hyperplane.

dec_subgroups sweeps the lines in batches: first H0's lines (0, w), for w
in projective_lines(p, n - 1), then the lines outside H0, which are the
lead-0 lines, the first p^(n-1) of projective_lines(p, n).  Per batch,
one stacked elimination (linalg.kernel_stack) gives every D(v): the
kernel of the m x n matrix w -> gamma(v ^ w), gamma of the batch's wedges
v ^ e_j, with e_l appended.  Degree 2 folds D(v) times those wedges at
S^2's pivots, on H0's lines only.  Degree 3 takes a second kernel, of
y -> gamma(y) on Lambda^2 D(v), for the lines of H0 with d >= 2 and the
lead-0 lines with d >= 4, grouped by d; the first kernel still runs on
every lead-0 line, to find d.  Each degree stops at the first batch at
which its span is all of S^i, degree 2 also when H0 runs out, and the
sweep stops when both have, or after the last line.  The batch size keeps
doubling from H0's batches into the lead-0 ones.

dec_subgroup is the second route, for any subspace S of Lambda^k U: it
stacks the matrices of x -> x ^ v_l on the basis of S for a batch of
lines v_l and folds their left kernels, {x in S : x ^ v_l = 0}, into one
span, with the same batches and early exit.  dec_subgroup_bruteforce is
the independent oracle: it tests exhaustively, without ker(^ v), which
points of P(S) lie in which flag space F_v, from whichever side of that
incidence is smaller.

K^2 is the row space of gamma that validate_spec takes, so gamma is
eliminated once.  K^3, S^2 = ker K^2 and S^3 = ker K^3 then come from one
stacked elimination (compute_k3, linalg.subspaces) unless S^2 = 0 (below),
and each batch of the sweep folds both degrees' new elements into their
spans with one more.
spaces, every stage of analyze before the sweep, makes two checks right
after validate_spec, before K^3 (errors.check_bound):
- the line guard refuses a spec with S^2 = ker gamma nonzero and more
  than MAX_LINES projective lines.  It counts all (p^n - 1)/(p - 1) lines:
  a degree-3 sweep that does not exit early visits every line (H0's, then
  the lead-0 ones), and neither whether degree 3 has anything to sweep
  (S^3 is known only after K^3) nor whether a sweep will exit early is
  known at that point.  If S^2 = 0 then K^2 = Lambda^2 U*, so
  K^3 = Lambda^3 U* and S^3 = 0 as well: there is nothing to sweep, and
  the line guard does not apply.  Nor is compute_k3 run: K^3's basis is
  the identity;
- the K^3 guard bounds the cells of compute_k3's generator matrix by
  MAX_K3_CELLS.  When S^2 = 0 that figure, C(n, 2) n C(n, 3), bounds the
  C(n, 3)^2 cells of Lambda^3 U*'s identity basis instead.
oracle decomposables runs the brute force's work check before any sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import InternalInconsistencyError, SpecError, check_bound
from .exterior import render_basis, wedge_basis_tensor
from .groups import GroupSpec, ValidationReport, spec_to_json_dict, \
    validate_spec
from .linalg import Subspace, kernel_stack, projective_lines, rref_stack, \
    subspaces

Array = np.ndarray

DEFAULT_BRUTE_WORK = 10 ** 8
MAX_LINES = 10 ** 6
# compute_k3's (dim K^2 * n) x C(n, 3) generator matrix.  The most a spec
# under MAX_LINES can need is 77 * 13 * 286 = 286,286 (p = 3, n = 13); with
# S^2 = 0 this admits the free class-2 group at p = 3 up to n = 17.
# compute_k3's one elimination holds three slices of at most this many cells
# each (K^2's basis is padded to the matrix's shape, to 4 * 6 * 6 at n <= 4).
MAX_K3_CELLS = 1 << 21
# Batches of lines in both sweeps: the first is small, as early exits come
# after a few dozen lines; later ones double until a batch's stacked
# matrices would hold more than _BATCH_CELLS entries (a memory bound).
_FIRST_BATCH = 32
_BATCH_CELLS = 1 << 16


def compute_k3(spec: GroupSpec, k2: Subspace
               ) -> tuple[Subspace, Subspace, Subspace]:
    """K^3 = K^2 ^ U* = span{kappa ^ e_j* : kappa in basis(K^2), 1 <= j <= n},
    S^2 = ker K^2 and S^3 = ker K^3, from one stacked elimination."""
    gens = np.einsum("rs,jst->rjt", k2.basis, wedge_basis_tensor(spec.n, 2))
    gens = gens.reshape(k2.dim * spec.n, comb(spec.n, 3))
    return subspaces(spec.p, spans=(gens,), kernels=(k2.basis, gens))


def dec_subgroup(S: Subspace, k: int, n: int) -> Subspace:
    """Span of the partially decomposable elements of any S in Lambda^k U.

    The second route, which analyze does not take.  Per line [v]:
    {x in S : x ^ v = 0} = S intersect {omega ^ v}, using the contraction
    homotopy identity im(^v) = ker(^v).  Lines are swept in
    batches; each batch is one stacked elimination, and the sweep stops
    after the first batch at which the accumulated span reaches S itself.
    The span acc (rref, pivots q_j) times S.basis (rref, pivots P_i) is in
    rref: its row j leads with 1 at P_{q_j}, where every other row is 0.
    """
    if k not in (2, 3):
        raise ValueError("dec_subgroup is defined for degrees 2 and 3")
    p = S.p
    if S.ambient != comb(n, k):
        raise SpecError(f"subspace ambient {S.ambient} != C({n},{k})")
    if S.dim == 0 or n == 0:
        return Subspace.zero(p, S.ambient)
    # SE[j]: images of the S basis under (^ e_{j+1}), rows = S basis
    SE = np.einsum("is,jst->jit", S.basis, wedge_basis_tensor(n, k)) % p
    cap = max(1, _BATCH_CELLS // max(1, SE[0].size))
    lines = projective_lines(p, n)
    acc = np.zeros((0, S.dim), dtype=np.int64)   # in S-basis coordinates
    size = min(_FIRST_BATCH, cap)
    while batch := list(itertools.islice(lines, size)):
        # C[l] = (S.basis @ W(v_l))^T; its kernel is {x in S : x ^ v_l = 0}
        C = np.einsum("lj,jit->lti", np.array(batch), SE)
        (acc,) = _fold(p, [(acc, kernel_stack(C, p))])
        if acc.shape[0] == S.dim:
            return S
        size = min(2 * size, cap)
    return Subspace(p, S.ambient, acc @ S.basis % p)


def dec_subgroups(spec: GroupSpec, s2: Subspace, s3: Subspace
                  ) -> tuple[Subspace, Subspace]:
    """S^2_dec and S^3_dec of S^2 = ker gamma and S^3 = (K^2 ^ U*)^perp,
    from one sweep over H0's lines and then the lead-0 lines (module
    docstring).

    Both are folded in S^i-basis coordinates, x[pivots] for x in S^i, so
    the wedge tables are cut to the pivot columns, and a batch folds both
    with one elimination; as in dec_subgroup, the span acc times S^i.basis
    is already in rref.
    """
    p, n, m = spec.p, spec.n, spec.m
    targets = (s2, s3)
    accs = [np.zeros((0, S.dim), dtype=np.int64) for S in targets]
    todo = [S.dim > 0 for S in targets]
    if not any(todo):
        return targets
    # [i, j]: e_i ^ e_j; d @ it: w -> d ^ w
    pairs = wedge_basis_tensor(n, 1).transpose(1, 0, 2).reshape(n, -1)
    by_v3 = wedge_basis_tensor(n, 2)[:, :, s3.pivots].reshape(n, -1)
    # per line: its (m + 1) x n matrix, n x n kernel and n x C(n, 2) wedges
    cap = max(1, _BATCH_CELLS // (n * (m + 1 + n + comb(n, 2))))
    size = min(_FIRST_BATCH, cap)
    # (lines, zeros to prepend, least d for degree 3): H0's lines (0, w),
    # then the lead-0 lines, the first p^(n-1) of projective_lines(p, n)
    sweeps = ((projective_lines(p, n - 1), 1, 2),
              (itertools.islice(projective_lines(p, n), p ** (n - 1)), 0, 4))
    for lines, pad, min_d in sweeps:
        while any(todo) and (batch := list(itertools.islice(lines, size))):
            V = np.pad(np.array(batch), ((0, 0), (pad, 0)))
            W = (V @ pairs).reshape(len(V), n, -1)       # [l, j]: v_l ^ e_j
            M = (W @ spec.gamma.T).transpose(0, 2, 1)    # w -> gamma(v ^ w)
            lead = np.eye(n, dtype=np.int64)[(V != 0).argmax(axis=1), None]
            D = kernel_stack(np.concatenate([M, lead], axis=1), p)
            new = []
            if todo[0]:
                new.append((0, D @ W[:, :, s2.pivots]))
            if todo[1]:
                new.append((1, _cycles_by_line(spec, V, D, pairs, by_v3,
                                               min_d)))
            for (i, _), acc in zip(new, _fold(p, [(accs[i], X)
                                                  for i, X in new])):
                accs[i] = acc
            todo = [acc.shape[0] < S.dim for S, acc in zip(targets, accs)]
            size = min(2 * size, cap)
        todo[0] = False
    return tuple(Subspace(p, S.ambient, acc @ S.basis % p)
                 for S, acc in zip(targets, accs))


def _fold(p: int, pairs) -> list[Array]:
    """For each (acc, X) of pairs, the rref of the span of acc's rows and
    the rows of the stack X; all from one stacked elimination."""
    spans = []
    for acc, X in pairs:
        X = X.reshape(-1, acc.shape[1]) % p
        spans.append(np.vstack([acc, X[X.any(axis=1)]]))
    return [S.basis for S in subspaces(p, spans=spans)]


def _cycles_by_line(spec: GroupSpec, V: Array, D: Array, pairs: Array,
                    by_v3: Array, min_d: int) -> Array:
    """v ^ {y in Lambda^2 D(v) : gamma(y) = 0} for each line v of V with
    d = dim D(v) >= min_d (>= 2, as Lambda^2 D(v) = 0 below), in S^3-basis
    coordinates; D[l] holds a basis of D(v_l) among zero rows.

    Lines are grouped by d, and each group is cut into chunks whose arrays
    hold about _BATCH_CELLS entries."""
    p, n = spec.p, spec.n
    c2 = pairs.shape[1] // n
    s3 = by_v3.shape[1] // c2
    dims = D.any(axis=2).sum(axis=1)
    out = [np.zeros((0, s3), dtype=np.int64)]
    for d in sorted(set(dims.tolist()) - set(range(min_d))):
        a, b = np.triu_indices(d, 1)
        rows = np.flatnonzero(dims == d)
        step = max(1, _BATCH_CELLS // (c2 * (d * n + d * d + s3)))
        for ls in np.array_split(rows, -(-len(rows) // step)):
            Dd = D[ls][D[ls].any(axis=2)].reshape(len(ls), d, n)
            wedges = (Dd @ pairs).reshape(len(ls), d, n, c2)
            Y = (Dd[:, None] @ wedges)[:, a, b] % p      # d_a ^ d_b, a < b
            Z = kernel_stack((Y @ spec.gamma.T).transpose(0, 2, 1), p)
            by_v = (V[ls] @ by_v3).reshape(len(ls), c2, -1)  # y -> y ^ v
            out.append(((Z @ Y % p) @ by_v).reshape(-1, s3))
    return np.vstack(out)


def _flag_bases(p: int, n: int, k: int, count: int):
    """RREF bases and pivots of the flag spaces F_v, one batch of lines at a
    time; a batch's W(v) and count vectors per line hold <= _BATCH_CELLS."""
    E = wedge_basis_tensor(n, k - 1)     # W(v) = sum_j v_j E[j] spans F_v
    flag_dim = comb(n - 1, k - 1)
    cap = max(1, _BATCH_CELLS // ((E.shape[1] + count) * E.shape[2]))
    lines = projective_lines(p, n)
    while batch := list(itertools.islice(lines, cap)):
        R, ranks, pivots = rref_stack(
            np.einsum("lj,jst->lst", np.array(batch), E), p)
        if (ranks != flag_dim).any():
            raise InternalInconsistencyError(
                f"a flag space has dim != C({n - 1},{k - 1})")
        yield R[:, :flag_dim], pivots[:, :flag_dim]


def _flags_in_subspace(S: Subspace, k: int, n: int) -> Subspace:
    """Flag side: every element of every F_v, tested for membership in S;
    each batch's hits are folded into the span, so memory stays bounded."""
    p = S.p
    grid = np.array(list(itertools.product(
        range(p), repeat=comb(n - 1, k - 1))), dtype=np.int64)
    acc = Subspace.zero(p, S.ambient)
    for R, _ in _flag_bases(p, n, k, len(grid)):
        X = (grid @ R).reshape(-1, S.ambient) % p
        acc = Subspace.from_generators(
            np.vstack([acc.basis, X[S.contains(X)]]), p, S.ambient)
    return acc


def _points_in_flags(S: Subspace, k: int, n: int) -> Subspace:
    """Point side: every point of P(S), tested for membership in each F_v."""
    p = S.p
    X = np.array(list(projective_lines(p, S.dim))) @ S.basis % p
    hit = np.zeros(len(X), dtype=bool)
    for R, pivots in _flag_bases(p, n, k, len(X)):
        recon = np.einsum("plf,lft->plt", X[:, pivots], R) % p
        hit |= (recon == X[:, None]).all(axis=2).any(axis=1)
    return Subspace.from_generators(X[hit], p, S.ambient)


def dec_subgroup_bruteforce(S: Subspace, k: int, n: int,
                            max_work: int = DEFAULT_BRUTE_WORK) -> Subspace:
    """Independent oracle: decide {(x, [v]) : x in P(S), x in F_v = {omega ^ v}}.

    Per line it tests either all p^C(n-1, k-1) elements of F_v for
    membership in S, or all (p^dim S - 1)/(p - 1) points of P(S) for
    membership in F_v, whichever is fewer (the flag side on a tie).  Work
    is lines times that count, guarded by max_work before any array is
    built; neither side uses the identity im(^v) = ker(^v).
    """
    if k not in (2, 3):
        raise ValueError("dec_subgroup_bruteforce is defined for degrees 2 and 3")
    p = S.p
    if S.ambient != comb(n, k):
        raise SpecError(f"subspace ambient {S.ambient} != C({n},{k})")
    if S.dim == 0 or n == 0:
        return Subspace.zero(p, S.ambient)
    flags, points = p ** comb(n - 1, k - 1), (p ** S.dim - 1) // (p - 1)
    check_bound("brute force: membership tests",
                (p ** n - 1) // (p - 1) * min(flags, points), max_work)
    side = _points_in_flags if points < flags else _flags_in_subspace
    return side(S, k, n)


@dataclass(frozen=True)
class DegreeReport:
    """Dims and bases for one degree i in {2, 3}."""

    i: int
    ki: Subspace        # K^i in Lambda^i U*
    si: Subspace        # S^i = (K^i)^perp in Lambda^i U
    si_dec: Subspace    # decomposable part of S^i
    ki_max: Subspace    # (S^i_dec)^perp

    @property
    def obstruction_dim(self) -> int:
        return self.ki_max.dim - self.ki.dim


@dataclass(frozen=True)
class ObstructionReport:
    spec: GroupSpec
    validation: ValidationReport
    deg2: DegreeReport
    deg3: DegreeReport

    @property
    def b0_dim(self) -> int:
        return self.deg2.obstruction_dim

    @property
    def h3_dim(self) -> int:
        return self.deg3.obstruction_dim

    @property
    def brauer_trivial(self) -> bool:
        return self.b0_dim == 0

    @property
    def degree3_obstruction_nonzero(self) -> bool:
        return self.h3_dim > 0

    @property
    def hypotheses_ok(self) -> bool:
        """V = [G, G] and Z(G) = [G, G]: gamma surjective, radical trivial."""
        v = self.validation
        return v.gamma_rank == self.spec.m and v.radical_dim == 0

    def verdict_line(self) -> str:
        parts = [
            "unramified Brauer group trivial" if self.brauer_trivial
            else f"unramified Brauer group of dimension {self.b0_dim}",
            "degree-3 unramified obstruction nonzero" if self.h3_dim
            else "degree-3 unramified obstruction zero (this test)",
        ]
        if self.b0_dim or self.h3_dim:
            parts.append("invariant field NOT rational")
        line = "; ".join(parts)
        if not self.hypotheses_ok:
            line += " [hypotheses violated: computed anyway]"
        return line


def spaces(spec: GroupSpec, strict: bool = True) -> tuple[
        ValidationReport, tuple[Subspace, ...], tuple[Subspace, ...]]:
    """validate_spec's report, (K^2, K^3) and (S^2, S^3), with the guards."""
    p, n = spec.p, spec.n
    validation = validate_spec(spec, strict=strict)
    k2 = validation.k2             # image of gamma*: the row space of gamma
    full = k2.dim == comb(n, 2)    # S^2 = S^3 = 0: no line is swept
    if not full:
        check_bound("analyze: projective lines", (p ** n - 1) // (p - 1),
                    MAX_LINES)
    check_bound("analyze: K^3 generator cells", k2.dim * n * comb(n, 3),
                MAX_K3_CELLS)
    if full:                       # K^3 = Lambda^3 U*: no elimination
        c3 = comb(n, 3)
        k3, s2, s3 = (Subspace(p, c3, np.eye(c3, dtype=np.int64)),
                      Subspace.zero(p, comb(n, 2)), Subspace.zero(p, c3))
    else:
        k3, s2, s3 = compute_k3(spec, k2)
    return validation, (k2, k3), (s2, s3)


def analyze(spec: GroupSpec, strict: bool = True) -> ObstructionReport:
    """Run the full degree-2 and degree-3 pipeline: spaces, then the sweep."""
    validation, kis, sis = spaces(spec, strict)
    degrees = []
    for i, ki, si, si_dec in zip((2, 3), kis, sis, dec_subgroups(spec, *sis)):
        ki_max = ki if si_dec == si else si_dec.orthogonal()
        if not ki_max.contains_subspace(ki):
            raise InternalInconsistencyError(f"K^{i} not inside K^{i}_max")
        if not si.contains_subspace(si_dec):
            raise InternalInconsistencyError(f"S^{i}_dec not inside S^{i}")
        degrees.append(DegreeReport(i, ki, si, si_dec, ki_max))
    return ObstructionReport(spec, validation, *degrees)


# -- serialization -----------------------------------------------------------

def _subspace_json(S: Subspace, n: int, k: int, symbol: str) -> dict:
    return {
        "dim": S.dim,
        "basis": S.basis.tolist(),
        "text": render_basis(S.basis, n, k, S.p, symbol=symbol),
    }


def _degree_json(d: DegreeReport, n: int) -> dict:
    i = d.i
    return {
        f"k{i}": _subspace_json(d.ki, n, i, "u*"),
        f"s{i}": _subspace_json(d.si, n, i, "u"),
        f"s{i}_dec": _subspace_json(d.si_dec, n, i, "u"),
        f"k{i}_max": _subspace_json(d.ki_max, n, i, "u*"),
    }


def report_to_json_dict(rep: ObstructionReport) -> dict:
    spec = rep.spec
    out = {
        "spec": spec_to_json_dict(spec),
        "name": spec.name,
        "hypotheses_ok": rep.hypotheses_ok,
        "gamma_rank": rep.validation.gamma_rank,
        "radical_dim": rep.validation.radical_dim,
        "b0_dim": rep.b0_dim,
        "h3_dim": rep.h3_dim,
        "brauer_trivial": rep.brauer_trivial,
        "degree3_obstruction_nonzero": rep.degree3_obstruction_nonzero,
        "verdict": rep.verdict_line(),
    }
    out.update(_degree_json(rep.deg2, spec.n))
    out.update(_degree_json(rep.deg3, spec.n))
    return out


def report_text(rep: ObstructionReport) -> str:
    spec = rep.spec
    n = spec.n
    lines = [
        f"group: {spec.name or 'custom'}  p={spec.p}  dim U={spec.n}  "
        f"dim V={spec.m}  |G|=p^{spec.n + spec.m}",
        f"gamma rank {rep.validation.gamma_rank}, radical dim "
        f"{rep.validation.radical_dim}"
        + ("" if rep.hypotheses_ok else "  [hypotheses violated]"),
    ]
    for d in (rep.deg2, rep.deg3):
        i = d.i
        lines.append(f"-- degree {i} --")
        lines.append(f"dim K^{i} = {d.ki.dim}; dim S^{i} = {d.si.dim}; "
                     f"dim S^{i}_dec = {d.si_dec.dim}; "
                     f"dim K^{i}_max = {d.ki_max.dim}")
        for name, S in ((f"S^{i}", d.si), (f"S^{i}_dec", d.si_dec)):
            lines += [f"  {name} basis: {text}"
                      for text in render_basis(S.basis, n, i, spec.p)]
    lines.append(f"b0_dim = {rep.b0_dim}; h3_dim = {rep.h3_dim}")
    lines.append("verdict: " + rep.verdict_line())
    return "\n".join(lines)
