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

All complements use the identity pairing of the dual wedge bases.  The
decomposable accumulation iterates over projective lines [v] only: for a
fixed v the elements of S with factor v form the linear space
S  intersect  ker(^ v), and every partially decomposable element has some
factor line, so the union of those intersections spans S_dec.

dec_subgroup sweeps the lines in batches: it stacks the matrices of
x -> x ^ v_l on the basis of S for a batch of lines v_l, takes all their
left kernels in one stacked elimination (linalg.kernel_stack), and folds
them into one span in S-basis coordinates.  It stops after the first
batch at which that span is all of S, and otherwise visits every line.
dec_subgroup_bruteforce is the independent oracle: it tests exhaustively,
without ker(^ v), which points of P(S) lie in which flag space
F_v = {omega ^ v}, from whichever side of that incidence is smaller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import GuardExceededError, InternalInconsistencyError, SpecError
from .exterior import render_multivector, wedge_basis_tensor
from .groups import GroupSpec, ValidationReport, spec_to_json_dict, \
    validate_spec
from .linalg import Subspace, kernel_stack, projective_lines, rref_mod, \
    rref_stack

Array = np.ndarray

DEFAULT_BRUTE_WORK = 10 ** 8
# Batches of lines in dec_subgroup: the first is small, as early exits come
# after a few dozen lines; later ones double until a batch's stacked
# matrices would hold more than _BATCH_CELLS entries (a memory bound).
_FIRST_BATCH = 32
_BATCH_CELLS = 1 << 16


def compute_k2(spec: GroupSpec) -> Subspace:
    """Image of gamma*: row space of gamma, read in Lambda^2 U* coordinates."""
    return Subspace.from_generators(spec.gamma, spec.p, comb(spec.n, 2))


def compute_k3(spec: GroupSpec, k2: Subspace) -> Subspace:
    """K^2 ^ U* = span{kappa ^ e_j* : kappa in basis(K^2), 1 <= j <= n}."""
    p, n = spec.p, spec.n
    gens = np.einsum("rs,jst->rjt", k2.basis, wedge_basis_tensor(n, 2))
    return Subspace.from_generators(
        gens.reshape(k2.dim * n, comb(n, 3)) % p, p, comb(n, 3))


def dec_subgroup(S: Subspace, k: int, n: int) -> Subspace:
    """Span of the partially decomposable elements of S (degree-k side).

    Per line [v]: {x in S : x ^ v = 0} = S intersect {omega ^ v}, using the
    contraction homotopy identity im(^v) = ker(^v).  Lines are swept in
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
        K = kernel_stack(C, p).reshape(-1, S.dim)
        acc, _ = rref_mod(np.vstack([acc, K[K.any(axis=1)]]), p)
        if acc.shape[0] == S.dim:
            return S
        size = min(2 * size, cap)
    return Subspace(p, S.ambient, acc @ S.basis % p)


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
    acc = np.zeros((0, S.ambient), dtype=np.int64)
    for R, _ in _flag_bases(p, n, k, len(grid)):
        X = (grid @ R).reshape(-1, S.ambient) % p
        hits = X[S.contains(X)]
        acc, _ = rref_mod(np.vstack([acc, hits]), p)
    return Subspace(p, S.ambient, acc)


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
    work = (p ** n - 1) // (p - 1) * min(flags, points)
    if work > max_work:
        raise GuardExceededError(
            f"brute-force work {work} exceeds bound {max_work}", required=work)
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


def analyze(spec: GroupSpec, strict: bool = True) -> ObstructionReport:
    """Run the full degree-2 and degree-3 pipeline."""
    validation = validate_spec(spec, strict=strict)
    degrees = []
    for i in (2, 3):
        ki = compute_k2(spec) if i == 2 else compute_k3(spec, degrees[0].ki)
        si = ki.orthogonal()
        si_dec = dec_subgroup(si, i, spec.n)
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
        "basis": [[int(x) for x in row] for row in S.basis],
        "text": [render_multivector(row, n, k, S.p, symbol=symbol)
                 for row in S.basis],
    }


def _degree_json(d: DegreeReport, n: int) -> dict:
    i = d.i
    return {
        f"k{i}": _subspace_json(d.ki, n, i, "u*"),
        f"s{i}": _subspace_json(d.si, n, i, "u"),
        f"s{i}_dec": _subspace_json(d.si_dec, n, i, "u"),
        f"k{i}_max": _subspace_json(d.ki_max, n, i, "u*"),
    }


def report_to_json_dict(rep: ObstructionReport, seed: int | None = None) -> dict:
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
    if seed is not None:
        out["seed"] = seed
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
        for row in d.si.basis:
            lines.append(f"  S^{i} basis: "
                         + render_multivector(row, n, i, spec.p))
        for row in d.si_dec.basis:
            lines.append(f"  S^{i}_dec basis: "
                         + render_multivector(row, n, i, spec.p))
    lines.append(f"b0_dim = {rep.b0_dim}; h3_dim = {rep.h3_dim}")
    lines.append("verdict: " + rep.verdict_line())
    return "\n".join(lines)
