"""Explicit inhomogeneous cochains with values in the p-torsion of Q/Z.

A degree-d cochain on an enumerable group G is a dense table G^d -> Z/p,
where the numerator t stands for t/p in (1/p)Z/Z.  All the identities in
scope take values killed by p, so arithmetic is mod p throughout with
1/2 = (p+1)/2 and 1/4 = inverse of 4.  The action is trivial and

    (delta f)(g_1, ..., g_{d+1}) = f(g_2, ..., g_{d+1})
        + sum_{i=1..d} (-1)^i f(..., g_i g_{i+1}, ...)
        + (-1)^{d+1} f(g_1, ..., g_d).

Named cochains (ubar = image of g in U, vpart = g s(ubar(g))^{-1} in V):

    h_rho(g)              = rho(vpart(g))
    f_{rho,lam}(g1,g2,g3) = (1/2) rho(vpart(g1)) lam(ubar(g2) ^ ubar(g3))
    tau23[u,v,w,x]        = u(ubar g1) v(ubar g2) w(ubar g2) x(ubar g3)
    tau13[u,v,w,x]        = u(g1)v(g2)w(g2)x(g3) + u(g1)w(g1)v(g2)x(g3)
                            + w(g1)v(g2)u(g2)x(g3)
    mu[u,v,w,x]           = u(ubar g1) v(ubar g2) w(ubar g3) x(ubar g4),
                            built one g1-slice at a time

The middle term of tau13 carries a plus sign: that is the unique
(1,3)-symmetric multilinear choice whose coboundary satisfies
delta tau13[t] = mu[t + (13)t], the defining square identity (the
analogous delta tau23[t] = mu[t + (23)t] holds as printed).  With a minus
sign the square fails and the lifting is not even a cocycle shift; see
tests/test_cochains.py for the machine check.

Identity suite:

    dh:          delta h_rho = -(1/2) (rho o gamma)(ubar ^ ubar)
    df:          delta f_{rho,lam} = -(1/4) (rho o gamma)(g1^g2) lam(g3^g4)
    tau_squares: the two square identities above, all basis 4-tuples
    tau_agree:   tau13 - tau23 on the generators u x u x u x v of the
                 triply-symmetric part is a coboundary, decided for each
                 (u, v) by a checked certificate (below).  With a = u(g1),
                 b = u(g2) the difference is (1/2)(a b^2 + a^2 b) v(g3).  It
                 holds for p >= 5 and FAILS for p = 3, where it represents
                 the nonzero class beta(u) cup v in H^3(U, Z/p) (and stays
                 nonzero with Z/p^k values for any k: 6 is not invertible).
    ssquare_kernel: the degree-4 tensor generators span the kernel of
                 S^2(Lambda^2 U*) -> Lambda^4 U*.

The tau_agree certificates.  delta is dual to the bar boundary
d[g1|g2|g3] = [g2|g3] - [g1 g2|g3] + [g1|g2 g3] - [g1|g2] under the pairing
<f, [g1|g2|g3]> = f(g1, g2, g3), so <delta k, z> = <k, dz>.
  pass: for 6 invertible, k(g1, g2) = -(1/6) u(g1)^3 v(g2) has delta k =
    -(1/6)(b^3 - (a + b)^3 + a^3) v(g3) = diff, checked cell for cell.
  fail: a bar 3-cycle z with <diff, z> != 0; a coboundary would pair to
    <k, dz> = 0.  Pick x with u(x) = 1, and y with u(y) = 0, v(y) = 1, or
    y = x if v is a multiple of u.  z = sum_i ([x|x^i|y] - [x|y|x^i] +
    [y|x|x^i]) is the norm 2-cycle sum_i [x|x^i] shuffled with [y], and is
    sum_i [x|x^i|x] for y = x.  dz = 0 is checked from the four faces of
    each term; <diff, z> is (1/2) sum_i (i + i^2) times v(y), which is
    nonzero at p = 3 and zero for p >= 5.
  neither: an internal inconsistency, never a verdict.

A cochain is a plain array of residues in residue_dtype(p) with one axis
per argument (tau13 sums its three terms, within 3(p - 1), before it
reduces them).  Every identity is checked one g1-slice at a time:
coboundary_slice forms (delta F)(g1, .) for a table F of degree d <= 3 in
one |G|^d table of F's dtype, the slice of the right-hand side is
subtracted, and the slice is reduced once.  Its cells stay within 3(p - 1)
in absolute value before the subtraction and 4(p - 1) after it
(tau_squares subtracts two mu slices), which fits int8 for p <= 31 and
int16 for p <= 8192; every group table has p <= |G| <= 2^13.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb

import numpy as np

from .catalog import elementary
from .errors import InternalInconsistencyError, check_bound
from .exterior import form_matrices, mult_map_kernel, square_kernel_generators
from .groups import GroupSpec, GroupTables, build_tables
from .linalg import (Subspace, half_mod, projective_lines, reduce_mod,
                     signed_dtype)
from .results import VerificationResult

Array = np.ndarray

DEFAULT_GUARD_BYTES = 1 << 29


def u_projection(spec: GroupSpec) -> GroupSpec:
    """The abelianized carrier U as an m = 0 spec (one code path for taus)."""
    return elementary(spec.p, spec.n, (spec.name or "spec") + "-U")


def residue_dtype(p: int) -> type:
    """The narrowest signed dtype holding a slice cell, |cell| <= 4(p - 1)."""
    return signed_dtype(4 * (p - 1))


def coboundary_slice(F: Array, mul: Array, g1: int, out: Array) -> Array:
    """(delta F)(g1, .) for a residue table F of degree 1 to 3, with trivial
    action, unreduced, written to out: a table of F's shape and dtype."""
    s = np.subtract(F, F[mul[g1]], out=out)   # f(g2, ...) - f(g1 g2, ...)
    for i in range(2, F.ndim + 2):      # f(g1, .., g_i g_i+1, ..), f(g1, .., g_d)
        op = np.add if i % 2 == 0 else np.subtract
        op(s, np.take(F[g1], mul, axis=i - 2) if i <= F.ndim else F[g1, ..., None],
           out=s)
    return s


def _outer_mod(a: Array, B: Array, p: int) -> Array:
    """(a (x) B) mod p in residue_dtype(p), gathered from the p rows c*B mod
    p, so that no full-size int64 table is built; a holds residues."""
    return reduce_mod(np.multiply.outer(np.arange(p), B), p).astype(residue_dtype(p))[a]


# -- named cochains -----------------------------------------------------------

def h_rho(t: GroupTables, rho) -> Array:
    """h(g) = rho(vpart(g)); equals rho(g s(ubar g)^{-1}) for s(u) = (u, 0)."""
    return t.v_eval(rho).astype(residue_dtype(t.spec.p))


def f_rho_lambda(t: GroupTables, rho, lam) -> Array:
    """f(g1,g2,g3) = (1/2) rho(vpart g1) lam(ubar g2 ^ ubar g3)."""
    p = t.spec.p
    L = t.biform(form_matrices(lam, t.spec.n))
    return _outer_mod(half_mod(p) * t.v_eval(rho) % p, L, p)


def tau23(t: GroupTables, u, v, w, x) -> Array:
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    return _outer_mod(U, np.multiply.outer(V * W, X), t.spec.p)


def tau13(t: GroupTables, u, v, w, x) -> Array:
    p = t.spec.p
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    vals = _outer_mod(U, np.multiply.outer(V * W, X), p)
    vals += _outer_mod(U * W % p, np.multiply.outer(V, X), p)
    vals += _outer_mod(W, np.multiply.outer(V * U, X), p)
    return reduce_mod(vals, p)


def mu_slices(t: GroupTables, u, v, w, x):
    """g1 -> mu[u,v,w,x](g1, .) = u(g1) v(g2) w(g3) x(g4), a |U|^3 table in
    residue_dtype(p) gathered from the p rows c w (x) x."""
    p = t.spec.p
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    rows = _outer_mod(np.arange(p), np.multiply.outer(W, X), p)
    return lambda g1: rows[U[g1] * V % p]


# -- verification -------------------------------------------------------------

def render_element(t: GroupTables, g: int) -> str:
    u = ",".join(str(int(x)) for x in t.udigits[g])
    v = ",".join(str(int(x)) for x in t.vdigits[g])
    return f"(u=({u});v=({v}))"


def _where(t: GroupTables, diff: Array, *lead: int) -> str:
    """The lead elements, then the first nonzero cell of diff, rendered."""
    at = np.unravel_index(int(np.flatnonzero(diff)[0]), diff.shape)
    return "(" + ", ".join(render_element(t, int(g)) for g in (*lead, *at)) + ")"


def _check(name: str, t: GroupTables, cases) -> VerificationResult:
    """delta F = R for each (label, F, rhs) of cases, one g1-slice at a
    time, rhs(g1) being the slice of R.  checked counts the cells compared;
    the first nonzero cell stops the check and is rendered after label."""
    checked = 0
    for label, F, rhs in cases:
        s = np.empty_like(F)            # reused by every slice
        for g1 in range(len(F)):
            coboundary_slice(F, t.mul, g1, s)
            s -= rhs(g1)
            checked += s.size
            if reduce_mod(s, t.spec.p).any():
                return VerificationResult(name, False, checked, counterexample=(
                    label + _where(t, s, g1)))
        del F, s                        # before cases builds the next F
    return VerificationResult(name, True, checked)


def verify_dh(spec: GroupSpec) -> VerificationResult:
    """delta h_rho(g1,g2) = -(1/2)(rho o gamma)(ubar g1 ^ ubar g2), all rho."""
    if spec.m == 0:
        return VerificationResult("dh", True, 0, note="skipped: requires m >= 1",
                                  skipped=True)
    t = build_tables(spec)
    p = spec.p

    def cases():
        for rindex, rho in enumerate(np.eye(spec.m, dtype=np.int64)):
            form = -half_mod(p) * form_matrices(rho @ spec.gamma, spec.n) % p
            W = form @ t.udigits.T % p
            yield (f"rho=e{rindex + 1}*, ", h_rho(t, rho),
                   lambda g1: t.udigits[g1] @ W % p)
    return _check("dh", t, cases())


def verify_df(spec: GroupSpec) -> VerificationResult:
    """delta f = -(1/4) (rho o gamma)(g1^g2) lam(g3^g4) over all 4-tuples;
    the right-hand side's slice at g1 is a row gather from the p x |G|^2
    table cL[c] = -(c/4) lam."""
    if spec.m == 0:
        return VerificationResult("df", True, 0, note="skipped: requires m >= 1",
                                  skipped=True)
    t = build_tables(spec)
    p = spec.p

    def cases():
        for rindex, rho in enumerate(np.eye(spec.m, dtype=np.int64)):
            G = t.biform(form_matrices(rho @ spec.gamma, spec.n))
            for lindex, lam in enumerate(np.eye(comb(spec.n, 2), dtype=np.int64)):
                L = t.biform(form_matrices(lam, spec.n))
                cL = _outer_mod(np.arange(p), -pow(4, -1, p) * L % p, p)
                yield (f"rho=e{rindex + 1}*, lam=basis{lindex}, ",
                       f_rho_lambda(t, rho, lam), lambda g1: cL[G[g1]])
    return _check("df", t, cases())


def verify_tau_squares(spec: GroupSpec) -> VerificationResult:
    """delta tau23[t] = mu[t + (23)t] and delta tau13[t] = mu[t + (13)t]."""
    t = build_tables(u_projection(spec))
    basis = [tuple(e) for e in np.eye(spec.n, dtype=np.int64).tolist()]

    def cases():
        for a, b, c, d in itertools.product(basis, repeat=4):
            base = mu_slices(t, a, b, c, d)
            for name, tau, swapped in (("tau23", tau23, (a, c, b, d)),
                                       ("tau13", tau13, (c, b, a, d))):
                other = mu_slices(t, *swapped)
                yield (f"{name} square at (u,v,w,x)={(a, b, c, d)}, ",
                       tau(t, a, b, c, d), lambda g1: base(g1) + other(g1))
    return _check("tau_squares", t, cases())


def _bar_cycle(t: GroupTables, u, v) -> list[tuple[int, int, int, int]]:
    """Terms (coefficient, g1, g2, g3) of the module docstring's bar
    3-cycle z for (u, v)."""
    a, b = t.u_eval(u), t.u_eval(v)
    x = int(np.flatnonzero(a == 1)[0])
    ys = np.flatnonzero((a == 0) & (b == 1))
    y = int(ys[0]) if ys.size else x
    xs = [0]
    while len(xs) < t.spec.p:
        xs.append(int(t.mul[xs[-1], x]))
    return [z for xi in xs
            for z in ((1, x, xi, y), (-1, x, y, xi), (1, y, x, xi))]


def tau_agree_certified(t: GroupTables, u, v) -> bool:
    """Is (1/2)(tau13 - tau23) on u x u x u x v a coboundary?  True by the
    witness k, False by the bar cycle z (module docstring), each checked;
    a pair that neither certifies raises."""
    p = t.spec.p
    diff = tau13(t, u, u, u, v)
    diff -= tau23(t, u, u, u, v)
    diff = _outer_mod(reduce_mod(diff, p), half_mod(p), p)
    if p > 3:
        k = np.multiply.outer(-pow(6, -1, p) * t.u_eval(u) ** 3 % p,
                              t.u_eval(v)) % p
        if _check("tau_agree", t, [("", k.astype(residue_dtype(p)),
                                    diff.__getitem__)]).passed:
            return True
    faces, pairing = Counter(), 0
    for c, g1, g2, g3 in _bar_cycle(t, u, v):
        faces[g2, g3] += c
        faces[int(t.mul[g1, g2]), g3] -= c
        faces[g1, int(t.mul[g2, g3])] += c
        faces[g1, g2] -= c
        pairing += c * int(diff[g1, g2, g3])
    if pairing % p and not any(f % p for f in faces.values()):
        return False
    raise InternalInconsistencyError(
        f"tau_agree at u={tuple(map(int, u))}, v={tuple(map(int, v))}: "
        "neither the coboundary witness nor the bar 3-cycle certifies")


def verify_tau_agree(spec: GroupSpec) -> VerificationResult:
    """tau13 - tau23 on the generators u x u x u x v must be a coboundary.

    True for p >= 5, false for p = 3 (see module docstring); each verdict
    is a checked certificate.
    """
    t = build_tables(u_projection(spec))
    checked = 0
    for u in projective_lines(spec.p, spec.n):
        for v in np.eye(spec.n, dtype=np.int64):
            checked += 1
            if not tau_agree_certified(t, u, v):
                uu = ",".join(map(str, u))
                vv = ",".join(map(str, v))
                return VerificationResult(
                    "tau_agree", False, checked,
                    counterexample=f"u=({uu}), v=({vv}): "
                                   "difference class is nonzero in H^3")
    return VerificationResult("tau_agree", True, checked)


def verify_ssquare_kernel(spec: GroupSpec) -> VerificationResult:
    """Generator span equals ker(S^2(Lambda^2 U*) -> Lambda^4 U*)."""
    n, p = spec.n, spec.p
    ker = mult_map_kernel(n, p)
    gens = square_kernel_generators(n, p)
    span = Subspace.from_generators(gens, p, ker.ambient)
    ok = span == ker
    return VerificationResult(
        "ssquare_kernel", ok, len(gens),
        counterexample=None if ok else
        f"span dim {span.dim} != kernel dim {ker.dim}")


# name -> (bytes the identity allocates at its peak, verifier), with the
# group tables built, plus _SMALL_BYTES for Python objects; residue tables
# take at most 2 bytes a cell.  A check holds F, its slice and one more table
# of the slice's shape at a time: a gathered term, the rhs or the quotient.
#   dh: degree-1 slices, the n x |G| form and int64 rows ((8n + 24) bytes
#     an element).
#   df: three |G|^3 tables (6 bytes a cell), plus cL and two int64
#     biforms ((2p + 16) bytes a cell of |G|^2).
#   tau_squares, on U: tau, the slice, two mu slices and their sum (10 bytes
#     a cell of |U|^3), plus the rows the mu slices gather from and the int64
#     ones they are built from ((16p + 8) bytes a cell of |U|^2).
#   tau_agree, on U: tau13, tau23, their difference and its quotient (8),
#     plus the rows the taus gather from and the witness k ((16p + 18)).
#   ssquare_kernel: the two einsum terms of the int64 n^4 x C(n, 2)^2
#     product tensor, then the generator rows, and einsum's 192 KiB of
#     iteration buffers, which outweigh both terms at n = 4 (32 bytes a
#     cell of the tensor); below tau_squares' figure at every (p, n).
_SMALL_BYTES = 1 << 16
IDENTITIES = {
    "dh": (lambda spec: (8 * spec.n + 24) * spec.order + _SMALL_BYTES
           if spec.m else 0, verify_dh),
    "df": (lambda spec: 6 * spec.order ** 3 + (2 * spec.p + 16) * spec.order ** 2
           + _SMALL_BYTES if spec.m else 0, verify_df),
    "tau_squares": (lambda spec: 10 * spec.p ** (3 * spec.n) + (16 * spec.p + 8)
                    * spec.p ** (2 * spec.n) + _SMALL_BYTES, verify_tau_squares),
    "tau_agree": (lambda spec: 8 * spec.p ** (3 * spec.n) + (16 * spec.p + 18)
                  * spec.p ** (2 * spec.n) + _SMALL_BYTES, verify_tau_agree),
    "ssquare_kernel": (lambda spec: 32 * spec.n ** 4 * comb(spec.n, 2) ** 2
                       + _SMALL_BYTES, verify_ssquare_kernel),
}


def check_identity_guard(spec: GroupSpec, which: str, guard_bytes: int) -> None:
    """Refuse, before any table is built, an identity whose largest dense
    table would exceed guard_bytes; no check is made once the work starts."""
    if which not in IDENTITIES:
        raise ValueError(f"unknown identity {which!r}")
    check_bound(f"identity {which}: table bytes", IDENTITIES[which][0](spec),
                guard_bytes)


def verify_identity(spec: GroupSpec, which: str,
                    guard_bytes: int = DEFAULT_GUARD_BYTES) -> VerificationResult:
    check_identity_guard(spec, which, guard_bytes)
    return IDENTITIES[which][1](spec)
