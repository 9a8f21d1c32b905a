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
    mu[u,v,w,x]           = u(ubar g1) v(ubar g2) w(ubar g3) x(ubar g4)

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
                 triply-symmetric part is a coboundary.  This is decided by
                 an exact linear solve against im(delta: C^2 -> C^3).  It
                 holds for p >= 5 (witness k(a) = -a^3/6) and FAILS for
                 p = 3, where the difference (1/2)(a b^2 + a^2 b) v(g3),
                 a = u(g1), b = u(g2), represents the nonzero class
                 beta(u) cup v in H^3(U, Z/p) (and stays nonzero with
                 Z/p^k values for any k: 6 is not invertible).
    ssquare_kernel: the degree-4 tensor generators span the kernel of
                 S^2(Lambda^2 U*) -> Lambda^4 U*.

Tables are int16.  df is checked over every 4-tuple one g1-slice at a
time, in place in one int16 |G|^3 table whose cells stay within 3(p - 1)
in absolute value, which fits for p <= 10923.  No larger p reaches it: df
needs m >= 1 and n >= 2, so |G| >= p^3, and group tables stop at 2^13.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DimensionMismatchError, GuardExceededError
from .exterior import mult_map_kernel, square_kernel_generators
from .groups import GroupSpec, GroupTables, antisym_matrix, build_tables
from .linalg import (_UPDATE_CELLS, Subspace, half_mod, inv_mod,
                     projective_lines, reduce_mod)
from .results import VerificationResult

Array = np.ndarray

DEFAULT_GUARD_BYTES = 1 << 29


@lru_cache(maxsize=32)
def tables_for(spec: GroupSpec) -> GroupTables:
    return build_tables(spec)


@lru_cache(maxsize=32)
def u_projection(spec: GroupSpec) -> GroupSpec:
    """The abelianized carrier U as an m = 0 spec (one code path for taus)."""
    if spec.m == 0:
        return spec
    return GroupSpec(spec.p, spec.n, 0,
                     np.zeros((0, comb(spec.n, 2)), dtype=np.int64),
                     name=(spec.name or "spec") + "-U")


@dataclass(frozen=True)
class Cochain:
    """Dense table G^degree -> (1/p)Z/Z, the value stored as a numerator."""

    spec: GroupSpec
    degree: int
    values: Array = field(compare=False)  # shape (N,) * degree

    def __post_init__(self):
        N = self.spec.order
        v = np.asarray(self.values)     # reduced before it is narrowed
        v = reduce_mod(v.astype(np.promote_types(v.dtype, np.int16)),
                       self.spec.p).astype(np.int16, copy=False)
        if v.shape != (N,) * self.degree:
            raise DimensionMismatchError(
                f"table shape {v.shape} for degree {self.degree}, |G| = {N}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.spec == other.spec
                and self.degree == other.degree
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self) -> int:
        return hash((self.spec, self.degree, self.values.tobytes()))

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.spec, self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.spec, self.degree, self.values - other.values)

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.spec, self.degree,
                       (c % self.spec.p) * self.values.astype(np.int64))

    def is_zero(self) -> bool:
        return not self.values.any()

    def __call__(self, *gs: int) -> int:
        return int(self.values[tuple(gs)])


def coboundary(f: Cochain) -> Cochain:
    """The standard inhomogeneous coboundary with trivial action."""
    spec = f.spec
    N = spec.order
    d = f.degree
    if d == 0:
        return Cochain(spec, 1, np.zeros(N, dtype=np.int16))
    mul = tables_for(spec).mul
    F = f.values
    out = np.broadcast_to(F, (N,) * (d + 1)).astype(np.int16)
    for i in range(1, d + 2):
        t = np.take(F, mul, axis=i - 1) if i <= d else F[..., None]
        (np.add if i % 2 == 0 else np.subtract)(out, t, out=out)
    return Cochain(spec, d + 1, out)      # reduced, in int16, by Cochain


def _outer_mod(a: Array, B: Array, p: int) -> Array:
    """(a (x) B) mod p in int16, gathered from the p rows c*B mod p, so that
    no full-size int64 table is built; a holds residues."""
    return reduce_mod(np.multiply.outer(np.arange(p), B), p).astype(np.int16)[a]


# -- named cochains -----------------------------------------------------------

def h_rho(spec: GroupSpec, rho) -> Cochain:
    """h(g) = rho(vpart(g)); equals rho(g s(ubar g)^{-1}) for s(u) = (u, 0)."""
    t = tables_for(spec)
    return Cochain(spec, 1, t.v_eval(rho))


def f_rho_lambda(spec: GroupSpec, rho, lam) -> Cochain:
    """f(g1,g2,g3) = (1/2) rho(vpart g1) lam(ubar g2 ^ ubar g3)."""
    t = tables_for(spec)
    rv = t.v_eval(rho)
    L = t.biform(antisym_matrix(spec.p, spec.n, lam))
    return Cochain(spec, 3, _outer_mod(half_mod(spec.p) * rv % spec.p, L, spec.p))


def tau23(spec: GroupSpec, u, v, w, x) -> Cochain:
    t = tables_for(spec)
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    return Cochain(spec, 3, _outer_mod(U, np.multiply.outer(V * W, X), spec.p))


def tau13(spec: GroupSpec, u, v, w, x) -> Cochain:
    t = tables_for(spec)
    p = spec.p
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    vals = (_outer_mod(U, np.multiply.outer(V * W, X), p)
            + _outer_mod(U * W % p, np.multiply.outer(V, X), p)
            + _outer_mod(W, np.multiply.outer(V * U, X), p))
    return Cochain(spec, 3, vals)


def mu(spec: GroupSpec, u, v, w, x) -> Cochain:
    t = tables_for(spec)
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    UV = np.multiply.outer(U, V) % spec.p
    return Cochain(spec, 4, _outer_mod(UV, np.multiply.outer(W, X), spec.p))


# -- verification -------------------------------------------------------------

def render_element(t: GroupTables, g: int) -> str:
    u = ",".join(str(int(x)) for x in t.udigits[g])
    v = ",".join(str(int(x)) for x in t.vdigits[g])
    return f"(u=({u});v=({v}))"


def _where(t: GroupTables, diff: Array, *lead: int) -> str:
    """The lead elements, then the first nonzero cell of diff, rendered."""
    at = np.unravel_index(int(np.flatnonzero(diff)[0]), diff.shape)
    return "(" + ", ".join(render_element(t, int(g)) for g in (*lead, *at)) + ")"


def verify_dh(spec: GroupSpec) -> VerificationResult:
    """delta h_rho(g1,g2) = -(1/2)(rho o gamma)(ubar g1 ^ ubar g2), all rho."""
    if spec.m == 0:
        return VerificationResult("dh", True, 0, note="skipped: requires m >= 1",
                                  skipped=True)
    t = tables_for(spec)
    p = spec.p
    checked = 0
    for rindex, rho in enumerate(np.eye(spec.m, dtype=np.int64)):
        dh = coboundary(h_rho(spec, rho)).values
        form = antisym_matrix(p, spec.n, (rho @ spec.gamma) % p)
        rhs = (-half_mod(p) * t.biform(form)) % p
        checked += dh.size
        if not np.array_equal(dh, rhs):
            return VerificationResult("dh", False, checked, counterexample=(
                f"rho=e{rindex + 1}*, {_where(t, (dh - rhs) % p)}"))
    return VerificationResult("dh", True, checked)


def verify_df(spec: GroupSpec) -> VerificationResult:
    """delta f = -(1/4) (rho o gamma)(g1^g2) lam(g3^g4) over all 4-tuples.

    Evaluated slice by slice in g1, in place in one int16 |G|^3 table s:
    the five terms of delta f minus the right-hand side, a row gather from
    the p x |G|^2 table cL[c] = -(c/4) lam, stay within 3(p - 1) in absolute
    value, and s is reduced once.  That fits int16 for p <= 10923, which
    always holds here: p^3 <= |G| <= 2^13 (see the module docstring).
    """
    if spec.m == 0:
        return VerificationResult("df", True, 0, note="skipped: requires m >= 1",
                                  skipped=True)
    t = tables_for(spec)
    p = spec.p
    mul = t.mul
    checked = 0
    for rindex, rho in enumerate(np.eye(spec.m, dtype=np.int64)):
        G = t.biform(antisym_matrix(p, spec.n, (rho @ spec.gamma) % p))
        for lindex, lam in enumerate(np.eye(comb(spec.n, 2), dtype=np.int64)):
            F = f_rho_lambda(spec, rho, lam).values
            L = t.biform(antisym_matrix(p, spec.n, lam))
            cL = _outer_mod(np.arange(p), -inv_mod(4, p) * L % p, p)
            for g1, F1 in enumerate(F):
                s = F[mul[g1]]                  # f(g1 g2, g3, g4)
                np.subtract(F, s, out=s)
                s += F1[mul]
                s -= F1[:, mul]
                s += F1[:, :, None]
                s -= cL[G[g1]]
                checked += s.size
                if reduce_mod(s, p).any():
                    return VerificationResult("df", False, checked, counterexample=(
                        f"rho=e{rindex + 1}*, lam=basis{lindex}, "
                        f"{_where(t, s, g1)}"))
    return VerificationResult("df", True, checked)


def verify_tau_squares(spec: GroupSpec) -> VerificationResult:
    """delta tau23[t] = mu[t + (23)t] and delta tau13[t] = mu[t + (13)t]."""
    us = u_projection(spec)
    t = tables_for(us)
    basis = [tuple(e) for e in np.eye(us.n, dtype=np.int64)]
    checked = 0
    for a, b, c, d in itertools.product(basis, repeat=4):
        base = mu(us, a, b, c, d)
        for name, tau, swapped in (("tau23", tau23, (a, c, b, d)),
                                   ("tau13", tau13, (c, b, a, d))):
            lhs = coboundary(tau(us, a, b, c, d)).values
            rhs = (base + mu(us, *swapped)).values
            checked += lhs.size
            if not np.array_equal(lhs, rhs):
                return VerificationResult(
                    "tau_squares", False, checked, counterexample=(
                        f"{name} square at (u,v,w,x)={(a, b, c, d)}, "
                        f"{_where(t, (lhs - rhs) % us.p)}"))
    return VerificationResult("tau_squares", True, checked)


@lru_cache(maxsize=8)
def _coboundary_image(spec: GroupSpec) -> Subspace:
    """im(delta: C^2(U) -> C^3(U)) as a canonical subspace of F_p^(N^3)."""
    N = spec.order
    cols = [coboundary(Cochain(spec, 2, E)).values.reshape(-1)
            for E in np.eye(N * N, dtype=np.int16).reshape(-1, N, N)]
    return Subspace.from_generators(cols, spec.p, N ** 3)


def verify_tau_agree(spec: GroupSpec) -> VerificationResult:
    """tau13 - tau23 on the generators u x u x u x v must be a coboundary.

    True for p >= 5, false for p = 3 (see module docstring); the verifier
    reports whatever the exact linear algebra says.
    """
    us = u_projection(spec)
    p, n = us.p, us.n
    image = _coboundary_image(us)
    checked = 0
    for u in projective_lines(p, n):
        for v in np.eye(n, dtype=np.int64):
            diff = (tau13(us, u, u, u, v) - tau23(us, u, u, u, v)).scale(half_mod(p))
            checked += 1
            if not image.contains(diff.values):
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


# name -> (bytes the identity allocates at its peak, verifier): its dense
# tables alive at once, plus _SMALL_BYTES for Python objects and tables of
# at most p|G|^2 cells.  dh: int16 delta h and two int64 right-hand sides
# on G^2 (18 bytes a cell); df: four int16 |G|^3 tables, f, the slice, a
# gathered term and the slice's quotient (8); on U, tau_squares: seven int16
# degree-4 tables, mu, the last right side, this square's two sides, the
# second mu, the sum's copy and quotient (14); tau_agree: the |U|^2 x |U|^3
# image as int16 columns, an int64 copy and rref_stack's own copy (18), plus
# a pivot's update, at most five int64 blocks and five rows of |U|^3 cells.
_SMALL_BYTES = 1 << 16
IDENTITIES = {
    "dh": (lambda spec: 18 * spec.order ** 2 + _SMALL_BYTES if spec.m else 0,
           verify_dh),
    "df": (lambda spec: 8 * spec.order ** 3 + _SMALL_BYTES if spec.m else 0,
           verify_df),
    "tau_squares": (lambda spec: 14 * spec.p ** (4 * spec.n) + _SMALL_BYTES,
                    verify_tau_squares),
    "tau_agree": (lambda spec: 18 * spec.p ** (5 * spec.n)
                  + 40 * (_UPDATE_CELLS + spec.p ** (3 * spec.n)),
                  verify_tau_agree),
    "ssquare_kernel": (lambda spec: 0, verify_ssquare_kernel),
}


def check_identity_guard(spec: GroupSpec, which: str, guard_bytes: int) -> None:
    """Refuse, before any table is built, an identity whose largest dense
    table would exceed guard_bytes; no check is made once the work starts."""
    if which not in IDENTITIES:
        raise ValueError(f"unknown identity {which!r}")
    need = IDENTITIES[which][0](spec)
    if need > guard_bytes:
        raise GuardExceededError(
            f"identity {which} needs {need} bytes > guard {guard_bytes}",
            required=need)


def verify_identity(spec: GroupSpec, which: str,
                    guard_bytes: int = DEFAULT_GUARD_BYTES) -> VerificationResult:
    check_identity_guard(spec, which, guard_bytes)
    return IDENTITIES[which][1](spec)
