"""Cochain tables, the coboundary slices, and the identity suite.

The tau13/tau23 agreement deserves a note: the two lifted maps agree up to
coboundary exactly when p >= 5 (an explicit primitive k(a) = -a^3/6 exists
because 6 is a unit).  For p = 3 the difference on u x u x u x v is the
cocycle (1/2)(a b^2 + a^2 b) v(g3), a = u(g1), b = u(g2), whose class is
beta(u) cup v != 0 in H^3; no choice of coefficients Z/3^k rescues it.  The
tests below pin this asymmetry; the acceptance suite records the p = 3 case
as an expected failure of its stated criterion.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from unramified import cochains
from unramified.catalog import BUILTINS, builtin, elementary
from unramified.cli import main
from unramified.cochains import (
    DEFAULT_GUARD_BYTES,
    IDENTITIES,
    coboundary_slice,
    f_rho_lambda,
    h_rho,
    mu_slices,
    residue_dtype,
    tau13,
    tau23,
    u_projection,
    verify_identity,
)
from unramified.errors import GuardExceededError, InternalInconsistencyError
from unramified.groups import GroupSpec, build_tables, spec_from_json_dict
from unramified.linalg import half_mod, projective_lines

from conftest import coboundary, coboundary_by_slices, coboundary_image, \
    rank_mod


@pytest.mark.parametrize("name,degree,seed", [
    ("heisenberg3", 1, 0), ("heisenberg3", 2, 1),
    ("elem9", 1, 2), ("elem9", 2, 3), ("elem27", 2, 4),
])
def test_coboundary_squares_to_zero_seed(name, degree, seed):
    spec = builtin(name)
    N = spec.order
    rng = np.random.default_rng(seed)
    f = rng.integers(0, spec.p, size=(N,) * degree, dtype=np.int16)
    assert not coboundary(spec, coboundary(spec, f)).any()


def test_coboundary_of_constant_is_zero():
    spec = builtin("heisenberg3")
    assert not coboundary(spec, np.array(2, dtype=np.int16)).any()


# (p, n) of the elementary groups only ssquare_kernel's guard test runs on
_SSQUARE_ONLY = {"elem81": (3, 4), "elem3125": (5, 5)}


def _group(name):
    """A builtin, order81: nonabelian of order 3^4 with three lam's, or one
    of _SSQUARE_ONLY."""
    if name == "order81":
        return GroupSpec(3, 3, 1, np.array([[1, 0, 1]]), name=name)
    if name in _SSQUARE_ONLY:
        return elementary(*_SSQUARE_ONLY[name], name)
    return builtin(name)


@pytest.mark.parametrize("name", [
    "elem3", "elem9", "heisenberg3", "heisenberg5", "order81"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_coboundary_slices_match_the_reference(name, degree):
    """The stacked slices of coboundary_slice equal the full-table
    reference, and below degree 3 delta delta = 0 through the slices: on
    every g1 or, past 2^22 cells, on four random ones."""
    spec = _group(name)
    p, N = spec.p, spec.order
    rng = np.random.default_rng(degree)
    F = rng.integers(0, p, size=(N,) * degree, dtype=np.int16)

    def some(cells):
        return (np.arange(N) if cells <= 1 << 22
                else np.sort(rng.choice(N, 4, replace=False)))

    rows = some(N ** (degree + 1))
    stacked = coboundary_by_slices(spec, F, rows)
    assert np.array_equal(stacked, coboundary(spec, F, rows))
    if degree < 3:                          # here rows is all of G
        assert not coboundary_by_slices(spec, stacked,
                                        some(N ** (degree + 2))).any()


@pytest.mark.parametrize("p", [31, 37])
def test_slice_cells_at_the_bound_fit_the_residue_dtype(p):
    """p = 31 is the last prime of int8 residues and 37 the first of int16:
    a planted slice cell at -4(p - 1) and one at 3(p - 1), minus the
    right-hand side, come out of coboundary_slice as the int64 sum does."""
    t = build_tables(elementary(p, 1, "cyclic"))
    mul, g1, top = t.mul, 1, p - 1
    F = np.zeros((p,) * 3, dtype=residue_dtype(p))
    rhs = np.zeros_like(F)
    for (g2, g3, g4), sign in (((2, 3, 4), -1), ((5, 6, 7), 1)):
        plus = [(g2, g3, g4), (g1, mul[g2, g3], g4), (g1, g2, g3)]
        minus = [(mul[g1, g2], g3, g4), (g1, g2, mul[g3, g4])]
        for cell in plus if sign > 0 else minus:
            F[cell] = top
        if sign < 0:
            rhs[g2, g3, g4] = 2 * top       # two mu slices at their largest
    F64 = F.astype(np.int64)
    want = (F64 - F64[mul[g1]] + F64[g1][mul] - F64[g1][:, mul]
            + F64[g1][..., None] - rhs)
    assert (want.min(), want.max()) == (-4 * top, 3 * top)
    got = coboundary_slice(F, mul, g1, np.empty_like(F))
    got -= rhs
    assert got.dtype == F.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name,which,guard", [
    ("heisenberg3", "dh", 1000), ("heisenberg3", "df", 10 ** 5),
    ("elem9", "tau_squares", 10 ** 4), ("elem9", "tau_agree", 20000),
])
def test_identity_guard_refuses_before_any_table(monkeypatch, name, which,
                                                 guard):
    def no_tables(*args):
        raise AssertionError("a group table was built before the guard refused")

    monkeypatch.setattr(cochains, "build_tables", no_tables)
    with pytest.raises(GuardExceededError):
        verify_identity(builtin(name), which, guard_bytes=guard)


def _index(t, u, v):
    """The position of the element (u, v) in the tables' enumeration."""
    hit = (t.udigits == u).all(axis=1) & (t.vdigits == v).all(axis=1)
    (g,) = np.flatnonzero(hit)
    return int(g)


def test_h_rho_values():
    spec = builtin("heisenberg3")
    t = build_tables(spec)
    h = h_rho(t, [1])
    assert h.shape == (27,) and h.dtype == residue_dtype(spec.p)
    for v in range(3):
        assert h[_index(t, (0, 0), (v,))] == v
    # h is blind to the U part: h(g) = rho(g s(ubar g)^{-1})
    assert h[_index(t, (1, 2), (2,))] == 2


def test_f_rho_lambda_spot_value():
    # f(s(e1)(0,v1), s(e1), s(e2)) = (1/2) * 1 * 1 = 1/2
    spec = builtin("heisenberg3")
    t = build_tables(spec)
    f = f_rho_lambda(t, [1], [1])
    assert f.shape == (27,) * 3 and f.dtype == residue_dtype(spec.p)
    g1 = t.mul[_index(t, (1, 0), (0,)), _index(t, (0, 0), (1,))]
    assert g1 == _index(t, (1, 0), (1,))
    val = f[g1, _index(t, (1, 0), (0,)), _index(t, (0, 1), (0,))]
    assert val == half_mod(3)


def test_tau23_spot_values():
    # (u,v,w,x) = (e1*, e1*, e1*, e2*): value is u(g1) u(g2)^2 x(g3)
    spec = builtin("elem9")
    t = build_tables(spec)
    c = tau23(t, [1, 0], [1, 0], [1, 0], [0, 1])
    assert c.shape == (9,) * 3 and c.dtype == residue_dtype(spec.p)
    for g1 in range(9):
        for g2 in range(9):
            for g3 in range(9):
                a = int(t.udigits[g1][0])
                b = int(t.udigits[g2][0])
                x = int(t.udigits[g3][1])
                assert c[g1, g2, g3] == (a * b * b * x) % 3


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5"])
def test_dh_identity_exhaustive(name):
    r = verify_identity(builtin(name), "dh")
    assert r.passed and not r.skipped
    assert r.checked == builtin(name).order ** 2 * builtin(name).m


def test_df_identity_exhaustive_heisenberg3():
    r = verify_identity(builtin("heisenberg3"), "df")
    assert r.passed
    assert r.checked == 27 ** 4


def test_dh_df_skipped_for_abelian():
    for which in ("dh", "df"):
        r = verify_identity(builtin("elem9"), which)
        assert r.skipped and "m >= 1" in r.note


@pytest.mark.parametrize("name", ["heisenberg3", "elem9", "elem25"])
def test_tau_squares(name):
    r = verify_identity(builtin(name), "tau_squares")
    assert r.passed, r.line()


def test_tau_squares_counterexample_prints_plain_ints(monkeypatch):
    """Negative control: one changed cell (1, 2, 3, 4) of every mu is caught
    at the first basis 4-tuple, in slice g1 = 1, and the text does not
    depend on numpy's repr."""
    real = cochains.mu_slices

    def broken(t, u, v, w, x):
        slices = real(t, u, v, w, x)

        def at(g1):
            vals = slices(g1)
            if g1 == 1:
                vals[2, 3, 4] += 1
            return vals
        return at

    monkeypatch.setattr(cochains, "mu_slices", broken)
    r = verify_identity(builtin("heisenberg3"), "tau_squares")
    assert not r.passed
    assert r.checked == 2 * 9 ** 3
    assert r.counterexample == (
        "tau23 square at (u,v,w,x)=((1, 0), (1, 0), (1, 0), (1, 0)), "
        "((u=(0,1);v=()), (u=(0,2);v=()), (u=(1,0);v=()), (u=(1,1);v=()))")


def test_tau13_printed_minus_variant_fails_its_square():
    # the (1,3)-symmetric lifting is forced: flipping the middle sign breaks
    # delta tau13[t] = mu[t + (13)t] already on basis tensors
    spec = builtin("elem9")
    p = 3
    u, v, w, x = [1, 0], [0, 1], [1, 0], [0, 1]
    t = build_tables(spec)
    plus = tau13(t, u, v, w, x)
    assert plus.shape == (9,) * 3 and plus.dtype == residue_dtype(p)
    assert plus.min() >= 0 and plus.max() < p   # the sum is reduced
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    # the middle term u(g1) w(g1) v(g2) x(g3) of the lifting
    middle = np.einsum('a,b,c->abc', (U * W) % p, V, X) % p
    mu, swapped = mu_slices(t, u, v, w, x), mu_slices(t, w, v, u, x)
    rhs = np.stack([mu(g1) + swapped(g1) for g1 in range(spec.order)]) % p
    assert np.array_equal(coboundary(spec, plus), rhs)
    minus_variant = ((plus - 2 * middle) % p).astype(np.int16)  # +1 -> -1
    assert not np.array_equal(coboundary(spec, minus_variant), rhs)


def test_tau_agree_passes_for_p_at_least_5():
    for name in ("heisenberg5", "elem25"):
        r = verify_identity(builtin(name), "tau_agree")
        assert r.passed, r.line()


def test_tau_agree_fails_for_p_3_with_counterexample():
    r = verify_identity(builtin("elem9"), "tau_agree")
    assert not r.passed
    assert r.counterexample is not None
    # same verdict through a nonabelian spec's U-projection
    r2 = verify_identity(builtin("heisenberg3"), "tau_agree")
    assert not r2.passed


@pytest.mark.parametrize("name", sorted(
    name for name in BUILTINS if builtin(name).p ** builtin(name).n <= 25))
def test_tau_agree_certificates_match_the_elimination(name):
    """Every (u, v), not only the first: the certificate's verdict equals
    membership in im(delta: C^2 -> C^3) by elimination, for both forms of
    the bar cycle, sum_i [x|x^i|x] (v a multiple of u) and the shuffle
    product with [y]."""
    us = u_projection(builtin(name))
    t = build_tables(us)
    p, half = us.p, half_mod(us.p)
    image = coboundary_image(us)
    verdicts, forms = set(), set()
    for u in projective_lines(p, us.n):
        for v in np.eye(us.n, dtype=np.int64):
            diff = half * (tau13(t, u, u, u, v) - tau23(t, u, u, u, v)) % p
            ok = cochains.tau_agree_certified(t, u, v)
            assert ok == image.contains(diff.reshape(-1)), (u, v)
            verdicts.add(ok)
            forms.add(rank_mod(np.array([u, v]), p))
    assert verdicts == {p >= 5}
    assert forms == ({1, 2} if us.n >= 2 else {1})


def test_tau_agree_raises_on_one_changed_cell_off_the_cycle(monkeypatch,
                                                            capsys):
    """Negative control: tau13 wrong at (0, 0, 0), a cell off every bar
    cycle's support, breaks the witness but leaves <diff, z> = 0, so no
    certificate holds: the verifier raises, and does not pass."""
    real = cochains.tau13

    def broken(t, u, v, w, x):
        vals = real(t, u, v, w, x)
        vals[0, 0, 0] += 1
        return vals

    monkeypatch.setattr(cochains, "tau13", broken)
    with pytest.raises(InternalInconsistencyError):
        verify_identity(builtin("heisenberg5"), "tau_agree")
    code = main(["verify-lemmas", "--builtin", "heisenberg5"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: tau_agree at u=(1, 0), v=(1, 0): neither")


def test_tau_agree_refuses_a_chain_that_is_not_a_cycle(monkeypatch):
    """Negative control for dz = 0: without the terms -[x|y|x^i] the chain
    still pairs to 1 with the p = 3 difference, but its boundary is not 0,
    so it certifies nothing."""
    real = cochains._bar_cycle
    monkeypatch.setattr(cochains, "_bar_cycle", lambda t, u, v: [
        term for term in real(t, u, v) if term[0] == 1])
    with pytest.raises(InternalInconsistencyError):
        verify_identity(builtin("elem9"), "tau_agree")


def test_tau_agree_guard_admits_u_of_order_125():
    # about 8 bytes a cell of |U|^3 = 5^9, some 16 MB
    cochains.check_identity_guard(elementary(5, 3, "elem125"), "tau_agree",
                                  DEFAULT_GUARD_BYTES)


def test_default_guard_admits_every_identity_on_u_of_order_125():
    # the guard only: verify-lemmas on this spec runs for minutes
    spec = spec_from_json_dict({"p": 5, "dimU": 3, "dimV": 0, "gamma": []})
    for which in IDENTITIES:
        cochains.check_identity_guard(spec, which, DEFAULT_GUARD_BYTES)


def test_tau_difference_has_the_predicted_form():
    # tau13(t) - tau23(t) on t = u x u x u x v, evaluated with the 1/2
    # normalization, equals (1/2)(a b^2 + a^2 b) v(g3)
    spec = u_projection(builtin("heisenberg3"))
    assert spec.m == 0  # the taus live on the abelian carrier U
    p = 3
    half = half_mod(p)
    u, v = [1, 0], [0, 1]
    t = build_tables(spec)
    diff = (half * (tau13(t, u, u, u, v).astype(np.int64)
                    - tau23(t, u, u, u, v))) % p
    a = t.u_eval(u)
    vv = t.u_eval(v)
    expected = (half * (np.einsum('i,j,k->ijk', a, (a * a) % p, vv)
                        + np.einsum('i,j,k->ijk', (a * a) % p, a, vv))) % p
    assert np.array_equal(diff, expected)
    # and it is a cocycle, so failure of tau_agree is a cohomology statement
    assert not coboundary(spec, diff.astype(np.int16)).any()


def test_ssquare_kernel_identity():
    for name in ("heisenberg3", "heisenberg5"):
        r = verify_identity(builtin(name), "ssquare_kernel")
        assert r.passed


@pytest.mark.parametrize("p", [3, 5])
def test_ssquare_kernel_fails_without_the_distinct_index_generators(
        monkeypatch, p):
    """Negative control: on dim U = 4, the 232 generators whose four
    indices repeat one miss 2 of the kernel's 20 dimensions."""
    real = cochains.square_kernel_generators

    def broken(n, p):
        return real(n, p)[[len(set(t)) < 4 for t in
                           itertools.product(range(n), repeat=4)]]

    monkeypatch.setattr(cochains, "square_kernel_generators", broken)
    r = verify_identity(elementary(p, 4, "elem"), "ssquare_kernel")
    assert not r.passed and r.checked == 232
    assert r.counterexample == "span dim 18 != kernel dim 20"


def test_df_depends_only_on_gamma_dual_of_rho():
    # degenerate gamma with a kernel: two rho's with the same image give
    # f's whose difference has vanishing coboundary
    gamma = np.array([[1], [1]], dtype=np.int64)  # gamma(u1^u2) = v1 + v2
    spec = GroupSpec(3, 2, 2, gamma)
    t = build_tables(spec)
    f1 = f_rho_lambda(t, [1, 0], [1])
    f2 = f_rho_lambda(t, [0, 1], [1])
    F = f1 - f2
    N = spec.order
    rng = np.random.default_rng(0)
    mulT = t.mul
    for _ in range(2000):
        g1, g2, g3, g4 = (int(x) for x in rng.integers(0, N, size=4))
        val = (F[g2, g3, g4] - F[mulT[g1, g2], g3, g4]
               + F[g1, mulT[g2, g3], g4] - F[g1, g2, mulT[g3, g4]]
               + F[g1, g2, g3]) % spec.p
        assert val == 0


def test_verify_identity_rejects_unknown():
    with pytest.raises(ValueError):
        verify_identity(builtin("heisenberg3"), "made-up")


def test_coboundary_squares_to_zero_at_order_81():
    # degrees 0 through 2 on a group of order 3^4
    spec = GroupSpec(3, 4, 0, np.zeros((0, 6), dtype=np.int64), name="elem81")
    rng = np.random.default_rng(8)
    N = spec.order
    assert not coboundary(spec, np.array(1, dtype=np.int16)).any()
    for degree in (1, 2):
        f = rng.integers(0, 3, size=(N,) * degree, dtype=np.int16)
        assert not coboundary(spec, coboundary(spec, f)).any()


@pytest.mark.parametrize("name,which", [
    (name, which)
    for name in ("heisenberg3", "heisenberg5", "elem9", "elem27", "order81")
    for which in IDENTITIES if IDENTITIES[which][0](_group(name))]
    + [(name, "ssquare_kernel") for name in _SSQUARE_ONLY])
def test_identity_guard_covers_its_peak_allocation(monkeypatch, name, which):
    """Each identity with a guard figure, on each group, allocates no more
    than the figure once the group tables are built; tau_agree's covers its
    certificates too, and order81's df the step from one lam to the next."""
    spec = _group(name)
    with pytest.raises(GuardExceededError) as info:
        cochains.check_identity_guard(spec, which, 0)
    built = {s: build_tables(s) for s in (spec, u_projection(spec))}
    monkeypatch.setattr(cochains, "build_tables", built.__getitem__)
    tracemalloc.start()
    try:
        verify_identity(spec, which)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= info.value.required


def test_ssquare_kernel_figure_stays_below_tau_squares():
    # verify-lemmas checks tau_squares' guard first, so a guard that refuses
    # ssquare_kernel has already refused tau_squares, with the same message
    figure = {which: IDENTITIES[which][0] for which in IDENTITIES}
    for p in (3, 5, 7, 11):
        for n in range(16):
            spec = elementary(p, n, "elem")
            assert figure["ssquare_kernel"](spec) < figure["tau_squares"](spec)
    assert list(IDENTITIES).index("tau_squares") < list(IDENTITIES).index(
        "ssquare_kernel")


def test_df_fails_on_one_changed_cell(monkeypatch):
    """Negative control: one wrong cell of f in the slice g1 = 5 is caught,
    first at the 4-tuple it breaks in g1-major order (here in slice 1)."""
    spec = builtin("heisenberg3")
    real = cochains.f_rho_lambda

    def broken(t, rho, lam):
        vals = real(t, rho, lam)
        vals[5, 3, 7] += 1
        return vals

    monkeypatch.setattr(cochains, "f_rho_lambda", broken)
    r = verify_identity(spec, "df")
    assert not r.passed
    assert r.checked == 2 * 27 ** 3
    assert r.counterexample == (
        "rho=e1*, lam=basis0, ((u=(0,0);v=(1)), (u=(0,1);v=(1)), "
        "(u=(0,1);v=(0)), (u=(0,2);v=(1)))")


def test_dh_fails_on_one_changed_cell(monkeypatch):
    """Negative control: one wrong value of h at element 5 is caught in
    slice g1 = 1; slice 0, h(g2) - h(g2) + h(0), does not see it."""
    spec = builtin("heisenberg3")
    real = cochains.h_rho

    def broken(t, rho):
        vals = real(t, rho)
        vals[5] += 1
        return vals

    monkeypatch.setattr(cochains, "h_rho", broken)
    r = verify_identity(spec, "dh")
    assert not r.passed
    assert r.checked == 2 * 27
    # g1 = (u=(0,0);v=(1)) is central, so g1 g2 = 5 at g2 = (u=(0,1);v=(1))
    assert r.counterexample == "rho=e1*, ((u=(0,0);v=(1)), (u=(0,1);v=(1)))"
