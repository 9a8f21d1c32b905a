"""Cochain tables, the coboundary, and the identity suite.

The tau13/tau23 agreement deserves a note: the two lifted maps agree up to
coboundary exactly when p >= 5 (an explicit primitive k(a) = -a^3/6 exists
because 6 is a unit).  For p = 3 the difference on u x u x u x v is the
cocycle (1/2)(a b^2 + a^2 b) v(g3), a = u(g1), b = u(g2), whose class is
beta(u) cup v != 0 in H^3; no choice of coefficients Z/3^k rescues it.  The
tests below pin this asymmetry; the acceptance suite records the p = 3 case
as an expected failure of its stated criterion.
"""

import tracemalloc

import numpy as np
import pytest

from unramified import cochains
from unramified.catalog import builtin
from unramified.cochains import (
    Cochain,
    coboundary,
    f_rho_lambda,
    h_rho,
    mu,
    tables_for,
    tau13,
    tau23,
    u_projection,
    verify_identity,
)
from unramified.errors import GuardExceededError
from unramified.groups import GroupSpec, GroupElement, element_index, mul, section
from unramified.linalg import half_mod


@pytest.mark.parametrize("name,degree,seed", [
    ("heisenberg3", 1, 0), ("heisenberg3", 2, 1),
    ("elem9", 1, 2), ("elem9", 2, 3), ("elem27", 2, 4),
])
def test_coboundary_squares_to_zero_seed(name, degree, seed):
    spec = builtin(name)
    N = spec.order
    rng = np.random.default_rng(seed)
    f = Cochain(spec, degree, rng.integers(0, spec.p, size=(N,) * degree))
    assert coboundary(coboundary(f)).is_zero()


def test_coboundary_of_constant_is_zero():
    spec = builtin("heisenberg3")
    c = Cochain(spec, 0, np.array(2))
    assert coboundary(c).is_zero()


def test_scale_by_a_large_factor_does_not_wrap():
    # 20000 * 2 overflows the int16 table; the product must be taken mod p
    c = Cochain(builtin("elem3"), 1, np.array([0, 1, 2]))
    assert c.scale(20000).values.tolist() == [0, 2, 1]


@pytest.mark.parametrize("name,which,guard", [
    ("heisenberg3", "dh", 1000), ("heisenberg3", "df", 10 ** 5),
    ("elem9", "tau_squares", 10 ** 4), ("elem9", "tau_agree", 20000),
])
def test_identity_guard_refuses_before_any_table(monkeypatch, name, which,
                                                 guard):
    def no_tables(*args):
        raise AssertionError("a group table was built before the guard refused")

    cochains.tables_for.cache_clear()
    monkeypatch.setattr(cochains, "build_tables", no_tables)
    with pytest.raises(GuardExceededError):
        verify_identity(builtin(name), which, guard_bytes=guard)


def test_h_rho_values():
    spec = builtin("heisenberg3")
    h = h_rho(spec, [1])
    assert h.degree == 1
    for v in range(3):
        g = GroupElement.make((0, 0), (v,))
        assert h(element_index(spec, g)) == v
    # h is blind to the U part: h(g) = rho(g s(ubar g)^{-1})
    g = GroupElement.make((1, 2), (2,))
    assert h(element_index(spec, g)) == 2


def test_f_rho_lambda_spot_value():
    # f(s(e1)(0,v1), s(e1), s(e2)) = (1/2) * 1 * 1 = 1/2
    spec = builtin("heisenberg3")
    f = f_rho_lambda(spec, [1], [1])
    assert f.degree == 3
    g1 = mul(spec, section(spec, (1, 0)), GroupElement.make((0, 0), (1,)))
    g2 = section(spec, (1, 0))
    g3 = section(spec, (0, 1))
    val = f(element_index(spec, g1), element_index(spec, g2),
            element_index(spec, g3))
    assert val == half_mod(3)


def test_tau23_spot_values():
    # (u,v,w,x) = (e1*, e1*, e1*, e2*): value is u(g1) u(g2)^2 x(g3)
    spec = builtin("elem9")
    c = tau23(spec, [1, 0], [1, 0], [1, 0], [0, 1])
    assert c.degree == 3
    t = tables_for(spec)
    for g1 in range(9):
        for g2 in range(9):
            for g3 in range(9):
                a = int(t.udigits[g1][0])
                b = int(t.udigits[g2][0])
                x = int(t.udigits[g3][1])
                assert c(g1, g2, g3) == (a * b * b * x) % 3


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


def test_tau13_printed_minus_variant_fails_its_square():
    # the (1,3)-symmetric lifting is forced: flipping the middle sign breaks
    # delta tau13[t] = mu[t + (13)t] already on basis tensors
    spec = builtin("elem9")
    p = 3
    u, v, w, x = [1, 0], [0, 1], [1, 0], [0, 1]
    plus = tau13(spec, u, v, w, x)
    assert plus.degree == 3 and mu(spec, u, v, w, x).degree == 4
    t = tables_for(spec)
    U, V, W, X = (t.u_eval(c) for c in (u, v, w, x))
    # the middle term u(g1) w(g1) v(g2) x(g3) of the lifting
    middle = Cochain(spec, 3, np.einsum('a,b,c->abc', (U * W) % p, V, X) % p)
    minus_variant = plus - middle.scale(2)  # +1 replaced by -1
    lhs = coboundary(minus_variant).values
    rhs = (mu(spec, u, v, w, x).values + mu(spec, w, v, u, x).values) % p
    assert not np.array_equal(lhs, rhs)


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


def test_tau_difference_has_the_predicted_form():
    # tau13(t) - tau23(t) on t = u x u x u x v, evaluated with the 1/2
    # normalization, equals (1/2)(a b^2 + a^2 b) v(g3)
    spec = u_projection(builtin("heisenberg3"))
    assert spec.m == 0  # the taus live on the abelian carrier U
    p = 3
    half = half_mod(p)
    u, v = [1, 0], [0, 1]
    diff = (half * (tau13(spec, u, u, u, v).values.astype(np.int64)
                    - tau23(spec, u, u, u, v).values)) % p
    t = tables_for(spec)
    a = t.u_eval(u)
    vv = t.u_eval(v)
    expected = (half * (np.einsum('i,j,k->ijk', a, (a * a) % p, vv)
                        + np.einsum('i,j,k->ijk', (a * a) % p, a, vv))) % p
    assert np.array_equal(diff, expected)
    # and it is a cocycle, so failure of tau_agree is a cohomology statement
    assert coboundary(Cochain(spec, 3, diff)).is_zero()


def test_ssquare_kernel_identity():
    for name in ("heisenberg3", "heisenberg5"):
        r = verify_identity(builtin(name), "ssquare_kernel")
        assert r.passed


def test_df_depends_only_on_gamma_dual_of_rho():
    # degenerate gamma with a kernel: two rho's with the same image give
    # f's whose difference has vanishing coboundary
    gamma = np.array([[1], [1]], dtype=np.int64)  # gamma(u1^u2) = v1 + v2
    spec = GroupSpec(3, 2, 2, gamma)
    f1 = f_rho_lambda(spec, [1, 0], [1])
    f2 = f_rho_lambda(spec, [0, 1], [1])
    diff = f1 - f2
    t = tables_for(spec)
    N = spec.order
    rng = np.random.default_rng(0)
    mulT = t.mul
    F = diff.values
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
    assert coboundary(Cochain(spec, 0, np.array(1))).is_zero()
    for degree in (1, 2):
        f = Cochain(spec, degree, rng.integers(0, 3, size=(N,) * degree))
        assert coboundary(coboundary(f)).is_zero()


@pytest.mark.parametrize("name,which", [
    ("heisenberg3", "dh"), ("heisenberg5", "dh"),
    ("heisenberg3", "df"), ("heisenberg5", "df"),
    ("heisenberg3", "tau_squares"), ("heisenberg5", "tau_squares"),
    ("elem27", "tau_squares"), ("elem9", "tau_agree"),
])
def test_identity_guard_covers_its_peak_allocation(name, which):
    """Each guard figure bounds what its check really allocates once the
    group tables are built; tau_agree's covers the coboundary image and its
    elimination too."""
    spec = builtin(name)
    with pytest.raises(GuardExceededError) as info:
        cochains.check_identity_guard(spec, which, 0)
    tables_for(spec)
    tables_for(u_projection(spec))
    cochains._coboundary_image.cache_clear()
    tracemalloc.start()
    try:
        verify_identity(spec, which)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= info.value.required


def test_df_fails_on_one_changed_cell(monkeypatch):
    """Negative control: one wrong cell of f in the slice g1 = 5 is caught,
    first at the 4-tuple it breaks in g1-major order (here in slice 1)."""
    spec = builtin("heisenberg3")
    real = cochains.f_rho_lambda

    def broken(spec, rho, lam):
        vals = real(spec, rho, lam).values.copy()
        vals[5, 3, 7] += 1
        return Cochain(spec, 3, vals)

    monkeypatch.setattr(cochains, "f_rho_lambda", broken)
    r = verify_identity(spec, "df")
    assert not r.passed
    assert r.checked == 2 * 27 ** 3
    assert r.counterexample == (
        "rho=e1*, lam=basis0, ((u=(0,0);v=(1)), (u=(0,1);v=(1)), "
        "(u=(0,1);v=(0)), (u=(0,2);v=(1)))")
