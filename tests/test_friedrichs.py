"""Tests for the model layer: traces, D, M, solution operator, resolvent.

Frozen expected values marked "oracle:" were computed by the independent
method named in the comment (adaptive real-line quadrature, residue limits,
or hand reduction of the defining formulas) and then hard-coded.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmlab.ratfun import Poly, RatFun, poly_from_roots, conj_reflect, inner_product
from fmlab.hardy import riesz_split
from fmlab.friedrichs import (
    DZeroError, EigenvalueError, FriedrichsModel, apply_adjoint, apply_resolvent,
    d_function, m_function, solution_operator, tilde_model, traces, verify_identity,
)
from fmlab.scancli import _draw_l2

PI = np.pi


def fixed_model(B=0.3 - 0.2j):
    phi = RatFun.simple_pole(2j)
    psi = RatFun(Poly([1.0, 1.0]), poly_from_roots([-1.5j, 1 + 1j]))
    return FriedrichsModel(phi, psi, B)


def rand_l2(rng, n_max=3, min_im=0.1):
    n = int(rng.integers(1, n_max + 1))
    poles = rng.normal(size=n) + 1j * np.sign(rng.normal(size=n)) * (min_im + rng.random(n))
    num = rng.normal(size=n) + 1j * rng.normal(size=n)
    return RatFun(Poly(num), poly_from_roots(poles))


def rand_model(rng):
    return FriedrichsModel(rand_l2(rng), rand_l2(rng),
                           complex(rng.normal(), rng.normal()))


def rand_lam(rng, min_im=0.3):
    return complex(rng.normal(), np.sign(rng.normal()) * (min_im + rng.random()))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_traces_simple_pole():
    el = traces(RatFun.simple_pole(1j))
    assert el.c == pytest.approx(1.0)
    assert el.gamma2 == pytest.approx(1.0)
    # oracle: residue calculus, int dx/(x-i) (symmetric limit) = pi*i
    assert el.gamma1 == pytest.approx(PI * 1j)


def test_traces_fast_decay_has_zero_c():
    el = traces(RatFun(Poly([1.0]), poly_from_roots([1j, 1j])))
    assert el.c == 0
    assert el.gamma1 == pytest.approx(0.0)


def test_traces_rejects_bad_functions():
    with pytest.raises(ValueError):
        traces(RatFun.simple_pole(0.5))          # real pole
    with pytest.raises(ValueError):
        traces(RatFun(Poly([1, 1]), Poly([2, 1])))   # no decay


def test_traces_linear_in_argument():
    rng = np.random.default_rng(11)
    f, g = rand_l2(rng), rand_l2(rng)
    a = 2.0 - 1.5j
    tf, tg, tsum = traces(f), traces(g), traces(f * a + g)
    assert tsum.gamma1 == pytest.approx(a * tf.gamma1 + tg.gamma1)
    assert tsum.gamma2 == pytest.approx(a * tf.gamma2 + tg.gamma2)


# ---------------------------------------------------------------------------
# D and the scalar transforms
# ---------------------------------------------------------------------------

def test_d_value_quadrature_oracle():
    # oracle: adaptive quadrature of 1 + int psi conj(phi)/(t-lam) dt
    mod = fixed_model()
    assert d_function(mod, 0.5 + 0.8j) == pytest.approx(
        1.7456059030280593 + 0.43316262957368057j, abs=1e-12)
    assert d_function(mod, -1.2 - 0.6j) == pytest.approx(
        1.3103530487236879 - 0.5211588931397778j, abs=1e-12)


def test_transform_quadrature_oracle():
    mod = fixed_model()
    lam = 0.5 + 0.8j
    # oracle: adaptive quadrature of int psi/(t-lam) and int conj(phi)/(t-lam)
    mv = m_function(mod, lam)
    assert mv.psi_hat == pytest.approx(
        0.6765785249234811 + 1.6542931563157952j, abs=1e-12)
    assert mv.phibar_hat == pytest.approx(
        2.1746500445120884 + 0.38833036509144425j, abs=1e-12)


def test_phibar_hat_vanishes_in_polefree_halfplane():
    # phi has its only pole at 2i, so conj(phi) is analytic above the axis is
    # false -- it has the pole at -2i; the transform closes to zero below.
    mod = fixed_model()
    assert m_function(mod, -1.2 - 0.6j).phibar_hat == pytest.approx(0.0, abs=1e-14)


def test_d_trivial_when_psi_zero():
    mod = FriedrichsModel(RatFun.simple_pole(1j), RatFun.zero(), 0.0)
    assert d_function(mod, 0.3 + 0.9j) == pytest.approx(1.0)
    assert d_function(mod, -2.0 - 0.4j) == pytest.approx(1.0)


def test_d_rejects_real_lam():
    with pytest.raises(ValueError):
        d_function(fixed_model(), 0.5)


def riesz_reference(model, lam):
    """(D, psi_hat, phibar_hat, M) from the Riesz split of each transformed
    function: the part with poles across the axis from lam, times 2 pi i for
    Im lam > 0 and -2 pi i below, with D = 1 + that transform of psi phibar."""
    up = lam.imag > 0

    def hat(f):
        if f.is_zero:
            return 0j
        plus, minus = riesz_split(f)
        return 2j * PI * complex(plus(lam)) if up else -2j * PI * complex(minus(lam))

    phibar = conj_reflect(model.phi)
    D = 1.0 + hat(model.psi * phibar)
    ph, fh = hat(model.psi), hat(phibar)
    bracket = np.sign(lam.imag) * PI * 1j - ph * fh / D - model.B
    return D, ph, fh, complex(1.0 / bracket)


def test_m_function_equals_the_riesz_split_reference():
    rng = np.random.default_rng(3)
    points = 0
    for _ in range(300):
        mod = FriedrichsModel(_draw_l2(rng, int(rng.integers(1, 7)), min_sep=0.3),
                              _draw_l2(rng, int(rng.integers(1, 7)), min_sep=0.3),
                              complex(rng.normal(), rng.normal()))
        lams = [rand_lam(rng, min_im=1e-6) for _ in range(4)]
        lams += [p.location for p in mod.psi.poles]
        lams += [p.location.conjugate() for p in mod.phi.poles]
        for lam in lams:
            ref = riesz_reference(mod, lam)
            try:
                mv = m_function(mod, lam)
            except DZeroError:
                assert abs(ref[0]) <= 1e-12
                continue
            assert not mv.infinite
            got = (mv.D, mv.psi_hat, mv.phibar_hat, mv.M)
            assert got == ref, (lam, got, ref)
            assert all(type(v) is complex for v in got)
            points += 1
    assert points > 2000


# ---------------------------------------------------------------------------
# M-function
# ---------------------------------------------------------------------------

def test_m_function_bracket_relation():
    mod = fixed_model()
    for lam in (0.5 + 0.8j, -1.2 - 0.6j, 2.0 + 0.1j):
        mv = m_function(mod, lam)
        bracket = (np.sign(lam.imag) * PI * 1j
                   - mv.psi_hat * mv.phibar_hat / mv.D - mod.B)
        assert 1.0 / mv.M == pytest.approx(bracket, rel=1e-12)


def test_m_function_unperturbed():
    # psi = 0: M_B = 1/(sign(Im lam) pi i - B)
    mod = FriedrichsModel(RatFun.simple_pole(1j), RatFun.zero(), 0.7)
    assert m_function(mod, 1j).M == pytest.approx(1.0 / (PI * 1j - 0.7))
    assert m_function(mod, -1j).M == pytest.approx(1.0 / (-PI * 1j - 0.7))


def test_m_function_flags_eigenvalue():
    # choose B to zero the bracket at lam exactly
    lam = 0.4 + 0.9j
    base = fixed_model(B=0.0)
    mv = m_function(base, lam)
    B_eig = PI * 1j - mv.psi_hat * mv.phibar_hat / mv.D
    mod = FriedrichsModel(base.phi, base.psi, B_eig)
    assert m_function(mod, lam).infinite
    with pytest.raises(EigenvalueError):
        solution_operator(mod, lam)
    with pytest.raises(EigenvalueError):
        apply_resolvent(mod, lam, RatFun.simple_pole(-1j))


def test_tilde_model_d_reflection():
    mod = fixed_model()
    tm = tilde_model(mod)
    for lam in (0.5 + 0.8j, -1.2 - 0.6j):
        assert d_function(tm, np.conj(lam)) == pytest.approx(
            np.conj(d_function(mod, lam)), rel=1e-12)


# ---------------------------------------------------------------------------
# solution operator
# ---------------------------------------------------------------------------

def test_solution_operator_is_kernel_element():
    mod = fixed_model()
    lam = 0.5 + 0.8j
    u = solution_operator(mod, lam, f=1.5 - 0.5j)
    resid = apply_adjoint(mod, u, "tilde_star") - lam * u.f
    xs = np.linspace(-3, 3, 11)
    assert np.max(np.abs(resid(xs))) < 1e-9


def test_solution_operator_boundary_data():
    mod = fixed_model()
    lam = -0.7 - 1.1j
    f = 2.0 + 1.0j
    u = solution_operator(mod, lam, f)
    assert u.gamma1 - mod.B * u.gamma2 == pytest.approx(f, rel=1e-9)
    assert u.gamma2 == pytest.approx(m_function(mod, lam).M * f, rel=1e-10)


def test_solution_operator_zero_data():
    u = solution_operator(fixed_model(), 1j, 0.0)
    assert u.f.is_zero and u.gamma2 == 0


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_unperturbed_closed_form():
    # psi = 0, B = 0: f = (g + c)/(x - lam) with c fixed by Gamma_1 f = 0;
    # oracle: hand reduction gives c = i for g = 1/(x+i), lam = i
    mod = FriedrichsModel(RatFun.simple_pole(2j), RatFun.zero(), 0.0)
    g = RatFun.simple_pole(-1j)
    el = apply_resolvent(mod, 1j, g)
    assert el.c == pytest.approx(1j, abs=1e-12)
    pole = RatFun.simple_pole(1j)
    ref = (g + 1j) * pole
    for x in (-2.0, 0.3, 1.7):
        assert el.f(x) == pytest.approx(ref(x), rel=1e-12)


def test_resolvent_substitution_and_bc():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mod = rand_model(rng)
        assert verify_identity("resolvent", mod, lam=rand_lam(rng),
                               g=rand_l2(rng)) < 1e-8


def test_resolvent_rejects_non_l2_data():
    with pytest.raises(ValueError):
        apply_resolvent(fixed_model(), 1j, RatFun(Poly([1, 1]), Poly([2, 1])))


def test_resolvent_of_zero():
    el = apply_resolvent(fixed_model(), 1j, RatFun.zero())
    assert el.f.is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_resolvent_residual_property(seed):
    rng = np.random.default_rng(seed)
    mod = rand_model(rng)
    assert verify_identity("resolvent", mod, lam=rand_lam(rng),
                           g=rand_l2(rng)) < 1e-8


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_green_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mod = rand_model(rng)
        u = rand_l2(rng, min_im=0.3)
        v = rand_l2(rng, min_im=0.3)
        assert verify_identity("green", mod, u=u, v=v) < 1e-8


def test_krein_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mod = rand_model(rng)
        assert verify_identity(
            "krein", mod, lam=rand_lam(rng), g=rand_l2(rng),
            C=complex(rng.normal(), rng.normal())) < 1e-10


def test_aronszajn_donoghue():
    rng = np.random.default_rng(4)
    for _ in range(50):
        mod = rand_model(rng)
        assert verify_identity(
            "aronszajn", mod, lam=rand_lam(rng),
            C=complex(rng.normal(), rng.normal())) < 1e-12


def test_fundamental_pairing():
    rng = np.random.default_rng(6)
    for _ in range(10):
        mod = rand_model(rng)
        assert verify_identity("fund", mod, lam=rand_lam(rng),
                               mu=rand_lam(rng), mu_t=rand_lam(rng)) < 1e-8


def test_solution_operator_difference():
    rng = np.random.default_rng(8)
    for _ in range(10):
        mod = rand_model(rng)
        assert verify_identity("sdiff", mod, lam=rand_lam(rng),
                               lam0=rand_lam(rng)) < 1e-8


def test_halfplane_continuation_closed_form():
    # phi with poles above, psi with poles below; both closed forms of the
    # bordered pairing must agree with the direct inner product
    phi = RatFun.simple_pole(1.5j)
    psi = RatFun(Poly([1.0, 0.3j]), poly_from_roots([-1j, 1 - 2j]))
    mod = FriedrichsModel(phi, psi, 0.4 + 0.1j)
    r = verify_identity("continuation", mod, lam=0.3 + 0.8j,
                        mu=-0.5 - 0.7j, mu_t=0.2 + 1.1j)
    assert r < 1e-9


def test_continuation_rejects_wrong_halfplanes():
    with pytest.raises(ValueError):
        verify_identity("continuation", fixed_model(), lam=1j, mu=-1j, mu_t=1j)


# ---------------------------------------------------------------------------
# adjoint pair consistency
# ---------------------------------------------------------------------------

def test_adjoint_variants_differ_by_rank_one():
    rng = np.random.default_rng(9)
    mod = rand_model(rng)
    f = rand_l2(rng)
    a = apply_adjoint(mod, f, "star")
    b = apply_adjoint(mod, f, "tilde_star")
    diff = a - b
    ref = (inner_product(f, mod.psi) * mod.phi
           - inner_product(f, mod.phi) * mod.psi)
    xs = np.linspace(-3, 3, 9)
    assert np.allclose(diff(xs), ref(xs), atol=1e-10)


def test_adjoint_rejects_unknown_variant():
    with pytest.raises(ValueError):
        apply_adjoint(fixed_model(), RatFun.simple_pole(1j), "other")
