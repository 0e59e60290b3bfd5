"""Tests for the rational-function layer.

Expected values marked "oracle:" in comments were produced by the independent
method named there (expand-and-refine, linear solve, limit evaluation, or
quadrature) and then frozen.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmlab.ratfun import (
    Poly, RatFun, DegreeCapError, poly_roots, poly_from_roots, conj_reflect,
    partial_fractions, residue, pv_integral, cauchy_transform, inner_product,
    l2_norm,
)

PI = np.pi


def rat(numc, denc):
    return RatFun(Poly(numc), Poly(denc))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_x2_plus_1():
    got = sorted(poly_roots(Poly([1, 0, 1])), key=lambda t: t[0].imag)
    assert len(got) == 2
    assert got[0][0] == pytest.approx(-1j, abs=1e-12) and got[0][1] == 1
    assert got[1][0] == pytest.approx(1j, abs=1e-12) and got[1][1] == 1


def test_roots_linear():
    ((r, m),) = poly_roots(Poly([-5, 1]))
    assert m == 1 and r == pytest.approx(5, abs=1e-13)


def test_roots_double_complex():
    # oracle: expand (x-(1+2i))^2 (x+3) coefficient-wise, refine via |p(root)|
    p = poly_from_roots([1 + 2j, 1 + 2j, -3])
    got = sorted(poly_roots(p), key=lambda t: t[0].real)
    assert [m for _, m in got] == [1, 2]
    assert got[0][0] == pytest.approx(-3, abs=1e-10)
    assert got[1][0] == pytest.approx(1 + 2j, abs=1e-7)
    for r, _ in got:
        assert abs(p(r)) < 1e-10 * np.max(np.abs(p.coeffs)) * (1 + abs(r)) ** p.degree


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        Poly([1.0] * 66)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=6))
# an eigenvalue exactly on the double root, where p' = 0
@example([2.1967315445797678e-36, 2.1576703679118765j, 2.1576703679118765j])
def test_roots_reconstruct(roots):
    p = poly_from_roots(roots, lead=2.0 - 1j)
    got = poly_roots(p)
    assert sum(m for _, m in got) == p.degree
    scale = np.max(np.abs(p.coeffs))
    for r, _ in got:
        assert abs(p(r)) <= 1e-10 * scale * (1 + abs(r)) ** p.degree


# ---------------------------------------------------------------------------
# conj_reflect
# ---------------------------------------------------------------------------

def test_conj_reflect_simple():
    f = RatFun.simple_pole(1j)          # 1/(x-i)
    g = conj_reflect(f)
    assert g.poles[0].location == pytest.approx(-1j)


def test_conj_reflect_constant():
    c = RatFun.const(2 + 3j)
    assert conj_reflect(c)(0.0) == pytest.approx(2 - 3j)


def test_conj_reflect_pointwise():
    # oracle: pointwise conjugation at 10 real samples
    f = RatFun(Poly([2 + 1j]), poly_from_roots([1 + 1j, -3j]))
    g = conj_reflect(f)
    for x in np.linspace(-4, 4, 10):
        assert g(x) == pytest.approx(np.conj(f(x)), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=5))
def test_conj_reflect_involution(coeffs):
    f = RatFun(Poly(coeffs), Poly([1 + 2j, 0, 1]))
    g = conj_reflect(conj_reflect(f))
    assert np.allclose(g.num.coeffs, f.num.coeffs, atol=1e-15)
    assert np.allclose(g.den.coeffs, f.den.coeffs, atol=1e-15)


# ---------------------------------------------------------------------------
# partial fractions / residues
# ---------------------------------------------------------------------------

def test_pf_standard_split():
    terms, poly_part = partial_fractions(rat([1], [1, 0, 1]))
    assert poly_part.is_zero
    d = {z: c for z, k, c in terms}
    assert d[1j] == pytest.approx(1 / 2j)
    assert d[-1j] == pytest.approx(-1 / 2j)


def test_pf_second_order():
    terms, _ = partial_fractions(RatFun(Poly([1]), poly_from_roots([1j, 1j])))
    assert terms == [(1j, 2, pytest.approx(1.0))]


def test_pf_linear_system_oracle():
    # oracle: solve [1/(z1-z2)] linear system for (x+1)/((x-i)(x-2i)):
    # c1 = (i+1)/(i-2i) = (i+1)/(-i) = -1+i ... recomputed: c1=(1+i)/(-i)= i*(1+i) = -1+i
    f = RatFun(Poly([1, 1]), poly_from_roots([1j, 2j]))
    terms, _ = partial_fractions(f)
    d = {z: c for z, k, c in terms}
    assert d[1j] == pytest.approx((1j + 1) / (1j - 2j))
    assert d[2j] == pytest.approx((2j + 1) / (2j - 1j))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pf_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    poles = rng.normal(size=n) + 1j * np.sign(rng.normal(size=n)) * (0.3 + rng.random(n))
    f = RatFun(Poly(rng.normal(size=n)), poly_from_roots(poles))
    terms, poly_part = partial_fractions(f)
    xs = rng.normal(size=20) * 3
    vals = poly_part(xs) + sum(c / (xs - z) ** k for z, k, c in terms)
    ref = f(xs)
    assert np.max(np.abs(vals - ref)) <= 1e-9 * (1 + np.max(np.abs(ref)))


def test_residue_simple():
    assert residue(RatFun.simple_pole(2 - 1j), 2 - 1j) == pytest.approx(1.0)


def test_residue_second_order_is_zero():
    assert residue(RatFun(Poly([1]), poly_from_roots([1j, 1j])), 1j) == pytest.approx(0.0)


def test_residue_limit_oracle():
    # oracle: lim (x-i) f(x) as x->i for f = 1/((x-i)(x+i)) equals 1/(2i)
    f = rat([1], [1, 0, 1])
    assert residue(f, 1j) == pytest.approx(-0.5j)


# ---------------------------------------------------------------------------
# line integrals
# ---------------------------------------------------------------------------

def test_pv_symmetric_limit_sign():
    assert pv_integral(RatFun.simple_pole(1j)) == pytest.approx(PI * 1j)
    assert pv_integral(RatFun.simple_pole(-1j)) == pytest.approx(-PI * 1j)


def test_pv_second_order_zero():
    assert pv_integral(RatFun(Poly([1]), poly_from_roots([1j, 1j]))) == pytest.approx(0.0)


def test_pv_residue_oracle():
    # oracle: 2*pi*i * res_{x=i} 1/((x-i)(x+2i)) = 2*pi*i/(3i) = 2*pi/3
    f = RatFun(Poly([1]), poly_from_roots([1j, -2j]))
    assert pv_integral(f) == pytest.approx(2 * PI / 3)


def test_pv_rejects_real_pole():
    with pytest.raises(ValueError):
        pv_integral(RatFun.simple_pole(0.5))


def test_cauchy_single_residue():
    # oracle: f=1/(t+i), lam=i: 2*pi*i*res_{t=i} 1/((t+i)(t-i)) = 2*pi*i/(2i) = pi
    assert cauchy_transform(RatFun.simple_pole(-1j), 1j) == pytest.approx(PI)


def test_cauchy_same_halfplane_vanishes():
    f = RatFun(Poly([1, 1j]), poly_from_roots([1j, 2j, 3j]))  # poles upper
    # for f with all poles in C+ and lam in C+, contour closes below: 0
    assert cauchy_transform(f, 0.5 + 2.5j) == pytest.approx(0.0, abs=1e-12)


def test_cauchy_zero():
    assert cauchy_transform(RatFun.zero(), 1j) == 0


def test_cauchy_refuses_only_poles_across_the_axis():
    # a pole on lam's own side is no term of the closed form
    assert cauchy_transform(RatFun.simple_pole(1j), 1j) == 0
    # oracle: 2 pi i / (lam + 2i) at lam = i, and -2 pi i / (lam - i) at
    # lam = -2i; both are 2 pi / 3
    f = RatFun.simple_pole(1j) + RatFun.simple_pole(-2j)
    assert cauchy_transform(f, 1j) == pytest.approx(2 * PI / 3, rel=1e-15)
    got = cauchy_transform(f, np.array([1j, -2j]))
    assert got.tolist() == [cauchy_transform(f, 1j), cauchy_transform(f, -2j)]
    assert got == pytest.approx([2 * PI / 3] * 2, rel=1e-15)
    # a pole across the axis next to lam is still refused
    near = RatFun.simple_pole(-1.5e-9j)
    with pytest.raises(ValueError):
        cauchy_transform(near, 1.5e-9j)
    with pytest.raises(ValueError):
        cauchy_transform(near, np.array([1j, 1.5e-9j]))


def test_inner_product_disjoint_halfplanes():
    assert inner_product(RatFun.simple_pole(-2j), RatFun.simple_pole(3j)) == pytest.approx(0.0)


def test_inner_product_norm():
    # oracle: int dx/(x^2+1) = pi
    f = RatFun.simple_pole(1j)
    assert inner_product(f, f) == pytest.approx(PI)
    assert l2_norm(f) == pytest.approx(np.sqrt(PI))


def test_inner_product_with_a_constant_part():
    # oracle: int conj(g) = 0 for g = 1/(x - 2i)^2, and
    # int dx/((x - i)(x + 2i)^2) = 2 pi i res_{x=i} = 2 pi i/(3i)^2
    f = RatFun.const(1.0) + RatFun.simple_pole(1j)
    g = RatFun.simple_pole(2j) * RatFun.simple_pole(2j)
    assert inner_product(f, g) == pytest.approx(-2j * PI / 9, abs=1e-14)
    with pytest.raises(ValueError, match="decay"):
        inner_product(f, RatFun.simple_pole(2j))


def test_inner_product_zero():
    assert inner_product(RatFun.simple_pole(1j), RatFun.zero()) == 0


def test_reduction_cancels():
    f = RatFun(poly_from_roots([1j, 5.0]), poly_from_roots([1j, 5.0, -2j]))
    assert len(f.poles) == 1
    assert f.poles[0].location == pytest.approx(-2j)


def test_is_L2_flag():
    assert RatFun.simple_pole(1j).is_L2
    assert not RatFun.simple_pole(0.0).is_L2          # real pole
    assert not rat([1, 1], [2, 1]).is_L2              # no decay


# ---------------------------------------------------------------------------
# pole-residue form against a 40-digit mpmath oracle
# ---------------------------------------------------------------------------

def build(terms):
    """RatFun from (z, k, c) terms, c/(x - z)^k, through the pole-form API."""
    out = RatFun.zero()
    for z, k, c in terms:
        t = RatFun.simple_pole(z)
        for _ in range(k - 1):
            t = t * RatFun.simple_pole(z)
        out = out + c * t
    return out


def random_terms(rng, n):
    """n poles of order 1 or 2, at least 0.3 off the axis."""
    out = []
    for _ in range(n):
        z = complex(rng.uniform(-2, 2),
                    (0.3 + rng.uniform(0, 1.5)) * (1 if rng.random() < 0.5 else -1))
        out.append((z, int(rng.integers(1, 3)), complex(rng.normal(), rng.normal())))
    return out


def mp_value(mp, terms, x):
    x = mp.mpc(x)
    return sum(mp.mpc(c) / (x - mp.mpc(z)) ** k for z, k, c in terms)


XS = (-3.1, -0.7, 0.0, 0.45, 1.3, 2.9, 7.5, -42.0)


def assert_values(f, want, rel=1e-11):
    got = np.array([complex(f(x)) for x in XS])
    want = np.array([complex(w) for w in want])
    assert np.max(np.abs(got - want)) <= rel * (1 + np.max(np.abs(want)))


def oracle_cases(seed):
    """(f terms, g terms) with coincident poles (orders merge) and, every
    other seed, a pole of g clustered 0.06 away from one of f."""
    rng = np.random.default_rng(seed)
    tf = random_terms(rng, int(rng.integers(1, 4)))
    tg = random_terms(rng, int(rng.integers(1, 3)))
    z = tf[0][0]
    tg.append((z, int(rng.integers(1, 3)), complex(rng.normal(), rng.normal())))
    if seed % 2:
        tg.append((z + 0.06 * np.exp(2j * PI * rng.random()), 1,
                   complex(rng.normal(), rng.normal())))
    return tf, tg


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pole_form_arithmetic_oracle(seed):
    mp = pytest.importorskip("mpmath")
    tf, tg = oracle_cases(seed)
    f, g = build(tf), build(tg)
    with mp.workdps(40):
        fv = [mp_value(mp, tf, x) for x in XS]
        gv = [mp_value(mp, tg, x) for x in XS]
        assert_values(f + g, [a + b for a, b in zip(fv, gv)])
        assert_values(f - 2.5 * g, [a - 2.5 * b for a, b in zip(fv, gv)])
        assert_values(f * g, [a * b for a, b in zip(fv, gv)])
        assert_values(conj_reflect(f), [mp.conj(a) for a in fv])
        assert_values(f * RatFun(Poly([-0.3 + 1j, 1.0])),
                      [(x - mp.mpc(0.3, -1)) * a for x, a in zip(XS, fv)])
    # the shared pole carries the merged order of the product
    z = tf[0][0]
    (order,) = [p.order for p in (f * g).poles if p.location == z]
    assert order == ([p.order for p in f.poles if p.location == z][0]
                     + [p.order for p in g.poles if p.location == z][0])


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pole_form_transforms_oracle(seed):
    from fmlab.hardy import riesz_split
    mp = pytest.importorskip("mpmath")
    tf, tg = oracle_cases(seed)
    f, g = build(tf), build(tg)
    plus, minus = riesz_split(f)
    assert all(p.location.imag < 0 for p in plus.poles)
    assert all(p.location.imag > 0 for p in minus.poles)
    lams = np.array([0.4 + 0.9j, -1.3 - 0.35j])
    with mp.workdps(40):
        assert_values(plus, [mp_value(mp, [t for t in tf if t[0].imag < 0], x) for x in XS])
        assert_values(minus, [mp_value(mp, [t for t in tf if t[0].imag > 0], x) for x in XS])
        cuts = [-mp.inf, -5, -2, 0, 2, 5, mp.inf]

        def line(h):
            return complex(mp.quad(h, cuts))

        want = [line(lambda t, lam=lam: mp_value(mp, tf, t) / (t - mp.mpc(lam)))
                for lam in lams]
        pairing = line(lambda t: mp_value(mp, tf, t) * mp.conj(mp_value(mp, tg, t)))
    got = cauchy_transform(f, lams)
    assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.max(np.abs(want)))
    scalar = [cauchy_transform(f, lam) for lam in lams]
    assert np.max(np.abs(got - scalar)) <= 1e-14 * (1 + np.max(np.abs(got)))
    assert abs(inner_product(f, g) - pairing) <= 1e-10 * (1 + abs(pairing))


def test_clustered_poles_of_the_resolvent_property_case():
    # the draws of test_friedrichs.test_resolvent_residual_property at
    # hypothesis seed 2184: two poles of phi are 0.09 apart
    from fmlab.friedrichs import FriedrichsModel, verify_identity
    rng = np.random.default_rng(2184)

    def draw():
        n = int(rng.integers(1, 4))
        poles = rng.normal(size=n) + 1j * np.sign(rng.normal(size=n)) * (0.1 + rng.random(n))
        return rng.normal(size=n) + 1j * rng.normal(size=n), poles

    phi_d, psi_d = draw(), draw()
    B = complex(rng.normal(), rng.normal())
    lam = complex(rng.normal(), np.sign(rng.normal()) * (0.3 + rng.random()))
    g_d = draw()
    phi, psi, g = (RatFun(Poly(n), poly_from_roots(p)) for n, p in (phi_d, psi_d, g_d))
    sep = min(abs(a - b) for i, a in enumerate(phi_d[1]) for b in phi_d[1][:i])
    assert sep < 0.1
    assert verify_identity("resolvent", FriedrichsModel(phi, psi, B), lam=lam, g=g) < 1e-10
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def value(data, t, conj=False):
            num, poles = data
            v = mp.polyval([mp.mpc(c) for c in num[::-1]], t) / mp.fprod(t - mp.mpc(p) for p in poles)
            return mp.conj(v) if conj else v

        cuts = [-mp.inf, -2, -0.5, 0, 0.5, 2, mp.inf]
        want_c = complex(mp.quad(lambda t: value(g_d, t) * value(phi_d, t, True)
                                 / (t - mp.mpc(lam)), cuts))
        want_i = complex(mp.quad(lambda t: value(phi_d, t) * value(g_d, t, True), cuts))
        want_v = [value(g_d, mp.mpf(x)) * value(phi_d, mp.mpf(x), True) for x in XS]
    assert_values(g * conj_reflect(phi), want_v)
    got = cauchy_transform(g * conj_reflect(phi), lam)
    assert abs(got - want_c) <= 1e-11 * (1 + abs(want_c))
    assert abs(inner_product(phi, g) - want_i) <= 1e-11 * (1 + abs(want_i))


def test_near_cancellation_drops_the_pole():
    # f - f' with f' = f up to rounding: every coefficient cancels
    f = build([(1 + 1j, 2, 0.3 - 2j), (-0.5 - 0.7j, 1, 1.1)])
    # the same function from coefficients, equal up to rounding, with the
    # denominator roots given or found (a double root)
    g = RatFun(f.num, f.den, den_roots=[(1 + 1j, 2), (-0.5 - 0.7j, 1)])
    assert (f - g).is_zero
    assert (f - RatFun(f.num, f.den)).is_zero
    assert (f - (7.0 * f) * (1 / 7.0)).is_zero
    # a zero of one factor on a pole of the other cancels in the product
    h = RatFun.simple_pole(-2j) * RatFun(Poly([2j, 1.0])) * RatFun.simple_pole(3j)
    assert [p.location for p in h.poles] == [3j]
    assert h.decay_order == 1


def test_poly_roots_double_and_clustered():
    p = poly_from_roots([1 + 2j, 1 + 2j, -3, 0.5j])
    got = sorted(poly_roots(p), key=lambda t: (t[0].real, t[0].imag))
    assert [m for _, m in got] == [1, 1, 2]
    # the merged root is polished on p', where it is simple
    assert got[2][0] == pytest.approx(1 + 2j, abs=1e-13)
    ((z, m),) = [t for t in poly_roots(poly_from_roots([0.7] * 3 + [2j])) if t[1] > 1]
    assert m == 3 and abs(z - 0.7) < 1e-12
    # roots 1e-3 apart stay distinct and accurate
    p = poly_from_roots([1.0, 1.001, -2j, 3.0, 0.2 - 0.1j])
    got = poly_roots(p)
    assert sorted(m for _, m in got) == [1] * 5
    for r in (1.0, 1.001, -2j, 3.0, 0.2 - 0.1j):
        assert min(abs(z - r) for z, _ in got) < 1e-10
    # roots 1e-11 apart are one double root
    got = poly_roots(poly_from_roots([0.7, 0.7 + 1e-11, 2j]))
    assert sorted(m for _, m in got) == [1, 2]
    # over widely spread roots the Newton step leaves each within a few ulps
    want = [1e-5, 1 + 1j, 3e3, -2e2j]
    got = poly_roots(poly_from_roots(want))
    for r in want:
        assert min(abs(z - r) for z, _ in got) <= 8 * np.finfo(float).eps * abs(r)


def test_lazy_caches_give_the_same_bits_cold_or_warm():
    from fmlab.friedrichs import FriedrichsModel, verify_identity

    def fresh():
        locs = [0.3 + 1j, -1.2 - 0.4j, 0.9 - 1.6j]
        num = Poly([0.5 - 1j, 1.5 + 0.2j, -0.7j])
        phi = RatFun(num, poly_from_roots(locs), den_roots=[(z, 1) for z in locs])
        psi = RatFun(Poly([1.0, 1j]), poly_from_roots([-1j, 2 + 0.5j]))
        return phi, psi

    def outputs(phi, psi):
        model = FriedrichsModel(phi, psi, 0.4 - 0.1j)
        return (verify_identity("resolvent", model, lam=0.2 + 0.8j, g=psi),
                verify_identity("fund", model, lam=0.2 + 0.8j, mu=-1j, mu_t=1.5j),
                phi(np.array(XS)).tolist(), psi.num.coeffs.tolist(),
                cauchy_transform(phi, 0.3 - 2j), inner_product(phi, psi))

    cold = outputs(*fresh())
    phi, psi = fresh()
    phi.num, psi.poles, phi(1.0), psi(np.array([100.0]))     # fill the caches
    assert outputs(phi, psi) == cold
    assert outputs(phi, psi) == cold                          # and again, warm
