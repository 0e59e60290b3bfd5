"""Tests for Riesz projections, boundary values, quadrature and factorization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmlab import hardy
from fmlab.ratfun import (Poly, RatFun, cauchy_transform, poly_from_roots, poly_roots,
                          conj_reflect)
from fmlab.hardy import (
    _CHUNK, _NODES, _WEIGHTS, PiecewiseFun, QuadratureError, blaschke_build,
    boundary_value, cauchy_transform_num, factorize_rational, piecewise_product,
    quad_gk, quad_real_line, riesz_split,
)

PI = np.pi


def random_l2(rng, n_max=4, min_im=0.3):
    n = int(rng.integers(1, n_max + 1))
    poles = rng.normal(size=n) + 1j * np.sign(rng.normal(size=n)) * (min_im + rng.random(n))
    num = rng.normal(size=n) + 1j * rng.normal(size=n)
    return RatFun(Poly(num), poly_from_roots(poles))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quad_gk_gaussian():
    assert quad_gk(lambda t: np.exp(-t * t), -12, 12) == pytest.approx(np.sqrt(PI), abs=1e-10)


def test_quad_real_line_lorentzian():
    f = RatFun.simple_pole(1j)
    val = quad_real_line(lambda t: f(t) * np.conj(f(t)))
    assert val == pytest.approx(PI, abs=1e-8)


def test_quad_real_line_symmetric_limit():
    # decay-1 integrand: symmetric limit of int 1/(t-i) = pi*i
    f = RatFun.simple_pole(1j)
    assert quad_real_line(lambda t: f(t)) == pytest.approx(PI * 1j, abs=1e-8)


def reference_quad_gk(f, a, b, tol=1e-9, budget=10 ** 4, stats=None):
    """One-panel-at-a-time depth-first version of quad_gk: the oracle for the
    batched kernel.  ``stats`` counts panels and tiny-width stops."""
    stats = {} if stats is None else stats
    stats.update(panels=0, tiny=0)
    stack = [(float(a), float(b), tol)]
    total = 0j
    while stack:
        lo, hi, t = stack.pop()
        stats["panels"] += 1
        if stats["panels"] > budget:
            raise QuadratureError("panel budget exhausted")
        h = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + h * _NODES
        y = np.asarray(f(x), dtype=complex)
        k15 = h * np.sum(_WEIGHTS[0] * y)
        err = abs(k15 - h * np.sum(_WEIGHTS[1] * y))
        if err <= t or hi - lo < 1e-14 * (1 + abs(lo)):
            stats["tiny"] += err > t
            total += k15
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, 0.5 * t))
            stack.append((mid, hi, 0.5 * t))
    return total


def counting(f, sizes):
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def same_bits(u, v):
    return np.array([u]).view(np.uint64).tolist() == np.array([v]).view(np.uint64).tolist()


def smooth(t):
    return np.exp(-t * t) * np.cos(3 * t) + 1j * np.sin(t)


def pole(lam):
    return lambda t: 1.0 / (t - lam)


def test_quad_gk_bitwise_smooth():
    for a, b, tol in ((-12, 12, 1e-9), (0, 1, 1e-13), (-3, 0.5, 1e-6)):
        assert same_bits(quad_gk(smooth, a, b, tol=tol),
                         reference_quad_gk(smooth, a, b, tol=tol))
    # the running total starts from 0j, which turns a -0.0 panel sum into +0.0
    assert same_bits(quad_gk(np.zeros_like, 1, 0), reference_quad_gk(np.zeros_like, 1, 0))


def test_quad_gk_bitwise_near_singular():
    rng = np.random.default_rng(11)
    most = 0
    for _ in range(25):
        f = pole(complex(rng.uniform(-1, 2), rng.choice([-1, 1]) * 10 ** rng.uniform(-5, 0)))
        stats = {}
        want = reference_quad_gk(f, -1, 2, stats=stats)
        assert same_bits(quad_gk(f, -1, 2), want)
        most = max(most, stats["panels"])
    assert most > 300


def test_quad_gk_bitwise_indicator_jump():
    # a jump at an irrational point is never resolved: refinement stops on
    # the tiny-width rule
    c = np.sqrt(2) - 1

    def f(t):
        return (t >= c) * np.exp(t)

    stats = {}
    want = reference_quad_gk(f, 0, 1, stats=stats)
    assert stats["tiny"] >= 1
    assert same_bits(quad_gk(f, 0, 1), want)
    assert quad_gk(f, 0, 1) == pytest.approx(np.e - np.exp(c), abs=1e-12)


def test_quad_gk_budget_matches_reference():
    f = pole(0.3 + 1e-5j)
    stats = {}
    reference_quad_gk(f, 0, 1, stats=stats)
    n = stats["panels"]
    assert same_bits(quad_gk(f, 0, 1, budget=n), reference_quad_gk(f, 0, 1, budget=n))
    for budget in (n - 1, n // 2, 1):
        with pytest.raises(QuadratureError):
            reference_quad_gk(f, 0, 1, budget=budget)
        with pytest.raises(QuadratureError, match="worst panel error estimate"):
            quad_gk(f, 0, 1, budget=budget)


def test_quad_gk_calls_are_chunked_and_few():
    def f(t):
        return np.sin(40 * t) * np.exp(-0.1 * t)

    stats = {}
    want = reference_quad_gk(f, 0, 100, tol=1e-12, stats=stats)
    sizes = []
    assert same_bits(quad_gk(counting(f, sizes), 0, 100, tol=1e-12), want)
    assert max(sizes) == _CHUNK * len(_NODES)            # some level was split up
    assert sum(sizes) == stats["panels"] * len(_NODES)   # every panel once
    assert len(sizes) * 20 < stats["panels"]


# ---------------------------------------------------------------------------
# Riesz projections
# ---------------------------------------------------------------------------

def test_riesz_pure_minus():
    plus, minus = riesz_split(RatFun.simple_pole(1j))
    assert plus.is_zero
    assert minus(0.7) == pytest.approx(RatFun.simple_pole(1j)(0.7))


def test_riesz_partial_fraction_oracle():
    # oracle: 1/(x^2+1) = (1/2i)/(x-i) - (1/2i)/(x+i); plus carries the pole at -i
    f = RatFun(Poly([1.0]), Poly([1, 0, 1]))
    plus, minus = riesz_split(f)
    for x in (0.3, -1.7):
        assert plus(x) == pytest.approx((-1 / 2j) / (x + 1j))
        assert minus(x) == pytest.approx((1 / 2j) / (x - 1j))


def test_riesz_completeness_and_idempotence():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_l2(rng)
        plus, minus = riesz_split(f)
        xs = rng.normal(size=7)
        assert np.allclose(plus(xs) + minus(xs), f(xs), atol=1e-10)
        pp, pm = riesz_split(plus)
        assert pm.is_zero or max(abs(pm(xs))) < 1e-12
        mp, _ = riesz_split(minus)
        assert mp.is_zero or max(abs(mp(xs))) < 1e-12


def test_riesz_rejects_real_pole():
    with pytest.raises(ValueError):
        riesz_split(RatFun.simple_pole(0.2))


# ---------------------------------------------------------------------------
# boundary values / Sokhotski-Plemelj
# ---------------------------------------------------------------------------

def test_plemelj_jump_example():
    f = RatFun(Poly([1.0]), Poly([1, 0, 1]))
    jump = boundary_value(f, 0.0, "+") - boundary_value(f, 0.0, "-")
    assert jump == pytest.approx(2j * PI * f(0.0))


def test_jump_vanishes_where_f_vanishes():
    # f(0) = 0: one-sided values coincide
    f = RatFun(Poly([0, 1.0]), Poly([1, 0, 0, 0, 1]))
    jump = boundary_value(f, 0.0, "+") - boundary_value(f, 0.0, "-")
    assert abs(jump) < 1e-12


def test_indicator_boundary_value_off_support():
    # oracle: closed-form log antiderivative int_0^1 dt/(t-2) = ln((1-2)/(0-2)) = -ln 2
    chi = PiecewiseFun.indicator(0.0, 1.0)
    assert boundary_value(chi, 2.0, "+") == pytest.approx(-np.log(2), abs=1e-9)


def test_indicator_cauchy_transform_closed_form():
    chi = PiecewiseFun.indicator(0.0, 1.0)
    # oracle: ln((1-i)/(-i)) = ln sqrt(2) + i pi/4
    assert cauchy_transform_num(chi, 1j) == pytest.approx(
        0.5 * np.log(2) + 1j * PI / 4, abs=1e-9)
    for lam in (0.3 + 0.7j, -2.0 - 1.3j):
        assert cauchy_transform_num(chi, lam) == pytest.approx(
            np.log((1 - lam) / (0 - lam)), abs=1e-9)


def test_piecewise_product_pieces():
    ind = PiecewiseFun.indicator(0.0, 2.0)
    r = RatFun.simple_pole(1j)
    prod = piecewise_product(ind, PiecewiseFun.indicator(1.0, 3.0))
    assert [(p.a, p.b, p.kind) for p in prod.pieces] == [(1.0, 2.0, "indicator")]
    prod = piecewise_product(PiecewiseFun.restriction(r, -1.0, 1.5), ind)
    assert [(p.a, p.b, p.kind) for p in prod.pieces] == [(0.0, 1.5, "rational-restriction")]
    assert prod(0.7) == pytest.approx(r(0.7)) and prod(1.7) == 0
    prod = piecewise_product(PiecewiseFun.restriction(r, -1.0, 1.5),
                             PiecewiseFun.restriction(r, 1.0, 4.0))
    assert prod(1.2) == pytest.approx(r(1.2) ** 2) and prod(0.5) == 0
    assert piecewise_product(ind, PiecewiseFun.indicator(2.0, 3.0)).pieces == ()
    recip = PiecewiseFun.reciprocal_cauchy((5.0, 6.0), (1.0, 3.0))
    assert piecewise_product(recip, PiecewiseFun.indicator(3.0, 4.0)).pieces == ()
    prod = piecewise_product(ind, recip)
    assert [(p.a, p.b, p.kind, p.payload) for p in prod.pieces] == [
        (1.0, 2.0, "reciprocal-cauchy-of", (5.0, 6.0))]
    assert prod(1.5) == recip(1.5) and prod(2.5) == 0
    for other in (recip, PiecewiseFun.restriction(r, 2.0, 4.0)):
        with pytest.raises(ValueError, match="reciprocal-cauchy-of"):
            piecewise_product(other, recip)
    # two rational factors: their product
    xs = np.linspace(-3.0, 3.0, 13)
    assert same_bits(piecewise_product(r, conj_reflect(r))(xs), (r * conj_reflect(r))(xs))


def test_piecewise_plemelj():
    chi = PiecewiseFun.indicator(-1.0, 2.0)
    k = 0.37
    jump = boundary_value(chi, k, "+") - boundary_value(chi, k, "-")
    assert jump == pytest.approx(2j * PI, abs=1e-9)


# indicator transforms in closed form: lam = k +- i eps next to the support,
# near each endpoint, and far out, against 40-digit mpmath logarithms
IND = (-0.7, 1.3)
INDS = (IND, (0.3, 0.31))      # the short one: the ratio is 1 + 1e-6 at 1e4


def _ind_ks(a, b):
    w = b - a
    return (-1e4, a - 2.3, a - 1e-7, a + 1e-7, a + 0.01 * w, a + 0.5 * w,
            b - 0.01 * w, b - 1e-7, b + 1e-7, b + 1.2, 1e4)


def _no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quad_gk called on a closed-form path")
    monkeypatch.setattr(hardy, "quad_gk", refuse)


@pytest.mark.parametrize("a, b", INDS)
def test_indicator_transform_matches_mpmath(monkeypatch, a, b):
    mp = pytest.importorskip("mpmath")
    _no_quadrature(monkeypatch)
    chi = PiecewiseFun.indicator(a, b)
    lams = [complex(k, s * e) for k in _ind_ks(a, b) for e in (1e-3, 1e-6, 1e-8)
            for s in (1, -1)]
    lams += [1e4j, -1e4j, 3e3 - 7e3j]
    with mp.workdps(40):
        for lam in lams:
            z = mp.mpc(lam.real, lam.imag)
            # a, b and lam off the segment: the two principal logs do not cross a cut
            want = complex(mp.log(b - z) - mp.log(a - z))
            got = cauchy_transform_num(chi, lam)
            assert abs(got - want) <= 1e-12 * abs(want), lam


def test_indicator_transform_branch_against_quadrature():
    # the closed form is the integral itself, on both sides of the axis
    chi = PiecewiseFun.indicator(*IND)
    for lam in (0.3 + 0.2j, 0.3 - 0.2j, -0.69 + 0.05j, 2.5 - 1j, -4 + 3j):
        want = quad_gk(lambda t: 1 / (t - lam), *IND, tol=1e-11)
        assert abs(cauchy_transform_num(chi, lam) - want) < 1e-10


@pytest.mark.parametrize("a, b", INDS)
def test_indicator_boundary_value_matches_mpmath(monkeypatch, a, b):
    mp = pytest.importorskip("mpmath")
    _no_quadrature(monkeypatch)
    chi = PiecewiseFun.indicator(a, b)
    with mp.workdps(40):
        for k in _ind_ks(a, b):
            inside = a < k < b
            for s, side in ((1, "+"), (-1, "-")):
                pv = mp.log(abs((b - mp.mpf(k)) / (a - mp.mpf(k))))
                want = complex(pv + (s * 1j * mp.pi if inside else 0))
                got = boundary_value(chi, k, side)
                assert abs(got - want) <= 1e-12 * abs(want), (k, side)
                # the boundary value is the limit of the transform
                if min(abs(k - a), abs(k - b)) > 1e-2:
                    near = cauchy_transform_num(chi, complex(k, s * 1e-8))
                    assert abs(near - got) < 1e-5 * abs(got), (k, side)


RC = PiecewiseFun.reciprocal_cauchy((0.0, 1.0), (2.0, 3.0))


def test_reciprocal_cauchy_subtracted_transform_matches_quadrature():
    (p,) = RC.pieces
    lams = [complex(k, s * e) for k in (2.0001, 2.5, 2.62, 2.999) for e in (1e-3, 1e-6)
            for s in (1, -1)]
    lams += [2.5 + 0.7j, 1.6 - 0.3j, 3.4 + 0.2j, 0.5 + 0.5j, 40 - 3j]
    for lam in lams:
        # plain quadrature of p(t)/(t - lam) on panels graded geometrically
        # towards the peak of the integrand
        k = min(max(lam.real, 2.0), 3.0)
        cuts = sorted({2.0, 3.0, k} | {c for m in range(9) for c in (k - 10.0 ** -m, k + 10.0 ** -m)
                                       if 2.0 < c < 3.0})
        want = sum(quad_gk(lambda t: p.evaluate(t) / (t - lam), lo, hi, tol=1e-12)
                   for lo, hi in zip(cuts, cuts[1:]))
        got = cauchy_transform_num(RC, lam)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), lam


def test_principal_value_at_a_quadrature_node():
    # k = 2.5 is the centre node of the first panel on [2, 3]: the subtracted
    # integrand is 0/0 there, and the value is still the principal value
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        f = lambda t: 1 / mp.log((t - 1) / t)
        for k in (mp.mpf("2.5"), mp.mpf("2.3")):
            fk = f(k)
            want = complex(mp.quad(lambda t: (f(t) - fk) / (t - k), [2, k, 3])
                           + fk * mp.log((3 - k) / (k - 2)))
            assert abs(cauchy_transform_num(RC, float(k)) - want) < 1e-13, k


def test_reciprocal_cauchy_subtraction_keeps_integrand_bounded(monkeypatch):
    # next to the support the subtracted integrand is smooth: a few panels
    points = []
    quad = hardy.quad_gk

    def counting(f, a, b, **kw):
        return quad(lambda t: (points.append(t.size), f(t))[1], a, b, **kw)

    monkeypatch.setattr(hardy, "quad_gk", counting)
    for lam in (2.5 + 1e-6j, 2.0001 - 1e-6j, 2.999 + 1e-8j):
        points.clear()
        cauchy_transform_num(RC, lam)
        assert sum(points) <= 15 * 8, lam


# one entry point per transform for both kinds of data, at one point or many
KINDS = {
    "ratfun": RatFun(Poly([1.0, 2.0 - 1j]), poly_from_roots([0.5 - 1j, -1 + 2j])),
    "indicator": PiecewiseFun.indicator(*IND),
    "restriction": PiecewiseFun.restriction(RatFun.simple_pole(0.3 + 1j), -0.5, 1.5),
    "reciprocal-cauchy": RC,
}


@pytest.mark.parametrize("name", sorted(KINDS))
def test_array_call_is_the_scalar_calls(name):
    f = KINDS[name]
    ks = np.array([-2.3, -0.2, 0.41, 1.1, 2.62, 3.7])
    for side, sgn in (("+", 1.0), ("-", -1.0)):
        assert same_bits(boundary_value(f, ks, side),
                         [boundary_value(f, k, side) for k in ks])
        # one principal value under both sides: PV(k) +- i pi f(k), inside a
        # piece and off the support alike
        assert same_bits(boundary_value(f, ks, side),
                         cauchy_transform_num(f, ks) + sgn * 1j * PI * f(ks))
        for k in ks:
            pv = cauchy_transform_num(f, k)
            jump = boundary_value(f, k, side) - pv
            assert abs(jump - sgn * 1j * PI * f(k)) <= 1e-14 * (1 + abs(pv)), (k, side)
    # the last point is in the real band: a principal value
    lams = np.array([0.4 + 0.8j, -1.1 - 0.3j, 2.5 + 1e-3j, 1.9 - 2.2j, 0.41 + 1e-12j])
    got = cauchy_transform_num(f, lams)
    assert same_bits(got, [cauchy_transform_num(f, lam) for lam in lams])
    assert got.shape == lams.shape and isinstance(cauchy_transform_num(f, lams[0]), complex)
    if name == "ratfun":
        assert same_bits(got[:-1], cauchy_transform(f, lams[:-1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_plemelj_property_random(seed):
    rng = np.random.default_rng(seed)
    f = random_l2(rng)
    k = float(rng.normal() * 2)
    jump = boundary_value(f, k, "+") - boundary_value(f, k, "-")
    assert abs(jump - 2j * PI * f(k)) <= 1e-9 * (1 + abs(f(k)))


def test_boundary_value_rejects_unknown_side():
    # only "+" and "-" name a side; anything else once answered for k - i0
    for f in (RatFun.simple_pole(1j), PiecewiseFun.indicator(0, 1)):
        for side in ("up", "", +1, -1, None):
            with pytest.raises(ValueError, match="side"):
                boundary_value(f, 0.5, side)


def test_uniqueness_lemma_discriminates():
    # a decaying rational with zero jump on R and zero transform off R must be 0;
    # the sampled criterion accepts 0 and rejects 1/(x-i)
    def looks_zero(g):
        ks = np.linspace(-5, 5, 50)
        for k in ks:
            if abs(boundary_value(g, k, "+") - boundary_value(g, k, "-")) > 1e-10:
                return False
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = complex(rng.normal(), np.sign(rng.normal()) * (0.5 + rng.random()))
            from fmlab.ratfun import cauchy_transform
            if abs(cauchy_transform(g, lam)) > 1e-10:
                return False
        return True

    assert looks_zero(RatFun.zero())
    assert not looks_zero(RatFun.simple_pole(1j))


# ---------------------------------------------------------------------------
# Blaschke / factorization
# ---------------------------------------------------------------------------

def test_blaschke_phase_normalization():
    b = blaschke_build([-2j])
    assert np.exp(1j * b.phases[0]) == pytest.approx(-1.0)   # theta = pi mod 2pi
    z = 0.4
    assert b(z) == pytest.approx(-(z + 2j) / (z - 2j))
    val = np.exp(1j * b.phases[0]) * (1j + 2j) / (1j - 2j)
    assert abs(val.imag) < 1e-12 and val.real >= 0


def test_blaschke_unimodular_on_axis():
    b = blaschke_build([(-1j - 1, 1), (-1j + 1, 2)])
    for t in np.linspace(-9, 9, 20):
        assert abs(abs(b(t)) - 1.0) < 1e-12


def test_blaschke_contractive_below():
    b = blaschke_build([-1j - 1, -1j + 1])
    assert abs(b(-3j)) < 1


def test_blaschke_rejects_bad_zeros():
    with pytest.raises(ValueError):
        blaschke_build([0.5])
    with pytest.raises(ValueError):
        blaschke_build([-1j])


def test_factorize_already_outer():
    f = RatFun(Poly([1.0]), poly_from_roots([2j]))
    fac = factorize_rational(f)
    assert fac.blaschke.degree == 0
    assert fac.outer(0.3 - 0.4j) == pytest.approx(f(0.3 - 0.4j))


def test_factorize_one_zero():
    f = RatFun(poly_from_roots([-2j]), poly_from_roots([3j]))
    fac = factorize_rational(f)
    assert fac.blaschke.degree == 1
    assert fac.blaschke.zeros[0][0] == pytest.approx(-2j)
    # outer part zero-free below the axis
    assert not any(z.imag < -1e-9 for z, _ in poly_roots(fac.outer.num))
    for z in (0.2 - 0.5j, -1 - 2j, 4 - 0.1j):
        assert fac.blaschke(z) * fac.outer(z) == pytest.approx(f(z), rel=1e-8)


def test_factorize_shifted_resolvent_symbol():
    # a(z) = 1/(z-i) - mu has its only zero at i + 1/mu
    mu = 0.1 + 0.2j
    zero = 1j + 1 / mu
    assert zero.imag < 0
    a = RatFun(Poly([1.0]), poly_from_roots([1j])) - RatFun.const(mu)
    fac = factorize_rational(a)
    assert fac.blaschke.degree == 1
    assert fac.blaschke.zeros[0][0] == pytest.approx(zero, rel=1e-9)


def test_factorize_flags_boundary_zero():
    f = RatFun(poly_from_roots([0.0]), poly_from_roots([1j, 2j]))
    fac = factorize_rational(f)
    assert fac.degenerate and fac.boundary_zeros[0][0] == pytest.approx(0.0)
