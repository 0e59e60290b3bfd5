"""Tests for defect numbers, S-perp construction, jumps, and the symbol curve.

Frozen constants marked "oracle:" come from the independent method named in
the adjacent comment (closed-form root locations, direct numpy root counts in
a search script, or quadrature) and were hard-coded after verification.
"""
import numpy as np
import pytest

from fmlab.ratfun import (
    Poly, RatFun, poly_from_roots, poly_roots, conj_reflect, inner_product,
    l2_norm,
)
from fmlab.hardy import PiecewiseFun, boundary_value, piecewise_product
from fmlab.friedrichs import FriedrichsModel, apply_resolvent, solution_operator, tilde_model
from fmlab import detect, hardy, ratfun
from fmlab.detect import (
    _d_at, PiecewiseModel, alpha_pencil, cauchy_kernel_model, d_plus,
    defect_hardy_plus, disjoint_support_classify, jump_rank_check, mb_jump,
    pencil_roots, sperp_basis, sperp_residual, spectrum_T_membership,
    symbol_M_curve, toeplitz_defect, toeplitz_sperp_basis,
)
from fmlab.scancli import petal_figure_model

PI = np.pi


def pole_sum(locs, coeffs):
    out = RatFun.zero()
    for z, c in zip(locs, coeffs):
        out = out + RatFun.simple_pole(z, c)
    return out


# ---------------------------------------------------------------------------
# one-pole family: closed-form continuation root
# ---------------------------------------------------------------------------

Z1, W1 = -1j, 1j
PHI_ONE = RatFun.simple_pole(np.conj(W1))    # phibar = 1/(x - i)


def one_pole_model(alpha, B=0.0):
    return FriedrichsModel(PHI_ONE, RatFun.simple_pole(Z1, alpha), B)


def lam0_of(alpha):
    return Z1 + 2j * PI * alpha / (W1 - Z1)


def test_one_pole_defect_one():
    # oracle: lam0 = z1 + 2 pi i alpha/(w1 - z1) = i for alpha = 2i/pi
    mod = one_pole_model(2j / PI)
    rep = defect_hardy_plus(mod)
    assert rep.defect == 1 and (rep.N, rep.P, rep.M, rep.M0) == (1, 0, 0, 0)


def test_one_pole_defect_zero():
    rep = defect_hardy_plus(one_pole_model(1j / (2 * PI)))   # lam0 = -i/2
    assert rep.defect == 0 and rep.P == 1


def test_one_pole_real_root():
    rep = defect_hardy_plus(one_pole_model(1j / PI))         # lam0 = 0
    assert rep.defect == 0 and (rep.N, rep.M) == (1, 1) and rep.degenerate


def test_one_pole_alpha_sweep_classification():
    for alpha in np.exp(1j * np.linspace(0, 2 * PI, 100, endpoint=False)):
        lam0 = lam0_of(alpha)
        if abs(lam0.imag) < 1e-3:
            continue
        rep = defect_hardy_plus(one_pole_model(alpha))
        assert rep.defect == (1 if lam0.imag > 0 else 0)


def test_one_pole_basis_matches_closed_form():
    mod = one_pole_model(2j / PI)
    lam0 = lam0_of(2j / PI)
    (g,) = sperp_basis(mod)
    ref = RatFun(Poly([1.0]), poly_from_roots([np.conj(W1), np.conj(lam0)]))
    ref = ref * (1.0 / l2_norm(ref))
    ratio = g(0.3) / ref(0.3)
    xs = np.linspace(-3, 3, 9)
    assert np.max(np.abs(g(xs) - ratio * ref(xs))) < 1e-8


def test_one_pole_basis_residual_and_b_independence():
    mod = one_pole_model(2j / PI)
    (g,) = sperp_basis(mod)
    assert sperp_residual(mod, g) < 1e-8
    assert sperp_residual(mod, g, Bs=[0.0, 1.5 - 0.5j, -2.0]) < 1e-8
    assert sperp_residual(mod, RatFun.simple_pole(-2j)) > 1e-3


def test_one_pole_model_and_tilde_never_both_defective():
    for alpha in np.exp(1j * np.linspace(0.05, 2 * PI, 40, endpoint=False)):
        mod = one_pole_model(alpha)
        try:
            d = defect_hardy_plus(mod).defect
            dt = defect_hardy_plus(tilde_model(mod)).defect
        except (ValueError, RuntimeError):
            continue
        assert not (d >= 1 and dt >= 1)


def test_repeated_psi_pole_rejected():
    psi = RatFun(Poly([1.0]), poly_from_roots([-1j, -1j]))
    with pytest.raises(ValueError):
        defect_hardy_plus(FriedrichsModel(PHI_ONE, psi, 0.0))


def test_wrong_halfplane_rejected():
    with pytest.raises(ValueError):
        defect_hardy_plus(FriedrichsModel(RatFun.simple_pole(1j),
                                          RatFun.simple_pole(-1j), 0.0))


# ---------------------------------------------------------------------------
# two-pole petal family
# ---------------------------------------------------------------------------

ZP1, ZP2, WP1 = -1j, -2j, 1j
CONV = (ZP1 - WP1) * (ZP2 - WP1)      # = -6
PHI_PETAL = RatFun.simple_pole(-1j)   # phibar = 1/(x - i)


def petal_model(muhat, c1, c2):
    alpha = muhat * CONV / (2j * PI)
    psi = pole_sum([ZP1, ZP2], [c1 * alpha, c2 * alpha])
    return FriedrichsModel(PHI_PETAL, psi, 0.0)


def in_parabola(muhat):
    return muhat.imag ** 2 <= 0.5 * (1 + 3 * muhat.real)


def test_petal_parabola_classification():
    for muhat in (0.1 + 0j, 0.2 + 0.3j, -0.3 + 0.1j,
                  -1 + 0j, 2j, 1.0 - 1.5j, -0.5 + 0.6j):
        rep = defect_hardy_plus(petal_model(muhat, -2, 3))
        assert rep.defect == (0 if in_parabola(muhat) else 1), muhat


def test_petal_double_defect_inside():
    # oracle: with c = (-1, 3) the mu-plane petal is covered twice; the
    # interior point mu = -0.03 was located by sampling the curve
    # mu(lam) = sum c_j/((z_j - w1)(z_j - lam)) over real lam
    mu = -0.03
    alpha = 1.0 / (2j * PI * mu)
    psi = pole_sum([ZP1, ZP2], [-alpha, 3 * alpha])
    mod = FriedrichsModel(PHI_PETAL, psi, 0.0)
    rep = defect_hardy_plus(mod)
    assert rep.defect == 2 and rep.P == 0
    basis = sperp_basis(mod)
    gram = np.array([[inner_product(a, b) for b in basis] for a in basis])
    assert np.linalg.matrix_rank(gram, tol=1e-8) == 2
    for g in basis:
        assert sperp_residual(mod, g) < 1e-8


def test_petal_double_defect_outside_zero():
    for mu in (0.05j, 0.3 + 0j, 1.0 + 1.0j):
        alpha = 1.0 / (2j * PI * mu)
        psi = pole_sum([ZP1, ZP2], [-alpha, 3 * alpha])
        assert defect_hardy_plus(FriedrichsModel(PHI_PETAL, psi, 0.0)).defect == 0


@pytest.mark.parametrize("model", [
    FriedrichsModel(PHI_PETAL, pole_sum([ZP1, ZP2], [-2.0, 3.0]), 0.0),
    petal_figure_model()[0],
], ids=["two-pole", "four-pole"])
@pytest.mark.parametrize("alpha", [1.0, 0.4 - 0.9j])
def test_pencil_roots_are_d_plus_zeros(model, alpha):
    # the batched kernel (ascending companion coefficients) against the
    # Aberth zeros of the RatFun continuation of the scaled model
    roots = pencil_roots(alpha_pencil(model), [alpha])[0]
    scaled = FriedrichsModel(model.phi, model.psi * alpha, model.B)
    want = [z for z, m in poly_roots(d_plus(scaled).num) for _ in range(m)]
    assert len(roots) == len(want) == len(model.psi.poles)
    for z in want:
        assert np.min(np.abs(roots - z)) < 1e-10


def test_sperp_basis_on_double_root_at_phibar_zero():
    # phibar = (x - zeta)/((x - i)(x - 3i)) and psi = b1/(x + i) + b2/(x + 2i),
    # with b1, b2 solved so that P + 2 pi i Q = (x - zeta)^2: one copy of the
    # double zero of D_plus cancels against phibar, the other is P, and
    # phibar/D_plus keeps a simple pole at zeta, one constraint
    zeta = -0.3 - 0.8j
    phi = RatFun(Poly([-np.conj(zeta), 1.0]), poly_from_roots([-1j, -3j]))
    phibar = conj_reflect(phi)
    a1, a2 = np.linalg.solve(2j * PI * np.array([[1, 1], [2j, 1j]]),
                             [-2 * zeta - 3j, zeta ** 2 + 2])
    psi = pole_sum([-1j, -2j], [a1 / phibar(-1j), a2 / phibar(-2j)])
    mod = FriedrichsModel(phi, psi, 0.0)
    rep = defect_hardy_plus(mod)
    assert (rep.N, rep.P, rep.M, rep.M0, rep.defect) == (2, 1, 0, 0, 1)
    assert sorted(c for _, c in rep.roots) == ["CANCELLED", "P"]
    (g,) = sperp_basis(mod)
    assert sperp_residual(mod, g) < 1e-8


def test_dead_psi_pole_counts_at_every_scale():
    # the residue 1e-14 is below the cut at alpha = 1 and above it at
    # |alpha| > 10: one classification of the family agrees with the report
    # of each scaled model, and the dead pole keeps its root as EXCLUDED
    mod = FriedrichsModel(PHI_ONE, pole_sum([-1j, -2j], [1.0, 1e-14]), 0.0)
    alphas = [1.0, 5.0, 100.0, 100j, -70 + 70j, 1e3]
    want = [defect_hardy_plus(FriedrichsModel(mod.phi, mod.psi * a, 0.0)).defect
            for a in alphas]
    assert detect.pencil_defects(mod, alphas).tolist() == want
    assert want[1] != want[2]
    rep = defect_hardy_plus(mod)
    assert rep.N == 1 and [c for z, c in rep.roots if abs(z + 2j) < 1e-8] == ["EXCLUDED"]


def spy_calls(monkeypatch, name, *modules):
    """Patch `name` in each module with one wrapper that records its calls."""
    calls, real = [], getattr(modules[0], name)

    def spy(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    for mod in modules:
        monkeypatch.setattr(mod, name, spy)
    return calls


def test_each_count_reads_psi_once(monkeypatch):
    # alpha_pencil is the one reader of psi's partial fractions
    calls = spy_calls(monkeypatch, "partial_fractions", detect)
    model = petal_figure_model()[0]
    defect_hardy_plus(model)
    assert len(calls) == 1
    detect.pencil_defects(model, [1.0, 0.5j, -2.0])
    assert len(calls) == 2


def test_sperp_basis_finds_d_plus_zeros_once(monkeypatch):
    # one root finding gives the zeros of D_plus and the poles of 1/D_plus,
    # and D_plus is built from the pencil of the count's own classification:
    # psi is read once
    calls = spy_calls(monkeypatch, "poly_roots", detect, ratfun)
    reads = spy_calls(monkeypatch, "partial_fractions", detect)
    (g,) = sperp_basis(one_pole_model(2j / PI))
    assert len(calls) == 1 and len(reads) == 1


def double_root_model():
    """The model of test_sperp_basis_on_double_root_at_phibar_zero."""
    zeta = -0.3 - 0.8j
    phi = RatFun(Poly([-np.conj(zeta), 1.0]), poly_from_roots([-1j, -3j]))
    phibar = conj_reflect(phi)
    a1, a2 = np.linalg.solve(2j * PI * np.array([[1, 1], [2j, 1j]]),
                             [-2 * zeta - 3j, zeta ** 2 + 2])
    psi = pole_sum([-1j, -2j], [a1 / phibar(-1j), a2 / phibar(-2j)])
    return FriedrichsModel(phi, psi, 0.0)


def test_sperp_basis_finds_phibar_zeros_once(monkeypatch):
    # building the model finds psi's poles (degree 2); the classification
    # finds phibar's zeros (degree 1) and hands them on; the basis finds the
    # zeros of D_plus (degree 2)
    calls = spy_calls(monkeypatch, "poly_roots", detect, ratfun)
    (g,) = sperp_basis(double_root_model())
    assert [p.degree for (p, *_) in calls] == [2, 1, 2]


@pytest.mark.parametrize("model, dead", [
    (petal_figure_model()[0], 0),
    (FriedrichsModel(PHI_ONE, pole_sum([-1j, -2j, -1 - 0.5j], [1.0, 1e-14, 0.3j]), 0.0), 1),
], ids=["petal", "dead-residue"])
def test_continuation_terms_are_the_pencil_data(model, dead):
    # the curve's a_k and the pencil's are one computation: the same bits,
    # less the poles whose residue is at or below the cut
    pencil = alpha_pencil(model)
    live = np.array([abs(c) > detect._RESIDUE_CUT for c in pencil.cs.tolist()])
    terms = detect.continuation_terms(model)
    assert len(terms) == len(pencil.zs) - dead
    assert np.array([z for z, _ in terms]).tobytes() == pencil.zs[live].tobytes()
    assert np.array([a for _, a in terms]).tobytes() == pencil.a[live].tobytes()


def test_root_classes_one_rule():
    # data poles -i and -2i; phibar zeros: -0.5 - 0.5i simple, 0.3 + 0.2i double
    zs = np.array([-1j, -2j])
    zeros = [(-0.5 - 0.5j, 1), (0.3 + 0.2j, 2)]
    roots = np.array([
        [1 - 1e-10j, 1 + 1j, -1j + 1e-9, -0.5 - 0.5j, -0.5 - 0.5j + 1e-9],
        [0.3 + 0.2j, 0.3 + 0.2j + 1e-9, 0.3 + 0.2j - 1e-9j, 0.5 - 2j, -2j - 1e-7],
    ])
    names = [[detect._CLASS_NAMES[c] for c in row]
             for row in detect._root_classes(roots, zs, zeros)]
    assert names == [["M", "UPPER", "EXCLUDED", "CANCELLED", "P"],
                     ["CANCELLED", "CANCELLED", "UPPER", "P", "P"]]


# ---------------------------------------------------------------------------
# realizability of all defect pairs (d, d-tilde) in {0,1,2}^2
# ---------------------------------------------------------------------------

# oracle: located by randomized search with direct numpy root counting of the
# continued-determinant numerator, then re-verified through defect_hardy_plus
PAIR_MODELS = {
    (0, 0): ([0.97-1.16j, -1.63-1.78j, 0.16-0.91j], [0.16+0.34j, -0.02-0.16j, 0.16+0.05j], [0.39-0.96j, -1.76-0.85j], [-0.11-0.28j, 0.03-0.14j]),
    (0, 1): ([1.59-0.81j, 1.1-1.79j, -1.1-0.31j], [0.05+0.35j, -0.46-0.67j, -0.01-0.23j], [1.28-1.1j, 1.19-0.82j], [-0.94-0.91j, -0.64-0.12j]),
    (0, 2): ([-1.61-1.34j, 1.17-0.62j], [-23.37-11.33j, -20.36+9.37j], [0.79-1.25j, -0.6-0.76j, 0.09-1.01j], [-1.43+6.54j, -15.79-2.27j, 4.56-3.06j]),
    (1, 0): ([1.01-0.93j, -1.9-0.35j], [-3.97+9.9j, 0.72-3.67j], [-1.51-1.94j], [-2.75+0.91j]),
    (1, 1): ([-1.21-1.34j, 0.29-0.46j, 0.55-1.42j], [-13.37+34.58j, 6.08-23.78j, 5.8+15.16j], [0.53-0.86j, 1.3-1.53j, 1.21-1.77j], [-1.53-7.86j, -0.24+12.69j, -24.76-1.41j]),
    (1, 2): ([0.79-0.7j, -1.93-1.44j, 0.39-0.44j], [-4.04-0.32j, 1.32-0.98j, 1.97-0.95j], [1.53-1.47j], [3.71+1.65j]),
    (2, 0): ([-1.09-1.4j, -1.81-0.56j, -0.33-1.73j], [-0.73+19.03j, 14.75+10.55j, -13.22-5.66j], [-1.21-1.8j, 0.82-0.64j, -1.35-1.54j], [9.78-16.12j, -18.32-5.12j, -21.64-4.07j]),
    (2, 1): ([0.02-1.75j, 1.45-0.76j, -1.27-1.22j], [0.86+1.86j, -2.8-16.07j, 28.38+58.39j], [0.83-1.91j, -1.42-1.93j], [-28.59+22.54j, -2.6-28.46j]),
    (2, 2): ([1.86-1.49j, 1.78-0.39j, -1.99-1.72j], [82.38+2.32j, -26.31+23.54j, -38.29+14.59j], [1.81-1.47j, 1.25-1.6j], [5.42+57.54j, -28.86-46.03j]),
}


@pytest.mark.parametrize("pair", sorted(PAIR_MODELS))
def test_defect_pair_realizable(pair):
    ws, avals, zs, cvals = PAIR_MODELS[pair]
    mod = FriedrichsModel(pole_sum(ws, avals), pole_sum(zs, cvals), 0.0)
    assert defect_hardy_plus(mod).defect == pair[0]
    assert defect_hardy_plus(tilde_model(mod)).defect == pair[1]


# ---------------------------------------------------------------------------
# mixed half-plane data: everything detectable
# ---------------------------------------------------------------------------

def test_mixed_halfplane_residual_bounded_below():
    # phibar and psi both in the upper Hardy class, B generic: no candidate
    # is orthogonal to all solution ranges
    rng = np.random.default_rng(12)
    phi = RatFun.simple_pole(1.3j)            # phibar poles below
    psi = RatFun.simple_pole(-0.8j)
    mod = FriedrichsModel(phi, psi, 0.4)
    for _ in range(50):
        z = complex(rng.normal(), np.sign(rng.normal()) * (0.3 + rng.random()))
        g = RatFun.simple_pole(z, complex(rng.normal(), rng.normal()))
        assert sperp_residual(mod, g) > 1e-6


# ---------------------------------------------------------------------------
# Toeplitz route
# ---------------------------------------------------------------------------

PHI_T = RatFun.simple_pole(2j)
PSI_T = RatFun(Poly([2j, 1.0]), poly_from_roots([1j, 3j]))
# symbol a = psi * phibar = 1/((x - i)(x - 3i)) after the (x + 2i) factors cancel
MOD_T = FriedrichsModel(PHI_T, PSI_T, 0.0)


def direct_lower_count(a, mu):
    diff = a - mu
    if diff.num.degree < 1:
        return 0
    return sum(m for z, m in poly_roots(diff.num) if z.imag < -1e-9)


def test_toeplitz_matches_direct_count():
    a = PSI_T * conj_reflect(PHI_T)
    rng = np.random.default_rng(3)
    for _ in range(30):
        alpha = complex(rng.normal(), rng.normal())
        if abs(alpha) < 1e-2:
            continue
        rep = toeplitz_defect(MOD_T, alpha)
        assert rep.defect == direct_lower_count(a, 1.0 / (2j * PI * alpha))


def test_toeplitz_one_zero_location():
    # oracle: a(z) = 1/(z - i) - mu has its zero at i + 1/mu
    phi = RatFun.simple_pole(1j)
    psi = RatFun.const(1.0)
    with pytest.raises(ValueError):
        toeplitz_defect(FriedrichsModel(phi, RatFun.simple_pole(1j), 0.0), 0.0)
    # simple concrete symbol through the full route
    alpha = 2.0
    rep = toeplitz_defect(MOD_T, alpha)
    assert rep.defect == direct_lower_count(PSI_T * conj_reflect(PHI_T),
                                            1.0 / (2j * PI * alpha))


def test_toeplitz_eigenfunction_law():
    for alpha in (0.5j, 2.0, -1.0 + 0.5j):
        rep = toeplitz_defect(MOD_T, alpha)
        if rep.defect == 0:
            continue
        eff = cauchy_kernel_model(MOD_T, alpha)
        for g in toeplitz_sperp_basis(MOD_T, alpha):
            assert sperp_residual(eff, g) < 1e-8
        assert sperp_residual(eff, RatFun.simple_pole(5j)) > 1e-3


def test_toeplitz_zero_at_minus_i():
    # oracle: mu = 1/(2 pi i alpha) = -1/8, and (x - i)(x - 3i) = -8 at -i and 5i
    alpha = 4j / PI
    rep = toeplitz_defect(MOD_T, alpha)
    assert rep.defect == 1 and [c for _, c in rep.roots] == ["BLASCHKE"]
    assert abs(rep.roots[0][0] + 1j) < 1e-12
    (g,) = toeplitz_sperp_basis(MOD_T, alpha)
    assert sperp_residual(cauchy_kernel_model(MOD_T, alpha), g) < 1e-8


def test_toeplitz_basis_refuses_alpha_zero():
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        toeplitz_sperp_basis(MOD_T, 0)


@pytest.mark.parametrize("route", [toeplitz_defect, toeplitz_sperp_basis])
def test_toeplitz_routes_refuse_phi_below_the_axis(route):
    lower_phi = FriedrichsModel(RatFun.simple_pole(-2j), PSI_T, 0.0)
    with pytest.raises(ValueError, match="phi must have all poles in the upper"):
        route(lower_phi, 0.5j)


@pytest.mark.parametrize("route", [toeplitz_defect, toeplitz_sperp_basis])
def test_toeplitz_finds_the_zeros_once(monkeypatch, route):
    # the split of the zeros of a - mu is one root finding; no outer factor
    # is divided out
    calls = spy_calls(monkeypatch, "poly_roots", detect, hardy, ratfun)
    route(MOD_T, 0.5j)
    assert len(calls) == 1


def test_toeplitz_large_mu_resolvent_set():
    # mu_alpha far outside the closure of a(C-): defect 0
    rep = toeplitz_defect(MOD_T, 1e-4)      # mu_alpha huge
    assert rep.defect == 0


# ---------------------------------------------------------------------------
# Toeplitz spectrum membership
# ---------------------------------------------------------------------------

A4 = RatFun(Poly([1.0]), poly_from_roots([1j] * 4))


def test_spectrum_quartic_interior():
    res = spectrum_T_membership(A4, -0.01)
    assert res.membership == "INTERIOR" and res.point_spectrum


def test_spectrum_quartic_isolated_boundary_at_zero():
    res = spectrum_T_membership(A4, 0.0)
    assert res.membership == "BOUNDARY" and res.isolated


def test_spectrum_outside():
    res = spectrum_T_membership(A4, 10.0)
    assert res.membership == "OUTSIDE" and not res.point_spectrum


def test_spectrum_rejects_constant_coincidence():
    with pytest.raises(ValueError):
        spectrum_T_membership(RatFun.const(2.0), 2.0)


# ---------------------------------------------------------------------------
# disjoint supports, jumps, rank comparison
# ---------------------------------------------------------------------------

IV, IV2 = (0.0, 1.0), (2.0, 3.0)
PHI_PW = PiecewiseFun.indicator(*IV)
PSI_PW = PiecewiseFun.reciprocal_cauchy(IV, IV2)
MOD_PW = PiecewiseModel(PHI_PW, PSI_PW, 0.0)


def test_disjoint_infinite_defect():
    rep = disjoint_support_classify(PHI_PW, PSI_PW)
    assert rep.classification == "INFINITE_DEFECT"


def test_disjoint_tilde_full():
    rep = disjoint_support_classify(PSI_PW, PHI_PW)
    assert rep.classification == "FULL"
    assert rep.min_abs > 0.5


def test_disjoint_generic_rescale_full():
    psi_scaled = PiecewiseFun.restriction(RatFun.const(0.7), *IV2)
    rep = disjoint_support_classify(PHI_PW, psi_scaled)
    assert rep.classification == "FULL"


def test_disjoint_rejects_overlap():
    with pytest.raises(ValueError):
        disjoint_support_classify(PiecewiseFun.indicator(0, 2),
                                  PiecewiseFun.indicator(1, 3))


def test_minv_jump_table():
    for k in (-1.0, 4.0, 1.5):
        jr = mb_jump(MOD_PW, k)
        assert jr.jump_Minv == pytest.approx(2j * PI, abs=1e-8)
        assert jr.rank == 1
    for k in (2.2, 2.5, 2.8):
        jr = mb_jump(MOD_PW, k)
        assert abs(jr.jump_Minv) < 1e-6
        assert jr.rank == 0
    mp = pytest.importorskip("mpmath")
    k = 0.5
    jr = mb_jump(MOD_PW, k)
    # independent oracle: psi = 1/log((1-t)/(0-t)) on IV2, integrated by mpmath
    psihat = complex(mp.quad(
        lambda t: 1 / (mp.log((IV[1] - t) / (IV[0] - t)) * (t - k)), IV2))
    assert jr.jump_Minv == pytest.approx(2j * PI * (1 - psihat), abs=1e-8)


def test_mb_jump_computes_each_principal_value_once(monkeypatch):
    # on psi's support only the reciprocal-cauchy transform of psi needs
    # quadrature (phibar is an indicator, psi phibar has no pieces): one
    # principal value serves both one-sided values
    quad, calls = hardy.quad_gk, []

    def counting(*args, **kw):
        calls.append(args[1:3])
        return quad(*args, **kw)

    monkeypatch.setattr(hardy, "quad_gk", counting)
    for k in (2.2, 2.5, 2.8):
        calls.clear()
        mb_jump(MOD_PW, k)
        assert calls == [IV2], k


def test_minv_jump_rational_model():
    phi = RatFun.simple_pole(2j)
    psi = RatFun(Poly([1.0, 1.0]), poly_from_roots([-1.5j, 1 + 1j]))
    mod = FriedrichsModel(phi, psi, 0.3 - 0.2j)
    jr = mb_jump(mod, 0.4)
    # consistency with the resolvent-side jump is covered below; here check
    # the Plemelj structure: jump is 2 pi i minus the transform-product jump
    assert jr.rank == 1
    assert abs(jr.jump_Minv) > 1.0


def test_jump_rank_agreement_rational():
    phi = RatFun.simple_pole(2j)
    psi = RatFun(Poly([1.0, 1.0]), poly_from_roots([-1.5j, 1 + 1j]))
    mod = FriedrichsModel(phi, psi, 0.3 - 0.2j)
    rc = jump_rank_check(mod, 0.4, fs=[1.0], ws=[1.0],
                         mus=[0.5 + 1j, -1j], mu_ts=[1.2j])
    assert rc.equal and rc.resolved and rc.rank_resolvent == 1


def test_jump_rank_agreement_piecewise():
    for k, expect in ((0.5, 1), (2.5, 0), (-1.0, 1)):
        rc = jump_rank_check(MOD_PW, k, fs=[1.0], ws=[1.0],
                             mus=[1j], mu_ts=[1.5j])
        assert rc.resolved and rc.equal and rc.rank_resolvent == expect


def test_jump_rank_zero_family():
    rc = jump_rank_check(MOD_PW, 0.5, fs=[0.0], ws=[1.0],
                         mus=[1j], mu_ts=[1.5j])
    assert rc.rank_resolvent == 0 and rc.rank_M == 0 and rc.equal


# overlapping supports: phi = 1[-1,1], psi = 1[0,2], so psi phibar = 1[0,1]
PHI_OV = PiecewiseFun.indicator(-1.0, 1.0)
PSI_OV = PiecewiseFun.indicator(0.0, 2.0)
MOD_OV = PiecewiseModel(PHI_OV, PSI_OV, 0.0)


def overlap_closed_form(k, s):
    """D, psihat, phibarhat at k + s i0 for MOD_OV, k in (0, 1)."""
    return (1 + np.log((1 - k) / k) + s * 1j * PI,
            np.log((2 - k) / k) + s * 1j * PI,
            np.log((1 - k) / (1 + k)) + s * 1j * PI)


def test_overlap_mb_jump_closed_form():
    prod = piecewise_product(PSI_OV, PHI_OV)
    for k in (0.25, 0.75):
        minv = {}
        for s, side in ((1, "+"), (-1, "-")):
            D, ph, fh = overlap_closed_form(k, s)
            assert abs(1 + boundary_value(prod, k, side) - D) < 1e-10
            assert abs(boundary_value(PSI_OV, k, side) - ph) < 1e-10
            assert abs(boundary_value(PHI_OV, k, side) - fh) < 1e-10
            minv[s] = s * 1j * PI - ph * fh / D
        jr = mb_jump(MOD_OV, k)
        assert abs(jr.jump_Minv - (minv[1] - minv[-1])) < 1e-10
        assert jr.rank == 1


def test_overlap_determinant_off_axis():
    for lam in (0.25 + 1e-4j, 0.75 - 0.3j, -2 + 1j):
        want = 1 + np.log((1 - lam) / (0 - lam))
        assert abs(_d_at(PHI_OV, PSI_OV, lam) - want) < 1e-9


def test_overlap_jump_rank_check():
    for k in (0.25, 0.75):
        rc = jump_rank_check(MOD_OV, k, fs=[1.0], ws=[1.0], mus=[1j], mu_ts=[1.5j])
        assert rc.resolved and rc.equal
        assert (rc.rank_resolvent, rc.rank_M) == (1, 1)


# phi = 1[2.5,4] overlaps psi = 1/log((1-t)/(0-t)) on [2,3]: psi phibar is
# the reciprocal-cauchy-of piece restricted to [2.5,3]
MOD_RC = PiecewiseModel(PiecewiseFun.indicator(2.5, 4.0), PSI_PW, 0.0)


def _d_by_factors(model, lam):
    """1 + int psi phibar/(t - lam) over psi's support, product never formed."""
    return 1.0 + detect._support_quad(model.psi, model.phi, lam)


def test_overlap_indicator_with_reciprocal_cauchy_off_axis(monkeypatch):
    for lam in (1j, 2.7 + 0.5j, 2.2 - 1j):
        assert abs(_d_at(MOD_RC.phi, MOD_RC.psi, lam) - _d_by_factors(MOD_RC, lam)) < 1e-12
    gs = (PiecewiseFun.indicator(2.6, 3.5), PiecewiseFun.indicator(-1.0, 0.5))
    got = [sperp_residual(MOD_RC, g) for g in gs]
    monkeypatch.setattr(detect, "_d_at", lambda phi, psi, lam: _d_by_factors(
        PiecewiseModel(phi, psi, 0.0), lam))
    want = [sperp_residual(MOD_RC, g) for g in gs]
    assert got == pytest.approx(want, rel=1e-10)
    assert min(got) > 1e-3


def test_overlap_indicator_with_reciprocal_cauchy_jump():
    mp = pytest.importorskip("mpmath")
    k = 2.7
    psi = lambda t: 1 / mp.log((IV[1] - t) / (IV[0] - t))

    def pv(a, b):
        # int_a^b psi(t)/(t - k) dt as a principal value, by mpmath
        smooth = mp.quad(lambda t: (psi(t) - psi(k)) / (t - k), [a, k, b])
        return complex(smooth + psi(k) * mp.log((b - k) / (k - a)))

    pk = complex(psi(k))
    minv = {}
    for s in (1, -1):
        D = 1 + pv(2.5, 3.0) + s * 1j * PI * pk
        ph = pv(*IV2) + s * 1j * PI * pk
        fh = np.log((4.0 - k) / (k - 2.5)) + s * 1j * PI
        minv[s] = s * 1j * PI - ph * fh / D
    jr = mb_jump(MOD_RC, k)
    assert abs(jr.jump_Minv - (minv[1] - minv[-1])) < 1e-8
    rc = jump_rank_check(MOD_RC, k, fs=[1.0], ws=[1.0], mus=[1j], mu_ts=[1.5j])
    assert rc.resolved and rc.equal
    assert (rc.rank_resolvent, rc.rank_M) == (1, 1)


def test_overlap_rational_with_reciprocal_cauchy_refused():
    phi = PiecewiseFun.restriction(RatFun.simple_pole(1j), 2.5, 4.0)
    mod = PiecewiseModel(phi, PSI_PW, 0.0)
    with pytest.raises(ValueError, match="reciprocal-cauchy-of"):
        piecewise_product(PSI_PW, phi)
    with pytest.raises(ValueError, match="reciprocal-cauchy-of"):
        mb_jump(mod, 2.7)
    # off the axis the determinant integrates the two factors instead
    lam = 2.7 + 0.5j
    assert _d_at(phi, PSI_PW, lam) == _d_by_factors(mod, lam)


def test_sperp_residual_refuses_without_probes():
    with pytest.raises(ValueError, match="no probe"):
        sperp_residual(MOD_RC, PiecewiseFun.indicator(2.6, 3.5), mus=())


# rational phi = 1/(x - i) (phibar = 1/(x + i)) with piecewise psi = 1[0, 1]
MOD_MIXED = PiecewiseModel(RatFun.simple_pole(1j), PiecewiseFun.indicator(0, 1), 0.0)
MIXED_KS = (0.05, 0.3, 0.5, 0.71, 0.95)


def test_mixed_product_pieces():
    phibar = conj_reflect(MOD_MIXED.phi)
    prod = piecewise_product(MOD_MIXED.psi, phibar)
    ((p,),) = (prod.pieces,)
    assert (p.a, p.b, p.kind) == (0.0, 1.0, "rational-restriction")
    assert piecewise_product(phibar, MOD_MIXED.psi).pieces == prod.pieces
    xs = np.array([-0.5, 0.2, 0.9, 1.5])
    assert np.array_equal(prod(xs), np.where((xs >= 0) & (xs <= 1), phibar(xs), 0))
    # rational restriction times rational: one restriction with the product
    r = piecewise_product(PiecewiseFun.restriction(phibar, 0.0, 2.0), phibar)
    assert r(0.7) == pytest.approx(complex(phibar(0.7)) ** 2, rel=1e-14)
    with pytest.raises(ValueError, match="reciprocal-cauchy-of"):
        piecewise_product(phibar, PSI_PW)


def test_mixed_data_jump_matches_principal_value():
    phibar = conj_reflect(MOD_MIXED.phi)
    prod = piecewise_product(MOD_MIXED.psi, phibar)
    for k in MIXED_KS:
        jr = mb_jump(MOD_MIXED, k)
        assert np.isfinite(jr.jump_Minv) and jr.rank == 1
        # Plemelj: D jumps by 2 pi i psi(k) phibar(k) on the support
        dj = boundary_value(prod, k, "+") - boundary_value(prod, k, "-")
        assert dj == pytest.approx(2j * PI * complex(phibar(k)), abs=1e-12)
    mp = pytest.importorskip("mpmath")

    def pv(g, k):
        # p.v. int_0^1 g(t)/(t - k) dt, by mpmath
        smooth = mp.quad(lambda t: (g(t) - g(k)) / (t - k), [0, k, 1])
        return smooth + g(k) * mp.log((1 - k) / k)

    def fb(t):
        return 1 / (t + 1j)

    for k in MIXED_KS:
        with mp.workdps(40):
            k = mp.mpf(k)
            minv = {}
            for s in (1, -1):
                D = 1 + pv(fb, k) + s * 1j * mp.pi * fb(k)
                ph = pv(lambda t: 1, k) + s * 1j * mp.pi
                # phibar's only pole is at -i: its transform is 2 pi i phibar(k)
                # from above and 0 from below
                fh = 2j * mp.pi * fb(k) if s > 0 else 0
                minv[s] = s * 1j * mp.pi - ph * fh / D
            want = complex(minv[1] - minv[-1])
        assert abs(mb_jump(MOD_MIXED, float(k)).jump_Minv - want) < 1e-8


def test_mixed_determinant_takes_the_product_path(monkeypatch):
    models = (MOD_MIXED, PiecewiseModel(PiecewiseFun.indicator(0.0, 1.0),
                                        RatFun.simple_pole(-1j, 0.5), 0.0))
    lams = (0.3 + 1e-3j, 0.7 - 1e-4j, 0.5 - 0.2j, -2.0 + 1.0j, 1.5 + 0.01j)
    # the two factors integrated over the piecewise one's support, without
    # forming their product
    want = [1.0 + detect._support_quad(*sorted(
        (m.psi, detect._phibar_of(m.phi)), key=lambda f: isinstance(f, RatFun)), lam)
            for m in models for lam in lams]

    def refuse(*args, **kwargs):
        raise AssertionError("mixed data integrated factor by factor")

    monkeypatch.setattr(detect, "_support_quad", refuse)
    got = [_d_at(m.phi, m.psi, lam) for m in models for lam in lams]
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_symbol_curve_mixed_data():
    # MOD_MIXED: phibar = 1/(t + i), psi = 1[0, 1]
    sc = symbol_M_curve(MOD_MIXED, halfwidth=2.0, n=8)
    inside = (sc.ks > 0) & (sc.ks < 1)
    assert 0 < inside.sum() < sc.ks.size
    for k, v in zip(sc.ks[~inside], sc.values[~inside]):
        # psi(k) = 0: minus int_0^1 dt/((t + i)(t - k)), by partial fractions
        want = -(np.log((1 - k) / (0 - k)) - np.log(1 - 1j)) / (k + 1j)
        assert abs(v - want) < 1e-9 * abs(want)
    mp = pytest.importorskip("mpmath")

    def fb(t):
        return 1 / (t + 1j)

    with mp.workdps(30):
        for k, v in zip(sc.ks[inside], sc.values[inside]):
            k = mp.mpf(k)
            pv = (mp.quad(lambda t: (fb(t) - fb(k)) / (t - k), [0, k, 1])
                  + fb(k) * mp.log((1 - k) / k))
            # phibar's pole is below the axis: phibarhat(k + i0) = 2 pi i phibar(k)
            want = complex(2j * mp.pi * fb(k) - (pv + 1j * mp.pi * fb(k)))
            assert abs(v - want) < 1e-9 * abs(want)


# ---------------------------------------------------------------------------
# the jump matrix of jump_rank_check against the resolvent itself
# ---------------------------------------------------------------------------

MOD_RAT = FriedrichsModel(RatFun.simple_pole(2j),
                          RatFun(Poly([1.0, 1.0]), poly_from_roots([-1.5j, 1 + 1j])),
                          0.3 - 0.2j)
# phi with poles on both sides of the axis
MOD_RAT2 = FriedrichsModel(RatFun.simple_pole(2j) + RatFun.simple_pole(-1 - 1.3j, 0.7),
                           MOD_RAT.psi, 0.3 - 0.2j)


@pytest.mark.parametrize("model", [MOD_RAT, MOD_RAT2], ids=["MOD_RAT", "MOD_RAT2"])
def test_jump_matrix_matches_resolvent_jump(model):
    # oracle: <(A_B - lam)^{-1} F, v> at lam = k +- i eps, with the resolvent
    # and the inner product in closed form
    eps = 1e-7
    for mu, mu_t in ((0.5 + 1j, 1.2j), (-1j, 1.2j), (-1j, -1.7j)):
        F = solution_operator(model, mu, 1.0)
        v = solution_operator(tilde_model(model), mu_t, 1.0)

        def pairing(lam):
            return inner_product(apply_resolvent(model, lam, F.f).f, v.f)

        for k in (0.4, -1.3, 2.0):
            rc = jump_rank_check(model, k, fs=[1.0], ws=[1.0], mus=[mu], mu_ts=[mu_t])
            J = rc.jump_matrix[0, 0]
            want = pairing(complex(k, eps)) - pairing(complex(k, -eps))
            assert abs(J - want) <= 1e-5 * max(1.0, abs(J)), (mu, mu_t, k)


def test_jump_rank_check_confluent_pairing():
    # mu = conj(mu_t); oracle: the jump of the bordered pairing extrapolated
    # from k +- i eps, with every <F, v> integrated over the axis
    rc = jump_rank_check(MOD_PW, 0.4, fs=[1.0], ws=[1.0], mus=[1j], mu_ts=[-1j])
    assert rc.resolved and rc.equal and (rc.rank_resolvent, rc.rank_M) == (1, 1)
    assert abs(rc.jump_matrix[0, 0] - (-0.19536067945651306 - 0.20512871342953104j)) < 1e-9


# p.v. int psi(t)/(t - k) dt vanishes at this k on psi's support: M has a
# pole on the axis there
K_STAR = 2.6203034970963


def test_jump_rank_check_near_real_pole_of_m():
    ks = np.concatenate([np.linspace(2.05, 2.95, 451)[1:-1],
                         K_STAR + np.array([0.0, 1e-6, -1e-6, 1e-5, -1e-5,
                                            1e-4, -1e-4, 1e-3, -1e-3])])
    refused = []
    for k in ks:
        rc = jump_rank_check(MOD_PW, k, fs=[1.0], ws=[1.0], mus=[1j], mu_ts=[1.5j])
        if rc.resolved:
            # the exact jump is zero on psi's support, away from k*
            assert (rc.rank_resolvent, rc.rank_M, rc.equal) == (0, 0, True), k
            assert rc.reason == ""
        else:
            refused.append(k)
            assert rc.jump_matrix is None and "pole" in rc.reason, k
            assert mb_jump(MOD_PW, k, tol=1e-6).jump_M == np.inf, k
    assert refused and max(abs(k - K_STAR) for k in refused) < 1e-4


# ---------------------------------------------------------------------------
# real-root criterion for quadratic continuations
# ---------------------------------------------------------------------------

def quadratic_has_real_root_algebraic(p, q):
    lhs = q.imag ** 2
    rhs = p.imag * (p.real * q.imag - q.real * p.imag)
    return abs(lhs - rhs) < 1e-9 * (1 + abs(lhs) + abs(rhs)) \
        and 4 * q.real <= abs(p) ** 2 + 1e-9


def test_real_root_criterion_consistency():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(500):
        if rng.random() < 0.5:
            p = complex(rng.normal(), rng.normal())
            q = complex(rng.normal(), rng.normal())
        else:
            # plant a real root r alongside a random second root s
            r = rng.normal()
            s = complex(rng.normal(), rng.normal())
            p, q = -(r + s), r * s
        roots = poly_roots(Poly([q, p, 1.0]))
        numeric = any(abs(z.imag) < 1e-7 for z, _ in roots)
        algebraic = quadratic_has_real_root_algebraic(p, q)
        if numeric != algebraic:
            # disagreement allowed only within the floating tolerance band
            gap = min(abs(z.imag) for z, _ in roots)
            assert gap < 1e-5
            continue
        checked += 1
    assert checked > 450


# ---------------------------------------------------------------------------
# multiplication-symbol curve
# ---------------------------------------------------------------------------

def test_symbol_curve_is_xi():
    psi = pole_sum([ZP1, ZP2], [-2.0, 3.0])
    mod = FriedrichsModel(PHI_PETAL, psi, 0.0)
    sc = symbol_M_curve(mod, halfwidth=40, n=2001)
    phibar = conj_reflect(PHI_PETAL)
    xi = (-2.0 * complex(phibar(ZP1))) / (ZP1 - sc.ks) \
        + (3.0 * complex(phibar(ZP2))) / (ZP2 - sc.ks)
    assert np.max(np.abs(sc.values - 2j * PI * xi)) < 1e-12


def test_symbol_curve_parabola_after_change_of_variable():
    psi = pole_sum([ZP1, ZP2], [-2.0, 3.0])
    mod = FriedrichsModel(PHI_PETAL, psi, 0.0)
    sc = symbol_M_curve(mod, halfwidth=80, n=4001)
    muhat = 2j * PI / (sc.values * CONV)
    resid = muhat.imag ** 2 - 0.5 * (1 + 3 * muhat.real)
    assert np.max(np.abs(resid)) < 1e-9


def test_symbol_curve_membership():
    psi = pole_sum([ZP1, ZP2], [-2.0, 3.0])
    mod = FriedrichsModel(PHI_PETAL, psi, 0.0)
    sc = symbol_M_curve(mod, halfwidth=60, n=4001)
    on, _, dist = sc.membership(target=sc.values[2037])
    assert on and dist < 1e-12
    on, winding, _ = sc.membership(target=100 + 100j)
    assert not on and winding == 0


def test_symbol_curve_disjoint_supports():
    sc = symbol_M_curve(MOD_PW, halfwidth=5, n=200)
    # psi phibar vanishes, P_plus phibar pairs with psi only on its support
    inside = (sc.ks > IV2[0] + 0.05) & (sc.ks < IV2[1] - 0.05)
    outside = (sc.ks < IV2[0] - 0.05) | (sc.ks > IV2[1] + 0.05)
    assert np.all(np.abs(sc.values[outside]) < 1e-8)
    assert np.max(np.abs(sc.values[inside])) > 0.1


def test_symbol_curve_skips_piece_endpoints():
    # n = 201 puts grid points on phi's endpoints 0 and 1, where the boundary
    # value of phibar is log-infinite: the curve keeps the other 199 samples
    sc = symbol_M_curve(MOD_PW, halfwidth=5, n=201)
    grid = np.linspace(-5, 5, 201)
    assert np.array_equal(sc.ks, grid[(grid != 0.0) & (grid != 1.0)])
    prod = piecewise_product(PSI_PW, PHI_PW)
    want = (boundary_value(PHI_PW, sc.ks, "+") * PSI_PW(sc.ks)
            - boundary_value(prod, sc.ks, "+"))
    assert np.array_equal(sc.values, want)
    on, _, dist = sc.membership(target=sc.values[120])
    assert on and dist == 0.0
    on, winding, _ = sc.membership(target=100 + 100j)
    assert not on and winding == 0
