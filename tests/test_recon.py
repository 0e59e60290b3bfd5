"""Tests for the inverse-problem routes.

The generic rational model reused throughout has a pole of phi at 2i and psi
poles at -1.5i and 1+i, so both half-planes carry nontrivial data.
"""
import json

import numpy as np
import pytest

from fmlab.ratfun import (Poly, RatFun, poly_from_roots, inner_product,
                          l2_norm, partial_fractions)
from fmlab.hardy import PiecewiseFun, cauchy_transform_num, quad_gk
from fmlab.friedrichs import (FriedrichsModel, apply_resolvent, m_function,
                              solution_operator, tilde_model)
from fmlab.scancli import _draw_l2, main, model_to_json
from fmlab.detect import PiecewiseModel, _d_at, _phibar_of
from fmlab.recon import (ReconError, ResolventOracle, bordered_from_m,
                         m_from_one_bordered, m_from_two_resolvents,
                         pairing_m_value, recover_from_ranges,
                         recover_from_restricted_resolvent, _coefficient,
                         _coefficient_gap, _gauge_normalize)

XS = np.linspace(-3.0, 3.0, 11)


def generic_model(B=0.3 - 0.2j):
    phi = RatFun.simple_pole(2j)
    psi = RatFun(Poly([1.0, 1.0]), poly_from_roots([-1.5j, 1 + 1j]))
    return FriedrichsModel(phi, psi, B)


def phibar_over_d(mod, lam):
    mv = m_function(mod, lam)
    return mv.phibar_hat / mv.D


# ---------------------------------------------------------------------------
# recovery from two solution-operator ranges
# ---------------------------------------------------------------------------

def test_ranges_round_trip():
    mod = generic_model()
    lam, mu = 0.8 + 1.1j, -0.5 - 0.9j
    u = solution_operator(mod, lam)
    v = solution_operator(tilde_model(mod), mu)
    psi_r, phi_r = recover_from_ranges(u, v, lam, mu)
    # recovered pair sits in the gauge psi -> sigma psi, phi -> phi/conj(sigma)
    sigma = phibar_over_d(mod, lam)
    assert np.max(np.abs(psi_r(XS) / sigma - mod.psi(XS))) < 1e-9
    assert np.max(np.abs(phi_r(XS) * np.conj(sigma) - mod.phi(XS))) < 1e-9


def test_ranges_refeed_consistency():
    mod = generic_model()
    lam, mu = 0.8 + 1.1j, -0.5 - 0.9j
    u = solution_operator(mod, lam)
    v = solution_operator(tilde_model(mod), mu)
    psi_r, phi_r = recover_from_ranges(u, v, lam, mu)
    mod_r = FriedrichsModel(phi_r, psi_r, mod.B)
    u2 = solution_operator(mod_r, lam)
    v2 = solution_operator(tilde_model(mod_r), mu)
    un, u2n = u.f * (1 / u.c), u2.f * (1 / u2.c)
    vn, v2n = v.f * (1 / v.c), v2.f * (1 / v2.c)
    assert np.max(np.abs(un(XS) - u2n(XS))) < 1e-8
    assert np.max(np.abs(vn(XS) - v2n(XS))) < 1e-8


def test_ranges_rescaled_inputs():
    mod = generic_model()
    lam, mu = 0.8 + 1.1j, -0.5 - 0.9j
    u = solution_operator(mod, lam)
    v = solution_operator(tilde_model(mod), mu)
    a = recover_from_ranges(u, v, lam, mu)
    b = recover_from_ranges(u.f * 2.0, v.f * (1.5 - 0.5j), lam, mu)
    for fa, fb in zip(a, b):
        assert np.max(np.abs(fa(XS) - fb(XS))) < 1e-10


def test_ranges_degenerate_raises():
    # phibar has its only pole above the axis, so the kernel element at any
    # upper lam collapses to the bare pole and carries no psi information
    mod = FriedrichsModel(RatFun.simple_pole(-1j), generic_model().psi, 0.0)
    u = solution_operator(mod, 1.2j)
    v = solution_operator(tilde_model(mod), -0.7j)
    with pytest.raises(ValueError, match="insufficient information"):
        recover_from_ranges(u, v, 1.2j, -0.7j)


# ---------------------------------------------------------------------------
# recovery from the restricted resolvent
# ---------------------------------------------------------------------------

def test_restricted_resolvent_full_recovery():
    mod = generic_model()
    oracle = ResolventOracle(mod)
    res = recover_from_restricted_resolvent(oracle)
    # 4 probes (sample + resolve), 2 B pairs, one sample per grid point
    assert len(oracle.transcript) == 8 + 2 + 20
    gamma = complex(res.psi(0.5)) / complex(mod.psi(0.5))
    rel = np.max(np.abs(res.psi(XS) - gamma * mod.psi(XS))) / np.max(np.abs(mod.psi(XS)))
    assert rel < 1e-10
    assert abs(res.B - mod.B) < 1e-10
    assert len(res.lams) == 20
    for lam, m in zip(res.lams, res.m_values):
        assert abs(m - m_function(mod, lam).M) < 1e-10
    for lam, a in zip(res.lams, res.phibar_over_D):
        assert abs(a * gamma - phibar_over_d(mod, lam)) < 1e-10


def test_restricted_resolvent_trivial_psi():
    mod = FriedrichsModel(RatFun.simple_pole(2j), RatFun.zero(), 0.3 - 0.2j)
    res = recover_from_restricted_resolvent(ResolventOracle(mod))
    assert res.psi.is_zero
    assert abs(res.B - mod.B) < 1e-8
    for lam, m in zip(res.lams, res.m_values):
        assert abs(m - m_function(mod, lam).M) < 1e-8


def test_restricted_resolvent_small_data():
    # psi * A(lam) is then small next to the rounding its subtraction leaves
    # as a constant, which would make psi grow at infinity
    mod = FriedrichsModel(RatFun.simple_pole(2j, 1e-3),
                          RatFun.simple_pole(-1.5j, 1e-3), 0.3 - 0.2j)
    res = recover_from_restricted_resolvent(ResolventOracle(mod))
    assert not res.psi.is_zero and abs(res.B - mod.B) < 1e-10
    for lam, m in zip(res.lams, res.m_values):
        assert abs(m - m_function(mod, lam).M) < 1e-10


def test_restricted_resolvent_pathological():
    # B = +-i*pi with data invisible from that side: the whole half-plane
    # consists of eigenvalues and the oracle cannot be sampled there; the
    # mirror image (sign -1) must be refused the same way
    for sign in (1, -1):
        mod = FriedrichsModel(RatFun.simple_pole(-1j * sign),
                              RatFun.simple_pole(-2j * sign), 1j * np.pi * sign)
        assert m_function(mod, 1.5j * sign).infinite
        with pytest.raises(ReconError, match="pathological"):
            recover_from_restricted_resolvent(ResolventOracle(mod))


def recon_draws(n=200):
    """The first n models of one default_rng(0) stream."""
    rng = np.random.default_rng(0)
    return [FriedrichsModel(_draw_l2(rng, int(rng.integers(1, 4)), min_sep=0.3),
                            _draw_l2(rng, int(rng.integers(1, 4)), min_sep=0.3),
                            complex(rng.normal(), rng.normal()))
            for _ in range(n)]


def test_solution_operator_c_is_the_m_value_near_a_psi_pole():
    # lam is 0.003 from the psi pole 0.2003 + 0.9029i of draw 145, where the
    # residues of u are hundreds of times their sum
    mod, lam = recon_draws(146)[145], 0.2 + 0.9j
    assert solution_operator(mod, lam).c == m_function(mod, lam).M


def test_restricted_resolvent_random_draws():
    # draws 25, 39 and 168 were the worst of the 200 under the old
    # Im(mu) -> infinity extrapolation
    models = recon_draws()
    for i in list(range(20)) + [25, 39, 168]:
        mod = models[i]
        oracle = ResolventOracle(mod)
        res = recover_from_restricted_resolvent(oracle)
        assert len(oracle.transcript) <= 30, i
        m_err = max(abs(m - m_function(mod, lam).M)
                    for lam, m in zip(res.lams, res.m_values))
        assert m_err < 1e-10, i
        # true errors in the recovered gauge: psi_t = psi/c, a = c phibar_hat/D
        psi_t, term = _gauge_normalize(mod.psi)
        c = _coefficient(mod.psi, term)
        true = {
            "psi": _coefficient_gap(res.psi, psi_t)
                   / max(abs(k) for _, _, k in partial_fractions(res.psi)[0]),
            "B": abs(res.B - mod.B),
            "phibar_over_D": max(abs(a - c * phibar_over_d(mod, lam))
                                 for lam, a in zip(res.lams, res.phibar_over_D)),
        }
        assert true["B"] < 1e-10, i
        for key, err in true.items():
            assert res.errors[key] >= err, (i, key)


def test_cli_recon_draw_25_meets_default_tol(tmp_path):
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(model_to_json(recon_draws(26)[25])))
    assert main(["recon", "--model", str(mp), "--out", str(tmp_path / "r.json")]) == 0


def test_cli_recon_refusal_is_an_exit_code(tmp_path, capsys):
    mod = FriedrichsModel(RatFun.simple_pole(1j), RatFun.simple_pole(2j), -1j * np.pi)
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(model_to_json(mod)))
    assert main(["recon", "--model", str(mp), "--out", str(tmp_path / "r.json")]) == 1
    assert "pathological" in capsys.readouterr().err


def test_restricted_resolvent_distinguishes_perturbation():
    mod = generic_model()
    bump = RatFun.simple_pole(-2.5j, 1e-3)
    mod2 = FriedrichsModel(mod.phi, mod.psi + bump, mod.B)
    r1 = recover_from_restricted_resolvent(ResolventOracle(mod), lam_grid=[1.1j])
    r2 = recover_from_restricted_resolvent(ResolventOracle(mod2), lam_grid=[1.1j])
    g1 = r1.psi * (1.0 / complex(r1.psi(0.5)))
    g2 = r2.psi * (1.0 / complex(r2.psi(0.5)))
    assert l2_norm(g1 - g2) > 1e-5


def test_oracle_transcript_reproducible():
    mod = generic_model()
    o1, o2 = ResolventOracle(mod), ResolventOracle(mod)
    recover_from_restricted_resolvent(o1, lam_grid=[1.1j])
    recover_from_restricted_resolvent(o2, lam_grid=[1.1j])
    assert o1.transcript and o1.transcript == o2.transcript


# ---------------------------------------------------------------------------
# M from two bordered resolvents
# ---------------------------------------------------------------------------

def test_two_resolvents_random_draws():
    phi = RatFun.simple_pole(2j)
    psi = RatFun(Poly([1.0, 1.0]), poly_from_roots([-1.5j, 1 + 1j]))
    rng = np.random.default_rng(9)
    n = 0
    while n < 20:
        B = complex(rng.normal(), rng.normal())
        C = complex(rng.normal(), rng.normal())
        mod = FriedrichsModel(phi, psi, B)
        modC = FriedrichsModel(phi, psi, C)
        lam = complex(rng.normal(), (0.5 + rng.random()) * np.sign(rng.normal()))
        g = RatFun.simple_pole(complex(rng.normal(), -0.5 - rng.random()))
        v = RatFun.simple_pole(complex(rng.normal(), 0.5 + rng.random()),
                               complex(rng.normal(), rng.normal()))
        fB = apply_resolvent(mod, lam, g)
        fC = apply_resolvent(modC, lam, g)
        w = fC.gamma2
        wt = apply_resolvent(tilde_model(modC), np.conj(lam), v).gamma2
        if abs(w) < 1e-3 or abs(wt) < 1e-3:
            continue
        Mr = m_from_two_resolvents(inner_product(fB.f, v), inner_product(fC.f, v),
                                   w, wt, B, C)
        assert abs(Mr - m_function(mod, lam).M) < 1e-9
        n += 1


def test_two_resolvents_zero_difference_branch():
    B, C = 0.3 - 0.2j, 1.5
    out = m_from_two_resolvents(1.0, 1.0, 0.7, 0.4, B, C)
    assert out == pytest.approx(-1.0 / (B - C))


def test_two_resolvents_rejections():
    with pytest.raises(ValueError):
        m_from_two_resolvents(1.0, 0.5, 0.7, 0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        m_from_two_resolvents(1.0, 0.5, 0.0, 0.4, 1.0, 2.0)


# ---------------------------------------------------------------------------
# M from one bordered resolvent over a window
# ---------------------------------------------------------------------------

IV, IV2, WIN = (0.0, 1.0), (2.0, 3.0), (-2.0, -1.0)
PW_MODEL = PiecewiseModel(PiecewiseFun.indicator(*IV),
                          PiecewiseFun.reciprocal_cauchy(IV, IV2), 0.0)
V_WIN = PiecewiseFun.indicator(*WIN)


def model_m(model, lam):
    """M(lam) = 1/(sgn(Im lam) pi i - psihat phibarhat/D - B) for rational or
    piecewise model data."""
    phi, psi = model.phi, model.psi
    ph, fh = cauchy_transform_num(psi, lam), cauchy_transform_num(_phibar_of(phi), lam)
    bracket = np.sign(lam.imag) * np.pi * 1j - ph * fh / _d_at(phi, psi, lam) - complex(model.B)
    return 1.0 / bracket


def window_log(lam):
    """int_WIN dt/(t - lam): the closed interval logarithm."""
    a, b = WIN
    return np.log((b - lam) / (a - lam))


def window_pairing(lam):
    """<(A_B-lam)^{-1} v, v> for the window weight, via the kernel formula.

    With v supported away from phi and psi the resolvent reduces to
    v/(x-lam) + c_f/(x-lam) plus a psi term orthogonal to the window.
    """
    M = model_m(PW_MODEL, lam)
    return window_log(lam) - M * window_log(lam) ** 2


def test_one_bordered_matches_direct():
    lams = [0.5 + 1j, -3 + 0.8j, 1.5 - 1.2j, 2.5 + 2j]
    for lam, m, ok in m_from_one_bordered(window_pairing, V_WIN, V_WIN, lams):
        assert ok
        assert abs(m - model_m(PW_MODEL, lam)) < 1e-6


def test_one_bordered_large_lam_asymptote():
    (lam, m, ok), = m_from_one_bordered(window_pairing, V_WIN, V_WIN, [1e3j])
    assert ok and abs(m - 1.0 / (np.pi * 1j)) < 1e-5


def test_one_bordered_skip_flag():
    out = m_from_one_bordered(window_pairing, V_WIN, V_WIN, [0.5 + 1j], tol=10.0)
    assert out[0][2] is False and out[0][1] is None


def test_one_bordered_indicator_denominators():
    # with v = vt = indicator both denominator factors are interval logarithms
    for lam in (1j, -2 + 0.5j, 4 - 3j):
        d1 = cauchy_transform_num(V_WIN, lam)
        assert d1 == pytest.approx(window_log(lam), abs=1e-10)
        assert d1 == pytest.approx(quad_gk(lambda t: 1.0 / (t - lam), *WIN), abs=1e-10)
        assert abs(d1) > 1e-3


# ---------------------------------------------------------------------------
# pairing synthesis from M-values
# ---------------------------------------------------------------------------

def test_bordered_from_m_round_trip():
    mod = generic_model()
    rng = np.random.default_rng(5)
    n = 0
    while n < 50:
        mu = complex(rng.normal(), (1 + rng.random()) * np.sign(rng.normal()))
        mut = complex(rng.normal(), (1 + rng.random()) * np.sign(rng.normal()))
        lam = complex(rng.normal(), (1 + rng.random()) * np.sign(rng.normal()))
        f = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        F = solution_operator(mod, mu, f)
        v = solution_operator(tilde_model(mod), mut, w)
        Fv = inner_product(F.f, v.f)
        direct = inner_product(apply_resolvent(mod, lam, F.f).f, v.f)
        syn = bordered_from_m(m_function(mod, lam).M, lam, mu, mut, f, w,
                              Fv, v.gamma2)
        assert abs(syn - direct) < 1e-9 * (1 + abs(direct))
        # composing with the extraction of M from the same pairing is the identity
        m_back = pairing_m_value(direct, lam, mu, mut, f, w, Fv, v.gamma2)
        assert abs(m_back - m_function(mod, lam).M) < 1e-9
        n += 1


def test_bordered_from_m_trivial_and_errors():
    mod = generic_model()
    assert bordered_from_m(m_function(mod, 1j).M, 1j, 2j, 1.5j, 0.0, 1.0,
                           0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        bordered_from_m(0.5, 2j, 2j, -1j, 1.0, 1.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        bordered_from_m(0.5, 1j, 2j, -1j, 1.0, 1.0, 0.0, 0.3)
