"""The rank-one Friedrichs model: traces, M-function, solution operator, resolvent.

The model operator acts as (A f)(x) = x f(x) + <f, phi> psi(x) on L2(R); its
maximal extension acts as x f - c_f * 1 + <f, phi> psi on functions for which
x f(x) - c_f is square integrable.  Traces are

    Gamma_1 f = symmetric-limit integral of f,      Gamma_2 f = c_f,

and A_B is the restriction to Gamma_1 f = B Gamma_2 f.  For rational phi, psi
everything below is closed form.  The Weyl function

    M_B(lam) = [sign(Im lam) pi i - psihat(lam) phibarhat(lam) / D(lam) - B]^{-1}

is built from three Cauchy transforms (``ratfun.cauchy_transform``): of psi,
of phibar = conj_reflect(phi), and of psi * phibar in the perturbation
determinant

    D(lam) = 1 + int psi(x) conj(phi(x)) / (x - lam) dx.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ratfun import (
    Poly, RatFun, cauchy_transform, conj_reflect, inner_product, pv_integral,
)

__all__ = [
    "FriedrichsModel", "DomainElement", "MValue", "EigenvalueError", "DZeroError",
    "traces", "d_function", "m_function", "solution_operator", "apply_resolvent",
    "apply_adjoint", "tilde_model", "verify_identity",
]

PI = np.pi
_M_BAND = 1e-12     # "M finite" threshold factor
_D_BAND = 1e-12     # D-zero threshold


class EigenvalueError(ValueError):
    """lam is an eigenvalue of A_B (M-function bracket vanished)."""


class DZeroError(ValueError):
    """D(lam) vanished; the kernel/resolvent formulas degenerate."""


@dataclass(frozen=True)
class DomainElement:
    """A function in the maximal domain with its regularization constant and traces."""

    f: RatFun
    c: complex
    gamma1: complex
    gamma2: complex


@dataclass(frozen=True)
class MValue:
    lam: complex
    D: complex
    psi_hat: complex
    phibar_hat: complex
    M: complex
    infinite: bool = False


def traces(f):
    """Trace data (c_f, Gamma_1, Gamma_2) of a rational function in the maximal domain.

    Needs x*f(x) - c bounded in L2: decay order >= 1 (order exactly 1 gives
    c != 0), and no pole in the real band.
    """
    if f.is_zero:
        return DomainElement(f, 0j, 0j, 0j)
    if not f.is_L2:
        raise ValueError("not in the maximal domain (growth or real pole)")
    c = f.tail if f.decay_order == 1 else 0j
    g1 = pv_integral(f)
    return DomainElement(f, complex(c), complex(g1), complex(c))


class FriedrichsModel:
    """Model data (phi, psi, B), with phibar and psi * phibar cached."""

    def __init__(self, phi, psi, B):
        if not (phi.is_L2 and psi.is_L2):
            raise ValueError("phi and psi must be L2 rationals (decay, no real poles)")
        self.phi = phi
        self.psi = psi
        self.B = complex(B)

    @cached_property
    def phibar(self):
        return conj_reflect(self.phi)

    @cached_property
    def psi_phibar(self):
        """psi * phibar, whose Cauchy transform is D - 1."""
        return self.psi * self.phibar

    def __repr__(self):
        return f"FriedrichsModel(B={self.B})"


def tilde_model(model):
    """The formally adjoint model: phi and psi swapped, B conjugated."""
    return FriedrichsModel(model.psi, model.phi, np.conj(model.B))


def d_function(model, lam):
    """Perturbation determinant D(lam); lam off the real band."""
    return 1.0 + cauchy_transform(model.psi_phibar, lam)


def m_function(model, lam):
    """Weyl M-function value with its ingredients; flags eigenvalues as infinite."""
    lam = complex(lam)
    D = d_function(model, lam)
    if abs(D) <= _D_BAND:
        raise DZeroError(f"D({lam}) = {D:.2e}")
    ph = cauchy_transform(model.psi, lam)
    fh = cauchy_transform(model.phibar, lam)
    bracket = np.sign(lam.imag) * PI * 1j - ph * fh / D - model.B
    if abs(bracket) <= _M_BAND * (1.0 + abs(model.B)):
        return MValue(lam, D, ph, fh, np.inf, infinite=True)
    return MValue(lam, D, ph, fh, complex(1.0 / bracket), infinite=False)


def solution_operator(model, lam, f=1.0):
    """Kernel element u of the maximal operator at lam with (Gamma_1 - B Gamma_2)u = f.

    u = M_B(lam) f [ (x-lam)^{-1} - (phibar_hat/D) psi(x)/(x-lam) ];
    Gamma_2 u = M_B(lam) f, returned as c; Gamma_1 u is the integral of u.
    """
    mv = m_function(model, lam)
    if mv.infinite:
        raise EigenvalueError(f"lam={lam} is an eigenvalue of A_B")
    pole = RatFun.simple_pole(lam)
    c = complex(mv.M * complex(f))
    u = c * (pole - (mv.phibar_hat / mv.D) * (model.psi * pole))
    return DomainElement(u, c, pv_integral(u), c)


def apply_resolvent(model, lam, g):
    """Solve (A_B - lam) f = g for rational L2 data g; returns the domain
    element f, whose c is the c_f it was assembled with."""
    lam = complex(lam)
    if not g.is_L2:
        raise ValueError("g must be rational L2")
    mv = m_function(model, lam)
    if mv.infinite:
        raise EigenvalueError(f"lam={lam} is an eigenvalue of A_B")
    g_hat = cauchy_transform(g, lam)
    g_phi = cauchy_transform(g * model.phibar, lam)
    c_f = complex(mv.M * (-g_hat + g_phi * mv.psi_hat / mv.D))
    pole = RatFun.simple_pole(lam)
    psi_pole = model.psi * pole
    f = (g * pole - (g_phi / mv.D) * psi_pole
         + c_f * (pole - (mv.phibar_hat / mv.D) * psi_pole))
    return DomainElement(f, c_f, pv_integral(f), c_f)


def apply_adjoint(model, el, variant="tilde_star"):
    """Action of the maximal operators: x f - c_f 1 + <f, phi> psi ("tilde_star",
    the extension whose kernel elements solution_operator builds) or
    x f - c_f 1 + <f, psi> phi ("star")."""
    f = el.f if isinstance(el, DomainElement) else el
    c = el.c if isinstance(el, DomainElement) else traces(f).c
    xf = f * RatFun(Poly([0.0, 1.0])) - c
    if variant == "tilde_star":
        return xf + inner_product(f, model.phi) * model.psi
    if variant == "star":
        return xf + inner_product(f, model.psi) * model.phi
    raise ValueError("variant must be 'tilde_star' or 'star'")


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------

def _sup_samples(f, xs):
    return float(np.max(np.abs(f(xs))))


_XS = np.linspace(-3.7, 4.1, 17)


def verify_identity(kind, model, **kw):
    """Residual of a structural identity; small residuals certify the algebra.

    Kinds: green, krein, aronszajn, fund, sdiff, resolvent (substitution check),
    continuation.  Keyword arguments supply the probe data; each kind documents
    its own below.
    """
    return _VERIFIERS[kind](model, **kw)


def _verify_green(model, u, v):
    """<A* u, v> - <u, Atilde* v> = Gamma1 u conj(Gamma2 v) - Gamma2 u conj(Gamma1 v)."""
    tu, tv = traces(u), traces(v)
    a = inner_product(apply_adjoint(model, tu, "star"), v)
    b = inner_product(u, apply_adjoint(model, tv, "tilde_star"))
    rhs = tu.gamma1 * np.conj(tv.gamma2) - tu.gamma2 * np.conj(tv.gamma1)
    return abs((a - b) - rhs) / (1.0 + abs(a) + abs(b))


def _verify_resolvent(model, lam, g):
    """Substitution residual of (A_B - lam) f = g plus the boundary condition."""
    el = apply_resolvent(model, lam, g)
    back = apply_adjoint(model, el, "tilde_star") - complex(lam) * el.f - g
    scale = 1.0 + _sup_samples(g, _XS)
    res = _sup_samples(back, _XS) / scale
    bc = abs(el.gamma1 - model.B * el.gamma2) / (1.0 + abs(el.gamma2))
    return max(res, bc)


def _verify_krein(model, C, lam, g):
    """Resolvent difference against the solution-operator correction term."""
    model_c = FriedrichsModel(model.phi, model.psi, C)
    f_b = apply_resolvent(model, lam, g)
    f_c = apply_resolvent(model_c, lam, g)
    mb = m_function(model, lam)
    s = (1.0 + (model.B - C) * mb.M) * (C - model.B) * f_c.gamma2
    # differences of sampled values: a RatFun difference would cancel to 0
    fc = f_c.f(_XS)
    diff = fc - f_b.f(_XS)
    if s != 0:
        diff = diff - solution_operator(model_c, lam, s).f(_XS)
    return float(np.max(np.abs(diff)) / (1.0 + np.max(np.abs(fc))))


def _verify_aronszajn(model, C, lam):
    model_c = FriedrichsModel(model.phi, model.psi, C)
    mb = m_function(model, lam).M
    mc = m_function(model_c, lam).M
    return abs(mb - (1.0 + mb * (model.B - C)) * mc) / (1.0 + abs(mb))


def _verify_fund(model, lam, mu, mu_t):
    """Fundamental pairing identity for F = S_{mu,B} 1, v = S~_{mu_t} 1 (linear in both)."""
    tm = tilde_model(model)
    F = solution_operator(model, mu)
    v = solution_operator(tm, mu_t)
    r = apply_resolvent(model, lam, F.f)
    lhs = inner_product(F.f - (mu - lam) * r.f, (mu_t - np.conj(lam)) * v.f)
    mb = m_function(model, lam)
    rhs = mb.M - np.conj(v.gamma2)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _verify_sdiff(model, lam, lam0):
    """S_lam 1 - S_lam0 1 = (lam - lam0) R(lam) S_lam0 1, sampled."""
    u = solution_operator(model, lam)
    u0 = solution_operator(model, lam0)
    r = apply_resolvent(model, lam, u0.f)
    uf = u.f(_XS)
    diff = uf - u0.f(_XS) - (lam - lam0) * r.f(_XS)
    return float(np.max(np.abs(diff)) / (1.0 + np.max(np.abs(uf))))


def _verify_continuation(model, lam, mu, mu_t):
    """Half-plane-split data: the bordered pairing equals the closed form with
    the (lam-mu)(lam-conj(mu_t)) pole factors."""
    if not (mu.imag < 0 and mu_t.imag > 0 and lam.imag > 0):
        raise ValueError("need mu in C-, mu_t in C+, lam in C+")
    if any(p.half_plane != "UPPER" for p in model.phi.poles):
        raise ValueError("continuation check needs phi in H2- (poles above the axis)")
    if any(p.half_plane != "LOWER" for p in model.psi.poles):
        raise ValueError("continuation check needs psi in H2+ (poles below the axis)")
    F = RatFun.simple_pole(mu)
    v = RatFun.simple_pole(mu_t)
    lhs = inner_product(apply_resolvent(model, lam, F).f, v)
    B = model.B
    mb = m_function(model, lam).M
    rhs = -(PI * 1j + B) * (mb * (PI * 1j + B) + 1.0) / ((lam - mu) * (lam - np.conj(mu_t)))
    # equivalent closed form straight from the half-plane data
    pf = complex(model.psi(lam)) * np.conj(complex(model.phi(np.conj(lam))))
    rhs2 = (-2j * PI / ((PI * 1j - B) / (PI * 1j + B) - 2j * PI * pf)
            / ((lam - mu) * (lam - np.conj(mu_t))))
    return max(abs(lhs - rhs), abs(rhs - rhs2)) / (1.0 + abs(rhs))


_VERIFIERS = {
    "green": _verify_green,
    "resolvent": _verify_resolvent,
    "krein": _verify_krein,
    "aronszajn": _verify_aronszajn,
    "fund": _verify_fund,
    "sdiff": _verify_sdiff,
    "continuation": _verify_continuation,
}
