"""Inverse problems: recovering model data and M-values from resolvent access.

Four routes are implemented:

* ``recover_from_ranges``  — both solution-operator ranges known at one point
  each; returns (psi, phi) exactly up to the stated scalar gauge.
* ``recover_from_restricted_resolvent`` — only the resolvent restricted to the
  closed span of solution ranges is known, through a ``ResolventOracle``;
  three sequential stages recover psi (up to scale), the boundary parameter B,
  and the sampled ratio phibar_hat/D, from which M is assembled.  Each is an
  exact identity at finitely many points, checked against a second route.
* ``m_from_two_resolvents`` / ``m_from_one_bordered`` — pointwise M recovery
  from bordered-resolvent pairings (two boundary conditions, or one bordered
  resolvent plus a window disjoint from both supports).
* ``bordered_from_m`` — the converse direction: synthesize a resolvent pairing
  from M-values and trace data.

No limit is taken: every quantity is read off finitely many oracle calls
or closed-form transforms.
"""
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .ratfun import (Poly, RatFun, _CLUSTER, cauchy_transform, conj_reflect,
                     inner_product, l2_norm, partial_fractions)
from .hardy import cauchy_transform_num, piecewise_product
from .friedrichs import (DomainElement, EigenvalueError, FriedrichsModel,
                         apply_resolvent, solution_operator, traces)

PI = np.pi

INSUFFICIENT = "insufficient information"

_EPS = np.finfo(float).eps


class ReconError(RuntimeError):
    pass


def _times_linear(f, lam):
    """(x - lam) * f; a pole of f at lam drops out by the cancellation rule."""
    return f * RatFun(Poly([-lam, 1.0]))


def _c_normalized(u):
    el = u if isinstance(u, DomainElement) else traces(u)
    if abs(el.c) < 1e-13:
        raise ValueError("element has vanishing regularization constant")
    return el.f * (1.0 / el.c)


# ---------------------------------------------------------------------------
# recovery from two solution-operator ranges
# ---------------------------------------------------------------------------

def recover_from_ranges(u, v, lam, mu):
    """Recover (psi, phi) from range elements u, v with c_u = c_v = 1.

    u is taken from the solution range at lam, v from the adjoint-side range at
    mu.  Inputs with c != 1 are rescaled first.  The output gauge fixes
    int conj(phi)/(t-lam) = D(lam); the generating pair is reproduced up to
    the complementary scalar on phi.
    """
    lam, mu = complex(lam), complex(mu)
    u = _c_normalized(u)
    v = _c_normalized(v)
    psi = RatFun.const(1.0) - _times_linear(u, lam)
    phi0 = RatFun.const(1.0) - _times_linear(v, mu)
    scale = 1.0 + l2_norm(u)
    if l2_norm(psi) < 1e-8 * scale or l2_norm(phi0) < 1e-8 * (1.0 + l2_norm(v)):
        raise ValueError(INSUFFICIENT)
    # unknown scalar s with phi = s * phi0; two relations between D(lam) and
    # the normalization pin it down:
    #   conj(s) * int conj(phi0)/(t-lam)            = D(lam)   (gauge)
    #   1 + conj(s) * int psi conj(phi0)/(t-lam)    = D(lam)   (definition of D)
    phi0_bar = conj_reflect(phi0)
    c1 = cauchy_transform(phi0_bar, lam)
    c2 = cauchy_transform(psi * phi0_bar, lam)
    if abs(c1 - c2) < 1e-12:
        raise ValueError(INSUFFICIENT)
    s = np.conj(1.0 / (c1 - c2))
    return psi, phi0 * s


# ---------------------------------------------------------------------------
# oracle for the restricted resolvent
# ---------------------------------------------------------------------------

@dataclass
class ResolventOracle:
    """Span-restricted resolvent access with a query transcript.

    ``sample(mu)`` returns an element of the solution range at mu, normalized
    to regularization constant 1; ``resolve(lam, g)`` applies the resolvent to
    previously sampled elements.  Recovery code must touch the model only
    through these two calls.
    """

    _model: FriedrichsModel
    transcript: list = field(default_factory=list)

    def _log(self, op, lam, g):
        h = hashlib.sha256()
        h.update(repr(np.round(g.num.coeffs, 12)).encode())
        h.update(repr(np.round(g.den.coeffs, 12)).encode())
        self.transcript.append((op, complex(lam), h.hexdigest()[:16]))

    def sample(self, mu):
        mu = complex(mu)
        el = solution_operator(self._model, mu)
        g = _c_normalized(el)
        self._log("sample", mu, g)
        return g

    def resolve(self, lam, g):
        lam = complex(lam)
        self._log("resolve", lam, g)
        return apply_resolvent(self._model, lam, g)


@dataclass(frozen=True)
class RecoveryResult:
    psi: RatFun
    B: complex
    lams: tuple
    phibar_over_D: tuple
    m_values: tuple
    errors: dict

    def as_dict(self):
        return {
            "B": [self.B.real, self.B.imag],
            "lams": [[l.real, l.imag] for l in self.lams],
            "phibar_over_D": [[a.real, a.imag] for a in self.phibar_over_D],
            "m_values": [[m.real, m.imag] for m in self.m_values],
            "errors": self.errors,
        }


def _gauge_normalize(psi):
    """Scale psi so its first partial-fraction coefficient is 1.

    Poles are ordered by (Im, Re); at each pole the highest-order coefficient
    is inspected first.  Returns the scaled psi and that term's (pole, order).
    """
    terms, _ = partial_fractions(psi)
    terms.sort(key=lambda t: (t[0].imag, t[0].real, -t[1]))
    for z, k, c in terms:
        if abs(c) > 1e-12:
            return psi * (1.0 / c), (z, k)
    raise ValueError("no usable partial-fraction coefficient")


def _coefficient(f, term):
    """Coefficient of f at the (pole, order) term, 0 where f has none."""
    z0, k0 = term
    for z, k, c in partial_fractions(f)[0]:
        if k == k0 and abs(z - z0) <= _CLUSTER * (1.0 + abs(z0)):
            return c
    return 0j


def _mass(f):
    """Pole count times the summed moduli of f's partial-fraction coefficients:
    rounding in any sum of f's coefficients is at most _EPS times this."""
    terms = partial_fractions(f)[0]
    return len(terms) * sum(abs(c) for _, _, c in terms)


def _coefficient_gap(f, h):
    """Largest difference of matching partial-fraction coefficients of f and h."""
    terms = partial_fractions(f)[0] + partial_fractions(h)[0]
    return max(abs(_coefficient(f, (z, k)) - _coefficient(h, (z, k)))
               for z, k, _ in terms)


def _psi_from_probe(oracle, lam, g):
    """(f - g/(x-lam) - c_f/(x-lam)) * (x - lam) = psi * A(lam), with the
    factor by which that subtraction amplifies rounding.  psi decays, so the
    constant the product leaves is rounding and is dropped."""
    el = oracle.resolve(lam, g)
    pole = RatFun.simple_pole(lam)
    lhs = el.f - g * pole - el.c * pole
    cond = (_mass(el.f) + _mass(g * pole) + abs(el.c)) / max(_mass(lhs), _EPS)
    cand = _times_linear(lhs, lam)
    return cand - cand.value_at_infinity, cond


def _default_lam_grid():
    res = np.array([-2.3, -1.1, -0.4, 0.2, 0.9, 1.6, 2.4, 3.1, -3.2, 1.2])
    ims = np.array([0.7, 1.3, 2.1, 0.9, 1.7, 1.1, 2.6, 0.8, 1.9, 1.4])
    lams = res + 1j * ims
    return tuple(np.concatenate([lams, np.conj(lams)]))


# stage-1 probes (mu, lam), two per half-plane, the lower ones the mirror
# images of the upper ones; off the axis to dodge accidental zeros of A(lam)
_PROBES = ((1.9j, 0.7 + 1.3j), (2.0 + 1.2j, -0.8 + 0.9j),
           (-1.9j, 0.7 - 1.3j), (2.0 - 1.2j, -0.8 - 0.9j))


def recover_from_restricted_resolvent(oracle, lam_grid=None):
    """Recovery of (psi, B, phibar_hat/D, M) from a ResolventOracle.

    Stage 1 reads psi off the resolvent of a sample at each probe; psi_r is
    it in the gauge of ``_gauge_normalize``.  A sample at mu is
    g_mu = (1 - a(mu) psi_r)/(x - mu), a = gauge * phibar_hat/D, so a(mu) is
    minus the gauge-term coefficient of (x - mu) g_mu - 1.  Stage 2: for
    el = resolve(lam, g_mu), (lam - mu) c_el = M(lam)/M(mu) - 1, and with
    P = s pi i - psihat_r a = 1/M + B (s the sign of Im) that reads
    1/M(lam) = (P(mu) - P(lam)) / ((lam - mu) c_el); lam and mu are probes in
    opposite half-planes and B = P(lam) - 1/M(lam).  Stage 3 samples each
    grid point once: M(lam) = 1/(P(lam) - B).

    Each ``errors`` entry is the disagreement of two independent finite-point
    routes plus a rounding floor, a few _EPS times the ``_mass`` that cancels
    on the way: ``psi`` (relative to psi_r's largest coefficient) against the
    other probes, ``B`` against a second probe pair, ``phibar_over_D`` (worst
    on the grid) against the projection -<(x - mu) g_mu - 1, psi_r>/|psi_r|^2.
    """
    lam_grid = _default_lam_grid() if lam_grid is None else tuple(map(complex, lam_grid))
    errors = {}

    # stage 1: psi from each probe; every successful sample is kept
    samples, blocked, cands = {}, [], []
    for mu0, lam0 in _PROBES:
        try:
            samples[mu0] = oracle.sample(mu0)
            cand, cond = _psi_from_probe(oracle, lam0, samples[mu0])
        except EigenvalueError:
            blocked.append(np.sign(mu0.imag))
            continue
        if l2_norm(cand) > 1e-9:
            cands.append((cand, cond))
    if 2 in (blocked.count(1), blocked.count(-1)):
        raise ReconError(
            "one pathological case: every probe in a half-plane is an "
            "eigenvalue (boundary parameter +-i*pi with undetectable data); "
            "recovery impossible")

    psi, errors["psi"] = RatFun.zero(), 0.0
    if cands:
        psi, term = _gauge_normalize(cands[0][0])
        gap = max((_coefficient_gap(psi, _gauge_normalize(c)[0]) for c, _ in cands[1:]),
                  default=0.0)
        scale = max(abs(c) for _, _, c in partial_fractions(psi)[0])
        errors["psi"] = float(gap / scale + 4 * _EPS * cands[0][1])
        psi_sq = inner_product(psi, psi)

    def p_of(mu, g):
        """(P(mu), its error bound, a(mu), the error bound of a) from g_mu."""
        if psi.is_zero:
            return np.sign(mu.imag) * PI * 1j, 0.0, 0j, 0.0
        r = _times_linear(g, mu) - 1.0
        a = -_coefficient(r, term)
        a_err = abs(a + inner_product(r, psi) / psi_sq) + _EPS * abs(a) * (8 + _mass(g))
        ph = cauchy_transform(psi, mu)
        p = np.sign(mu.imag) * PI * 1j - ph * a
        return p, abs(ph) * a_err + 4 * _EPS * abs(p), a, a_err

    # stage 2: B from two probe pairs in opposite half-planes
    parts = {mu: p_of(mu, g) for mu, g in samples.items()}
    ups = [mu for mu in samples if mu.imag > 0]
    downs = [mu for mu in samples if mu.imag < 0]
    routes = []
    for lam, mu in ((ups[0], downs[0]), (downs[-1], ups[-1])):
        el = oracle.resolve(lam, samples[mu])
        (p_l, e_l, *_), (p_m, e_m, *_) = parts[lam], parts[mu]
        inv_m = (p_m - p_l) / ((lam - mu) * el.c)
        rel = (e_m + e_l) / abs(p_m - p_l) + _EPS * (8 + _mass(el.f) / abs(el.c))
        routes.append((p_l - inv_m, e_l + abs(inv_m) * rel))
    (B, b_err), (B2, _) = routes
    errors["B"] = float(abs(B - B2) + b_err)

    # stage 3: a and M on the grid, one sample per point
    grid = [p_of(lam, None if psi.is_zero else oracle.sample(lam)) for lam in lam_grid]
    errors["phibar_over_D"] = float(max((a_err for *_, a_err in grid), default=0.0))
    return RecoveryResult(psi, complex(B), lam_grid, tuple(a for _, _, a, _ in grid),
                          tuple(1.0 / (p - B) for p, *_ in grid), errors)


# ---------------------------------------------------------------------------
# pointwise M recovery from bordered data
# ---------------------------------------------------------------------------

def m_from_two_resolvents(pairing_B, pairing_C, w, wt, B, C):
    """M at the probe point from a pair of bordered resolvent pairings.

    pairing_B = <(A_B-lam)^{-1} g, v>, pairing_C likewise for the comparison
    boundary condition C; w = Gamma_2 (A_C-lam)^{-1} g and wt the adjoint-side
    trace of (A_C-lam)^{-*} v.  Solves the rank-one resolvent-difference
    relation
        pairing_B - pairing_C = conj(S* v) (1 + (B-C) M_B) (B-C) w,
    where the solution-operator adjoint is S* v = -wt in the regularization
    trace convention used here.
    """
    B, C = complex(B), complex(C)
    if B == C:
        raise ValueError("boundary conditions must differ")
    if abs(w) < 1e-13 or abs(wt) < 1e-13:
        raise ValueError("vanishing trace data denominator")
    stuff = (complex(pairing_B) - complex(pairing_C)) / np.conj(-wt)
    return (stuff / ((B - C) * w) - 1.0) / (B - C)


def m_from_one_bordered(pairing_fn, v, vt, lams, tol=1e-12):
    """Sampled M from one bordered resolvent over a window off both supports.

    v, vt are nonnegative piecewise weights supported in a common interval
    set disjoint from the supports of phi and psi; pairing_fn(lam) supplies
    <(A_B-lam)^{-1} v, vt>.  Real weights make conj(vt) = vt, so the three
    transforms are Cauchy transforms of v, vt and their product (closed form
    for indicator pieces).  Grid points where a denominator factor falls
    below tol are skipped with ok=False.
    """
    prod = piecewise_product(v, vt)
    out = []
    for lam in map(complex, lams):
        num = cauchy_transform_num(prod, lam) - complex(pairing_fn(lam))
        d1 = cauchy_transform_num(v, lam)
        d2 = cauchy_transform_num(vt, lam)
        if abs(d1) < tol or abs(d2) < tol:
            out.append((lam, None, False))
            continue
        out.append((lam, num / (d1 * d2), True))
    return out


def bordered_from_m(m_lam, lam, mu, mu_t, f, w, F_pair_v, gamma2t_v):
    """Resolvent pairing <(A_B-lam)^{-1} F, v> rebuilt from an M-value.

    F is the range element at mu with boundary data f, v the adjoint-side
    range element at mu_t with boundary data w; F_pair_v = <F, v> and
    gamma2t_v is the second trace of v.
    """
    lam, mu, mu_t = complex(lam), complex(mu), complex(mu_t)
    if abs(lam - mu) < 1e-12 or abs(lam - np.conj(mu_t)) < 1e-12:
        raise ValueError("lam coincides with a pole of the pairing")
    mtc = np.conj(mu_t)
    num = (complex(F_pair_v) * (mtc - lam) - complex(m_lam) * f * np.conj(w)
           + f * np.conj(gamma2t_v))
    return num / ((mu - lam) * (mtc - lam))


def pairing_m_value(pair_RF_v, lam, mu, mu_t, f, w, F_pair_v, gamma2t_v):
    """Inverse of bordered_from_m: M at lam from one resolvent pairing."""
    lam, mu, mu_t = complex(lam), complex(mu), complex(mu_t)
    mtc = np.conj(mu_t)
    if abs(f) < 1e-13 or abs(w) < 1e-13:
        raise ValueError("vanishing boundary data")
    num = (complex(F_pair_v) * (mtc - lam)
           - complex(pair_RF_v) * (mu - lam) * (mtc - lam)
           + f * np.conj(gamma2t_v))
    return num / (f * np.conj(w))
