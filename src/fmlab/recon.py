"""Inverse problems: recovering model data and M-values from resolvent access.

Four routes are implemented:

* ``recover_from_ranges``  — both solution-operator ranges known at one point
  each; returns (psi, phi) exactly up to the stated scalar gauge.
* ``recover_from_restricted_resolvent`` — only the resolvent restricted to the
  closed span of solution ranges is known, through a ``ResolventOracle``;
  three sequential stages recover psi (up to scale), the boundary parameter B,
  and the sampled ratio phibar_hat/D, from which M is assembled.
* ``m_from_two_resolvents`` / ``m_from_one_bordered`` — pointwise M recovery
  from bordered-resolvent pairings (two boundary conditions, or one bordered
  resolvent plus a window disjoint from both supports).
* ``bordered_from_m`` — the converse direction: synthesize a resolvent pairing
  from M-values and trace data.

All infinite limits are realized as finite ladders with polynomial
extrapolation to 0 in the reciprocal parameter; results carry the observed
extrapolation defect as an error estimate.
"""
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .ratfun import (Poly, RatFun, cauchy_transform, conj_reflect, l2_norm,
                     partial_fractions)
from .hardy import quad_gk
from .friedrichs import (DomainElement, EigenvalueError, FriedrichsModel,
                         apply_resolvent, solution_operator, traces)

PI = np.pi

INSUFFICIENT = "insufficient information"

# default ladder of imaginary parts standing in for the Im -> infinity limits
_LADDER = (1e2, 1e3, 1e4)


class ReconError(RuntimeError):
    pass


def _neville_zero(xs, ys):
    """Polynomial extrapolation of ys(xs) to 0, with a crude error estimate."""
    ys = [np.asarray(y, dtype=complex) for y in ys]
    n = len(xs)
    tab = list(ys)
    prev = tab[0]
    for m in range(1, n):
        nxt = []
        for i in range(n - m):
            num = (0.0 - xs[i]) * tab[i + 1] - (0.0 - xs[i + m]) * tab[i]
            nxt.append(num / (xs[i + m] - xs[i]))
        tab = nxt
        prev = tab[0]
    err = float(np.max(np.abs(prev - ys[-1])))
    return prev, err


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
    metadata: str = "restricted-resolvent"
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
    is inspected first.
    """
    if psi.is_zero:
        return psi, 0j
    terms, _ = partial_fractions(psi)
    terms.sort(key=lambda t: (t[0].imag, t[0].real, -t[1]))
    for _, _, c in terms:
        if abs(c) > 1e-12:
            return psi * (1.0 / c), c
    raise ValueError("no usable partial-fraction coefficient")


def _psi_from_probe(oracle, lam, g):
    """(f - g/(x-lam) - c_f/(x-lam)) * (x - lam) = psi * A(lam)."""
    el = oracle.resolve(lam, g)
    pole = RatFun.simple_pole(lam)
    lhs = el.f - g * pole - el.c * pole
    return _times_linear(lhs, lam), el.c


def _default_lam_grid():
    res = np.array([-2.3, -1.1, -0.4, 0.2, 0.9, 1.6, 2.4, 3.1, -3.2, 1.2])
    ims = np.array([0.7, 1.3, 2.1, 0.9, 1.7, 1.1, 2.6, 0.8, 1.9, 1.4])
    lams = res + 1j * ims
    return tuple(np.concatenate([lams, np.conj(lams)]))


def recover_from_restricted_resolvent(oracle, lam_grid=None, ladder=_LADDER):
    """Three-stage recovery of (psi, B, phibar_hat/D, M) from a ResolventOracle."""
    lam_grid = _default_lam_grid() if lam_grid is None else tuple(map(complex, lam_grid))
    errors = {}

    # probe points for stage 1; varied to dodge accidental zeros of A(lam)
    probes = [(1.9j, 0.7 + 1.3j), (-1.7j, 0.4 - 1.1j), (2.0 + 1.2j, -0.8 + 0.9j)]

    blocked = {"+": 0, "-": 0}
    psi_raw = None
    psi_checks = []
    for mu0, lam0 in probes:
        try:
            g = oracle.sample(mu0)
            cand, _ = _psi_from_probe(oracle, lam0, g)
        except EigenvalueError:
            blocked["+" if mu0.imag > 0 else "-"] += 1
            continue
        if l2_norm(cand) > 1e-9:
            if psi_raw is None:
                psi_raw = cand
            else:
                psi_checks.append(cand)
    if blocked["+"] >= 2 or blocked["-"] >= 2:
        raise ReconError(
            "one pathological case: every probe in a half-plane is an "
            "eigenvalue (boundary parameter +-i*pi with undetectable data); "
            "recovery impossible")

    if psi_raw is None:
        psi = RatFun.zero()
        errors["psi"] = 0.0
    else:
        psi, _ = _gauge_normalize(psi_raw)
        errs = []
        for cand in psi_checks:
            other, _ = _gauge_normalize(cand)
            errs.append(l2_norm(psi - other) / max(l2_norm(psi), 1e-30))
        errors["psi"] = float(max(errs)) if errs else 0.0

    # stage 2: B from the lam = -mu asymptotics, extrapolated in 1/Im(mu)
    ests = []
    for h in ladder:
        mu = 1j * h
        g = oracle.sample(mu)
        el = oracle.resolve(-mu, g)
        lam = -mu
        ests.append(-1j * PI - 2j * PI / ((lam - mu) * el.c))
    B, b_err = _neville_zero([1.0 / h for h in ladder], ests)
    B = complex(B)
    errors["B"] = b_err

    # stage 3: phibar_hat/D on the lam grid
    a_vals, m_vals = [], []
    stage3_err = 0.0
    if psi.is_zero:
        for lam in lam_grid:
            sgn = np.sign(lam.imag)
            a_vals.append(0j)
            m_vals.append(1.0 / (1j * PI * sgn - B))
    else:
        psi_hat = {lam: cauchy_transform(psi, lam) for lam in lam_grid}
        xeval = 0.37  # arbitrary real point where psi is sampled
        for lam in lam_grid:
            sgn = np.sign(lam.imag)
            ks = []
            for h in ladder:
                mu = 1j * sgn * h
                g = oracle.sample(mu)
                el = oracle.resolve(lam, g)
                pole = RatFun.simple_pole(lam)
                lhs = el.f - g * pole - el.c * pole
                t_val = -complex(_times_linear(lhs, lam)(xeval)) / complex(psi(xeval))
                ks.append((lam - mu) * t_val)
            k_inf, k_err = _neville_zero([1.0 / h for h in ladder], ks)
            stage3_err = max(stage3_err, k_err)
            denom = 1j * PI * sgn - B
            if abs(denom) < 1e-8:
                raise ReconError(
                    "one pathological case: boundary parameter equals "
                    "+-i*pi; the transform ratio is not recoverable")
            alpha = complex(k_inf) / denom
            a_val = alpha * denom / (1.0 + alpha * psi_hat[lam])
            a_vals.append(a_val)
            m_vals.append(1.0 / (1j * PI * sgn - psi_hat[lam] * a_val - B))
    errors["phibar_over_D"] = stage3_err

    return RecoveryResult(psi, B, lam_grid, tuple(a_vals), tuple(m_vals), errors)


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
    <(A_B-lam)^{-1} v, vt>.  Grid points where a denominator factor falls
    below tol are skipped with ok=False.
    """
    out = []
    for lam in map(complex, lams):
        num = _window_quad(v, vt, lam) - complex(pairing_fn(lam))
        d1 = _window_quad(v, None, lam)
        d2 = _window_quad(None, vt, lam)
        if abs(d1) < tol or abs(d2) < tol:
            out.append((lam, None, False))
            continue
        out.append((lam, num / (d1 * d2), True))
    return out


def _window_quad(v, vt, lam):
    """int v(t) conj(vt(t)) / (t - lam) dt with either factor defaulting to 1."""
    pw = v if v is not None else vt
    total = 0j
    for a, b in pw.support:
        def f(t):
            val = np.ones_like(t, dtype=complex) if v is None else np.asarray(v(t))
            if vt is not None:
                val = val * np.conj(np.asarray(vt(t)))
            return val / (t - lam)
        total += quad_gk(f, a, b)
    return total


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
