"""Detectable-subspace analysis for the rank-one model.

Routes to the defect number dim S-perp:

* root counting for data in the upper Hardy class: the meromorphic
  continuation D_plus of the perturbation determinant is rational, and the
  defect is N - P - M - M0 (pole count of psi minus the roots of D_plus
  below and on the axis that neither sit at a data pole nor cancel against
  a zero of phibar, minus degenerate data poles).  For the family
  (phi, alpha psi) the roots are the eigenvalues of one monic pencil, and
  one classification (`_classify`) counts one model (`defect_hardy_plus`)
  and any number of alphas (`pencil_defects`) alike;
* the Toeplitz route for data in the lower Hardy class: the defect is the
  number of lower-half-plane zeros of the shifted symbol a - mu_alpha,
  i.e. the Blaschke degree of its inner factor;
* disjoint-support classification for piecewise data, where detectability
  is decided by whether 1 - psi(k) phibarhat(k - i0) vanishes on a set of
  positive measure.

The module also evaluates M-function jumps across the real axis, certifies
S-perp candidates by residuals against solution-operator ranges, compares
the rank of the bordered-resolvent jump, read off the M jump through the
pairing identity, with the rank of the M jump, and samples the
multiplication-symbol curve whose complement components organize the
(1/alpha)-plane.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .ratfun import (
    Poly, RatFun, REAL_BAND, _CLUSTER,
    companion_roots, conj_reflect, l2_norm, partial_fractions, poly_roots,
)
from .hardy import (
    ENDPOINT_TOL, PiecewiseFun, _shaped, boundary_value, cauchy_transform_num,
    factorize_rational, piecewise_product, quad_gk,
)
from .friedrichs import FriedrichsModel

__all__ = [
    "DefectReport", "JumpReport", "PiecewiseModel", "RankCheck",
    "SpectrumMembership", "DisjointReport", "SymbolCurve",
    "continuation_terms", "alpha_pencil", "pencil_roots", "pencil_defects",
    "defect_hardy_plus", "sperp_basis", "sperp_residual",
    "toeplitz_defect", "toeplitz_sperp_basis", "spectrum_T_membership",
    "disjoint_support_classify", "mb_jump", "jump_rank_check",
    "symbol_M_curve", "cauchy_kernel_model",
]

PI = np.pi

# classification tolerances; the real-axis band matches the root finder's
_PHIBAR_ZERO_TOL = 1e-10
_M0_LIMIT_TOL = 1e-8
_RESIDUE_CUT = 1e-13      # psi residues at or below this are dropped
_CURVE_HALFWIDTH, _CURVE_N = 60.0, 4001    # spectrum_T_membership's sampled a(R)
_AT_INFINITY_TOL = 1e-8   # relative distance of mu to the symbol's value at infinity
_DISJOINT_N, _DISJOINT_TOL = 200, 1e-6      # samples per psi interval; |v| taken as 0
_ON_CURVE_TOL = 1e-6      # SymbolCurve.membership: relative distance to the curve
# rounding of the computed jump of M (mb_jump): this times the size of the
# terms summed into M^{-1}, over |M^{-1}(k + i0) M^{-1}(k - i0)|
_JUMP_ROUND = 8 * np.finfo(float).eps

# classes of a root of the continued determinant (see _root_classes)
_P, _M, _UPPER, _EXCLUDED, _CANCELLED = range(5)
_CLASS_NAMES = ("P", "M", "UPPER", "EXCLUDED", "CANCELLED")


@dataclass(frozen=True)
class DefectReport:
    N: int
    P: int
    M: int
    M0: int
    defect: int
    roots: tuple              # ((location, class), ...)
    route: str                # HARDY_PLUS | TOEPLITZ
    degenerate: bool = False
    notes: tuple = ()

    def as_dict(self):
        return {
            "N": self.N, "P": self.P, "M": self.M, "M0": self.M0,
            "defect": self.defect,
            "roots": [[z.real, z.imag, cls] for z, cls in self.roots],
            "route": self.route, "degenerate": self.degenerate,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class JumpReport:
    k: float
    jump_Minv: complex
    jump_M: complex
    rank: int


@dataclass(frozen=True)
class PiecewiseModel:
    """Model data where phi and/or psi are compactly supported piecewise
    functions (assumed real-valued, so conjugation is the identity)."""

    phi: object
    psi: object
    B: complex = 0.0


@dataclass(frozen=True)
class RankCheck:
    """A refused check has resolved False, a reason, and None for the ranks
    and the jump matrix."""

    rank_resolvent: int
    rank_M: int
    equal: bool
    resolved: bool
    jump_matrix: object = None
    reason: str = ""


# ---------------------------------------------------------------------------
# transforms of products, for rational and piecewise data
# ---------------------------------------------------------------------------

def _phibar_of(f):
    return conj_reflect(f) if isinstance(f, RatFun) else f


def _support_quad(pw, g, lam):
    """int pw(t) g(t)/(t - lam) over the support of the piecewise factor, at
    each lam of a scalar or an array."""
    lams = np.asarray(lam, dtype=complex).ravel()
    out = [sum((quad_gk(lambda t: pw(t) * g(t) / (t - z), a, b) for a, b in pw.support), 0j)
           for z in lams.tolist()]
    return _shaped(np.array(out, dtype=complex), lam)


def _hat_product(a, b, lam):
    """int a(t) b(t)/(t - lam) dt for rational or piecewise a and b, lam a
    scalar or an array.

    `piecewise_product` makes a b one function: rational factors multiply
    in closed form, and any piecewise factor gives one piecewise function;
    disjoint supports give no pieces, so exactly 0.  Only an overlap that
    is none of the piece kinds integrates the two factors.
    """
    try:
        prod = piecewise_product(a, b)
    except ValueError:
        pw, g = (b, a) if isinstance(a, RatFun) else (a, b)
        return _support_quad(pw, g, lam)
    return cauchy_transform_num(prod, lam)


def _d_at(phi, psi, lam):
    """Perturbation determinant 1 + int psi phibar/(t - lam), lam a scalar
    or an array."""
    return 1.0 + _hat_product(psi, _phibar_of(phi), lam)


def _l2_of(g):
    if isinstance(g, RatFun):
        return l2_norm(g)
    val = 0.0
    for a, b in g.support:
        val += quad_gk(lambda t: np.abs(g(t)) ** 2, a, b).real
    return float(np.sqrt(val))


# ---------------------------------------------------------------------------
# upper-Hardy route: root counting on the continued determinant
# ---------------------------------------------------------------------------

def _require_halfplane(f, where, name):
    for p in f.poles:
        if p.half_plane != where:
            raise ValueError(f"{name} must have all poles in the "
                             f"{'lower' if where == 'LOWER' else 'upper'} half-plane")


def _rat_deriv_at(f, z):
    n, d = f.num, f.den
    nv, dv = n(z), d(z)
    npv = n.deriv()(z) if n.degree >= 1 else 0j
    dpv = d.deriv()(z) if d.degree >= 1 else 0j
    return (npv * dv - nv * dpv) / (dv * dv)


def _psi_pole_data(psi, cut=_RESIDUE_CUT):
    terms, _ = partial_fractions(psi)
    if any(k > 1 for _, k, _ in terms):
        raise ValueError("psi must have simple poles only")
    return [(z, c) for z, k, c in terms if abs(c) > cut]


def _hardy_plus_poles(model):
    """The psi pole data of a model that the upper-Hardy route accepts:
    every pole with a nonzero residue, since the residue cut applies to
    alpha c_k and so is made per alpha."""
    _require_halfplane(model.phi, "LOWER", "phi")
    _require_halfplane(model.psi, "LOWER", "psi")
    pole_data = _psi_pole_data(model.psi, 0.0)
    zs = [z for z, _ in pole_data]
    if len(set(np.round(np.array(zs, dtype=complex), 9))) != len(zs):
        raise ValueError("psi poles must be distinct")
    return pole_data


def continuation_terms(model):
    """(z_k, a_k) with a_k = c_k phibar(z_k) over the simple psi poles z_k.

    The real-root curve of the alpha family in the 1/alpha plane is
    2 pi i xi(t), xi(t) = sum_k a_k/(z_k - t) for real t.
    """
    return tuple((z, c * complex(model.phibar(z))) for z, c in _psi_pole_data(model.psi))


def d_plus(model):
    """Meromorphic continuation of D from the upper half-plane, as a RatFun.

    For psi = sum c_j/(x - z_j) with poles below the axis and phi in the same
    class, D_plus(mu) = 1 + 2 pi i sum_j a_j/(mu - z_j) over the
    continuation_terms (z_j, a_j).
    """
    out = RatFun.const(1.0)
    for z, a in continuation_terms(model):
        if a != 0:
            out = out + RatFun.simple_pole(z, 2j * PI * a)
    return out


def alpha_pencil(model):
    """The continued determinant of the family (phi, alpha psi) as a pencil.

    Returns (zs, P, Q), coefficients ascending: P = prod_k (x - z_k) is monic
    of degree N over the psi poles z_k with a nonzero residue c_k, and
    Q = sum_k a_k prod_{j != k} (x - z_j) with a_k = c_k phibar(z_k), so
    that d_plus of (phi, alpha psi) is (P + 2 pi i alpha Q)/P for every
    alpha at which no |alpha c_k| is at or below the residue cut.
    """
    terms = [(z, c * complex(model.phibar(z))) for z, c in _psi_pole_data(model.psi, 0.0)]
    zs = np.array([z for z, _ in terms], dtype=complex)
    Q = np.zeros(len(zs), dtype=complex)
    for k, (_, a) in enumerate(terms):
        Q += a * npp.polyfromroots(np.delete(zs, k))
    return zs, npp.polyfromroots(zs).astype(complex), Q


def pencil_roots(pencil, alphas):
    """Roots of P + 2 pi i alpha Q for each alpha: an array (len(alphas), N).

    The numerator is monic of degree N, so its roots are the eigenvalues of
    its companion matrix; all alphas share one stacked eigvals call.
    """
    _, P, Q = pencil
    alphas = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    return companion_roots(P[:-1] + 2j * PI * alphas * Q)


def _zeros(f):
    """Zeros of a RatFun with multiplicities: the roots of its numerator."""
    return poly_roots(f.num) if f.num.degree >= 1 else []


def _root_classes(roots, zs, zeros):
    """Class of each root (array, last axis the roots of one alpha) of the
    continued determinant, with data poles zs and phibar zeros (z, m).

    A root within _CLUSTER of a zero of phibar cancels against it, each zero
    taking at most its multiplicity of roots.  Of the others, a root within
    REAL_BAND of the axis is M, one above the band UPPER, one within
    _CLUSTER of a data pole EXCLUDED, and every other one P.
    """
    near_pole = np.any(np.abs(roots[..., None] - zs)
                       <= _CLUSTER * (1.0 + np.abs(zs)), axis=-1)
    cls = np.select([np.abs(roots.imag) < REAL_BAND, roots.imag > 0, near_pole],
                    [_M, _UPPER, _EXCLUDED], _P)
    for zeta, m in zeros:
        hit = (cls != _CANCELLED) & (np.abs(roots - zeta) <= _CLUSTER * (1.0 + abs(zeta)))
        cls[hit & (np.cumsum(hit, axis=-1) <= m)] = _CANCELLED
    return cls


def _classify(model, alphas):
    """Classify the continued determinant of (phi, alpha psi) for each alpha.

    The roots are the eigenvalues of the monic pencil P + 2 pi i alpha Q
    (`alpha_pencil`, `pencil_roots`), classed by `_root_classes`.  A psi pole
    z_k is live when |alpha c_k| is above the residue cut; N counts the live
    poles, and a dead pole keeps its root next to z_k, which is EXCLUDED.
    A live pole is M0 where |phibar(z_k)| <= _PHIBAR_ZERO_TOL and the limit
    2 pi i alpha c_k phibar'(z_k)/D_k(z_k) is not 1, with D_k the continued
    determinant without its k-th term (D_plus itself has a pole at z_k).

    Returns (zs, roots, cls, live, m0, unit): data poles (n,), roots and
    classes (len(alphas), n), and masks (len(alphas), n) of the live, the M0
    and the degenerate-but-unit-limit data poles.
    """
    pole_data = _hardy_plus_poles(model)
    pencil = alpha_pencil(model)
    zs = pencil[0]
    cs = np.array([c for _, c in pole_data], dtype=complex)
    alphas = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    phibar = model.phibar
    roots = pencil_roots(pencil, alphas)
    cls = _root_classes(roots, zs, _zeros(phibar))
    live = np.abs(alphas * cs) > _RESIDUE_CUT
    m0 = np.zeros(live.shape, dtype=bool)
    unit = np.zeros(live.shape, dtype=bool)
    pz = phibar(zs)
    for k in np.flatnonzero(np.abs(pz) <= _PHIBAR_ZERO_TOL):
        others = np.arange(len(zs)) != k
        rest = (live[:, others] * (cs * pz)[others]) @ (1.0 / (zs[k] - zs[others]))
        limit = 2j * PI * alphas[:, 0] * cs[k] * _rat_deriv_at(phibar, zs[k]) \
            / (1.0 + 2j * PI * alphas[:, 0] * rest)
        off = np.abs(limit - 1.0) > _M0_LIMIT_TOL
        m0[:, k] = live[:, k] & off
        unit[:, k] = live[:, k] & ~off
    return zs, roots, cls, live, m0, unit


def pencil_defects(model, alphas):
    """defect_hardy_plus(phi, alpha psi).defect for many alphas at once.

    One `_classify` call: N - P - M - M0 for each alpha.  Entries are -1 for
    a degenerate alpha, one with a root in the real band (and for a count
    that comes out negative).  Raises ValueError for a model the
    upper-Hardy route refuses: psi poles repeated or not distinct, or data
    in the wrong half-plane.
    """
    _, _, cls, live, m0, _ = _classify(model, alphas)
    defect = live.sum(1) - np.sum((cls == _P) | (cls == _M), axis=1) - m0.sum(1)
    return np.where(np.any(cls == _M, axis=1) | (defect < 0), -1, defect)


def defect_hardy_plus(model):
    """Defect number for data in the upper Hardy class, by root counting.

    N counts the psi poles; P and M the roots of the continued determinant
    D_plus below and on the axis, less those at a data pole or cancelled by
    a zero of phibar; M0 the degenerate data poles (phibar vanishing there
    without restoring the unit limit).  `_classify` at alpha = 1; the roots
    of the report are the classified roots with their class, then the M0
    data poles.
    """
    zs, roots, cls, live, m0, unit = _classify(model, [1.0])
    roots, cls = roots[0].tolist(), cls[0]
    N, M0 = int(live.sum()), int(m0.sum())
    P, M = int(np.sum(cls == _P)), int(np.sum(cls == _M))
    notes = [f"continuation pole at data pole {r:.6g}"
             for r, c in zip(roots, cls) if c == _EXCLUDED]
    notes += [f"data pole {z:.6g} degenerate but unit limit" for z in zs[unit[0]]]
    defect = N - P - M - M0
    if defect < 0:
        raise RuntimeError(f"negative defect {defect}: classification failed")
    classified = [(r, _CLASS_NAMES[c]) for r, c in zip(roots, cls)]
    classified += [(complex(z), "M0") for z in zs[m0[0]]]
    return DefectReport(N, P, M, M0, defect, tuple(classified), "HARDY_PLUS",
                        M > 0, tuple(notes))


def sperp_basis(model):
    """Orthogonal-complement basis for the upper-Hardy route.

    Solves the linear constraints that cancel every continuation pole of
    phibar/D_plus in the values (gbar(z_1), ..., gbar(z_N)), then rebuilds
    each basis function from the interpolation formula
    gbar = (phibar/D_plus) * sum_j c_j gbar(z_j)/(mu - z_j).  The poles
    are the zeros of D_plus, each repeated by its multiplicity and classed
    by `_root_classes` as in the count: the m-th P or M copy of a zero
    gives the constraint of order m.  The count is `defect_hardy_plus`:
    each of its M0 data poles fixes that value to 0, and the basis has its
    defect's dimension.
    """
    report = defect_hardy_plus(model)
    pole_data = _psi_pole_data(model.psi)
    N = len(pole_data)
    if report.defect == 0:
        return []
    dp = d_plus(model)
    g0 = model.phibar / dp
    zs = np.array([z for z, _ in pole_data], dtype=complex)
    roots = np.array([r for r, m in _zeros(dp) for _ in range(m)], dtype=complex)
    rows, order = [], {}
    for r, cls in zip(roots.tolist(), _root_classes(roots, zs, _zeros(model.phibar))):
        if cls in (_P, _M):
            order[r] = order.get(r, 0) + 1
            rows.append([c / (r - z) ** order[r] for z, c in pole_data])
    for z, cls in report.roots:
        if cls == "M0":
            j = int(np.argmin([abs(z - zz) for zz, _ in pole_data]))
            row = [0.0] * N
            row[j] = 1.0
            rows.append(row)
    if rows:
        A = np.array(rows, dtype=complex)
        _, s, vh = np.linalg.svd(A)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
        null = vh[rank:].conj()
    else:
        null = np.eye(N, dtype=complex)
    if null.shape[0] != report.defect:
        raise RuntimeError(
            f"nullspace dimension {null.shape[0]} != defect {report.defect}")
    basis = []
    for w in null:
        hsum = RatFun.zero()
        for (z, c), wj in zip(pole_data, w):
            hsum = hsum + RatFun.simple_pole(z, c * wj)
        gbar = g0 * hsum
        g = conj_reflect(gbar)
        basis.append(g * (1.0 / l2_norm(g)))
    return basis


# deterministic probe grid: both half-planes, several heights; the offsets
# keep the points off round pole locations common in worked examples
_MU_RE = (-2.13, -0.87, 0.04, 1.09, 2.21)
_MU_IM = (0.53, 1.07, 1.71, 2.49, 3.93)
_MU_GRID = tuple(complex(re, s * im) for re in _MU_RE for im in _MU_IM
                 for s in (1.0, -1.0))


def sperp_residual(model, g, mus=_MU_GRID, Bs=None):
    """Max normalized pairing |<S_{mu,B} 1, g>| over a probe grid of mu.

    Vanishing (below ~1e-8) certifies g orthogonal to every solution-operator
    range, i.e. g in S-perp.  The pairing divided by M_B(mu) is B-independent,
    so the default drops the M factor; passing Bs multiplies it back in for
    each B in the list (same pass/fail by construction).  Probes within
    REAL_BAND of the axis or next to a pole of the rational data are
    skipped, and so are those where |D| < 1e-9.  Raises ValueError when no
    probe gives a pairing, rather than certifying nothing as zero.
    """
    phi, psi = model.phi, model.psi
    phibar, gbar = _phibar_of(phi), _phibar_of(g)
    gnorm = _l2_of(g)
    if gnorm == 0:
        raise ValueError("zero candidate")
    poles = [p.location for f in (psi, phibar, gbar) for p in f.poles]
    lam = np.array([mu for mu in map(complex, mus) if abs(mu.imag) >= REAL_BAND
                    and all(abs(z - mu) > _CLUSTER * (1.0 + abs(mu)) for z in poles)],
                   dtype=complex)
    D = _d_at(phi, psi, lam)
    keep = np.abs(D) >= 1e-9
    lam, D = lam[keep], D[keep]
    if not lam.size:
        raise ValueError("no probe point gave a pairing; nothing is certified")
    fh = cauchy_transform_num(phibar, lam)
    F = cauchy_transform_num(gbar, lam) - (fh / D) * _hat_product(psi, gbar, lam)
    scale = np.sqrt(np.abs(lam.imag) / PI) / gnorm
    if Bs is None:
        return float(np.max(np.abs(F) * scale))
    bracket = (np.sign(lam.imag)[:, None] * PI * 1j
               - (cauchy_transform_num(psi, lam) * fh / D)[:, None]
               - np.asarray(Bs, dtype=complex))
    ok = np.abs(bracket) >= 1e-10
    return float(np.max(np.abs(F[:, None] / bracket) * scale[:, None], where=ok, initial=0.0))


# ---------------------------------------------------------------------------
# Toeplitz route (lower-Hardy data)
# ---------------------------------------------------------------------------

def toeplitz_defect(model, alpha):
    """Defect via the inner factor of the shifted symbol a - mu_alpha.

    a = psi phibar lies in the lower Hardy algebra (all poles above the
    axis); mu_alpha = 1/(2 pi i alpha).  The defect equals the number of
    lower-half-plane zeros of a - mu_alpha counted with multiplicity.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _require_halfplane(model.phi, "UPPER", "phi")
    a = model.psi_phibar
    _require_halfplane(a, "UPPER", "symbol a")
    mu_a = 1.0 / (2j * PI * alpha)
    fac = factorize_rational(a - mu_a)
    roots = [(z, "BLASCHKE") for z, _ in fac.blaschke.zeros]
    roots += [(z, "BOUNDARY") for z, _ in fac.boundary_zeros]
    defect = sum(m for _, m in fac.blaschke.zeros)
    boundary = sum(m for _, m in fac.boundary_zeros)
    return DefectReport(N=defect, P=0, M=boundary, M0=0, defect=defect,
                        roots=tuple(roots), route="TOEPLITZ",
                        degenerate=fac.degenerate,
                        notes=(f"mu_alpha={mu_a:.6g}",))


def toeplitz_sperp_basis(model, alpha):
    """S-perp representatives phi/(x - conj(w))^m over the inner-factor zeros."""
    mu_a = 1.0 / (2j * PI * complex(alpha))
    fac = factorize_rational(model.psi_phibar - mu_a)
    out = []
    for w, mult in fac.blaschke.zeros:
        for m in range(1, mult + 1):
            g = model.phi * _recip_power(np.conj(w), m)
            out.append(g * (1.0 / l2_norm(g)))
    return out


def _recip_power(z0, m):
    den = Poly([1.0])
    for _ in range(m):
        den = den * Poly([-z0, 1.0])
    return RatFun(Poly([1.0]), den, den_roots=[(complex(z0), m)])


def cauchy_kernel_model(model, alpha):
    """The effective model whose determinant zeros the Toeplitz route counts."""
    return FriedrichsModel(model.phi, model.psi * complex(alpha), model.B)


# ---------------------------------------------------------------------------
# Toeplitz spectrum membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumMembership:
    membership: str            # INTERIOR | BOUNDARY | OUTSIDE
    point_spectrum: bool
    isolated: bool
    preimages: tuple


def spectrum_T_membership(a, mu):
    """Locate mu relative to the spectrum of the Toeplitz operator with symbol a.

    Counts lower-half-plane solutions of a(z) = mu (point spectrum when > 0),
    flags BOUNDARY when a preimage sits in the real-axis band or mu lies on
    the boundary curve a(R) (including its value at infinity).
    """
    mu = complex(mu)
    _require_halfplane(a, "UPPER", "symbol a")
    if a.decay_order < 0:
        raise ValueError("symbol must be bounded on the axis")
    a_inf = a.value_at_infinity
    diff = a - mu
    if diff.is_zero or diff.num.is_zero:
        raise ValueError("mu equals the symbol identically")
    if diff.num.degree < 1:
        roots = []
    else:
        roots = poly_roots(diff.num)
    lower = [(z, m) for z, m in roots if z.imag < -REAL_BAND]
    band = [(z, m) for z, m in roots if abs(z.imag) <= REAL_BAND]
    count = sum(m for _, m in lower)
    ts = np.linspace(-_CURVE_HALFWIDTH, _CURVE_HALFWIDTH, _CURVE_N)
    curve_dist = float(np.min(np.abs(a(ts) - mu)))
    scale = 1.0 + abs(mu)
    near_curve = curve_dist <= 1e-6 * scale or band
    at_infinity = abs(a_inf - mu) <= _AT_INFINITY_TOL * scale
    if near_curve or at_infinity:
        # reached only in the t -> +-infinity limit, with no half-plane or
        # axis preimage: the compactification point of the symbol curve
        isolated = bool(at_infinity and not band and count == 0)
        return SpectrumMembership("BOUNDARY", count > 0, isolated,
                                  tuple(lower + band))
    if count > 0:
        return SpectrumMembership("INTERIOR", True, False, tuple(lower))
    return SpectrumMembership("OUTSIDE", False, False, ())


# ---------------------------------------------------------------------------
# disjoint-support classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisjointReport:
    classification: str        # FULL | INFINITE_DEFECT | UNRESOLVED
    near_zero_intervals: tuple
    min_abs: float


def disjoint_support_classify(phi, psi):
    """Detectability for piecewise data with disjoint supports.

    Samples v(k) = 1 - psi(k) phibarhat(k - i0) over the support of psi,
    with phibarhat(k - i0) the principal value - i pi phibar(k).  v == 0 on
    an interval (confirmed at two grid refinements) means infinite defect;
    v bounded away from zero means the detectable subspace is everything.
    """
    sup_phi, sup_psi = phi.support, psi.support
    for a1, b1 in sup_psi:
        for a2, b2 in sup_phi:
            if not (b1 <= a2 or b2 <= a1):
                raise ValueError("supports must be disjoint")
    phibar = _phibar_of(phi)

    def scan(npts):
        ks = np.concatenate([np.linspace(a + (b - a) * 1e-3, b - (b - a) * 1e-3, npts)
                             for a, b in sup_psi])
        return ks, 1.0 - psi(ks) * boundary_value(phibar, ks, "-")

    def zero_spans(ks, vs):
        """(first k, last k) of each run of |v| < _DISJOINT_TOL at least two
        grid spacings long."""
        edges = np.flatnonzero(np.diff(np.concatenate([[0], np.abs(vs) < _DISJOINT_TOL, [0]])))
        spacing = (ks[1] - ks[0]) if len(ks) > 1 else 0.0
        return [(ks[i], ks[j - 1]) for i, j in zip(edges[::2], edges[1::2])
                if ks[j - 1] - ks[i] >= 2 * spacing]

    ks, vs = scan(_DISJOINT_N)
    min_abs = float(np.min(np.abs(vs)))
    if min_abs > _DISJOINT_TOL:
        return DisjointReport("FULL", (), min_abs)
    spans1 = zero_spans(ks, vs)
    ks2, vs2 = scan(2 * _DISJOINT_N)
    spans2 = zero_spans(ks2, vs2)
    if spans1 and spans2:
        return DisjointReport("INFINITE_DEFECT", tuple(spans2), float(np.min(np.abs(vs2))))
    return DisjointReport("UNRESOLVED", tuple(spans2), min_abs)


# ---------------------------------------------------------------------------
# M-function jumps across the axis
# ---------------------------------------------------------------------------

def mb_jump(model, k, tol=1e-8):
    """Jump of M_B^{-1} (and of M_B) across the axis at k.

    M^{-1}(k +- i0) = +-pi i - psihat phibarhat / D - B with one-sided
    Plemelj boundary values, each the principal value +- i pi f(k); the
    three principal values (of psi, phibar and psi phibar) are computed
    once and serve both sides.  The jump is rank 1 exactly when M itself
    jumps.  The difference [M] = 1/M^{-1}(k + i0) - 1/M^{-1}(k - i0) errs
    by about eps (pi + |psihat phibarhat / D| + |B|) / |M^{-1}(k + i0)
    M^{-1}(k - i0)|.  Where that bound exceeds tol, M has a pole on the
    axis at k to working precision: jump_M is inf and the rank 1.
    """
    k = float(k)
    phi, psi, B = model.phi, model.psi, complex(model.B)
    phibar = _phibar_of(phi)
    prod = piecewise_product(psi, phibar)
    pvs = [(cauchy_transform_num(f, k), f(k)) for f in (psi, phibar, prod)]

    def minv(side):
        """M^{-1}(k +- i0) and the size of the terms summed into it."""
        sgn = 1.0 if side == "+" else -1.0
        ph, fh, dh = (pv + sgn * 1j * PI * fk for pv, fk in pvs)
        D = 1.0 + dh
        if abs(D) < 1e-12:
            raise ZeroDivisionError(f"determinant vanishes at {k}{side}i0")
        t = ph * fh / D
        return sgn * PI * 1j - t - B, PI + abs(t) + abs(B)

    (mp, sp), (mm, sm) = minv("+"), minv("-")
    jump_minv = mp - mm
    if _JUMP_ROUND * max(sp, sm) > tol * abs(mp) * abs(mm):
        jump_m = np.inf
        rank = 1
    else:
        jump_m = 1.0 / mp - 1.0 / mm
        rank = 0 if abs(jump_m) <= tol else 1
    return JumpReport(k, jump_minv, jump_m, rank)


# ---------------------------------------------------------------------------
# jump rank comparison: bordered resolvent vs M-function
# ---------------------------------------------------------------------------

def jump_rank_check(model, k, fs, ws, mus, mu_ts, tol=1e-6):
    """Compare the rank of the bordered-resolvent jump with the M jump at k.

    The bordered matrix entries <(A_B - lam)^{-1} F_{i,l}, v_{j,nu}>, with
    F_{i,l} = S_{mu_l,B} f_i and v_{j,nu} the adjoint-side solution for w_j
    at mu_t_nu, obey the pairing identity

      <R F, v> = [<F, v>(conj(mu_t) - lam) - M f conj(w) + f conj(g2t)]
                 / ((mu - lam)(conj(mu_t) - lam)),

    in which only M(lam) jumps across the axis.  The jump matrix at k is
    therefore J = -[M](k) f_i conj(w_j) / ((mu_l - k)(conj(mu_t_nu) - k)),
    with [M] from `mb_jump`, and its rank is compared with that of
    [M](k) f_i conj(w_j).  Where `mb_jump` finds a pole of M on the axis
    (jump_M inf), J is undefined: the check is refused, with resolved
    False, no ranks and no jump matrix, and a reason.
    """
    k = float(k)
    jr = mb_jump(model, k, tol=tol)
    if not np.isfinite(jr.jump_M):
        return RankCheck(None, None, False, False, None,
                         f"M has a pole on the axis at k = {k:.12g}")
    fs = np.asarray(fs, dtype=complex)
    wbar = np.conj(np.asarray(ws, dtype=complex))
    rows = np.outer(fs, 1.0 / (np.asarray(mus, dtype=complex) - k)).ravel()
    cols = np.outer(wbar, 1.0 / (np.conj(np.asarray(mu_ts, dtype=complex)) - k)).ravel()
    J = -jr.jump_M * np.outer(rows, cols)
    # both matrices are outer products: rank 1 where the 2-norm exceeds tol
    jm = abs(jr.jump_M)
    rank_res = int(jm * np.linalg.norm(rows) * np.linalg.norm(cols) > tol)
    rank_m = int(jr.rank == 1 and jm * np.linalg.norm(fs) * np.linalg.norm(wbar) > tol)
    return RankCheck(rank_res, rank_m, rank_res == rank_m, True, J)


# ---------------------------------------------------------------------------
# multiplication-symbol curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolCurve:
    ks: np.ndarray
    values: np.ndarray        # 2 pi i script-M(k): the 1/alpha-plane curve

    def membership(self, target):
        """(on_curve, winding, distance) of a point of the 1/alpha plane."""
        target = complex(target)
        pts = np.concatenate([[0.0], self.values, [0.0]])  # closes through 0
        dist = float(np.min(np.abs(pts - target)))
        on_curve = dist <= _ON_CURVE_TOL * (1.0 + abs(target))
        if on_curve:
            return True, None, dist
        rel = pts - target
        dphi = np.angle(rel[1:] / rel[:-1])
        winding = int(np.round(np.sum(dphi) / (2 * PI)))
        return False, winding, dist


def symbol_M_curve(model, halfwidth=40.0, n=4001):
    """Sample the curve 2 pi i script-M(R) organizing the 1/alpha-plane.

    script-M(k) = (P_plus phibar)(k) psi(k) - P_plus(psi phibar)(k); its
    2 pi i multiple is the boundary curve of the exceptional set in the
    1/alpha plane.  2 pi i P_plus f is the boundary value fhat(k + i0) of
    the Cauchy transform, for rational and piecewise data alike, and
    psi phibar is their `piecewise_product`.  The grid is n points over
    [-halfwidth, halfwidth], less the points within ENDPOINT_TOL of a piece
    endpoint of phibar or of psi phibar, where the boundary value is
    log-infinite; `ks` holds the points kept.
    """
    phibar = _phibar_of(model.phi)
    prod = piecewise_product(model.psi, phibar)
    ends = [e for f in (phibar, prod) if isinstance(f, PiecewiseFun)
            for p in f.pieces for e in (p.a, p.b)]
    ks = np.linspace(-halfwidth, halfwidth, n)
    ks = ks[np.all(np.abs(ks[:, None] - np.array(ends)) >= ENDPOINT_TOL, axis=1)]
    vals = boundary_value(phibar, ks, "+") * model.psi(ks) - boundary_value(prod, ks, "+")
    return SymbolCurve(ks, vals)

