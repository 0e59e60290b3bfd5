"""Hardy-space machinery: Riesz projections, boundary values, quadrature, Blaschke products.

``cauchy_transform_num`` and ``boundary_value`` take either kind of data,
a ``RatFun`` or a ``PiecewiseFun``, at a scalar point or an array of points;
they are the one place that chooses between the two kinds.  The principal
value is the one primitive on the axis: ``cauchy_transform_num`` at real k
is p.v. int f(t)/(t - k) dt, and the one-sided boundary values are, by
Sokhotski-Plemelj,

    fhat(k +- i0) = p.v. int f(t)/(t-k) dt  +-  i*pi*f(k).

The rational paths are closed form (partial fractions / residues) and
vectorized; the rational principal value is i pi (f_lower - f_upper)(k).
Piecewise data is summed piece by piece, point by point, under one rule
(``_piece_transform``): indicator pieces are closed form, since
int_a^b dt/(t - lam) = log((b - lam)/(a - lam)), real at a principal
value; the other pieces go through adaptive Gauss-Kronrod quadrature, with
the value at lam subtracted where the integrand is near-singular (real lam
inside the piece, and reciprocal-cauchy-of pieces next to lam).  ``quad_gk``
also serves as the independent oracle of the closed forms in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratfun import RatFun, REAL_BAND, cauchy_transform, poly_roots, poly_from_roots

__all__ = [
    "PiecewiseFun", "BlaschkeProduct", "Factorization", "QuadratureError",
    "riesz_split", "boundary_value", "cauchy_transform_num", "blaschke_build",
    "factorize_rational", "piecewise_product", "quad_gk", "quad_real_line",
]


# a real point this close to a piece endpoint has a log-infinite boundary value
ENDPOINT_TOL = 1e-12


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach tolerance within the panel budget."""


# ---------------------------------------------------------------------------
# 15-point Gauss-Kronrod panels, adaptive bisection
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
# rows: Kronrod-15 weights; Gauss-7 weights, which live on Kronrod nodes
# 1, 3, 5, 7 (0-based) of the positive half
_WEIGHTS = np.zeros((2, 15))
_WEIGHTS[0] = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _WEIGHTS[1, _i] = _w
    _WEIGHTS[1, 14 - _i] = _w
_WEIGHTS[1, 7] = _WG[3]

_CHUNK = 64   # panels per integrand call: 960 points, bounded memory per level


def quad_gk(f, a, b, tol=1e-9, budget=10 ** 4):
    """Adaptive Gauss-Kronrod integral of a vectorized callable over [a, b].

    Breadth-first bisection (Shampine's vectorized quadgk design): all active
    panels of one refinement level are evaluated together, at most ``_CHUNK``
    panels (15 nodes each) per call of ``f`` on a flat 1-D array.  A panel
    with tolerance t is accepted when its Kronrod-Gauss difference is at most
    t or it is narrower than 1e-14 (1 + |lo|); otherwise both halves get t/2.
    Accepted panels are summed one by one in order of decreasing left
    endpoint, the order of a depth-first right-first traversal, so the result
    does not depend on the chunking.  Raises QuadratureError when the
    refinement tree would hold more than ``budget`` panels.
    """
    lo = np.array([float(a)])
    hi = np.array([float(b)])
    t = np.array([float(tol)])
    used = 0
    accepted = []                 # (lo, value, error) of the accepted panels
    while True:
        used += lo.size
        if used > budget:
            worst = max((float(e.max()) for _, _, e in accepted if e.size), default=0.0)
            raise QuadratureError(
                f"panel budget exhausted; worst panel error estimate {worst:.2e}")
        width = hi - lo
        mid = 0.5 * (lo + hi)
        h = 0.5 * width
        kg = np.empty((lo.size, 2), dtype=complex)    # Kronrod, Gauss sums
        for s in range(0, lo.size, _CHUNK):
            x = mid[s:s + _CHUNK, None] + h[s:s + _CHUNK, None] * _NODES
            y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
            kg[s:s + _CHUNK] = np.add.reduce(y[:, None, :] * _WEIGHTS, axis=2)
        kg *= h[:, None]
        err = np.abs(kg[:, 0] - kg[:, 1])
        done = (err <= t) | (width < 1e-14 * (1 + np.abs(lo)))
        accepted.append((lo[done], kg[done, 0], err[done]))
        split = ~done
        if not split.any():
            break
        lo, mid, hi, t = lo[split], mid[split], hi[split], 0.5 * t[split]
        lo, hi, t = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([t, t])
    lo, vals, _ = (np.concatenate(c) for c in zip(*accepted))
    return np.cumsum(np.concatenate([[0j], vals[np.argsort(-lo, kind="stable")]]))[-1]


def quad_real_line(f, core_halfwidth=50.0, tol=1e-9):
    """Integral of f over the real line for callables decaying like 1/t or faster.

    The core [-T, T] is integrated directly; tails fold through u = 1/t, paired
    symmetrically so that an odd c/t leading term cancels (the symmetric-limit
    convention of the trace functional).  Truncation enters only through the
    u-substitution, so no explicit cutoff bound is needed.
    """
    T = float(core_halfwidth)
    core = quad_gk(f, -T, T, tol=tol)

    def tails(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        nz = u != 0
        t = 1.0 / u[nz]
        out[nz] = (np.asarray(f(t)) + np.asarray(f(-t))) / u[nz] ** 2
        return out

    return core + quad_gk(tails, 0.0, 1.0 / T, tol=tol)


# ---------------------------------------------------------------------------
# piecewise data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    a: float
    b: float
    kind: str                 # "indicator" | "rational-restriction" | "reciprocal-cauchy-of"
    payload: object = None    # RatFun, or (a', b') interval for reciprocal-cauchy-of

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        out = np.zeros(x.shape, dtype=complex)
        if self.kind == "indicator":
            out[inside] = 1.0
        elif self.kind == "rational-restriction":
            out[inside] = self.payload(x[inside])
        elif self.kind == "reciprocal-cauchy-of":
            ia, ib = self.payload
            # 1 / int_{[ia,ib]} dt/(t-x) = 1 / ln((ib-x)/(ia-x)), x outside [ia, ib]
            out[inside] = 1.0 / np.log((ib - x[inside]) / (ia - x[inside]))
        else:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        return out


@dataclass(frozen=True)
class PiecewiseFun:
    """Compactly supported function given piecewise on disjoint intervals."""

    pieces: tuple

    def __post_init__(self):
        ivs = sorted((p.a, p.b) for p in self.pieces)
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise ValueError("piece intervals overlap")

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        for p in self.pieces:
            out = out + p.evaluate(x)
        return complex(out[0]) if scalar else out

    @property
    def support(self):
        return tuple(sorted((p.a, p.b) for p in self.pieces))

    @property
    def poles(self):
        """No poles, as for a RatFun: the transforms of compactly supported
        data are analytic off the support."""
        return ()

    @staticmethod
    def indicator(a, b):
        return PiecewiseFun((Piece(float(a), float(b), "indicator"),))

    @staticmethod
    def restriction(f, a, b):
        return PiecewiseFun((Piece(float(a), float(b), "rational-restriction", f),))

    @staticmethod
    def reciprocal_cauchy(src_interval, on_interval):
        a, b = on_interval
        return PiecewiseFun((Piece(float(a), float(b), "reciprocal-cauchy-of",
                                   (float(src_interval[0]), float(src_interval[1]))),))


def piecewise_product(f, g):
    """Pointwise product of two piecewise functions, or of a piecewise and a
    rational one, with one piece per overlap; of two rational ones, f * g.

    On the intersection of two pieces' intervals an indicator times any piece
    is that piece restricted to the intersection, and a rational restriction
    times a rational restriction is a rational restriction.  Disjoint supports
    give a product with no pieces.  A rational factor acts as a rational
    restriction on every piece of the other factor.  A reciprocal-cauchy-of
    piece times a rational restriction or another reciprocal-cauchy-of piece
    is none of the piece kinds, so that overlap raises ValueError.
    """
    if isinstance(f, RatFun) and isinstance(g, RatFun):
        return f * g
    if isinstance(f, RatFun):
        f, g = g, f
    if isinstance(g, RatFun):
        g = PiecewiseFun(tuple(Piece(p.a, p.b, "rational-restriction", g) for p in f.pieces))
    pieces = []
    for p in f.pieces:
        for q in g.pieces:
            a, b = max(p.a, q.a), min(p.b, q.b)
            if b <= a:
                continue
            if p.kind == "indicator":
                pieces.append(Piece(a, b, q.kind, q.payload))
            elif q.kind == "indicator":
                pieces.append(Piece(a, b, p.kind, p.payload))
            elif p.kind == q.kind == "rational-restriction":
                pieces.append(Piece(a, b, "rational-restriction", p.payload * q.payload))
            else:
                raise ValueError(
                    f"overlap of a {p.kind} piece with a {q.kind} piece on "
                    f"[{a}, {b}]: the product is none of the piece kinds")
    return PiecewiseFun(tuple(pieces))


# ---------------------------------------------------------------------------
# Riesz projections, boundary values
# ---------------------------------------------------------------------------

def riesz_split(f):
    """Split rational L2 f into (plus, minus): poles in the lower / upper half-plane.

    plus + minus = f; plus is a boundary function of the upper half-plane
    Hardy space H2+, minus of H2-.  A filter of the pole-residue form.
    """
    if not f.is_L2:
        raise ValueError("riesz_split needs an L2 rational function with no real pole")
    return f.principal_part("lower"), f.principal_part("upper")


def _log_ratio(a, b, lam):
    """log((b - lam)/(a - lam)), the integral of dt/(t - lam) over [a, b],
    for lam off [a, b] (complex, or real outside the interval).

    Where the ratio is near 1 (lam far from [a, b]) the logarithm is
    log1p(x) with x = (b - a)/(a - lam): its real part through the real
    log1p of |1 + x|^2 - 1, so the value keeps its relative accuracy at
    large |lam|.  Otherwise the ratio itself, accurate next to the interval.
    """
    x = (b - a) / (a - lam)
    if abs(x) < 0.5:
        return complex(0.5 * np.log1p(2 * x.real + abs(x) ** 2),
                       np.arctan2(x.imag, 1 + x.real))
    return complex(np.log((b - lam) / (a - lam)))


def _piece_transform(p, lam):
    """Integral of p(t)/(t - lam) over the piece: the ordinary integral for
    lam off [p.a, p.b], the principal value for real lam inside (a, b).

    An indicator is closed form: log((b - lam)/(a - lam)), or the real
    log((b - k)/(k - a)) as the principal value at k inside.  Another piece
    has its value v = p(lam) subtracted where the integrand is near-singular:
    at real lam inside any piece, and at lam off the axis within one
    interval length of a reciprocal-cauchy-of piece, which is analytic off
    [ia, ib].  The integrand of int (p(t) - v)/(t - lam) dt is bounded, and
    v times the indicator's value restores the rest (exact for any constant).
    Everything else is plain quadrature.
    """
    a, b, k = p.a, p.b, lam.real
    real = lam.imag == 0
    if real and min(abs(k - a), abs(k - b)) < ENDPOINT_TOL:
        raise ValueError("boundary value at a piece endpoint")
    inside = real and a < k < b
    log = np.log((b - k) / (k - a)) if inside else _log_ratio(a, b, lam)
    gap = max(a - k, 0.0, k - b)
    if p.kind == "indicator":
        return log
    if inside:
        v = complex(p.evaluate(np.array([k]))[0])
    elif p.kind == "reciprocal-cauchy-of" and not real and abs(complex(gap, lam.imag)) < b - a:
        ia, ib = p.payload
        v = 1.0 / np.log((ib - lam) / (ia - lam))
    else:
        return quad_gk(lambda t: p.evaluate(t) / (t - lam), a, b)

    def subtracted(t):
        d = t - lam
        # a node at lam itself: the numerator is exactly 0 there
        return (p.evaluate(t) - v) / np.where(d == 0, 1.0, d)

    return quad_gk(subtracted, a, b) + v * log


def _shaped(out, x):
    """The flat results out at the points x: a complex for a scalar x, else
    an array of x's shape."""
    return complex(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def boundary_value(f, k, side="+"):
    """One-sided Cauchy-transform boundary value fhat(k +- i0) of rational or
    piecewise f, k a real scalar or array, side "+" or "-".

    By Sokhotski-Plemelj it is the principal value, `cauchy_transform_num`
    at real k, +- i pi f(k).
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', not {side!r}")
    ks = np.asarray(k, dtype=float).ravel()
    sgn = 1.0 if side == "+" else -1.0
    return _shaped(cauchy_transform_num(f, ks) + sgn * 1j * np.pi * f(ks), k)


def cauchy_transform_num(f, lam):
    """Cauchy transform int f(t)/(t - lam) dt of rational or piecewise f,
    lam a scalar or an array.

    Each lam is off the support, or within REAL_BAND of the axis, where the
    value is the principal value at its real part k (the mean of the two
    boundary values).  A rational f = f0 + f_lower + f_upper (f0 the value
    at infinity, the others the principal parts below and above the axis)
    is closed form: ``ratfun.cauchy_transform`` off the axis, and
    i pi (f_lower - f_upper)(k) on it, where the symmetric limit gives a
    constant no principal value; a real pole of f is refused there.
    Piecewise f sums `_piece_transform` over its pieces: indicators in
    closed form, the other pieces by adaptive quadrature under its one
    subtraction rule, at `quad_gk`'s tolerance; a k on a piece endpoint is
    refused.
    """
    lams = np.asarray(lam, dtype=complex).ravel()
    axis = np.abs(lams.imag) < REAL_BAND
    if not isinstance(f, RatFun):
        # an axis point enters as its real part: a principal value
        out = np.array([sum((_piece_transform(p, z.real if on else z) for p in f.pieces), 0j)
                        for z, on in zip(lams.tolist(), axis.tolist())], dtype=complex)
        return _shaped(out, lam)
    out = np.empty(lams.shape, dtype=complex)
    if axis.any():
        ks = lams.real[axis]
        for p in f.poles:
            if np.any(np.abs(p.location - ks) < 1e-9 * (1 + np.abs(ks))):
                raise ValueError("boundary value at a real pole of f")
            if p.half_plane == "REAL":
                raise ValueError("principal value at real pole unsupported here")
        out[axis] = 1j * np.pi * (f.principal_part("lower")(ks) - f.principal_part("upper")(ks))
    out[~axis] = cauchy_transform(f, lams[~axis])
    return _shaped(out, lam)


# ---------------------------------------------------------------------------
# Blaschke products and inner-outer factorization (rational symbols)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product for the lower half-plane.

    B(z) = prod_k [e^{i theta_k} (z - z_k)/(z - conj(z_k))]^{m_k}, all z_k in
    the open lower half-plane, phases normalized so each factor is real and
    nonnegative at z = i.
    """

    zeros: tuple = ()         # ((z_k, multiplicity), ...)
    phases: tuple = ()        # theta_k, aligned with zeros

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape, dtype=complex) if z.ndim else 1.0 + 0j
        for (zk, m), th in zip(self.zeros, self.phases):
            out = out * (np.exp(1j * th) * (z - zk) / (z - np.conj(zk))) ** m
        return out

    @property
    def degree(self):
        return sum(m for _, m in self.zeros)

    def as_ratfun(self):
        num_roots = [zk for zk, m in self.zeros for _ in range(m)]
        den_roots = [np.conj(zk) for zk, m in self.zeros for _ in range(m)]
        lead = np.prod([np.exp(1j * th) ** m for (_, m), th in zip(self.zeros, self.phases)])
        return RatFun(poly_from_roots(num_roots, lead), poly_from_roots(den_roots),
                      den_roots=[(np.conj(zk), m) for zk, m in self.zeros])


@dataclass(frozen=True)
class Factorization:
    blaschke: BlaschkeProduct
    outer: RatFun
    boundary_zeros: tuple = ()

    @property
    def degenerate(self):     # zeros on the real axis
        return bool(self.boundary_zeros)


def blaschke_build(zeros):
    """Blaschke product from lower-half-plane zeros (values or (value, mult) pairs)."""
    norm = []
    for item in zeros:
        z, m = item if isinstance(item, tuple) else (item, 1)
        z = complex(z)
        if z.imag >= -REAL_BAND:
            raise ValueError("Blaschke zeros must lie strictly in the lower half-plane")
        if abs(z + 1j) < 1e-12:
            raise ValueError("zero at -i degenerates the phase normalization")
        norm.append((z, int(m)))
    phases = tuple(float(-np.angle((1j - z) / (1j - np.conj(z)))) for z, _ in norm)
    return BlaschkeProduct(tuple(norm), phases)


def factorize_rational(f):
    """Inner-outer factorization of a rational function bounded on the closed
    lower half-plane: f = B * outer with B collecting the lower zeros.

    Real-axis zeros do not stop the factorization; they stay in the outer part
    and are reported with a degeneracy flag.
    """
    if f.is_zero:
        raise ValueError("cannot factorize the zero function")
    if f.decay_order < 0:
        raise ValueError("symbol unbounded at infinity")
    if any(p.half_plane != "UPPER" for p in f.poles):
        raise ValueError("symbol must have all poles in the open upper half-plane")
    lower, boundary = [], []
    for z, m in poly_roots(f.num):
        if z.imag < -REAL_BAND:
            lower.append((z, m))
        elif abs(z.imag) <= REAL_BAND:
            boundary.append((z, m))
    b = blaschke_build(lower) if lower else BlaschkeProduct()
    outer = f / b.as_ratfun() if lower else f
    return Factorization(b, outer, tuple(boundary))
