"""Complex polynomials and rational functions in pole-residue form.

Everything downstream (M-functions, resolvents, defect counts) reduces to algebra
on rational functions: closed-form line integrals over the real line are
residue sums, principal values are signed half-residue sums, and Cauchy/Borel
transforms close the contour in the upper half-plane.

Representation
--------------
A ``RatFun`` is held in its partial-fraction (pole-residue) form

    f(x) = p(x) + sum_z sum_{k=1..m_z} c_{z,k} / (x - z)^k

with distinct poles z, Laurent coefficients c_{z,k} (the leading one,
k = m_z, nonzero) and a polynomial part p.  Sums, products, ``conj_reflect``,
Riesz splits (``hardy.riesz_split``), principal values, Cauchy transforms and
inner products are closed-form updates of this form and find no roots.
``num``/``den`` (den monic, the product of (x - z)^m_z) are derived on
demand, for the places that need coefficients.  A ``RatFun`` built from
coefficients, ``RatFun(num, den, den_roots=...)``, derives its pole form on
first use, from the given denominator roots or else from ``poly_roots``;
``poly_roots`` otherwise serves only true polynomial roots (zeros of a
numerator, division by a non-constant rational function).

Cancellation rule
-----------------
Where an operation sums terms into a coefficient, it also sums their moduli.
The leading Laurent coefficient at a pole is exactly zero when its modulus
is at most ``_TRIM_REL`` times the largest such sum among that pole's
coefficients: it is then rounding noise, the order drops, and a pole whose
coefficients all vanish is removed.  The top coefficient of the
polynomial part is trimmed the same way (as ``Poly`` trims its top
coefficient), and the decay order is the index of the first coefficient of
the expansion at infinity that the same rule does not zero.

Conventions
-----------
Coefficients are complex doubles.  Poles within ``REAL_BAND`` of the axis are
classified REAL (degenerate band, never a knife edge).  Points within the
relative ``_CLUSTER`` radius are one point: root finding merges such roots
into one root with multiplicity, and arithmetic merges such poles at the
first operand's location.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

__all__ = [
    "Poly", "RatFun", "Pole", "DegreeCapError",
    "poly_roots", "companion_roots", "poly_from_roots", "conj_reflect", "partial_fractions",
    "residue", "pv_integral", "cauchy_transform", "inner_product", "l2_norm",
    "REAL_BAND", "DEGREE_CAP",
]

DEGREE_CAP = 64
REAL_BAND = 1e-9          # |Im z| below this => pole "on" the real axis
_CLUSTER = 1e-8           # relative root clustering radius
_TRIM_REL = 1e-12         # relative cancellation threshold (see module doc)


class DegreeCapError(ValueError):
    """Polynomial degree above the supported cap (64)."""


def _trim(c):
    # no defensive copy: coefficient arrays are treated as immutable
    # throughout (every mutation site copies first)
    if type(c) is not np.ndarray or c.dtype is not _CDTYPE or c.ndim != 1:
        c = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    n = c.size
    if n == 0:
        return c
    # coefficient arrays here are tiny, so python loops with builtin abs beat
    # the numpy ufunc dispatch overhead
    cl = c.tolist()
    top = max(map(abs, cl))
    if top == 0.0:
        return np.zeros(0, dtype=complex)
    cut = _TRIM_REL * top
    k = n - 1
    while abs(cl[k]) <= cut:
        k -= 1
    return c if k + 1 == n else c[:k + 1]


_CDTYPE = np.dtype(complex)


class Poly:
    """Polynomial with complex coefficients, ascending degree.

    The zero polynomial has an empty coefficient array; otherwise the trailing
    coefficient is nonzero (tiny trailing entries are trimmed relative to the
    largest coefficient).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs)
        if self.degree > DEGREE_CAP:
            raise DegreeCapError(f"degree {self.degree} exceeds cap {DEGREE_CAP}")

    @property
    def degree(self):
        return self.coeffs.size - 1    # -1 for the zero polynomial

    @property
    def is_zero(self):
        return self.coeffs.size == 0

    def __call__(self, x):
        if self.is_zero:
            x = np.asarray(x)
            return np.zeros(x.shape, dtype=complex) if x.ndim else 0j
        if not isinstance(x, np.ndarray):
            # scalar Horner: cheaper than polyval dispatch at small degree
            x = complex(x)
            r = 0j
            for cc in self.coeffs[::-1]:
                r = r * x + cc
            return r
        return npp.polyval(np.asarray(x, dtype=complex), self.coeffs)

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly([other])
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return Poly(_padded_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly([other])
        if other.is_zero:
            return self
        if self.is_zero:
            return Poly(-other.coeffs)
        return Poly(_padded_add(self.coeffs, -other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.coeffs * complex(other)) if not self.is_zero else self
        if self.is_zero or other.is_zero:
            return Poly([])
        return Poly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def deriv(self):
        if self.degree <= 0:
            return Poly([])
        return Poly(npp.polyder(self.coeffs))

    def __repr__(self):
        return f"Poly({np.round(self.coeffs, 12).tolist()})"


def _padded_add(a, b):
    if a.size >= b.size:
        out = a.astype(complex, copy=True)
        out[:b.size] += b
    else:
        out = b.astype(complex, copy=True)
        out[:a.size] += a
    return out


def _shift(c, z0, n):
    """First n Taylor coefficients about z0 of the ascending list c."""
    c = list(c)
    out = []
    for k in range(min(n, len(c))):
        # repeated synthetic division by (x - z0)
        for j in range(len(c) - 2, -1, -1):
            c[j] += z0 * c[j + 1]
        out.append(c[0])
        del c[0]
    return out + [0j] * (n - len(out))


def poly_from_roots(roots, lead=1.0):
    """Expand lead * prod (x - r_i); roots may repeat."""
    return Poly(np.array(_expand(roots, complex(lead)), dtype=complex))


def _expand(roots, lead=1.0 + 0j):
    c = [lead]
    for r in roots:
        nc = [-r * c[0]]
        for i in range(1, len(c)):
            nc.append(c[i - 1] - r * c[i])
        nc.append(c[-1])
        c = nc
    return c


# ---------------------------------------------------------------------------
# root finding: companion matrix, one Newton polish, clustering
# ---------------------------------------------------------------------------

def _cluster(roots, errs):
    """Merge roots within the clustering radius; returns (root, mult) list.

    The radius is the relative design radius plus the per-root error
    estimates errs: multiple roots are only computable to ~sqrt(eps), so the
    fixed radius alone would split them.
    """
    roots = list(roots)
    out = []
    used = [False] * len(roots)
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    for i in order:
        if used[i]:
            continue
        group, gerrs = [roots[i]], [errs[i]]
        used[i] = True
        changed = True
        while changed:
            changed = False
            center = sum(group) / len(group)
            for j in order:
                if used[j]:
                    continue
                rad = _CLUSTER * (1.0 + abs(center)) + max(gerrs) + errs[j]
                if abs(roots[j] - center) <= rad:
                    group.append(roots[j])
                    gerrs.append(errs[j])
                    used[j] = True
                    changed = True
        center = sum(group) / len(group)
        out.append((center, len(group)))
    return out


def poly_roots(p):
    """Roots of p with multiplicities, as a list of (root, multiplicity).

    Eigenvalues of the companion matrix (backward stable, Edelman-Murakami),
    then one vectorized Newton step per root, kept where it lowers |p|; close
    roots are merged by the relative clustering radius widened by each root's
    first-order error radius.  Degree 1 and 2 use closed forms.  A merged
    m-fold root, which the eigenvalues place only to about eps^(1/m), takes
    one Newton step on the (m-1)-th derivative, where it is a simple root.
    """
    if not isinstance(p, Poly):
        p = Poly(p)
    if p.is_zero:
        raise ValueError("roots of the zero polynomial are undefined")
    n = p.degree
    if n == 0:
        return []
    c = p.coeffs
    if n == 1:
        return [(complex(-c[0] / c[1]), 1)]
    if n == 2:
        a, b, cc = c[2], c[1], c[0]
        disc = np.sqrt(complex(b * b - 4 * a * cc))
        # stable quadratic formula
        q = -(b + disc) / 2 if abs(b + disc) >= abs(b - disc) else -(b - disc) / 2
        x = [0j, 0j] if q == 0 else [q / a, cc / q]
    else:
        x = _newton_step(c, companion_roots(c[:-1] / c[-1]))
    out = []
    for z, m in _cluster([complex(v) for v in x], _root_errs(c, x)):
        if m > 1:
            z = complex(_newton_step(npp.polyder(c, m - 1), z))
        out.append((z, m))
    return out


def _newton_step(c, x):
    """One Newton step for the roots x of c, kept where it lowers |c(x)|."""
    px = npp.polyval(x, c)
    dpx = npp.polyval(x, npp.polyder(c))
    y = x - px / np.where(dpx == 0, 1.0, dpx)
    return np.where((dpx != 0) & (np.abs(npp.polyval(y, c)) < np.abs(px)), y, x)


def companion_roots(lower):
    """Roots of the monic polynomials x^n + sum_j lower[..., j] x^j: the
    eigenvalues of their companion matrices, in one stacked eigvals call."""
    lower = np.asarray(lower, dtype=complex)
    n = lower.shape[-1]
    comp = np.zeros(lower.shape[:-1] + (n, n), dtype=complex)
    comp[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    if n:
        comp[..., :, -1] = -lower
    return np.linalg.eigvals(comp)


def _root_errs(c, x):
    """Error radii for computed roots x of c: over the derivative orders k,
    the smallest d with |c^(k)(x)| d^k / k! at 4 times the rounding floor of
    c(x).  Order 1 is the first-order radius of a simple root; an exact
    multiple root, where c'(x) = 0, takes its radius from higher orders."""
    x = np.asarray(x, dtype=complex)
    c = np.asarray(c, dtype=complex)
    floor = 32.0 * np.finfo(float).eps * npp.polyval(np.abs(x), np.abs(c))
    out = np.full(x.shape, np.inf)
    fact = 1.0
    for k in range(1, c.size):
        c = npp.polyder(c)
        fact *= k
        dk = np.maximum(np.abs(npp.polyval(x, c)), 1e-300)
        out = np.minimum(out, (fact * floor / dk) ** (1.0 / k))
    return list(out)


# ---------------------------------------------------------------------------
# pole-residue kernels on (terms, poly)
#
# terms: tuple of (z, cs) over distinct poles z, cs[k-1] the coefficient of
# (x - z)^-k with cs[-1] != 0; poly: tuple of ascending coefficients with a
# nonzero last entry (empty for the zero polynomial).  Each kernel carries,
# beside every coefficient it sums, the sum of the moduli of the terms, for
# the cancellation rule.
# ---------------------------------------------------------------------------

def _cut(vals, mags):
    """Drop leading entries (at the end) that the cancellation rule zeroes."""
    k = len(vals)
    cut = _TRIM_REL * max(mags, default=0.0)
    while k and abs(vals[k - 1]) <= cut:
        k -= 1
    return tuple(vals[:k])


def _match(locs, w):
    """Index of the pole in locs that w is the same point as, or -1."""
    if w in locs:
        return locs.index(w)
    rad = _CLUSTER * (1.0 + abs(w))
    for i, z in enumerate(locs):
        if abs(z - w) <= rad:
            return i
    return -1


def _sum(a, b):
    """Entrywise sum of two coefficient tuples, cut by the rule."""
    n = max(len(a), len(b))
    a = a + (0j,) * (n - len(a))
    b = b + (0j,) * (n - len(b))
    return _cut([x + y for x, y in zip(a, b)], [abs(x) + abs(y) for x, y in zip(a, b)])


def _add_parts(ta, pa, tb, pb):
    terms = list(ta)
    locs = [z for z, _ in ta]
    for w, cb in tb:
        i = _match(locs, w)
        if i < 0:
            terms.append((w, cb))
            locs.append(w)
        else:
            terms[i] = (terms[i][0], _sum(terms[i][1], cb))
    return tuple(t for t in terms if t[1]), _sum(pa, pb)


def _taylor(terms, poly, z, n, skip):
    """First n Taylor coefficients at z of poly plus every principal part in
    terms except terms[skip], with the moduli sums of their terms."""
    if n == 0:
        return [], []
    if poly:
        vals = _shift(poly, z, n)
        mags = [abs(v) for v in _shift([abs(c) for c in poly], abs(z), n)]
    else:
        vals = [0j] * n
        mags = [0.0] * n
    for i, (w, cs) in enumerate(terms):
        if i == skip:
            continue
        r = 1.0 / (z - w)
        if n == 1 and len(cs) == 1:      # the common case, unrolled
            t = cs[0] * r
            vals[0] += t
            mags[0] += abs(t)
            continue
        # c (u + d)^-j = c sum_k (-1)^k C(j+k-1, k) d^-(j+k) u^k, d = z - w
        for j, c in enumerate(cs, 1):
            t = c * r ** j
            for k in range(n):
                vals[k] += t
                mags[k] += abs(t)
                t *= -(j + k) / (k + 1) * r
    return vals, mags


def _poly_quotient(p, w, m):
    """Quotient of the ascending list p by (x - w)^m."""
    q = list(p)
    for _ in range(m):
        if len(q) <= 1:
            return []
        out = [0j] * (len(q) - 1)
        acc = 0j
        for j in range(len(q) - 1, 0, -1):
            acc = q[j] + w * acc
            out[j - 1] = acc
        q = out
    return q


def _mul_parts(ta, pa, tb, pb):
    """Pole form of the product: the Laurent series of the factors multiplied
    at each pole (orders add at a shared pole), and the polynomial part."""
    merged = [[z, i, -1] for i, (z, _) in enumerate(ta)]
    locs = [z for z, _ in ta]
    for j, (w, _) in enumerate(tb):
        i = _match(locs, w)
        if i < 0:
            merged.append([w, -1, j])
            locs.append(w)
        else:
            merged[i][2] = j
    terms = []
    for z, i, j in merged:
        ca = ta[i][1] if i >= 0 else ()
        cb = tb[j][1] if j >= 0 else ()
        ma, mb = len(ca), len(cb)
        # Laurent series at z from u^-ma (resp. u^-mb) up to u^(m-1-ma)
        av, am = _taylor(ta, pa, z, mb, i)
        bv, bm = _taylor(tb, pb, z, ma, j)
        A = list(ca[::-1]) + av
        Am = [abs(c) for c in ca[::-1]] + am
        B = list(cb[::-1]) + bv
        Bm = [abs(c) for c in cb[::-1]] + bm
        m = ma + mb
        vals, mags = [], []
        for k in range(1, m + 1):
            s = m - k
            v = 0j
            g = 0.0
            for a in range(s + 1):
                v += A[a] * B[s - a]
                g += Am[a] * Bm[s - a]
            vals.append(v)
            mags.append(g)
        cs = _cut(vals, mags)
        if cs:
            terms.append((z, cs))
    # polynomial part: pa pb plus the polynomial parts of pa * (principal
    # parts of b) and pb * (principal parts of a)
    n = max(len(pa) + len(pb) - 1, len(pa) - 1, len(pb) - 1, 0)
    vals = [0j] * n
    mags = [0.0] * n
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            vals[i + j] += x * y
            mags[i + j] += abs(x * y)
    for p, ts in ((pa, tb), (pb, ta)):
        if len(p) < 2:
            continue
        for w, cs in ts:
            for k, c in enumerate(cs, 1):
                for d, q in enumerate(_poly_quotient(p, w, k)):
                    vals[d] += c * q
                    mags[d] += abs(c * q)
    return tuple(terms), _cut(vals, mags)


def _scale_parts(terms, poly, s):
    return (tuple((z, tuple(c * s for c in cs)) for z, cs in terms),
            tuple(c * s for c in poly))


def _pf_from_coeffs(num, den, roots):
    """Pole form of num/den, den = den[-1] * prod (x - r)^m over roots.

    The Taylor series of the reduced denominator about each pole is expanded
    from the roots: deflating the expanded denominator instead loses the
    relative accuracy of its value when other poles sit close.
    """
    if num.is_zero:
        return (), ()
    poly = ()
    nc = num.coeffs
    if num.degree >= den.degree:
        q, r = npp.polydiv(nc, den.coeffs)
        poly = tuple(Poly(q).coeffs.tolist())
        nc = Poly(r).coeffs
        if nc.size == 0:
            return (), poly
    locs = [z for z, _ in roots]
    if len(locs) >= 2:
        dmin = min(abs(a - b) for i, a in enumerate(locs) for b in locs[:i])
        if dmin < 1e-6 * (1.0 + max(abs(z) for z in locs)):
            warnings.warn(
                f"clustered poles (separation {dmin:.2e}); partial fractions may be "
                f"ill-conditioned (condition ~ {1.0 / max(dmin, 1e-300):.1e})",
                RuntimeWarning, stacklevel=3)
    nl = nc.tolist()
    nabs = [abs(c) for c in nl]
    terms = []
    for i, (z, m) in enumerate(roots):
        a = _shift(nl, z, m)
        am = [abs(v) for v in _shift(nabs, abs(z), m)]
        # reduced denominator lead * prod_{r != z} ((x - z) + (z - r))^mr about z
        b = [0j] * m
        b[0] = complex(den.coeffs[-1])
        for j, (r, mr) in enumerate(roots):
            if j == i:
                continue
            d = z - r
            for _ in range(mr):
                for t in range(m - 1, 0, -1):
                    b[t] = b[t] * d + b[t - 1]
                b[0] *= d
        h, hm = [], []
        for t in range(m):
            acc = a[t]
            g = am[t]
            for s in range(1, t + 1):
                acc -= b[s] * h[t - s]
                g += abs(b[s]) * hm[t - s]
            h.append(acc / b[0])
            hm.append(g / abs(b[0]))
        cs = _cut(h[::-1], hm[::-1])
        if cs:
            terms.append((complex(z), cs))
    return tuple(terms), poly


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

UPPER, LOWER, REAL = "UPPER", "LOWER", "REAL"


@dataclass(frozen=True)
class Pole:
    location: complex
    order: int
    half_plane: str    # UPPER / LOWER / REAL

    @staticmethod
    def classify(z):
        if abs(z.imag) < REAL_BAND:
            return REAL
        return UPPER if z.imag > 0 else LOWER


_ONE = Poly([1.0])


def _make(terms, poly):
    f = object.__new__(RatFun)
    f._pf = (terms, poly)
    f._src = f._nd = f._poles = None
    return f


class RatFun:
    """Rational function in pole-residue form (see the module docstring).

    ``RatFun(num, den, den_roots=[(z, m), ...])`` builds one from coefficients;
    the pole form is derived on first use, from den_roots when given (den is
    then lead * prod (x - z)^m) and otherwise from ``poly_roots(den)``.
    Immutable: no method mutates an instance, and the lazily filled caches
    give the same bits whenever they are filled.
    """

    __slots__ = ("_pf", "_src", "_nd", "_poles")

    def __init__(self, num, den=None, den_roots=None):
        num = num if isinstance(num, Poly) else Poly(num)
        den = _ONE if den is None else (den if isinstance(den, Poly) else Poly(den))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self._src = (num, den, den_roots)
        self._pf = self._nd = self._poles = None

    def _parts(self):
        pf = self._pf
        if pf is None:
            num, den, roots = self._src
            if den.degree == 0:
                pf = (), tuple((num.coeffs / den.coeffs[0]).tolist())
            else:
                roots = poly_roots(den) if roots is None else [(complex(z), m) for z, m in roots]
                pf = _pf_from_coeffs(num, den, roots)
            self._pf = pf
            self._src = None
        return pf

    @property
    def poles(self):
        p = self._poles
        if p is None:
            p = tuple(Pole(z, len(cs), Pole.classify(z)) for z, cs in self._parts()[0])
            self._poles = p
        return p

    @property
    def num(self):
        return self._num_den()[0]

    @property
    def den(self):
        return self._num_den()[1]

    def _num_den(self):
        """(num, den) with den = prod (x - z)^m monic."""
        nd = self._nd
        if nd is None:
            terms, poly = self._parts()
            roots = [z for z, cs in terms for _ in cs]
            den = _expand(roots)
            num = [0j] * len(den)
            for i, x in enumerate(poly):
                for j, y in enumerate(den):
                    if i + j >= len(num):
                        num.append(0j)
                    num[i + j] += x * y
            for z, cs in terms:
                rest = [w for w, ws in terms if w != z for _ in ws]
                for k, c in enumerate(cs, 1):
                    # c * den / (x - z)^k
                    for d, q in enumerate(_expand(rest + [z] * (len(cs) - k))):
                        num[d] += c * q
            nd = (Poly(num), Poly(den))
            self._nd = nd
        return nd

    # -- basic predicates ---------------------------------------------------
    @property
    def is_zero(self):
        terms, poly = self._parts()
        return not terms and not poly

    @property
    def decay_order(self):
        """deg(den) - deg(num); number of powers of 1/x at infinity.

        Without a polynomial part it is the first n whose moment
        mu_n = sum_z sum_k c_{z,k} C(n-1, k-1) z^(n-k) (the coefficient of
        x^-n at infinity) survives the cancellation rule.
        """
        terms, poly = self._parts()
        if poly:
            return 1 - len(poly)
        if not terms:
            return np.inf
        for n in range(1, sum(len(cs) for _, cs in terms) + 1):
            v, g = _moment(terms, n)
            if abs(v) > _TRIM_REL * g:
                return n
        return np.inf

    @property
    def tail(self):
        """lim x f(x) at infinity for f without a polynomial part: the sum of
        the residues."""
        return _moment(self._parts()[0], 1)[0]

    @property
    def value_at_infinity(self):
        """lim f(x) at infinity; ValueError when f grows."""
        poly = self._parts()[1]
        if len(poly) > 1:
            raise ValueError("rational function grows at infinity")
        return poly[0] if poly else 0j

    def principal_part(self, side):
        """Sum of the principal parts at the poles above ("upper") or below
        ("lower") the axis; poles in the real band belong to neither."""
        terms = self._parts()[0]
        if side == "upper":
            return _make(tuple(t for t in terms if t[0].imag >= REAL_BAND), ())
        return _make(tuple(t for t in terms if t[0].imag <= -REAL_BAND), ())

    @property
    def is_L2(self):
        terms, poly = self._parts()
        return not poly and not _real_pole(terms)

    # -- evaluation ---------------------------------------------------------
    def __call__(self, x):
        """Values at x (scalar or array).  Beyond twice the pole radius the
        quotient num/den is evaluated instead of the pole form: when the
        residues cancel at infinity, the pole form loses relative accuracy
        there in proportion to |x|.  A scalar and a one-element array take
        different loops and can round a few ulp apart: compare arrays when
        bits matter."""
        terms, poly = self._parts()
        far = 2.0 * (1.0 + max((abs(z) for z, _ in terms), default=0.0))
        if not isinstance(x, np.ndarray):
            x = complex(x)
            if terms and abs(x) > far:
                num, den = self._num_den()
                return num(x) / den(x)
            s = 0j
            for c in poly[::-1]:
                s = s * x + c
            for z, cs in terms:
                r = 1.0 / (x - z)
                acc = 0j
                for c in cs[::-1]:
                    acc = (acc + c) * r
                s += acc
            return s
        x = np.asarray(x, dtype=complex)
        out = npp.polyval(x, poly) if poly else np.zeros(x.shape, dtype=complex)
        for z, cs in terms:
            r = 1.0 / (x - z)
            acc = cs[-1] * r
            for c in cs[-2::-1]:
                acc = (acc + c) * r
            out = out + acc
        if terms:
            outside = np.abs(x) > far
            if outside.any():
                num, den = self._num_den()
                out[outside] = num(x[outside]) / den(x[outside])
        return out

    # -- algebra ------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        z = complex(other)
        return _make((), (z,) if z != 0 else ())

    def __add__(self, other):
        g = self._coerce(other)
        return _make(*_add_parts(*self._parts(), *g._parts()))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, (RatFun, Poly)):
            z = complex(other)
            if z == 0:
                return RatFun.zero()
            return _make(*_scale_parts(*self._parts(), z))
        g = self._coerce(other)
        return _make(*_mul_parts(*self._parts(), *g._parts()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        gt, gp = g._parts()
        if not gt and len(gp) == 1:
            return _make(*_scale_parts(*self._parts(), 1.0 / gp[0]))
        # 1/g = den/num: poles at the numerator roots of g
        num, den = g._num_den()
        lead = num.coeffs[-1]
        recip = _pf_from_coeffs(Poly(den.coeffs / lead), Poly(num.coeffs / lead),
                                poly_roots(num))
        return _make(*_mul_parts(*self._parts(), *recip))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _make(*_scale_parts(*self._parts(), -1.0))

    def __repr__(self):
        return f"RatFun({self.num!r} / {self.den!r})"

    @staticmethod
    def zero():
        return _make((), ())

    @staticmethod
    def const(z):
        z = complex(z)
        return _make((), (z,) if z != 0 else ())

    @staticmethod
    def simple_pole(z, coeff=1.0):
        """coeff / (x - z)."""
        coeff = complex(coeff)
        return _make(((complex(z), (coeff,)),) if coeff != 0 else (), ())


def _real_pole(terms):
    return any(abs(z.imag) < REAL_BAND for z, _ in terms)


def _moment(terms, n):
    """Coefficient of x^-n at infinity of the principal parts, with the
    moduli sum of its terms."""
    v = 0j
    g = 0.0
    for z, cs in terms:
        binom = 1.0
        for k, c in enumerate(cs[:n], 1):
            # C(n-1, k-1) z^(n-k)
            t = c * binom * z ** (n - k)
            v += t
            g += abs(t)
            binom = binom * (n - k) / k
    return v, g


def conj_reflect(f):
    """The rational function equal to conj(f(x)) for real x.

    Coefficients are conjugated; poles reflect across the real axis.
    """
    if isinstance(f, Poly):
        return Poly(np.conj(f.coeffs))
    terms, poly = f._parts()
    return _make(tuple((z.conjugate(), tuple(c.conjugate() for c in cs)) for z, cs in terms),
                 tuple(c.conjugate() for c in poly))


# ---------------------------------------------------------------------------
# partial fractions, residues, integrals
# ---------------------------------------------------------------------------

def partial_fractions(f):
    """f as (pole, order, coefficient) terms plus a polynomial part.

    Returns (terms, poly_part) where each term (z, k, c) stands for c/(x-z)^k
    and poly_part is a Poly: the stored pole-residue form, listed.
    """
    terms, poly = f._parts()
    return ([(z, k, c) for z, cs in terms for k, c in enumerate(cs, 1) if c != 0],
            Poly(np.array(poly, dtype=complex)))


def residue(f, pole):
    """Order-1 Laurent coefficient of f at the given pole (0 if not a pole)."""
    terms, _ = f._parts()
    i = _match([z for z, _ in terms], complex(pole))
    return terms[i][1][0] if i >= 0 else 0j


def pv_integral(f):
    """Symmetric-limit integral of f over the real line.

    Requires decay at least 1/x and no poles in the real band.  Each simple
    pole c/(x-z) contributes c*pi*i*sign(Im z); higher-order terms integrate
    to zero.
    """
    terms, poly = f._parts()
    if poly:
        raise ValueError("integrand does not decay at infinity")
    if _real_pole(terms):
        raise ValueError("principal value at real pole unsupported here")
    return sum((cs[0] * (np.pi * 1j if z.imag > 0 else -np.pi * 1j) for z, cs in terms), 0j)


def cauchy_transform(f, lam):
    """Cauchy/Borel transform: integral of f(t)/(t - lam) dt, lam off the axis.

    Closing the contour above gives
    2 pi i [sum over poles z with Im z > 0 of (-1)^(k-1) c/(z - lam)^k
    + [Im lam > 0] f(lam)], which is 2 pi i f_lower(lam) for Im lam > 0 and
    -2 pi i f_upper(lam) for Im lam < 0, f_lower and f_upper the principal
    parts at the poles below and above the axis.  Only the poles of that
    principal part enter, so lam is refused next to one of them and not next
    to a pole on its own side.  lam may be an array; a scalar gives a complex.
    """
    scalar = not isinstance(lam, np.ndarray)
    lam = complex(lam) if scalar else np.asarray(lam, dtype=complex)
    near = abs(lam.imag) < REAL_BAND
    if near if scalar else near.any():
        raise ValueError("cauchy_transform needs Im(lam) != 0; use hardy.boundary_value")
    if f.is_zero:
        return 0j if scalar else np.zeros(lam.shape, dtype=complex)
    if not f.is_L2:
        raise ValueError("cauchy_transform requires an L2 rational function")
    up = lam.imag > 0
    if scalar:     # plain Python: this path runs per lam in the model layer
        part = f.principal_part("lower" if up else "upper")
        r = _CLUSTER * (1.0 + abs(lam))
        if any(abs(z - lam) <= r for z, _ in part._parts()[0]):
            raise ValueError("lam coincides with a pole of f")
        return complex((2j * np.pi if up else -2j * np.pi) * part(lam))
    out = np.empty(lam.shape, dtype=complex)
    for side, part_name, scale in ((up, "lower", 2j * np.pi), (~up, "upper", -2j * np.pi)):
        at = lam[side]
        part = f.principal_part(part_name)
        r = _CLUSTER * (1.0 + np.abs(at))
        if any(np.any(np.abs(z - at) <= r) for z, _ in part._parts()[0]):
            raise ValueError("lam coincides with a pole of f")
        out[side] = scale * part(at)
    return out


def inner_product(f, g):
    """L2 pairing <f, g> = integral of f * conj(g) over the real line.

    For principal parts without polynomial parts this is the double sum over
    pole pairs (z of f, v of conj_reflect(g)) on opposite sides of the axis:
    2 pi i sign(Im z) Res_z [c/(x-z)^j d/(x-v)^l]
    = 2 pi i sign(Im z) c d (-1)^(j-1) C(j+l-2, j-1) / (z - v)^(j+l-1).
    Pairs on one side contribute nothing (their two residues cancel).
    """
    if f.is_zero or g.is_zero:
        return 0j
    gb = conj_reflect(g)
    ta, pa = f._parts()
    tb, pb = gb._parts()
    if _real_pole(ta) or _real_pole(tb):
        raise ValueError("shared real singularity")
    if pa or pb:
        h = f * gb
        if h.decay_order < 2:
            raise ValueError("product does not decay like x^-2; pairing undefined")
        return 2j * np.pi * sum((cs[0] for z, cs in h._parts()[0] if z.imag > 0), 0j)
    total = 0j
    for z, ca in ta:
        up = z.imag > 0
        for v, cb in tb:
            if (v.imag > 0) == up:
                continue
            r = 1.0 / (z - v)
            for j, c in enumerate(ca, 1):
                sign = 1.0 if (j % 2 == 1) == up else -1.0    # sign(Im z) (-1)^(j-1)
                for l, d in enumerate(cb, 1):
                    binom = 1.0                               # C(j+l-2, j-1)
                    for t in range(1, j):
                        binom = binom * (l - 1 + t) / t
                    total += sign * binom * c * d * r ** (j + l - 1)
    return 2j * np.pi * total


def l2_norm(f):
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))
