"""Complex polynomials and rational functions with root finding and residue calculus.

Everything downstream (M-functions, resolvents, defect counts) reduces to algebra
on reduced rational functions: closed-form line integrals over the real line are
residue sums, principal values are signed half-residue sums, and Cauchy/Borel
transforms close the contour in the upper half-plane.

Conventions
-----------
Coefficients are ascending-degree complex doubles.  Poles within ``REAL_BAND``
of the axis are classified REAL (degenerate band, never a knife edge).  Nearby
root pairs (within the relative ``CLUSTER_RADIUS``) are merged into a single
root with multiplicity.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

__all__ = [
    "Poly", "RatFun", "Pole", "RootFindingError", "DegreeCapError",
    "poly_roots", "poly_from_roots", "conj_reflect", "partial_fractions",
    "residue", "pv_integral", "cauchy_transform", "inner_product", "l2_norm",
    "REAL_BAND", "DEGREE_CAP",
]

DEGREE_CAP = 64
REAL_BAND = 1e-9          # |Im z| below this => pole "on" the real axis
_CLUSTER = 1e-8           # relative root clustering radius
_TRIM_REL = 1e-12         # relative trailing-coefficient trim


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to converge within its budget."""


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

    def shift(self, z0):
        """Taylor coefficients about z0 (synthetic-division shift)."""
        c = self.coeffs.tolist()
        n = len(c)
        z0 = complex(z0)
        out = []
        for k in range(n):
            # repeated synthetic division by (x - z0)
            for j in range(n - 2 - k, -1, -1):
                c[j] += z0 * c[j + 1]
            out.append(c[0])
            del c[0]
        return np.array(out, dtype=complex)

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


def poly_from_roots(roots, lead=1.0):
    """Expand lead * prod (x - r_i); roots may repeat."""
    c = [complex(lead)]
    for r in roots:
        r = complex(r)
        nc = [-r * c[0]]
        for i in range(1, len(c)):
            nc.append(c[i - 1] - r * c[i])
        nc.append(c[-1])
        c = nc
    return Poly(np.array(c, dtype=complex))


# ---------------------------------------------------------------------------
# root finding: Aberth-Ehrlich simultaneous iteration
# ---------------------------------------------------------------------------

def _aberth(c):
    """All roots of the (ascending, monic-normalized) coefficient array c."""
    n = c.size - 1
    c = c / c[-1]
    dc = npp.polyder(c)
    # perturbed-circle initial guesses inside the Cauchy bound
    radius = 1.0 + np.max(np.abs(c[:-1]))
    angles = 2.0 * np.pi * (np.arange(n) + 0.35) / n + 0.4
    x = radius * np.exp(1j * angles)
    # roundoff floor for |p(x)|: eps * sum |c_j| |x|^j
    absc = np.abs(c)
    done = np.zeros(n, dtype=bool)
    for _ in range(200 * max(n, 1)):
        p = npp.polyval(x, c)
        floor = 8.0 * np.finfo(float).eps * npp.polyval(np.abs(x), absc)
        done |= np.abs(p) <= floor
        if done.all():
            return x
        dp = npp.polyval(x, dc)
        bad = dp == 0
        if bad.any():
            x = np.where(bad, x * (1 + 1e-8) + 1e-8, x)
            continue
        w = p / dp
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1.0, denom)
        step = np.where(done, 0.0, w / denom)
        x = x - step
        done |= np.abs(step) < 1e-13 * (1.0 + np.abs(x))
        if done.all():
            return x
    res = np.max(np.abs(npp.polyval(x, c)))
    raise RootFindingError(f"no convergence after {200 * n} iterations; residual {res:.3e}")


def _cluster(roots, errs=None):
    """Merge roots within the clustering radius; returns (root, mult) list.

    The radius is the relative design radius plus per-root error estimates
    (when supplied): multiple roots are only computable to ~sqrt(eps), so the
    fixed radius alone would split them.
    """
    roots = list(roots)
    if errs is None:
        errs = [0.0] * len(roots)
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

    Simultaneous Aberth-Ehrlich iteration from perturbed-circle starts; close
    roots are merged by the relative clustering radius.  Degree 1 and 2 short-
    circuit to closed forms.
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
        return [(-c[0] / c[1], 1)]
    if n == 2:
        a, b, cc = c[2], c[1], c[0]
        disc = np.sqrt(complex(b * b - 4 * a * cc))
        # stable quadratic formula
        q = -(b + disc) / 2 if abs(b + disc) >= abs(b - disc) else -(b - disc) / 2
        if q == 0:
            r1 = r2 = 0j
        else:
            r1, r2 = q / a, cc / q
        return _cluster([complex(r1), complex(r2)], _root_errs(c, [r1, r2]))
    x = _aberth(c)
    return _cluster([complex(v) for v in x], _root_errs(c, x))


def _root_errs(c, x):
    """First-order backward-error radii for computed roots of c."""
    x = np.asarray(x, dtype=complex)
    dc = npp.polyder(np.asarray(c, dtype=complex))
    floor = 8.0 * np.finfo(float).eps * npp.polyval(np.abs(x), np.abs(np.asarray(c)))
    dp = np.abs(npp.polyval(x, dc))
    return list(4.0 * floor / np.maximum(dp, 1e-300))


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


class RatFun:
    """Reduced rational function num/den with a classified pole set.

    Common num/den roots within the clustering radius are cancelled at
    construction (root-level reduction; no float GCD).  The denominator is kept
    monic.  Immutable in spirit: no method mutates an instance.
    """

    __slots__ = ("num", "den", "_den_roots", "_poles")

    def __init__(self, num, den=None, den_roots=None):
        num = num if isinstance(num, Poly) else Poly(num)
        den = Poly([1.0]) if den is None else (den if isinstance(den, Poly) else Poly(den))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if den_roots is None:
            den_roots = poly_roots(den)
        else:
            den_roots = list(den_roots)
        if (not num.is_zero and num.degree >= 1 and den.degree >= 1
                and _maybe_cancels(num, den_roots)):
            num_roots = poly_roots(num)
            num_roots, den_roots, cancelled = _cancel(num_roots, den_roots)
            if cancelled:
                num = poly_from_roots(
                    [r for r, m in num_roots for _ in range(m)], num.coeffs[-1])
                den = poly_from_roots(
                    [r for r, m in den_roots for _ in range(m)], den.coeffs[-1])
        lead = den.coeffs[-1]
        if lead != 1.0:
            num = Poly(num.coeffs / lead) if not num.is_zero else num
            den = Poly(den.coeffs / lead)
        self.num = num
        self.den = den
        self._den_roots = tuple((r, m) for r, m in den_roots)
        self._poles = None

    @property
    def poles(self):
        # classified lazily: most intermediate values never have their pole
        # set inspected
        p = self._poles
        if p is None:
            p = tuple(Pole(r, m, Pole.classify(r)) for r, m in self._den_roots)
            self._poles = p
        return p

    # -- basic predicates ---------------------------------------------------
    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def decay_order(self):
        """deg(den) - deg(num); number of powers of 1/x at infinity."""
        if self.num.is_zero:
            return np.inf
        return self.den.degree - self.num.degree

    @property
    def is_L2(self):
        return self.num.is_zero or (
            self.decay_order >= 1 and all(p.half_plane != REAL for p in self.poles))

    # -- evaluation ---------------------------------------------------------
    def __call__(self, x):
        if self.num.is_zero:
            x = np.asarray(x)
            return np.zeros(x.shape, dtype=complex) if x.ndim else 0j
        if not isinstance(x, np.ndarray):
            return self.num(x) / self.den(x)
        x = np.asarray(x, dtype=complex)
        return npp.polyval(x, self.num.coeffs) / npp.polyval(x, self.den.coeffs)

    # -- algebra ------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        return RatFun(Poly([complex(other)]))

    def __add__(self, other):
        g = self._coerce(other)
        if self.is_zero:
            return g
        if g.is_zero:
            return self
        # sum over the least common denominator (shared poles are matched by
        # location rather than doubled and re-cancelled, which would cost
        # sqrt(eps) accuracy at the rebuilt double roots)
        lcd = _ms_lcd(self._den_roots, g._den_roots)
        cof1 = _ms_poly(_ms_diff(lcd, self._den_roots))
        cof2 = _ms_poly(_ms_diff(lcd, g._den_roots))
        num = self.num * cof1 + g.num * cof2
        return RatFun(num, _ms_poly(lcd), den_roots=lcd)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, (RatFun, Poly)):
            z = complex(other)
            return RatFun(self.num * z, self.den, den_roots=self._den_roots)
        g = self._coerce(other)
        if self.is_zero or g.is_zero:
            return RatFun.zero()
        return RatFun(self.num * g.num, self.den * g.den,
                      den_roots=_ms_prod(self._den_roots, g._den_roots))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if g.num.degree == 0:
            scale = g.num.coeffs[0]
            return RatFun(self.num * (1.0 / scale), self.den,
                          den_roots=self._den_roots) * RatFun(g.den)
        extra = [(r, m) for r, m in poly_roots(g.num)]
        return RatFun(self.num * g.den, self.den * g.num,
                      den_roots=_ms_prod(self._den_roots, extra))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return RatFun(self.num * (-1.0), self.den, den_roots=self._den_roots)

    def __repr__(self):
        return f"RatFun({self.num!r} / {self.den!r})"

    @staticmethod
    def zero():
        return RatFun(Poly([]), Poly([1.0]), den_roots=[])

    @staticmethod
    def const(z):
        return RatFun(Poly([complex(z)]), Poly([1.0]), den_roots=[])

    @staticmethod
    def simple_pole(z, coeff=1.0):
        """coeff / (x - z)."""
        return RatFun(Poly([complex(coeff)]), Poly([-complex(z), 1.0]),
                      den_roots=[(complex(z), 1)])


def _ms_lcd(r1, r2):
    """Least common multiple of two root multisets (max multiplicity)."""
    out = [list(t) for t in r1]
    for z, m in r2:
        for item in out:
            if abs(item[0] - z) <= _CLUSTER * (1.0 + abs(z)):
                item[1] = max(item[1], m)
                break
        else:
            out.append([z, m])
    return [(r, m) for r, m in out]

def _ms_prod(r1, r2):
    """Concatenate root multisets, merging coincident roots by summed order."""
    out = [list(t) for t in r1]
    for z, m in r2:
        for item in out:
            if abs(item[0] - z) <= _CLUSTER * (1.0 + abs(z)):
                item[1] += m
                break
        else:
            out.append([z, m])
    return [(r, m) for r, m in out]

def _ms_diff(big, small):
    """Multiset difference big / small; small must embed in big."""
    out = [list(t) for t in big]
    for z, m in small:
        for item in out:
            if item[1] >= m and abs(item[0] - z) <= _CLUSTER * (1.0 + abs(z)):
                item[1] -= m
                break
        else:
            raise ValueError("root multiset difference is not defined")
    return [(r, m) for r, m in out if m > 0]

def _ms_poly(ms):
    """Monic polynomial with the given root multiset."""
    return poly_from_roots([r for r, m in ms for _ in range(m)], 1.0)


def _maybe_cancels(num, den_roots):
    """Cheap screen: can the numerator vanish near any denominator root?

    |num(r)| well above the rounding floor at r rules out a root of num within
    the clustering radius, so the full numerator root computation is skipped.
    """
    ac = np.abs(num.coeffs)
    for r, _ in den_roots:
        s = 1.0 + abs(r)
        scale = 0.0
        for a in ac[::-1]:
            scale = scale * s + a
        if abs(num(r)) <= 1e-6 * scale:
            return True
    return False


def _cancel(num_roots, den_roots):
    """Cancel matching (root, mult) pairs across numerator and denominator."""
    num_roots = [list(t) for t in num_roots]
    den_roots = [list(t) for t in den_roots]
    cancelled = False
    for dn in den_roots:
        for nm in num_roots:
            if nm[1] == 0 or dn[1] == 0:
                continue
            if abs(nm[0] - dn[0]) <= _CLUSTER * (1.0 + abs(dn[0])):
                k = min(nm[1], dn[1])
                nm[1] -= k
                dn[1] -= k
                cancelled = True
    num_out = [(r, m) for r, m in num_roots if m > 0]
    den_out = [(r, m) for r, m in den_roots if m > 0]
    return num_out, den_out, cancelled


def conj_reflect(f):
    """The rational function equal to conj(f(x)) for real x.

    Coefficients are conjugated; poles reflect across the real axis.
    """
    if isinstance(f, Poly):
        return Poly(np.conj(f.coeffs))
    return RatFun(Poly(np.conj(f.num.coeffs)), Poly(np.conj(f.den.coeffs)),
                  den_roots=[(np.conj(r), m) for r, m in f._den_roots])


# ---------------------------------------------------------------------------
# partial fractions and residues
# ---------------------------------------------------------------------------

def partial_fractions(f):
    """Decompose f into (pole, order, coefficient) terms plus a polynomial part.

    Returns (terms, poly_part) where each term (z, k, c) stands for c/(x-z)^k
    and poly_part is a Poly.  Reconstruction of f from the output is exact up
    to conditioning of clustered poles (warned about).
    """
    if f.is_zero:
        return [], Poly([])
    num, den = f.num, f.den
    poly_part = Poly([])
    if num.degree >= den.degree:
        q, r = npp.polydiv(num.coeffs, den.coeffs)
        poly_part = Poly(q)
        num = Poly(r)
        if num.is_zero:
            return [], poly_part
    locs = [p.location for p in f.poles]
    if len(locs) >= 2:
        dmin = min(abs(a - b) for i, a in enumerate(locs) for b in locs[:i])
        if dmin < 1e-6 * (1.0 + max(abs(z) for z in locs)):
            warnings.warn(
                f"clustered poles (separation {dmin:.2e}); partial fractions may be "
                f"ill-conditioned (condition ~ {1.0 / max(dmin, 1e-300):.1e})",
                RuntimeWarning, stacklevel=2)
    terms = []
    roots = f._den_roots
    for i, (z, m) in enumerate(roots):
        # Taylor series of num/den_reduced about z, to order m-1
        a = Poly(num.coeffs).shift(z)[:m] if num.degree + 1 >= 1 else np.zeros(m, complex)
        if a.size < m:
            a = np.pad(a, (0, m - a.size))
        # den_reduced = lead * prod_{r != z} ((x-z) + (z-r))^mr, expanded about
        # z from the roots: deflating the expanded denominator instead loses
        # the relative accuracy of b[0] when other poles sit close to z
        b = np.zeros(m, dtype=complex)
        b[0] = den.coeffs[-1]
        for j, (r, mr) in enumerate(roots):
            if j == i:
                continue
            for _ in range(mr):
                b[1:] = b[1:] * (z - r) + b[:-1]
                b[0] *= z - r
        h = np.zeros(m, dtype=complex)     # series of num/den_reduced
        for i in range(m):
            acc = a[i] - sum(b[j] * h[i - j] for j in range(1, i + 1))
            h[i] = acc / b[0]
        for k in range(1, m + 1):
            c = h[m - k]
            if c != 0:
                terms.append((z, k, c))
    return terms, poly_part


def residue(f, pole):
    """Order-1 Laurent coefficient of f at the given pole (0 if not a pole)."""
    terms, _ = partial_fractions(f)
    tol = _CLUSTER * (1.0 + abs(pole))
    for z, k, c in terms:
        if k == 1 and abs(z - complex(pole)) <= tol:
            return c
    return 0j


def pv_integral(f):
    """Symmetric-limit integral of f over the real line.

    Requires decay at least 1/x and no poles in the real band.  Each simple
    pole c/(x-z) contributes c*pi*i*sign(Im z); higher-order terms integrate
    to zero.
    """
    if f.is_zero:
        return 0j
    if f.decay_order < 1:
        raise ValueError("integrand does not decay at infinity")
    if any(p.half_plane == REAL for p in f.poles):
        raise ValueError("principal value at real pole unsupported here")
    terms, _ = partial_fractions(f)
    return sum((c * np.pi * 1j * np.sign(z.imag) for z, k, c in terms if k == 1), 0j)


def cauchy_transform(f, lam):
    """Cauchy/Borel transform: integral of f(t)/(t - lam) dt, lam off the axis.

    Residue evaluation: 2*pi*i times the residues of f(t)/(t-lam) in the upper
    half-plane (the lam pole participates exactly when Im lam > 0).
    """
    lam = complex(lam)
    if abs(lam.imag) < REAL_BAND:
        raise ValueError("cauchy_transform needs Im(lam) != 0; use hardy.boundary_value")
    if f.is_zero:
        return 0j
    if not f.is_L2:
        raise ValueError("cauchy_transform requires an L2 rational function")
    for p in f.poles:
        if abs(p.location - lam) <= _CLUSTER * (1.0 + abs(lam)):
            raise ValueError("lam coincides with a pole of f")
    g = f / RatFun(Poly([-lam, 1.0]))
    terms, _ = partial_fractions(g)
    return 2j * np.pi * sum((c for z, k, c in terms if k == 1 and z.imag > REAL_BAND), 0j)


def inner_product(f, g):
    """L2 pairing <f, g> = integral of f * conj(g) over the real line (residues)."""
    if f.is_zero or g.is_zero:
        return 0j
    h = f * conj_reflect(g)
    if h.is_zero:
        return 0j
    if h.decay_order < 2:
        raise ValueError("product does not decay like x^-2; pairing undefined")
    if any(p.half_plane == REAL for p in h.poles):
        raise ValueError("shared real singularity")
    terms, _ = partial_fractions(h)
    return 2j * np.pi * sum((c for z, k, c in terms if k == 1 and z.imag > REAL_BAND), 0j)


def l2_norm(f):
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))
