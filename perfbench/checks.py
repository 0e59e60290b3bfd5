"""Independent checks of fmlab's outputs.

Nothing here calls fmlab.  The reference values come from the definitions:
mpmath quadrature and mpmath polynomial roots at raised precision, scipy
quadrature, and closed forms.  Every check returns a list of problems, empty
when the outputs are correct.  mpmath and scipy are imported inside the
checks, after the timed part, so they weigh on neither set-up time nor peak
memory.
"""
import math

import numpy as np

PI = math.pi

# data of the disjoint-support jump model: phi = 1[0,1], psi = 1/log((t-1)/t)
# on [2,3] (the reciprocal Cauchy transform of 1[0,1])
PHI_IV = (0.0, 1.0)
PSI_IV = (2.0, 3.0)
# On psi's support, M^{-1}(k +- i0) = -pv(k) log((k-1)/k) with
# pv(k) = p.v. int psi(t)/(t - k) dt, which vanishes at this k: M has a pole
# on the axis there, and jump_rank_check stays unresolved within ~0.007 of it
PSI_PV_ZERO = 2.6203034970963
# overlapping supports: phi = 1[-1,1], psi = 1[0,2]
OVERLAP_PHI_IV = (-1.0, 1.0)
OVERLAP_PSI_IV = (0.0, 2.0)

# four-pole petal model: psi poles z_k, xi(t) = sum a_k/(z_k - t) vanishes at
# t = 0, 1, -2 and a_4 = 1
PETAL_ZS = (-1j, 1 - 1j, -2 - 1j, 3 - 2j)
PETAL_ZEROS = (0.0, 1.0, -2.0)
PETAL_A_LAST = 1.0

ROOT_MARGIN = 1e-6        # skip cells with a determinant zero this close to the axis
TWO_POLE_MARGIN = 1e-6    # skip two-pole cells this close to the parabola
M_TOL = 1e-7              # relative agreement of M with the mpmath integrals


def _problem_list(problems, limit=20):
    return problems[:limit] + ([f"... {len(problems) - limit} more"]
                               if len(problems) > limit else [])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_failures(residuals, tol):
    """Indices of items that raised (a string) or reached the tolerance."""
    return [i for i, r in enumerate(residuals)
            if isinstance(r, str) or not r < tol]


def m_reference(phi, psi, B, lam, dps=20):
    """M_B(lam) assembled from its defining integrals by mpmath.quad.

    phi and psi are (ascending numerator coefficients, simple poles).
    M = 1/(sign(Im lam) pi i - psihat phibarhat / D - B) with
    D = 1 + int psi conj(phi)/(t - lam), psihat = int psi/(t - lam) and
    phibarhat = int conj(phi)/(t - lam).
    """
    import mpmath

    with mpmath.workdps(dps):
        lam_m = mpmath.mpc(lam)

        def ev(data, t):
            num, poles = data
            return (mpmath.polyval([mpmath.mpc(c) for c in reversed(num)], t)
                    / mpmath.fprod(t - mpmath.mpc(z) for z in poles))

        breaks = sorted({z.real for z in list(phi[1]) + list(psi[1])} | {lam.real})
        span = [-mpmath.inf] + breaks + [mpmath.inf]

        def integral(f):
            return mpmath.quad(lambda t: f(t) / (t - lam_m), span)

        D = 1 + integral(lambda t: ev(psi, t) * mpmath.conj(ev(phi, t)))
        ph = integral(lambda t: ev(psi, t))
        fh = integral(lambda t: mpmath.conj(ev(phi, t)))
        sign = 1 if lam.imag > 0 else -1
        return complex(1 / (sign * mpmath.pi * 1j - ph * fh / D - B))


def m_value(phi, psi, B, lam, m):
    ref = m_reference(phi, psi, B, lam)
    err = abs(m - ref)
    if not err <= M_TOL * (1 + abs(ref)):
        return [f"m_function at lam={lam:.6g}: {m:.12g}, mpmath {ref:.12g}"]
    return []


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _cells(bounds, defects):
    ny, nx = defects.shape
    xs = np.linspace(bounds[0], bounds[1], nx)
    ys = np.linspace(bounds[2], bounds[3], ny)
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            yield j, i, complex(x, y)


def scan_two_pole(bounds, defects, flags):
    """Defect 0 inside the parabola (Im w)^2 = (1 + 3 Re w)/2, 1 outside."""
    problems, checked = [], 0
    for j, i, w in _cells(bounds, defects):
        gap = w.imag ** 2 - (1 + 3 * w.real) / 2
        if abs(gap) <= TWO_POLE_MARGIN:
            continue
        want = 0 if gap < 0 else 1
        checked += 1
        if flags[j, i] != "OK" or defects[j, i] != want:
            problems.append(f"two-pole cell {w:.6g}: defect {defects[j, i]} "
                            f"({flags[j, i]}), expected {want}")
    if checked < 0.95 * defects.size:
        problems.append(f"two-pole: only {checked} of {defects.size} cells checked")
    return _problem_list(problems)


def petal_residues():
    """a_1..a_3 solved from xi(t) = 0 at the prescribed zeros, a_4 = 1."""
    import mpmath

    zs = [mpmath.mpc(z) for z in PETAL_ZS]
    A = mpmath.matrix([[1 / (zk - t) for zk in zs[:-1]] for t in PETAL_ZEROS])
    rhs = mpmath.matrix([-PETAL_A_LAST / (zs[-1] - t) for t in PETAL_ZEROS])
    a = mpmath.lu_solve(A, rhs)
    return [a[0], a[1], a[2], mpmath.mpf(PETAL_A_LAST)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def lower_zero_count(w, a, zs=PETAL_ZS, dps=20):
    """Lower-half-plane zeros of the continued determinant at 1/alpha = w.

    D_plus(mu) = 1 + (2 pi i / w) sum_k a_k/(mu - z_k); its numerator times w
    is w prod (mu - z_k) + 2 pi i sum_k a_k prod_{j != k} (mu - z_j).
    Returns None when a zero lies within ROOT_MARGIN of the axis.
    """
    import mpmath

    with mpmath.workdps(dps):
        zs = [mpmath.mpc(z) for z in zs]
        full = [mpmath.mpf(1)]
        for z in zs:
            full = _poly_mul(full, [1, -z])
        num = [mpmath.mpc(w) * c for c in full]
        for k, ak in enumerate(a):
            cof = [mpmath.mpf(1)]
            for j, z in enumerate(zs):
                if j != k:
                    cof = _poly_mul(cof, [1, -z])
            for i, c in enumerate(cof):
                num[i + 1] += 2j * mpmath.pi * ak * c
        roots = mpmath.polyroots(num, maxsteps=200, extraprec=60)
    ims = [float(mpmath.im(r)) for r in roots]
    if min(abs(v) for v in ims) <= ROOT_MARGIN:
        return None
    return sum(v < 0 for v in ims)


def scan_four_pole(bounds, defects, flags):
    """Defect = 4 - (lower-half-plane zeros of the continued determinant)."""
    a = petal_residues()
    problems, checked = [], 0
    for j, i, w in _cells(bounds, defects):
        nu = lower_zero_count(w, a)
        if nu is None:
            continue
        checked += 1
        if flags[j, i] != "OK" or defects[j, i] != len(PETAL_ZS) - nu:
            problems.append(f"four-pole cell {w:.6g}: defect {defects[j, i]} "
                            f"({flags[j, i]}), expected {len(PETAL_ZS) - nu}")
    if checked < 0.95 * defects.size:
        problems.append(f"four-pole: only {checked} of {defects.size} cells checked")
    return _problem_list(problems)


# ---------------------------------------------------------------------------
# figure2
# ---------------------------------------------------------------------------

def _xi(a, t, power=1):
    return sum(complex(ak) / (z - t) ** power for ak, z in zip(a, PETAL_ZS))


def figure2(report, ts, points, labels, bounds, seed, n_crossings=100):
    a = petal_residues()
    n = len(PETAL_ZS)
    problems = []

    # far field
    if report["far_field_defect"] != 0:
        problems.append(f"far-field defect {report['far_field_defect']}")

    # the curve is 2 pi i xi(t) on the traced samples ...
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(ts), size=64, replace=False):
        ref = 2j * PI * _xi(a, ts[i])
        if abs(points[i] - ref) > 1e-9 * (1 + abs(ref)):
            problems.append(f"curve point at t={ts[i]:.6g} is {points[i]:.9g}, "
                            f"expected {ref:.9g}")
    # ... and passes through 0 at the prescribed zeros
    for t0 in PETAL_ZEROS:
        i = int(np.searchsorted(ts, t0))
        if not 0 < i < len(ts):
            problems.append(f"curve does not reach t={t0}")
            continue
        lo, hi = ts[i - 1], ts[i]
        s = (t0 - lo) / (hi - lo)
        p = points[i - 1] + s * (points[i] - points[i - 1])
        chord = abs(points[i] - points[i - 1])
        if abs(p) > 0.01 * chord + 1e-12:
            problems.append(f"curve at t={t0} is {p:.3g}, not 0 (chord {chord:.3g})")

    # components: the reported defect is the mpmath count inside each one
    ny, nx = labels.shape
    xs = np.linspace(bounds[0], bounds[1], nx)
    ys = np.linspace(bounds[2], bounds[3], ny)
    comps = report["components"]
    found = sorted(int(v) for v in np.unique(labels) if v >= 0)
    if sorted(int(k) for k in comps) != found:
        problems.append(f"components {sorted(comps)} differ from the labels {found}")
    if comps.get("0", {}).get("defect") != 0:
        problems.append("component 0 (far field) has nonzero defect")
    checked = 0
    for lab in found:
        cells = np.argwhere(labels == lab)
        cand = cells[:: max(1, len(cells) // 64)]
        ws = xs[cand[:, 1]] + 1j * ys[cand[:, 0]]
        dist = np.min(np.abs(ws[:, None] - points[None, :]), axis=1)
        want = comps.get(str(lab), {}).get("defect")
        for w in ws[np.argsort(-dist)[:3]]:
            nu = lower_zero_count(complex(w), a)
            if nu is None:
                continue
            checked += 1
            if want != n - nu:
                problems.append(f"component {lab}: defect {want}, mpmath gives "
                                f"{n - nu} at {complex(w):.6g}")
    if checked < len(found):
        problems.append(f"only {checked} component probes for {len(found)} components")

    # crossings: exactly one unit of defect across the curve, on both sides
    crossings = report["crossings"]
    if len(crossings) != n_crossings:
        problems.append(f"{len(crossings)} crossings, expected {n_crossings}")
    for c in crossings:
        t = c["t"]
        da, db = c["defects"]
        if abs(da - db) != 1:
            problems.append(f"crossing at t={t:.6g}: defects {da}, {db}")
        p = 2j * PI * _xi(a, t)
        tangent = 2j * PI * _xi(a, t, power=2)
        normal = 1j * tangent / abs(tangent)
        eps = 0.02 * (1 + abs(p))
        for w, d in ((p + eps * normal, da), (p - eps * normal, db)):
            nu = lower_zero_count(w, a)
            if nu is not None and d != n - nu:
                problems.append(f"crossing at t={t:.6g}: defect {d} at {w:.6g}, "
                                f"mpmath gives {n - nu}")
    return _problem_list(problems)


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def psi_hat(k):
    """int psi(t)/(t - k) over psi's support, k off it, by scipy quadrature."""
    from scipy import integrate

    val, _ = integrate.quad(lambda t: 1.0 / (math.log((t - 1.0) / t) * (t - k)),
                            *PSI_IV, epsabs=1e-14, epsrel=1e-13)
    return val


def overlap_jump(k):
    """Jump of M^{-1} for phi = 1[-1,1], psi = 1[0,2], B = 0, at k in (0,1).

    D(k +- i0) = 1 + log((1-k)/k) +- i pi, psihat = log((2-k)/k) +- i pi and
    phibarhat = log((1-k)/(1+k)) +- i pi.
    """
    def minv(s):
        D = 1 + math.log((1 - k) / k) + s * 1j * PI
        ph = math.log((2 - k) / k) + s * 1j * PI
        fh = math.log((1 - k) / (1 + k)) + s * 1j * PI
        return s * 1j * PI - ph * fh / D
    return minv(1) - minv(-1)


def jumps(points, outputs):
    problems = []
    for (regime, k), out in zip(points, outputs):
        if isinstance(out, str):
            continue                       # failed operation, counted as such
        jump, rank, resolved, rank_res, rank_m, equal = out
        if regime == "off":
            want, tol = 2j * PI, 1e-8
        elif regime == "phi":
            want, tol = 2j * PI * (1 - psi_hat(k)), 1e-8
        elif regime == "psi":
            want, tol = 0j, 1e-6
        else:
            want, tol = overlap_jump(k), 1e-8
        if not abs(jump - want) < tol * max(1.0, abs(want)):
            problems.append(f"{regime} k={k:.6g}: jump {jump:.12g}, expected {want:.12g}")
        want_rank = 0 if abs(want) < 1e-6 else 1
        if rank != want_rank:
            problems.append(f"{regime} k={k:.6g}: mb_jump rank {rank}, expected {want_rank}")
        if not (resolved and equal and rank_res == rank and rank_m == rank):
            problems.append(f"{regime} k={k:.6g}: jump_rank_check resolved={resolved} "
                            f"ranks {rank_res}/{rank_m}, mb_jump rank {rank}")
    if len(outputs) != len(points):
        problems.append(f"{len(outputs)} results for {len(points)} points")
    return _problem_list(problems)
