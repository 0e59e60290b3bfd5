"""Batch pipelines and the command-line interface.

Provides the parameter-plane defect scanner, the real-root curve tracer, the
four-pole petal-figure pipeline, the randomized verification suite, and all
flat-file I/O (CSV grids/curves, JSON models and reports).

File conventions: CSV with a header row, complex values split into re/im
columns, UTF-8, LF line endings; JSON encodes every complex scalar as a
two-element [re, im] list.
"""
import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .ratfun import Poly, RatFun, REAL_BAND
from .hardy import PiecewiseFun
from .friedrichs import (FriedrichsModel, apply_resolvent, m_function,
                         verify_identity)
from .detect import (alpha_pencil, cauchy_kernel_model, defect_hardy_plus,
                     pencil_defects, pencil_roots)
from .recon import ReconError, ResolventOracle, recover_from_restricted_resolvent

PI = np.pi

PLANES = ("ALPHA", "MU", "MU_HAT", "INV_ALPHA")
UNRESOLVED = "UNRESOLVED"
OK = "OK"
_DRAW_MIN_IM = 0.1        # random poles of the verify suite: distance from the axis
_MAP_PAD = 1.3            # default component-map bounds: the curve's extent times this


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def _c_enc(z):
    z = complex(z)
    return [z.real, z.imag]


def _c_dec(v):
    return complex(v[0], v[1])


def rat_to_json(f):
    return {"num": [_c_enc(c) for c in f.num.coeffs],
            "den": [_c_enc(c) for c in f.den.coeffs]}


def rat_from_json(d):
    return RatFun(Poly([_c_dec(c) for c in d["num"]]),
                  Poly([_c_dec(c) for c in d["den"]]))


def piecewise_to_json(pw):
    out = []
    for p in pw.pieces:
        d = {"interval": [p.a, p.b], "kind": p.kind}
        if p.kind == "rational-restriction":
            d["payload"] = rat_to_json(p.payload)
        elif p.kind == "reciprocal-cauchy-of":
            d["payload"] = list(p.payload)
        else:
            d["payload"] = None
        out.append(d)
    return out


def piecewise_from_json(items):
    funs = []
    for d in items:
        a, b = d["interval"]
        kind = d["kind"]
        if kind == "indicator":
            funs.append(PiecewiseFun.indicator(a, b))
        elif kind == "rational-restriction":
            funs.append(PiecewiseFun.restriction(rat_from_json(d["payload"]), a, b))
        elif kind == "reciprocal-cauchy-of":
            funs.append(PiecewiseFun.reciprocal_cauchy(tuple(d["payload"]), (a, b)))
        else:
            raise ValueError(f"unknown piece kind {kind!r}")
    pieces = tuple(p for f in funs for p in f.pieces)
    return PiecewiseFun(pieces)


def model_to_json(model):
    return {"phi": rat_to_json(model.phi), "psi": rat_to_json(model.psi),
            "B": _c_enc(model.B)}


def model_from_json(d):
    return FriedrichsModel(rat_from_json(d["phi"]), rat_from_json(d["psi"]),
                           _c_dec(d["B"]))


# ---------------------------------------------------------------------------
# defect scans over parameter planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanGrid:
    plane: str
    bounds: tuple           # (x0, x1, y0, y1)
    nx: int
    ny: int
    defects: np.ndarray     # int, -1 where unresolved

    @property
    def flags(self):
        """OK per cell, UNRESOLVED where the defect is below 0."""
        return np.where(self.defects < 0, UNRESOLVED, OK).astype(object)

    def cell_centers(self):
        x0, x1, y0, y1 = self.bounds
        xs = np.linspace(x0, x1, self.nx)
        ys = np.linspace(y0, y1, self.ny)
        return xs, ys

    def write_csv(self, path):
        xs, ys = self.cell_centers()
        flags = self.flags
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("re,im,defect,flag\n")
            for j, y in enumerate(ys):
                for i, x in enumerate(xs):
                    d = self.defects[j, i]
                    fh.write(f"{float(x)!r},{float(y)!r},"
                             f"{'' if d < 0 else d},{flags[j, i]}\n")


def _alpha_of(plane, w, conv):
    """alpha at the cell coordinates w (an array), nan at the origin of a
    reciprocal plane."""
    if plane == "ALPHA":
        return w
    if plane == "MU_HAT":
        return w * conv / (2j * PI)
    origin = np.abs(w) < 1e-12
    w = np.where(origin, 1.0, w)
    return np.where(origin, np.nan, 1.0 / (w if plane == "INV_ALPHA" else 2j * PI * w))


def scan_defect_grid(model, grid, plane="ALPHA", conv=1.0):
    """Defect of the psi -> alpha psi family over a rectangle of a parameter plane.

    grid = (x0, x1, y0, y1, nx, ny); plane maps the cell coordinate w to alpha
    (ALPHA: w, INV_ALPHA: 1/w, MU: 1/(2 pi i w), MU_HAT: w*conv/(2 pi i)).
    The cells with alpha != 0 are counted in one `pencil_defects` call.
    UNRESOLVED marks the origin of a reciprocal plane, a degenerate cell (a
    root of the continued determinant on the real axis), and every cell
    with alpha != 0 of a model the upper-Hardy route refuses.
    """
    if plane not in PLANES:
        raise ValueError(f"plane must be one of {PLANES}")
    x0, x1, y0, y1, nx, ny = grid
    nx, ny = int(nx), int(ny)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    alphas = _alpha_of(plane, (xs + 1j * ys[:, None]).ravel(), complex(conv))
    # alpha = 0: alpha psi vanishes and everything is detectable
    defects = np.where(np.abs(alphas) < 1e-14, 0, -1)
    live = np.flatnonzero(np.abs(alphas) >= 1e-14)      # not the nan origins
    try:
        defects[live] = pencil_defects(model, alphas[live])
    except ValueError:
        pass    # a model the upper-Hardy route refuses: no cell is resolved
    return ScanGrid(plane, (x0, x1, y0, y1), nx, ny, defects.reshape(ny, nx))


# ---------------------------------------------------------------------------
# real-root curve tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTrace:
    ts: np.ndarray
    points: np.ndarray              # 2 pi i xi(t): the 1/alpha-plane curve
    self_intersections: tuple       # complex points where the curve crosses itself

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,re,im\n")
            for t, p in zip(self.ts, self.points):
                p = complex(p)
                fh.write(f"{float(t)!r},{p.real!r},{p.imag!r}\n")


def _xi_eval(data, t):
    t = np.asarray(t, dtype=complex)
    out = np.zeros(t.shape, dtype=complex)
    for z, a in data:
        out = out + a / (z - t)
    return out


_PAIR_BLOCK = 1 << 16     # candidate segment pairs tested per numpy pass
_STENCIL = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


def _stencil_ranges(pts, cell, ws):
    """Key the points pts on square cells of side `cell` and look up the 3x3
    cells around the cell of each query point ws[q].

    Returns (order, lo, hi), lo and hi of shape (len(ws), 9): the points of
    stencil cell s are pts[order[lo[q, s]:hi[q, s]]].  Every point within
    `cell` of ws[q] on both axes, less the rounding of the keys, is among
    them.  The key of a query off the points' bounding box can wrap into
    another column of cells; that adds points but loses none.
    """
    x0, y0 = pts.real.min(), pts.imag.min()

    def cells(z):
        return (np.floor((z.real - x0) / cell).astype(np.int64),
                np.floor((z.imag - y0) / cell).astype(np.int64) + 1)

    kx, ky = cells(pts)
    stride = ky.max() + 2               # ky - 1 and ky + 1 stay in one column
    key = kx * stride + ky
    order = np.argsort(key)
    qx, qy = cells(ws)
    want = (qx * stride + qy)[:, None] + _STENCIL[:, 0] * stride + _STENCIL[:, 1]
    return (order, np.searchsorted(key[order], want, "left"),
            np.searchsorted(key[order], want, "right"))


def _any_within(pts, ws, r):
    """For each query point ws[q]: does some point of pts lie at distance
    below r[q] > 0 from it?

    The test np.abs(pts - ws[q]) < r[q] runs only on the points in the 3x3
    cells of side 1.001 max(r) around ws[q] (`_stencil_ranges`), which hold
    every point that can pass it, so the answer is the full scan's.
    """
    order, lo, hi = _stencil_ranges(pts, 1.001 * r.max(), ws)
    q = np.repeat(np.arange(len(ws)), (hi - lo).sum(axis=1))
    lo, cnt = lo.ravel(), (hi - lo).ravel()
    cand = order[np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
    near = np.zeros(len(ws), dtype=bool)
    near[q[np.abs(pts[cand] - ws[q]) < r[q]]] = True
    return near


def _segment_intersections(pts):
    """Transversal self-crossings of the polyline pts, in curve order.

    Segments are sorted into levels by length: level c holds those with
    Lmax/2^(c+1) < L <= Lmax/2^c (the last level also holds the shorter
    ones, so that no cell is below 2^-30 of the curve's extent).  On level c
    the midpoints of the segments of level c and above, none longer than
    Lmax/2^c, are keyed on square cells of side 1.001 Lmax/2^c.  Two
    crossing segments have their midpoints within half a segment each of
    the crossing, so on the level of the longer one they lie in the same or
    adjacent cells.  Each segment therefore meets the segments of its level
    and above in the 3x3 cells around its own, a pair of one level once
    (j > i); a long segment, such as a jump of the parametrization, costs
    only its own neighbourhood.  The candidate pairs with |i - j| > 1 are
    tested _PAIR_BLOCK at a time.  The hits come out sorted by segment pair
    (i, j), i < j, which is curve order; a hit within 1e-6 relative of an
    earlier one is dropped.
    """
    a = pts[:-1]
    r = pts[1:] - a
    n = len(a)
    if n < 3:
        return ()
    mids = a + r / 2
    lens = np.abs(r)
    top = lens.max() or 1.0
    span = max(np.ptp(mids.real), np.ptp(mids.imag), top)
    with np.errstate(divide="ignore"):
        level = np.minimum(np.floor(np.log2(top / lens)),
                           np.floor(np.log2(top / span)) + 30).astype(np.int64)
    # rows: (segment, first target, target count) over the 3x3 cells
    segs, los, cnts, targets = [], [], [], []
    for c in np.unique(level):
        # the 0.001 margin keeps the rounding of the keys from parting a
        # pair by two cells; with cells over 2^-30 of the span, keys fit
        tg = np.flatnonzero(level >= c)
        own = tg[level[tg] == c]
        order, lo, hi = _stencil_ranges(mids[tg], 1.001 * top / 2.0 ** c, mids[own])
        segs.append(np.repeat(own, len(_STENCIL)))
        los.append(lo.ravel() + sum(map(len, targets)))
        cnts.append((hi - lo).ravel())
        targets.append(tg[order])
    seg, lo, cnt, targets = map(np.concatenate, (segs, los, cnts, targets))
    cum = np.cumsum(cnt)
    codes, xs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for s in range(0, int(cum[-1]), _PAIR_BLOCK):
        k = np.arange(s, min(s + _PAIR_BLOCK, int(cum[-1])))
        row = np.searchsorted(cum, k, "right")
        i = seg[row]
        j = targets[lo[row] + k - (cum[row] - cnt[row])]
        keep = (level[j] > level[i]) | (j > i)
        i, j = np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])
        keep = j > i + 1
        i, j = i[keep], j[keep]
        # vectorized segment-crossing test, conj(.) the left factor: numpy's
        # complex product can round differently with its factors swapped,
        # and swaps them itself on large temporaries; in this order a pair
        # gives the same bits in a block of any size
        ri, rj = r[i], r[j]
        den = (np.conj(rj) * ri).imag
        ok = np.abs(den) > 1e-15
        i, j, ri, rj, den = i[ok], j[ok], ri[ok], rj[ok], den[ok]
        q = a[j] - a[i]
        t = (np.conj(rj) * q).imag / den
        u = (np.conj(ri) * q).imag / den
        hit = (t > 1e-9) & (t < 1 - 1e-9) & (u > 1e-9) & (u < 1 - 1e-9)
        codes.append(i[hit] * n + j[hit])
        xs.append(a[i][hit] + t[hit] * ri[hit])
    merged = []
    for p in np.concatenate(xs)[np.argsort(np.concatenate(codes))].tolist():
        if all(abs(p - q0) > 1e-6 * (1 + abs(p)) for q0 in merged):
            merged.append(complex(p))
    return tuple(merged)


def _certify_real_roots(pencil, ts, pts):
    """Check that at alpha = 1/w, for each curve point w = pts[k] != 0, the
    pencil's continued determinant has a root within REAL_BAND of the axis.

    The numerator p = P + 2 pi i alpha Q is monic of degree n, and
    p'/p = sum_j 1/(t - r_j) over its roots, so some root has
    |t - r_j| <= n |p(t)|/|p'(t)|, and for real t = ts[k] its imaginary part
    is at most that.  p and p' come from one Horner pass over all points,
    with the rounding floors gamma sum |c_j| |t|^j and
    gamma sum j |c_j| |t|^(j-1), gamma = 4 (n + 1) eps; a point is certified
    when n (|p| + floor) < REAL_BAND (|p'| - floor').  Only the points this
    bound does not certify go to the eigenvalues of the pencil
    (`pencil_roots`); a point with no root within REAL_BAND there raises
    RuntimeError.
    """
    at = np.abs(pts) >= 1e-9        # the origin is alpha = infinity
    ts, pts = ts[at], pts[at]
    c = pencil.P[:-1] + 2j * PI * (1.0 / pts)[:, None] * pencil.Q
    n = c.shape[1]
    p, dp = np.ones(len(ts), dtype=complex), np.zeros(len(ts), dtype=complex)
    ap, adp = np.ones(len(ts)), np.zeros(len(ts))
    abs_t = np.abs(ts)
    for cj in c.T[::-1]:
        dp = dp * ts + p
        p = p * ts + cj
        adp = adp * abs_t + ap
        ap = ap * abs_t + np.abs(cj)
    gamma = 4 * (n + 1) * np.finfo(float).eps
    bound_ok = n * (np.abs(p) + gamma * ap) < REAL_BAND * (np.abs(dp) - gamma * adp)
    rest = np.flatnonzero(~bound_ok)
    if rest.size:
        roots = pencil_roots(pencil, 1.0 / pts[rest])
        failed = rest[np.min(np.abs(roots.imag), axis=1, initial=np.inf) > REAL_BAND]
        if failed.size:
            raise RuntimeError(f"curve point at t={ts[failed[0]]} failed "
                               f"real-root certification")


_REFINE_ROUNDS = 3        # grid refinements where consecutive points jump


def trace_real_root_curve(model, halfwidth=60.0, n=2001):
    """Trace the 1/alpha-plane curve along which the continued determinant
    acquires a real root.

    The curve is 2 pi i xi(t) for t real, xi(t) = sum a_k/(z_k - t) over
    the terms of one `alpha_pencil`; the grid is refined where consecutive
    points jump, and every kept sample is certified on that pencil
    (`_certify_real_roots`): a Newton inclusion bound at its t, or failing
    that the eigenvalues, must put a root of the determinant numerator at
    the matching alpha within REAL_BAND of the axis, or RuntimeError is
    raised.
    """
    pencil = alpha_pencil(model)
    data = [(z, a) for z, _, a in pencil.live()]
    ts = np.linspace(-halfwidth, halfwidth, n)
    for _ in range(_REFINE_ROUNDS):
        pts = 2j * PI * _xi_eval(data, ts)
        gaps = np.abs(np.diff(pts))
        med = np.median(gaps)
        big = np.nonzero(gaps > 4 * med)[0]
        if big.size == 0:
            break
        extra = ts[big, None] + np.arange(1, 5) * ((ts[big + 1] - ts[big]) / 5)[:, None]
        ts = np.sort(np.concatenate([ts, extra.ravel()]))
    pts = 2j * PI * _xi_eval(data, ts)
    _certify_real_roots(pencil, ts, pts)
    return CurveTrace(ts, pts, _segment_intersections(pts))


# ---------------------------------------------------------------------------
# component maps and the four-pole petal figure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentMap:
    bounds: tuple
    nx: int
    ny: int
    labels: np.ndarray          # component id per cell, -1 on the curve band

    def label_at(self, w):
        x0, x1, y0, y1 = self.bounds
        i = int(round((w.real - x0) / (x1 - x0) * (self.nx - 1)))
        j = int(round((w.imag - y0) / (y1 - y0) * (self.ny - 1)))
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            return 0            # convention: the far field is component 0
        return int(self.labels[j, i])


def _label_runs(free):
    """Labels of the 4-connected components of the True cells of the 2-D
    bool array free, -1 elsewhere.

    The free cells of each row form runs; runs in adjacent rows whose columns
    overlap are joined by union-find, each set rooted at its first run.
    Components are numbered by their first cell in row-major order.
    """
    ny, nx = free.shape
    edge = np.diff(np.pad(free.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(edge == 1)
    stops = np.nonzero(edge == -1)[1]          # one past each run's last cell
    # the runs of the row above that overlap a run: from the first one that
    # stops after the run starts to the last one that starts before it stops
    above = (rows - 1) * nx
    lo = np.searchsorted(rows * nx + stops, above + starts, "right")
    hi = np.searchsorted(rows * nx + starts, above + stops, "left")
    cnt = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(len(rows)), cnt)
    upper = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)

    parent = list(range(len(rows)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, b in zip(upper.tolist(), below.tolist()):
        ru, rb = find(u), find(b)
        if ru != rb:
            parent[max(ru, rb)] = min(ru, rb)
    _, comp = np.unique([find(x) for x in range(len(rows))], return_inverse=True)
    labels = np.full((ny, nx), -1, dtype=int)
    labels[free] = np.repeat(comp, stops - starts)
    return labels


def component_map(points, bounds=None, nx=241, ny=241):
    """Label the complement of a closed curve family on a raster grid.

    The polyline is densified to steps of at most half a cell and rasterized
    with one cell of dilation (label -1).  The remaining cells are labeled
    by their 4-connected component (`_label_runs`: row runs joined by
    union-find), numbered by each component's first cell in row-major
    order, so the far-field component, which holds cell (0, 0) when that
    cell is off the curve, is 0.
    """
    if bounds is None:
        cx = (points.real.min() + points.real.max()) / 2
        cy = (points.imag.min() + points.imag.max()) / 2
        hx = (points.real.max() - points.real.min()) / 2 * _MAP_PAD
        hy = (points.imag.max() - points.imag.min()) / 2 * _MAP_PAD
        h = max(hx, hy, 1e-6)
        bounds = (cx - h, cx + h, cy - h, cy + h)
    x0, x1, y0, y1 = bounds
    # densify the polyline so rasterization leaves no pinholes: k + 1 points
    # a + (b - a) m/k on each segment longer than half a cell
    step = max((x1 - x0) / nx, (y1 - y0) / ny)
    a, r = points[:-1], np.diff(points)
    long_ = np.flatnonzero(np.abs(r) > step / 2)
    k = (np.abs(r[long_]) / (step / 2)).astype(int) + 1
    seg = np.repeat(long_, k + 1)
    m = np.arange(len(seg)) - np.repeat(np.cumsum(k + 1) - (k + 1), k + 1)
    kk = np.repeat(k, k + 1)
    frac = np.where(m == kk, 1.0, m * (1.0 / kk))   # as np.linspace(0, 1, k + 1)
    dense = np.concatenate([points, a[seg] + r[seg] * frac])
    ii = np.clip(((dense.real - x0) / (x1 - x0) * (nx - 1)).round().astype(int), 0, nx - 1)
    jj = np.clip(((dense.imag - y0) / (y1 - y0) * (ny - 1)).round().astype(int), 0, ny - 1)
    curve = np.zeros((ny, nx), dtype=bool)
    curve[jj, ii] = True
    curve[np.clip(jj + 1, 0, ny - 1), ii] = True
    curve[np.clip(jj - 1, 0, ny - 1), ii] = True
    curve[jj, np.clip(ii + 1, 0, nx - 1)] = True
    curve[jj, np.clip(ii - 1, 0, nx - 1)] = True
    return ComponentMap(bounds, nx, ny, _label_runs(~curve))


FIG_LAMS = (0.0, 1.0, -2.0)
FIG_ZS = (-1j, 1 - 1j, -2 - 1j, 3 - 2j)
FIG_A_LAST = 1.0
FIG_RASTER = 221          # cells per side of the component map
FIG_CROSSINGS = 100       # sampled curve crossings


def petal_figure_model():
    """Four-pole model whose real-root curve has the real zeros FIG_LAMS.

    xi has its poles at FIG_ZS and its last residue FIG_A_LAST; the other
    residues a_k are solved from the linear system xi(lam_j) = 0.  The model
    realizes them with phibar = 1/(x - i), so c_k = a_k (z_k - i).
    """
    zs = [complex(z) for z in FIG_ZS]
    lams = [complex(l) for l in FIG_LAMS]
    Z = np.array([[1.0 / (zk - lj) for zk in zs[:-1]] for lj in lams])
    rhs = np.array([-FIG_A_LAST / (zs[-1] - lj) for lj in lams])
    avals = np.concatenate([np.linalg.solve(Z, rhs), [FIG_A_LAST]])
    phi = RatFun.simple_pole(-1j)               # phibar = 1/(x - i)
    psi = RatFun.zero()
    for z, a in zip(zs, avals):
        psi = psi + RatFun.simple_pole(z, a * (z - 1j))
    return FriedrichsModel(phi, psi, 0.0), avals


def _band_distance(band):
    """City-block distance from each cell of the 2-D bool array band to the
    nearest True cell, inf when there is none.

    This is the distance transform of Rosenfeld & Pfaltz (J. ACM 13, 1966),
    taken one axis at a time: along an axis with index k, the distance is
    the smaller of k + (running minimum of d - k) and its mirror image.  A
    cell at distance d survives d - 1 erosions of the cells off the band by
    the 4-neighbour cross, cells off the array counting as off the band.
    """
    d = np.where(band, 0.0, np.inf)
    for axis in (1, 0):
        k = np.expand_dims(np.arange(d.shape[axis], dtype=float), 1 - axis)
        fwd = k + np.minimum.accumulate(d - k, axis=axis)
        bwd = np.flip(np.minimum.accumulate(np.flip(d + k, axis), axis=axis), axis) - k
        d = np.minimum(fwd, bwd)
    return d


def figure2_pipeline(rng_seed=7):
    """Defect map of the built-in four-pole petal curve in the 1/alpha plane.

    Returns a report dict with the traced curve, the component labels, the
    per-component defect (pole count minus lower root count), and the sampled
    curve-crossing checks.

    Each component is probed at its deepest cell: the one that survives the
    most 4-neighbour erosions of the cells off the curve band, which is the
    one farthest from the band in city-block distance (`_band_distance`),
    the first in row-major order among equals.  The crossing checks draw
    20 FIG_CROSSINGS curve samples w in one call, put a point
    eps = 0.02 (1 + |w|) off w on each side along the normal, and keep the
    first FIG_CROSSINGS samples whose two points have no curve point within
    eps/2 (`_any_within`, an exact test); across the curve the defect must
    change by exactly 1.
    """
    model, avals = petal_figure_model()
    trace = trace_real_root_curve(model, halfwidth=80.0, n=3001)
    cmap = component_map(trace.points, nx=FIG_RASTER, ny=FIG_RASTER)

    # probe each component at its deepest cell: lexsort is stable, so it
    # orders the cells by label, then from the deepest, then in row-major
    # order
    labels = cmap.labels.ravel()
    order = np.lexsort((-_band_distance(cmap.labels < 0).ravel(), labels))
    labs, first, cells = np.unique(labels[order], return_index=True,
                                   return_counts=True)
    comp = labs >= 0                    # -1 is the curve band
    j, i = np.divmod(order[first[comp]], cmap.nx)
    xs = np.linspace(cmap.bounds[0], cmap.bounds[1], cmap.nx)
    ys = np.linspace(cmap.bounds[2], cmap.bounds[3], cmap.ny)
    probe_defects = pencil_defects(model, 1.0 / (xs[i] + 1j * ys[j]))
    comp_defect = {int(lab): int(d) for lab, d in zip(labs[comp], probe_defects)}
    counts = {int(lab): int(n) for lab, n in zip(labs[comp], cells[comp])}

    # crossing samples: defect jumps by exactly 1 across the curve.  One
    # sized draw gives the integers of as many scalar draws; np.hypot rounds
    # as the scalar abs(), which np.abs of a complex array need not
    pts, ts = trace.points, trace.ts
    rng = np.random.default_rng(rng_seed)
    i = rng.integers(1, len(ts) - 2, size=20 * FIG_CROSSINGS)
    tangent = pts[i + 1] - pts[i - 1]
    tlen = np.hypot(tangent.real, tangent.imag)
    size = np.hypot(pts[i].real, pts[i].imag)
    ok = (tlen >= 1e-12) & (size >= 0.5)
    i, tangent, tlen, size = i[ok], tangent[ok], tlen[ok], size[ok]
    normal = 1j * tangent / tlen
    eps = 0.02 * (1 + size)
    ws = np.stack([pts[i] + eps * normal, pts[i] - eps * normal], axis=1)
    # too close to another curve strand: not a clean crossing
    near = _any_within(pts, ws.ravel(), np.repeat(0.5 * eps, 2)).reshape(-1, 2)
    keep = np.flatnonzero(~near.any(axis=1))[:FIG_CROSSINGS]
    side_defects = pencil_defects(model, 1.0 / ws[keep].ravel()).reshape(-1, 2)
    crossings = [(t, int(da), int(db))
                 for t, (da, db) in zip(ts[i[keep]], side_defects)]

    report = {
        "a_values": [_c_enc(a) for a in avals],
        "components": {str(k): {"defect": v, "cells": counts[k]}
                       for k, v in comp_defect.items()},
        "far_field_defect": comp_defect[0],
        "self_intersections": [_c_enc(p) for p in trace.self_intersections],
        "crossings": [{"t": float(t), "defects": [da, db]}
                      for t, da, db in crossings],
        "crossings_ok": all(abs(da - db) == 1 for _, da, db in crossings),
    }
    return report, trace, cmap


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _draw_l2(rng, deg, min_sep=0.0, half=0):
    while True:
        locs = []
        for _ in range(deg):
            sgn = half if half else (1 if rng.random() < 0.5 else -1)
            z = complex(rng.uniform(-2, 2), (_DRAW_MIN_IM + rng.uniform(0, 2)) * sgn)
            locs.append(z)
        if min_sep and any(abs(a - b) < min_sep
                           for i, a in enumerate(locs) for b in locs[:i]):
            continue
        break
    num = Poly(rng.normal(size=deg) + 1j * rng.normal(size=deg)) if deg > 1 \
        else Poly([complex(rng.normal(), rng.normal())])
    den = Poly(np.array([1.0]))
    for z in locs:
        den = den * Poly([-z, 1.0])
    # min_sep guarantees distinct poles, so pass the known roots through
    return RatFun(num, den, den_roots=[(z, 1) for z in locs])


def run_verify_suite(seed=0, count=1000, tol=1e-8):
    """Randomized residual suite over the exact-identity verifiers.

    Draws `count` random rational models, cycling through the identity
    families (one check per model so the suite stays fast at count=1000);
    reports the max residual per kind and a reproducible digest.
    """
    rng = np.random.default_rng(seed)
    kinds = ("green", "resolvent", "krein", "aronszajn", "fund", "sdiff",
             "continuation")
    worst = {k: 0.0 for k in kinds}
    for i in range(count):
        kind = kinds[i % len(kinds)]
        dphi, dpsi = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if kind == "continuation":
            # this check needs the half-plane-split model class; it compares a
            # partial-fraction route against direct evaluation, so keep the
            # degree low enough that the split's conditioning stays below tol
            phi = _draw_l2(rng, min(dphi, 3), min_sep=0.3, half=+1)
            psi = _draw_l2(rng, min(dpsi, 3), min_sep=0.3, half=-1)
        else:
            phi = _draw_l2(rng, dphi, min_sep=0.3)
            psi = _draw_l2(rng, dpsi, min_sep=0.3)
        B = complex(rng.normal(), rng.normal())
        model = FriedrichsModel(phi, psi, B)
        ims = 0.3 + rng.uniform(0, 1.5, size=3)
        sgs = np.where(rng.random(size=3) < 0.5, 1.0, -1.0)
        if kind == "continuation":
            sgs = np.array([1.0, -1.0, 1.0])   # lam in C+, mu in C-, mu_t in C+
            ims = ims + 0.4                    # keep lam clear of the pole rows
        lam, mu, mu_t = (complex(rng.uniform(-2, 2), im * sg)
                         for im, sg in zip(ims, sgs))
        try:
            if kind == "green":
                r = verify_identity("green", model,
                                    u=_draw_l2(rng, 2, min_sep=0.4),
                                    v=_draw_l2(rng, 2, min_sep=0.4))
            elif kind == "resolvent":
                r = verify_identity("resolvent", model, lam=lam,
                                    g=_draw_l2(rng, int(rng.integers(1, 3))))
            elif kind == "krein":
                r = verify_identity("krein", model,
                                    C=complex(rng.normal(), rng.normal()),
                                    lam=lam, g=_draw_l2(rng, int(rng.integers(1, 3))))
            elif kind == "aronszajn":
                r = verify_identity("aronszajn", model,
                                    C=complex(rng.normal(), rng.normal()), lam=lam)
            elif kind == "fund":
                r = verify_identity("fund", model, lam=lam, mu=mu, mu_t=mu_t)
            elif kind == "sdiff":
                r = verify_identity("sdiff", model, lam=lam, lam0=mu)
            else:
                r = verify_identity("continuation", model, lam=lam, mu=mu,
                                    mu_t=mu_t)
        except (ValueError, RuntimeError):
            continue   # degenerate draw (eigenvalue hit, D-zero); skip
        worst[kind] = max(worst[kind], float(r))
    passed = all(r < tol for r in worst.values())
    payload = {"seed": seed, "count": count, "tol": tol,
               "residuals": {k: f"{worst[k]:.6e}" for k in kinds},
               "passed": passed,
               "failed_kinds": sorted(k for k, r in worst.items() if r >= tol)}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    payload["hash"] = digest
    return payload


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def _parse_grid(s):
    parts = s.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("grid must be x0,x1,y0,y1,nx,ny")
    return (float(parts[0]), float(parts[1]), float(parts[2]),
            float(parts[3]), int(parts[4]), int(parts[5]))


def _parse_complex(s):
    re, im = s.split(",")
    return complex(float(re), float(im))


def _emit(obj, out):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser():
    p = argparse.ArgumentParser(prog="fmlab",
                                description="rank-one Friedrichs model laboratory")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True)
        sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run the randomized identity suite")
    common(sp, model=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--count", type=int, default=200)

    sp = sub.add_parser("mfun", help="M-function values on a grid")
    common(sp)
    sp.add_argument("--grid", type=_parse_grid, required=True)

    sp = sub.add_parser("resolvent", help="apply the resolvent to rational data")
    common(sp)
    sp.add_argument("--at", type=_parse_complex, required=True)
    sp.add_argument("--data", required=True, help="JSON file with the rational g")

    sp = sub.add_parser("defect", help="defect report for a model")
    common(sp)
    sp.add_argument("--alpha", type=_parse_complex, default=complex(1.0))

    sp = sub.add_parser("scan", help="defect scan over a parameter plane")
    common(sp)
    sp.add_argument("--grid", type=_parse_grid, required=True)
    sp.add_argument("--plane", choices=PLANES, default="ALPHA")

    sp = sub.add_parser("curve", help="trace the real-root curve")
    common(sp)

    sp = sub.add_parser("figure2", help="built-in four-pole petal pipeline")
    common(sp, model=False)

    sp = sub.add_parser("recon", help="restricted-resolvent recovery round trip")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    verb = args.verb

    if verb == "verify":
        rep = run_verify_suite(seed=args.seed, count=args.count, tol=args.tol)
        _emit(rep, args.out)
        return 0 if rep["passed"] else 1

    if verb == "mfun":
        model = _load_model(args.model)
        x0, x1, y0, y1, nx, ny = args.grid
        rows = []
        ok = True
        for y in np.linspace(y0, y1, ny):
            for x in np.linspace(x0, x1, nx):
                try:
                    mv = m_function(model, complex(x, y))
                except ValueError:     # the real band, D = 0, a pole at lam
                    rows.append((x, y, "", "", UNRESOLVED))
                    ok = False
                    continue
                if mv.infinite:
                    rows.append((x, y, "", "", "EIGENVALUE"))
                else:
                    rows.append((x, y, repr(mv.M.real), repr(mv.M.imag), OK))
        out = args.out or "mfun.csv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("re,im,m_re,m_im,flag\n")
            for r in rows:
                fh.write(",".join(str(c) for c in r) + "\n")
        return 0 if ok else 1

    if verb == "resolvent":
        model = _load_model(args.model)
        with open(args.data, encoding="utf-8") as fh:
            g = rat_from_json(json.load(fh))
        el = apply_resolvent(model, args.at, g)
        _emit({"f": rat_to_json(el.f), "c": _c_enc(el.c),
               "gamma1": _c_enc(el.gamma1), "gamma2": _c_enc(el.gamma2)},
              args.out)
        return 0

    if verb == "defect":
        model = _load_model(args.model)
        rep = defect_hardy_plus(cauchy_kernel_model(model, args.alpha))
        _emit(rep.as_dict(), args.out)
        return 0

    if verb == "scan":
        model = _load_model(args.model)
        sg = scan_defect_grid(model, args.grid, plane=args.plane)
        sg.write_csv(args.out or "scan.csv")
        return 0 if not (sg.flags == UNRESOLVED).all() else 1

    if verb == "curve":
        model = _load_model(args.model)
        trace = trace_real_root_curve(model)
        trace.write_csv(args.out or "curve.csv")
        return 0

    if verb == "figure2":
        rep, _, _ = figure2_pipeline()
        _emit(rep, args.out)
        return 0 if rep["crossings_ok"] and rep["far_field_defect"] == 0 else 1

    if verb == "recon":
        model = _load_model(args.model)
        try:
            res = recover_from_restricted_resolvent(ResolventOracle(model))
        except ReconError as exc:
            print(f"fmlab recon: {exc}", file=sys.stderr)
            return 1
        errs = [abs(m - m_function(model, lam).M)
                for lam, m in zip(res.lams, res.m_values)]
        rep = res.as_dict()
        rep["m_round_trip_error"] = f"{max(errs):.6e}"
        _emit(rep, args.out)
        return 0 if max(errs) < args.tol else 1

    raise AssertionError(verb)


if __name__ == "__main__":
    sys.exit(main())
