"""Scanner, curve-tracer, figure pipeline, verification suite, and CLI tests."""
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmlab.ratfun import (REAL_BAND, Poly, RatFun, conj_reflect,
                          partial_fractions, poly_from_roots)
from fmlab.hardy import PiecewiseFun
from fmlab.friedrichs import FriedrichsModel, apply_resolvent, m_function
from fmlab.detect import (alpha_pencil, continuation_terms, d_plus,
                          defect_hardy_plus, pencil_defects, pencil_roots)
from fmlab import scancli
from fmlab.scancli import (
    FIG_CROSSINGS, ComponentMap, CurveTrace, ScanGrid, _any_within,
    _band_distance, _certify_real_roots, _label_runs, _segment_intersections,
    _xi_eval, component_map, figure2_pipeline, main, model_from_json, model_to_json,
    petal_figure_model, piecewise_from_json, piecewise_to_json,
    rat_from_json, rat_to_json, run_verify_suite, scan_defect_grid,
    trace_real_root_curve,
)

PI = np.pi


def petal_scan_model():
    # psi with a zero at each prescribed real point when alpha sits on the
    # boundary parabola of the mu-hat plane
    phi = RatFun.simple_pole(-1j)
    psi = RatFun.simple_pole(-1j, -2.0) + RatFun.simple_pole(-2j, 3.0)
    return FriedrichsModel(phi, psi, 0.0)


def one_pole_model(a=0.7 + 0.4j):
    return FriedrichsModel(RatFun.simple_pole(-1j),
                           RatFun.simple_pole(-1j, a), 0.0)


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def test_rational_codec_round_trip():
    f = RatFun(Poly([1.0, 2.0 - 1.0j, 0.5j]),
               poly_from_roots([1j, -2 + 1.5j, 0.3 - 0.4j]))
    d = rat_to_json(f)
    assert all(isinstance(c, list) and len(c) == 2 for c in d["num"])
    g = rat_from_json(json.loads(json.dumps(d)))
    xs = np.linspace(-3, 3, 11)
    assert np.max(np.abs(f(xs) - g(xs))) < 1e-14


def test_piecewise_codec_round_trip():
    pieces = (PiecewiseFun.indicator(0.0, 1.0).pieces
              + PiecewiseFun.restriction(RatFun.simple_pole(2j), 4.0, 5.0).pieces
              + PiecewiseFun.reciprocal_cauchy((0.0, 1.0), (2.0, 3.0)).pieces)
    pw = PiecewiseFun(pieces)
    back = piecewise_from_json(json.loads(json.dumps(piecewise_to_json(pw))))
    for x in (0.25, 0.8, 4.3, 4.9, 2.2, 2.75):
        assert abs(complex(pw(x)) - complex(back(x))) < 1e-12


def test_piecewise_codec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown piece kind"):
        piecewise_from_json([{"interval": [0, 1], "kind": "spline", "payload": None}])


def test_model_codec_round_trip():
    model = FriedrichsModel(RatFun.simple_pole(2j),
                            RatFun.simple_pole(-1.5j, 1 + 1j), 0.3 - 0.2j)
    d = model_to_json(model)
    assert set(d) == {"phi", "psi", "B"} and d["B"] == [0.3, -0.2]
    back = model_from_json(json.loads(json.dumps(d)))
    for lam in (0.5 + 1j, -1 - 0.8j, 2 + 0.3j):
        assert abs(m_function(model, lam).M - m_function(back, lam).M) < 1e-13


# ---------------------------------------------------------------------------
# defect scans
# ---------------------------------------------------------------------------

def in_parabola(mh):
    return mh.imag ** 2 <= 0.5 * (1 + 3 * mh.real)


def test_scan_muhat_plane_matches_parabola():
    sg = scan_defect_grid(petal_scan_model(), (-2, 2, -2, 2, 21, 21),
                          plane="MU_HAT", conv=-6.0)
    assert int((sg.defects < 0).sum()) == 0
    xs, ys = sg.cell_centers()
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            mh = complex(x, y)
            if abs(mh.imag ** 2 - 0.5 * (1 + 3 * mh.real)) < 0.3:
                continue    # boundary band: either side acceptable
            assert sg.defects[j, i] == (0 if in_parabola(mh) else 1)


def test_scan_conjugation_symmetry():
    sg = scan_defect_grid(petal_scan_model(), (-2, 2, -2, 2, 15, 15),
                          plane="MU_HAT", conv=-6.0)
    assert np.array_equal(sg.defects, sg.defects[::-1, :])


def test_scan_alpha_zero_cell_is_trivial():
    sg = scan_defect_grid(petal_scan_model(), (-1, 1, -1, 1, 3, 3),
                          plane="ALPHA")
    # centre cell has alpha = 0: psi degenerates, everything detectable
    assert sg.defects[1, 1] == 0 and sg.flags[1, 1] == "OK"


def test_scan_mu_plane_origin_unresolved(tmp_path):
    sg = scan_defect_grid(petal_scan_model(), (-1, 1, -1, 1, 3, 3), plane="MU")
    assert sg.flags[1, 1] == "UNRESOLVED" and sg.defects[1, 1] == -1
    path = tmp_path / "mu.csv"
    sg.write_csv(path)
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "re,im,defect,flag"
    middle = lines[1 + 3 + 1]          # row j=1, i=1
    assert middle == "0.0,0.0,,UNRESOLVED"


def test_scan_csv_format(tmp_path):
    sg = scan_defect_grid(petal_scan_model(), (-2, 2, -2, 2, 5, 4),
                          plane="MU_HAT", conv=-6.0)
    path = tmp_path / "s.csv"
    sg.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw and b"np." not in raw
    lines = raw.decode().strip().split("\n")
    assert len(lines) == 1 + 5 * 4
    x, y, d, flag = lines[1].split(",")
    float(x), float(y), int(d)
    assert flag in ("OK", "UNRESOLVED")


def test_scan_repeated_run_gives_same_bytes(tmp_path):
    model = petal_scan_model()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    scan_defect_grid(model, (-2, 2, -2, 2, 9, 9), plane="MU_HAT",
                     conv=-6.0).write_csv(p1)
    scan_defect_grid(model, (-2, 2, -2, 2, 9, 9), plane="MU_HAT",
                     conv=-6.0).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def m0_model(shift=0.0):
    # phibar = (x + 2i - shift)/((x - i)(x - 3i)) vanishes at the psi pole
    # -2i, or for a small shift nearly so: a root then hugs that pole
    phi = RatFun(Poly([-2j - shift, 1.0]), poly_from_roots([-1j, -3j]))
    return FriedrichsModel(phi, RatFun.simple_pole(-2j) + RatFun.simple_pole(-1j), 0.0)


def phibar_zero_model():
    # phibar = (x - zeta)/((x - i)(x - 2i)) has the lower zero zeta, and at
    # alpha = ALPHA_AT_ZERO the one continuation root sits on it
    zeta, z1 = -0.5 - 0.7j, -1 - 1j
    phi = RatFun(Poly([-np.conj(zeta), 1.0]), poly_from_roots([-1j, -2j]))
    model = FriedrichsModel(phi, RatFun.simple_pole(z1), 0.0)
    phibar_z1 = (z1 - zeta) / ((z1 - 1j) * (z1 - 2j))
    return model, -(zeta - z1) / (2j * PI * phibar_z1)


PHIBAR_ZERO_MODEL, ALPHA_AT_ZERO = phibar_zero_model()
# m0_model(): phibar'(-2i) = -1/15 and D_plus without its -2i term is
# 1 + 2 pi i alpha/8 there, so at this alpha the M0 limit is exactly 1
M0_UNIT_ALPHA = 60j / (23 * PI)


def upper_phi_model():
    psi = RatFun.simple_pole(-1j, -2.0) + RatFun.simple_pole(-2j, 3.0)
    return FriedrichsModel(RatFun.simple_pole(1j), psi, 0.0)


def division_defect(model):
    """(defect, degenerate) of the upper-Hardy route by RatFun division.

    The per-cell route of earlier versions, kept as an oracle: the poles of
    phibar/D_plus (found, merged and cancelled by ratfun's division) are
    classed one by one, with the same thresholds as `detect`.
    """
    for f in (model.phi, model.psi):
        if any(p.half_plane != "LOWER" for p in f.poles):
            raise ValueError("data must have all poles below the axis")
    terms, _ = partial_fractions(model.psi)
    if any(k > 1 for _, k, _ in terms):
        raise ValueError("psi must have simple poles only")
    pole_data = [(z, c) for z, _, c in terms if abs(c) > 1e-13]
    zs = [z for z, _ in pole_data]
    if len(set(np.round(np.array(zs, dtype=complex), 9))) != len(zs):
        raise ValueError("psi poles must be distinct")
    phibar, dp = conj_reflect(model.phi), d_plus(model)
    P = M = 0
    for p in (phibar / dp).poles:
        if p.half_plane == "REAL":
            M += p.order
        elif p.half_plane == "LOWER" and all(
                abs(p.location - z) > 1e-8 * (1 + abs(z)) for z in zs):
            P += p.order
    M0 = 0
    n, d = phibar.num, phibar.den
    for z, c in pole_data:
        if abs(phibar(z)) <= 1e-10:
            deriv = (n.deriv()(z) * d(z) - n(z) * d.deriv()(z)) / d(z) ** 2
            M0 += abs(2j * PI * c * deriv / complex(dp(z)) - 1.0) > 1e-8
    defect = len(pole_data) - P - M - M0
    if defect < 0:
        raise RuntimeError("negative defect")
    return defect, M > 0


def cell_alpha(plane, w, conv):
    """alpha at the scan cell w, or None at the origin of a reciprocal plane."""
    if plane in ("ALPHA", "MU_HAT"):
        return w if plane == "ALPHA" else w * conv / (2j * PI)
    if abs(w) < 1e-12:
        return None
    return 1.0 / w if plane == "INV_ALPHA" else 1.0 / (2j * PI * w)


def reference_defect(model, plane, w, conv):
    """(defect, flag) of one scan cell by `division_defect` of the scaled model."""
    alpha = cell_alpha(plane, w, complex(conv))
    if alpha is None:
        return -1, "UNRESOLVED"
    if abs(alpha) < 1e-14:
        return 0, "OK"      # psi degenerates to zero: everything detectable
    try:
        defect, degenerate = division_defect(
            FriedrichsModel(model.phi, model.psi * alpha, model.B))
    except (ValueError, RuntimeError):
        return -1, "UNRESOLVED"
    return (-1, "UNRESOLVED") if degenerate else (defect, "OK")


def mpmath_defect(model, alpha, dps=50):
    """N minus the lower roots of P + 2 pi i alpha Q, by mpmath.polyroots."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        terms = [(mp.mpc(z), mp.mpc(a)) for z, a in continuation_terms(model)]
        alpha = mp.mpc(alpha)
        poly = [mp.mpc(1)]             # descending coefficients
        for z, _ in terms:
            poly = [x - z * y for x, y in zip(poly + [0], [0] + poly)]
        for k, (_, a) in enumerate(terms):
            q = [mp.mpc(1)]
            for z, _ in terms[:k] + terms[k + 1:]:
                q = [x - z * y for x, y in zip(q + [0], [0] + q)]
            for j, v in enumerate(q):
                poly[j + 1] += 2j * mp.pi * alpha * a * v
        roots = mp.polyroots(poly, maxsteps=200, extraprec=2 * dps)
        assert all(abs(r.imag) > REAL_BAND for r in roots)
        return len(terms) - sum(1 for r in roots if r.imag < 0)


@pytest.mark.parametrize("model, grid, plane, conv", [
    (petal_scan_model(), (-1, 1, -1, 1, 41, 41), "MU", 1.0),
    # |alpha| ~ 1e11: ratfun's trim drops the top coefficient per cell
    (petal_scan_model(), (-1e-11, 1e-11, -1e-11, 1e-11, 5, 5), "INV_ALPHA", 1.0),
    (petal_scan_model(), (-2, 2, -2, 2, 21, 21), "ALPHA", 1.0),
    (one_pole_model(1.0), (0, 0, 0, 2 / PI, 1, 3), "ALPHA", 1.0),
    # a small phibar keeps the root within the clustering radius of the pole
    (FriedrichsModel(RatFun.simple_pole(-1j, 1e-3), RatFun.simple_pole(-1j), 0.0),
     (2e-7, 2e-7, 0, 0, 1, 1), "ALPHA", 1.0),
    (PHIBAR_ZERO_MODEL, (ALPHA_AT_ZERO.real, ALPHA_AT_ZERO.real,
                         ALPHA_AT_ZERO.imag, ALPHA_AT_ZERO.imag, 1, 1), "ALPHA", 1.0),
    (m0_model(), (-2, 2, -2, 2, 15, 15), "ALPHA", 1.0),
    (m0_model(1e-8), (-2, 2, -2, 2, 15, 15), "ALPHA", 1.0),
    (upper_phi_model(), (-2, 2, -2, 2, 9, 9), "MU_HAT", -6.0),
    # a psi pole whose residue is below the cut, and |alpha| ~ 1e-13, where
    # alpha times the other residue is below it in some cells only
    (FriedrichsModel(RatFun.simple_pole(-1j),
                     RatFun.simple_pole(-1j) + RatFun.simple_pole(-2j, 1e-14), 0.0),
     (-1.2e-13, 1.2e-13, -1.2e-13, 1.2e-13, 7, 7), "ALPHA", 1.0),
    (m0_model(), (0, 0, M0_UNIT_ALPHA.imag, M0_UNIT_ALPHA.imag, 1, 1), "ALPHA", 1.0),
    # the same model at |alpha| from 7 to 150: the 1e-14 residue is live
    # from |alpha| = 10 on, so that pole counts in some cells only
    (FriedrichsModel(RatFun.simple_pole(-1j),
                     RatFun.simple_pole(-1j) + RatFun.simple_pole(-2j, 1e-14), 0.0),
     (-105, 105, -105, 105, 22, 22), "ALPHA", 1.0),
], ids=["mu-origin", "inv-alpha-near-origin", "alpha-origin", "real-root",
        "root-at-data-pole", "root-at-phibar-zero", "m0", "near-m0", "upper-phi",
        "negligible-residue", "m0-unit-limit", "negligible-residue-large"])
def test_scan_matches_per_cell_defects(model, grid, plane, conv):
    # the one classification of the grid against the per-cell division route;
    # at |alpha| > 1e10, where ratfun's trim fails that route, against a
    # 50-digit root count of the pencil
    sg = scan_defect_grid(model, grid, plane=plane, conv=conv)
    xs, ys = sg.cell_centers()
    ws = [complex(x, y) for y in ys for x in xs]
    alphas = [cell_alpha(plane, w, complex(conv)) for w in ws]
    far = [alpha is not None and abs(alpha) > 1e10 for alpha in alphas]
    got = list(zip(sg.defects.ravel().tolist(), sg.flags.ravel().tolist()))
    assert [g for g, f in zip(got, far) if not f] == [
        reference_defect(model, plane, w, conv) for w, f in zip(ws, far) if not f]
    assert all(flag == "OK" for (_, flag), f in zip(got, far) if f)
    if any(far):
        pytest.importorskip("mpmath")
        assert [d for (d, _), f in zip(got, far) if f] == [
            mpmath_defect(model, alpha) for alpha, f in zip(alphas, far) if f]


def test_near_m0_model_is_counted():
    # phibar(-2i) ~ 7e-13 for shift 1e-11: D_plus has a pole there with a tiny
    # residue, and the M0 limit takes D_plus without that term; within the
    # M0 tolerance the counts are those of the exact zero (shift 0)
    grid = (-2, 2, -2, 2, 15, 15)
    rep = defect_hardy_plus(m0_model(1e-11))
    assert (rep.N, rep.P, rep.M, rep.M0, rep.defect) == (2, 1, 0, 1, 0)
    exact = scan_defect_grid(m0_model(), grid, plane="ALPHA")
    for shift in (1e-13, 1e-11, 1e-9):
        sg = scan_defect_grid(m0_model(shift), grid, plane="ALPHA")
        assert np.array_equal(sg.defects, exact.defects)


def test_cli_defect_on_near_m0_model(tmp_path):
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(model_to_json(m0_model(1e-11))))
    out = tmp_path / "d.json"
    assert main(["defect", "--model", str(mp), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["defect"] == 0


def test_scan_falls_back_on_the_hard_cells():
    sg = scan_defect_grid(one_pole_model(1.0), (0, 0, 0, 2 / PI, 1, 3),
                          plane="ALPHA")
    # alpha = 0 is trivially detectable; alpha = i/pi puts the root on the axis
    assert sg.defects[:, 0].tolist() == [0, -1, 1]
    assert sg.flags[1, 0] == "UNRESOLVED"
    assert defect_hardy_plus(m0_model()).M0 == 1
    sg = scan_defect_grid(m0_model(), (1, 1, 0, 0, 1, 1), plane="ALPHA")
    assert sg.flags[0, 0] == "OK" and sg.defects[0, 0] == 0
    sg = scan_defect_grid(upper_phi_model(), (-2, 2, -2, 2, 4, 4),
                          plane="MU_HAT", conv=-6.0)
    assert (sg.flags == "UNRESOLVED").all()


def test_scan_rejects_unknown_plane():
    with pytest.raises(ValueError, match="plane"):
        scan_defect_grid(petal_scan_model(), (0, 1, 0, 1, 2, 2), plane="BETA")


# ---------------------------------------------------------------------------
# curve tracing
# ---------------------------------------------------------------------------

def test_petal_model_zeros_of_xi():
    model, avals = petal_figure_model()
    data = continuation_terms(model)
    # residues recovered from the model match the linear-system solution
    assert np.max(np.abs(np.array([a for _, a in data]) - avals)) < 1e-12
    for lam in (0.0, 1.0, -2.0):
        assert abs(_xi_eval(data, lam)) < 1e-12


def test_trace_points_are_curve_samples():
    model, _ = petal_figure_model()
    trace = trace_real_root_curve(model, halfwidth=40, n=801)
    data = continuation_terms(model)
    assert np.max(np.abs(trace.points - 2j * PI * _xi_eval(data, trace.ts))) < 1e-12


def test_trace_points_certify_as_real_roots():
    model, _ = petal_figure_model()
    trace = trace_real_root_curve(model, halfwidth=40, n=801)
    pts = trace.points[::37]
    roots = pencil_roots(alpha_pencil(model), 1.0 / pts[np.abs(pts) >= 1e-9])
    assert np.all(np.min(np.abs(roots.imag), axis=1) < REAL_BAND)


def test_certificate_takes_no_eigenvalues_on_the_petal_curve(monkeypatch, figure_run):
    # every figure2 point is certified by the Newton bound alone
    def refuse(*args):
        raise AssertionError("fell back to the pencil eigenvalues")

    _, trace, _ = figure_run
    monkeypatch.setattr(scancli, "pencil_roots", refuse)
    _certify_real_roots(petal_figure_model()[0], trace.ts, trace.points)


def test_certificate_falls_back_to_eigenvalues(monkeypatch):
    # at t shifted by 0.01 the bound is about 0.01 and certifies nothing,
    # but the roots at alpha = 1/w are still real: the fallback accepts all
    model, _ = petal_figure_model()
    trace = trace_real_root_curve(model, halfwidth=40, n=801)
    seen = []

    def spy(pencil, alphas):
        seen.append(len(alphas))
        return pencil_roots(pencil, alphas)

    monkeypatch.setattr(scancli, "pencil_roots", spy)
    _certify_real_roots(model, trace.ts + 0.01, trace.points)
    assert seen == [int(np.sum(np.abs(trace.points) >= 1e-9))]


def test_certificate_refuses_points_off_the_curve():
    model, _ = petal_figure_model()
    trace = trace_real_root_curve(model, halfwidth=40, n=801)
    with pytest.raises(RuntimeError, match="real-root certification"):
        _certify_real_roots(model, trace.ts, trace.points + 0.05j)


def all_pairs_crossings(pts):
    """Self-crossings of the polyline by the segment test over every pair of
    segments (i, j), j > i + 1, whose bounding boxes meet, in that order:
    the reference of the grid join in `_segment_intersections`."""
    a = pts[:-1]
    r = pts[1:] - a
    n = len(a)
    x0, x1 = np.minimum(a.real, pts[1:].real), np.maximum(a.real, pts[1:].real)
    y0, y1 = np.minimum(a.imag, pts[1:].imag), np.maximum(a.imag, pts[1:].imag)
    rows = max(1, (1 << 18) // n)
    found = []
    for i0 in range(0, n, rows):
        i = np.arange(i0, min(i0 + rows, n))[:, None]
        j = np.arange(n)
        i, j = np.nonzero((j > i + 1) & (x0[j] <= x1[i]) & (x0[i] <= x1[j])
                          & (y0[j] <= y1[i]) & (y0[i] <= y1[j]))
        i = i + i0
        ri, rj = r[i], r[j]
        den = (np.conj(rj) * ri).imag
        ok = np.abs(den) > 1e-15
        i, j, ri, rj, den = i[ok], j[ok], ri[ok], rj[ok], den[ok]
        q = a[j] - a[i]
        t = (np.conj(rj) * q).imag / den
        u = (np.conj(ri) * q).imag / den
        hit = (t > 1e-9) & (t < 1 - 1e-9) & (u > 1e-9) & (u < 1 - 1e-9)
        found.extend((a[i][hit] + t[hit] * ri[hit]).tolist())
    merged = []
    for p in found:
        if all(abs(p - q0) > 1e-6 * (1 + abs(p)) for q0 in merged):
            merged.append(complex(p))
    return tuple(merged)


@pytest.mark.parametrize("y", [0.5013, 0.2987])
def test_segment_intersections_find_every_crossing(y):
    # a vertical strand x = c, a jump to 0 and a horizontal strand y: the
    # strands cross at c + iy, and the diagonal back to 0 crosses the
    # horizontal one at c y + iy; a finder keyed on a grid finer than the
    # strands' segments, or pairing neighbour cells one way only, misses some
    s = np.linspace(0, 1, 201)
    for c in np.linspace(0.0025, 0.9975, 400):
        pts = np.concatenate([c + 1j * s, [0.0], s + 1j * y])
        got = _segment_intersections(pts)
        assert got == all_pairs_crossings(pts), c
        assert any(abs(p - complex(c, y)) < 1e-12 for p in got), c


def test_segment_intersections_on_the_petal_curve():
    model, _ = petal_figure_model()
    trace = trace_real_root_curve(model, halfwidth=40, n=801)
    assert trace.self_intersections == all_pairs_crossings(trace.points)
    assert len(trace.self_intersections) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                min_size=1, max_size=60),
       st.sampled_from([0.125, 0.625, 1.0, 2.5]), st.integers(0, 10 ** 6))
def test_any_within_is_the_full_scan(xy, r, seed):
    # points on the 1/8 grid, so that p + r, p - i r and, for r = 5/8 or
    # 5/2, p + (3 + 4i) r/5 lie exactly at distance r from p
    pts = np.array([complex(x, y) / 8 for x, y in xy])
    rng = np.random.default_rng(seed)
    on_circle = np.concatenate([pts + r, pts - r, pts + 1j * r, pts - 1j * r,
                                pts + (3 + 4j) * (r / 5), pts + r * (1 - 1e-15),
                                pts + r * (1 + 1e-15)])
    # corners of the query cells, which have side 1.001 r here, and points
    # inside the cells off their edges
    cell = 1.001 * r
    m = np.arange(-2, 12)
    edges = (pts.real.min() + m * cell)[:, None] + 1j * (pts.imag.min() + m * cell)
    edges = np.concatenate([edges.ravel(), edges.ravel() + 0.37 * cell])
    # off the points' bounding box, near and far
    lo, hi = pts.min(), pts.max()
    outside = np.concatenate([
        lo - r * rng.uniform(0, 3, 20) * (1 + 1j), hi + r * rng.uniform(0, 3, 20) * (1 + 1j),
        rng.uniform(-1e3, 1e3, 10) + 1j * rng.uniform(-1e3, 1e3, 10)])
    ws = np.concatenate([on_circle, edges, outside])
    rs = np.full(len(ws), r)
    rs[len(on_circle):] *= rng.uniform(0.5, 1.0, len(ws) - len(on_circle))
    brute = np.array([np.min(np.abs(pts - w)) < rq for w, rq in zip(ws, rs)])
    assert np.array_equal(_any_within(pts, ws, rs), brute)


def test_trace_one_pole_is_one_clean_loop():
    trace = trace_real_root_curve(one_pole_model(), halfwidth=60, n=1201)
    # one loop: no gap between consecutive samples stands out
    gaps = np.abs(np.diff(trace.points))
    assert gaps.max() < 50 * np.median(gaps)
    nonzero = [p for p in trace.self_intersections if abs(p) > 0.05]
    assert nonzero == []


def test_trace_csv_format(tmp_path):
    trace = trace_real_root_curve(one_pole_model(), halfwidth=20, n=201)
    path = tmp_path / "c.csv"
    trace.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw and b"np." not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,re,im" and len(lines) == 1 + len(trace.ts)
    t, re, im = lines[1].split(",")
    assert float(t) == trace.ts[0]


def test_trace_rejects_repeated_psi_pole():
    psi = RatFun(Poly([1.0]), poly_from_roots([-1j, -1j]))
    model = FriedrichsModel(RatFun.simple_pole(-1j), psi, 0.0)
    with pytest.raises(ValueError, match="simple"):
        trace_real_root_curve(model)


# ---------------------------------------------------------------------------
# component labeling
# ---------------------------------------------------------------------------

def reference_raster(points, bounds, nx, ny):
    """The curve band of `component_map`, densified one segment at a time."""
    x0, x1, y0, y1 = bounds
    dense = [points]
    step = max((x1 - x0) / nx, (y1 - y0) / ny)
    for a, b in zip(points[:-1], points[1:]):
        d = abs(b - a)
        if d > step / 2:
            k = int(d / (step / 2)) + 1
            dense.append(a + (b - a) * np.linspace(0, 1, k + 1))
    dense = np.concatenate(dense)
    ii = np.clip(((dense.real - x0) / (x1 - x0) * (nx - 1)).round().astype(int), 0, nx - 1)
    jj = np.clip(((dense.imag - y0) / (y1 - y0) * (ny - 1)).round().astype(int), 0, ny - 1)
    curve = np.zeros((ny, nx), dtype=bool)
    for dj, di in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        curve[np.clip(jj + dj, 0, ny - 1), np.clip(ii + di, 0, nx - 1)] = True
    return curve


def reference_labels(curve):
    """Stack flood fill of the cells off the curve: cell (0, 0) first, then
    the unlabeled cells in row-major order seed the next component."""
    ny, nx = curve.shape
    labels = np.full((ny, nx), -2, dtype=int)
    labels[curve] = -1
    next_label = 0
    seeds = [(0, 0)] + [(j, i) for j in range(ny) for i in range(nx)]
    for j0, i0 in seeds:
        if labels[j0, i0] != -2:
            continue
        stack = [(j0, i0)]
        labels[j0, i0] = next_label
        while stack:
            j, i = stack.pop()
            for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jn, in_ = j + dj, i + di
                if 0 <= jn < ny and 0 <= in_ < nx and labels[jn, in_] == -2:
                    labels[jn, in_] = next_label
                    stack.append((jn, in_))
        next_label += 1
    return labels


CIRCLE = np.exp(1j * np.linspace(0, 2 * PI, 600))


def test_component_map_circle():
    cmap = component_map(CIRCLE, bounds=(-2, 2, -2, 2), nx=101, ny=101)
    assert cmap.label_at(0j) != 0
    assert cmap.label_at(1.8 + 0j) == 0
    assert cmap.label_at(10 + 10j) == 0        # off-grid: far field by convention
    assert cmap.labels[0, 0] == 0
    assert len(set(cmap.labels[cmap.labels >= 0].tolist())) == 2


@pytest.fixture(scope="module")
def figure_run():
    return figure2_pipeline()


def test_component_map_is_the_flood_fill(figure_run):
    _, trace, cmap = figure_run
    curve = reference_raster(trace.points, cmap.bounds, cmap.nx, cmap.ny)
    assert np.array_equal(cmap.labels, reference_labels(curve))
    circle = component_map(CIRCLE, bounds=(-2, 2, -2, 2), nx=101, ny=101)
    curve = reference_raster(CIRCLE, (-2, 2, -2, 2), 101, 101)
    assert np.array_equal(circle.labels, reference_labels(curve))


def serpentine(ny, nx):
    # one free path sweeping every other row, joined at alternating ends
    curve = np.ones((ny, nx), dtype=bool)
    curve[::2] = False
    curve[1::4, -1] = False
    curve[3::4, 0] = False
    return curve


RANDOM_CURVES = [np.random.default_rng(seed).random((23 + seed, 41 - seed))
                 < 0.2 + 0.02 * seed for seed in range(20)]


@pytest.mark.parametrize("curve", [
    *RANDOM_CURVES,
    serpentine(41, 37),
    ~serpentine(41, 37),
    np.pad(~serpentine(40, 36), ((1, 0), (1, 0)), constant_values=True),
], ids=[*(f"random-{seed}" for seed in range(20)), "serpentine", "serpentine-walls",
        "corner-on-curve"])
def test_run_labels_are_the_flood_fill(curve):
    assert curve.any() and not curve.all()
    assert np.array_equal(_label_runs(~curve), reference_labels(curve))


def brute_band_distance(curve):
    jj, ii = np.nonzero(curve)
    gj, gi = np.indices(curve.shape)
    d = np.abs(gj[..., None] - jj) + np.abs(gi[..., None] - ii)
    return np.min(d.astype(float), axis=-1, initial=np.inf)


@pytest.mark.parametrize("curve", RANDOM_CURVES,
                         ids=[f"random-{seed}" for seed in range(20)])
def test_band_distance_is_the_erosion_depth(curve):
    dist = _band_distance(curve)
    assert np.array_equal(dist, brute_band_distance(curve))
    # erode the free cells by the 4-neighbour cross, cells off the array
    # counting as free: a free cell at distance d survives d - 1 erosions
    free = ~curve
    survived = np.zeros(curve.shape, dtype=int)
    for _ in range(max(curve.shape)):
        p = np.pad(free, 1, constant_values=True)
        free = free & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
        survived += free
    assert not free.any()
    assert np.array_equal(survived[~curve], dist[~curve] - 1)


def test_band_distance_far_from_a_corner_and_without_a_band():
    corner = np.zeros((30, 20), dtype=bool)
    corner[0, 0] = True
    assert np.array_equal(_band_distance(corner), brute_band_distance(corner))
    assert _band_distance(corner)[-1, -1] == 29 + 19
    assert np.isinf(_band_distance(np.zeros((4, 5), dtype=bool))).all()


# ---------------------------------------------------------------------------
# petal figure pipeline
# ---------------------------------------------------------------------------

def test_figure_far_field_and_crossings(figure_run):
    report, _, _ = figure_run
    assert report["far_field_defect"] == 0
    assert len(report["crossings"]) == 100
    assert report["crossings_ok"] is True
    for c in report["crossings"]:
        da, db = c["defects"]
        assert abs(da - db) == 1


def test_figure_component_defects(figure_run):
    report, _, _ = figure_run
    comps = report["components"]
    defects = {c["defect"] for c in comps.values()}
    assert defects <= {0, 1, 2, 3, 4}
    # every defect level is realized by a sizeable component
    big = sorted(c["defect"] for c in comps.values() if c["cells"] >= 20)
    assert big == [0, 1, 2, 3, 4]


def test_figure_defect_is_pole_count_minus_lower_roots(figure_run):
    report, trace, cmap = figure_run
    model, _ = petal_figure_model()
    pencil = alpha_pencil(model)

    def nu_minus(alpha):
        return int(np.sum(pencil_roots(pencil, [alpha]).imag < -REAL_BAND))

    # tiny alpha: all four determinant roots stay at the psi poles below the axis
    assert nu_minus(1e-4) == 4
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if np.min(np.abs(trace.points - w)) < 0.02:
            continue
        lab = cmap.label_at(w)
        if lab < 0:
            continue
        d = 4 - nu_minus(1.0 / w)
        assert report["components"][str(lab)]["defect"] == d


def test_figure_self_intersections(figure_run):
    report, _, _ = figure_run
    pts = sorted((complex(*p) for p in report["self_intersections"]
                  if abs(complex(*p)) > 0.05), key=lambda z: z.real)
    expected = [-0.3779 + 0.0603j, -0.2155 + 0.1065j, -0.1670 + 0.1435j]
    assert len(pts) == 3
    for p, e in zip(pts, expected):
        assert abs(p - e) < 2e-3


def test_figure_defect_is_constant_on_deep_cells(figure_run):
    # every cell that survives two erosions of the cells off the curve band
    # has its component's defect, so the deepest cell is a sound probe
    report, _, cmap = figure_run
    model, _ = petal_figure_model()
    deep = _band_distance(cmap.labels < 0) >= 3
    j, i = np.nonzero(deep)
    xs = np.linspace(cmap.bounds[0], cmap.bounds[1], cmap.nx)
    ys = np.linspace(cmap.bounds[2], cmap.bounds[3], cmap.ny)
    got = pencil_defects(model, 1.0 / (xs[i] + 1j * ys[j]))
    want = [report["components"][str(lab)]["defect"] for lab in cmap.labels[j, i]]
    assert np.array_equal(got, want)
    assert len(set(cmap.labels[deep].tolist())) == 5


def test_figure_probes_are_the_deepest_cells(monkeypatch):
    calls = []

    def spy(model, alphas):
        calls.append(np.array(alphas))
        return pencil_defects(model, alphas)

    monkeypatch.setattr(scancli, "pencil_defects", spy)
    report, _, cmap = figure2_pipeline()
    dist = _band_distance(cmap.labels < 0)
    xs = np.linspace(cmap.bounds[0], cmap.bounds[1], cmap.nx)
    ys = np.linspace(cmap.bounds[2], cmap.bounds[3], cmap.ny)
    want = []
    for lab in range(cmap.labels.max() + 1):
        cells = np.argwhere(cmap.labels == lab)          # row-major order
        j, i = cells[np.argmax(dist[cells[:, 0], cells[:, 1]])]
        want.append(1.0 / (xs[i] + 1j * ys[j]))
        assert report["components"][str(lab)]["cells"] == len(cells)
    assert np.array_equal(calls[0], want)


def reference_crossing_sides(trace, seed):
    """The crossing samples of `figure2_pipeline` drawn one at a time, each
    side checked by a scan of the whole curve: the reference of its sized
    draw and grid radius query.  Returns (t, wa, wb) per kept sample."""
    rng = np.random.default_rng(seed)
    sides = []
    pts, ts = trace.points, trace.ts
    tries = 0
    while len(sides) < FIG_CROSSINGS and tries < 20 * FIG_CROSSINGS:
        tries += 1
        i = int(rng.integers(1, len(ts) - 2))
        tangent = pts[i + 1] - pts[i - 1]
        if abs(tangent) < 1e-12 or abs(pts[i]) < 0.5:
            continue
        normal = 1j * tangent / abs(tangent)
        eps = 0.02 * (1 + abs(pts[i]))
        wa, wb = pts[i] + eps * normal, pts[i] - eps * normal
        if np.min(np.abs(pts - wa)) < 0.5 * eps or np.min(np.abs(pts - wb)) < 0.5 * eps:
            continue
        sides.append((ts[i], wa, wb))
    return sides


@pytest.mark.parametrize("seed", [7, 11, 123, 0, 1, 2, 99, 2024])
def test_figure_crossings_are_the_scalar_samples(figure_run, seed):
    _, trace, _ = figure_run
    model, _ = petal_figure_model()
    report, _, _ = figure2_pipeline(rng_seed=seed)
    sides = reference_crossing_sides(trace, seed)
    ws = np.array([(wa, wb) for _, wa, wb in sides])
    defects = pencil_defects(model, 1.0 / ws.ravel()).reshape(-1, 2)
    assert report["crossings"] == [{"t": float(t), "defects": [int(da), int(db)]}
                                   for (t, _, _), (da, db) in zip(sides, defects)]
    assert len(sides) == FIG_CROSSINGS


@pytest.mark.parametrize("seed", [7, 11, 123])
def test_one_sized_draw_is_the_scalar_draws(figure_run, seed):
    # the crossing sampler draws all its indices in one call
    _, trace, _ = figure_run
    for high in (len(trace.ts) - 2, 3, 2 ** 31 + 5):
        sized = np.random.default_rng(seed).integers(1, high, size=20 * FIG_CROSSINGS)
        rng = np.random.default_rng(seed)
        assert sized.tolist() == [int(rng.integers(1, high))
                                  for _ in range(20 * FIG_CROSSINGS)]


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_verify_suite_residuals_small():
    rep = run_verify_suite(seed=5, count=70)
    assert rep["passed"] is True and rep["failed_kinds"] == []
    for kind, r in rep["residuals"].items():
        assert float(r) < 1e-8, kind


def test_verify_suite_krein_and_sdiff_residuals_are_rounding():
    # both identities hold exactly in RatFun algebra; the residual is the
    # rounding of the sampled difference, not a difference cancelled to 0
    rep = run_verify_suite(seed=0, count=70)
    for kind in ("krein", "sdiff"):
        assert 0.0 < float(rep["residuals"][kind]) < 1e-12, kind


def test_verify_suite_hash_reproducible():
    a = run_verify_suite(seed=2, count=21)
    b = run_verify_suite(seed=2, count=21)
    c = run_verify_suite(seed=3, count=21)
    assert a["hash"] == b["hash"] and a["hash"] != c["hash"]


def test_verify_suite_fault_injection(monkeypatch):
    # a green check that answers 1e-3 must fail the suite, and only green
    verify = scancli.verify_identity

    def faulty(kind, model, **kw):
        return 1e-3 if kind == "green" else verify(kind, model, **kw)

    monkeypatch.setattr(scancli, "verify_identity", faulty)
    rep = run_verify_suite(seed=2, count=21)
    assert rep["passed"] is False and rep["failed_kinds"] == ["green"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(petal_scan_model())))
    return str(path)


def test_cli_verify(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--count", "14", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and len(rep["hash"]) == 64


def test_cli_verbs_declare_only_the_flags_they_read(model_file, tmp_path):
    # --seed is read by verify alone, --tol by verify and recon alone
    for argv in (["figure2", "--seed", "3"], ["figure2", "--tol", "1e-3"],
                 ["curve", "--model", model_file, "--seed", "3"],
                 ["scan", "--model", model_file, "--grid=-1,1,-1,1,2,2", "--tol", "1"]):
        with pytest.raises(SystemExit):
            main(argv)
    out = tmp_path / "v.json"
    assert main(["verify", "--count", "3", "--seed", "4", "--tol", "1e-8",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 4


def test_cli_mfun(model_file, tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["mfun", "--model", model_file, "--grid=-1,1,0.5,1.5,4,3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "re,im,m_re,m_im,flag" and len(lines) == 1 + 12
    x, y, mr, mi, flag = lines[1].split(",")
    model = petal_scan_model()
    assert abs(complex(float(mr), float(mi))
               - m_function(model, complex(float(x), float(y))).M) < 1e-12
    assert "np." not in lines[1]


def test_cli_mfun_flags_real_axis(model_file, tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["mfun", "--model", model_file, "--grid=-1,1,0,1,3,2",
               "--out", str(out)])
    assert rc == 1
    assert "UNRESOLVED" in out.read_text()


def test_cli_mfun_flags_refused_cells(tmp_path):
    # psi phibar = (2i/pi)/((x + i)(x - i)) has residue -1/pi at -i, so
    # D(i) = 1 + 2 pi i (-1/pi)/(i + i) = 0 and m_function raises DZeroError
    model = FriedrichsModel(RatFun.simple_pole(-1j),
                            RatFun.simple_pole(-1j) * (2j / np.pi), 0.0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    out = tmp_path / "m.csv"
    rc = main(["mfun", "--model", str(path), "--grid=-1,1,0,2,3,3",
               "--out", str(out)])
    assert rc == 1
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    flags = {(float(r[0]), float(r[1])): r[4] for r in rows}
    assert len(flags) == 9
    assert flags[(0.0, 1.0)] == "UNRESOLVED"
    assert [flags[(x, 0.0)] for x in (-1.0, 0.0, 1.0)] == ["UNRESOLVED"] * 3
    assert sum(f == "OK" for f in flags.values()) == 5


def test_cli_resolvent(model_file, tmp_path):
    gpath = tmp_path / "g.json"
    g = RatFun.simple_pole(2j)
    gpath.write_text(json.dumps(rat_to_json(g)))
    out = tmp_path / "r.json"
    rc = main(["resolvent", "--model", model_file, "--at", "0.5,1.0",
               "--data", str(gpath), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    f = rat_from_json(rep["f"])
    el = apply_resolvent(petal_scan_model(), 0.5 + 1j, g)
    xs = np.linspace(-3, 3, 9)
    assert np.max(np.abs(f(xs) - el.f(xs))) < 1e-12
    assert abs(complex(*rep["gamma2"]) - el.gamma2) < 1e-12


def test_cli_defect(model_file, tmp_path):
    out = tmp_path / "d.json"
    rc = main(["defect", "--model", model_file, "--alpha", "0.1,0.1",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["route"] == "HARDY_PLUS" and rep["defect"] in (0, 1)


def test_cli_defect_at_large_alpha(model_file, tmp_path):
    # alpha = 1e13 i: the numerator's leading 1 is 1e-14 of its largest
    # coefficient, and the count must not lose a root
    out = tmp_path / "d.json"
    assert main(["defect", "--model", model_file, "--alpha", "0,1e13",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["defect"] == 0 and len(rep["roots"]) == 2
    pytest.importorskip("mpmath")
    assert mpmath_defect(petal_scan_model(), 1e13j) == 0


# the two-pole model of the README, phi = 1/(x+i) and psi = (x-i)/((x+i)(x+2i))
TWO_POLE_JSON = {"phi": {"num": [[1, 0]], "den": [[0, 1], [1, 0]]},
                 "psi": {"num": [[0, -1], [1, 0]], "den": [[-2, 0], [0, 3], [1, 0]]},
                 "B": [0, 0]}


def test_cli_scan_readme_parabola(tmp_path):
    # with conv = 1 the README grid is the conv = -6 grid over [-2, 2]^2, and
    # the defect-1 region is the outside of the parabola (Im w)^2 = 18 - 9 Re w
    mp = tmp_path / "two_pole.json"
    mp.write_text(json.dumps(TWO_POLE_JSON))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--model", str(mp), "--plane", "MU_HAT",
                 "--grid=12,-12,12,-12,100,100", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    w = np.array([complex(float(x), float(y)) for x, y, _, _ in rows])
    d = np.array([int(v) if v else -1 for _, _, v, _ in rows])
    # distance to the curve x = (18 - y^2)/9, sampled within 1 of each cell's y
    t = w.imag[:, None] + np.linspace(-1, 1, 201)
    dist = np.min(np.abs(w[:, None] - ((18 - t ** 2) / 9 + 1j * t)), axis=1)
    far = dist >= 1.02
    assert len(w) == 10000 and far.sum() > 8000
    assert np.array_equal(d[far], (w.imag[far] ** 2 > 18 - 9 * w.real[far]).astype(int))


def test_cli_scan_matches_library(model_file, tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["scan", "--model", model_file, "--grid=-2,2,-2,2,7,7",
               "--plane", "ALPHA", "--out", str(out)])
    assert rc == 0
    ref = tmp_path / "ref.csv"
    scan_defect_grid(petal_scan_model(), (-2, 2, -2, 2, 7, 7),
                     plane="ALPHA").write_csv(ref)
    assert out.read_bytes() == ref.read_bytes()


def test_cli_curve(tmp_path):
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(model_to_json(one_pole_model())))
    out = tmp_path / "c.csv"
    assert main(["curve", "--model", str(mp), "--out", str(out)]) == 0
    assert out.read_text().startswith("t,re,im\n")


def test_cli_recon(tmp_path):
    gen = FriedrichsModel(
        RatFun.simple_pole(2j),
        RatFun.simple_pole(-1.5j) + RatFun.simple_pole(-2.5j, 0.5),
        0.3 - 0.2j)
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(model_to_json(gen)))
    out = tmp_path / "rec.json"
    assert main(["recon", "--model", str(mp), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert float(rep["m_round_trip_error"]) < 1e-6
