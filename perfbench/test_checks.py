"""The benchmark's own tests: each check accepts fmlab's real outputs and
rejects a corrupted copy of them; the tracer counts and restores.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import workloads   # noqa: E402


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_failures_counts_raised_large_and_nan_residuals():
    good = [1e-12, 3e-10, 9.9e-9]
    assert checks.verify_failures(good, 1e-8) == []
    assert checks.verify_failures(good + [1e-8], 1e-8) == [3]
    assert checks.verify_failures(good + [float("nan")], 1e-8) == [3]
    assert checks.verify_failures(good + ["DZeroError"], 1e-8) == [3]


def test_verify_items_match_the_cli_suite():
    # the benchmark's pool is the first models of `fmlab verify` at its seed
    from fmlab import scancli
    n = 14
    inputs = workloads.Verify().build(0)
    inputs["built"] = inputs["built"][:n]
    residuals, attempted, failed = workloads.Verify().run_round(inputs)
    assert (attempted, failed) == (n, 0)
    rep = scancli.run_verify_suite(seed=workloads.VERIFY_SEED, count=n)
    for kind in workloads.KINDS:
        mine = max(r for r, it in zip(residuals, inputs["items"]) if it["kind"] == kind)
        assert f"{mine:.6e}" == rep["residuals"][kind]


def test_m_value_accepts_fmlab_and_rejects_a_corrupted_m():
    from fmlab import friedrichs
    items = workloads.verify_items(count=3)
    for it in items:
        model = friedrichs.FriedrichsModel(workloads._ratfun(it["phi"]),
                                           workloads._ratfun(it["psi"]), it["B"])
        m = friedrichs.m_function(model, it["lam"]).M
        assert checks.m_value(it["phi"], it["psi"], it["B"], it["lam"], m) == []
        bad = m * (1 + 1e-5)
        assert checks.m_value(it["phi"], it["psi"], it["B"], it["lam"], bad)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan_out():
    from fmlab import scancli
    two, four = workloads.scan_grids(3)
    sg2 = scancli.scan_defect_grid(workloads.two_pole_model(), (*two, 9, 9),
                                   plane="MU_HAT", conv=workloads.TWO_POLE_CONV)
    model4, _ = scancli.petal_figure_model()
    sg4 = scancli.scan_defect_grid(model4, (*four, 6, 6), plane="INV_ALPHA")
    return two, sg2, four, sg4


def test_two_pole_check(scan_out):
    two, sg2, _, _ = scan_out
    assert checks.scan_two_pole(two, sg2.defects, sg2.flags) == []
    d = sg2.defects.copy()
    d[0, 0] = 1 - d[0, 0]
    assert checks.scan_two_pole(two, d, sg2.flags)
    f = sg2.flags.copy()
    f[4, 4] = "UNRESOLVED"
    assert checks.scan_two_pole(two, sg2.defects, f)


def test_four_pole_check(scan_out):
    _, _, four, sg4 = scan_out
    assert len(set(sg4.defects.ravel())) > 1
    assert checks.scan_four_pole(four, sg4.defects, sg4.flags) == []
    d = sg4.defects.copy()
    d[2, 3] += 1
    assert checks.scan_four_pole(four, d, sg4.flags)


# ---------------------------------------------------------------------------
# figure2
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig_out():
    from fmlab import scancli
    report, trace, cmap = scancli.figure2_pipeline(rng_seed=11)
    return report, trace.ts, trace.points, cmap.labels, cmap.bounds


def _fig(fig_out, **changes):
    report, ts, points, labels, bounds = fig_out
    args = {"report": copy.deepcopy(report), "ts": ts, "points": points.copy(),
            "labels": labels, "bounds": bounds, "seed": 5}
    args.update(changes)
    return args


def test_figure2_check_accepts_the_pipeline(fig_out):
    assert checks.figure2(**_fig(fig_out)) == []


def test_figure2_check_rejects_corruptions(fig_out):
    a = _fig(fig_out)
    a["report"]["far_field_defect"] = 1
    assert checks.figure2(**a)

    a = _fig(fig_out)
    comp = max(a["report"]["components"].values(), key=lambda c: c["cells"])
    comp["defect"] += 1
    assert checks.figure2(**a)

    a = _fig(fig_out)
    c = a["report"]["crossings"][0]
    c["defects"] = [c["defects"][0]] * 2
    assert checks.figure2(**a)

    a = _fig(fig_out)        # still one apart, but both sides wrong
    c = a["report"]["crossings"][1]
    c["defects"] = [d + 1 for d in c["defects"]]
    assert checks.figure2(**a)

    a = _fig(fig_out)
    a["report"]["crossings"].pop()
    assert checks.figure2(**a)

    a = _fig(fig_out)        # move the curve off its prescribed zero at t = 1
    i = int(np.searchsorted(a["ts"], 1.0))
    a["points"][i - 1:i + 1] += 0.05
    assert checks.figure2(**a)


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def jump_out():
    inputs = workloads.Jumps().build(2)
    pts = [p for p in inputs["points"] if p[0] != "overlap"]
    pts = [next(p for p in pts if p[0] == r) for r in ("off", "phi", "psi")]
    inputs["points"] = pts
    out, attempted, failed = workloads.Jumps().run_round(inputs)
    assert (attempted, failed) == (3, 0)
    return pts, out


def test_jumps_check_accepts_and_rejects(jump_out):
    pts, out = jump_out
    assert checks.jumps(pts, out) == []
    for i in range(3):
        jump, rank, resolved, rank_res, rank_m, equal = out[i]
        bad = list(out)
        bad[i] = (jump + 1e-6j, rank, resolved, rank_res, rank_m, equal)
        assert checks.jumps(pts, bad), i
        bad[i] = (jump, 1 - rank, resolved, rank_res, rank_m, equal)
        assert checks.jumps(pts, bad), i
        bad[i] = (jump, rank, False, rank_res, rank_m, equal)
        assert checks.jumps(pts, bad), i
        bad[i] = (jump, rank, resolved, 1 - rank_res, rank_m, False)
        assert checks.jumps(pts, bad), i


def test_psi_points_keep_clear_of_the_pole_of_m():
    from scipy import integrate, optimize

    def pv(k):
        return integrate.quad(lambda t: 1 / math.log((t - 1) / t), *checks.PSI_IV,
                              weight="cauchy", wvar=k, limit=200)[0]

    assert abs(optimize.brentq(pv, 2.5, 2.7, xtol=1e-13) - checks.PSI_PV_ZERO) < 1e-9
    for seed in range(20):
        pts = workloads.jump_points(seed)
        assert [r for r, _ in pts].count("psi") == workloads.JUMP_POINTS
        for regime, k in pts:
            if regime == "psi":
                assert 2.05 < k < 2.95
                assert abs(k - checks.PSI_PV_ZERO) >= workloads.PV_ZERO_GAP


def test_overlapping_points_fail_and_are_counted():
    inputs = workloads.Jumps().build(2)
    inputs["points"] = [("overlap", workloads.OVERLAP_KS[0])]
    out, attempted, failed = workloads.Jumps().run_round(inputs)
    assert (attempted, failed) == (1, 1) and out == ["QuadratureError"]
    assert checks.jumps(inputs["points"], out) == []


def test_overlap_closed_form_matches_quadrature_near_the_axis():
    import mpmath
    k, eta = 0.4, 1e-9

    def hat(a, b, lam):
        return mpmath.quad(lambda t: 1 / (t - lam), [a, k, b])

    def minv(s):
        lam = mpmath.mpc(k, s * eta)
        D = 1 + hat(0.0, 1.0, lam)      # psi conj(phi) = 1 on [0, 1]
        ph = hat(*checks.OVERLAP_PSI_IV, lam)
        fh = hat(*checks.OVERLAP_PHI_IV, lam)
        return s * 1j * mpmath.pi - ph * fh / D

    ref = complex(minv(1) - minv(-1))
    assert abs(checks.overlap_jump(k) - ref) < 1e-6


# ---------------------------------------------------------------------------
# tracing and the command
# ---------------------------------------------------------------------------

def test_tracer_counts_self_time_and_restores():
    import tracing
    from fmlab import friedrichs, ratfun
    orig = (ratfun.poly_roots, friedrichs.m_function, ratfun.RatFun.__init__)
    tr = tracing.Tracer().install()
    try:
        assert friedrichs.poly_roots is ratfun.poly_roots is not orig[0]
        phi = ratfun.RatFun.simple_pole(-1j)
        psi = ratfun.RatFun.simple_pole(-2j, 3.0) + ratfun.RatFun.simple_pole(1 + 1j)
        friedrichs.m_function(friedrichs.FriedrichsModel(phi, psi, 0.5), 0.3 + 1j)
    finally:
        tr.uninstall()
    assert (ratfun.poly_roots, friedrichs.m_function, ratfun.RatFun.__init__) == orig
    assert friedrichs.poly_roots is orig[0]
    m = tr.metrics()
    assert m["friedrichs.m_function.calls"] == 1
    assert m["friedrichs.FriedrichsModel.calls"] == 1
    assert m["ratfun.RatFun.arith.calls"] >= 1
    assert m["ratfun.poly_roots.calls"] >= m["ratfun.poly_roots.calls.deg1-2"] >= 1
    total = float(np.frombuffer(tr.end)[-1] - np.frombuffer(tr.start)[0])
    selfs = [v for k, v in m.items() if k.endswith(".self_s")]
    assert min(selfs) >= 0 and sum(selfs) <= total * 1.0001


def test_benchmark_json_lists_every_traced_metric():
    import tracing
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.metric_names()
    import run
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_command_fails_without_the_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
