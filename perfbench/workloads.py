"""The four workloads: inputs built from a seed, one round of fmlab calls, outputs.

A workload object has

* ``build(seed)``: the inputs, built before the timed part (this is set-up);
* ``run_round(inputs)``: one round of the same operations, returning
  ``(outputs, attempted, failed)``; the worker times whole rounds only, so the
  share of failed operations is the same in every run;
* ``check(inputs, outputs, seed)``: a list of problems found by the
  independent checks in ``checks.py`` (empty when the outputs are correct).

fmlab functions are always looked up on their module at call time, so the
traced run sees every call.
"""
import numpy as np

from fmlab import detect, friedrichs, hardy, ratfun, scancli

import checks


# ---------------------------------------------------------------------------
# verify: one fresh random model with its probe data per item
# ---------------------------------------------------------------------------

VERIFY_SEED = 0          # fixed: tolerance failures differ from seed to seed
VERIFY_COUNT = 350       # 50 models of each kind per round
VERIFY_TOL = 1e-8        # the suite's tolerance
VERIFY_M_SAMPLE = 4      # items per run whose M-value is checked by mpmath
KINDS = ("green", "resolvent", "krein", "aronszajn", "fund", "sdiff",
         "continuation")


def _draw_l2(rng, deg, min_im=0.1, min_sep=0.0, half=0):
    """(numerator coefficients, poles) of a random L2 rational function.

    Same distribution and the same order of draws as ``fmlab verify``, so
    the items are the first ``VERIFY_COUNT`` models of ``fmlab verify`` at
    ``VERIFY_SEED``.
    """
    while True:
        locs = []
        for _ in range(deg):
            sgn = half if half else (1 if rng.random() < 0.5 else -1)
            locs.append(complex(rng.uniform(-2, 2), (min_im + rng.uniform(0, 2)) * sgn))
        if min_sep and any(abs(a - b) < min_sep
                           for i, a in enumerate(locs) for b in locs[:i]):
            continue
        break
    if deg > 1:
        num = list(rng.normal(size=deg) + 1j * rng.normal(size=deg))
    else:
        num = [complex(rng.normal(), rng.normal())]
    return num, locs


def _ratfun(data):
    num, locs = data
    den = ratfun.Poly([1.0])
    for z in locs:
        den = den * ratfun.Poly([-z, 1.0])
    return ratfun.RatFun(ratfun.Poly(num), den, den_roots=[(z, 1) for z in locs])


def verify_items(seed=VERIFY_SEED, count=VERIFY_COUNT):
    """Plain data of each item: kind, phi, psi, B and the probe arguments."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        dphi, dpsi = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if kind == "continuation":
            phi = _draw_l2(rng, min(dphi, 3), min_sep=0.3, half=+1)
            psi = _draw_l2(rng, min(dpsi, 3), min_sep=0.3, half=-1)
        else:
            phi = _draw_l2(rng, dphi, min_sep=0.3)
            psi = _draw_l2(rng, dpsi, min_sep=0.3)
        B = complex(rng.normal(), rng.normal())
        ims = 0.3 + rng.uniform(0, 1.5, size=3)
        sgs = np.where(rng.random(size=3) < 0.5, 1.0, -1.0)
        if kind == "continuation":
            sgs = np.array([1.0, -1.0, 1.0])
            ims = ims + 0.4
        lam, mu, mu_t = (complex(rng.uniform(-2, 2), im * sg)
                         for im, sg in zip(ims, sgs))
        if kind == "green":
            kw = {"u": _draw_l2(rng, 2, min_sep=0.4), "v": _draw_l2(rng, 2, min_sep=0.4)}
        elif kind == "resolvent":
            kw = {"lam": lam, "g": _draw_l2(rng, int(rng.integers(1, 3)))}
        elif kind == "krein":
            C = complex(rng.normal(), rng.normal())
            kw = {"C": C, "lam": lam, "g": _draw_l2(rng, int(rng.integers(1, 3)))}
        elif kind == "aronszajn":
            kw = {"C": complex(rng.normal(), rng.normal()), "lam": lam}
        elif kind == "fund":
            kw = {"lam": lam, "mu": mu, "mu_t": mu_t}
        elif kind == "sdiff":
            kw = {"lam": lam, "lam0": mu}
        else:
            kw = {"lam": lam, "mu": mu, "mu_t": mu_t}
        items.append({"kind": kind, "phi": phi, "psi": psi, "B": B, "lam": lam,
                      "kw": kw})
    return items


class Verify:
    name = "verify"

    def build(self, seed):
        # the models do not depend on the run's seed (see VERIFY_SEED); the
        # seed picks the items whose M-value mpmath checks
        items = verify_items()
        built = []
        for it in items:
            kw = {k: _ratfun(v) if isinstance(v, tuple) else v
                  for k, v in it["kw"].items()}
            built.append((it["kind"], _ratfun(it["phi"]), _ratfun(it["psi"]),
                          it["B"], kw))
        return {"items": items, "built": built}

    def run_round(self, inputs):
        residuals = []
        for kind, phi, psi, B, kw in inputs["built"]:
            try:
                model = friedrichs.FriedrichsModel(phi, psi, B)
                r = float(friedrichs.verify_identity(kind, model, **kw))
            except Exception as exc:    # a raising item is a failed operation
                r = type(exc).__name__
            residuals.append(r)
        failed = len(checks.verify_failures(residuals, VERIFY_TOL))
        return residuals, len(residuals), failed

    def check(self, inputs, outputs, seed):
        items = inputs["items"]
        bad = set(checks.verify_failures(outputs, VERIFY_TOL))
        rng = np.random.default_rng(seed)
        sample = [int(i) for i in rng.permutation(len(items)) if int(i) not in bad]
        problems = []
        for i in sample[:VERIFY_M_SAMPLE]:
            it = items[i]
            _, phi, psi, B, _ = inputs["built"][i]
            mv = friedrichs.m_function(friedrichs.FriedrichsModel(phi, psi, B), it["lam"])
            problems += checks.m_value(it["phi"], it["psi"], it["B"], it["lam"], mv.M)
        return problems


# ---------------------------------------------------------------------------
# scan: one cell of scan_defect_grid per item, two grids per round
# ---------------------------------------------------------------------------

TWO_POLE_N = 40          # cells per side of the two-pole MU_HAT grid
FOUR_POLE_N = 20         # cells per side of the four-pole INV_ALPHA grid
TWO_POLE_CONV = -6.0     # (z1 - conj w1)(z2 - conj w1) for poles -i, -2i and w1 = -i


def two_pole_model():
    """phi = 1/(x+i), psi = -2/(x+i) + 3/(x+2i): the MU_HAT defect-1 region
    is the outside of the parabola (Im w)^2 = (1 + 3 Re w)/2."""
    psi = ratfun.RatFun.simple_pole(-1j, -2.0) + ratfun.RatFun.simple_pole(-2j, 3.0)
    return friedrichs.FriedrichsModel(ratfun.RatFun.simple_pole(-1j), psi, 0.0)


def scan_grids(seed):
    """Jittered bounds of the two grids; no four-pole cell sits at w = 0."""
    rng = np.random.default_rng(seed)
    while True:
        u = rng.uniform(0.0, 1.0, size=8)
        two = (-2 + 0.2 * u[0], 2 - 0.2 * u[1], -2 + 0.2 * u[2], 2 - 0.2 * u[3])
        four = (-0.6 + 0.1 * u[4], 0.6 - 0.1 * u[5], -0.6 + 0.1 * u[6], 0.6 - 0.1 * u[7])
        xs = np.linspace(four[0], four[1], FOUR_POLE_N)
        ys = np.linspace(four[2], four[3], FOUR_POLE_N)
        if np.min(np.abs(xs[None, :] + 1j * ys[:, None])) > 1e-3:
            return two, four


class Scan:
    name = "scan"

    def build(self, seed):
        two, four = scan_grids(seed)
        model4, _ = scancli.petal_figure_model()
        return {"two": two, "four": four, "model2": two_pole_model(),
                "model4": model4}

    def run_round(self, inputs):
        sg2 = scancli.scan_defect_grid(
            inputs["model2"], (*inputs["two"], TWO_POLE_N, TWO_POLE_N),
            plane="MU_HAT", conv=TWO_POLE_CONV)
        sg4 = scancli.scan_defect_grid(
            inputs["model4"], (*inputs["four"], FOUR_POLE_N, FOUR_POLE_N),
            plane="INV_ALPHA")
        out = {"two": (sg2.defects, sg2.flags), "four": (sg4.defects, sg4.flags)}
        return out, sg2.defects.size + sg4.defects.size, 0

    def check(self, inputs, outputs, seed):
        return (checks.scan_two_pole(inputs["two"], *outputs["two"])
                + checks.scan_four_pole(inputs["four"], *outputs["four"]))


# ---------------------------------------------------------------------------
# figure2: one full figure2_pipeline per item
# ---------------------------------------------------------------------------

class Figure2:
    name = "figure2"

    def build(self, seed):
        return {"rng_seed": int(np.random.default_rng(seed).integers(2 ** 31))}

    def run_round(self, inputs):
        report, trace, cmap = scancli.figure2_pipeline(rng_seed=inputs["rng_seed"])
        out = {"report": report, "ts": trace.ts, "points": trace.points,
               "labels": cmap.labels, "bounds": cmap.bounds}
        return out, 1, 0

    def check(self, inputs, outputs, seed):
        return checks.figure2(outputs["report"], outputs["ts"], outputs["points"],
                              outputs["labels"], outputs["bounds"], seed)


# ---------------------------------------------------------------------------
# jumps: mb_jump and jump_rank_check at one point k per item
# ---------------------------------------------------------------------------

JUMP_POINTS = 8                       # per regime of the disjoint-support model
OVERLAP_KS = (0.25, 0.75)             # fixed: these points fail on every run
PV_ZERO_GAP = 0.02                    # see checks.PSI_PV_ZERO
OFF_SUPPORT = ((-3.0, -0.3), (1.2, 1.8), (3.3, 5.0))
ON_PHI = ((0.05, 0.95),)
ON_PSI = ((2.05, checks.PSI_PV_ZERO - PV_ZERO_GAP),
          (checks.PSI_PV_ZERO + PV_ZERO_GAP, 2.95))


def _stratified(rng, intervals, n):
    """One uniform point in each of n equal parts of the union of the
    intervals: the mix of cheap and costly points changes little from seed
    to seed."""
    cum = np.cumsum([b - a for a, b in intervals])
    s = cum[-1] * (np.arange(n) + rng.random(n)) / n
    idx = np.minimum(np.searchsorted(cum, s, side="right"), len(intervals) - 1)
    starts = np.array([a for a, _ in intervals])
    before = np.concatenate([[0.0], cum[:-1]])
    return [float(k) for k in starts[idx] + s - before[idx]]


def jump_points(seed):
    """(regime, k) pairs: off both supports, on phi's, on psi's, overlapping."""
    rng = np.random.default_rng(seed)
    pts = [("off", k) for k in _stratified(rng, OFF_SUPPORT, JUMP_POINTS)]
    pts += [("phi", k) for k in _stratified(rng, ON_PHI, JUMP_POINTS)]
    pts += [("psi", k) for k in _stratified(rng, ON_PSI, JUMP_POINTS)]
    pts += [("overlap", k) for k in OVERLAP_KS]
    return pts


class Jumps:
    name = "jumps"

    def build(self, seed):
        PW = hardy.PiecewiseFun
        disjoint = detect.PiecewiseModel(
            PW.indicator(*checks.PHI_IV),
            PW.reciprocal_cauchy(checks.PHI_IV, checks.PSI_IV), 0.0)
        overlap = detect.PiecewiseModel(
            PW.indicator(*checks.OVERLAP_PHI_IV), PW.indicator(*checks.OVERLAP_PSI_IV), 0.0)
        return {"points": jump_points(seed), "disjoint": disjoint, "overlap": overlap}

    def run_round(self, inputs):
        out = []
        for regime, k in inputs["points"]:
            model = inputs["overlap" if regime == "overlap" else "disjoint"]
            try:
                jr = detect.mb_jump(model, k)
                rc = detect.jump_rank_check(model, k, fs=[1.0], ws=[1.0],
                                            mus=[1j], mu_ts=[1.5j])
            except Exception as exc:    # a raising point is a failed operation
                out.append(type(exc).__name__)
                continue
            out.append((complex(jr.jump_Minv), jr.rank, rc.resolved,
                        rc.rank_resolvent, rc.rank_M, rc.equal))
        failed = sum(isinstance(r, str) for r in out)
        return out, len(out), failed

    def check(self, inputs, outputs, seed):
        return checks.jumps(inputs["points"], outputs)


WORKLOADS = {w.name: w for w in (Verify(), Scan(), Figure2(), Jumps())}
