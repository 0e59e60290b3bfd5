"""Spans around the calls into each fmlab layer, recorded from outside the package.

``Tracer.install()`` replaces every traced function wherever it is bound (the
defining module, every fmlab module that imported the name, and the class
attribute for constructors and arithmetic) with a wrapper that records one
span per call: its name, its parent span and its start and end times.  Spans
stay in memory in flat arrays until ``uninstall()``; ``metrics()`` then turns
them into per-layer call counts and self times, where a span's self time is
its duration minus the durations of its direct child spans (calls are nested
and single-threaded, so children never overlap).
"""
import json
import sys
import time
from array import array

import numpy as np

from fmlab import detect, friedrichs, hardy, ratfun, scancli

# (metric prefix, owner object, attribute) for every traced function
_FUNCTIONS = [
    ("ratfun." + n, ratfun, n) for n in (
        "poly_roots", "partial_fractions", "cauchy_transform", "inner_product",
        "pv_integral", "conj_reflect")
] + [
    ("hardy." + n, hardy, n) for n in (
        "quad_gk", "quad_real_line", "boundary_value", "cauchy_transform_num",
        "riesz_split")
] + [
    ("friedrichs." + n, friedrichs, n) for n in (
        "m_function", "apply_resolvent", "solution_operator", "traces",
        "apply_adjoint", "verify_identity")
] + [
    ("detect." + n, detect, n) for n in (
        "defect_hardy_plus", "d_plus", "mb_jump", "jump_rank_check")
] + [
    ("scancli." + n, scancli, n) for n in (
        "scan_defect_grid", "trace_real_root_curve", "component_map",
        "figure2_pipeline")
] + [
    ("numpy.roots", np, "roots"),
    ("numpy.linalg.eigvals", np.linalg, "eigvals"),
]

# constructors and the arithmetic operators, patched on the class itself
_METHODS = [
    ("ratfun.RatFun", ratfun.RatFun, ("__init__",)),
    ("ratfun.RatFun.arith", ratfun.RatFun, (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__")),
    ("friedrichs.FriedrichsModel", friedrichs.FriedrichsModel, ("__init__",)),
]

SPAN_NAMES = tuple(k for k, _, _ in _FUNCTIONS) + tuple(k for k, _, _ in _METHODS)
COUNTERS = ("ratfun.poly_roots.calls.deg1-2", "ratfun.poly_roots.calls.deg3-8",
            "ratfun.poly_roots.calls.deg9-", "hardy.quad_gk.panels",
            "hardy.quad_gk.failed")
MAX_RESIDUAL = "friedrichs.verify_identity.max_residual"


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
    for name in COUNTERS:
        out[name] = "count"
    out[MAX_RESIDUAL] = "1"
    return out


def _fmlab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "fmlab" or k.startswith("fmlab.")) and m is not None]


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.max_residual = 0.0
        self._undo = []

    # -- recording ------------------------------------------------------------
    def _span(self, key, fn):
        nid = self._ids[key]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _instrumented(self, key, fn):
        """fn with the layer counters that ride on its calls."""
        counts = self.counts
        if key == "ratfun.poly_roots":
            def poly_roots(p, *args, **kwargs):
                # constant polynomials (degree <= 0) fall in no bucket
                deg = (p if isinstance(p, ratfun.Poly) else ratfun.Poly(p)).degree
                if deg >= 1:
                    bucket = "deg1-2" if deg <= 2 else "deg3-8" if deg <= 8 else "deg9-"
                    counts["ratfun.poly_roots.calls." + bucket] += 1
                return fn(p, *args, **kwargs)
            return poly_roots
        if key == "hardy.quad_gk":
            def quad_gk(f, *args, **kwargs):
                def integrand(x):
                    counts["hardy.quad_gk.panels"] += 1
                    return f(x)
                try:
                    return fn(integrand, *args, **kwargs)
                except hardy.QuadratureError:
                    counts["hardy.quad_gk.failed"] += 1
                    raise
            return quad_gk
        if key == "friedrichs.verify_identity":
            def verify_identity(*args, **kwargs):
                r = fn(*args, **kwargs)
                self.max_residual = max(self.max_residual, float(r))
                return r
            return verify_identity
        return fn

    # -- patching -------------------------------------------------------------
    def install(self):
        modules = _fmlab_modules()
        for key, owner, attr in _FUNCTIONS:
            orig = getattr(owner, attr)
            wrapped = self._span(key, self._instrumented(key, orig))
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, name, orig))
                        setattr(m, name, wrapped)
        for key, cls, attrs in _METHODS:
            for attr in attrs:
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._span(key, orig))
        return self

    def uninstall(self):
        for home, attr, orig in reversed(self._undo):
            setattr(home, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------
    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def metrics(self):
        name, parent, start, end = self._arrays()
        k = len(SPAN_NAMES)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_s = np.bincount(name, weights=dur - covered, minlength=k)
        calls = np.bincount(name, minlength=k)
        out = {}
        for i, key in enumerate(SPAN_NAMES):
            out[key + ".calls"] = int(calls[i])
            out[key + ".self_s"] = float(self_s[i])
        out.update(self.counts)
        out[MAX_RESIDUAL] = self.max_residual
        return out

    def write(self, path, summary):
        """Spans as flat arrays (.npz) and the summary beside them (.json)."""
        name, parent, start, end = self._arrays()
        np.savez(path.with_suffix(".npz"), name=name, parent=parent,
                 start=start, end=end, labels=np.array(SPAN_NAMES))
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
