"""One workload in one process: set-up, timed rounds, checks.

Started by ``run.py``, which passes the monotonic clock reading taken just
before this process was started (``--t0``), so set-up time runs from process
start.  Prints one JSON object on its last stdout line.
"""
import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    inputs = wl.build(args.seed)
    setup_s = time.monotonic() - args.t0

    first, mismatch = None, None
    round_s, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        out, n, nf = wl.run_round(inputs)
        round_s.append(time.perf_counter() - r0)
        attempted += n
        failed += nf
        if first is None:
            first, per_round = out, n
        elif mismatch is None and not _same(out, first):
            mismatch = f"round {len(round_s)} gave other outputs than round 1"
        if time.perf_counter() - start >= args.seconds:
            break
    # KiB on Linux; read before the checks import mpmath and scipy
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items_per_s = _median([per_round / s for s in round_s])

    result = {"attempted": attempted, "failed": failed, "items_per_s": items_per_s}
    if tracer is not None:
        tracer.uninstall()
        units = tracing.metric_names()
        result["layers"] = {k: {"value": v, "unit": units[k]}
                            for k, v in tracer.metrics().items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}",
                     {"workload": args.workload, "seed": args.seed,
                      "traced_items_per_s": items_per_s, "rounds": len(round_s),
                      "spans": len(tracer.end)})
    else:
        result["setup_s"] = setup_s
        result["peak_rss_mib"] = peak_rss_mib

    problems = wl.check(inputs, first, args.seed)
    if mismatch:
        problems.append(mismatch)
    for p in problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    result["correct"] = not problems
    print(json.dumps(result))
    return 0


def _median(xs):
    # not statistics.median: importing statistics (decimal, fractions,
    # random) would count in the measured set-up time and memory
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def _same(a, b):
    """Exact equality of two rounds' outputs (arrays, dicts, lists, scalars)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b or (a != a and b != b)      # NaN residuals repeat too


if __name__ == "__main__":
    sys.exit(main())
