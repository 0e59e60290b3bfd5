"""Benchmark of fmlab: four workloads, end-to-end metrics or per-layer traces.

Run from the root of the repository:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh single-threaded child process (``worker.py``)
that imports fmlab from ``src/``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md for what each workload measures.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify", "scan", "figure2", "jumps")
TIMEOUT_S = 170
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = Path.cwd() / "src"
    if not (src / "fmlab" / "__init__.py").is_file():
        print(f"fmlab sources not found under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src), **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{args.workload}: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    res = json.loads(lines[-1])

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "items_per_s": {"value": res["items_per_s"], "unit": "items/s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
