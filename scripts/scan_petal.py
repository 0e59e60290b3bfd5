#!/usr/bin/env python3
"""Defect-number scan of the two-pole model over the scaled-coupling plane.

The model has phi = 1/(x+i) and psi with simple poles at -i and -2i
(coefficients -2 and 3).  Scanning the MU_HAT plane, the defect-1 region is
bounded by the parabola (Im w)^2 = (1 + 3 Re w)/2; the CSV output makes that
easy to check by plotting the defect column.
"""
import argparse
import sys

from fmlab.ratfun import RatFun
from fmlab.friedrichs import FriedrichsModel
from fmlab.scancli import scan_defect_grid


def base_model():
    psi = RatFun.simple_pole(-1j, -2.0) + RatFun.simple_pole(-2j, 3.0)
    return FriedrichsModel(RatFun.simple_pole(-1j), psi, 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="-2,2,-2,2,100,100",
                    help="x0,x1,y0,y1,nx,ny")
    ap.add_argument("--plane", default="MU_HAT",
                    choices=("ALPHA", "MU", "MU_HAT", "INV_ALPHA"))
    ap.add_argument("--out", default="petal_scan.csv")
    args = ap.parse_args()

    parts = [float(v) for v in args.grid.split(",")]
    grid = (*parts[:4], int(parts[4]), int(parts[5]))
    # conversion factor between the raw coupling and the scaled plane for
    # this pole layout: (z1 - w1)(z2 - w1) with w1 = conj(-i)
    conv = (-1j - 1j) * (-2j - 1j)
    sg = scan_defect_grid(base_model(), grid, plane=args.plane, conv=conv)
    sg.write_csv(args.out)
    n_unres = int((sg.defects < 0).sum())
    print(f"wrote {args.out}: {sg.nx}x{sg.ny} cells, "
          f"{n_unres} unresolved, defects {sorted(set(sg.defects[sg.defects >= 0].tolist()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
