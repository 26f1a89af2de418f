#!/usr/bin/env python3
"""Monte Carlo phase-transition experiment around the predicted threshold.

For each requested beta, lays a band of alpha cells around the theoretical
weak threshold alpha_w(beta), runs seeded recovery trials per cell, and
reports the empirical transition location against the theory curve.  The
run is deterministic for a fixed seed regardless of --threads.

    python3 scripts/phase_experiment.py --n 200 --betas 0.15,0.25 --trials 200
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from l1weak.cli import emit_csv, emit_svg
from l1weak.experiments import (
    PhaseGrid,
    TrialDiagnostics,
    estimate_transition,
    run_phase_grid,
)
from l1weak.threshold import Regime, alpha_w


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--betas", default="0.15,0.25",
                        help="comma-separated beta values")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--span", type=float, default=0.07,
                        help="half-width of the alpha band around alpha_w")
    parser.add_argument("--cells", type=int, default=5,
                        help="alpha cells per beta, at least 4 "
                        "(odd keeps one at alpha_w)")
    parser.add_argument("--regime", choices=["general", "signed"], default="general")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--out", type=Path, help="write per-cell results as CSV")
    parser.add_argument("--svg", type=Path,
                        help="write rate heatmap + theory curve as SVG")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    regime = Regime.coerce(args.regime)
    betas = [float(b) for b in args.betas.split(",") if b]
    if args.cells < 4 or args.trials < 1 or not betas:
        print("need --cells >= 4, --trials >= 1 and at least one beta",
              file=sys.stderr)
        return 2

    header = ["alpha", "beta", "m", "k", "trials", "successes", "rate"]
    rows = []
    all_cells = []
    for beta in betas:
        target = alpha_w(regime, beta).alpha
        step = 2.0 * args.span / (args.cells - 1)
        alphas = tuple(target - args.span + i * step for i in range(args.cells))
        grid = PhaseGrid(
            n=args.n, alphas=alphas, betas=(beta,),
            trials_per_cell=args.trials, seed=args.seed, regime=regime,
        )
        diagnostics = TrialDiagnostics()
        cells = run_phase_grid(grid, threads=args.threads, diagnostics=diagnostics)
        all_cells.extend(cells)
        try:
            estimate = estimate_transition(cells)
            located = f"empirical={estimate:.4f} delta={estimate - target:+.4f}"
        except ValueError as exc:
            located = f"no crossing ({exc})"
        routes = ", ".join(f"{name} {count}" for name, count in diagnostics.routes().items())
        print(f"beta={beta:.3f}: alpha_w={target:.4f} {located} "
              f"(routes: {routes})")
        for cell in cells:
            rows.append([cell.alpha, cell.beta, cell.m, cell.k,
                         cell.trials, cell.successes, cell.rate])

    if args.out:
        args.out.write_text(emit_csv(header, rows))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.svg:
        curve_betas = [i / 100 for i in range(5, 96)]
        curve = [(b, alpha_w(regime, b).alpha) for b in curve_betas]
        args.svg.write_text(emit_svg(curve, all_cells))
        print(f"wrote {args.svg}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
