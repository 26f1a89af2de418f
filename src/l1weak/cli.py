"""Command-line front-end emitting bit-stable CSV/JSON tables and SVG plots.

Verbs: ``threshold`` (weak-threshold curves), ``tau`` (null-space
certificate for a concrete matrix), ``recover`` (basis pursuit on given
data), ``phase`` (Monte Carlo phase-transition grid), ``framework``
(finite-n water-level estimates).  Data goes to standard output or to
``--out``; diagnostics go to the error stream.  Floats are serialized with
shortest-round-trip formatting and rows are ordered deterministically, so
identical inputs (including seeds) produce byte-identical outputs —
``--threads`` changes scheduling only, never bytes.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
# tau_dual is unused here but stays bound: perfbench's tracer wraps cli.tau_dual by this name.
from .cert import SupportPattern, classify_nsp, tau_dual  # noqa: F401
from .experiments import PhaseGrid, run_framework, run_phase_grid
from .recovery import BPProblem, solve_bp
from .threshold import EpsilonSet, Regime, alpha_bound, solve_theta

__all__ = ["ReportBundle", "UsageError", "dispatch", "main", "emit_csv", "emit_svg"]

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN_LEFT = 70
_SVG_MARGIN_RIGHT = 20
_SVG_MARGIN_TOP = 20
_SVG_MARGIN_BOTTOM = 55

#: Columns of the ``threshold`` and ``phase`` tables, in CSV and JSON alike.
_THRESHOLD_COLUMNS = ("beta", "theta_hat", "alpha_w")
_PHASE_COLUMNS = ("alpha", "beta", "m", "k", "trials", "successes", "rate")


class UsageError(Exception):
    """Invalid flag combination or malformed flag value."""


@dataclass(frozen=True)
class ReportBundle:
    """Everything a verb produced: the JSON document, optional CSV table and plot."""

    json: str
    csv: str | None = None
    svg: str | None = None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_csv(header, rows) -> str:
    """CSV with a fixed header and shortest-round-trip float formatting."""
    if not rows:
        raise ValueError("refusing to emit an empty table")
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} does not match header {len(header)}")
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit_json(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _svg_x(beta: float) -> float:
    return _SVG_MARGIN_LEFT + beta * (_SVG_WIDTH - _SVG_MARGIN_LEFT - _SVG_MARGIN_RIGHT)


def _svg_y(alpha: float) -> float:
    return (_SVG_HEIGHT - _SVG_MARGIN_BOTTOM) - alpha * (
        _SVG_HEIGHT - _SVG_MARGIN_TOP - _SVG_MARGIN_BOTTOM
    )


def emit_svg(curve, cells=None) -> str:
    """800x600 SVG: x = beta, y = alpha over [0,1]^2.

    ``curve`` is a sequence of (beta, alpha) pairs drawn as a polyline;
    ``cells`` (optional) are drawn underneath as squares shaded by success
    rate (darker = lower rate).  All coordinates use a fixed %.4f format so
    the output is byte-stable.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}"'
        f' height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    x0, x1 = _svg_x(0.0), _svg_x(1.0)
    y0, y1 = _svg_y(0.0), _svg_y(1.0)

    if cells:
        alphas = sorted({c.alpha for c in cells})
        betas = sorted({c.beta for c in cells})
        da = min(np.diff(alphas)) if len(alphas) > 1 else 0.04
        db = min(np.diff(betas)) if len(betas) > 1 else 0.04
        half_w = 0.45 * db * (x1 - x0)
        half_h = 0.45 * da * (y0 - y1)
        for cell in cells:
            shade = int(round(40 + 215 * cell.rate))
            cx, cy = _svg_x(cell.beta), _svg_y(cell.alpha)
            parts.append(
                f'<rect x="{cx - half_w:.4f}" y="{cy - half_h:.4f}"'
                f' width="{2 * half_w:.4f}" height="{2 * half_h:.4f}"'
                f' fill="rgb({shade},{shade},{shade})" stroke="#888888"'
                ' stroke-width="0.5"/>'
            )

    # axes and ticks
    parts.append(
        f'<line x1="{x0:.4f}" y1="{y0:.4f}" x2="{x1:.4f}" y2="{y0:.4f}"'
        ' stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0:.4f}" y1="{y0:.4f}" x2="{x0:.4f}" y2="{y1:.4f}"'
        ' stroke="black" stroke-width="1"/>'
    )
    for i in range(6):
        t = i / 5.0
        tx, ty = _svg_x(t), _svg_y(t)
        parts.append(
            f'<line x1="{tx:.4f}" y1="{y0:.4f}" x2="{tx:.4f}" y2="{y0 + 6:.4f}"'
            ' stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tx:.4f}" y="{y0 + 22:.4f}" font-family="monospace"'
            f' font-size="12" text-anchor="middle">{t:.1f}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 6:.4f}" y1="{ty:.4f}" x2="{x0:.4f}" y2="{ty:.4f}"'
            ' stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 10:.4f}" y="{ty + 4:.4f}" font-family="monospace"'
            f' font-size="12" text-anchor="end">{t:.1f}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.4f}" y="{_SVG_HEIGHT - 12:.4f}"'
        ' font-family="monospace" font-size="14" text-anchor="middle">beta = k/n</text>'
    )
    parts.append(
        f'<text x="{x0:.4f}" y="{y1 - 6:.4f}" font-family="monospace"'
        ' font-size="14" text-anchor="start">alpha = m/n</text>'
    )

    if curve:
        coords = " ".join(f"{_svg_x(b):.4f},{_svg_y(a):.4f}" for b, a in curve)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_outputs(args, bundle: ReportBundle) -> None:
    """The CSV (the JSON for a verb without one) to --out or stdout; --json/--svg to files."""
    table = bundle.json if bundle.csv is None else bundle.csv
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
    for flag in ("json", "svg"):
        path = getattr(args, flag, None)
        if path:
            Path(path).write_text(getattr(bundle, flag))


def _table(columns, rows) -> tuple[str, list[dict]]:
    """A table's CSV text and its JSON records, both keyed by ``columns``."""
    return emit_csv(columns, rows), [dict(zip(columns, row)) for row in rows]


def _load_matrix(path: str) -> np.ndarray:
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no numeric rows found")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_vector(path: str) -> np.ndarray:
    return _load_matrix(path).ravel()


def _parse_index_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of integers") from None


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} must look like start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"{flag} must look like start:stop:steps, got {text!r}") from None
    return _linear_grid(start, stop, steps, flag)


def _linear_grid(start: float, stop: float, steps: int, flag: str) -> tuple[float, ...]:
    """``steps`` evenly spaced values from start to stop; ``flag`` names them in errors."""
    if steps < 1:
        raise UsageError(f"{flag} needs at least 1 step")
    if steps == 1 and start != stop:
        raise UsageError(f"{flag} with 1 step requires start == stop")
    if steps > 1 and not start < stop:
        raise UsageError(f"{flag} requires start < stop")
    return tuple(float(v) for v in np.linspace(start, stop, steps))


def _regime_from(args) -> Regime:
    return Regime.SIGNED if getattr(args, "signed", False) else Regime.GENERAL


def _epsilon_from(args) -> EpsilonSet:
    try:
        return EpsilonSet(**{f.name: getattr(args, f.name) for f in fields(EpsilonSet)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_threshold(args) -> ReportBundle:
    regime = _regime_from(args)
    eps = _epsilon_from(args)
    if args.beta is not None:
        if args.beta_min is not None or args.beta_max is not None or args.steps is not None:
            raise UsageError("--beta conflicts with --beta-min/--beta-max/--steps")
        betas = [args.beta]
    else:
        if args.beta_min is None or args.beta_max is None or args.steps is None:
            raise UsageError("provide --beta or all of --beta-min, --beta-max, --steps")
        flag = "--beta-min:--beta-max:--steps"
        betas = _linear_grid(args.beta_min, args.beta_max, args.steps, flag)

    rows = []
    for beta in betas:
        theta_hat = solve_theta(regime, beta, eps, side=args.side)
        if eps.is_zero():
            alpha = theta_hat
        else:
            alpha = alpha_bound(regime, args.side, beta, theta_hat, eps)
        rows.append((beta, theta_hat, alpha))

    metadata = {
        "tool": "l1weak",
        "version": __version__,
        "command": "threshold",
        "regime": regime.value,
        "side": args.side,
        "eps": asdict(eps),
        "root_selection": "unique sign change: brentq on the whole residual domain",
    }
    csv_text, points = _table(_THRESHOLD_COLUMNS, rows)
    return ReportBundle(
        json=_emit_json({"metadata": metadata, "points": points}),
        csv=csv_text,
        svg=emit_svg([(b, a) for b, _, a in rows]),
    )


def _cmd_tau(args) -> ReportBundle:
    regime = _regime_from(args)
    matrix = _load_matrix(args.matrix)
    n = matrix.shape[1]
    support = _parse_index_list(args.support, "--support")
    if regime is Regime.SIGNED:
        if args.signs is not None:
            parsed = _parse_index_list(args.signs, "--signs")
            if any(s != 1 for s in parsed):
                raise UsageError("--signed requires --signs omitted or all +1")
        signs = (1,) * len(support)
    else:
        if args.signs is None:
            raise UsageError("--signs is required in the general regime")
        signs = _parse_index_list(args.signs, "--signs")
    try:
        pattern = SupportPattern(n=n, support=support, signs=signs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    v = classify_nsp(matrix, pattern, regime)
    return ReportBundle(json=_emit_json(v.certificate.json_payload(v.verdict)))


def _cmd_recover(args) -> ReportBundle:
    regime = Regime.SIGNED if args.nonneg else Regime.GENERAL
    matrix = _load_matrix(args.matrix)
    y = _load_vector(args.y)
    solution = solve_bp(BPProblem(A=matrix, y=y, regime=regime))
    payload = {
        "x_hat": [float(v) for v in solution.x_hat],
        "objective": float(solution.objective),
        "feas_residual": float(solution.feas_residual),
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
        "route": solution.route,
    }
    return ReportBundle(json=_emit_json(payload))


def _cmd_phase(args) -> ReportBundle:
    regime = _regime_from(args)
    alphas = _parse_grid(args.alpha_grid, "--alpha-grid")
    betas = _parse_grid(args.beta_grid, "--beta-grid")
    try:
        grid = PhaseGrid(
            n=args.n,
            alphas=alphas,
            betas=betas,
            trials_per_cell=args.trials,
            seed=args.seed,
            regime=regime,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cells = run_phase_grid(grid, threads=args.threads)
    if not cells:
        raise ValueError("every grid cell was infeasible (k < m < n never held)")

    csv_text, records = _table(
        _PHASE_COLUMNS, [[getattr(c, name) for name in _PHASE_COLUMNS] for c in cells]
    )
    for record, c in zip(records, cells):
        record["routes"] = c.diagnostics.routes()
        record["solver_iterations"] = {
            "total": c.diagnostics.iterations,
            "max": c.diagnostics.max_iterations,
        }
    metadata = {
        "tool": "l1weak",
        "version": __version__,
        "command": "phase",
        "regime": regime.value,
        "n": grid.n,
        "trials_per_cell": grid.trials_per_cell,
        "seed": grid.seed,
        "stream_order": "matrix, support, signs",
    }
    curve_betas = [round(0.05 * i, 2) for i in range(1, 20)]
    curve = [(beta, solve_theta(regime, beta)) for beta in curve_betas]
    return ReportBundle(
        json=_emit_json({"metadata": metadata, "cells": records}),
        csv=csv_text,
        svg=emit_svg(curve, cells),
    )


def _cmd_framework(args) -> ReportBundle:
    result = run_framework(n=args.n, beta=args.beta, samples=args.samples, seed=args.seed)
    csv_text, (record,) = _table([f.name for f in fields(result)], [astuple(result)])
    metadata = {
        "tool": "l1weak",
        "version": __version__,
        "command": "framework",
        "seed": int(args.seed),
        "head_weights": "all ones",
        "tail_sign": "subtracted, matching the dual set's fixed tail",
    }
    return ReportBundle(json=_emit_json({"metadata": metadata, "result": record}), csv=csv_text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1weak",
        description=(
            "Weak thresholds of l1 minimization: theoretical curves, null-space"
            " certificates, basis-pursuit solvers, and Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_threshold = sub.add_parser(
        "threshold", help="solve the weak-threshold characterization over beta"
    )
    p_threshold.add_argument("--beta", type=float, default=None)
    p_threshold.add_argument("--beta-min", type=float, default=None)
    p_threshold.add_argument("--beta-max", type=float, default=None)
    p_threshold.add_argument("--steps", type=int, default=None)
    p_threshold.add_argument("--signed", action="store_true")
    p_threshold.add_argument("--side", choices=["lower", "upper"], default="lower")
    for eps in fields(EpsilonSet):  # eps1_c -> --eps-1c
        flag = "--eps-" + eps.name.removeprefix("eps").replace("_", "")
        p_threshold.add_argument(flag, dest=eps.name, type=float, default=eps.default)
    p_threshold.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_threshold.add_argument("--json", default=None, help="also write the JSON document here")
    p_threshold.add_argument("--svg", default=None, help="write the curve plot here")

    p_tau = sub.add_parser("tau", help="null-space certificate for a concrete matrix")
    p_tau.add_argument("--matrix", required=True, help="CSV file, rows = matrix rows")
    p_tau.add_argument("--support", required=True, help="comma list of 0-based indices")
    p_tau.add_argument("--signs", default=None, help="comma list of +1/-1 (general regime)")
    p_tau.add_argument("--signed", action="store_true")
    p_tau.add_argument("--out", default=None, help="write the JSON here instead of stdout")

    p_recover = sub.add_parser("recover", help="basis pursuit on given (A, y)")
    p_recover.add_argument("--matrix", required=True)
    p_recover.add_argument("--y", required=True)
    p_recover.add_argument("--nonneg", action="store_true")
    p_recover.add_argument("--out", default=None, help="write the JSON here instead of stdout")

    p_phase = sub.add_parser("phase", help="Monte Carlo phase-transition grid")
    p_phase.add_argument("--n", type=int, required=True)
    p_phase.add_argument("--alpha-grid", required=True, help="start:stop:steps")
    p_phase.add_argument("--beta-grid", required=True, help="start:stop:steps")
    p_phase.add_argument("--trials", type=int, required=True)
    p_phase.add_argument("--seed", type=int, required=True)
    p_phase.add_argument("--signed", action="store_true")
    p_phase.add_argument("--threads", type=int, default=1, help="0 = one per usable CPU")
    p_phase.add_argument("--out", default=None)
    p_phase.add_argument("--json", default=None)
    p_phase.add_argument("--svg", default=None)

    p_framework = sub.add_parser(
        "framework", help="finite-n water-level estimates of the threshold"
    )
    p_framework.add_argument("--n", type=int, required=True)
    p_framework.add_argument("--beta", type=float, required=True)
    p_framework.add_argument("--samples", type=int, required=True)
    p_framework.add_argument("--seed", type=int, required=True)
    p_framework.add_argument("--out", default=None)
    p_framework.add_argument("--json", default=None)
    return parser


_HANDLERS = {
    "threshold": _cmd_threshold,
    "tau": _cmd_tau,
    "recover": _cmd_recover,
    "phase": _cmd_phase,
    "framework": _cmd_framework,
}


def dispatch(argv) -> tuple[int, ReportBundle | None]:
    """Parse argv, run the verb, write its outputs; return (code, bundle)."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), None
    try:
        bundle = _HANDLERS[args.verb](args)
        _write_outputs(args, bundle)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2, None
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    return 0, bundle


def main(argv=None) -> int:
    code, _ = dispatch(sys.argv[1:] if argv is None else argv)
    return code
