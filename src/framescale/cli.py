"""Command-line harness.

Subcommands: estimate, scale, expansion, experiment {sample-complexity,
convergence, expansion-survey}, diagnose derivatives.  Sweeps exit 0 even
when individual trials fail; nonzero exit codes mean configuration or I/O
errors (2) or a failed diagnostics gate (1).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .expansion import build_expansion_report, UnsupportedConfigError, \
    BalanceRequiredError
from .experiments import (
    ExperimentConfig,
    ShapeSpec,
    run_convergence,
    run_diagnostics,
    run_expansion_survey,
    run_sample_complexity,
)
from .frame import FrameError, error_report, load_frame, read_matrix_text
from .sampling import RadialLaw, SeedSpec, sample_sphere_frame
from .scaling import SolverConfig, solve_scaling
from .tyler import result_to_json, tyler_iterate

__all__ = ["main", "build_parser"]

_TRAJECTORY_HEADER = "time,size,op_error_E,op_error_F,delta,int_E_op,int_F_op"
# the scaling trajectory CSV has a row every this many steps, then the final state
_TRAJECTORY_EVERY = 10


def _parse_n_grid(text):
    try:
        grid = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n grid {text!r}") from exc
    if not grid:
        raise argparse.ArgumentTypeError("empty n grid")
    return grid


def _radial(text):
    try:
        return RadialLaw.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _shape(text):
    try:
        return ShapeSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _beta(text):
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad beta {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Tyler's shape estimator, frame scaling, and expansion "
                    "certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run the shape estimator on a data file")
    est.add_argument("--input", required=True, help="matrix in the frame text format")
    est.add_argument("--tol", type=float, default=1e-10)
    est.add_argument("--max-iters", type=int, default=None)
    est.add_argument("--json", default=None, help="output path (default stdout)")
    est.set_defaults(func=_cmd_estimate)

    sca = sub.add_parser("scale", help="compute a doubly balancing scaling")
    sca.add_argument("--input", required=True)
    sca.add_argument("--method", choices=("flipflop", "flow"), default="flipflop")
    sca.add_argument("--tol", type=float, default=1e-8)
    sca.add_argument("--max-iters", type=int, default=100_000)
    sca.add_argument("--csv", default=None, help="trajectory checkpoint CSV")
    sca.add_argument("--json", default=None, help="summary path (default stdout)")
    sca.set_defaults(func=_cmd_scale)

    exp = sub.add_parser("expansion", help="expansion certificates for a frame")
    exp.add_argument("--input", default=None)
    exp.add_argument("--d", type=int, default=None)
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    exp.add_argument("--beta", type=_beta, default=Fraction(1, 2))
    exp.add_argument("--subsets", type=int, default=2000)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--json", default=None)
    exp.set_defaults(func=_cmd_expansion)

    runner = sub.add_parser("experiment", help="Monte Carlo sweeps")
    runner_sub = runner.add_subparsers(dest="experiment", required=True)

    samp = runner_sub.add_parser("sample-complexity")
    _sweep_flags(samp)
    samp.add_argument("--n-grid", type=_parse_n_grid, required=True,
                      metavar="A,B,C")
    samp.set_defaults(func=_cmd_sample_complexity)

    conv = runner_sub.add_parser("convergence")
    _sweep_flags(conv)
    conv.add_argument("--n", type=int, required=True)
    conv.set_defaults(func=_cmd_convergence)

    surv = runner_sub.add_parser("expansion-survey")
    surv.add_argument("--d", type=int, required=True)
    surv.add_argument("--n-grid", type=_parse_n_grid, required=True,
                      metavar="A,B,C")
    surv.add_argument("--trials", type=int, default=100)
    surv.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    surv.add_argument("--subsets", type=int, default=2000)
    surv.add_argument("--seed", type=int, default=0)
    surv.add_argument("--csv", default=None)
    surv.add_argument("--json", default=None)
    surv.set_defaults(func=_cmd_survey)

    diag = sub.add_parser("diagnose", help="consistency diagnostics")
    diag_sub = diag.add_subparsers(dest="diagnostic", required=True)
    deriv = diag_sub.add_parser("derivatives")
    deriv.add_argument("--seed", type=int, default=0)
    deriv.add_argument("--h", type=float, default=1e-6)
    deriv.add_argument("--json", default=None)
    deriv.set_defaults(func=_cmd_diagnose)

    return parser


def _sweep_flags(cmd):
    cmd.add_argument("--d", type=int, required=True)
    cmd.add_argument("--trials", type=int, default=50)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--radial", type=_radial, default=RadialLaw.constant())
    cmd.add_argument("--shape", type=_shape, default=ShapeSpec("identity"))
    cmd.add_argument("--tol", type=float, default=1e-10)
    cmd.add_argument("--csv", default=None)
    cmd.add_argument("--json", default=None)


def _emit(text, path):
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_sweep(output, args):
    _emit(output.csv_text, args.csv)
    if args.json is not None:
        _emit(json.dumps(output.summary, indent=2), args.json)


def _cmd_estimate(args):
    matrix, _ = read_matrix_text(args.input)
    capacities = []
    result = tyler_iterate(
        matrix, tol=args.tol, max_iters=args.max_iters,
        observe=lambda t, sigma, cap, res: capacities.append(cap),
    )
    _emit(result_to_json(result, capacities), args.json)
    return 0


def _trajectory_row(time, rep, int_iso, int_norm):
    values = (time, rep.size, rep.op_isotropy, rep.op_norm, rep.l2_error,
              int_iso, int_norm)
    return ",".join(f"{v:.17g}" for v in values)


def _cmd_scale(args):
    frame = load_frame(args.input)
    config = SolverConfig(tol=args.tol, max_iters=args.max_iters)
    observe = None
    if args.csv is not None:
        rows = []
        last = None

        def observe(t, *point):
            nonlocal last
            last = point
            if t % _TRAJECTORY_EVERY == 0:
                rows.append(_trajectory_row(*point))
                last = None

    result = solve_scaling(frame, config, method=args.method, observe=observe)
    if args.csv is not None:
        if not result.iterations:
            last = (0.0, error_report(frame), 0.0, 0.0)
        if last is not None:
            rows.append(_trajectory_row(*last))
        _emit(_TRAJECTORY_HEADER + "\n" + "\n".join(rows) + "\n", args.csv)
    summary = {
        "method": result.method,
        "converged": result.converged,
        "iterations": result.iterations,
        "final_ratio": result.final_ratio,
        "left": [float(x) for x in result.scaling.left.ravel()],
        "right": [float(x) for x in result.scaling.right],
        "scaling_bound": result.scaling_bound,
        "failure": result.failure,
    }
    _emit(json.dumps(summary, indent=2), args.json)
    return 0


def _cmd_expansion(args):
    if args.input is not None:
        frame = load_frame(args.input)
    elif args.d is not None and args.n is not None:
        frame = sample_sphere_frame(args.d, args.n, SeedSpec(args.seed, 0))
    else:
        raise UnsupportedConfigError("provide --input or both --d and --n")
    report = build_expansion_report(
        frame, mode=args.mode, beta=args.beta, trials=args.subsets,
        seed=SeedSpec(args.seed, 1),
    )
    _emit(report.to_json(), args.json)
    return 0


def _sweep_config(args, kind, n_grid):
    return ExperimentConfig(
        kind=kind,
        d=args.d,
        n_grid=n_grid,
        trials=args.trials,
        radial=args.radial,
        shape=args.shape,
        master_seed=args.seed,
        tol=args.tol,
    )


def _cmd_sample_complexity(args):
    cfg = _sweep_config(args, "sample-complexity", args.n_grid)
    _emit_sweep(run_sample_complexity(cfg), args)
    return 0


def _cmd_convergence(args):
    cfg = _sweep_config(args, "convergence", (args.n,))
    _emit_sweep(run_convergence(cfg), args)
    return 0


def _cmd_survey(args):
    cfg = ExperimentConfig(
        kind="expansion-survey",
        d=args.d,
        n_grid=args.n_grid,
        trials=args.trials,
        master_seed=args.seed,
        mode=args.mode,
        subsets=args.subsets,
    )
    _emit_sweep(run_expansion_survey(cfg), args)
    return 0


def _cmd_diagnose(args):
    output = run_diagnostics(args.seed, args.h)
    lines = ["frame,check,analytic,finite_difference,rel_error,ok"]
    for label, check, analytic, fd, rel, ok in output.rows:
        lines.append(
            f"{label},{check},{analytic:.17g},{fd:.17g},{rel:.17g},{int(ok)}"
        )
    lines.append(f"# max_rel_error={output.max_rel_error:.17g}")
    lines.append(f"# status={'PASS' if output.passed else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.json)
    if args.json is not None:
        print("PASS" if output.passed else "FAIL")
    return 0 if output.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (UnsupportedConfigError, BalanceRequiredError, FrameError,
            ValueError, OSError) as exc:
        print(f"framescale: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
