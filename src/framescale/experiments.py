"""Desk-scale experiment harness.

Each runner is a pure function of its config: identical configs produce
byte-identical CSV text.  Per-trial failures (non-convergence, degenerate
samples) become structured rows and never abort a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expansion import (
    INFTY_EXACT_MAX_N,
    PSEUDO_EXACT_MAX_SUBSETS,
    infty_expansion_exact,
    infty_expansion_sampled,
    pseudorandom_check,
    UnsupportedConfigError,
)
from .frame import Frame, FrameError, column_square_norms, error_report
from .sampling import EllipticalModel, RadialLaw, SeedSpec, float_text, \
    sample_elliptical, sample_sphere_frame, sample_gaussian_frame
from .scaling import SolverConfig, derivative_diagnostics, solve_scaling
from .tyler import ShapePD, relative_op_error, tyler_iterate

__all__ = [
    "ShapeSpec",
    "ExperimentConfig",
    "SweepOutput",
    "DiagnosticsOutput",
    "run_sample_complexity",
    "run_convergence",
    "run_expansion_survey",
    "run_diagnostics",
    "diagnostics_battery",
]

# Maximum relative error tolerated by the derivative diagnostics gate.
DIAGNOSTICS_GATE = 1e-3
_SURVEY_STREAM_BASE = 1 << 32


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class ShapeSpec:
    """Ground-truth shape family: identity, fixed-condition diagonal, or a
    seeded random PD matrix."""

    kind: str
    kappa: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "cond", "random"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "cond" and (self.kappa is None
                                    or not 1 < self.kappa < math.inf):
            raise ValueError("cond shape needs a finite kappa > 1")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random shape needs a seed")

    @classmethod
    def parse(cls, text: str) -> "ShapeSpec":
        """Parse 'identity', 'cond:K', or 'random:SEED'."""
        if text == "identity":
            return cls("identity")
        if text.startswith("cond:"):
            return cls("cond", kappa=float(text[5:]))
        if text.startswith("random:"):
            return cls("random", seed=int(text[7:]))
        raise ValueError(f"cannot parse shape {text!r}")

    def __str__(self):
        if self.kind == "cond":
            return f"cond:{float_text(self.kappa)}"
        if self.kind == "random":
            return f"random:{self.seed}"
        return self.kind

    def materialize(self, d: int) -> ShapePD:
        if self.kind == "identity":
            return ShapePD.identity(d)
        if self.kind == "cond":
            return ShapePD.normalized(np.diag(np.geomspace(1.0, self.kappa, d)))
        gen = SeedSpec(self.seed, 0).generator()
        square = gen.standard_normal((d, d))
        return ShapePD.normalized(square @ square.T)


@dataclass
class ExperimentConfig:
    """Settings of one sweep; each runner reads the fields it needs.

    ``kind`` names the experiment.  No runner reads it; it stays because
    the benchmark workloads in ``perfbench/workloads.py`` pass it.
    """

    kind: str
    d: int
    n_grid: tuple
    trials: int
    radial: RadialLaw = field(default_factory=RadialLaw.constant)
    shape: ShapeSpec = ShapeSpec("identity")
    master_seed: int = 0
    tol: float = 1e-10
    mode: str = "exact"
    subsets: int = 2000

    def __post_init__(self):
        self.n_grid = tuple(int(n) for n in self.n_grid)
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.subsets < 1:
            raise ValueError("subsets must be at least 1")

    def echo(self, fields) -> str:
        parts = []
        for name in fields:
            value = getattr(self, name)
            if name == "n_grid":
                value = ",".join(str(n) for n in value)
            elif name == "tol":
                value = float_text(value)
            parts.append(f"{name}={value}")
        return "# " + " ".join(parts)


@dataclass
class SweepOutput:
    csv_text: str
    summary: dict
    rows: list


@dataclass
class DiagnosticsOutput:
    rows: list
    passed: bool
    max_rel_error: float


def _estimation_input(cfg, model, n, trial):
    """Estimator input for one trial: unit columns of shaped directions.

    The radial scalars of the elliptical model cancel exactly under column
    normalization, so a sweep builds one model with the constant law, which
    serves every radial law bit for bit.  The plain array it returns is
    validated by ``tyler_iterate`` alone.
    """
    data = sample_elliptical(model, n, SeedSpec(cfg.master_seed, trial))
    return data / np.sqrt(column_square_norms(data))


def run_sample_complexity(cfg: ExperimentConfig) -> SweepOutput:
    """Relative estimation error versus sample count, one row per trial."""
    sigma = cfg.shape.materialize(cfg.d)
    model = EllipticalModel(sigma, RadialLaw.constant())
    lines = [
        "# framescale experiment=sample-complexity",
        cfg.echo(("d", "n_grid", "trials", "radial", "shape", "master_seed", "tol")),
        "d,n,trial,seed,rel_op_error,iterations,converged",
    ]
    rows = []
    for n in cfg.n_grid:
        if n < cfg.d:
            raise ValueError(f"every n must be at least d={cfg.d}, got {n}")
        for trial in range(cfg.trials):
            try:
                data = _estimation_input(cfg, model, n, trial)
                result = tyler_iterate(data, tol=cfg.tol)
                err = relative_op_error(sigma, result.sigma_hat)
                row = (cfg.d, n, trial, cfg.master_seed, err,
                       result.iterations, result.converged)
            except FrameError:
                row = (cfg.d, n, trial, cfg.master_seed, math.nan, 0, False)
            rows.append(row)
            lines.append(",".join(_fmt(v) for v in row))
    medians = {}
    for n in cfg.n_grid:
        errs = [r[4] for r in rows if r[1] == n and math.isfinite(r[4])]
        medians[n] = float(np.median(errs)) if errs else math.nan
        lines.append(f"# median n={n} rel_op_error={_fmt(medians[n])}")
    slope = math.nan
    if len(cfg.n_grid) >= 2 and all(math.isfinite(m) for m in medians.values()):
        slope = float(np.polyfit(
            np.log([float(n) for n in cfg.n_grid]),
            np.log([medians[n] for n in cfg.n_grid]), 1,
        )[0])
    ratio = math.nan
    first, last = medians[cfg.n_grid[0]], medians[cfg.n_grid[-1]]
    if math.isfinite(first) and math.isfinite(last) and last > 0:
        ratio = first / last
    lines.append(f"# slope_loglog={_fmt(slope)}")
    lines.append(f"# median_ratio_first_to_last={_fmt(ratio)}")
    summary = {"medians": {str(n): medians[n] for n in cfg.n_grid},
               "slope_loglog": slope, "median_ratio_first_to_last": ratio}
    return SweepOutput(csv_text="\n".join(lines) + "\n", summary=summary, rows=rows)


def _tail_ratio(gaps, window=21, floor=1e-13):
    start = max(0, len(gaps) - window)
    seg = [g for g in gaps[start:] if g > floor]
    if len(seg) < 2 or seg[0] <= floor:
        return math.nan
    return float((seg[-1] / seg[0]) ** (1.0 / (len(seg) - 1)))


def _burn_in(gaps, run=5):
    drops = 0
    for t in range(1, len(gaps)):
        drops = drops + 1 if gaps[t] < gaps[t - 1] else 0
        if drops >= run:
            return t - run + 1
    return len(gaps)


def run_convergence(cfg: ExperimentConfig) -> SweepOutput:
    """Per-iteration distance to the estimator for repeated trials at one n."""
    if len(cfg.n_grid) != 1:
        raise ValueError("convergence experiment takes a single n")
    n = cfg.n_grid[0]
    if n < 2 * cfg.d:
        raise ValueError(f"convergence experiment needs n >= 2d, got n={n}")
    model = EllipticalModel(cfg.shape.materialize(cfg.d), RadialLaw.constant())
    lines = [
        "# framescale experiment=convergence",
        cfg.echo(("d", "n_grid", "trials", "radial", "shape", "master_seed", "tol")),
        "trial,iter,frobenius_gap_to_limit,capacity,residual",
    ]
    rows = []
    trial_summaries = []
    for trial in range(cfg.trials):
        data = _estimation_input(cfg, model, n, trial)
        path = []
        result = tyler_iterate(data, tol=cfg.tol,
                               observe=lambda *point: path.append(point))
        refined = tyler_iterate(
            data, tol=min(cfg.tol, 1e-12) * 1e-2,
            initial=result.sigma_hat,
        )
        limit = refined.sigma_hat.matrix
        gaps = [float(np.linalg.norm(sigma - limit)) for _, sigma, _, _ in path]
        for (t, _, cap, res), gap in zip(path, gaps):
            row = (trial, t, gap, cap, res)
            rows.append(row)
            lines.append(",".join(_fmt(v) for v in row))
        caps = [cap for _, _, cap, _ in path]
        max_rise = max(
            (caps[t + 1] - caps[t] for t in range(len(caps) - 1)), default=0.0
        )
        trial_summaries.append({
            "trial": trial,
            "converged": result.converged,
            "iterations": result.iterations,
            "burn_in": _burn_in(gaps),
            "tail_ratio": _tail_ratio(gaps),
            "max_capacity_rise": max_rise,
        })
    for ts in trial_summaries:
        lines.append(
            f"# trial={ts['trial']} converged={int(ts['converged'])} "
            f"iterations={ts['iterations']} burn_in={ts['burn_in']} "
            f"tail_ratio={_fmt(ts['tail_ratio'])} "
            f"max_capacity_rise={_fmt(ts['max_capacity_rise'])}"
        )
    good = sum(1 for ts in trial_summaries
               if math.isfinite(ts["tail_ratio"]) and ts["tail_ratio"] <= 0.95)
    lines.append(f"# tail_ratios_at_most_0.95={good}/{cfg.trials}")
    summary = {"trials": trial_summaries, "tail_ratios_at_most_0.95": good}
    return SweepOutput(csv_text="\n".join(lines) + "\n", summary=summary, rows=rows)


def _survey_certificates(frame, cfg, streams):
    if cfg.mode == "exact":
        lam = infty_expansion_exact(frame).lam
        quarter = pseudorandom_check(frame, Fraction(1, 4), mode="exact")
        half = pseudorandom_check(frame, Fraction(1, 2), mode="exact")
    else:
        lam = infty_expansion_sampled(frame, cfg.subsets, streams[0]).lam
        quarter = pseudorandom_check(frame, Fraction(1, 4), mode="sampled",
                                     trials=cfg.subsets, seed=streams[1])
        half = pseudorandom_check(frame, Fraction(1, 2), mode="sampled",
                                  trials=cfg.subsets, seed=streams[2])
    return lam, quarter, half


def run_expansion_survey(cfg: ExperimentConfig) -> SweepOutput:
    """Expansion and pseudorandomness of sphere-uniform frames.

    In exact mode with d divisible by 4, a control row (trial -1) holding
    the identity frame is prepended; its expansion constant is exactly zero.
    The identity frame has n = d, and its beta=1/4 column needs 4 | n, so
    for other d no control row is written.

    The summary counts trials with lambda_infty > 0 as ``lambda_positive``
    in exact mode; in sampled mode the count is of upper bounds, and is
    named ``lambda_upper_bound_positive``.
    """
    for n in cfg.n_grid:
        if n % 4:
            raise UnsupportedConfigError(
                f"survey needs n divisible by 4 for the beta=1/4 and 1/2 "
                f"columns, got n={n}"
            )
        if cfg.mode == "exact":
            if (n > INFTY_EXACT_MAX_N
                    or math.comb(n, n // 2) > PSEUDO_EXACT_MAX_SUBSETS):
                raise UnsupportedConfigError(
                    f"exact survey enumeration infeasible at n={n}"
                )
    lines = [
        "# framescale experiment=expansion-survey",
        cfg.echo(("d", "n_grid", "trials", "mode", "subsets", "master_seed")),
        "d,n,trial,seed,size,op_ratio,balanced,lambda_infty,"
        "alpha_min_quarter,alpha_max_quarter,alpha_min_half,alpha_max_half,mode",
    ]
    rows = []

    def emit(frame, n, trial, streams):
        rep = error_report(frame)
        ratio = rep.op_error / rep.size
        balanced = ratio <= 5.0 * math.sqrt(frame.d / frame.n)
        lam, quarter, half = _survey_certificates(frame, cfg, streams)
        row = (frame.d, n, trial, cfg.master_seed, rep.size, ratio, balanced,
               lam, quarter.alpha_min, quarter.alpha_max,
               half.alpha_min, half.alpha_max, cfg.mode)
        rows.append(row)
        lines.append(",".join(
            v if isinstance(v, str) else _fmt(v) for v in row
        ))

    if cfg.mode == "exact" and cfg.d % 4 == 0:
        emit(Frame(np.eye(cfg.d)), cfg.d, -1, None)
    for n in cfg.n_grid:
        for trial in range(cfg.trials):
            frame = sample_sphere_frame(cfg.d, n, SeedSpec(cfg.master_seed, trial))
            streams = tuple(
                SeedSpec(cfg.master_seed, _SURVEY_STREAM_BASE + 4 * trial + k)
                for k in range(3)
            )
            emit(frame, n, trial, streams)
    positive = sum(1 for r in rows if r[2] >= 0 and r[7] > 0.0)
    total = sum(1 for r in rows if r[2] >= 0)
    key = "lambda_positive" if cfg.mode == "exact" else "lambda_upper_bound_positive"
    lines.append(f"# {key}={positive}/{total}")
    summary = {key: positive, "trials_total": total}
    return SweepOutput(csv_text="\n".join(lines) + "\n", summary=summary, rows=rows)


def diagnostics_battery(master_seed: int):
    """Ten labelled frames spanning balanced, degenerate, and random cases."""
    mercedes = np.array([
        [0.0, -math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0],
        [1.0, -0.5, -0.5],
    ])
    two_heavy = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    angles = np.deg2rad([0.0, 45.0, 90.0, 135.0])
    equiangular = np.vstack([np.cos(angles), np.sin(angles)])
    lopsided = np.array([[3.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.05, -1.0]])
    rebalanced = solve_scaling(
        sample_sphere_frame(3, 8, SeedSpec(master_seed, 103)),
        SolverConfig(tol=1e-12),
        method="flipflop",
    ).frame
    return [
        ("balanced_identity", Frame(np.eye(3) / math.sqrt(3.0))),
        ("scaled_identity", Frame(10.0 * np.eye(3))),
        ("two_heavy_one_light", Frame(two_heavy)),
        ("two_heavy_scaled", Frame(10.0 * two_heavy)),
        ("mercedes", Frame(mercedes)),
        ("equiangular4", Frame(equiangular)),
        ("lopsided", Frame(lopsided)),
        ("sphere_d3n9", sample_sphere_frame(3, 9, SeedSpec(master_seed, 101))),
        ("gaussian_d4n12",
         sample_gaussian_frame(4, 12, 1.0 / 48.0, SeedSpec(master_seed, 102))),
        ("rebalanced_random", rebalanced),
    ]


def run_diagnostics(master_seed: int, h: float = 1e-6) -> DiagnosticsOutput:
    """Derivative-identity checks over the battery seeded by ``master_seed``.

    Fails when any relative error exceeds 1e-3 at finite-difference step h.
    """
    rows = []
    worst = 0.0
    for label, frame in diagnostics_battery(master_seed):
        report = derivative_diagnostics(frame, h)
        for check in report.checks:
            ok = check.rel_error <= DIAGNOSTICS_GATE
            rows.append((label, check.name, check.analytic,
                         check.finite_difference, check.rel_error, ok))
            worst = max(worst, check.rel_error)
    return DiagnosticsOutput(
        rows=rows,
        passed=worst <= DIAGNOSTICS_GATE,
        max_rel_error=worst,
    )
