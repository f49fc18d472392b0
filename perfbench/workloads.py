"""Workloads of the framescale benchmark.

A unit is one public framescale call.  Its inputs depend only on the
workload seed and the unit index, so two runs with the same seed do the same
work in the same order.  Each workload splits a unit into three steps:

- ``inputs(index)`` builds the unit's arguments, outside the timed region;
- ``call(inputs)`` is the timed public call;
- ``check(inputs, output)`` returns the reasons the output is wrong (an empty
  list when it is right), outside the timed region;

and ``digest(output)`` gives the bytes that identify the unit's numbers, so
two commits can be compared for identical results.
"""

from __future__ import annotations

import math

import numpy as np

import framescale as fs
from framescale.experiments import ExperimentConfig, ShapeSpec

# Stream indices of the balance frames; far above the per-trial streams the
# sweeps draw from, so the two never meet.
_BALANCE_STREAM_BASE = 1 << 40
# Relative Frobenius gap allowed between scaling.apply(input) and the
# solver's frame.  The solvers accumulate round-off over a few hundred steps;
# on the balance frames the gap measures about 1e-15.
RECONSTRUCTION_RTOL = 1e-10


def unit_seed(seed: int, index: int) -> int:
    """Master seed of one unit: a function of the workload seed and index only."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0])


class Estimate:
    """One d=16 sample-complexity sweep (n = 256..4096, one trial per n)."""

    name = "estimate"
    cycle = 1
    N_GRID = (256, 512, 1024, 2048, 4096)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        """Nothing to draw ahead: each sweep draws its own data from its seed."""

    def inputs(self, index):
        return ExperimentConfig(
            kind="sample-complexity", d=16, n_grid=self.N_GRID, trials=1,
            radial=fs.RadialLaw.constant(), shape=ShapeSpec("identity"),
            master_seed=unit_seed(self.seed, index), tol=1e-10,
        )

    @staticmethod
    def call(cfg):
        return fs.run_sample_complexity(cfg)

    @classmethod
    def check(cls, cfg, out):
        problems = []
        if [row[1] for row in out.rows] != list(cls.N_GRID):
            problems.append(f"expected one row per n, got {len(out.rows)} rows")
        for row in out.rows:
            if not math.isfinite(row[4]):
                problems.append(f"n={row[1]}: rel_op_error is {row[4]}")
            if not row[6]:
                problems.append(f"n={row[1]}: converged=0")
        return problems

    @staticmethod
    def digest(out):
        return out.csv_text.encode()


class Balance:
    """solve_scaling on sphere frames drawn in set-up, cycling three configs."""

    name = "balance"
    # (method, d, n) in the order units cycle through them
    CONFIGS = (("flow", 16, 64), ("flipflop", 16, 4096), ("flipflop", 64, 1024))
    cycle = len(CONFIGS)
    # frames drawn per config; unit i uses frame (i // cycle) % POOL
    POOL = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.config = fs.SolverConfig()
        self.frames = None

    def prepare(self):
        self.frames = [
            [fs.sample_sphere_frame(d, n, fs.SeedSpec(
                self.seed, _BALANCE_STREAM_BASE + c * self.POOL + k))
             for k in range(self.POOL)]
            for c, (_, d, n) in enumerate(self.CONFIGS)
        ]

    def inputs(self, index):
        c = index % self.cycle
        frame = self.frames[c][(index // self.cycle) % self.POOL]
        return frame, self.CONFIGS[c][0]

    def call(self, inp):
        frame, method = inp
        return fs.solve_scaling(frame, self.config, method=method)

    def check(self, inp, result):
        frame, method = inp
        problems = []
        if not result.converged:
            problems.append(f"{method}: converged=False ({result.failure})")
        rep = fs.error_report(result.frame)
        if not rep.op_error / rep.size <= self.config.tol:
            problems.append(
                f"{method}: op_error/size {rep.op_error / rep.size:.3e} "
                f"above tol {self.config.tol:g}")
        rebuilt = result.scaling.apply(frame.entries)
        gap = float(np.linalg.norm(rebuilt - result.frame.entries)
                    / np.linalg.norm(result.frame.entries))
        if not gap <= RECONSTRUCTION_RTOL:
            problems.append(f"{method}: scaling.apply(input) is {gap:.3e} "
                            "away from the returned frame")
        return problems

    @staticmethod
    def digest(result):
        return b"".join((
            result.frame.entries.tobytes(), result.scaling.left.tobytes(),
            result.scaling.right.tobytes(), str(result.iterations).encode(),
        ))


class _Survey:
    """One run_expansion_survey call; subclasses set name, mode, d and n."""

    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        """Nothing to draw ahead: each survey draws its own frame from its seed."""

    def inputs(self, index):
        return ExperimentConfig(
            kind="expansion-survey", d=self.d, n_grid=(self.n,), trials=1,
            mode=self.mode, subsets=2000, master_seed=unit_seed(self.seed, index),
        )

    @staticmethod
    def call(cfg):
        return fs.run_expansion_survey(cfg)

    def check(self, cfg, out):
        problems = []
        for row in out.rows:
            lam, qmin, qmax, hmin, hmax = row[7:12]
            if not all(math.isfinite(v) for v in (lam, qmin, qmax, hmin, hmax)):
                problems.append(f"trial {row[2]}: non-finite certificate {row[7:12]}")
            if not (qmin <= qmax and hmin <= hmax):
                problems.append(f"trial {row[2]}: alpha_min above alpha_max")
        if self.mode == "exact":
            control = [row for row in out.rows if row[2] == -1]
            if len(control) != 1 or control[0][7] != 0.0:
                problems.append("exact survey: identity control row lambda_infty != 0")
        return problems

    @staticmethod
    def digest(out):
        return out.csv_text.encode()


class CertifyExact(_Survey):
    """Exact d=4, n=16 survey of one frame plus the identity control row."""

    name = "certify-exact"
    mode = "exact"
    d, n = 4, 16


class CertifySampled(_Survey):
    """Sampled d=8, n=64 survey of one frame with 2000 subsets per certificate."""

    name = "certify-sampled"
    mode = "sampled"
    d, n = 8, 64


WORKLOADS = {w.name: w for w in (Estimate, Balance, CertifyExact, CertifySampled)}
