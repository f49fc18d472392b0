#!/usr/bin/env python3
"""Expansion and pseudorandomness of random sphere frames.

Two sweeps: an exact enumeration at d=4, n=16 (with the identity control
row) and a sampled survey at d=8, n=64.  Writes both CSVs to results/ and
prints each sweep's wall time to stderr.
"""

import pathlib
import sys
import time

from framescale import ExperimentConfig, run_expansion_survey

MASTER_SEED = 555
OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main():
    OUT.mkdir(exist_ok=True)

    exact = ExperimentConfig(
        kind="expansion-survey", d=4, n_grid=(16,), trials=100,
        master_seed=MASTER_SEED, mode="exact",
    )
    start = time.perf_counter()
    output = run_expansion_survey(exact)
    print(f"exact sweep: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    path = OUT / "expansion_survey_exact.csv"
    path.write_text(output.csv_text, encoding="utf-8")
    print(f"wrote {path}")
    print(f"exact mode: lambda_infty > 0 in {output.summary['lambda_positive']}"
          f"/{output.summary['trials_total']} trials")

    sampled = ExperimentConfig(
        kind="expansion-survey", d=8, n_grid=(64,), trials=100,
        master_seed=MASTER_SEED, mode="sampled", subsets=2000,
    )
    start = time.perf_counter()
    output = run_expansion_survey(sampled)
    print(f"sampled sweep: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    path = OUT / "expansion_survey_sampled.csv"
    path.write_text(output.csv_text, encoding="utf-8")
    print(f"wrote {path}")
    print(f"sampled mode: lambda upper bound > 0 in "
          f"{output.summary['lambda_upper_bound_positive']}"
          f"/{output.summary['trials_total']}"
          f" trials")


if __name__ == "__main__":
    main()
