"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from framescale import (
    EllipticalModel,
    ExperimentConfig,
    FlowState,
    Frame,
    RadialLaw,
    SeedSpec,
    ShapePD,
    SolverConfig,
    error_report,
    estimator_from_scaling,
    gradient_flow_step,
    infty_expansion_exact,
    infty_implies_quantum_check,
    normalize_columns,
    pseudorandom_check,
    relative_op_error,
    run_convergence,
    run_diagnostics,
    run_expansion_survey,
    run_sample_complexity,
    sample_elliptical,
    sample_sphere_frame,
    scaling_from_estimator,
    size,
    solve_scaling,
    tyler_iterate,
)
from framescale.experiments import diagnostics_battery

from _oracles import damped_tyler


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")


def _estimation_battery():
    """50 seeded sphere-uniform inputs with d in {2,3,4} and n = 4d."""
    frames = []
    for stream in range(50):
        d = (2, 3, 4)[stream % 3]
        frames.append(sample_sphere_frame(d, 4 * d, SeedSpec(2024, stream)))
    return frames


def _balanced_battery():
    """20 exactly balanced frames with d <= 3 and even n <= 12."""
    frames = []
    for stream in range(20):
        d = 2 + stream % 2
        n = 4 + 2 * ((stream // 2) % 5)
        raw = sample_sphere_frame(d, n, SeedSpec(4096, stream))
        result = solve_scaling(raw, SolverConfig(tol=1e-10), method="flipflop")
        assert result.converged
        frames.append(result.frame)
    return frames


def test_criterion_01_fixed_point_exactness():
    start = time.perf_counter()
    worst_iters, worst_residual = 0, 0.0
    for d in range(1, 9):
        result = tyler_iterate(np.eye(d), tol=1e-12)
        worst_iters = max(worst_iters, result.iterations)
        worst_residual = max(worst_residual, result.residual)
        assert result.converged
    elapsed = time.perf_counter() - start
    ok = worst_iters <= 2 and worst_residual <= 1e-12 and elapsed < 1.0
    _report(1, "fixed-point exactness", ok,
            f"iters<={worst_iters} residual<={worst_residual:.2e} {elapsed:.2f}s")
    assert ok


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for frame in _estimation_battery():
        ours = tyler_iterate(frame.entries, tol=1e-12)
        assert ours.converged
        oracle, oracle_residual = damped_tyler(frame.entries, tol=1e-12)
        assert oracle_residual <= 1e-12
        worst = max(worst, float(np.linalg.norm(ours.sigma_hat.matrix - oracle)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(2, "oracle equivalence", ok, f"max gap {worst:.2e} {elapsed:.1f}s")
    assert ok


def test_criterion_03_scaling_estimator_correspondence():
    start = time.perf_counter()
    worst_gap, worst_ratio = 0.0, 0.0
    for frame in _estimation_battery():
        unit = normalize_columns(frame.entries)
        scaled = solve_scaling(unit, SolverConfig(tol=1e-11), method="flipflop")
        assert scaled.converged
        via_scaling = estimator_from_scaling(scaled.scaling.left)
        via_iteration = tyler_iterate(unit.entries, tol=1e-12)
        assert via_iteration.converged
        gap = float(np.linalg.norm(
            via_scaling.matrix - via_iteration.sigma_hat.matrix
        ))
        worst_gap = max(worst_gap, gap)
        pair = scaling_from_estimator(unit.entries, via_iteration.sigma_hat)
        rep = error_report(Frame(pair.apply(unit.entries)))
        worst_ratio = max(worst_ratio, rep.op_error / rep.size)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and worst_ratio <= 1e-6 and elapsed < 60.0
    _report(3, "scaling-estimator correspondence", ok,
            f"max gap {worst_gap:.2e} max op/s {worst_ratio:.2e} {elapsed:.1f}s")
    assert ok


def test_criterion_04_derivative_identities():
    start = time.perf_counter()
    output = run_diagnostics(master_seed=0, h=1e-6)
    elapsed = time.perf_counter() - start
    ok = output.passed and elapsed < 5.0
    _report(4, "derivative identities", ok,
            f"max rel {output.max_rel_error:.2e} {elapsed:.2f}s")
    assert ok


def test_criterion_05_size_monotonicity():
    start = time.perf_counter()
    config = SolverConfig(tol=1e-9)
    worst_rise = 0.0
    for label, frame in diagnostics_battery(0):
        state = FlowState.start(frame)
        prev = size(state.frame)
        for _ in range(1500):
            rep = error_report(state.frame)
            if rep.op_error <= config.tol * rep.size:
                break
            state = gradient_flow_step(state)
            current = size(state.frame)
            worst_rise = max(worst_rise, current - prev)
            prev = current
    elapsed = time.perf_counter() - start
    ok = worst_rise <= 1e-12
    _report(5, "size monotonicity along the flow", ok,
            f"max rise {worst_rise:.2e} {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def sample_complexity_sweep():
    cfg = ExperimentConfig(
        kind="sample-complexity", d=16, n_grid=(256, 512, 1024, 2048, 4096),
        trials=50, radial=RadialLaw.constant(), master_seed=20259,
    )
    start = time.perf_counter()
    output = run_sample_complexity(cfg)
    return output, time.perf_counter() - start


def test_criterion_06_sample_complexity_scaling(sample_complexity_sweep):
    output, elapsed = sample_complexity_sweep
    slope = output.summary["slope_loglog"]
    ratio = output.summary["median_ratio_first_to_last"]
    ok = -0.70 <= slope <= -0.30 and ratio >= 2.5 and elapsed < 600.0
    _report(6, "sample-complexity scaling", ok,
            f"slope {slope:.3f} ratio {ratio:.2f} {elapsed:.1f}s")
    assert ok


def test_criterion_07_distribution_freeness():
    start = time.perf_counter()
    outputs = []
    for radial in (RadialLaw.constant(), RadialLaw.gaussian_norm(),
                   RadialLaw.student_t(2.0)):
        cfg = ExperimentConfig(
            kind="sample-complexity", d=8, n_grid=(32, 64), trials=10,
            radial=radial, master_seed=777,
        )
        outputs.append(run_sample_complexity(cfg))
    columns = []
    for output in outputs:
        columns.append([
            line.split(",")[4]
            for line in output.csv_text.splitlines()
            if line and not line.startswith("#") and not line.startswith("d,")
        ])
    elapsed = time.perf_counter() - start
    ok = columns[0] == columns[1] == columns[2]
    _report(7, "distribution-freeness (bitwise)", ok,
            f"{len(columns[0])} rows {elapsed:.1f}s")
    assert ok


def test_criterion_07_invariance_to_drawn_radii():
    """The estimate from raw elliptical data equals the one from its unit
    columns; the data carry real radii, so the check is not vacuous."""
    start = time.perf_counter()
    shape = ShapePD.normalized(np.diag(np.geomspace(1.0, 10.0, 8)))
    worst = 0.0
    # smallest column-norm max/min ratio over the trials of each law
    spreads = {}
    for law in (RadialLaw.constant(), RadialLaw.gaussian_norm(),
                RadialLaw.student_t(2.0)):
        name = str(law)
        spreads[name] = math.inf
        for t in range(10):
            data = sample_elliptical(EllipticalModel(shape, law), 64,
                                     SeedSpec(777, t))
            norms = np.linalg.norm(data, axis=0)
            spreads[name] = min(spreads[name], norms.max() / norms.min())
            raw = tyler_iterate(data)
            unit = tyler_iterate(normalize_columns(data).entries)
            assert raw.converged and unit.converged, (name, t)
            worst = max(worst, relative_op_error(raw.sigma_hat, unit.sigma_hat))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and spreads["gaussian"] > 2.0 and spreads["t:2"] > 2.0
    _report(7, "distribution-freeness (drawn radii)", ok,
            f"worst rel_op_error {worst:.1e}, norm max/min gaussian "
            f"{spreads['gaussian']:.1f} t:2 {spreads['t:2']:.1f} {elapsed:.1f}s")
    assert ok


def test_criterion_08_linear_convergence():
    start = time.perf_counter()
    cfg = ExperimentConfig(kind="convergence", d=16, n_grid=(64,), trials=20,
                           master_seed=31337, tol=1e-8)
    output = run_convergence(cfg)
    good_tails = output.summary["tail_ratios_at_most_0.95"]
    max_rise = max(t["max_capacity_rise"] for t in output.summary["trials"])
    elapsed = time.perf_counter() - start
    ok = good_tails >= 18 and max_rise <= 1e-10 and elapsed < 120.0
    _report(8, "linear convergence", ok,
            f"tails {good_tails}/20 capacity rise {max_rise:.2e} {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def balanced_battery():
    return _balanced_battery()


def test_criterion_09_expansion_chain(balanced_battery):
    start = time.perf_counter()
    failures = []
    for idx, frame in enumerate(balanced_battery):
        report = infty_implies_quantum_check(frame)
        if not report.holds:
            failures.append((idx, report))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(9, "expansion chain", ok,
            f"{len(balanced_battery) - len(failures)}/"
            f"{len(balanced_battery)} instances {elapsed:.1f}s")
    assert ok, failures


def test_criterion_10_pseudorandom_infty_equivalence(balanced_battery):
    start = time.perf_counter()
    tol = 1e-9
    for frame in balanced_battery:
        rep = error_report(frame)
        s = rep.size
        eps = rep.op_error / s
        exact = infty_expansion_exact(frame)
        check = pseudorandom_check(frame, "1/2")
        forward_bound = min(s * (1 + eps) - check.alpha_min,
                            check.alpha_max - s * (1 - eps))
        assert frame.d * exact.sup <= forward_bound + tol * s
        lam = exact.lam
        assert s * (lam - eps) <= check.alpha_min + tol * s
        assert check.alpha_min <= check.alpha_max + tol * s
        assert check.alpha_max <= s * (2 - (lam - eps)) + tol * s
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(10, "pseudorandom-infty equivalence", ok,
            f"{len(balanced_battery)} instances {elapsed:.1f}s")
    assert ok


def test_criterion_11_random_frame_expansion():
    # Raw sphere frames expand only once n/d is large enough. As n grows,
    # lambda_infty tends to 1 - d*E|t - med t| with t ~ Beta(1/2, (d-1)/2):
    # 0.363 at d=2, 0.213 at d=4. At d=4 the median crosses zero near
    # n/d = 16, but exact enumeration stops at n <= 20 (INFTY_EXACT_MAX_N),
    # where every d=4 frame has lambda_infty < 0. d=2, n=16 (n/d = 8) is the
    # one exact size past the crossing. The survey adds its identity control
    # row only when 4 | d, so the control is computed here at the same d.
    start = time.perf_counter()
    cfg = ExperimentConfig(kind="expansion-survey", d=2, n_grid=(16,),
                           trials=100, master_seed=555, mode="exact")
    output = run_expansion_survey(cfg)
    control = infty_expansion_exact(Frame(np.eye(cfg.d))).lam
    lams = [r[7] for r in output.rows if r[2] >= 0]
    positives = sum(1 for lam in lams if lam > 0.0)
    elapsed = time.perf_counter() - start
    ok = len(lams) == 100 and control == 0.0 and positives >= 95
    _report(11, "random-frame expansion", ok,
            f"control lambda {control} positives {positives}/{len(lams)} "
            f"min lambda {min(lams):.3f} {elapsed:.1f}s")
    assert len(lams) == 100
    assert control == 0.0
    assert positives >= 95, (
        f"exact enumeration finds lambda_infty > 0 in {positives} of 100 "
        f"sphere-uniform trials at d=2, n=16 (minimum lambda_infty "
        f"{min(lams):.3f}); the threshold is 95"
    )


def test_criterion_12_determinism():
    start = time.perf_counter()
    pairs = []
    sc = ExperimentConfig(kind="sample-complexity", d=4, n_grid=(16, 32),
                          trials=4, master_seed=99)
    pairs.append((run_sample_complexity(sc).csv_text,
                  run_sample_complexity(sc).csv_text))
    cv = ExperimentConfig(kind="convergence", d=4, n_grid=(16,), trials=3,
                          master_seed=99, tol=1e-8)
    pairs.append((run_convergence(cv).csv_text, run_convergence(cv).csv_text))
    sv = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(8,), trials=3,
                          master_seed=99, mode="exact")
    pairs.append((run_expansion_survey(sv).csv_text,
                  run_expansion_survey(sv).csv_text))
    elapsed = time.perf_counter() - start
    ok = all(a == b for a, b in pairs)
    _report(12, "experiment determinism", ok, f"3 experiment kinds {elapsed:.1f}s")
    assert ok
