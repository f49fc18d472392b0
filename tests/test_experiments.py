import math

import numpy as np
import pytest
from scipy import stats

from framescale import (
    EllipticalModel,
    ExperimentConfig,
    Frame,
    RadialLaw,
    SeedSpec,
    ShapeSpec,
    infty_expansion_exact,
    normalize_columns,
    run_convergence,
    run_diagnostics,
    run_expansion_survey,
    run_sample_complexity,
    sample_sphere_frame,
)
from framescale.expansion import INFTY_EXACT_MAX_N, UnsupportedConfigError
from framescale import sampling
from framescale.experiments import _burn_in, _estimation_input, _tail_ratio
from framescale.scaling import pd_sqrt


def sc_config(**overrides):
    base = dict(kind="sample-complexity", d=4, n_grid=(16, 32), trials=6,
                master_seed=9)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sc_config(n_grid=(32, 16))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sc_config(trials=0)

    def test_shape_parse(self):
        assert ShapeSpec.parse("identity").kind == "identity"
        assert ShapeSpec.parse("cond:100").kappa == 100.0
        assert ShapeSpec.parse("random:5").seed == 5
        with pytest.raises(ValueError):
            ShapeSpec.parse("cond:0.5")
        for text in ("cond:inf", "cond:nan"):
            with pytest.raises(ValueError, match="finite kappa"):
                ShapeSpec.parse(text)

    def test_parameters_echo_their_own_value(self):
        for kappa in (4.0 / 3.0, 100.0):
            shape = ShapeSpec("cond", kappa=kappa)
            assert ShapeSpec.parse(str(shape)) == shape
        for nu in (2.0 / 3.0, 2.0):
            law = RadialLaw.student_t(nu)
            assert RadialLaw.parse(str(law)) == law
        for tol in (1.2345678e-9, 1e-10, 1e-8):
            echo = sc_config(tol=tol).echo(("tol",))
            assert float(echo.removeprefix("# tol=")) == tol

    def test_echo_keeps_the_short_form_that_round_trips(self):
        assert str(ShapeSpec.parse("cond:100")) == "cond:100"
        assert str(ShapeSpec("cond", kappa=4.0 / 3.0)) == "cond:1.3333333333333333"
        assert str(RadialLaw.student_t(2.0 / 3.0)) == "t:0.6666666666666666"
        assert sc_config(tol=1e-10).echo(("tol",)) == "# tol=1e-10"
        assert sc_config(tol=1e-8).echo(("tol",)) == "# tol=1e-08"

    def test_shape_materialize(self):
        diag = ShapeSpec.parse("cond:100").materialize(4)
        eigs = np.linalg.eigvalsh(diag.matrix)
        assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-10)
        rand = ShapeSpec.parse("random:5").materialize(3)
        assert np.trace(rand.matrix) == pytest.approx(3.0)


class TestSampleComplexity:
    def test_deterministic_csv(self):
        cfg = sc_config()
        assert run_sample_complexity(cfg).csv_text == \
            run_sample_complexity(cfg).csv_text

    def test_row_count_and_summary(self):
        cfg = sc_config()
        out = run_sample_complexity(cfg)
        assert len(out.rows) == 12
        assert set(out.summary["medians"]) == {"16", "32"}
        assert math.isfinite(out.summary["slope_loglog"])

    def test_radial_laws_share_error_column_bitwise(self):
        outs = [
            run_sample_complexity(sc_config(radial=radial))
            for radial in (RadialLaw.constant(), RadialLaw.gaussian_norm(),
                           RadialLaw.student_t(2.0))
        ]
        errors = [[r[4] for r in o.rows] for o in outs]
        assert errors[0] == errors[1] == errors[2]

    def test_shape_does_not_move_error_distribution(self):
        flat = run_sample_complexity(sc_config(d=8, n_grid=(64,), trials=30))
        skew = run_sample_complexity(
            sc_config(d=8, n_grid=(64,), trials=30,
                      shape=ShapeSpec.parse("cond:100"))
        )
        a = [r[4] for r in flat.rows]
        b = [r[4] for r in skew.rows]
        p = stats.mannwhitneyu(a, b, alternative="two-sided").pvalue
        assert p > 0.01

    def test_rejects_n_below_d(self):
        with pytest.raises(ValueError):
            run_sample_complexity(sc_config(d=8, n_grid=(4, 16)))

    def test_failed_trial_recorded_in_row(self, monkeypatch):
        import framescale.experiments as exp
        from framescale.frame import FrameError

        original = exp.tyler_iterate

        def flaky(data, *args, **kwargs):
            if flaky.calls == 1:
                flaky.calls += 1
                raise FrameError("synthetic failure")
            flaky.calls += 1
            return original(data, *args, **kwargs)

        flaky.calls = 0
        monkeypatch.setattr(exp, "tyler_iterate", flaky)
        out = run_sample_complexity(sc_config(n_grid=(16,), trials=3))
        assert len(out.rows) == 3
        failed = out.rows[1]
        assert math.isnan(failed[4]) and failed[6] is False
        assert math.isfinite(out.rows[0][4]) and math.isfinite(out.rows[2][4])


class TestEstimationInput:
    @pytest.mark.parametrize("shape", ["identity", "cond:100", "random:7"])
    def test_matches_normalized_shaped_directions(self, shape):
        cfg = sc_config(shape=ShapeSpec.parse(shape))
        sigma = cfg.shape.materialize(cfg.d)
        model = EllipticalModel(sigma, RadialLaw.constant())
        for n, trial in ((16, 0), (32, 3)):
            directions = sample_sphere_frame(cfg.d, n, SeedSpec(cfg.master_seed, trial))
            expected = normalize_columns(pd_sqrt(sigma.matrix) @ directions.entries)
            assert np.array_equal(_estimation_input(cfg, model, n, trial),
                                  expected.entries)

    def test_sweeps_take_one_root(self, monkeypatch):
        # the model keeps its root, and each sweep builds one model
        roots = []
        root = sampling.pd_sqrt
        monkeypatch.setattr(sampling, "pd_sqrt",
                            lambda mat: roots.append(1) or root(mat))
        run_sample_complexity(sc_config(n_grid=(16, 32), trials=3))
        assert len(roots) == 1
        run_convergence(ExperimentConfig(kind="convergence", d=4, n_grid=(16,),
                                         trials=3, master_seed=9, tol=1e-8))
        assert len(roots) == 2

    def test_sweeps_build_no_frame(self, monkeypatch):
        built = []
        init = Frame.__init__

        def counted(self, entries):
            built.append(1)
            init(self, entries)

        monkeypatch.setattr(Frame, "__init__", counted)
        run_sample_complexity(sc_config(n_grid=(16,), trials=2))
        run_convergence(ExperimentConfig(kind="convergence", d=4, n_grid=(16,),
                                         trials=2, master_seed=9, tol=1e-8))
        assert built == []


class TestConvergence:
    def test_rows_and_tail(self):
        cfg = ExperimentConfig(kind="convergence", d=4, n_grid=(16,), trials=3,
                               master_seed=9, tol=1e-8)
        out = run_convergence(cfg)
        trials = {r[0] for r in out.rows}
        assert trials == {0, 1, 2}
        for ts in out.summary["trials"]:
            assert ts["converged"]
            assert ts["tail_ratio"] <= 0.95
            assert ts["max_capacity_rise"] <= 1e-10
        assert out.summary["tail_ratios_at_most_0.95"] == 3

    def test_gap_column_decreases_to_limit(self):
        cfg = ExperimentConfig(kind="convergence", d=3, n_grid=(12,), trials=1,
                               master_seed=4, tol=1e-8)
        out = run_convergence(cfg)
        gaps = [r[2] for r in out.rows]
        assert gaps[0] > gaps[-1]
        assert gaps[-1] < 1e-6

    def test_tail_ratio_needs_two_gaps_above_the_floor(self):
        assert _tail_ratio([1.0, 0.5]) == 0.5
        assert math.isnan(_tail_ratio([1.0, 1e-14, 0.0]))

    def test_burn_in_without_five_drops_is_the_whole_path(self):
        assert _burn_in([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]) == 1
        assert _burn_in([6.0, 5.0, 4.0, 3.0, 2.0, 2.0]) == 6

    def test_single_n_required(self):
        with pytest.raises(ValueError):
            run_convergence(ExperimentConfig(
                kind="convergence", d=4, n_grid=(16, 32), trials=2,
            ))

    def test_deterministic(self):
        cfg = ExperimentConfig(kind="convergence", d=4, n_grid=(16,), trials=2,
                               master_seed=9, tol=1e-8)
        assert run_convergence(cfg).csv_text == run_convergence(cfg).csv_text


class TestExpansionSurvey:
    def test_exact_control_row(self):
        cfg = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(8,),
                               trials=3, master_seed=2, mode="exact")
        out = run_expansion_survey(cfg)
        control = out.rows[0]
        assert control[2] == -1
        assert control[7] == 0.0  # identity frame expansion constant
        assert len(out.rows) == 4

    def test_sampled_mode(self):
        cfg = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(24,),
                               trials=2, master_seed=2, mode="sampled",
                               subsets=50)
        out = run_expansion_survey(cfg)
        assert all(r[12] == "sampled" for r in out.rows)
        assert len(out.rows) == 2

    def test_sampled_summary_names_upper_bounds(self):
        cfg = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(8,),
                               trials=2, master_seed=2, mode="sampled",
                               subsets=40)
        out = run_expansion_survey(cfg)
        lines = out.csv_text.splitlines()
        assert not any(line.startswith("# lambda_positive=") for line in lines)
        assert lines[-1].startswith("# lambda_upper_bound_positive=")
        assert "lambda_positive" not in out.summary
        assert out.summary["trials_total"] == 2

    def test_rejects_bad_n(self):
        cfg = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(10,),
                               trials=1, master_seed=2, mode="exact")
        with pytest.raises(UnsupportedConfigError):
            run_expansion_survey(cfg)

    def test_exact_limit_matches_infty_expansion(self):
        # the survey and the certificate it calls reject the same n
        def rejects(call):
            try:
                call()
            except UnsupportedConfigError:
                return True
            return False

        for n in (INFTY_EXACT_MAX_N, INFTY_EXACT_MAX_N + 4):
            cfg = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(n,),
                                   trials=1, master_seed=2, mode="exact")
            frame = sample_sphere_frame(4, n, SeedSpec(2, 0))
            assert rejects(lambda: run_expansion_survey(cfg)) \
                == rejects(lambda: infty_expansion_exact(frame)) \
                == (n > INFTY_EXACT_MAX_N)

    def test_deterministic(self):
        cfg = ExperimentConfig(kind="expansion-survey", d=4, n_grid=(8,),
                               trials=2, master_seed=2, mode="sampled",
                               subsets=40)
        assert run_expansion_survey(cfg).csv_text == \
            run_expansion_survey(cfg).csv_text


class TestDiagnostics:
    def test_battery_passes_gate(self):
        out = run_diagnostics(master_seed=0)
        assert out.passed
        assert len(out.rows) == 30  # ten frames, three checks each
        assert out.max_rel_error <= 1e-3

    def test_scaled_members_present(self):
        from framescale.experiments import diagnostics_battery

        labels = [label for label, _ in diagnostics_battery(0)]
        assert "balanced_identity" in labels
        assert "two_heavy_scaled" in labels
        assert len(labels) == 10
