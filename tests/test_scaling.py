import dataclasses
import math
import time

import numpy as np
import pytest

from framescale import (
    Frame,
    FlowState,
    ScalingPair,
    SolverConfig,
    derivative_diagnostics,
    error_report,
    flip_flop_step,
    gradient_flow_step,
    op_norm_symmetric,
    sample_sphere_frame,
    size,
    solve_scaling,
    SeedSpec,
)
from framescale import frame as frame_module
from framescale import scaling
from framescale.experiments import diagnostics_battery
from framescale.scaling import IllConditionedError, pd_inv_sqrt, pd_sqrt

TWO_HEAVY = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def mercedes():
    ang = np.deg2rad([90.0, 210.0, 330.0])
    return Frame(np.vstack([np.cos(ang), np.sin(ang)]))


class TestPDRoots:
    def test_sqrt_inverse_consistency(self):
        gen = np.random.default_rng(0)
        mat = gen.standard_normal((4, 4))
        spd = mat @ mat.T + 4 * np.eye(4)
        root = pd_sqrt(spd)
        inv_root = pd_inv_sqrt(spd)
        assert np.allclose(root @ root, spd, atol=1e-10)
        assert np.allclose(root @ inv_root, np.eye(4), atol=1e-10)


class TestScalingPair:
    def test_rejects_singular_left(self):
        with pytest.raises(ValueError):
            ScalingPair(np.zeros((2, 2)), np.ones(3))

    def test_rejects_nonpositive_right(self):
        with pytest.raises(ValueError):
            ScalingPair(np.eye(2), np.array([1.0, 0.0]))


def _round(frame):
    return flip_flop_step(FlowState.start(frame))


class TestFlipFlopStep:
    def test_identity_fixed_point(self):
        # the round is the identity, then the rescale to size 1
        new = _round(Frame(np.eye(3)))
        assert np.allclose(new.frame.entries, np.eye(3) / math.sqrt(3.0), atol=1e-14)
        assert np.allclose(new.left, np.eye(3) / math.sqrt(3.0), atol=1e-14)
        assert np.allclose(new.right, 1.0, atol=1e-14)
        assert new.time == 1.0

    def test_axis_scaled_example(self):
        new = _round(Frame(np.diag([2.0, 1.0])))
        assert np.allclose(new.frame.entries, np.eye(2) / math.sqrt(2.0), atol=1e-14)
        assert np.allclose(new.left, np.diag([0.5, 1.0]) / math.sqrt(2.0), atol=1e-14)
        assert np.allclose(new.right, 1.0, atol=1e-14)

    def test_left_half_step_isotropy_exact(self):
        frame = sample_sphere_frame(3, 10, SeedSpec(0, 0))
        new = _round(frame)
        iso = new.left @ frame.entries
        gram = iso @ iso.T
        # the left factor carries 1/sqrt(d): a whitened frame of size 1
        assert np.allclose(gram, np.eye(3) / 3.0, atol=1e-12)
        assert np.array_equal(new.left, np.tril(new.left))

    def test_right_half_step_unit_columns(self):
        frame = sample_sphere_frame(3, 10, SeedSpec(0, 1))
        new = _round(frame)
        norms = np.linalg.norm(new.frame.entries, axis=0)
        assert np.allclose(norms, 1.0 / math.sqrt(10.0), atol=1e-12)
        assert size(new.frame) == pytest.approx(1.0, abs=1e-14)

    def test_composite_reproduces_frame(self):
        frame = sample_sphere_frame(4, 9, SeedSpec(0, 2))
        new = _round(frame)
        assert np.allclose(new.scaling.apply(frame.entries), new.frame.entries,
                           atol=1e-13)

    def test_ill_conditioned_gram(self):
        mat = np.array([[1.0, 1.0], [0.0, 1e-8]])
        with pytest.raises(IllConditionedError):
            _round(Frame(mat))

    def test_failed_cholesky_is_ill_conditioned(self, monkeypatch):
        def breaks(mat):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        frame = sample_sphere_frame(3, 10, SeedSpec(0, 3))
        monkeypatch.setattr(np.linalg, "cholesky", breaks)
        with pytest.raises(IllConditionedError, match="exceeds 1e\\+14"):
            _round(frame)

    @pytest.mark.parametrize("cond, passes", [
        (1e10, True), (1e13, True), (1e15, False), (1e17, False)])
    def test_condition_guard(self, cond, passes):
        # the guard reads cond(G) from the report's isotropy eigenvalues,
        # which resolve it well inside the two decades around 1e14
        gen = np.random.default_rng(int(np.log10(cond)))
        left, _ = np.linalg.qr(gen.standard_normal((4, 4)))
        right, _ = np.linalg.qr(gen.standard_normal((8, 8)))
        sigma = np.sqrt(np.geomspace(1.0, 1.0 / cond, 4))
        frame = Frame((left * sigma) @ right[:4])
        assert np.linalg.cond(frame.gram) == pytest.approx(cond, rel=0.5)
        if passes:
            new = _round(frame)
            assert new.time == 1.0 and np.all(np.isfinite(new.frame.entries))
        else:
            with pytest.raises(IllConditionedError, match="exceeds 1e\\+14"):
                _round(frame)


def _carrying(state, h):
    """The state with last step h / 2, so the controller first tries h."""
    return dataclasses.replace(state, step=h / 2)


class TestGradientFlowStep:
    def test_balanced_fixed_point(self):
        state = FlowState.start(Frame(np.eye(3) / math.sqrt(3.0)))
        nxt = gradient_flow_step(state)
        assert np.allclose(nxt.frame.entries, state.frame.entries, atol=1e-15)
        assert nxt.time > 0

    def test_two_heavy_explicit_update(self):
        state = _carrying(FlowState.start(Frame(TWO_HEAVY)), 0.01)
        nxt = gradient_flow_step(state)
        assert nxt.time == 0.01
        expected = np.array([[0.99, 0.99, 0.0], [0.0, 0.0, 1.01]])
        assert np.allclose(nxt.frame.entries, expected, atol=1e-15)
        assert np.allclose(nxt.scaling.left, np.diag([0.99, 1.01]), atol=1e-15)
        assert np.allclose(nxt.scaling.right, 1.0, atol=1e-15)

    def test_size_derivative_matches_l2_error(self):
        for frame in (
            Frame(TWO_HEAVY),
            sample_sphere_frame(3, 9, SeedSpec(1, 0)),
            sample_sphere_frame(2, 6, SeedSpec(1, 1)),
        ):
            h = 1e-6
            nxt = gradient_flow_step(_carrying(FlowState.start(frame), h))
            assert nxt.time == h
            rate = (size(nxt.frame) - size(frame)) / h
            rep = error_report(frame)
            assert rate == pytest.approx(-2.0 * rep.l2_error, rel=1e-3)

    def test_reconstruction_invariant_along_trajectory(self):
        frame = sample_sphere_frame(3, 12, SeedSpec(1, 2))
        state = FlowState.start(frame)
        for _ in range(200):
            state = gradient_flow_step(state)
        rebuilt = state.scaling.apply(frame.entries)
        gap = np.linalg.norm(rebuilt - state.frame.entries) / np.linalg.norm(
            state.frame.entries)
        assert gap <= 1e-8

    def test_integrals_accumulate(self):
        state = _carrying(FlowState.start(Frame(TWO_HEAVY)), 0.01)
        nxt = gradient_flow_step(state)
        assert nxt.time == 0.01
        assert nxt.int_isotropy_op == pytest.approx(0.01 * 1.0, rel=1e-12)
        assert nxt.int_norm_op == 0.0


def _count_decompositions(monkeypatch):
    """Count numpy.linalg eigh, eigvalsh and svd calls from here on."""
    counts = {}
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestDecompositionCount:
    def test_flow_step_one_eigvalsh(self, monkeypatch):
        state = FlowState.start(sample_sphere_frame(16, 64, SeedSpec(0, 1)))
        known = error_report(state.frame)
        counts = _count_decompositions(monkeypatch)
        new = gradient_flow_step(state)
        # the step reads the known report, the solver then reports the new
        # frame once, and every later request is served from the frame
        assert error_report(state.frame) is known
        rep = error_report(new.frame)
        assert error_report(new.frame) is rep
        assert counts == {"eigvalsh": 1}

    def test_rejected_trials_do_no_decomposition(self, monkeypatch):
        state = FlowState.start(sample_sphere_frame(4, 16, SeedSpec(2, 0)))
        start = error_report(state.frame)
        # a carried step far beyond any the controller would accept
        state = dataclasses.replace(state, step=1e6 / start.size)
        trials = []
        defects = scaling._defects
        monkeypatch.setattr(scaling, "_defects",
                            lambda mat, gram: trials.append(1) or defects(mat, gram))
        counts = _count_decompositions(monkeypatch)
        new = gradient_flow_step(state)
        rep = error_report(new.frame)
        assert len(trials) >= 2
        assert counts == {"eigvalsh": 1}
        assert rep.l2_error <= start.l2_error
        assert rep.size <= start.size

    def test_roundoff_step_reports_from_its_trial(self, monkeypatch):
        # l2 = 0: the first trial is taken as it stands, and its defects
        # still become the new frame's report
        state = FlowState.start(Frame(np.eye(4)))
        new = gradient_flow_step(state)
        recomputed = []
        defects = frame_module._defects
        monkeypatch.setattr(
            frame_module, "_defects",
            lambda mat, gram: recomputed.append(1) or defects(mat, gram))
        counts = _count_decompositions(monkeypatch)
        rep = error_report(new.frame)
        assert counts == {} and recomputed == []
        assert rep.l2_error == 0.0

    @pytest.mark.parametrize("d, n", [(1, 3), (4, 16), (16, 64), (64, 1024)])
    def test_flow_trial_defect_is_exactly_symmetric(self, d, n):
        state = FlowState.start(sample_sphere_frame(d, n, SeedSpec(3, d)))
        for _ in range(3):
            state = gradient_flow_step(state)
            iso = error_report(state.frame).isotropy_error
            assert np.array_equal(iso, iso.T)

    @pytest.mark.parametrize("d, n", [(4, 16), (16, 64), (64, 1024)])
    def test_flipflop_solve_one_decomposition_per_round(self, monkeypatch, d, n):
        # each round whitens with a Cholesky factor and reads the condition
        # of its Gram matrix from the report the loop already made
        frame = sample_sphere_frame(d, n, SeedSpec(0, 1))
        counts = _count_decompositions(monkeypatch)
        result = solve_scaling(frame, method="flipflop")
        assert result.converged and result.iterations > 1
        assert counts == {"eigvalsh": result.iterations + 1}


class TestSolveScaling:
    def test_flipflop_scalings_do_not_drift(self):
        # each round folds L / sqrt(d) and c sqrt(d) R, both near the
        # identity on a whitened frame of size 1; folding c L made the left
        # scaling shrink by sqrt(d/n) per round until it underflowed
        frame = sample_sphere_frame(4, 64, SeedSpec(5, 256))
        early, late = (solve_scaling(frame, SolverConfig(tol=1e-300, max_iters=k))
                       for k in (60, 600))
        assert late.failure is None and late.iterations == 600
        for got, ref in ((late.scaling.left, early.scaling.left),
                         (late.scaling.right, early.scaling.right)):
            assert 0.5 <= np.linalg.norm(got) / np.linalg.norm(ref) <= 2.0
        assert np.allclose(late.scaling.apply(frame.entries), late.frame.entries,
                           atol=1e-13)

    def test_identity_zero_iterations(self):
        result = solve_scaling(Frame(np.eye(4)), SolverConfig(tol=1e-10))
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.scaling.left, np.eye(4))
        assert np.array_equal(result.scaling.right, np.ones(4))

    def test_doubled_basis_already_balanced(self):
        frame = Frame(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]))
        result = solve_scaling(frame, SolverConfig(tol=1e-10))
        assert result.converged and result.iterations == 0

    def test_mercedes_already_balanced(self):
        result = solve_scaling(mercedes(), SolverConfig(tol=1e-10))
        assert result.converged and result.iterations == 0

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_balances_random_frame(self, method):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 0))
        result = solve_scaling(frame, SolverConfig(tol=1e-9), method=method)
        assert result.converged
        rep = error_report(result.frame)
        assert rep.op_error <= 1e-9 * rep.size

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_reconstruction_identity(self, method):
        frame = sample_sphere_frame(3, 9, SeedSpec(2, 1))
        result = solve_scaling(frame, SolverConfig(tol=1e-9), method=method)
        rebuilt = result.scaling.apply(frame.entries)
        rel = np.linalg.norm(rebuilt - result.frame.entries) / np.linalg.norm(
            result.frame.entries
        )
        assert rel <= 1e-8

    def test_methods_agree_after_canonicalization(self):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 2))
        config = SolverConfig(tol=1e-10)
        results = [
            solve_scaling(frame, config, method=m) for m in ("flipflop", "flow")
        ]
        canon = [
            _canonicalize(r.scaling.left, r.scaling.right, frame.entries)
            for r in results
        ]
        for a, b in zip(canon[0], canon[1]):
            assert np.linalg.norm(a - b) <= 1e-6

    def test_zero_column_is_structured_failure(self):
        frame = Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        result = solve_scaling(frame, SolverConfig(tol=1e-10, max_iters=50))
        assert not result.converged
        assert result.failure is not None

    def test_flipflop_round_ratios_logged(self):
        frame = sample_sphere_frame(3, 9, SeedSpec(2, 3))
        rep = error_report(frame)
        round_ratios = [rep.op_error / rep.size]
        result = solve_scaling(
            frame, SolverConfig(tol=1e-9),
            observe=lambda k, t, rep, *_: round_ratios.append(rep.op_error / rep.size),
        )
        assert len(round_ratios) == result.iterations + 1
        assert round_ratios[-1] <= 1e-9

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_observer_called_once_per_step(self, method):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 5))
        seen = []
        result = solve_scaling(frame, SolverConfig(tol=1e-9), method=method,
                               observe=lambda *point: seen.append(point))
        assert result.iterations > 0
        assert [p[0] for p in seen] == list(range(1, result.iterations + 1))
        # the last report is that of the returned frame, served from its memo
        assert seen[-1][2] is error_report(result.frame)
        assert seen[-1][2].op_error / seen[-1][2].size == result.final_ratio
        if method == "flipflop":
            assert [p[1] for p in seen] == [float(k) for k, *_ in seen]
            assert all(p[3] == p[4] == 0.0 for p in seen)
        else:
            times = [p[1] for p in seen]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_no_observer_call_when_already_balanced(self):
        seen = []
        result = solve_scaling(mercedes(), SolverConfig(tol=1e-10), method="flow",
                               observe=lambda *point: seen.append(point))
        assert result.converged and result.iterations == 0
        assert seen == []
        assert result.scaling_bound["left_holds"] and result.scaling_bound["right_holds"]

    def test_flow_reports_accumulation_bound(self):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 4))
        unit = frame.scaled(1.0 / math.sqrt(size(frame)))
        result = solve_scaling(unit, SolverConfig(tol=1e-9), method="flow")
        assert result.converged
        bound = result.scaling_bound
        assert bound is not None
        assert set(bound) >= {"left_gap", "left_bound", "left_holds",
                              "right_gap", "right_bound", "right_holds"}

    @pytest.mark.parametrize("s0", [1e-3, 0.2, 5.0, 40.0])
    def test_flow_bound_holds_at_any_size(self, s0):
        # the bound is about the trajectory, converged or not, so a budget
        # far below the default is enough to exercise it
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 4))
        frame = frame.scaled(math.sqrt(s0 / size(frame)))
        result = solve_scaling(frame, SolverConfig(tol=1e-9, max_iters=2000),
                               method="flow")
        assert result.iterations > 0
        bound = result.scaling_bound
        assert bound["left_holds"] and bound["right_holds"]
        assert bound["left_gap"] > 0.0 and bound["right_gap"] > 0.0

    def test_flow_step_count_does_not_depend_on_size(self):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 4))
        steps = []
        for s0 in (1e-3, 0.2, 1.0, 5.0, 40.0):
            scaled = frame.scaled(math.sqrt(s0 / size(frame)))
            result = solve_scaling(scaled, SolverConfig(tol=1e-9), method="flow")
            assert result.converged, s0
            steps.append(result.iterations)
        assert max(steps) <= 1.5 * min(steps), steps

    def test_flipflop_rounds_do_not_depend_on_tiny_size(self):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 4))
        frame = frame.scaled(1.0 / math.sqrt(size(frame)))
        rounds = []
        for s0 in (1.0, 1e-200, 1e-300):
            result = solve_scaling(frame.scaled(math.sqrt(s0)), method="flipflop")
            assert result.converged, s0
            rounds.append(result.iterations)
        assert rounds == [49, 49, 49]

    @pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-11, 1e-12])
    def test_flow_reaches_deep_tolerances(self, tol):
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 0))
        result = solve_scaling(frame, SolverConfig(tol=tol), method="flow")
        assert result.converged, result.failure
        assert result.final_ratio <= tol

    def test_monotone_size_decay(self):
        for stream in range(5):
            state = FlowState.start(sample_sphere_frame(3, 9, SeedSpec(3, stream)))
            prev = size(state.frame)
            for _ in range(500):
                state = gradient_flow_step(state)
                current = size(state.frame)
                assert current <= prev + 1e-12
                prev = current


BATTERY = dict(diagnostics_battery(0))


def _reference_solve(frame, config, step):
    """The solve built from public steps alone: ``step`` from
    ``FlowState.start`` and a report of every new frame, until the tolerance
    or the budget is reached."""
    rep = error_report(frame)
    ratio = rep.op_error / rep.size
    state = FlowState.start(frame)
    reports = []
    while ratio > config.tol and len(reports) < config.max_iters:
        state = step(state)
        rep = error_report(state.frame)
        ratio = rep.op_error / rep.size
        reports.append(rep)
    return state, ratio, reports


# step, seed root and tolerance of each method's bitwise cases
_BITWISE = {"flipflop": (flip_flop_step, 31, 1e-12),
            "flow": (gradient_flow_step, 33, 1e-10)}


class TestSolverBitwise:
    @pytest.mark.parametrize("method, d, n", [
        ("flipflop", 4, 16), ("flipflop", 16, 256), ("flipflop", 64, 256),
        ("flow", 4, 16), ("flow", 16, 64), ("flow", 8, 256),
    ])
    def test_solver_matches_public_step_loop(self, method, d, n):
        step, root, tol = _BITWISE[method]
        frame = sample_sphere_frame(d, n, SeedSpec(root, d * n))
        config = SolverConfig(tol=tol)
        seen = []
        result = solve_scaling(frame, config, method=method,
                               observe=lambda k, t, rep, *_: seen.append(rep))
        state, ratio, reports = _reference_solve(frame, config, step)
        assert result.iterations == len(reports) > 0
        assert result.final_ratio == ratio
        assert np.array_equal(result.frame.entries, state.frame.entries)
        assert np.array_equal(result.scaling.left, state.left)
        assert np.array_equal(result.scaling.right, state.right)
        assert len(seen) == len(reports)
        for got, want in zip(seen, reports):
            for field in dataclasses.fields(want):
                assert np.array_equal(getattr(got, field.name),
                                      getattr(want, field.name)), field.name


class TestOneLoop:
    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_validates_the_scaling_once(self, monkeypatch, method):
        frame = sample_sphere_frame(16, 64, SeedSpec(703, 0))
        validations = []
        post_init = ScalingPair.__post_init__
        monkeypatch.setattr(
            ScalingPair, "__post_init__",
            lambda pair: validations.append(1) or post_init(pair))
        result = solve_scaling(frame, method=method)
        assert result.converged and result.iterations > 1
        assert len(validations) == 1

    def test_steps_are_looked_up_by_name(self, monkeypatch):
        # a wrapper on the module attribute sees every step of a solve, and
        # each step is handed its own frame's report
        frame = sample_sphere_frame(16, 64, SeedSpec(703, 0))
        calls = {}
        for name in ("flip_flop_step", "gradient_flow_step"):
            step = getattr(scaling, name)

            def counted(state, report, _name=name, _step=step):
                calls[_name] = calls.get(_name, 0) + 1
                assert report is error_report(state.frame)
                return _step(state, report)

            monkeypatch.setattr(scaling, name, counted)
        for method, name in (("flipflop", "flip_flop_step"),
                             ("flow", "gradient_flow_step")):
            calls.clear()
            result = solve_scaling(frame, method=method)
            assert result.converged and result.iterations > 1
            assert calls == {name: result.iterations}

    def test_failed_step_names_method_and_step(self):
        # the Gram matrix has condition number about 1e16
        frame = Frame(np.array([[1.0, 1.0, 0.5], [0.0, 1e-8, 1e-8]]))
        result = solve_scaling(frame, method="flipflop")
        assert not result.converged
        assert result.iterations == 0
        assert result.failure == (
            "flipflop step 1 failed: Gram matrix condition number exceeds 1e+14")
        flow = solve_scaling(frame, method="flow")
        assert flow.converged and flow.iterations > 0
        assert flow.failure is None

    def test_nonfinite_iterate_names_its_step(self, monkeypatch):
        # iterates are not validated on construction; their report is
        frame = sample_sphere_frame(4, 16, SeedSpec(703, 1))
        step = scaling.flip_flop_step

        def overflowing(state, report):
            new = step(state, report)
            if new.time < 3:
                return new
            bad = np.full_like(new.frame.entries, np.inf)
            return dataclasses.replace(
                new, frame=Frame._iterate(bad, np.full_like(new.frame.gram, np.inf)))

        monkeypatch.setattr(scaling, "flip_flop_step", overflowing)
        with np.errstate(all="ignore"):
            result = solve_scaling(frame, SolverConfig(tol=1e-15), method="flipflop")
        assert result.failure == "flipflop step 3 failed: matrix entries must be finite"
        assert result.iterations == 2
        assert np.all(np.isfinite(result.frame.entries))

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    @pytest.mark.parametrize("light", [1e-9, 1e-12])
    def test_balances_a_far_lighter_column(self, method, light):
        # columns in general position, one of them light enough that
        # n |u_j|^2 - size cancels to round-off in the first step
        frame = Frame(np.array([[1.0, 0.0, light], [0.0, 1.0, light]]))
        result = solve_scaling(frame, method=method)
        assert result.failure is None
        assert result.converged and result.iterations > 1
        assert error_report(result.frame).op_error <= 1e-8 * size(result.frame)

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_converged_input_names_no_failure(self, method):
        # a zero column puts op_error / size at 1, within a loose tolerance
        frame = Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        result = solve_scaling(frame, SolverConfig(tol=2.0), method=method)
        assert result.converged and result.iterations == 0
        assert result.failure is None


class TestNoBalancingScaling:
    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    @pytest.mark.parametrize("frame", [
        BATTERY["two_heavy_one_light"],
        BATTERY["two_heavy_scaled"],
        Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    ], ids=["two_heavy_one_light", "two_heavy_scaled", "zero_column"])
    def test_ends_as_a_result(self, frame, method):
        start = time.perf_counter()
        result = solve_scaling(frame, SolverConfig(), method=method)
        elapsed = time.perf_counter() - start
        assert not result.converged
        assert result.failure is not None
        assert elapsed < 1.0
        assert result.iterations < SolverConfig().max_iters
        assert np.all(np.isfinite(result.scaling.left))

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_divergence_is_named(self, method):
        result = solve_scaling(Frame(TWO_HEAVY), SolverConfig(), method=method)
        assert "diverged" in result.failure
        assert result.iterations > 0


def _canonicalize(left, right, entries):
    # mod out the orthogonal and scalar symmetry of a scaling pair
    polar = pd_sqrt(left.T @ left)
    gm = float(np.exp(np.mean(np.log(right))))
    left_c = gm * polar
    right_c = right / gm
    frame_c = (left_c @ entries) * right_c[None, :]
    scale = 1.0 / math.sqrt(float(np.sum(frame_c * frame_c)))
    return scale * left_c, right_c, scale * frame_c


class TestDerivativeDiagnostics:
    def test_balanced_frame_all_zero(self):
        frame = Frame(np.eye(3) / math.sqrt(3.0))
        report = derivative_diagnostics(frame, 1e-6)
        for check in report.checks:
            assert check.analytic == pytest.approx(0.0, abs=1e-12)
            assert abs(check.finite_difference) <= 1e-8

    def test_two_heavy_one_light(self):
        report = derivative_diagnostics(Frame(TWO_HEAVY), 1e-6)
        assert report.max_rel_error() <= 1e-3
        by_name = {c.name: c for c in report.checks}
        assert by_name["size"].analytic == pytest.approx(-2.0, rel=1e-12)

    def test_scalar_homogeneity_fourth_power(self):
        c = 10.0
        base = derivative_diagnostics(Frame(TWO_HEAVY), 1e-6)
        scaled = derivative_diagnostics(Frame(c * TWO_HEAVY), 1e-6)
        for a, b in zip(base.checks, scaled.checks):
            assert b.analytic == pytest.approx(c**4 * a.analytic, rel=1e-10)
            assert b.rel_error <= 1e-3

    def test_h_range_validated(self):
        frame = Frame(np.eye(2))
        with pytest.raises(ValueError):
            derivative_diagnostics(frame, 1e-2)
        with pytest.raises(ValueError):
            derivative_diagnostics(frame, 1e-10)

    def test_random_frames_pass_gate(self):
        for stream in range(5):
            frame = sample_sphere_frame(3, 8, SeedSpec(4, stream))
            report = derivative_diagnostics(frame, 1e-6)
            assert report.max_rel_error() <= 1e-3
