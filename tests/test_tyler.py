import inspect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescale import (
    DegenerateColumnError,
    SeedSpec,
    ShapePD,
    SolverConfig,
    capacity,
    error_report,
    estimator_from_scaling,
    normalize_columns,
    relative_op_error,
    sample_sphere_frame,
    scaling_from_estimator,
    solve_scaling,
    tyler_fixed_point_residual,
    tyler_iterate,
)
from framescale import tyler as tyler_module
from framescale.tyler import _quadratic_forms, result_to_json

from _oracles import damped_tyler

THREE_COLS = np.array(
    [[1.0, 0.0, 1.0 / math.sqrt(2.0)], [0.0, 1.0, 1.0 / math.sqrt(2.0)]]
)


def _keep_iterates(store):
    """Observer that keeps every evaluated iterate."""
    return lambda t, sigma, cap, res: store.append(sigma)


class TestShapePD:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            ShapePD(2.0 * np.eye(3))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ShapePD(np.diag([3.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ShapePD(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_normalized_constructor(self):
        shape = ShapePD.normalized(np.diag([4.0, 1.0]))
        assert np.allclose(shape.matrix, np.diag([1.6, 0.4]))


class TestQuadraticForms:
    @pytest.mark.parametrize("d,n", [(2, 3), (16, 4096), (64, 1024)])
    def test_matches_per_column_loop(self, d, n):
        gen = np.random.default_rng(1000 * d + n)
        data = gen.standard_normal((d, n))
        root = gen.standard_normal((d, d))
        mat = root @ root.T + d * np.eye(d)
        expected = np.array([x @ mat @ x for x in data.T])
        np.testing.assert_allclose(_quadratic_forms(data, mat), expected,
                                   rtol=1e-12, atol=0.0)

    def test_no_three_operand_einsum(self):
        source = inspect.getsource(tyler_module)
        specs = re.findall(r"einsum\(\s*[\"']([^\"']*)[\"']", source)
        assert specs, "expected the quadratic-form helper's einsum"
        slow = [spec for spec in specs if spec.split("->")[0].count(",") >= 2]
        assert not slow, f"3-operand einsum in tyler.py: {slow}"


class TestFixedPointResidual:
    def test_basis_columns(self):
        assert tyler_fixed_point_residual(np.eye(4), ShapePD.identity(4)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_doubled_basis(self):
        data = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert tyler_fixed_point_residual(data, ShapePD.identity(2)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_three_column_example(self):
        got = tyler_fixed_point_residual(THREE_COLS, ShapePD.identity(2))
        assert got == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)

    def test_zero_column_rejected(self):
        data = np.eye(2)
        data[:, 0] = 0.0
        with pytest.raises(DegenerateColumnError):
            tyler_fixed_point_residual(data, ShapePD.identity(2))


class TestTylerIterate:
    def test_basis_data_one_iteration(self):
        result = tyler_iterate(np.eye(5))
        assert result.converged
        assert result.iterations == 1
        assert result.residual <= 1e-12
        assert np.allclose(result.sigma_hat.matrix, np.eye(5), atol=1e-14)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_scalar_invariance_of_iterates(self, stream):
        frame = sample_sphere_frame(3, 9, SeedSpec(50, stream))
        scales = np.random.default_rng(stream).uniform(0.2, 5.0, size=9)
        plain_iterates, scaled_iterates = [], []
        plain = tyler_iterate(frame.entries, observe=_keep_iterates(plain_iterates))
        scaled = tyler_iterate(frame.entries * scales,
                               observe=_keep_iterates(scaled_iterates))
        assert plain.iterations == scaled.iterations
        for a, b in zip(plain_iterates, scaled_iterates):
            assert np.allclose(a, b, atol=1e-12)

    def test_matches_damped_oracle(self):
        result = tyler_iterate(THREE_COLS, tol=1e-12)
        oracle, oracle_res = damped_tyler(THREE_COLS)
        assert oracle_res <= 1e-12
        assert result.converged
        assert np.linalg.norm(result.sigma_hat.matrix - oracle) <= 1e-8

    def test_affine_equivariance(self):
        frame = sample_sphere_frame(3, 12, SeedSpec(51, 0))
        lin = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.4], [0.1, 0.0, 0.7]])
        base = tyler_iterate(frame.entries, tol=1e-12)
        moved = tyler_iterate(lin @ frame.entries, tol=1e-12)
        pushed = lin @ base.sigma_hat.matrix @ lin.T
        pushed = 3.0 * pushed / np.trace(pushed)
        assert np.linalg.norm(moved.sigma_hat.matrix - pushed) <= 1e-6

    def test_capacity_descent(self):
        frame = sample_sphere_frame(4, 16, SeedSpec(51, 1))
        trace = []
        tyler_iterate(frame.entries, tol=1e-12,
                      observe=lambda t, sigma, cap, res: trace.append(cap))
        assert len(trace) >= 2
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-10

    def test_linear_tail_contraction(self):
        # n = 4d; per-step gap ratio over the last 20 recorded iterations
        frame = sample_sphere_frame(4, 16, SeedSpec(51, 2))
        iterates = []
        result = tyler_iterate(frame.entries, tol=1e-12,
                               observe=_keep_iterates(iterates))
        refined = tyler_iterate(frame.entries, tol=1e-14,
                                initial=result.sigma_hat)
        limit = refined.sigma_hat.matrix
        gaps = [np.linalg.norm(it - limit) for it in iterates]
        gaps = [g for g in gaps if g > 1e-13]
        window = gaps[-21:]
        ratio = (window[-1] / window[0]) ** (1.0 / (len(window) - 1))
        assert ratio <= 0.95

    def test_rank_deficient_data_is_structured_failure(self):
        data = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]).T  # 2x3 rank 1
        data = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        result = tyler_iterate(data)
        assert not result.converged
        assert np.all(np.linalg.eigvalsh(result.sigma_hat.matrix) > 0)

    def test_fewer_samples_than_dimension_fails_gracefully(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((4, 2))
        result = tyler_iterate(data)
        assert not result.converged

    def test_respects_max_iters_budget(self):
        frame = sample_sphere_frame(3, 9, SeedSpec(51, 3))
        result = tyler_iterate(frame.entries, tol=1e-30, max_iters=5)
        assert not result.converged
        assert result.iterations == 5

    @pytest.mark.parametrize("kwargs", [
        {"tol": -1.0}, {"tol": 0.0}, {"tol": math.nan}, {"max_iters": 0},
        {"max_iters": -3},
    ])
    def test_rejects_bad_stopping_rule(self, kwargs):
        with pytest.raises(ValueError):
            tyler_iterate(THREE_COLS, **kwargs)

    def test_observer_sees_every_evaluated_iterate(self):
        frame = sample_sphere_frame(4, 16, SeedSpec(51, 4))
        seen = []
        result = tyler_iterate(frame.entries, observe=lambda *p: seen.append(p))
        assert result.converged
        assert len(seen) == result.iterations + 1
        assert [p[0] for p in seen] == list(range(result.iterations + 1))
        assert np.array_equal(seen[0][1], np.eye(4))
        # the last evaluated iterate is the estimate, with its residual
        assert np.allclose(seen[-1][1], result.sigma_hat.matrix, rtol=0, atol=1e-15)
        assert seen[-1][3] == result.residual
        for t, sigma, cap, res in seen:
            assert cap == pytest.approx(capacity(frame.entries, np.linalg.inv(sigma)),
                                        rel=1e-10, abs=1e-12)
            assert res == pytest.approx(
                tyler_fixed_point_residual(frame.entries, ShapePD(sigma)),
                rel=1e-6, abs=1e-14)


class TestResultJson:
    def test_values_parse_back_bit_for_bit(self):
        data = sample_sphere_frame(4, 16, SeedSpec(8, 0)).entries
        caps = []
        result = tyler_iterate(data, observe=lambda t, s, cap, r: caps.append(cap))
        trace = caps + [-0.0, 0.1 + 0.2, 5e-324, 1.7976931348623157e308, math.nan]
        payload = json.loads(result_to_json(result, trace))

        def bits(values):
            return np.asarray(values, dtype=float).view(np.int64)

        assert np.array_equal(bits(payload["sigma_hat"]),
                              bits(result.sigma_hat.matrix.ravel()))
        assert bits(payload["residual"]) == bits(result.residual)
        assert np.array_equal(bits(payload["capacity_trace"]), bits(trace))


class TestEstimatorScalingCorrespondence:
    def test_identity_left(self):
        assert np.allclose(estimator_from_scaling(np.eye(3)).matrix, np.eye(3))

    def test_scalar_left_cancels(self):
        assert np.allclose(estimator_from_scaling(7.0 * np.eye(3)).matrix, np.eye(3))

    def test_diagonal_example(self):
        got = estimator_from_scaling(np.diag([0.5, 1.0]))
        assert np.allclose(got.matrix, np.diag([1.6, 0.4]), atol=1e-14)

    def test_orthogonal_invariance(self):
        gen = np.random.default_rng(1)
        left = gen.standard_normal((3, 3)) + 3 * np.eye(3)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        a = estimator_from_scaling(left)
        b = estimator_from_scaling(q @ left)
        assert np.allclose(a.matrix, b.matrix, atol=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            estimator_from_scaling(np.diag([1.0, 0.0]))

    def test_round_trip_through_scaling(self):
        data = np.eye(3)
        pair = scaling_from_estimator(data, ShapePD.identity(3))
        assert np.allclose(pair.left, np.eye(3), atol=1e-14)
        assert np.allclose(pair.right, 1.0, atol=1e-14)
        recovered = estimator_from_scaling(pair.left)
        assert np.allclose(recovered.matrix, np.eye(3), atol=1e-10)

    def test_scaled_frame_is_balanced_at_fixed_point(self):
        result = tyler_iterate(THREE_COLS, tol=1e-12)
        pair = scaling_from_estimator(THREE_COLS, result.sigma_hat)
        rep = error_report(
            __import__("framescale").Frame(pair.apply(THREE_COLS))
        )
        assert rep.op_error / rep.size <= 1e-6

    def test_cross_validation_with_solve_scaling(self):
        for stream in range(5):
            frame = sample_sphere_frame(3, 9, SeedSpec(52, stream))
            unit = normalize_columns(frame.entries)
            scaling = solve_scaling(unit, SolverConfig(tol=1e-11))
            assert scaling.converged
            via_scaling = estimator_from_scaling(scaling.scaling.left)
            via_iteration = tyler_iterate(unit.entries, tol=1e-12)
            gap = np.linalg.norm(
                via_scaling.matrix - via_iteration.sigma_hat.matrix
            )
            assert gap <= 1e-6


class TestCapacity:
    def test_unit_columns_identity(self):
        assert capacity(THREE_COLS, ShapePD.identity(2)) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        gen = np.random.default_rng(2)
        data = gen.standard_normal((3, 7))
        z = np.diag([2.0, 0.7, 0.4])
        assert capacity(data, z) == pytest.approx(capacity(data, 13.7 * z), abs=1e-10)

    def test_diagonal_example(self):
        got = capacity(THREE_COLS, np.diag([2.0, 0.5]))
        assert got == pytest.approx((2.0 / 3.0) * math.log(1.25), rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            capacity(THREE_COLS, np.diag([1.0, -1.0]))


class TestRelativeOpError:
    def test_equal_shapes(self):
        shape = ShapePD.normalized(np.diag([3.0, 1.0]))
        assert relative_op_error(shape, shape) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_example(self):
        got = relative_op_error(ShapePD.identity(2), ShapePD(np.diag([1.1, 0.9])))
        assert got == pytest.approx(1.0 / 9.0, rel=1e-10)

    def test_affine_invariance(self):
        # the raw formula is invariant under a joint congruence of both
        # arguments; trace normalization would break it by rescaling each
        # side with a different constant
        gen = np.random.default_rng(3)
        sigma = ShapePD.normalized(np.diag([2.0, 1.0, 0.5]))
        sigma_hat = ShapePD.normalized(
            sigma.matrix + 0.05 * np.diag([1.0, -1.0, 0.3])
        )
        lin = gen.standard_normal((3, 3)) + 2 * np.eye(3)
        base = relative_op_error(sigma, sigma_hat)
        moved = relative_op_error(
            lin @ sigma.matrix @ lin.T,
            lin @ sigma_hat.matrix @ lin.T,
        )
        assert moved == pytest.approx(base, abs=1e-10)
