import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescale import (
    DegenerateColumnError,
    EllipticalModel,
    RadialLaw,
    SeedSpec,
    ShapePD,
    error_report,
    is_eps_doubly_balanced,
    normalize_columns,
    sample_elliptical,
    sample_gaussian_frame,
    sample_sphere,
    sample_sphere_frame,
    size,
    whiten,
)

seeds = st.tuples(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)


class TestSeedSpec:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_bitwise_reproducible(self, pair):
        spec = SeedSpec(*pair)
        a = spec.generator().standard_normal(32)
        b = spec.generator().standard_normal(32)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        a = SeedSpec(7, 0).generator().standard_normal(16)
        b = SeedSpec(7, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)


class TestSampleSphere:
    def test_d1_is_sign(self):
        for idx in range(10):
            v = sample_sphere(1, SeedSpec(3, idx))
            assert v.shape == (1,)
            assert abs(abs(v[0]) - 1.0) <= 1e-14

    @given(st.integers(min_value=1, max_value=20), seeds)
    @settings(max_examples=25, deadline=None)
    def test_unit_norm(self, d, pair):
        v = sample_sphere(d, SeedSpec(*pair))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14

    def test_rejects_d0(self):
        with pytest.raises(ValueError):
            sample_sphere(0, SeedSpec(0, 0))

    def test_coordinate_symmetry(self):
        d, draws = 5, 10_000
        frame = sample_sphere_frame(d, draws, SeedSpec(11, 0))
        means = frame.entries.mean(axis=1)
        assert np.all(np.abs(means) < 0.05)


class TestRadialLaw:
    def test_parse(self):
        assert RadialLaw.parse("constant") == RadialLaw.constant()
        assert RadialLaw.parse("gaussian") == RadialLaw.gaussian_norm()
        assert RadialLaw.parse("t:2") == RadialLaw.student_t(2.0)
        assert str(RadialLaw.student_t(2.0)) == "t:2"

    def test_bad_nu(self):
        with pytest.raises(ValueError):
            RadialLaw.student_t(0.0)
        for nu in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite nu"):
                RadialLaw.student_t(nu)
        with pytest.raises(ValueError, match="finite nu"):
            RadialLaw.parse("t:inf")
        with pytest.raises(ValueError):
            RadialLaw.parse("cauchy")


class TestSampleElliptical:
    def test_constant_radial_gives_unit_columns(self):
        model = EllipticalModel(ShapePD.identity(4), RadialLaw.constant())
        data = sample_elliptical(model, 64, SeedSpec(5, 1))
        norms = np.linalg.norm(data, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-14)

    def test_gaussian_norm_matches_standard_normal(self):
        # coordinate variance of N(0, I) columns is 1
        d, n = 4, 40_000
        model = EllipticalModel(ShapePD.identity(d), RadialLaw.gaussian_norm())
        data = sample_elliptical(model, n, SeedSpec(5, 2))
        var = data.var(axis=1)
        assert np.all(np.abs(var - 1.0) < 0.06)

    def test_student_t_whitens_to_sphere(self):
        d, n = 3, 20_000
        sigma = ShapePD.normalized(np.diag([8.0, 1.0, 0.25]))
        model = EllipticalModel(sigma, RadialLaw.student_t(2.0))
        data = sample_elliptical(model, n, SeedSpec(5, 3))
        directions = whiten(data, sigma)
        norms = np.linalg.norm(directions.entries, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(np.abs(directions.entries.mean(axis=1)) < 0.05)
        # second moment of sphere-uniform coordinates is 1/d
        second = (directions.entries**2).mean(axis=1)
        assert np.all(np.abs(second - 1.0 / d) < 0.02)

    def test_directions_shared_across_radial_laws(self):
        sigma = ShapePD.identity(3)
        seed = SeedSpec(21, 4)
        const = sample_elliptical(EllipticalModel(sigma, RadialLaw.constant()), 32, seed)
        heavy = sample_elliptical(
            EllipticalModel(sigma, RadialLaw.student_t(2.0)), 32, seed
        )
        ratios = heavy / const
        assert np.allclose(ratios, ratios[0:1, :], rtol=1e-12)
        assert np.all(ratios[0] > 0)


class TestGaussianFrame:
    def test_expected_size_near_one(self):
        d, n = 8, 256
        sizes = [
            size(sample_gaussian_frame(d, n, 1.0 / (n * d), SeedSpec(31, t)))
            for t in range(100)
        ]
        assert abs(np.mean(sizes) - 1.0) < 0.05

    def test_unit_variance_convention(self):
        frame = sample_gaussian_frame(6, 600, 1.0, SeedSpec(31, 5))
        assert frame.entries.var() == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            sample_gaussian_frame(2, 4, 0.0, SeedSpec(0, 0))


class TestNormalizeColumns:
    def test_identity_on_unit_columns(self):
        frame = sample_sphere_frame(3, 7, SeedSpec(8, 0))
        out = normalize_columns(frame.entries)
        assert np.allclose(out.entries, frame.entries, atol=1e-15)

    def test_scaled_basis_vector(self):
        out = normalize_columns(np.array([[3.0, 0.0], [0.0, 2.0]]))
        assert np.array_equal(out.entries, np.eye(2))

    def test_size_is_n(self):
        gen = np.random.default_rng(2)
        data = gen.standard_normal((3, 11)) * gen.uniform(0.1, 10.0, size=11)
        assert size(normalize_columns(data)) == pytest.approx(11.0, abs=1e-10)

    def test_zero_column_names_index(self):
        data = np.eye(3)
        data[:, 1] = 0.0
        with pytest.raises(DegenerateColumnError) as info:
            normalize_columns(data)
        assert info.value.column == 1

    def test_direction_invariance_under_positive_diagonal(self):
        gen = np.random.default_rng(3)
        data = gen.standard_normal((3, 9))
        scales = gen.uniform(0.1, 10.0, size=9)
        a = normalize_columns(data)
        b = normalize_columns(data * scales)
        assert np.allclose(a.entries, b.entries, atol=1e-14)


class TestWhiten:
    def test_identity_shape_equals_normalize(self):
        gen = np.random.default_rng(4)
        data = gen.standard_normal((3, 8))
        a = whiten(data, ShapePD.identity(3))
        b = normalize_columns(data)
        assert np.allclose(a.entries, b.entries, atol=1e-12)

    def test_exact_inversion(self):
        sigma = ShapePD.normalized(np.diag([4.0, 1.0]))
        units = sample_sphere_frame(2, 6, SeedSpec(9, 0))
        from framescale.scaling import pd_sqrt

        data = pd_sqrt(sigma.matrix) @ units.entries
        out = whiten(data, sigma)
        assert np.allclose(out.entries, units.entries, atol=1e-10)


class TestEmpiricalBalance:
    def test_sphere_frames_mostly_eps_balanced(self):
        from framescale import Frame

        d, n, eps = 16, 4096, 5.0 * math.sqrt(16 / 4096)
        model = EllipticalModel(ShapePD.identity(d), RadialLaw.constant())
        hits = sum(
            is_eps_doubly_balanced(
                Frame(sample_elliptical(model, n, SeedSpec(13, t))), eps
            )
            for t in range(100)
        )
        assert hits >= 90


class TestDeterminism:
    def test_elliptical_bitwise(self):
        model = EllipticalModel(ShapePD.identity(3), RadialLaw.gaussian_norm())
        a = sample_elliptical(model, 16, SeedSpec(1, 2))
        b = sample_elliptical(model, 16, SeedSpec(1, 2))
        assert a.tobytes() == b.tobytes()

    def test_gaussian_frame_bitwise(self):
        a = sample_gaussian_frame(3, 9, 0.5, SeedSpec(4, 4))
        b = sample_gaussian_frame(3, 9, 0.5, SeedSpec(4, 4))
        assert a.entries.tobytes() == b.entries.tobytes()
