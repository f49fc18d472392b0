import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescale import (
    Frame,
    FrameError,
    NonSpanningError,
    ScalingPair,
    SeedSpec,
    error_report,
    is_eps_doubly_balanced,
    load_frame,
    op_norm_symmetric,
    read_matrix_text,
    sample_sphere_frame,
    save_matrix_text,
    size,
    solve_scaling,
)
from framescale.frame import _defects, _full_rank_certified

TWO_HEAVY = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def random_frame(d, n, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    mat = gen.standard_normal((d, n)) * scale
    return Frame(mat + 0.0)


frame_params = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(lambda t: (t[0], t[0] + t[1], t[2]))


class TestFrameConstruction:
    def test_rejects_fewer_columns_than_rows(self):
        with pytest.raises(NonSpanningError):
            Frame(np.ones((3, 2)))

    def test_rejects_rank_deficient(self):
        with pytest.raises(NonSpanningError):
            Frame(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(FrameError):
            Frame(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(FrameError):
            Frame(np.ones(4))

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_solver_iterates_skip_validation(self, monkeypatch, method):
        # every iterate comes from Frame._iterate, none from the validating
        # constructor, which still rejects what it rejected before; so do
        # the input rescaled to size about 1 and the flow's frame scaled back
        frame = sample_sphere_frame(16, 64, SeedSpec(0, 1))
        validated, iterates = [], []
        init, iterate = Frame.__init__, Frame._iterate.__func__

        def counted_init(self, entries):
            validated.append(1)
            init(self, entries)

        def counted_iterate(cls, entries, gram):
            iterates.append(1)
            return iterate(cls, entries, gram)

        monkeypatch.setattr(Frame, "__init__", counted_init)
        monkeypatch.setattr(Frame, "_iterate", classmethod(counted_iterate))
        result = solve_scaling(frame, method=method)
        assert result.converged and result.iterations > 1
        assert len(iterates) == result.iterations + (2 if method == "flow" else 1)
        assert validated == []
        assert result.frame.entries.flags.writeable is False
        assert result.frame.gram.flags.writeable is False
        entries = result.frame.entries
        with pytest.raises(NonSpanningError):
            Frame(np.vstack([entries[:1], entries[:-1]]))
        with pytest.raises(FrameError):
            Frame(np.where(entries == entries.max(), np.nan, entries))
        assert len(validated) == 2

    def test_entries_are_read_only(self):
        frame = Frame(np.eye(2))
        with pytest.raises(ValueError):
            frame.entries[0, 0] = 5.0


def _designed_matrix(d, n, log_ratio, log_scale, defect, seed):
    """U diag(sigma) W^T with sigma_min / sigma_max = 10**log_ratio, scaled by
    10**log_scale, optionally made exactly rank-deficient."""
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(gen.standard_normal((d, d)))
    w, _ = np.linalg.qr(gen.standard_normal((n, d)))
    sigma = np.logspace(0.0, log_ratio, d) * 10.0**log_scale
    mat = (u * sigma) @ w.T
    if defect == "zero_row":
        mat[-1] = 0.0
    elif defect == "repeated_row":
        mat[-1] = mat[0]
    return mat


def _svd_spans(mat):
    """Frame's singular-value spanning test on its own."""
    svals = np.linalg.svd(mat, compute_uv=False)
    return not (svals[0] == 0.0 or svals[-1] <= 1e-12 * svals[0])


def _svd_invertible(mat):
    """ScalingPair's singular-value invertibility test on its own."""
    return bool(np.linalg.svd(mat, compute_uv=False)[-1] > 0.0)


def _gram(mat):
    """mat @ mat.T, which overflows to inf at +160 decades as in Frame."""
    with np.errstate(over="ignore", invalid="ignore"):
        return mat @ mat.T


def _certified(mat):
    return _full_rank_certified(mat, _gram(mat))


designed_params = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=-14.0, max_value=-2.0),
    st.floats(min_value=-160.0, max_value=160.0),
    st.sampled_from(["none", "none", "zero_row", "repeated_row"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestSpanningCertificate:
    @given(designed_params)
    @settings(max_examples=300, deadline=None)
    def test_frame_verdict_matches_svd_test(self, params):
        d, extra, log_ratio, log_scale, defect, seed = params
        mat = _designed_matrix(d, d + extra, log_ratio, log_scale, defect, seed)
        try:
            Frame(mat)
            spans = True
        except NonSpanningError:
            spans = False
        assert spans == _svd_spans(mat)

    @given(designed_params)
    @settings(max_examples=300, deadline=None)
    def test_scaling_pair_verdict_matches_svd_test(self, params):
        d, _, log_ratio, log_scale, defect, seed = params
        mat = _designed_matrix(d, d, log_ratio, log_scale, defect, seed)
        try:
            ScalingPair(mat, np.ones(3))
            invertible = True
        except ValueError:
            invertible = False
        assert invertible == _svd_invertible(mat)

    @pytest.mark.parametrize("log_scale", [-160.0, 160.0])
    def test_extreme_scales_reach_the_svd_fallback(self, log_scale):
        mat = _designed_matrix(4, 16, -1.0, log_scale, "none", 0)
        assert not _certified(mat)
        assert _certified(mat * 10.0**-log_scale)
        Frame(mat)
        left = _designed_matrix(4, 4, -1.0, log_scale, "none", 0)
        assert not _certified(left)
        ScalingPair(left, np.ones(1))


class TestGram:
    """A Frame forms V V^T once, at construction, and every consumer reads it."""

    @staticmethod
    def _assert_gram(frame):
        # the +160-decade Gram overflows to inf, as a fresh product does
        assert np.array_equal(frame.gram, _gram(frame.entries))
        with pytest.raises(ValueError):
            frame.gram[0, 0] = 1.0

    @given(frame_params)
    @settings(max_examples=30, deadline=None)
    def test_gram_is_the_read_only_product(self, params):
        d, n, seed = params
        self._assert_gram(random_frame(d, n, seed))

    @pytest.mark.parametrize("log_scale", [-160.0, 160.0])
    def test_gram_of_frames_on_the_svd_fallback(self, log_scale):
        mat = _designed_matrix(4, 16, -1.0, log_scale, "none", 0)
        assert not _certified(mat)
        self._assert_gram(Frame(mat))

    @pytest.mark.parametrize("c", [0.5, 3.0, 1e-120, 1e120])
    def test_gram_of_scaled_frames(self, c):
        self._assert_gram(random_frame(4, 16, 7).scaled(c))

    @pytest.mark.parametrize("d, n", [(1, 3), (4, 16), (16, 64), (64, 1024)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "transposed"])
    def test_gram_is_exactly_symmetric(self, d, n, layout):
        # reports and the flip-flop round read the Gram matrix as it is
        gen = np.random.default_rng(d * n)
        if layout == "strided":
            entries = gen.standard_normal((2 * d, 3 * n))[::2, ::3]
        elif layout == "transposed":
            entries = gen.standard_normal((n, d)).T
        else:
            entries = np.array(gen.standard_normal((d, n)), order=layout)
        gram = Frame(entries).gram
        assert np.array_equal(gram, gram.T)

    @given(frame_params)
    @settings(max_examples=30, deadline=None)
    def test_report_equals_defects_of_entries(self, params):
        d, n, seed = params
        frame = random_frame(d, n, seed)
        rep = error_report(frame)
        s, iso, norm_err, l2 = _defects(frame.entries, _gram(frame.entries))
        assert rep.size == s
        assert np.array_equal(rep.isotropy_error, iso)
        assert np.array_equal(rep.norm_error, norm_err)
        assert rep.l2_error == l2


class TestSize:
    def test_identity(self):
        assert size(Frame(np.eye(2))) == 2.0

    def test_scaled_identity(self):
        assert size(Frame(np.eye(2) / math.sqrt(2.0))) == pytest.approx(1.0, rel=1e-15)

    def test_two_heavy_one_light(self):
        assert size(Frame(TWO_HEAVY)) == 3.0


class TestErrorReport:
    def test_balanced_identity(self):
        d = 4
        rep = error_report(Frame(np.eye(d) / math.sqrt(d)))
        assert np.allclose(rep.isotropy_error, 0.0, atol=1e-15)
        assert np.allclose(rep.norm_error, 0.0, atol=1e-15)
        assert rep.l2_error == pytest.approx(0.0, abs=1e-15)
        assert rep.op_error == pytest.approx(0.0, abs=1e-15)

    def test_two_heavy_one_light(self):
        rep = error_report(Frame(TWO_HEAVY))
        assert rep.size == 3.0
        assert np.allclose(rep.isotropy_error, np.diag([1.0, -1.0]))
        assert np.allclose(rep.norm_error, 0.0)
        assert rep.l2_error == pytest.approx(1.0, rel=1e-14)
        assert rep.op_error == pytest.approx(1.0, rel=1e-14)

    def test_overflowed_gram_is_rejected(self):
        # a Frame admits entries whose Gram matrix overflows; its report
        # still refuses to decompose the non-finite defect
        with np.errstate(all="ignore"):
            frame = Frame(1e160 * np.eye(2))
            with pytest.raises(ValueError, match="must be finite"):
                error_report(frame)

    @given(frame_params)
    @settings(max_examples=30, deadline=None)
    def test_traceless(self, params):
        d, n, seed = params
        rep = error_report(random_frame(d, n, seed))
        assert abs(np.trace(rep.isotropy_error)) <= 1e-10 * rep.size
        assert abs(np.sum(rep.norm_error)) <= 1e-10 * rep.size

    @given(frame_params)
    @settings(max_examples=30, deadline=None)
    def test_l2_error_identity(self, params):
        d, n, seed = params
        rep = error_report(random_frame(d, n, seed))
        direct = (
            np.sum(rep.isotropy_error**2) / d + np.sum(rep.norm_error**2) / n
        )
        assert rep.l2_error == pytest.approx(direct, rel=1e-12)

    @given(frame_params)
    @settings(max_examples=30, deadline=None)
    def test_l2_below_squared_op_norms(self, params):
        d, n, seed = params
        rep = error_report(random_frame(d, n, seed))
        op_iso = op_norm_symmetric(rep.isotropy_error)
        op_nrm = float(np.max(np.abs(rep.norm_error)))
        assert rep.l2_error <= (op_iso**2 + op_nrm**2) * (1 + 1e-12)

    @given(frame_params, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_scalar_homogeneity(self, params, c):
        d, n, seed = params
        frame = random_frame(d, n, seed)
        rep = error_report(frame)
        rep_c = error_report(frame.scaled(c))
        assert rep_c.size == pytest.approx(c**2 * rep.size, rel=1e-12)
        assert np.allclose(
            rep_c.isotropy_error, c**2 * rep.isotropy_error,
            rtol=1e-12, atol=1e-12 * rep.size,
        )
        assert np.allclose(
            rep_c.norm_error, c**2 * rep.norm_error,
            rtol=1e-12, atol=1e-12 * rep.size,
        )

    @given(frame_params)
    @settings(max_examples=20, deadline=None)
    def test_column_permutation(self, params):
        d, n, seed = params
        frame = random_frame(d, n, seed)
        perm = np.random.default_rng(seed + 1).permutation(n)
        permuted = Frame(frame.entries[:, perm])
        rep = error_report(frame)
        rep_p = error_report(permuted)
        assert rep_p.size == pytest.approx(rep.size, rel=1e-14)
        assert np.allclose(rep_p.norm_error, rep.norm_error[perm], rtol=1e-12)
        assert np.allclose(rep_p.isotropy_error, rep.isotropy_error, atol=1e-12)
        assert rep_p.l2_error == pytest.approx(rep.l2_error, rel=1e-10, abs=1e-12)

    @given(frame_params)
    @settings(max_examples=20, deadline=None)
    def test_orthogonal_invariance(self, params):
        d, n, seed = params
        frame = random_frame(d, n, seed)
        gen = np.random.default_rng(seed + 2)
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        rotated = Frame(q @ frame.entries)
        rep = error_report(frame)
        rep_q = error_report(rotated)
        assert rep_q.size == pytest.approx(rep.size, rel=1e-12)
        assert np.allclose(
            rep_q.isotropy_error, q @ rep.isotropy_error @ q.T,
            atol=1e-10 * max(rep.size, 1.0),
        )
        assert np.allclose(rep_q.norm_error, rep.norm_error,
                           atol=1e-10 * max(rep.size, 1.0))
        assert rep_q.op_error == pytest.approx(rep.op_error, rel=1e-9, abs=1e-10)


    @pytest.mark.parametrize("tiny", [1e-200, 1e-300])
    def test_tiny_size_keeps_relative_defect(self, tiny):
        # squares of these entries underflow; the defect must not read as 0
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 4))
        frame = frame.scaled(1.0 / math.sqrt(size(frame)))
        rep = error_report(frame)
        rep_tiny = error_report(frame.scaled(math.sqrt(tiny)))
        assert rep_tiny.op_error / rep_tiny.size == pytest.approx(
            rep.op_error / rep.size, rel=1e-12)


class TestEpsBalanced:
    def test_identity_at_zero(self):
        assert is_eps_doubly_balanced(Frame(np.eye(3) / math.sqrt(3)), 0.0)

    def test_two_heavy_threshold(self):
        frame = Frame(TWO_HEAVY)
        assert not is_eps_doubly_balanced(frame, 0.3)
        assert is_eps_doubly_balanced(frame, 0.34)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            is_eps_doubly_balanced(Frame(np.eye(2)), -0.1)


class TestOpNormSymmetric:
    def test_diagonal(self):
        assert op_norm_symmetric(np.diag([1.0, -3.0])) == 3.0

    def test_zero(self):
        assert op_norm_symmetric(np.zeros((4, 4))) == 0.0

    def test_two_by_two(self):
        assert op_norm_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]])) == \
            pytest.approx(3.0, rel=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            op_norm_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dense_path_at_dimension_600(self):
        # a 600 x 600 matrix: the dense path serves every dimension
        m = 600
        gen = np.random.default_rng(0)
        diag = gen.uniform(-2.0, 2.0, size=m)
        diag[17] = -5.0
        q, _ = np.linalg.qr(gen.standard_normal((m, m)))
        mat = (q * diag) @ q.T
        mat = 0.5 * (mat + mat.T)
        assert op_norm_symmetric(mat) == pytest.approx(5.0, rel=1e-9)


class TestTextFormat:
    def test_frame_round_trip(self, tmp_path):
        frame = random_frame(3, 5, 99)
        path = tmp_path / "frame.txt"
        save_matrix_text(path, frame)
        loaded = load_frame(path)
        assert np.array_equal(loaded.entries, frame.entries)

    def test_data_round_trip_allows_non_spanning(self, tmp_path):
        mat = np.zeros((2, 3))
        mat[0] = [1.0, 2.0, 3.0]
        path = tmp_path / "data.txt"
        save_matrix_text(path, mat, kind="data")
        loaded, kind = read_matrix_text(path)
        assert kind == "data"
        assert np.array_equal(loaded, mat)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "frame.txt"
        path.write_text("# comment\n2 2\n# another\n1 0\n0 1\n", encoding="utf-8")
        loaded = load_frame(path)
        assert np.array_equal(loaded.entries, np.eye(2))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 x\n1 0\n0 1\n", encoding="utf-8")
        with pytest.raises(FrameError):
            read_matrix_text(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n", encoding="utf-8")
        with pytest.raises(FrameError):
            read_matrix_text(path)
