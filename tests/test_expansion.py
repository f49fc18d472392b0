import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import null_space

from framescale import (
    Frame,
    SeedSpec,
    SolverConfig,
    build_expansion_report,
    cheeger_constant,
    error_report,
    infty_expansion_exact,
    infty_expansion_sampled,
    infty_implies_quantum_check,
    infty_to_pseudo_halving,
    pseudo_to_infty_bounds,
    pseudorandom_check,
    quantum_expansion_exact,
    sample_gaussian_frame,
    sample_sphere_frame,
    solve_scaling,
)
from framescale.expansion import (
    CHAIN_FP_TOL,
    BalanceRequiredError,
    UnsupportedConfigError,
    _combo_chunks,
    _lex_blocks,
    _sampled_subsets,
    _subset_gram_extremes,
    _subset_table,
    _vertex_op_norms,
)
from framescale.frame import column_square_norms

from _oracles import (
    brute_force_cheeger,
    brute_force_infty_sup,
    brute_force_subset_gram_bounds,
)
from test_acceptance import _balanced_battery

LAM_EQUIANGULAR = 1.0 - 1.0 / math.sqrt(2.0)  # closed form, frozen


def equiangular4():
    angles = np.deg2rad([0.0, 45.0, 90.0, 135.0])
    return Frame(np.vstack([np.cos(angles), np.sin(angles)]))


def mercedes():
    ang = np.deg2rad([90.0, 210.0, 330.0])
    return Frame(np.vstack([np.cos(ang), np.sin(ang)]))


def balanced_sphere(d, n, stream):
    result = solve_scaling(
        sample_sphere_frame(d, n, SeedSpec(77, stream)),
        SolverConfig(tol=1e-10),
        method="flipflop",
    )
    assert result.converged
    return result.frame


class TestQuantumExpansion:
    def test_repeated_single_direction(self):
        result = quantum_expansion_exact(Frame([[1.0, 1.0]]))
        assert result.lam == pytest.approx(1.0, abs=1e-12)
        assert result.sup == pytest.approx(0.0, abs=1e-12)

    def test_identity_frame(self):
        result = quantum_expansion_exact(Frame(np.eye(5)))
        assert result.lam == pytest.approx(0.0, abs=1e-12)

    def test_mercedes_closed_form(self):
        result = quantum_expansion_exact(mercedes())
        assert result.lam == pytest.approx(LAM_EQUIANGULAR, abs=1e-9)

    def test_witness_attains_sup(self):
        frame = sample_sphere_frame(3, 8, SeedSpec(70, 0))
        result = quantum_expansion_exact(frame)
        y = result.y
        attained = np.linalg.norm(
            (frame.entries * y[None, :]) @ frame.entries.T
        )
        assert attained == pytest.approx(result.sup, rel=1e-10)
        assert abs(np.sum(y)) <= 1e-10
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-10)
        assert not y.flags.writeable

    @pytest.mark.parametrize("frame", [
        *(sample_sphere_frame(min(n, 3), n, SeedSpec(71, n))
          for n in (1, 2, 3, 16, 64, 257)),
        Frame([[1.0, 1.0]]),
        Frame(np.column_stack([[0.6, 0.8, 0.0]] * 8
                              + [[0.0, 0.0, 1.0], [0.8, -0.6, 0.0]])),
    ], ids=lambda frame: "x".join(map(str, frame.entries.shape)))
    def test_matches_null_space_reference(self, frame):
        entries = frame.entries
        d, n = entries.shape
        basis = null_space(np.ones((1, n)))
        outer_map = (entries[:, None, :] * entries[None, :, :]).reshape(d * d, n)
        if basis.shape[1]:
            _, svals, vt = np.linalg.svd(outer_map @ basis)
            sup, y = float(svals[0]), basis @ vt[0]
        else:
            sup, y = 0.0, np.zeros(n)
        lam = 1.0 - sup * math.sqrt(d * n) / float(np.sum(entries * entries))
        result = quantum_expansion_exact(frame)
        assert result.lam == lam
        assert result.sup == sup
        assert np.array_equal(result.y, y)

    # (2, 16) is a wide map whose thin SVD rounds the witness differently
    @pytest.mark.parametrize("shape", [(2, 16), (4, 16), (16, 20), (16, 256), (64, 80)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_full_svd_form(self, shape):
        frame = sample_sphere_frame(*shape, SeedSpec(73, 0))
        entries = frame.entries
        d, n = shape
        basis = np.linalg.svd(np.ones((n, 1)))[0][:, 1:]
        outer_map = (entries[:, None, :] * entries[None, :, :]).reshape(d * d, n)
        _, svals, vt = np.linalg.svd(outer_map @ basis)
        lam = 1.0 - float(svals[0]) * math.sqrt(d * n) / float(np.sum(entries * entries))
        result = quantum_expansion_exact(frame)
        assert result.lam == lam
        assert np.array_equal(result.y, basis @ vt[0])


class TestInftyExpansion:
    def test_repeated_single_direction(self):
        result = infty_expansion_exact(Frame([[1.0, 1.0]]))
        assert result.lam == pytest.approx(1.0, abs=1e-14)

    def test_identity_frame(self):
        result = infty_expansion_exact(Frame(np.eye(4)))
        assert result.lam == 0.0

    def test_equiangular_closed_form_and_oracle(self):
        frame = equiangular4()
        result = infty_expansion_exact(frame)
        assert result.lam == pytest.approx(LAM_EQUIANGULAR, abs=1e-12)
        assert result.sup == pytest.approx(
            brute_force_infty_sup(frame.entries), abs=1e-12
        )
        assert result.subsets_checked == 6

    def test_matches_brute_force_on_random_frames(self):
        for stream in range(4):
            frame = sample_sphere_frame(3, 8, SeedSpec(70, stream))
            result = infty_expansion_exact(frame)
            assert result.sup == pytest.approx(
                brute_force_infty_sup(frame.entries), abs=1e-12
            )

    def test_odd_n_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            infty_expansion_exact(mercedes())

    def test_witness_attains_sup(self):
        frame = sample_sphere_frame(3, 10, SeedSpec(70, 5))
        result = infty_expansion_exact(frame)
        signs = result.y
        mat = (frame.entries * signs[None, :]) @ frame.entries.T
        assert np.max(np.abs(np.linalg.eigvalsh(mat))) == pytest.approx(
            result.sup, rel=1e-12
        )
        assert not signs.flags.writeable
        # B holds n/2 distinct indices, as ints, and y = 1 - 2*1_B
        assert [type(j) for j in result.subset] == [int] * (frame.n // 2)
        assert (list(result.subset) == sorted(set(result.subset))
                == np.flatnonzero(signs < 0).tolist())


class TestInftySampled:
    def test_upper_bounds_exact(self):
        for stream in range(5):
            frame = sample_sphere_frame(3, 10, SeedSpec(71, stream))
            exact = infty_expansion_exact(frame)
            sampled = infty_expansion_sampled(frame, 64, SeedSpec(72, stream))
            assert sampled.lam >= exact.lam - 1e-12

    def test_saturates_on_small_space(self):
        frame = equiangular4()
        exact = infty_expansion_exact(frame)
        sampled = infty_expansion_sampled(frame, 500, SeedSpec(73, 0))
        assert sampled.lam == pytest.approx(exact.lam, abs=1e-12)

    def test_large_sphere_frame_in_unit_interval(self):
        frame = sample_sphere_frame(16, 256, SeedSpec(74, 0))
        result = infty_expansion_sampled(frame, 10_000, SeedSpec(74, 1))
        assert 0.0 < result.lam < 1.0

    def test_deterministic(self):
        frame = sample_sphere_frame(3, 10, SeedSpec(71, 9))
        a = infty_expansion_sampled(frame, 32, SeedSpec(75, 0))
        b = infty_expansion_sampled(frame, 32, SeedSpec(75, 0))
        assert a.lam == b.lam and a.subset == b.subset


class TestPseudorandom:
    def test_identity_two_vectors(self):
        result = pseudorandom_check(Frame(np.eye(2)), Fraction(1, 2))
        assert result.alpha_min == 0.0
        assert result.alpha_max == pytest.approx(4.0, rel=1e-12)

    def test_doubled_basis(self):
        frame = Frame(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]))
        result = pseudorandom_check(frame, Fraction(1, 2))
        assert result.alpha_min == 0.0
        assert result.subset_min in ((0, 1), (2, 3))

    def test_equiangular_closed_form(self):
        result = pseudorandom_check(equiangular4(), Fraction(1, 2))
        assert result.alpha_min == pytest.approx(4.0 * LAM_EQUIANGULAR, rel=1e-12)
        assert result.alpha_max == pytest.approx(
            4.0 * (2.0 - LAM_EQUIANGULAR), rel=1e-12
        )

    def test_matches_brute_force(self):
        frame = sample_sphere_frame(3, 8, SeedSpec(76, 0))
        result = pseudorandom_check(frame, Fraction(1, 4))
        lo, hi = brute_force_subset_gram_bounds(frame.entries, 2)
        assert result.alpha_min == pytest.approx(12.0 * lo, rel=1e-12, abs=1e-12)
        assert result.alpha_max == pytest.approx(12.0 * hi, rel=1e-12)

    def test_non_integer_fraction_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            pseudorandom_check(Frame(np.eye(3)), Fraction(1, 2))

    def test_sampled_is_one_sided(self):
        for stream in range(5):
            frame = sample_sphere_frame(3, 12, SeedSpec(76, stream))
            exact = pseudorandom_check(frame, Fraction(1, 2))
            sampled = pseudorandom_check(
                frame, Fraction(1, 2), mode="sampled", trials=40,
                seed=SeedSpec(78, stream),
            )
            assert sampled.alpha_min >= exact.alpha_min - 1e-12
            assert sampled.alpha_max <= exact.alpha_max + 1e-12

    def test_subset_averaging_bounds(self):
        # bounds at fraction beta propagate to every larger subset
        frame = balanced_sphere(3, 8, 0)
        result = pseudorandom_check(frame, Fraction(1, 4))
        entries = frame.entries
        d, n = entries.shape
        for k in range(2, n + 1):
            lo, hi = brute_force_subset_gram_bounds(entries, k)
            assert lo >= result.alpha_min * k / (n * d) - 1e-9
            assert hi <= result.alpha_max * k / (n * d) + 1e-9


class TestConversionBounds:
    def test_flat_subsets_force_lambda_one(self):
        assert pseudo_to_infty_bounds(4.0, 4.0, 4.0, 0.0) == 1.0

    def test_direct_substitution(self):
        n = 16.0
        got = pseudo_to_infty_bounds(n / 4.0, 7.0 * n / 4.0, n, 0.05)
        assert got == pytest.approx(0.2, rel=1e-12)

    def test_forward_direction_on_exact_frames(self):
        for stream in range(6):
            frame = sample_sphere_frame(3, 12, SeedSpec(80, stream))
            rep = error_report(frame)
            eps = rep.op_error / rep.size
            check = pseudorandom_check(frame, Fraction(1, 2))
            exact = infty_expansion_exact(frame)
            sup_bound = min(
                rep.size * (1.0 + eps) - check.alpha_min,
                check.alpha_max - rep.size * (1.0 - eps),
            )
            assert frame.d * exact.sup <= sup_bound + 1e-9
            assert exact.lam >= pseudo_to_infty_bounds(
                check.alpha_min, check.alpha_max, rep.size, eps
            ) - 1e-9 or exact.lam < 0

    def test_converse_direction_on_exact_frames(self):
        for stream in range(6):
            frame = sample_sphere_frame(3, 12, SeedSpec(81, stream))
            rep = error_report(frame)
            eps = rep.op_error / rep.size
            check = pseudorandom_check(frame, Fraction(1, 2))
            lam = infty_expansion_exact(frame).lam
            assert check.alpha_min >= rep.size * (lam - eps) - 1e-9
            assert check.alpha_max <= rep.size * (2.0 - (lam - eps)) + 1e-9

    def test_halving_degenerate_cases(self):
        bound = infty_to_pseudo_halving(3.0, 3.0, Fraction(1, 4), 10.0)
        assert bound.alpha_min == pytest.approx(5.0)
        assert bound.beta == Fraction(1, 2)
        tiny = infty_to_pseudo_halving(3.0, 3e9, Fraction(1, 4), 10.0)
        assert tiny.alpha_min < 1e-7

    def test_halving_on_gaussian_frame(self):
        # normalization keeps a quantitative share of the subset lower bound
        frame = sample_gaussian_frame(6, 48, 1.0, SeedSpec(82, 0))
        raw = pseudorandom_check(frame, Fraction(1, 4), mode="sampled",
                                 trials=3000, seed=SeedSpec(82, 1))
        from framescale import normalize_columns

        unit = normalize_columns(frame.entries)
        bound = infty_to_pseudo_halving(
            raw.alpha_min, raw.alpha_max, Fraction(1, 4), 48.0
        )
        observed = pseudorandom_check(unit, Fraction(1, 2), mode="sampled",
                                      trials=3000, seed=SeedSpec(82, 2))
        assert observed.alpha_min >= bound.alpha_min - 1e-9


def _unpruned_cheeger(frame):
    """Value, subset, k and basis from decomposing every subset, block by block."""
    entries = frame.entries
    d, n = entries.shape
    s = error_report(frame).size
    gram = frame.gram
    col_sq = column_square_norms(entries)
    best, best_subset, best_k = math.inf, None, None
    for b_size in range(0, n + 1):
        k_max = (d * (n - b_size)) // n
        for subsets in _combo_chunks(n, b_size):
            cols = entries.T[subsets]
            sub_grams = cols.transpose(0, 2, 1) @ cols
            norms_b = col_sq[subsets].sum(axis=1)
            cums = np.cumsum(np.linalg.eigvalsh(gram[None, :, :] - 2.0 * sub_grams),
                             axis=1)
            for k in range(0 if b_size else 1, k_max + 1):
                nums = norms_b + cums[:, k - 1] if k else norms_b
                ratios = nums / ((s / d) * k + norms_b)
                i = int(np.argmin(ratios))
                if ratios[i] < best:
                    best, best_subset, best_k = float(ratios[i]), subsets[i], k
    basis = None
    if best_k:
        sub = entries[:, best_subset]
        basis = np.linalg.eigh(gram - 2.0 * (sub @ sub.T))[1][:, :best_k]
    return max(best, 0.0), tuple(best_subset.tolist()), best_k, basis


@pytest.fixture(scope="module")
def cheeger_frames():
    """Criterion 9's battery, 22 balanced sphere frames with d <= 4 and n <= 16,
    and balanced frames with repeated columns, whose subsets tie."""
    frames = _balanced_battery()
    for d in (2, 3, 4):
        for n in (5, 6, 7, 8, 9, 10, 12):
            frames.append(balanced_sphere(d, n, 100 + 20 * d + n))
    frames.append(balanced_sphere(4, 16, 150))
    frames += [Frame(np.eye(4)), Frame([[1.0, 1.0]]), mercedes(),
               Frame(np.hstack([equiangular4().entries] * 3)),
               Frame(np.hstack([np.eye(4)] * 2))]
    return frames


class TestCheeger:
    def test_kernel_equals_unpruned_enumeration(self, cheeger_frames):
        for frame in cheeger_frames:
            result = cheeger_constant(frame)
            value, subset, k, basis = _unpruned_cheeger(frame)
            assert (result.value, result.subset, result.k) == (value, subset, k)
            assert (result.basis is None if basis is None
                    else np.array_equal(result.basis, basis))

    def test_decomposes_few_subsets(self, cheeger_frames, monkeypatch):
        frame = next(f for f in cheeger_frames if f.n == 16)
        matrices = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            matrices.append(math.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cheeger_constant(frame)
        assert sum(matrices) < 2**16 / 3

    def test_identity_frame_zero(self):
        result = cheeger_constant(Frame(np.eye(4)))
        assert result.value == 0.0

    def test_repeated_single_direction_one(self):
        result = cheeger_constant(Frame([[1.0, 1.0]]))
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_mercedes_positive_and_oracle(self):
        frame = mercedes()
        result = cheeger_constant(frame)
        assert result.value > 0.0
        oracle = brute_force_cheeger(frame.entries, error_report(frame).size)
        assert result.value == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_matches_brute_force_on_balanced_frames(self):
        for stream in range(3):
            frame = balanced_sphere(3, 8, 10 + stream)
            result = cheeger_constant(frame)
            oracle = brute_force_cheeger(frame.entries, error_report(frame).size)
            assert result.value == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_requires_balance(self):
        skew = Frame(np.array([[2.0, 0.0, 0.1], [0.0, 1.0, 0.1]]))
        with pytest.raises(BalanceRequiredError):
            cheeger_constant(skew)

    def test_witness_reproduces_ratio(self):
        frame = equiangular4()
        result = cheeger_constant(frame)
        entries = frame.entries
        d = frame.d
        s = error_report(frame).size
        subset = list(result.subset)
        k = result.k
        cols = entries[:, subset] if subset else np.zeros((d, 0))
        if k:
            basis = result.basis
            assert not basis.flags.writeable
            proj = basis @ basis.T
        else:
            proj = np.zeros((d, d))
        rest = entries[:, [j for j in range(frame.n) if j not in subset]]
        num = (
            np.linalg.norm((np.eye(d) - proj) @ cols) ** 2
            + np.linalg.norm(proj @ rest) ** 2
        )
        den = (s / d) * k + float(np.sum(cols * cols))
        assert result.value == pytest.approx(num / den, rel=1e-10, abs=1e-12)


class TestChain:
    def test_identity_frame(self):
        report = infty_implies_quantum_check(Frame(np.eye(4)))
        assert report.lambda_infty == 0.0
        assert report.holds

    def test_equiangular(self):
        report = infty_implies_quantum_check(equiangular4())
        assert report.lambda_infty == pytest.approx(LAM_EQUIANGULAR, abs=1e-12)
        assert report.holds

    def test_balanced_random_frames(self):
        for stream in range(5):
            frame = balanced_sphere(3, 8, 20 + stream)
            report = infty_implies_quantum_check(frame)
            assert report.holds

    def test_requires_even_n(self):
        with pytest.raises(UnsupportedConfigError):
            infty_implies_quantum_check(mercedes())

    def test_records_its_slack(self):
        assert infty_implies_quantum_check(Frame(np.eye(4))).fp_tol == CHAIN_FP_TOL


class TestInvariances:
    def test_orthogonal_invariance(self):
        frame = balanced_sphere(3, 8, 30)
        gen = np.random.default_rng(5)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        rotated = Frame(q @ frame.entries)
        assert infty_expansion_exact(rotated).lam == pytest.approx(
            infty_expansion_exact(frame).lam, abs=1e-10
        )
        assert quantum_expansion_exact(rotated).lam == pytest.approx(
            quantum_expansion_exact(frame).lam, abs=1e-10
        )
        a = pseudorandom_check(frame, Fraction(1, 2))
        b = pseudorandom_check(rotated, Fraction(1, 2))
        assert b.alpha_min == pytest.approx(a.alpha_min, abs=1e-10)
        assert b.alpha_max == pytest.approx(a.alpha_max, abs=1e-10)
        assert cheeger_constant(rotated).value == pytest.approx(
            cheeger_constant(frame).value, abs=1e-10
        )

    def test_column_permutation_invariance(self):
        frame = balanced_sphere(3, 8, 31)
        perm = np.random.default_rng(6).permutation(8)
        shuffled = Frame(frame.entries[:, perm])
        assert infty_expansion_exact(shuffled).lam == pytest.approx(
            infty_expansion_exact(frame).lam, abs=1e-12
        )
        a = pseudorandom_check(frame, Fraction(1, 2))
        b = pseudorandom_check(shuffled, Fraction(1, 2))
        assert b.alpha_min == pytest.approx(a.alpha_min, abs=1e-12)
        assert b.alpha_max == pytest.approx(a.alpha_max, abs=1e-12)

    def test_vertex_optimality_against_random_feasible_points(self):
        # the polytope max is attained at a sign-balanced vertex: 10000
        # random feasible points never beat it, and adding the witness
        # vertex to the candidate set recovers it exactly
        gen = np.random.default_rng(7)
        for stream in range(3):
            frame = sample_sphere_frame(3, 8, SeedSpec(83, stream))
            entries = frame.entries
            exact = infty_expansion_exact(frame)
            ys = gen.uniform(-1.0, 1.0, size=(10_000, 8))
            ys -= ys.mean(axis=1, keepdims=True)
            peaks = np.maximum(np.max(np.abs(ys), axis=1), 1.0)
            ys /= peaks[:, None]
            mats = (entries[None, :, :] * ys[:, None, :]) @ entries.T
            sup_random = float(
                np.max(np.abs(np.linalg.eigvalsh(mats)))
            )
            assert sup_random <= exact.sup + 1e-9
            with_witness = np.vstack([ys, exact.y])
            mats = (entries[None, :, :] * with_witness[:, None, :]) @ entries.T
            sup_all = float(np.max(np.abs(np.linalg.eigvalsh(mats))))
            assert sup_all == pytest.approx(exact.sup, abs=1e-9)


class TestReportBuilder:
    def test_exact_report_fields(self):
        frame = balanced_sphere(3, 8, 40)
        report = build_expansion_report(frame, mode="exact", beta=Fraction(1, 2))
        assert report.mode == "exact"
        assert report.lambda_infty is not None
        assert report.lambda_quantum is not None
        assert report.cheeger is not None
        assert report.alpha_min <= report.alpha_max
        parsed = __import__("json").loads(report.to_json())
        assert parsed["beta"] == "1/2"

    def test_sampled_report(self):
        frame = sample_sphere_frame(4, 24, SeedSpec(84, 0))
        report = build_expansion_report(
            frame, mode="sampled", beta=Fraction(1, 2), trials=100,
            seed=SeedSpec(84, 1),
        )
        assert report.mode == "sampled"
        assert report.cheeger is None  # raw frame is not balanced
        assert report.subsets_checked == 100

    def test_rejects_unknown_mode(self):
        frame = sample_sphere_frame(3, 8, SeedSpec(84, 2))
        with pytest.raises(ValueError, match="mode must be 'exact' or 'sampled'"):
            build_expansion_report(frame, mode="bogus", seed=SeedSpec(84, 3))


def _kernel_frames():
    frames = {
        f"sphere-{d}x{n}": sample_sphere_frame(d, n, SeedSpec(90, 10 * d + n)).entries
        for d in (2, 3, 4) for n in (8, 12, 16)
    }
    gen = np.random.default_rng(91)
    direction = gen.standard_normal(3)
    frames["identity-x4"] = np.hstack([np.eye(4)] * 4)
    frames["repeated-direction"] = np.column_stack(
        [direction] * 8 + list(gen.standard_normal((4, 3))))
    frames["equiangular-x3"] = np.hstack([equiangular4().entries] * 3)
    return frames


KERNEL_FRAMES = _kernel_frames()
KERNEL_TRIALS = 300


def _all_subsets(n, k, mode, stream):
    """Every subset the certificate visits, in its order, as one block."""
    if mode == "exact":
        return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    gen = SeedSpec(92, stream).generator()
    return np.concatenate(list(_sampled_subsets(n, k, KERNEL_TRIALS, gen)))


def _full_infty(entries, subsets):
    """lambda_infty and its witness from decomposing every vertex."""
    sups = _vertex_op_norms(entries, subsets)
    i = int(np.argmax(sups))
    s = float(np.sum(entries * entries))
    return 1.0 - entries.shape[0] * float(sups[i]) / s, tuple(np.sort(subsets[i]))


def _full_pseudo(entries, subsets, beta):
    """alpha_min, alpha_max and their witnesses from decomposing every subset."""
    mins, maxs = _subset_gram_extremes(entries, subsets)
    i, j = int(np.argmin(mins)), int(np.argmax(maxs))
    scale = entries.shape[0] / float(beta)
    return (scale * float(mins[i]), scale * float(maxs[j]),
            tuple(np.sort(subsets[i])), tuple(np.sort(subsets[j])))


def _full_vertices(entries):
    """sup, its first vertex and the vertex count from decomposing all C(n, n/2)."""
    combos = itertools.combinations(range(entries.shape[1]), entries.shape[1] // 2)
    best, best_subset, count = -1.0, None, 0
    while rows := list(itertools.islice(combos, 16384)):
        sups = _vertex_op_norms(entries, np.array(rows, dtype=np.intp))
        i = int(np.argmax(sups))
        if sups[i] > best:
            best, best_subset = float(sups[i]), rows[i]
        count += len(rows)
    return best, best_subset, count


def _certificates(frame):
    """Every exact subset certificate of a balanced frame, arrays as bytes."""
    results = (infty_expansion_exact(frame), pseudorandom_check(frame, Fraction(1, 4)),
               pseudorandom_check(frame, Fraction(1, 2)), cheeger_constant(frame))
    return [{key: value.tobytes() if isinstance(value, np.ndarray) else value
             for key, value in vars(result).items()} for result in results]


class TestSubsetKernel:
    def test_combo_chunks_match_itertools(self):
        for n in range(0, 11):
            for k in range(0, n + 1):
                expected = list(itertools.combinations(range(n), k))
                blocks = list(_combo_chunks(n, k, chunk=7))
                assert all(0 < b.shape[0] <= 7 and b.shape[1] == k for b in blocks)
                rows = [tuple(int(j) for j in row) for b in blocks for row in b]
                assert rows == expected, (n, k)
                subsets, ind = _subset_table(n, k)
                assert [tuple(int(j) for j in row) for row in subsets] == expected
                assert ind.shape == (n, len(expected))
                for row, column in zip(expected, ind.T):
                    assert column.tolist() == [float(j in row) for j in range(n)]

    def test_subset_table_is_read_only(self):
        subsets, ind = _subset_table(8, 4)
        with pytest.raises(ValueError):
            subsets[0, 0] = 1
        with pytest.raises(ValueError):
            ind[0, 0] = 0.0
        # slices handed to the kernel are views, read-only as well
        [(half, half_ind)] = _lex_blocks(8, 4, math.comb(7, 3))
        assert half.base is not None and not half.flags.writeable
        assert not half_ind.flags.writeable

    def test_only_one_block_tables_at_small_n_are_cached(self):
        _subset_table.cache_clear()
        # C(20, 10) exceeds one block and C(24, 3) has n > 20: both stream
        infty_expansion_exact(sample_sphere_frame(4, 20, SeedSpec(94, 0)))
        pseudorandom_check(sample_sphere_frame(4, 24, SeedSpec(94, 1)), Fraction(1, 8))
        assert _subset_table.cache_info().currsize == 0
        assert all(ind is None for _, ind in _lex_blocks(20, 10))
        infty_expansion_exact(sample_sphere_frame(4, 16, SeedSpec(94, 2)))
        assert _subset_table.cache_info().currsize == 1

    def test_cold_and_warm_tables_agree(self):
        frame = balanced_sphere(4, 16, 160)
        _subset_table.cache_clear()
        cold = _certificates(frame)
        built = _subset_table.cache_info()
        assert built.misses > 0
        assert _certificates(frame) == cold
        assert _subset_table.cache_info().misses == built.misses

    @pytest.mark.parametrize("case", [
        *((kind, d, n) for kind in ("raw", "balanced")
          for d in (2, 3, 4) for n in (8, 16, 18)),
        ("raw", 4, 20), ("balanced", 2, 20),
        "identity-x4", "equiangular-x3", "repeated-direction",
    ], ids=lambda case: case if isinstance(case, str) else "-".join(map(str, case)))
    def test_half_enumeration_equals_full(self, case):
        if isinstance(case, str):
            frame = Frame(KERNEL_FRAMES[case])
        elif case[0] == "raw":
            frame = sample_sphere_frame(case[1], case[2], SeedSpec(95, case[2]))
        else:
            frame = balanced_sphere(case[1], case[2], 170 + case[2])
        entries = frame.entries
        sup, subset, count = _full_vertices(entries)
        y = np.ones(frame.n)
        y[list(subset)] = -1.0
        result = infty_expansion_exact(frame)
        assert result.lam == 1.0 - frame.d * sup / float(np.sum(entries * entries))
        assert (result.sup, result.subset, result.subsets_checked) == (sup, subset, count)
        assert np.array_equal(result.y, y)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("name", sorted(KERNEL_FRAMES))
    def test_pruned_equals_full_evaluation(self, name, mode):
        entries = KERNEL_FRAMES[name]
        frame = Frame(entries)
        n = frame.n
        if mode == "exact":
            infty = infty_expansion_exact(frame)
        else:
            infty = infty_expansion_sampled(frame, KERNEL_TRIALS, SeedSpec(92, 0))
        assert (infty.lam, infty.subset) == _full_infty(
            entries, _all_subsets(n, n // 2, mode, 0))
        for stream, beta in enumerate((Fraction(1, 4), Fraction(1, 2)), start=1):
            if mode == "exact":
                pseudo = pseudorandom_check(frame, beta)
            else:
                pseudo = pseudorandom_check(frame, beta, mode="sampled",
                                            trials=KERNEL_TRIALS,
                                            seed=SeedSpec(92, stream))
            got = (pseudo.alpha_min, pseudo.alpha_max,
                   pseudo.subset_min, pseudo.subset_max)
            assert got == _full_pseudo(
                entries, _all_subsets(n, int(beta * n), mode, stream), beta)
            # each subset holds beta n distinct indices, as ints
            assert all([type(j) for j in set(subset)] == [int] * int(beta * n)
                       for subset in got[2:])

    def test_exact_certificates_decompose_few_matrices(self, monkeypatch):
        frame = sample_sphere_frame(4, 16, SeedSpec(93, 0))
        matrices = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, **kwargs):
                matrices.append(math.prod(np.shape(a)[:-2]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        infty_expansion_exact(frame)
        pseudorandom_check(frame, Fraction(1, 4))
        pseudorandom_check(frame, Fraction(1, 2))
        # decomposing every subset takes C(16,8) + C(16,4) + C(16,8) = 27,560
        assert sum(matrices) <= 1000
