"""Exact and sampled expansion certificates for frames.

Three related notions are certified here for a frame V of size s:

* quantum expansion: sup of ||sum_j y_j v_j v_j^T||_F over unit-l2 zero-sum
  test vectors, compared against s (1 - lambda) / sqrt(d n);
* infinity expansion: the same sup in operator norm over the zero-sum
  infinity-norm ball, compared against s (1 - lambda) / d, extremized at
  sign-balanced vertices;
* pseudorandomness: two-sided spectral bounds alpha_min, alpha_max on all
  column-subset Gram matrices of a fixed fraction beta.

Exact certificates enumerate every subset (or reduce to one SVD), except
that exact infinity expansion visits only the vertices whose B holds column
0: B and its complement give M and -M, and ``subsets_checked`` still counts
every vertex covered.  Sampled certificates visit random subsets and are
one-sided by construction.  All subset certificates, the Cheeger-style
bottleneck quantity included, run on one kernel that decomposes only the
subsets an LDL^T test cannot rule out, with the values and witnesses of
decomposing every subset.  That quantity links infinity expansion to quantum
expansion for doubly balanced frames.

Each result carries the witness attaining its value: subsets as tuples of
0-based column indices (Python ints), vectors and bases as read-only arrays.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .frame import Frame, column_square_norms, error_report
from .sampling import SeedSpec

__all__ = [
    "QuantumExpansionResult",
    "InftyExpansionResult",
    "PseudorandomResult",
    "CheegerResult",
    "ChainReport",
    "HalvingBound",
    "ExpansionReport",
    "UnsupportedConfigError",
    "BalanceRequiredError",
    "quantum_expansion_exact",
    "infty_expansion_exact",
    "infty_expansion_sampled",
    "pseudorandom_check",
    "pseudo_to_infty_bounds",
    "infty_to_pseudo_halving",
    "cheeger_constant",
    "infty_implies_quantum_check",
    "build_expansion_report",
]

QUANTUM_EXACT_MAX_N = 2000
INFTY_EXACT_MAX_N = 20
PSEUDO_EXACT_MAX_SUBSETS = 2_000_000
CHEEGER_MAX_N = 16
# slack of both links of infty_implies_quantum_check
CHAIN_FP_TOL = 1e-9
# exactly-balanced preconditions accept this much relative defect
BALANCE_RTOL = 1e-8
_CHUNK = 16384
# The subset kernel skips a subset only when an LDL^T factorization certifies
# that its value is worse than the incumbent by this fraction of the frame
# size, far above the O(n eps s) rounding of the GEMM Grams, the pivots and
# the eigenvalues of the subsets it does decompose.
_PRUNE_RTOL = 1e-9
# rows per block decomposed first, ranked by a Rayleigh bound, to set the incumbent
_PROBES = 16


class UnsupportedConfigError(ValueError):
    """Requested certificate is outside the supported configuration."""


class BalanceRequiredError(ValueError):
    """Operation needs a doubly balanced frame."""


@dataclass(frozen=True)
class QuantumExpansionResult:
    """``y`` is the unit-l2 zero-sum test vector attaining ``sup``."""

    lam: float
    sup: float
    y: np.ndarray


@dataclass(frozen=True)
class InftyExpansionResult:
    """``y`` = 1 - 2*1_B for B = ``subset`` is the vertex attaining ``sup``.

    ``subsets_checked`` counts the vertices covered.  The exact certificate
    visits half of its C(n, n/2): those whose B holds column 0, which cover
    their complements.
    """

    lam: float
    sup: float
    mode: str
    subset: tuple
    y: np.ndarray
    subsets_checked: int


@dataclass(frozen=True)
class PseudorandomResult:
    alpha_min: float
    alpha_max: float
    beta: Fraction
    mode: str
    subset_min: tuple
    subset_max: tuple
    subsets_checked: int


@dataclass(frozen=True)
class CheegerResult:
    """``subset`` and the span A of the ``k`` columns of ``basis`` attain
    ``value``; ``basis`` is None when k = 0."""

    value: float
    subset: tuple
    k: int
    basis: np.ndarray | None


@dataclass(frozen=True)
class ChainReport:
    lambda_infty: float
    cheeger: float
    lambda_quantum: float
    infty_to_cheeger_ok: bool
    cheeger_to_quantum_ok: bool
    fp_tol: float

    @property
    def holds(self) -> bool:
        return self.infty_to_cheeger_ok and self.cheeger_to_quantum_ok


@dataclass(frozen=True)
class HalvingBound:
    alpha_min: float
    beta: Fraction


def _combo_chunks(n, k, chunk=_CHUNK, rows=None):
    """Yield lexicographic blocks of the first ``rows`` (default: all)
    k-subsets of range(n) as index arrays.

    Rows come in itertools.combinations order, unranked k searchsorted calls
    at a time: ``starts[i][b]`` counts the subsets whose i-th element is
    below b, whatever the elements before it.
    """
    total = math.comb(n, k) if rows is None else rows
    starts = [
        np.cumsum([0] + [math.comb(n - b - 1, k - i - 1) for b in range(n)])
        for i in range(k)
    ]
    for first in range(0, total, chunk):
        rest = np.arange(first, min(first + chunk, total), dtype=np.int64)
        block = np.empty((rest.size, k), dtype=np.intp)
        prev = np.full(rest.size, -1)
        for i, start in enumerate(starts):
            base = start[prev + 1]
            prev = np.searchsorted(start, rest + base, side="right") - 1
            rest -= start[prev] - base
            block[:, i] = prev
        yield block


def _indicator(subsets, n):
    """The (n, m) 0/1 indicator of m subsets of range(n), one column each."""
    m = subsets.shape[0]
    ind = np.zeros((m, n))
    ind[np.arange(m)[:, None], subsets] = 1.0
    return ind.T


# Tables are kept for one-block enumerations at n <= INFTY_EXACT_MAX_N only.
# One takes at most 15,504 rows x (15 + 20) x 8 B, about 4.3 MB, at (20, 15);
# the 20 largest together take about 40 MB.  All 17 at n = 16, which one
# Cheeger enumeration visits, take 12.6 MB.
@functools.lru_cache(maxsize=20)
def _subset_table(n, k):
    """Every k-subset of range(n) in lexicographic order and its indicator.

    Read-only (m, k) index rows and their (n, m) 0/1 indicator, built once
    per process for each (n, k).
    """
    subsets = next(_combo_chunks(n, k))
    ind = _indicator(subsets, n)
    subsets.setflags(write=False)
    ind.setflags(write=False)
    return subsets, ind


def _lex_blocks(n, k, rows=None):
    """Yield the first ``rows`` (default: all) lexicographic k-subsets of
    range(n) as (subsets, indicator) blocks.

    One-block enumerations come from the cached table; longer ones stream
    through ``_combo_chunks`` with no indicator.
    """
    if n <= INFTY_EXACT_MAX_N and math.comb(n, k) <= _CHUNK:
        subsets, ind = _subset_table(n, k)
        yield subsets[:rows], ind[:, :rows]
    else:
        for subsets in _combo_chunks(n, k, rows=rows):
            yield subsets, None


def _vertex_op_norms(entries, subsets):
    """Operator norms of sum_j y_j v_j v_j^T for y = 1 - 2*1_B per row of subsets."""
    signs = np.ones((subsets.shape[0], entries.shape[1]))
    np.put_along_axis(signs, subsets, -1.0, axis=1)
    mats = (entries[None, :, :] * signs[:, None, :]) @ entries.T
    eigs = np.linalg.eigvalsh(mats)
    return np.abs(eigs).max(axis=-1)


def _subset_gram_extremes(entries, subsets):
    """Smallest and largest eigenvalue of V_B V_B^T per row of subsets."""
    cols = entries.T[subsets]  # (m, k, d)
    grams = cols.transpose(0, 2, 1) @ cols
    eigs = np.linalg.eigvalsh(grams)
    # Gram matrices are PSD; round-off below zero is noise
    return np.maximum(eigs[:, 0], 0.0), eigs[:, -1]


def _sampled_subsets(n, k, count, gen, chunk=_CHUNK):
    """Yield blocks of uniformly random k-subsets of range(n), 1 <= k < n."""
    remaining = count
    while remaining > 0:
        m = min(remaining, chunk)
        scores = gen.random((m, n))
        yield np.argpartition(scores, k - 1, axis=1)[:, :k]
        remaining -= m


def _positive_definite(base, scale, grams):
    """Rows of a (d, d, m) stack where base + scale * G_B has positive LDL^T pivots.

    ``base`` is one (d, d, 1) matrix or a (d, d, m) stack.  Left-looking:
    column j is built from the finished columns alone, so no trailing block
    is updated.  A zero, negative or NaN pivot reads False.
    """
    d, _, m = grams.shape
    low = np.empty((d, d, m))  # L, below the diagonal
    scaled = np.empty((d, d, m))  # L D, on and below the diagonal
    ok = np.ones(m, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(d):
            col = (base[j:, j] + scale * grams[j:, j]
                   - np.einsum("ikm,km->im", low[j:, :j], scaled[j, :j]))
            ok &= col[0] > 0.0
            scaled[j:, j] = col
            low[j + 1:, j] = col[1:] / col[0]
    return ok


def _leading(scores, count):
    """Indices of the ``count`` largest scores (all of them if fewer)."""
    if scores.size <= count:
        return np.arange(scores.size)
    return np.argpartition(scores, -count)[-count:]


class _SubsetKernel:
    """Block-wise subset certificates of one frame, decomposing few subsets.

    Per frame: the (d*d, n) table of outer products v_j v_j^T, so that the
    Grams G_B of a block are one GEMM against its 0/1 indicator; the frame's
    G = V V^T; and the squared projections (u_i . v_j)^2 of the columns on the
    eigenvectors u_i of G, so that the Rayleigh quotients u_i^T G_B u_i are
    another.  The vertex and Gram certificates decompose the rows with the
    best Rayleigh bound of each block first, to set an incumbent; Cheeger
    takes the best of the smaller subsets.  An LDL^T test then certifies
    which rows are worse than the incumbent by more than the margin, and
    only the others are decomposed, by the formula of decomposing every row
    and in block order, so values, ties and witnesses match it.
    """

    def __init__(self, frame):
        entries = frame.entries
        d, n = entries.shape
        self.entries = entries
        self.outer = (entries[:, None, :] * entries[None, :, :]).reshape(d * d, n)
        self.gram = frame.gram
        self.evals, vecs = np.linalg.eigh(self.gram)
        self.proj = (vecs.T @ entries) ** 2
        self.tol = _PRUNE_RTOL * float(np.trace(self.gram))
        self.eye = np.eye(d)[:, :, None]

    def _block(self, subsets, ind):
        """Grams G_B as a (d, d, m) stack and their (d, m) Rayleigh quotients.

        ``ind`` is the block's indicator, or None to build it here.
        """
        d, n = self.entries.shape
        if ind is None:
            ind = _indicator(subsets, n)
        return (self.outer @ ind).reshape(d, d, subsets.shape[0]), self.proj @ ind

    def max_vertex_norm(self, blocks):
        """Largest operator norm of M = G - 2 G_B and the first subset attaining it."""
        best = -1.0
        best_subset = None
        for subsets, ind in blocks:
            grams, quots = self._block(subsets, ind)
            probed = np.zeros(subsets.shape[0], dtype=bool)
            # |u_i^T M u_i| <= ||M||
            probed[_leading(np.abs(self.evals[:, None] - 2.0 * quots).max(axis=0),
                            _PROBES)] = True
            vals = np.full(subsets.shape[0], -np.inf)
            vals[probed] = _vertex_op_norms(self.entries, subsets[probed])
            c = max(best, float(vals.max())) - self.tol
            # ||M|| < c  iff  cI - M = (cI - G) + 2 G_B and cI + M are PD
            rest = ~probed & ~(
                _positive_definite(c * self.eye - self.gram[:, :, None], 2.0, grams)
                & _positive_definite(c * self.eye + self.gram[:, :, None], -2.0, grams))
            if rest.any():
                vals[rest] = _vertex_op_norms(self.entries, subsets[rest])
            i = int(np.argmax(vals))
            if vals[i] > best:
                best = float(vals[i])
                best_subset = np.sort(subsets[i])
        return best, best_subset

    def gram_extremes(self, blocks):
        """Smallest and largest lambda(G_B) with the first subsets attaining them."""
        lo, hi = math.inf, -math.inf
        lo_subset = hi_subset = None
        for subsets, ind in blocks:
            grams, quots = self._block(subsets, ind)
            probed = np.zeros(subsets.shape[0], dtype=bool)
            # lambda_min(G_B) <= min_i u_i^T G_B u_i, max_i <= lambda_max(G_B)
            probed[_leading(-quots.min(axis=0), _PROBES)] = True
            probed[_leading(quots.max(axis=0), _PROBES)] = True
            mins = np.full(subsets.shape[0], np.inf)
            maxs = np.full(subsets.shape[0], -np.inf)
            mins[probed], maxs[probed] = _subset_gram_extremes(
                self.entries, subsets[probed])
            c_lo = min(lo, float(mins.min())) + self.tol
            c_hi = max(hi, float(maxs.max())) - self.tol
            rest = ~probed & ~(
                _positive_definite(-c_lo * self.eye, 1.0, grams)
                & _positive_definite(c_hi * self.eye, -1.0, grams))
            if rest.any():
                mins[rest], maxs[rest] = _subset_gram_extremes(
                    self.entries, subsets[rest])
            i = int(np.argmin(mins))
            if mins[i] < lo:
                lo = float(mins[i])
                lo_subset = np.sort(subsets[i])
            j = int(np.argmax(maxs))
            if maxs[j] > hi:
                hi = float(maxs[j])
                hi_subset = np.sort(subsets[j])
        return lo, lo_subset, hi, hi_subset

    def cheeger(self, size):
        """Smallest bottleneck ratio and the first B, then smallest k, attaining it.

        With N = ||V_B||^2, a = s/d and M = G - 2 G_B, k = 0 gives N/N = 1 and
        k >= 1 at least (N + k lambda_min(M)) / (a k + N), monotone in k; once
        best < 1, B loses if M - (best a + (best - 1) N / k_max + tol) I is PD.
        """
        d, n = self.entries.shape
        a = size / d
        col_sq = column_square_norms(self.entries)
        best, best_subset, best_k = math.inf, None, None
        for b_size in range(n + 1):
            k_max = (d * (n - b_size)) // n
            if best < 1.0 and not k_max:
                break
            # k = 0 with B empty is 0/0, so the empty block starts at k = 1
            ks = np.arange(0 if b_size else 1, k_max + 1)
            for subsets, ind in _lex_blocks(n, b_size):
                norms = col_sq[subsets].sum(axis=1)
                if best < 1.0:
                    c = best * a + (best - 1.0) * norms / k_max + self.tol
                    keep = ~_positive_definite(self.gram[:, :, None] - c * self.eye,
                                               -2.0, self._block(subsets, ind)[0])
                    if not keep.any():
                        continue
                    subsets, norms = subsets[keep], norms[keep]
                cols = self.entries.T[subsets]
                eigs = np.linalg.eigvalsh(self.gram - 2.0 * (cols.mT @ cols))
                # row k: the sum of each subset's k smallest eigenvalues
                lowest = np.cumsum(np.pad(eigs, ((0, 0), (1, 0))), axis=1).T
                ratios = (norms + lowest[ks]) / (a * ks[:, None] + norms)
                k, i = divmod(int(np.argmin(ratios)), len(norms))
                if ratios[k, i] < best:
                    best, best_subset, best_k = ratios[k, i], subsets[i], ks[k]
        return float(best), best_subset, int(best_k)


def quantum_expansion_exact(frame: Frame) -> QuantumExpansionResult:
    """Exact quantum-expansion constant via one SVD.

    The sup over unit-l2 zero-sum y of ||sum_j y_j v_j v_j^T||_F is the top
    singular value of the map y -> vec(sum_j y_j v_j v_j^T) restricted to
    the zero-sum hyperplane; lambda solves sup = s (1 - lambda) / sqrt(dn).
    """
    entries = frame.entries
    d, n = entries.shape
    if n > QUANTUM_EXACT_MAX_N:
        raise UnsupportedConfigError(
            f"exact quantum expansion supports n <= {QUANTUM_EXACT_MAX_N}, got {n}"
        )
    s = float(np.sum(entries * entries))
    outer_map = (entries[:, None, :] * entries[None, :, :]).reshape(d * d, n)
    # orthonormal basis of the zero-sum hyperplane: U's columns past rank 1.
    # It is row-major; the same numbers column-major (Vh[1:].T of the ones
    # row) send both products below to other BLAS kernels, which round
    # differently.
    basis = np.linalg.svd(np.ones((n, 1)))[0][:, 1:]
    if basis.shape[1] == 0:
        sup = 0.0
        y = np.zeros(n)
    else:
        # only a tall map's U (d^2 x d^2) is large, and LAPACK computes vt
        # alike for the thin and full SVD of a tall matrix but not of a wide
        # one, so a wide map keeps the full form and its last bits
        _, svals, vt = np.linalg.svd(outer_map @ basis,
                                     full_matrices=d * d < n - 1)
        sup = float(svals[0])
        y = basis @ vt[0]
    y.setflags(write=False)
    lam = 1.0 - sup * math.sqrt(d * n) / s
    return QuantumExpansionResult(lam=lam, sup=sup, y=y)


def _infty_expansion(frame, blocks, mode, checked):
    """The expansion constant from the largest vertex norm over ``blocks``."""
    d, n = frame.entries.shape
    s = float(np.sum(frame.entries * frame.entries))
    best, best_subset = _SubsetKernel(frame).max_vertex_norm(blocks)
    signs = np.ones(n)
    signs[best_subset] = -1.0
    signs.setflags(write=False)
    return InftyExpansionResult(
        lam=1.0 - d * best / s,
        sup=best,
        mode=mode,
        subset=tuple(best_subset.tolist()),
        y=signs,
        subsets_checked=checked,
    )


def infty_expansion_exact(frame: Frame) -> InftyExpansionResult:
    """Exact infinity-expansion constant by enumerating sign-balanced vertices.

    The maximized norm is convex in the test vector, so the sup over the
    zero-sum infinity ball is attained at a vertex 1 - 2*1_B with |B| = n/2.
    B and its complement give M and -M, computed as exact negatives, and
    eigvalsh gives both the same largest |eigenvalue|.  So only the first
    C(n-1, n/2-1) subsets in lexicographic order, those holding column 0,
    are visited; they hold the first maximizer of the full order.
    """
    n = frame.n
    if n % 2:
        raise UnsupportedConfigError(
            f"exact infinity expansion needs even n (odd n would require "
            f"fractional vertices); got n={n}, use the sampled variant"
        )
    if n > INFTY_EXACT_MAX_N:
        raise UnsupportedConfigError(
            f"exact infinity expansion supports n <= {INFTY_EXACT_MAX_N}, got {n}"
        )
    half = math.comb(n - 1, n // 2 - 1)
    return _infty_expansion(frame, _lex_blocks(n, n // 2, half), "exact",
                            math.comb(n, n // 2))


def infty_expansion_sampled(frame: Frame, trials: int, seed: SeedSpec
                            ) -> InftyExpansionResult:
    """Sampled vertices give a certified upper bound on the expansion constant.

    Every vertex visited can only raise the observed sup, hence only lower
    lambda; the returned value is always >= the exact constant.
    """
    n = frame.n
    if n % 2:
        raise UnsupportedConfigError(f"sampling needs even n, got n={n}")
    if trials < 1:
        raise ValueError("trials must be positive")
    blocks = _sampled_subsets(n, n // 2, trials, seed.generator())
    return _infty_expansion(frame, zip(blocks, itertools.repeat(None)),
                            "sampled", trials)


def _as_beta(beta, n):
    if isinstance(beta, float):
        frac = Fraction(beta).limit_denominator(max(n, 2))
    else:
        frac = Fraction(beta)
    if not 0 < frac <= Fraction(1, 2):
        raise UnsupportedConfigError(f"beta must lie in (0, 1/2], got {beta}")
    k = frac * n
    if k.denominator != 1:
        raise UnsupportedConfigError(
            f"beta * n must be an integer, got beta={frac} with n={n}"
        )
    return frac, int(k)


def pseudorandom_check(frame: Frame, beta, mode: str = "exact",
                       trials: int = 2000, seed: SeedSpec | None = None
                       ) -> PseudorandomResult:
    """Two-sided spectral bounds over column subsets of fraction beta.

    Exact mode enumerates every subset (feasible while C(n, beta n) stays
    below two million).  Sampled mode visits ``trials`` random subsets and
    returns one-sided certificates: an upper bound on alpha_min and a lower
    bound on alpha_max.
    """
    entries = frame.entries
    d, n = entries.shape
    frac, k = _as_beta(beta, n)
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "exact":
        total = math.comb(n, k)
        if total > PSEUDO_EXACT_MAX_SUBSETS:
            raise UnsupportedConfigError(
                f"exact pseudorandomness needs C(n, beta n) <= "
                f"{PSEUDO_EXACT_MAX_SUBSETS}, got {total}"
            )
        blocks = _lex_blocks(n, k)
        checked = total
    else:
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        if trials < 1:
            raise ValueError("trials must be positive")
        blocks = zip(_sampled_subsets(n, k, trials, seed.generator()),
                     itertools.repeat(None))
        checked = trials
    lo, lo_subset, hi, hi_subset = _SubsetKernel(frame).gram_extremes(blocks)
    scale = d / float(frac)
    return PseudorandomResult(
        alpha_min=scale * lo,
        alpha_max=scale * hi,
        beta=frac,
        mode=mode,
        subset_min=tuple(lo_subset.tolist()),
        subset_max=tuple(hi_subset.tolist()),
        subsets_checked=checked,
    )


def pseudo_to_infty_bounds(alpha_min: float, alpha_max: float, size: float,
                           eps: float) -> float:
    """Expansion constant implied by half-fraction pseudorandomness.

    For an eps-doubly-balanced frame the infinity-expansion sup is at most
    min{ s (1 + eps) - alpha_min, alpha_max - s (1 - eps) }, giving a lower
    bound on lambda (clamped to [0, 1]).
    """
    if not size > 0:
        raise ValueError("size must be positive")
    bound = min(size * (1.0 + eps) - alpha_min, alpha_max - size * (1.0 - eps))
    return min(max(1.0 - bound / size, 0.0), 1.0)


def infty_to_pseudo_halving(alpha_min: float, alpha_max: float, beta,
                            normalized_size: float) -> HalvingBound:
    """Pseudorandomness surviving column normalization.

    A frame with (alpha_min, alpha_max, beta) subset bounds keeps, after
    column normalization to size ``normalized_size``, a lower bound
    normalized_size * alpha_min / (2 alpha_max) at the doubled fraction.
    """
    frac = Fraction(beta)
    if not 0 < frac <= Fraction(1, 2):
        raise ValueError(f"beta must lie in (0, 1/2], got {beta}")
    if not alpha_max > 0:
        raise ValueError("alpha_max must be positive")
    return HalvingBound(
        alpha_min=normalized_size * alpha_min / (2.0 * alpha_max),
        beta=2 * frac,
    )


def _require_balanced(frame, what):
    rep = error_report(frame)
    if rep.op_error > BALANCE_RTOL * rep.size:
        raise BalanceRequiredError(
            f"{what} needs a doubly balanced frame (op_error/size <= "
            f"{BALANCE_RTOL:.0e}); got {rep.op_error / rep.size:.3e}. "
            f"Run solve_scaling first."
        )
    return rep


def cheeger_constant(frame: Frame) -> CheegerResult:
    """Exact subspace/subset bottleneck quantity of a doubly balanced frame.

    Minimizes (||(I-P_A) V_B||_F^2 + ||P_A V_Bbar||_F^2) over subsets B and
    projectors P_A with dim(A)/d + |B|/n <= 1.  For each B the optimal
    rank-k projector spans the k most negative eigenvectors of
    V V^T - 2 V_B V_B^T; double balance fixes the denominator to
    (s/d) k + ||V_B||_F^2.
    """
    rep = _require_balanced(frame, "cheeger_constant")
    if frame.n > CHEEGER_MAX_N:
        raise UnsupportedConfigError(
            f"exact Cheeger enumeration supports n <= {CHEEGER_MAX_N}, got {frame.n}"
        )
    best, subset, k = _SubsetKernel(frame).cheeger(rep.size)
    basis = None
    if k:
        sub = frame.entries[:, subset]
        basis = np.linalg.eigh(frame.gram - 2.0 * (sub @ sub.T))[1][:, :k]
        basis.setflags(write=False)
    return CheegerResult(value=max(best, 0.0), subset=tuple(subset.tolist()),
                         k=k, basis=basis)


def infty_implies_quantum_check(frame: Frame) -> ChainReport:
    """Evaluate the two-link chain from infinity expansion to quantum expansion.

    For a doubly balanced frame the bottleneck quantity dominates one sixth
    of the infinity constant, and its square lower-bounds the quantum
    constant.  Both links are evaluated numerically with slack ``CHAIN_FP_TOL``.
    """
    _require_balanced(frame, "infty_implies_quantum_check")
    if frame.n % 2 or frame.n > CHEEGER_MAX_N:
        raise UnsupportedConfigError(
            f"chain check needs even n <= {CHEEGER_MAX_N}, got n={frame.n}"
        )
    lam_infty = infty_expansion_exact(frame).lam
    cheeger = cheeger_constant(frame).value
    lam_quantum = quantum_expansion_exact(frame).lam
    return ChainReport(
        lambda_infty=lam_infty,
        cheeger=cheeger,
        lambda_quantum=lam_quantum,
        infty_to_cheeger_ok=cheeger >= lam_infty / 6.0 - CHAIN_FP_TOL,
        cheeger_to_quantum_ok=lam_quantum >= cheeger * cheeger - CHAIN_FP_TOL,
        fp_tol=CHAIN_FP_TOL,
    )


@dataclass
class ExpansionReport:
    """Assembled certificate values with provenance, for serialization."""

    mode: str
    beta: Fraction
    lambda_quantum: float | None = None
    lambda_infty: float | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    cheeger: float | None = None
    witness_infty: tuple | None = None
    witness_alpha_min: tuple | None = None
    witness_alpha_max: tuple | None = None
    witness_cheeger: dict | None = None
    subsets_checked: int | None = None
    seed: dict | None = None

    def __post_init__(self):
        if self.alpha_min is not None and self.alpha_max is not None:
            if self.alpha_min > self.alpha_max:
                raise ValueError("alpha_min must not exceed alpha_max")

    def to_json(self) -> str:
        payload = asdict(self)
        payload["beta"] = str(self.beta)
        return json.dumps(payload, indent=2)


def build_expansion_report(frame: Frame, mode: str = "exact", beta=Fraction(1, 2),
                           trials: int = 2000, seed: SeedSpec | None = None
                           ) -> ExpansionReport:
    """Compute every certificate feasible for the frame in the given mode.

    The infinity and pseudorandom certificates are mandatory and raise on
    unsupported configurations; the quantum and Cheeger values are attached
    when their exact preconditions hold and omitted otherwise.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "exact":
        infty = infty_expansion_exact(frame)
        pseudo = pseudorandom_check(frame, beta, mode="exact")
    else:
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        infty = infty_expansion_sampled(frame, trials, seed)
        pseudo = pseudorandom_check(
            frame, beta, mode="sampled", trials=trials,
            seed=seed.stream(seed.stream_index + 1),
        )
    report = ExpansionReport(
        mode=mode,
        beta=pseudo.beta,
        lambda_infty=infty.lam,
        alpha_min=pseudo.alpha_min,
        alpha_max=pseudo.alpha_max,
        witness_infty=infty.subset,
        witness_alpha_min=pseudo.subset_min,
        witness_alpha_max=pseudo.subset_max,
        subsets_checked=infty.subsets_checked,
        seed=None if seed is None else {
            "master_seed": seed.master_seed, "stream_index": seed.stream_index,
        },
    )
    if frame.n <= QUANTUM_EXACT_MAX_N:
        report.lambda_quantum = quantum_expansion_exact(frame).lam
    if frame.n <= CHEEGER_MAX_N:
        try:
            ch = cheeger_constant(frame)
        except BalanceRequiredError:
            pass
        else:
            report.cheeger = ch.value
            report.witness_cheeger = {
                "subset": list(ch.subset),
                "subspace_dim": ch.k,
            }
    return report
