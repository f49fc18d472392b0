"""Frames and their balance diagnostics.

A frame is a spanning set of n column vectors in R^d, stored as a d x n
matrix.  The quantities computed here measure how far a frame is from being
simultaneously isotropic (V V^T proportional to the identity) and equal-norm,
which is the target condition of the scaling routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Frame",
    "ErrorReport",
    "FrameError",
    "NonSpanningError",
    "DegenerateColumnError",
    "size",
    "error_report",
    "is_eps_doubly_balanced",
    "op_norm_symmetric",
    "save_matrix_text",
    "read_matrix_text",
    "load_frame",
]

# Scale-relative cutoff for the numerical rank test.
_SPANNING_RTOL = 1e-12
# Symmetry tolerance for op_norm_symmetric, relative to the Frobenius norm.
_SYMMETRY_RTOL = 1e-10
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class FrameError(ValueError):
    """Invalid frame construction or degenerate frame input."""


class NonSpanningError(FrameError):
    """The columns do not span R^d."""


class DegenerateColumnError(FrameError):
    """A data column is zero where a direction is required."""

    def __init__(self, column, message=None):
        self.column = int(column)
        super().__init__(
            message or f"column {column} is zero and cannot be normalized"
        )


class Frame:
    """A d x n real matrix whose columns span R^d.

    Immutable after construction; the entry array is write-protected.
    Construction rejects non-finite entries and numerically rank-deficient
    matrices (smallest singular value at most ``1e-12`` times the largest).
    A successful Cholesky factorization of a shifted Gram matrix certifies
    spanning with a wide margin (see ``_full_rank_certified``); only when it
    fails does construction compute the singular values and apply the
    ``1e-12`` test to them, so the verdict is always that of the SVD test.

    The d x d Gram matrix V V^T is formed once, at construction, and kept
    read-only as ``gram``: the spanning certificate, ``error_report``, the
    flip-flop round and the expansion certificates all read it, so no
    consumer forms it again.  The frame's ``error_report`` is computed on
    first request and kept.
    """

    __slots__ = ("_entries", "_gram", "_report")

    def __init__(self, entries):
        mat = np.array(entries, dtype=float)
        if mat.ndim != 2:
            raise FrameError(f"frame entries must be a 2-d matrix, got ndim={mat.ndim}")
        d, n = mat.shape
        if d < 1:
            raise FrameError("frame dimension d must be at least 1")
        if n < d:
            raise NonSpanningError(
                f"need at least d columns to span R^d, got d={d}, n={n}"
            )
        if not np.all(np.isfinite(mat)):
            raise FrameError("frame entries must all be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            gram = mat @ mat.T
        if not _full_rank_certified(mat, gram):
            svals = np.linalg.svd(mat, compute_uv=False)
            if svals[0] == 0.0 or svals[-1] <= _SPANNING_RTOL * svals[0]:
                raise NonSpanningError(
                    f"columns do not span R^{d}: smallest singular value "
                    f"{svals[-1]:.3e} vs largest {svals[0]:.3e}"
                )
        mat.setflags(write=False)
        gram.setflags(write=False)
        self._entries = mat
        self._gram = gram
        self._report = None

    @property
    def d(self) -> int:
        return self._entries.shape[0]

    @property
    def n(self) -> int:
        return self._entries.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """Read-only d x n entry matrix."""
        return self._entries

    @property
    def gram(self) -> np.ndarray:
        """Read-only d x d Gram matrix ``entries @ entries.T``."""
        return self._gram

    def scaled(self, c: float) -> "Frame":
        """Frame with every entry multiplied by the nonzero scalar c."""
        return Frame(self._entries * float(c))

    def __repr__(self):
        return f"Frame(d={self.d}, n={self.n})"


def _full_rank_certified(mat: np.ndarray, gram: np.ndarray) -> bool:
    """True when a Cholesky factorization proves sigma_min / sigma_max > 5e-8.

    For the d x n matrix V and its Gram matrix G = V V^T (``gram``, read
    and not changed), takes s = tr G >= sigma_max^2 and factors
    G - tau * s * I with tau = 4 (n + d^2 + 2) eps.  The computed
    Gram matrix is within about n eps s of G in the 2-norm, and a Cholesky
    factorization that completes is exact for a matrix within (d + 1) eps s
    of its input (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3; tau budgets d^2 for it).  Success therefore proves, up to
    terms of order eps^2, lambda_min(G) >= 3 (n + d^2 + 2) eps s, so
    sigma_min / sigma_max >= sqrt(12 eps) ~ 5e-8: four decades above the
    1e-12 cutoff and far beyond an SVD's own rounding.  False proves nothing: s overflowed, s is
    so small that products of entries may be subnormal and void the
    relative error bounds, or the margin is thinner than tau.  Callers then
    run their SVD test.
    """
    d, n = mat.shape
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.trace(gram))
    # a subnormal product errs by up to tiny * eps absolutely; above this
    # floor all of them together stay below eps^2 * s
    if not (math.isfinite(s) and s * _EPS > n * d * _TINY):
        return False
    shifted = gram.copy()
    shifted.flat[:: d + 1] -= 4.0 * (n + d * d + 2) * _EPS * s
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class ErrorReport:
    """Balance defects of a frame.

    ``isotropy_error`` is the symmetric d x d matrix d * V V^T - s * I and
    ``norm_error`` holds the diagonal of n * V^T V - s * I as a length-n
    vector; both are traceless.  ``l2_error`` combines their mean squares.
    ``op_isotropy`` and ``op_norm`` are the two spectral norms, ``op_error``
    the larger of them, and ``top_isotropy`` the largest eigenvalue of
    ``isotropy_error``.
    """

    size: float
    isotropy_error: np.ndarray
    norm_error: np.ndarray
    l2_error: float
    op_error: float
    op_isotropy: float
    op_norm: float
    top_isotropy: float

    def __post_init__(self):
        self.isotropy_error.setflags(write=False)
        self.norm_error.setflags(write=False)


def size(frame: Frame) -> float:
    """Squared Frobenius norm of the frame."""
    return float(np.sum(frame.entries * frame.entries))


def column_square_norms(entries: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", entries, entries)


def _defects(mat: np.ndarray, gram: np.ndarray):
    """Size, isotropy defect, norm defect and l2 defect of a d x n matrix.

    Built from its d x d Gram matrix ``gram`` = mat @ mat.T and the column
    norms with no decomposition, so the balancing flow can test a trial
    step cheaply.  numpy forms the Gram matrix by a symmetric rank-k update,
    so the isotropy defect is exactly symmetric as it stands.
    """
    d, n = mat.shape
    col_sq = column_square_norms(mat)
    s = float(col_sq.sum())
    iso = d * gram - s * np.eye(d)
    norm_err = n * col_sq - s
    l2 = float(np.sum(iso * iso) / d + np.sum(norm_err * norm_err) / n)
    return s, iso, norm_err, l2


def error_report(frame: Frame) -> ErrorReport:
    """Compute the isotropy and norm defects of a frame.

    The isotropy defect reads the frame's d x d Gram matrix and the norm
    defect is derived from column norms alone; the n x n Gram matrix is
    never formed.  One symmetric eigenvalue decomposition gives every
    spectral quantity.  The report is computed once per frame and returned
    again on later calls.
    """
    if frame._report is None:
        _memoize_report(frame, _defects(frame.entries, frame.gram))
    return frame._report


def _memoize_report(frame: Frame, defects) -> None:
    """Store the report of a frame whose ``_defects`` are already known."""
    s, iso, norm_err, l2 = defects
    # a Gram matrix that overflowed is the one way a Frame's defect fails here
    if not np.all(np.isfinite(iso)):
        raise ValueError("matrix entries must be finite")
    eigs = np.linalg.eigvalsh(iso)
    op_iso = float(np.max(np.abs(eigs)))
    op_norm = float(np.max(np.abs(norm_err)))
    frame._report = ErrorReport(
        size=s,
        isotropy_error=iso,
        norm_error=norm_err,
        l2_error=l2,
        op_error=max(op_iso, op_norm),
        op_isotropy=op_iso,
        op_norm=op_norm,
        top_isotropy=float(eigs[-1]),
    )


def is_eps_doubly_balanced(frame: Frame, eps: float) -> bool:
    """True when both balance defects are at most eps times the frame size."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    report = error_report(frame)
    return report.op_error <= report.size * eps


def op_norm_symmetric(mat) -> float:
    """Spectral norm (largest absolute eigenvalue) of a symmetric matrix.

    Uses a full symmetric eigendecomposition; a zero matrix gets 0 without
    one.  Rejects input that is not square or not finite, or whose
    asymmetry exceeds 1e-10 times its Frobenius norm.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    # norms of mat / max|mat_ij|: squared entries below about 1e-154 would
    # underflow and make a nonzero matrix read as zero
    peak = float(np.abs(mat).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    unit = mat / peak
    fnorm = float(np.linalg.norm(unit))
    asym = float(np.linalg.norm(unit - unit.T))
    if asym > _SYMMETRY_RTOL * fnorm:
        raise ValueError(
            f"matrix is not symmetric: asymmetry {asym * peak:.3e} exceeds "
            f"{_SYMMETRY_RTOL:.0e} * ||M||_F = {_SYMMETRY_RTOL * fnorm * peak:.3e}"
        )
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


# ---------------------------------------------------------------------------
# Text format: first non-comment line is "d n" for frames or "data d n" for
# raw data matrices (spanning not required); then d rows of n floats.
# Lines starting with '#' are comments.  UTF-8.
# ---------------------------------------------------------------------------


def save_matrix_text(path, matrix, kind: str = "frame") -> None:
    """Write a matrix in the frame text format.

    ``kind`` is "frame" for spanning frames or "data" for raw data matrices.
    """
    if kind not in ("frame", "data"):
        raise ValueError(f"kind must be 'frame' or 'data', got {kind!r}")
    if isinstance(matrix, Frame):
        matrix = matrix.entries
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError("matrix must be 2-d")
    d, n = mat.shape
    with open(path, "w", encoding="utf-8") as fh:
        if kind == "data":
            fh.write(f"data {d} {n}\n")
        else:
            fh.write(f"{d} {n}\n")
        for row in mat:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_matrix_text(path):
    """Read a matrix in the frame text format.

    Returns ``(matrix, kind)`` where kind is "frame" or "data".
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        raise FrameError(f"{path}: no header line found")
    header = content[0].split()
    if header and header[0] == "data":
        kind = "data"
        header = header[1:]
    else:
        kind = "frame"
    if len(header) != 2:
        raise FrameError(f"{path}: malformed header {content[0]!r}")
    try:
        d, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FrameError(f"{path}: malformed header {content[0]!r}") from exc
    rows = content[1:]
    if len(rows) != d:
        raise FrameError(f"{path}: expected {d} rows, found {len(rows)}")
    mat = np.empty((d, n), dtype=float)
    for i, row in enumerate(rows):
        vals = row.split()
        if len(vals) != n:
            raise FrameError(f"{path}: row {i} has {len(vals)} values, expected {n}")
        mat[i] = [float(v) for v in vals]
    return mat, kind


def load_frame(path) -> Frame:
    """Read a frame from a text file (accepts both header variants)."""
    mat, _ = read_matrix_text(path)
    return Frame(mat)
