"""Tyler's shape-matrix estimator and its frame-scaling correspondence.

The estimator is the trace-d positive-definite solution of

    (d/n) sum_j x_j x_j^T / (x_j^T S^{-1} x_j) = S

when a unique solution exists.  The iterative procedure below computes it
by repeated reweighting; the companion functions translate between the
estimator and a doubly balanced scaling of the data frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .frame import DegenerateColumnError, column_square_norms, op_norm_symmetric
from .scaling import ScalingPair, pd_inv_sqrt, pd_sqrt

__all__ = [
    "ShapePD",
    "EstimatorResult",
    "tyler_fixed_point_residual",
    "tyler_iterate",
    "estimator_from_scaling",
    "scaling_from_estimator",
    "capacity",
    "relative_op_error",
    "result_to_json",
]

_SYMMETRY_RTOL = 1e-12
_TRACE_RTOL = 1e-10
# iterates whose spectrum collapses past this are treated as evidence that
# the estimator does not exist for the given data
_COLLAPSE_RTOL = 1e-14


@dataclass(frozen=True)
class ShapePD:
    """Symmetric positive-definite matrix normalized to trace d."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("shape matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ValueError("shape matrix entries must be finite")
        fnorm = float(np.linalg.norm(mat))
        if fnorm == 0.0 or np.linalg.norm(mat - mat.T) > _SYMMETRY_RTOL * fnorm:
            raise ValueError("shape matrix must be symmetric")
        mat = 0.5 * (mat + mat.T)
        d = mat.shape[0]
        if abs(np.trace(mat) - d) > _TRACE_RTOL * d:
            raise ValueError(
                f"shape matrix must have trace {d}, got {np.trace(mat)!r}"
            )
        if np.linalg.eigvalsh(mat)[0] <= 0.0:
            raise ValueError("shape matrix must be positive definite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, d: int) -> "ShapePD":
        return cls(np.eye(d))

    @classmethod
    def normalized(cls, matrix) -> "ShapePD":
        """Trace-normalize an arbitrary PD matrix to trace d."""
        mat = np.asarray(matrix, dtype=float)
        tr = float(np.trace(mat))
        if tr <= 0.0:
            raise ValueError("cannot trace-normalize a matrix with trace <= 0")
        return cls(mat.shape[0] * mat / tr)


@dataclass
class EstimatorResult:
    sigma_hat: ShapePD
    residual: float
    iterations: int
    converged: bool


def _check_columns(data):
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a d x n matrix")
    if not np.all(np.isfinite(data)):
        raise ValueError("data entries must be finite")
    col_sq = column_square_norms(data)
    if np.any(col_sq == 0.0):
        raise DegenerateColumnError(int(np.argmin(col_sq)))
    return data


def _quadratic_forms(data, mat):
    """x_j^T M x_j for every column x_j of data: one GEMM, one column reduction."""
    return np.einsum("ij,ij->j", mat @ data, data)


def tyler_fixed_point_residual(data, sigma: ShapePD) -> float:
    """Frobenius norm of the fixed-point defect of sigma for the given data."""
    data = _check_columns(data)
    d, n = data.shape
    inv = np.linalg.inv(sigma.matrix)
    weights = _quadratic_forms(data, inv)
    lhs = (d / n) * ((data / weights) @ data.T)
    return float(np.linalg.norm(lhs - sigma.matrix))


def tyler_iterate(data, tol: float = 1e-10, max_iters: int | None = None,
                  initial: ShapePD | None = None, observe=None) -> EstimatorResult:
    """Run the reweighting iteration for Tyler's estimator.

    Starts from the identity (or ``initial``), trace-renormalizes every
    iterate, and stops once the fixed-point residual reaches ``tol``.
    Without ``max_iters`` the iteration budget tracks
    10 * (d + |log det S_t| + 60), re-evaluated at the current iterate.
    Non-existence of the estimator (degenerate or rank-deficient data)
    surfaces as converged=False with the best iterate, never as a crash.

    ``observe(iteration, sigma, capacity, residual)``, when given, is called
    once per evaluated iterate S_t, t = 0, 1, ..., with its capacity and
    fixed-point residual; a converged run makes iterations + 1 calls.  The
    iterate array is never modified afterwards, and the observer must not
    modify it either.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters is not None and max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    data = _check_columns(data)
    d, n = data.shape

    sigma = np.array(initial.matrix if initial is not None else np.eye(d))
    last_pd = sigma.copy()
    residual = math.inf
    iters = 0
    converged = False
    while True:
        w, u = np.linalg.eigh(sigma)
        if w[0] <= _COLLAPSE_RTOL * w[-1]:
            sigma = last_pd
            break
        last_pd = sigma
        inv = (u / w) @ u.T
        weights = _quadratic_forms(data, inv)
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            break
        logdet = float(np.sum(np.log(w)))
        raw = (data / weights) @ data.T
        residual = float(np.linalg.norm((d / n) * raw - sigma))
        if observe is not None:
            cap = (d / n) * float(np.sum(np.log(weights))) + logdet
            observe(iters, sigma, cap, residual)
        if iters >= 1 and residual <= tol:
            converged = True
            break
        budget = max_iters
        if budget is None:
            budget = int(math.ceil(10.0 * (d + abs(logdet) + 60.0)))
        if iters >= budget:
            break
        trace = float(np.trace(raw))
        if trace <= 0.0 or not np.isfinite(trace):
            break
        sigma = d * raw / trace
        sigma = 0.5 * (sigma + sigma.T)
        iters += 1
    return EstimatorResult(
        sigma_hat=ShapePD(sigma),
        residual=residual,
        iterations=iters,
        converged=converged,
    )


def estimator_from_scaling(left) -> ShapePD:
    """Shape estimate induced by a left scaling: d (L^T L)^{-1} / tr[(L^T L)^{-1}].

    Invariant under left multiplication of L by any orthogonal matrix and
    under nonzero scalar multiples.
    """
    left = np.asarray(left, dtype=float)
    if left.ndim != 2 or left.shape[0] != left.shape[1]:
        raise ValueError("left scaling must be square")
    svals = np.linalg.svd(left, compute_uv=False)
    if svals[-1] <= 1e-14 * svals[0] or svals[0] == 0.0:
        raise ValueError("left scaling is singular")
    gram_inv = np.linalg.inv(left.T @ left)
    gram_inv = 0.5 * (gram_inv + gram_inv.T)
    return ShapePD.normalized(gram_inv)


def scaling_from_estimator(data, sigma_hat: ShapePD) -> ScalingPair:
    """Scaling pair induced by a shape estimate.

    L is the inverse square root of the estimate and R_jj normalizes the
    whitened column norms; when the estimate solves the fixed-point
    equations the scaled frame L X diag(R) is doubly balanced.
    """
    data = _check_columns(data)
    left = pd_inv_sqrt(sigma_hat.matrix)
    whitened = left @ data
    col_sq = column_square_norms(whitened)
    return ScalingPair(left, 1.0 / np.sqrt(col_sq))


def capacity(data, z) -> float:
    """Scale-invariant potential (d/n) sum_j log <x_j, Z x_j> - log det Z.

    The inverse of Tyler's estimator is its optimizer over PD matrices.
    Accepts either a ShapePD or a plain PD matrix for Z.
    """
    data = _check_columns(data)
    d, n = data.shape
    zmat = z.matrix if isinstance(z, ShapePD) else np.asarray(z, dtype=float)
    forms = _quadratic_forms(data, zmat)
    if np.any(forms <= 0.0):
        raise ValueError("Z must be positive definite on all data columns")
    sign, logdet = np.linalg.slogdet(zmat)
    if sign <= 0.0:
        raise ValueError("Z must be positive definite")
    return (d / n) * float(np.sum(np.log(forms))) - float(logdet)


def relative_op_error(sigma, sigma_hat) -> float:
    """Affine-invariant estimation error ||I - S^{1/2} Shat^{-1} S^{1/2}||_op.

    Accepts ShapePD values or plain PD matrices; the raw formula is what is
    invariant under a joint congruence of both arguments, so no trace
    normalization is applied here.
    """
    mat = sigma.matrix if isinstance(sigma, ShapePD) else np.asarray(sigma, float)
    mat_hat = (sigma_hat.matrix if isinstance(sigma_hat, ShapePD)
               else np.asarray(sigma_hat, float))
    root = pd_sqrt(mat)
    inv_hat = np.linalg.inv(mat_hat)
    mid = root @ inv_hat @ root
    gap = np.eye(mat.shape[0]) - 0.5 * (mid + mid.T)
    return op_norm_symmetric(gap)


def result_to_json(result: EstimatorResult, capacity_trace) -> str:
    """Serialize an estimate result and its capacity trace to JSON."""
    payload = {
        "d": result.sigma_hat.d,
        "sigma_hat": [float(f"{x:.17g}") for x in result.sigma_hat.matrix.ravel()],
        "residual": float(f"{result.residual:.17g}"),
        "iterations": result.iterations,
        "converged": result.converged,
        "capacity_trace": [float(f"{x:.17g}") for x in capacity_trace],
    }
    return json.dumps(payload, indent=2)
