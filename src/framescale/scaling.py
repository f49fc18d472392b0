"""Frame scaling solvers.

Two routes to a doubly balanced frame: alternating exact correction of the
isotropy and equal-norm conditions (flip-flop), and a discretized balancing
flow that drives both defects to zero simultaneously while accumulating the
left/right scalings it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .frame import (
    DegenerateColumnError,
    Frame,
    _full_rank_certified,
    column_square_norms,
    error_report,
)

__all__ = [
    "ScalingPair",
    "SolverConfig",
    "FlowState",
    "ScalingResult",
    "IllConditionedError",
    "StagnationError",
    "pd_sqrt",
    "pd_inv_sqrt",
    "flip_flop_step",
    "gradient_flow_step",
    "solve_scaling",
    "derivative_diagnostics",
    "DerivativeCheck",
    "DerivativeDiagnostics",
]

# Eigenvalue floor for matrix (inverse) square roots, relative to the
# largest eigenvalue.
_EIG_FLOOR = 1e-14
_GRAM_MAX_COND = 1e14
_MIN_STEP = 1e-18
# fraction of the automatic flow step actually taken
_STEP_SAFETY = 0.5


class IllConditionedError(RuntimeError):
    """Gram matrix too ill-conditioned for a reliable inverse square root."""


class StagnationError(RuntimeError):
    """Flow step size underflowed; the trajectory cannot make progress."""


def _pd_eig(mat):
    mat = np.asarray(mat, dtype=float)
    sym = 0.5 * (mat + mat.T)
    w, u = np.linalg.eigh(sym)
    if w[-1] <= 0.0:
        raise IllConditionedError("matrix has no positive eigenvalues")
    w = np.maximum(w, _EIG_FLOOR * w[-1])
    return w, u


def pd_sqrt(mat) -> np.ndarray:
    """Symmetric square root of a positive-definite matrix."""
    w, u = _pd_eig(mat)
    return (u * np.sqrt(w)) @ u.T


def pd_inv_sqrt(mat) -> np.ndarray:
    """Symmetric inverse square root of a positive-definite matrix."""
    w, u = _pd_eig(mat)
    return (u / np.sqrt(w)) @ u.T


@dataclass(frozen=True)
class ScalingPair:
    """Left matrix and positive diagonal right scaling, applied as L V diag(R).

    Construction rejects a left factor that is not square, not finite or
    singular (smallest singular value zero), and right entries that are not
    finite and positive.  A Cholesky factorization of the shifted Gram
    matrix of the left factor certifies invertibility with a wide margin
    (see ``frame._full_rank_certified``); only when it fails are the
    singular values computed and tested.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.array(self.left, dtype=float)
        right = np.array(self.right, dtype=float)
        if left.ndim != 2 or left.shape[0] != left.shape[1]:
            raise ValueError("left scaling must be square")
        if not np.all(np.isfinite(left)):
            raise ValueError("left scaling must be finite")
        if not _full_rank_certified(left):
            svals = np.linalg.svd(left, compute_uv=False)
            if svals[-1] <= 0.0:
                raise ValueError("left scaling must be invertible")
        if right.ndim != 1:
            raise ValueError("right scaling must be a vector of diagonal entries")
        if not np.all(np.isfinite(right)) or np.any(right <= 0.0):
            raise ValueError("right scaling entries must be finite and positive")
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def identity(cls, d: int, n: int) -> "ScalingPair":
        return cls(np.eye(d), np.ones(n))

    def apply(self, entries: np.ndarray) -> np.ndarray:
        return (self.left @ entries) * self.right[None, :]


@dataclass(frozen=True)
class SolverConfig:
    """Termination knobs shared by the scaling solvers."""

    tol: float = 1e-8
    max_iters: int = 100_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")


@dataclass(frozen=True)
class FlowState:
    """A point on the balancing-flow trajectory with its accumulated scaling.

    ``int_isotropy_op`` and ``int_norm_op`` accumulate the time integrals of
    the two defect spectral norms, which bound how far the scalings can
    drift from the identity.
    """

    frame: Frame
    scaling: ScalingPair
    time: float
    int_isotropy_op: float
    int_norm_op: float
    initial: Frame

    @classmethod
    def start(cls, frame: Frame) -> "FlowState":
        return cls(
            frame=frame,
            scaling=ScalingPair.identity(frame.d, frame.n),
            time=0.0,
            int_isotropy_op=0.0,
            int_norm_op=0.0,
            initial=frame,
        )

    def reconstruction_error(self) -> float:
        """Relative Frobenius gap between the frame and L V0 diag(R)."""
        rebuilt = self.scaling.apply(self.initial.entries)
        denom = np.linalg.norm(self.frame.entries)
        return float(np.linalg.norm(rebuilt - self.frame.entries) / denom)


@dataclass
class ScalingResult:
    """Outcome of solve_scaling.  Non-convergence is a result, not an error."""

    scaling: ScalingPair
    frame: Frame
    converged: bool
    iterations: int
    final_ratio: float
    method: str
    scaling_bound: dict | None = None
    failure: str | None = None


def flip_flop_step(frame: Frame):
    """One full alternating round: make V V^T the identity, then unit columns.

    Returns the new frame and the composite scaling pair of the round.
    Raises IllConditionedError when the Gram matrix condition number
    exceeds 1e14 and DegenerateColumnError on a zero column.
    """
    mat = frame.entries
    gram = mat @ mat.T
    w, u = np.linalg.eigh(0.5 * (gram + gram.T))
    if w[0] <= 0.0 or w[-1] / w[0] > _GRAM_MAX_COND:
        raise IllConditionedError(
            f"Gram matrix condition number exceeds {_GRAM_MAX_COND:.0e}"
        )
    left = (u / np.sqrt(w)) @ u.T
    iso = left @ mat
    col_sq = column_square_norms(iso)
    if np.any(col_sq <= 0.0):
        raise DegenerateColumnError(int(np.argmin(col_sq)))
    right = 1.0 / np.sqrt(col_sq)
    out = iso * right[None, :]
    return Frame(out), ScalingPair(left, right)


def _flow_step_size(rep):
    s = rep.size
    return _STEP_SAFETY * min(
        0.1 * s / (rep.op_isotropy + rep.op_norm + 1e-30), 0.1 / s
    )


def gradient_flow_step(state: FlowState, dt=None) -> FlowState:
    """Advance the balancing flow by one first-order step.

    The frame update is the multiplicative first-order integrator
    V <- (I - h E) V (I - h F), which agrees with the flow to O(h^2) and
    keeps the accumulated scaling pair an exact factorization of the
    current frame.  ``dt`` overrides the automatic step size (used by the
    derivative diagnostics and tests).
    """
    rep = error_report(state.frame)
    h = _flow_step_size(rep)
    mat = state.frame.entries
    d, n = mat.shape
    iso = rep.isotropy_error
    norm_err = rep.norm_error
    if dt is not None:
        h = float(dt)
    else:
        # keep both multiplicative factors strictly positive
        top = max(rep.top_isotropy, float(np.max(norm_err)), 0.0)
        if top > 0.0:
            h = min(h, 0.9 / top)
    if h < _MIN_STEP:
        raise StagnationError(f"flow step underflowed: h={h:.3e}")
    left_factor = np.eye(d) - h * iso
    right_factor = 1.0 - h * norm_err
    new_mat = (left_factor @ mat) * right_factor[None, :]
    new_scaling = ScalingPair(
        left_factor @ state.scaling.left,
        state.scaling.right * right_factor,
    )
    return replace(
        state,
        frame=Frame(new_mat),
        scaling=new_scaling,
        time=state.time + h,
        int_isotropy_op=state.int_isotropy_op + h * rep.op_isotropy,
        int_norm_op=state.int_norm_op + h * rep.op_norm,
    )


def solve_scaling(frame: Frame, config: SolverConfig | None = None,
                  method: str = "flipflop", observe=None) -> ScalingResult:
    """Find scalings (L, R) making L V diag(R) doubly balanced.

    Terminates when op_error / size drops to config.tol.  When the budget
    runs out, or a step degenerates, the best iterate is returned with
    converged=False; the scaling problem may genuinely have no solution.

    ``observe(iteration, time, report, int_isotropy_op, int_norm_op)``, when
    given, is called after every step with the step count, the time so far
    (flow time for the flow, the round count for flip-flop), the
    ``ErrorReport`` of the new frame and the two defect integrals (zero for
    flip-flop).
    """
    if config is None:
        config = SolverConfig()
    if method not in ("flipflop", "flow"):
        raise ValueError(f"method must be 'flipflop' or 'flow', got {method!r}")
    rep = error_report(frame)
    ratio = rep.op_error / rep.size
    if method == "flipflop":
        return _solve_flipflop(frame, config, ratio, observe)
    return _solve_flow(frame, config, ratio, observe)


def _solve_flipflop(frame, config, ratio, observe):
    current = frame
    left = np.eye(frame.d)
    right = np.ones(frame.n)
    iters = 0
    failure = None
    while ratio > config.tol and iters < config.max_iters:
        try:
            current, step = flip_flop_step(current)
        except (DegenerateColumnError, IllConditionedError) as exc:
            failure = str(exc)
            break
        # fold the size normalization into the left scaling so rounds stay
        # on the s = 1 scale and trajectories are comparable with the flow
        scale = 1.0 / math.sqrt(float(np.sum(current.entries * current.entries)))
        current = current.scaled(scale)
        left = scale * (step.left @ left)
        right = right * step.right
        iters += 1
        rep = error_report(current)
        ratio = rep.op_error / rep.size
        if observe is not None:
            observe(iters, float(iters), rep, 0.0, 0.0)
    return ScalingResult(
        scaling=ScalingPair(left, right),
        frame=current,
        converged=ratio <= config.tol,
        iterations=iters,
        final_ratio=ratio,
        method="flipflop",
        failure=failure,
    )


def _solve_flow(frame, config, ratio, observe):
    state = FlowState.start(frame)
    iters = 0
    failure = None
    while ratio > config.tol and iters < config.max_iters:
        try:
            state = gradient_flow_step(state)
        except StagnationError as exc:
            failure = str(exc)
            break
        iters += 1
        rep = error_report(state.frame)
        ratio = rep.op_error / rep.size
        if observe is not None:
            observe(iters, state.time, rep, state.int_isotropy_op, state.int_norm_op)
    # accumulation bound: ||prod_k (I - h_k E_k) - I|| <= prod_k (1 + h_k ||E_k||) - 1
    # <= expm1(sum_k h_k ||E_k||), so it holds for the discrete integrator at
    # any size, and likewise entrywise for the right scaling
    left_gap = float(np.linalg.norm(state.scaling.left - np.eye(frame.d), 2))
    right_gap = float(np.max(np.abs(state.scaling.right - 1.0)))
    bound = {
        "left_gap": left_gap,
        "left_bound": math.expm1(state.int_isotropy_op),
        "left_holds": left_gap <= math.expm1(state.int_isotropy_op) + 1e-12,
        "right_gap": right_gap,
        "right_bound": math.expm1(state.int_norm_op),
        "right_holds": right_gap <= math.expm1(state.int_norm_op) + 1e-12,
    }
    return ScalingResult(
        scaling=state.scaling,
        frame=state.frame,
        converged=ratio <= config.tol,
        iterations=iters,
        final_ratio=ratio,
        method="flow",
        scaling_bound=bound,
        failure=failure,
    )


@dataclass(frozen=True)
class DerivativeCheck:
    name: str
    analytic: float
    finite_difference: float
    rel_error: float


@dataclass(frozen=True)
class DerivativeDiagnostics:
    h: float
    size: float
    checks: tuple

    def max_rel_error(self) -> float:
        return max(c.rel_error for c in self.checks)


def derivative_diagnostics(frame: Frame, h: float) -> DerivativeDiagnostics:
    """Check the flow's derivative identities by central finite differences.

    At t = 0 the flow satisfies, for any fixed direction x, column j:

        d/dt <x x^T, V V^T>  = -2 <x x^T, E V V^T + V F V^T>
        d/dt ||v_j||^2       = -2 (F_jj ||v_j||^2 + <E, v_j v_j^T>)
        d/dt s(V)            = -2 * l2_error

    Probes use x = top eigenvector of the isotropy defect and j = the
    max-norm column.  Relative errors are reported against an absolute
    floor of 1e-8 * s^2, the scale on which all three derivatives live.
    """
    if not 1e-9 <= h <= 1e-3:
        raise ValueError(f"h must lie in [1e-9, 1e-3], got {h}")
    rep = error_report(frame)
    mat = frame.entries
    iso = rep.isotropy_error
    norm_err = rep.norm_error
    s = rep.size
    velocity = iso @ mat + mat * norm_err[None, :]
    fwd = mat - h * velocity
    bwd = mat + h * velocity

    w, u = np.linalg.eigh(iso)
    x = u[:, int(np.argmax(np.abs(w)))]
    xv_f = fwd.T @ x
    xv_b = bwd.T @ x
    fd_iso = (float(xv_f @ xv_f) - float(xv_b @ xv_b)) / (2.0 * h)
    xv = mat.T @ x
    an_iso = -2.0 * (float(x @ iso @ (mat @ xv)) + float(np.sum(norm_err * xv * xv)))

    col_sq = column_square_norms(mat)
    j = int(np.argmax(col_sq))
    fd_col = (float(fwd[:, j] @ fwd[:, j]) - float(bwd[:, j] @ bwd[:, j])) / (2.0 * h)
    vj = mat[:, j]
    an_col = -2.0 * (norm_err[j] * col_sq[j] + float(vj @ iso @ vj))

    fd_size = (float(np.sum(fwd * fwd)) - float(np.sum(bwd * bwd))) / (2.0 * h)
    an_size = -2.0 * rep.l2_error

    floor = 1e-8 * s * s
    checks = tuple(
        DerivativeCheck(
            name=name,
            analytic=an,
            finite_difference=fd,
            rel_error=abs(fd - an) / max(abs(an), floor),
        )
        for name, an, fd in (
            ("isotropy_quadratic_form", an_iso, fd_iso),
            ("column_norm", an_col, fd_col),
            ("size", an_size, fd_size),
        )
    )
    return DerivativeDiagnostics(h=h, size=s, checks=checks)
