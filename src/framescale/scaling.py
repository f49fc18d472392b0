"""Frame scaling solvers.

Two routes to a doubly balanced frame: alternating exact correction of the
isotropy and equal-norm conditions (flip-flop), and a discretized balancing
flow that drives both defects to zero simultaneously while accumulating the
left/right scalings it applies.  Both run through one solver loop; only
the step differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .frame import (
    _EPS,
    _TINY,
    DegenerateColumnError,
    ErrorReport,
    Frame,
    _defects,
    _full_rank_certified,
    _memoize_report,
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
# Flow steps are measured in units of 1/size, which makes every step rule
# invariant under V -> cV.  A solver's first step, the cap on every
# controlled step, and the floor below which a step counts as stagnant:
_FIRST_STEP = 0.05
_MAX_STEP = 4.0
_MIN_STEP = 1e-18
# Below this l2_error / size^2 the defects are round-off and no longer
# decide whether a trial step helped.
_L2_FLOOR = 1e-28
# Condition number past which an accumulated left scaling is singular to
# working precision.
_MAX_SCALING_COND = 1.0 / _EPS


class IllConditionedError(RuntimeError):
    """Gram matrix too ill-conditioned for a reliable inverse square root."""


class StagnationError(RuntimeError):
    """The flow's step or its frame's size underflowed; it cannot go on."""


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
        with np.errstate(over="ignore", invalid="ignore"):
            gram = left @ left.T
        if not _full_rank_certified(left, gram):
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
    """A point on a solver trajectory with its accumulated scaling.

    The iterate ``frame`` equals ``left @ V0 * right`` for the input frame
    V0.  ``left`` and ``right`` are kept as plain arrays and validated only
    when ``scaling`` is requested, and ``frame`` is built by
    ``Frame._iterate`` with no spanning certificate.  Both are sound by
    construction: V0 spans, every step multiplies ``left`` by an invertible
    factor and ``right`` by a positive one, so L V0 diag(R) spans too.

    ``int_isotropy_op`` and ``int_norm_op`` accumulate the time integrals of
    the two defect spectral norms along the flow, which bound how far the
    scalings can drift from the identity.  ``step`` is the last accepted
    flow step, from which the step controller proposes the next one.
    """

    frame: Frame
    left: np.ndarray
    right: np.ndarray
    time: float
    int_isotropy_op: float
    int_norm_op: float
    step: float

    @classmethod
    def start(cls, frame: Frame) -> "FlowState":
        return cls(
            frame=frame,
            left=np.eye(frame.d),
            right=np.ones(frame.n),
            time=0.0,
            int_isotropy_op=0.0,
            int_norm_op=0.0,
            # half the first step, which the controller doubles; the sum is
            # the size error_report computes, without its decomposition
            step=0.5 * _FIRST_STEP / float(column_square_norms(frame.entries).sum()),
        )

    @property
    def scaling(self) -> ScalingPair:
        """The accumulated scaling as a validated pair."""
        return ScalingPair(self.left, self.right)


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


def flip_flop_step(state: FlowState,
                   report: ErrorReport | None = None) -> FlowState:
    """One full alternating round: make V V^T the identity, then unit columns.

    The left half step whitens with the inverse Cholesky factor L = C^{-1}
    of the Gram matrix G = C C^T, which is lower-triangular and makes
    L V V^T L^T = I.  It is Q G^{-1/2} for an orthogonal Q, so the column
    norms and every report value are those of the symmetric whitening up
    to rounding, and Tyler's estimate d (L^T L)^{-1} / tr[.] is the same.
    The condition guard reads the frame's ``report``, which the solver loop
    hands over (it is computed when not given) and whose extreme isotropy
    eigenvalues are d lambda(G) - size, so a round does no spectral
    decomposition of its own.

    The round L V diag(R) is rescaled by c to size 1, and L / sqrt(d) and
    c sqrt(d) R are folded into the state's scaling: a whitened frame of
    size 1 has V V^T = I / d, so neither factor drifts from round to round.
    Rounds stay on the s = 1 scale and their trajectories are comparable
    with the flow.  ``time`` counts rounds.  The new frame is built without
    validation: L is invertible (its condition number is at most 1e7 under
    the guard) and R is positive, so it spans because V does.

    Raises IllConditionedError when the Gram matrix condition number
    exceeds 1e14 and DegenerateColumnError on a zero column.
    """
    frame = state.frame
    rep = error_report(frame) if report is None else report
    low = rep.bottom_isotropy + rep.size
    if not (low > 0.0 and rep.top_isotropy + rep.size <= _GRAM_MAX_COND * low):
        raise _ill_conditioned()
    try:
        left = np.linalg.inv(np.linalg.cholesky(frame.gram))
    except np.linalg.LinAlgError:
        raise _ill_conditioned() from None
    iso = left @ frame.entries
    col_sq = column_square_norms(iso)
    if np.any(col_sq <= 0.0):
        raise DegenerateColumnError(int(np.argmin(col_sq)))
    right = 1.0 / np.sqrt(col_sq)
    out = iso * right[None, :]
    scale = 1.0 / math.sqrt(float(np.sum(out * out)))
    out *= scale
    root_d = math.sqrt(frame.d)
    return replace(
        state,
        frame=Frame._iterate(out, out @ out.T),
        left=(left / root_d) @ state.left,
        right=state.right * (right * (scale * root_d)),
        time=state.time + 1.0,
    )


def _ill_conditioned():
    return IllConditionedError(
        f"Gram matrix condition number exceeds {_GRAM_MAX_COND:.0e}")


def gradient_flow_step(state: FlowState,
                       report: ErrorReport | None = None) -> FlowState:
    """Advance the balancing flow by one first-order step.

    The frame update is the multiplicative first-order integrator
    V <- (I - h E) V (I - h F), which agrees with the flow to O(h^2) and
    keeps the accumulated scalings an exact factorization of the current
    frame.

    A step controller picks h.  The first trial is twice the state's last
    accepted step, capped so that both factors stay positive
    (h <= 0.9 / top eigenvalue) and by ``_MAX_STEP / size``.  A trial is
    accepted when neither the l2 defect nor the size rises; otherwise h is
    halved.  Trials are tested on their d x d Gram matrix and column norms,
    so a rejected trial costs the trial product, its Gram matrix and no
    decomposition; the accepted trial's defects become the new frame's
    report.  Once the l2 defect is at round-off level the first trial is
    taken as it stands.  Every rule is invariant under V -> cV.  ``report``
    is the frame's, as the solver loop hands it over; it is computed when
    not given.
    """
    rep = error_report(state.frame) if report is None else report
    s = rep.size
    mat = state.frame.entries
    d, n = mat.shape
    iso = rep.isotropy_error
    norm_err = rep.norm_error
    if not s * _EPS > n * d * _TINY:
        # products of entries are subnormal and the defects lose accuracy
        raise StagnationError(f"frame size underflowed to {s:.3e}")

    h = min(2.0 * state.step, _MAX_STEP / s)
    # keep both multiplicative factors strictly positive
    top = max(rep.top_isotropy, float(np.max(norm_err)), 0.0)
    if top > 0.0:
        h = min(h, 0.9 / top)
    roundoff = rep.l2_error <= _L2_FLOOR * s * s
    while True:
        left_factor = np.eye(d) - h * iso
        right_factor = 1.0 - h * norm_err
        new_mat = (left_factor @ mat) * right_factor[None, :]
        gram = new_mat @ new_mat.T
        defects = _defects(new_mat, gram)
        if roundoff or (defects[3] <= rep.l2_error and defects[0] <= s):
            break
        h *= 0.5
        if h * s < _MIN_STEP:
            raise StagnationError(f"flow step underflowed: h*size={h * s:.3e}")
    new_frame = Frame._iterate(new_mat, gram)
    _memoize_report(new_frame, defects)
    return replace(
        state,
        frame=new_frame,
        left=left_factor @ state.left,
        right=state.right * right_factor,
        time=state.time + h,
        int_isotropy_op=state.int_isotropy_op + h * rep.op_isotropy,
        int_norm_op=state.int_norm_op + h * rep.op_norm,
        step=h,
    )


def solve_scaling(frame: Frame, config: SolverConfig | None = None,
                  method: str = "flipflop", observe=None) -> ScalingResult:
    """Find scalings (L, R) making L V diag(R) doubly balanced.

    Both methods run one loop over a ``FlowState``; the method picks only
    the step, ``flip_flop_step`` or ``gradient_flow_step``, which the loop
    hands the state and its frame's report.  The loop
    terminates when op_error / size drops to config.tol.  Otherwise the
    last valid iterate is returned with converged=False, and ``failure``
    names the cause unless only the budget ran out:

    - a zero input column, which no scaling can give the norm of the others;
    - a step that raised (``"<method> step k failed: ..."``): an
      ill-conditioned Gram matrix, a step or size that underflowed, or an
      iterate whose report is not finite;
    - an accumulated scaling that diverged, which is how a frame with no
      balancing scaling ends.

    The loop runs on the input multiplied by the power of two c that puts
    its size in [1/2, 2), and c is undone on the way out: the flow's frame
    is divided by c, and flip-flop's left scaling, whose rounds are at size
    1 whatever the input's, is multiplied by c.  A power of two commutes
    exactly with every operation of a step, so where neither scale under-
    or overflows the numbers are those of solving the raw frame, bitwise,
    and at sizes from 1e-300 to 1e300 a solve takes about the steps it
    takes at size 1.  A solve that takes no step returns its input.  The
    returned scaling is validated once, here, not on every step.

    ``observe(iteration, time, report, int_isotropy_op, int_norm_op)``, when
    given, is called after every step with the step count, the time so far
    (flow time for the flow, the round count for flip-flop), the
    ``ErrorReport`` of the new frame, at the scale the solve would return
    it, and the two defect integrals (zero for flip-flop).
    """
    if config is None:
        config = SolverConfig()
    # the steps are looked up by name on every solve, so a wrapper installed
    # on the module attribute (a tracer, a counter) sees every step
    if method == "flipflop":
        step, unit = flip_flop_step, "rounds"
    elif method == "flow":
        step, unit = gradient_flow_step, "steps"
    else:
        raise ValueError(f"method must be 'flipflop' or 'flow', got {method!r}")
    # the raw frame's squared defects may over- or underflow where its size does not
    _, exp = math.frexp(float(column_square_norms(frame.entries).sum()))
    c = math.ldexp(1.0, -(exp // 2))
    entries = frame.entries * c
    start = Frame._iterate(entries, frame.gram * (c * c))
    # the flow's sizes, defects and times scale with the input's
    shrink = c * c if method == "flow" else 1.0
    rep = error_report(start)
    ratio = rep.op_error / rep.size
    state = FlowState.start(start)
    input_norms = np.sqrt(column_square_norms(entries))
    iters = 0
    raw_rep = None
    failure = None
    if ratio > config.tol and np.any(input_norms == 0.0):
        failure = str(DegenerateColumnError(int(np.argmin(input_norms))))
    while failure is None and ratio > config.tol and iters < config.max_iters:
        try:
            new = step(state, rep)
            # a non-finite iterate fails here, in its report
            new_rep = error_report(new.frame)
        except (ValueError, IllConditionedError, StagnationError) as exc:
            failure = f"{method} step {iters + 1} failed: {exc}"
            break
        failure = _divergence(new, input_norms, iters + 1, unit)
        if failure is not None:
            break
        state, rep = new, new_rep
        iters += 1
        ratio = rep.op_error / rep.size
        if observe is not None:
            raw_rep = _unscaled(rep, shrink)
            observe(iters, state.time * shrink, raw_rep, state.int_isotropy_op,
                    state.int_norm_op)
    out, left = frame, state.left
    if iters and method == "flow":
        out = Frame._iterate(state.frame.entries / c, state.frame.gram / shrink)
        out._report = raw_rep if observe is not None else _unscaled(rep, shrink)
    elif iters:
        out, left = state.frame, left * c
    return ScalingResult(
        scaling=ScalingPair(left, state.right),
        frame=out,
        converged=ratio <= config.tol,
        iterations=iters,
        final_ratio=ratio,
        method=method,
        scaling_bound=_accumulation_bound(state) if method == "flow" else None,
        failure=failure,
    )


def _unscaled(rep, shrink):
    """The report of V / sqrt(shrink) from ``rep``, that of V."""
    if shrink == 1.0:
        return rep
    return ErrorReport(
        size=rep.size / shrink,
        isotropy_error=rep.isotropy_error / shrink,
        norm_error=rep.norm_error / shrink,
        l2_error=rep.l2_error / shrink / shrink,
        op_error=rep.op_error / shrink,
        op_isotropy=rep.op_isotropy / shrink,
        op_norm=rep.op_norm / shrink,
        top_isotropy=rep.top_isotropy / shrink,
        bottom_isotropy=rep.bottom_isotropy / shrink,
    )


def _divergence(state, input_norms, count, unit):
    """Why the accumulated scaling must stop here, or None.

    Takes R_j |v0_j| / |u_j| for the input columns v0_j and the columns u_j
    of the iterate U = L V0 diag(R).  |u_j| is computed from U's entries,
    not from the report's norm defects: n |u_j|^2 - size cancels to round-off
    for a column far lighter than the others.  Each ratio equals
    |v0_j| / |L v0_j|, which lies between 1/sigma_max(L) and 1/sigma_min(L),
    so their spread bounds the condition number of L from below with no
    decomposition.  Past 1/eps, L is singular to working precision: the
    scalings diverge, as they do on a frame with no balancing scaling.  A
    spread that is not finite means a scaling over- or underflowed.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = state.right * input_norms / np.sqrt(
            column_square_norms(state.frame.entries))
        spread = float(np.max(ratios) / np.min(ratios))
    if spread <= _MAX_SCALING_COND:
        return None
    return (f"accumulated scaling diverged after {count} {unit}: the left "
            f"scaling's condition number is at least {spread:.3e}, past 1/eps; "
            "the frame likely has no balancing scaling")


def _accumulation_bound(state):
    """The flow's accumulated scalings against their a priori bound.

    ||prod_k (I - h_k E_k) - I|| <= prod_k (1 + h_k ||E_k||) - 1
    <= expm1(sum_k h_k ||E_k||), so the bound holds for the discrete
    integrator at any size, and likewise entrywise for the right scaling.
    """
    left_gap = float(np.linalg.norm(state.left - np.eye(state.frame.d), 2))
    right_gap = float(np.max(np.abs(state.right - 1.0)))
    return {
        "left_gap": left_gap,
        "left_bound": math.expm1(state.int_isotropy_op),
        "left_holds": left_gap <= math.expm1(state.int_isotropy_op) + 1e-12,
        "right_gap": right_gap,
        "right_bound": math.expm1(state.int_norm_op),
        "right_holds": right_gap <= math.expm1(state.int_norm_op) + 1e-12,
    }


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
