"""Tyler's shape-matrix estimator via frame scaling, with expansion certificates."""

from .frame import (
    DegenerateColumnError,
    ErrorReport,
    Frame,
    FrameError,
    NonSpanningError,
    error_report,
    is_eps_doubly_balanced,
    load_frame,
    op_norm_symmetric,
    read_matrix_text,
    save_matrix_text,
    size,
)
from .scaling import (
    FlowState,
    ScalingPair,
    ScalingResult,
    SolverConfig,
    derivative_diagnostics,
    flip_flop_step,
    gradient_flow_step,
    solve_scaling,
)
from .tyler import (
    EstimatorResult,
    ShapePD,
    capacity,
    estimator_from_scaling,
    relative_op_error,
    scaling_from_estimator,
    tyler_fixed_point_residual,
    tyler_iterate,
)
from .sampling import (
    EllipticalModel,
    RadialLaw,
    SeedSpec,
    normalize_columns,
    sample_elliptical,
    sample_gaussian_frame,
    sample_sphere,
    sample_sphere_frame,
    whiten,
)
from .expansion import (
    ChainReport,
    CheegerResult,
    ExpansionReport,
    InftyExpansionResult,
    PseudorandomResult,
    QuantumExpansionResult,
    build_expansion_report,
    cheeger_constant,
    infty_expansion_exact,
    infty_expansion_sampled,
    infty_implies_quantum_check,
    infty_to_pseudo_halving,
    pseudo_to_infty_bounds,
    pseudorandom_check,
    quantum_expansion_exact,
)
from .experiments import (
    ExperimentConfig,
    ShapeSpec,
    run_convergence,
    run_diagnostics,
    run_expansion_survey,
    run_sample_complexity,
)

__version__ = "0.1.0"
