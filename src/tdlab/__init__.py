"""Ground truth, simulation, and concentration-bound verification for
linear TD(0) policy evaluation on finite Markov chains."""

from .analytic import (
    AnalyticSolution,
    ConstantsBundle,
    PoissonSolution,
    PolicyEvalProblem,
    compute_constants,
    contraction_factor,
    exact_value_function,
    fixed_point,
    poisson_solve,
    solve_problem,
)
from .bounds import (
    BoundQuery,
    BoundReport,
    build_query,
    check_n0,
    evaluate_bound,
    evaluate_grid,
    floor_term,
    tail_crossover,
    tail_probability,
)
from .dynamics import TrajectoryRecord, run_deterministic
from .errors import (
    AssumptionViolated,
    ComputeError,
    ConfigError,
    InfeasibleStart,
    InsufficientTailData,
    NonFinite,
    NotIrreducible,
    NotStochastic,
    Periodic,
    SeriesDivergence,
    SolverFailure,
    TDLabError,
    ValidationError,
    WorkerDied,
)
from .features import (
    AssumptionReport,
    FeatureMap,
    build_features,
    check_assumption,
    feature_gain,
    scaling_threshold,
    weighted_gram,
)
from .harness import (
    Diagnostics,
    ExperimentConfig,
    ExperimentResult,
    TailFit,
    estimate_p_init,
    fit_tail_exponent,
    run_alltime_experiment,
    simulate_trajectory,
    wilson_interval,
)
from .markov import (
    MarkovChain,
    StationaryDistribution,
    build_chain,
    stationary_distribution,
)
from .rng import stream
from .schedule import StepSchedule, tail_weight

__version__ = "0.1.0"
