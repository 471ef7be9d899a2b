"""Solver, simulator, and exact verification toolkit for the best-choice
problem with a limited budget of fallible expert queries."""

from .model import (
    LengthMismatch,
    NumericMode,
    ProbabilityOutOfRange,
    ProblemSpec,
    ResponseModel,
    SumNotOne,
    ValidationError,
    parse_config,
    read_config,
    symmetric_binary_model,
)
from .oracle import (
    BudgetExceeded,
    exact_success_probability,
    exhaustive_optimal,
    random_exact_model,
    verify_lemma1,
    verify_lemma2,
)
from .policy import (
    EpisodeOutcome,
    Genie,
    GenieExhausted,
    NotAPermutation,
    RankStream,
    ScriptedGenie,
    hindsight_best,
    relative_ranks,
    run_strategy,
)
from .sim import SimConfig, SimResult, monte_carlo
from .solver import (
    HorizonMismatch,
    ThresholdSet,
    ValueTables,
    classical_threshold,
    compute_tables,
    extract_thresholds,
    pre_query_stop_thresholds,
)

__version__ = "0.1.0"
