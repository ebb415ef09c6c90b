"""Directed transfer function vs Granger causality for stationary VAR processes.

The package computes, for a known VAR model: the transfer function and
directed transfer function (:mod:`vardtf.spectral`), the partitioned
two-channel reduction whose error process fails to be white
(:mod:`vardtf.reduction`), the exact marginal autoregressive representation
of a pair (:mod:`vardtf.marginal`), and side-by-side causality verdicts
exposing where the measures disagree (:mod:`vardtf.causality`).
Simulation-based cross-checks live in :mod:`vardtf.estimate`.
"""

from .causality import (
    CausalityReport,
    PairVerdict,
    bivariate_gc,
    full_report,
    multivariate_gc,
)
from .estimate import (
    FitResult,
    Trajectory,
    WhitenessReport,
    fit_var,
    residual_whiteness,
    sample_autocov,
    simulate,
    whiteness_stats,
)
from .marginal import (
    ConvergenceInfo,
    MarginalAR,
    innovation_whiteness_check,
    marginal_representation,
    whittle_recursion,
)
from .model import (
    ChannelPair,
    VarModel,
    companion_matrix,
    counterexample_model,
    make_var,
    read_model,
    write_model,
)
from .moments import AutocovSequence, autocov, block_toeplitz, subprocess_autocov
from .reduction import (
    ReducedRepresentation,
    error_autocov,
    error_spectral_matrix,
    is_white,
    kaminski_error_lag_crosscov,
    reduce_pair,
    reduced_polynomial,
    whiteness_deficit,
)
from .spectral import (
    FrequencyGrid,
    FrequencyMatrix,
    char_polynomial,
    default_grid,
    dtf,
    spectral_density,
    transfer_function,
)

__version__ = "0.1.0"

__all__ = [
    "AutocovSequence",
    "CausalityReport",
    "ChannelPair",
    "ConvergenceInfo",
    "FitResult",
    "FrequencyGrid",
    "FrequencyMatrix",
    "MarginalAR",
    "PairVerdict",
    "ReducedRepresentation",
    "Trajectory",
    "VarModel",
    "WhitenessReport",
    "autocov",
    "bivariate_gc",
    "block_toeplitz",
    "char_polynomial",
    "companion_matrix",
    "counterexample_model",
    "default_grid",
    "dtf",
    "error_autocov",
    "error_spectral_matrix",
    "fit_var",
    "full_report",
    "innovation_whiteness_check",
    "is_white",
    "kaminski_error_lag_crosscov",
    "make_var",
    "marginal_representation",
    "multivariate_gc",
    "read_model",
    "reduce_pair",
    "reduced_polynomial",
    "residual_whiteness",
    "sample_autocov",
    "simulate",
    "spectral_density",
    "subprocess_autocov",
    "transfer_function",
    "whiteness_deficit",
    "whiteness_stats",
    "whittle_recursion",
    "write_model",
]
