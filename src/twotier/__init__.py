"""Toolkit for designing and auditing two-tier weighted voting systems.

Exact Shapley-Shubik and Banzhaf power computation, enumeration of weighted
voting games up to isomorphism, inverse power-index search (choose weights so
the induced power vector approximates target population shares), and a Monte
Carlo simulator of a continuous median-voter model of assembly decisions.
"""

from .games import (
    CanonicalGameSignature,
    GameClass,
    GameClassEnumeration,
    ResourceLimitError,
    WeightedVotingGame,
    canonicalize,
    enumerate_game_classes,
    exact_quota,
)
from .power import (
    banzhaf,
    penrose_decisiveness,
    shapley_permutation_oracle,
    shapley_shubik,
)
from .inverse import (
    InverseProblemSpec,
    InverseSolution,
    distance,
    largest_remainder,
    solve,
    solve_exhaustive,
    solve_local_search,
)
from .simulation import (
    Distribution,
    FederationSpec,
    PivotEstimate,
    PreferenceModel,
    estimate_pivot_probabilities,
    fairness_deviation,
    ordering_match_rate,
    sample_median_brute,
    sample_median_shock,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRow,
    InverseSolverOptions,
    build_weights,
    load_federation,
    run_experiment,
)

__all__ = [
    "CanonicalGameSignature",
    "GameClass",
    "GameClassEnumeration",
    "ResourceLimitError",
    "WeightedVotingGame",
    "canonicalize",
    "enumerate_game_classes",
    "exact_quota",
    "banzhaf",
    "penrose_decisiveness",
    "shapley_permutation_oracle",
    "shapley_shubik",
    "InverseProblemSpec",
    "InverseSolution",
    "distance",
    "largest_remainder",
    "solve",
    "solve_exhaustive",
    "solve_local_search",
    "Distribution",
    "FederationSpec",
    "PivotEstimate",
    "PreferenceModel",
    "estimate_pivot_probabilities",
    "fairness_deviation",
    "ordering_match_rate",
    "sample_median_brute",
    "sample_median_shock",
    "ExperimentConfig",
    "ExperimentRow",
    "InverseSolverOptions",
    "build_weights",
    "load_federation",
    "run_experiment",
]

__version__ = "0.1.0"
