"""Exact loop-series corrections to loopy belief propagation on binary
models, with the associated graph polynomials."""

from .exact import ExactResult, brute_force
from .exceptions import (
    DivisibilityError,
    GenerationError,
    IdentityError,
    LoopcorrectError,
    NotConvergedError,
    NumericError,
    SizeError,
)
from .graph import (
    Multigraph,
    cycle_rank,
    enumerate_disjoint_cycles,
    enumerate_generalized_loops,
    enumerate_matchings,
    is_connected,
)
from .graphpoly import (
    MatchingPoly,
    OmegaPoly,
    ThetaPoly,
    golden_ratio_value,
    loop_count_bound,
    matching_polynomial,
    omega,
    omega_determinant_form,
    theta_at_beta1,
    theta_contraction_deletion,
    theta_direct,
)
from .lbp import (
    LbpOptions,
    LbpResult,
    bethe_log_z,
    run_lbp,
    run_lbp_factor,
)
from .loopseries import (
    MarginalCorrection,
    SeriesCoefficients,
    SeriesReport,
    coefficients_from_beliefs,
    loop_series_marginal,
    loop_series_marginals,
    loop_series_z,
    truncated_series,
)
from .model import (
    FactorModel,
    PairwiseModel,
    absorb_node_potentials,
    factor_incidence_graph,
    model_from_json,
    to_factor_model,
)
from .poly import (
    BiPoly,
    UniPoly,
    exact_divide,
    f_poly,
    g_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
