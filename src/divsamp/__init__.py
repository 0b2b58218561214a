"""Floating-point-aware noise sampling for differential privacy.

The package has three layers:

* samplers — a deliberately vulnerable inverse-transform Laplace sampler
  and cached Box-Muller stream, alongside divisibility-hardened forms that
  spread each output over several uniform variates;
* attacks — candidate-elimination procedures that invert the vulnerable
  samplers' floating-point arithmetic, plus the search-cost model showing
  why the hardened forms resist the same inversion;
* verification — KS and moment checks holding every sampler, hardened or
  not, to the exact target distribution.
"""

from .attack import (
    AttackOutcome,
    BruteForceResult,
    PhaseAlignmentError,
    QueryOracle,
    brute_force_single_gaussian,
    count_feasible_checks,
    expected_checks,
    gaussian_pair_attack,
    invert_box_muller,
    mironov_attack,
)
from .dist import gaussian_cdf, laplace_cdf, laplace_inverse_cdf
from .sampler import (
    GaussianStream,
    SamplerMethod,
    get_method,
    method_names,
    naive_laplace_from_variate,
)
from .stats import (
    MomentSummary,
    distinct_output_count,
    ks_critical_value,
    ks_p_value,
    ks_statistic,
    moments,
)
from .urand import (
    BitSource,
    EntropyError,
    UniformVariate,
    neighbors,
    next_uniform,
    round_to_variate,
)

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "BitSource",
    "BruteForceResult",
    "EntropyError",
    "GaussianStream",
    "MomentSummary",
    "PhaseAlignmentError",
    "QueryOracle",
    "SamplerMethod",
    "UniformVariate",
    "brute_force_single_gaussian",
    "count_feasible_checks",
    "distinct_output_count",
    "expected_checks",
    "gaussian_cdf",
    "gaussian_pair_attack",
    "get_method",
    "invert_box_muller",
    "ks_critical_value",
    "ks_p_value",
    "ks_statistic",
    "laplace_cdf",
    "laplace_inverse_cdf",
    "method_names",
    "mironov_attack",
    "moments",
    "naive_laplace_from_variate",
    "neighbors",
    "next_uniform",
    "round_to_variate",
]
