"""Achievable secrecy rates for wiretap channels whose two eavesdroppers
cooperate over capacity-limited links.

Gaussian models come in two flavors: an orthogonal one, where eavesdropper
cooperation happens in dedicated bands, and a shared-band one, where the
cooperation signals also reach the legitimate receiver.  Closed forms live in
:mod:`wiretap_rates.gaussian`, the covariance-based reference evaluation in
:mod:`wiretap_rates.oracle`, worst-case correlation searches in
:mod:`wiretap_rates.optimize`, and the discrete memoryless counterpart in
:mod:`wiretap_rates.discrete`.  :mod:`wiretap_rates.audit` cross-checks the
closed forms against the covariance route on random draws.
"""

from .core import (
    DomainError,
    GridBudgetError,
    PSD_SLACK,
    CorrelationTriple,
    RateBreakdown,
    ZERO_RHO,
    correlation_determinant,
    theta,
    valid_correlation,
)
from .gaussian import (
    GeneralGaussianParams,
    OrthogonalGaussianParams,
    rate_general_closed,
    rate_noncolluding,
    rate_orthogonal,
    rate_perfectcolluding,
    single_eavesdropper_leakage,
    strip_jamming,
)
from .oracle import (
    JointCovariance,
    build_joint_covariance_general,
    build_joint_covariance_orthogonal,
    general_rate_terms_grid,
    mi_gaussian,
    rate_general_oracle,
    rate_orthogonal_oracle,
)
from .optimize import (
    OptimizationResult,
    SearchConfig,
    correlation_grid_axis,
    minimize_rate,
    optimize_general,
)
from .discrete import (
    DMChannel,
    EavesdropperInputDist,
    LegitimateInputDist,
    SupInfResult,
    build_orthogonal_dm,
    joint_distribution,
    mutual_info_discrete,
    rate_dm_fixed,
    reduce_noncolluding,
    reduce_perfectcolluding,
    simplex_grid,
    sup_inf_rate,
)
from .audit import AuditReport, AuditRng, AuditTable, rows_to_csv, run_audit

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PSD_SLACK",
    "CorrelationTriple",
    "RateBreakdown",
    "ZERO_RHO",
    "correlation_determinant",
    "theta",
    "valid_correlation",
    "GeneralGaussianParams",
    "OrthogonalGaussianParams",
    "rate_general_closed",
    "rate_noncolluding",
    "rate_orthogonal",
    "rate_perfectcolluding",
    "single_eavesdropper_leakage",
    "strip_jamming",
    "JointCovariance",
    "build_joint_covariance_general",
    "build_joint_covariance_orthogonal",
    "general_rate_terms_grid",
    "mi_gaussian",
    "rate_general_oracle",
    "rate_orthogonal_oracle",
    "OptimizationResult",
    "SearchConfig",
    "correlation_grid_axis",
    "minimize_rate",
    "optimize_general",
    "DMChannel",
    "EavesdropperInputDist",
    "GridBudgetError",
    "LegitimateInputDist",
    "SupInfResult",
    "build_orthogonal_dm",
    "joint_distribution",
    "mutual_info_discrete",
    "rate_dm_fixed",
    "reduce_noncolluding",
    "reduce_perfectcolluding",
    "simplex_grid",
    "sup_inf_rate",
    "AuditReport",
    "AuditRng",
    "AuditTable",
    "rows_to_csv",
    "run_audit",
    "__version__",
]
