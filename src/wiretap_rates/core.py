"""Shared primitives: the Gaussian rate function, correlation triples, rate breakdowns.

All rates are in bits per channel use.  The scalar rate function is

    theta(x) = (1/2) * log2(1 + x),   x >= 0,

the capacity of a real Gaussian channel at signal-to-noise ratio x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "GridBudgetError",
    "PSD_SLACK",
    "theta",
    "CorrelationTriple",
    "ZERO_RHO",
    "RateBreakdown",
    "combine_breakdown",
    "correlation_determinant",
    "valid_correlation",
]


class DomainError(ValueError):
    """An argument left the mathematical domain of an operation."""


class GridBudgetError(RuntimeError):
    """The requested exhaustive search exceeds the evaluation budget."""


#: Tolerance on the correlation-matrix determinant when testing feasibility.
PSD_SLACK = 1e-12


def theta(x: float) -> float:
    """Rate of a Gaussian channel at SNR ``x``, in bits: 0.5 * log2(1 + x)."""
    if not math.isfinite(x):
        raise DomainError(f"theta argument must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"theta argument must be non-negative, got {x!r}")
    return 0.5 * math.log2(1.0 + x)


def correlation_determinant(rho_1: float, rho_2: float, rho_12: float) -> float:
    """Determinant of the 3x3 correlation matrix with unit diagonal.

    Plain arithmetic, so it also evaluates elementwise on numpy arrays.
    """
    return (
        1.0
        + 2.0 * rho_1 * rho_2 * rho_12
        - rho_1 * rho_1
        - rho_2 * rho_2
        - rho_12 * rho_12
    )


def valid_correlation(rho_1, rho_2, rho_12) -> np.ndarray | bool:
    """Elementwise: whether each triple forms a valid correlation matrix.

    Valid means finite entries in [-1, 1] and a determinant of at least
    -PSD_SLACK.  Takes broadcastable arrays, or three floats, which give a
    bool from the same float expressions without a round trip through numpy.
    """
    rhos = (rho_1, rho_2, rho_12)
    if all(isinstance(r, float) for r in rhos):
        # A NaN fails the bounds, so the determinant only sees [-1, 1].
        return all(abs(r) <= 1.0 for r in rhos) and correlation_determinant(*rhos) >= -PSD_SLACK
    r1, r2, r12 = (np.asarray(r, dtype=float) for r in rhos)
    with np.errstate(invalid="ignore", over="ignore"):
        valid = correlation_determinant(r1, r2, r12) >= -PSD_SLACK
    # Each bound is tested on its own axis, before broadcasting.
    valid &= (np.abs(r1) <= 1.0) & (np.abs(r2) <= 1.0) & (np.abs(r12) <= 1.0)
    return valid


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations (rho_1, rho_2, rho_12) of (X_l, X_1e, X_2e).

    rho_1 couples X_1e with X_l, rho_2 couples X_2e with X_l, and rho_12
    couples the two eavesdropper inputs.  A triple is admissible only when
    the implied 3x3 correlation matrix is positive semidefinite, i.e. each
    entry lies in [-1, 1] and

        1 + 2*rho_1*rho_2*rho_12 - rho_1^2 - rho_2^2 - rho_12^2 >= 0

    up to a determinant slack of ``PSD_SLACK``.
    """

    rho_1: float
    rho_2: float
    rho_12: float

    def __post_init__(self) -> None:
        if not valid_correlation(self.rho_1, self.rho_2, self.rho_12):
            raise DomainError(
                "correlation triple needs finite entries in [-1, 1] and a "
                f"determinant >= -{PSD_SLACK}, got "
                f"({self.rho_1}, {self.rho_2}, {self.rho_12})"
            )

    @property
    def determinant(self) -> float:
        return correlation_determinant(self.rho_1, self.rho_2, self.rho_12)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.rho_1, self.rho_2, self.rho_12)


ZERO_RHO = CorrelationTriple(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class RateBreakdown:
    """Secrecy-rate evaluation split into its constituent information terms.

    main_rate      rate of the legitimate link.
    leak_joint     leakage toward the pooled eavesdropper observations when
                   their own transmit signals are available as side
                   information.
    leak_single_1  leakage toward eavesdropper 1 alone, all transmit signals
                   counted as sources.
    leak_single_2  same for eavesdropper 2.
    effective_leakage  min(leak_joint, max(leak_single_1, leak_single_2)).
    secure_rate    max(0, main_rate - effective_leakage).
    clamped        True iff the difference was negative before clamping.
    """

    main_rate: float
    leak_joint: float
    leak_single_1: float
    leak_single_2: float
    effective_leakage: float
    secure_rate: float
    clamped: bool

    def __post_init__(self) -> None:
        for name in (
            "main_rate",
            "leak_joint",
            "leak_single_1",
            "leak_single_2",
            "effective_leakage",
            "secure_rate",
        ):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} must be finite and non-negative, got {v!r}")


def combine_breakdown(
    main_rate: float, leak_joint: float, leak_single_1: float, leak_single_2: float
) -> RateBreakdown:
    """Assemble a RateBreakdown from the four information terms."""
    effective = min(leak_joint, max(leak_single_1, leak_single_2))
    gap = main_rate - effective
    return RateBreakdown(
        main_rate=main_rate,
        leak_joint=leak_joint,
        leak_single_1=leak_single_1,
        leak_single_2=leak_single_2,
        effective_leakage=effective,
        secure_rate=gap if gap > 0.0 else 0.0,
        clamped=gap < 0.0,
    )
