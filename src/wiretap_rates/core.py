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
    "MAX_GRID_POINTS",
    "PSD_SLACK",
    "theta",
    "gain_squared",
    "CorrelationTriple",
    "ZERO_RHO",
    "RateBreakdown",
    "rate_terms",
    "effective_leakages",
    "secure_rates",
    "correlation_determinant",
    "valid_correlation",
]


class DomainError(ValueError):
    """An argument left the mathematical domain of an operation."""


class GridBudgetError(RuntimeError):
    """The requested exhaustive search exceeds the evaluation budget."""


#: Most points or evaluations an exhaustive search may take: the Gaussian
#: coarse grid (the 0.01 grid has 201^3 = 8.1M points) and its descents (3
#: passes take at most 900), and the discrete sup-inf's ``max_evaluations``.
MAX_GRID_POINTS = 10_000_000

#: Tolerance on the correlation-matrix determinant when testing feasibility.
PSD_SLACK = 1e-12


def theta(x: float) -> float:
    """Rate of a Gaussian channel at SNR ``x``, in bits: 0.5 * log2(1 + x)."""
    if not math.isfinite(x):
        raise DomainError(f"theta argument must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"theta argument must be non-negative, got {x!r}")
    return 0.5 * math.log2(1.0 + x)


def gain_squared(name: str, gain: float) -> float:
    """``gain ** 2`` bit for bit, for the gain called ``name``.  A float
    square past the float range, where Python raises OverflowError (|gain|
    above about 1.3e154), raises DomainError instead."""
    try:
        return gain ** 2
    except OverflowError:
        raise DomainError(f"gain {name} = {gain!r} is too large: "
                          "its square overflows a float") from None


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


def valid_correlation(rho_1, rho_2, rho_12, det=None) -> np.ndarray | bool:
    """Elementwise: whether each triple forms a valid correlation matrix.

    Valid means finite entries in [-1, 1] and a determinant of at least
    -PSD_SLACK.  Takes broadcastable arrays, or three floats, which give a
    bool.  Each bound is tested on its own input, before broadcasting; a NaN
    or infinite entry fails its bound, whatever the determinant gives.
    ``det``, when given, is ``correlation_determinant(rho_1, rho_2, rho_12)``,
    which a caller that needs it anyway has already computed.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if det is None:
            det = correlation_determinant(rho_1, rho_2, rho_12)
        return (
            (abs(rho_1) <= 1.0)
            & (abs(rho_2) <= 1.0)
            & (abs(rho_12) <= 1.0)
            & (det >= -PSD_SLACK)
        )


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

    main_rate      I(X_l; Y_l), the rate of the legitimate link.
    leak_joint     I(X_l; Y_1e, Y_2e | X_1e, X_2e), the leakage toward the
                   pooled eavesdropper observations when their own transmit
                   signals are available as side information.
    leak_single_1  I(X_l, X_1e, X_2e; Y_1e), the leakage toward eavesdropper
                   1 alone, all transmit signals counted as sources.
    leak_single_2  I(X_l, X_1e, X_2e; Y_2e), the same for eavesdropper 2.

    Y_je stands for all of eavesdropper j's outputs; :func:`rate_terms`
    gives the four terms as index sets.  The rule that combines them is
    derived, never stored: see ``effective_leakage`` and ``secure_rate``.
    """

    main_rate: float
    leak_joint: float
    leak_single_1: float
    leak_single_2: float

    def __post_init__(self) -> None:
        for name in ("main_rate", "leak_joint", "leak_single_1", "leak_single_2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} must be finite and non-negative, got {v!r}")

    @property
    def effective_leakage(self) -> float:
        """min(leak_joint, max(leak_single_1, leak_single_2))."""
        return min(self.leak_joint, max(self.leak_single_1, self.leak_single_2))

    @property
    def secure_rate(self) -> float:
        """max(0, main_rate - effective_leakage)."""
        gap = self.main_rate - self.effective_leakage
        return gap if gap > 0.0 else 0.0


def rate_terms(
    y_1e: tuple[int, ...], y_2e: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Index sets (A, B, C) of the four terms I(A; B | C), in
    :class:`RateBreakdown` field order:

        main_rate      I(X_l; Y_l)
        leak_joint     I(X_l; Y_1e, Y_2e | X_1e, X_2e)
        leak_single_1  I(X_l, X_1e, X_2e; Y_1e)
        leak_single_2  I(X_l, X_1e, X_2e; Y_2e)

    The variables are numbered X_l = 0, X_1e = 1, X_2e = 2 and Y_l = 3;
    ``y_1e`` and ``y_2e`` number each eavesdropper's outputs.
    """
    inputs = (0, 1, 2)
    return (
        ((0,), (3,), ()),
        ((0,), y_1e + y_2e, (1, 2)),
        (inputs, y_1e, ()),
        (inputs, y_2e, ()),
    )


def effective_leakages(joint, single_1, single_2) -> np.ndarray:
    """:attr:`RateBreakdown.effective_leakage` elementwise; NaN propagates."""
    return np.minimum(joint, np.maximum(single_1, single_2))


def secure_rates(main, leakage, out=None) -> np.ndarray:
    """:attr:`RateBreakdown.secure_rate` elementwise over broadcastable arrays
    of main terms and :func:`effective_leakages`; a NaN term gives a NaN rate.

    Written into ``out`` when given, which must hold their broadcast shape.
    """
    return np.maximum(np.subtract(main, leakage, out=out), 0.0, out=out)
