"""Closed-form achievable secrecy rates for the two Gaussian channel models.

Two geometries are covered.  In the orthogonal model the eavesdroppers listen
to the legitimate transmission and to each other over separate frequency
bands, so their transmissions never disturb the legitimate receiver.  In the
general model every transmission shares one band: eavesdropper signals both
jam the legitimate receiver and reach the other eavesdropper (each
eavesdropper cancels the echo of its own transmission).

Every rate function returns bits per channel use.  The general-model closed
form is evaluated exactly as printed in its source expression; an independent
covariance-based evaluation lives in :mod:`wiretap_rates.oracle` and the two
are compared term by term by the audit tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    CorrelationTriple,
    DomainError,
    RateBreakdown,
    gain_squared,
    theta,
)

__all__ = [
    "OrthogonalGaussianParams",
    "GeneralGaussianParams",
    "rate_orthogonal",
    "rate_noncolluding",
    "rate_perfectcolluding",
    "single_eavesdropper_leakage",
    "rate_general_closed",
    "strip_jamming",
]


def _check_gain(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise DomainError(f"gain {name} must be finite, got {v!r}")


def _check_power(name: str, v: float) -> None:
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"power {name} must be finite and >= 0, got {v!r}")


def _check_noise(name: str, v: float) -> None:
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"noise variance {name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class OrthogonalGaussianParams:
    """Channel gains, transmit powers and noise variances, orthogonal model.

    h_l            legitimate link gain.
    h_1m, h_2m     gains from the legitimate transmitter to each
                   eavesdropper's listening band.
    h_1c, h_2c     gains of the cross links on which each eavesdropper hears
                   the *other* eavesdropper's transmission.
    P_l, P_1e, P_2e    transmit power budgets (>= 0).
    N_*            noise variances (> 0) of the legitimate output and of each
                   eavesdropper's main-band and cross-band outputs.
    """

    h_l: float
    h_1m: float
    h_2m: float
    h_1c: float
    h_2c: float
    P_l: float
    P_1e: float
    P_2e: float
    N_l: float
    N_1e_m: float
    N_2e_m: float
    N_1e_c: float
    N_2e_c: float

    def __post_init__(self) -> None:
        for name in ("h_l", "h_1m", "h_2m", "h_1c", "h_2c"):
            _check_gain(name, getattr(self, name))
        for name in ("P_l", "P_1e", "P_2e"):
            _check_power(name, getattr(self, name))
        for name in ("N_l", "N_1e_m", "N_2e_m", "N_1e_c", "N_2e_c"):
            _check_noise(name, getattr(self, name))


@dataclass(frozen=True)
class GeneralGaussianParams:
    """Channel gains, transmit powers and noise variances, shared-band model.

    h_l            legitimate link gain.
    h_1e_l, h_2e_l     jamming gains: eavesdropper transmissions into the
                       legitimate receiver.
    h_l_1e, h_l_2e     gains from the legitimate transmitter into each
                       eavesdropper's receiver.
    h_2e_1e        gain with which eavesdropper 1 hears eavesdropper 2.
    h_1e_2e        gain with which eavesdropper 2 hears eavesdropper 1.
    P_l, P_1e, P_2e    transmit power budgets (>= 0).
    N_l, N_1e, N_2e    receiver noise variances (> 0).

    Each eavesdropper cancels its own transmission before decoding, so the
    two self-loop gains are identically zero and are not stored.
    """

    h_l: float
    h_1e_l: float
    h_2e_l: float
    h_l_1e: float
    h_l_2e: float
    h_2e_1e: float
    h_1e_2e: float
    P_l: float
    P_1e: float
    P_2e: float
    N_l: float
    N_1e: float
    N_2e: float

    def __post_init__(self) -> None:
        for name in ("h_l", "h_1e_l", "h_2e_l", "h_l_1e", "h_l_2e", "h_2e_1e", "h_1e_2e"):
            _check_gain(name, getattr(self, name))
        for name in ("P_l", "P_1e", "P_2e"):
            _check_power(name, getattr(self, name))
        for name in ("N_l", "N_1e", "N_2e"):
            _check_noise(name, getattr(self, name))


# ---------------------------------------------------------------------------
# Orthogonal model


def _listen_snr(p: OrthogonalGaussianParams, j: int) -> float:
    # SNR of the legitimate signal in eavesdropper j's listening band.
    if j == 1:
        return gain_squared("h_1m", p.h_1m) * p.P_l / p.N_1e_m
    return gain_squared("h_2m", p.h_2m) * p.P_l / p.N_2e_m


def _cross_snr(p: OrthogonalGaussianParams, j: int) -> float:
    # SNR of the other eavesdropper's transmission in j's cross band.
    if j == 1:
        return gain_squared("h_1c", p.h_1c) * p.P_2e / p.N_1e_c
    return gain_squared("h_2c", p.h_2c) * p.P_1e / p.N_2e_c


def rate_orthogonal(p: OrthogonalGaussianParams) -> RateBreakdown:
    """Achievable secrecy rate of the orthogonal model, independent codebooks.

    main term      theta(h_l^2 P_l / N_l)
    joint leakage  theta(P_l (h_1m^2/N_1e_m + h_2m^2/N_2e_m))
    single leakage theta(s_j + c_j + s_j c_j) per eavesdropper j, where s_j
                   is the listening-band SNR and c_j the cross-band SNR; the
                   product term appears because eavesdropper j combines two
                   independent looks.
    """
    s1 = _listen_snr(p, 1)
    s2 = _listen_snr(p, 2)
    # Joint leakage as the sum of the per-eavesdropper listening SNRs: same
    # floats as the single-eavesdropper terms, so the P_1e = P_2e = 0
    # reduction to rate_noncolluding is exact.
    leak_joint = theta(s1 + s2)
    c1 = _cross_snr(p, 1)
    c2 = _cross_snr(p, 2)
    leak_1 = theta(s1 + c1 + s1 * c1)
    leak_2 = theta(s2 + c2 + s2 * c2)
    main = theta(gain_squared("h_l", p.h_l) * p.P_l / p.N_l)
    return RateBreakdown(main, leak_joint, leak_1, leak_2)


def rate_noncolluding(p: OrthogonalGaussianParams) -> float:
    """Secrecy rate against two silent, non-cooperating eavesdroppers.

    Equals the orthogonal-model rate with both eavesdropper powers forced to
    zero: the binding leakage is the strongest single listening band.
    """
    return rate_orthogonal(replace(p, P_1e=0.0, P_2e=0.0)).secure_rate


def rate_perfectcolluding(p: OrthogonalGaussianParams) -> float:
    """Secrecy rate when the eavesdroppers pool their observations freely.

    Limit of the orthogonal model as both eavesdropper powers grow without
    bound: the single leakages grow with them, so the binding leakage is the
    joint one, that of a single receiver holding both listening bands.
    """
    b = rate_orthogonal(p)
    return RateBreakdown(b.main_rate, b.leak_joint, b.leak_joint, b.leak_joint).secure_rate


# ---------------------------------------------------------------------------
# General (shared-band) model


def single_eavesdropper_leakage(
    j: int,
    p: GeneralGaussianParams,
    rho: CorrelationTriple,
    rho2_both: bool = False,
) -> float:
    """Leakage toward eavesdropper j alone in the shared-band model.

    Treats all three transmit signals as sources and eavesdropper j's output
    as the observation:

        theta( (h_lj^2 P_l + g^2 P_k + 2 h_lj g rho_k sqrt(P_l P_k)) / N_j )

    where k is the other eavesdropper, h_lj the legitimate-to-j gain, g the
    cross gain from k into j, and rho_k the correlation between X_ke and X_l.

    With ``rho2_both=True`` the cross term uses rho_2 for both j=1 and j=2
    instead of the helping input's own correlation.  That variant exists only
    for audit comparisons; the default is the covariance-consistent reading.
    """
    if j == 1:
        h_lj, g, p_other, n_j = p.h_l_1e, p.h_2e_1e, p.P_2e, p.N_1e
        r = rho.rho_2
    elif j == 2:
        h_lj, g, p_other, n_j = p.h_l_2e, p.h_1e_2e, p.P_1e, p.N_2e
        r = rho.rho_2 if rho2_both else rho.rho_1
    else:
        raise DomainError(f"eavesdropper index must be 1 or 2, got {j!r}")
    num = (
        h_lj ** 2 * p.P_l
        + g ** 2 * p_other
        + 2.0 * h_lj * g * r * math.sqrt(p.P_l * p_other)
    )
    if num < 0.0:
        # |r| <= 1 makes the quadratic form non-negative; reaching this
        # indicates an internal inconsistency, not a caller error.
        raise DomainError(
            f"single-eavesdropper leakage argument turned negative ({num!r})"
        )
    return theta(num / n_j)


def rate_general_closed(
    p: GeneralGaussianParams,
    rho: CorrelationTriple,
) -> RateBreakdown:
    """Closed-form shared-band secrecy rate at a fixed correlation triple.

    Evaluates the printed closed form verbatim.  Against the covariance
    evaluation, both single-eavesdropper leakages coincide at every feasible
    correlation and the main term coincides while rho_1 * rho_2 = 0, but the
    joint leakage coincides at zero correlation only; the audit tooling
    quantifies the gap elsewhere.

    Preconditions: P_1e > 0, P_2e > 0 and |rho_12| < 1.  Degenerate
    parameters should be evaluated through the covariance route instead,
    which takes them to their limits.  For some admissible correlation triples the
    printed expression leaves its own domain (a negative theta argument or a
    non-positive main-term denominator); a DomainError naming the offending
    quantity is raised in that case.
    """
    if p.P_1e <= 0.0:
        raise DomainError("rate_general_closed requires P_1e > 0; use the covariance route for degenerate powers")
    if p.P_2e <= 0.0:
        raise DomainError("rate_general_closed requires P_2e > 0; use the covariance route for degenerate powers")
    if abs(rho.rho_12) >= 1.0:
        raise DomainError("rate_general_closed requires |rho_12| < 1; use the covariance route for degenerate correlations")

    r1, r2, r12 = rho.rho_1, rho.rho_2, rho.rho_12
    g1, g2 = p.h_1e_l, p.h_2e_l

    num = (
        p.h_l ** 2 * p.P_l
        + r1 ** 2 * g1 ** 2 * p.P_1e
        + r2 ** 2 * g2 ** 2 * p.P_2e
        + 2.0 * p.h_l * g1 * r1 * math.sqrt(p.P_l * p.P_1e)
        + 2.0 * p.h_l * g2 * r2 * math.sqrt(p.P_l * p.P_2e)
    )
    den = (
        g1 ** 2 * p.P_1e * (1.0 - r1 ** 2)
        + g2 ** 2 * p.P_2e * (1.0 - r2 ** 2)
        + 2.0 * g1 * g2 * r12 * math.sqrt(p.P_1e * p.P_2e)
        + p.N_l
    )
    if den <= 0.0:
        raise DomainError(
            f"main-term denominator is not positive ({den!r}) at rho={rho.as_tuple()}"
        )
    if num < 0.0:
        raise DomainError(
            f"main-term numerator is negative ({num!r}) at rho={rho.as_tuple()}"
        )
    main = theta(num / den)

    residual = 1.0 - (
        r1 ** 2 * p.P_1e ** 2
        + r2 ** 2 * p.P_2e ** 2
        + 2.0 * r1 * r2 * r12 * p.P_1e * p.P_2e
    ) / (p.P_1e * p.P_2e * (1.0 - r12 ** 2))
    joint_arg = p.P_l * residual * (
        p.h_l_1e ** 2 / p.N_1e + p.h_l_2e ** 2 / p.N_2e
    )
    if joint_arg < 0.0:
        raise DomainError(
            f"joint-leakage argument is negative ({joint_arg!r}) at rho={rho.as_tuple()}"
        )
    leak_joint = theta(joint_arg)

    leak_1 = single_eavesdropper_leakage(1, p, rho)
    leak_2 = single_eavesdropper_leakage(2, p, rho)
    return RateBreakdown(main, leak_joint, leak_1, leak_2)


def strip_jamming(p: GeneralGaussianParams) -> GeneralGaussianParams:
    """Copy of ``p`` with both jamming gains into the legitimate receiver zeroed."""
    return replace(p, h_1e_l=0.0, h_2e_l=0.0)
