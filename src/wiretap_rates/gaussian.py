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

Each closed form is one batch evaluator, named ``*_rows``: it takes K
parameter sets as a (K, 13) array of the dataclass fields in field order
and, in the shared-band model, K correlation triples as a (K, 3) array.  A
row outside the form's domain evaluates to nan.  The scalar function of each
form evaluates a batch of one, and raises the DomainError of the first check
its row fails, in the order the checks are made.  Squares and logarithms
are taken with the C library's ``pow`` and ``log2``, one Python call per
entry, as the scalar expressions always took them: numpy's square and
``log2`` round differently on some arguments, so every value is the scalar
route's, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import Callable

import numpy as np

from .core import (
    CorrelationTriple,
    DomainError,
    RateBreakdown,
    gain_squared,
    theta,
    valid_correlation,
)

__all__ = [
    "OrthogonalGaussianParams",
    "GeneralGaussianParams",
    "rate_orthogonal",
    "rate_orthogonal_rows",
    "rate_noncolluding",
    "rate_perfectcolluding",
    "orthogonal_rates",
    "single_eavesdropper_leakage",
    "single_eavesdropper_leakage_rows",
    "rate_general_closed",
    "rate_general_closed_rows",
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


def _check_fields(values: dict[str, float], gains: int) -> None:
    """Raise at the first field out of its domain, in field order: ``gains``
    gains, then three powers, then the noise variances."""
    for i, (name, v) in enumerate(values.items()):
        if i < gains:
            _check_gain(name, v)
        elif i < gains + 3:
            _check_power(name, v)
        else:
            _check_noise(name, v)


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
        _check_fields(vars(self), 5)


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
        _check_fields(vars(self), 7)


def _param_rows(p: GeneralGaussianParams | OrthogonalGaussianParams) -> np.ndarray:
    """One parameter set as a (1, 13) array of its fields in field order."""
    return np.array([list(vars(p).values())])


_ORTHOGONAL_NAMES = tuple(f.name for f in fields(OrthogonalGaussianParams))
_GENERAL_NAMES = tuple(f.name for f in fields(GeneralGaussianParams))

# The least value each field may take, in field order, given its number of
# gains: any finite gain, a power of 0 and the least positive noise
# variance.  Every field is at most the greatest finite float.
_FLOAT_MAX = sys.float_info.max
_FIELD_FLOORS = {
    gains: np.array([-_FLOAT_MAX] * gains + [0.0] * 3 + [math.ulp(0.0)] * (10 - gains))
    for gains in (5, 7)
}


class _Checks:
    """The domain checks of one batch, in the order the scalar route makes
    them.  Each is a (K,) mask of the rows that fail it, with a function
    that raises row i's DomainError."""

    def __init__(self) -> None:
        self._checks: list[tuple[np.ndarray, Callable[[int], object]]] = []

    def add(self, bad: np.ndarray, fail: Callable[[int], object]) -> None:
        self._checks.append((bad, fail))

    def failed(self) -> np.ndarray:
        """(K,) mask of the rows that fail any check."""
        return np.logical_or.reduce([bad for bad, _ in self._checks])

    def raise_first(self, i: int) -> None:
        """Raise row i's DomainError from the first check it fails, if any."""
        for bad, fail in self._checks:
            if bad[i]:
                fail(i)


def _raise(message: str) -> None:
    raise DomainError(message)


def _rho(rhos: np.ndarray, i: int) -> tuple[float, ...]:
    """Row i's triple as :meth:`CorrelationTriple.as_tuple` gives it."""
    return tuple(rhos[i].tolist())


def _check_rows(checks: _Checks, x: np.ndarray, names: tuple[str, ...], gains: int,
                rhos: np.ndarray | None = None) -> None:
    """The checks of the parameter dataclass on each row of ``x``: finite
    gains, then powers >= 0, then noise variances > 0; then, given
    ``rhos``, those of :class:`CorrelationTriple` on each triple."""
    ok = ((x >= _FIELD_FLOORS[gains]) & (x <= _FLOAT_MAX)).all(axis=1)
    checks.add(~ok, lambda i: _check_fields(dict(zip(names, x[i].tolist())), gains))
    if rhos is not None:
        checks.add(~valid_correlation(*rhos.T), lambda i: CorrelationTriple(*_rho(rhos, i)))


def _square(v: float) -> float:
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _squares(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of every entry as Python takes it, with the C library's
    ``pow`` (numpy's square is one multiplication, which rounds differently
    on about 1 argument in 1,100); inf where the square leaves the float
    range, where Python raises OverflowError."""
    flat = x.ravel().tolist()
    try:
        out = np.fromiter(map(math.pow, flat, repeat(2.0)), float, len(flat))
    except OverflowError:
        out = np.array([_square(v) for v in flat])
    return out.reshape(x.shape)


def _check_square(checks: _Checks, names: tuple[str, ...], x: np.ndarray, col: int,
                  over: np.ndarray) -> None:
    """The check of :func:`~wiretap_rates.core.gain_squared` on the gain in
    column ``col`` of ``x``: ``over`` marks each square past the float
    range."""
    checks.add(over, lambda i: gain_squared(names[col], float(x[i, col])))


def _theta_faults(args: np.ndarray) -> np.ndarray:
    """Where :func:`~wiretap_rates.core.theta` refuses its argument: not
    finite, or negative."""
    return ~(np.isfinite(args) & (args >= 0.0))


def _check_theta(checks: _Checks, args: np.ndarray, faults: np.ndarray, col: int) -> None:
    """The check of :func:`~wiretap_rates.core.theta` on column ``col`` of
    ``args``, whose :func:`_theta_faults` are ``faults``."""
    checks.add(faults[:, col], lambda i: theta(float(args[i, col])))


def _thetas(args: np.ndarray, checks: _Checks) -> np.ndarray:
    """:func:`~wiretap_rates.core.theta` of every entry of the (K, m)
    ``args``, whose checks are added, with the C library's ``log2``; nan on
    every row that fails a check."""
    failed = checks.failed()
    any_failed = failed.any()
    if any_failed:
        args = np.where(failed[:, np.newaxis], 0.0, args)
    flat = (1.0 + args).ravel().tolist()
    out = 0.5 * np.fromiter(map(math.log2, flat), float, len(flat)).reshape(args.shape)
    if any_failed:
        out[failed] = np.nan
    return out


def _breakdown(values: np.ndarray, checks: _Checks) -> RateBreakdown:
    """The terms of a batch of one, or the DomainError of its row."""
    checks.raise_first(0)
    return RateBreakdown(*values[0].tolist())


# ---------------------------------------------------------------------------
# Orthogonal model


# The power each gain's link carries, in gain field order: P_l on the main
# link and both listening bands, P_2e into eavesdropper 1's cross band and
# P_1e into 2's.  The noise variances follow in the same order.
_ORTHOGONAL_HEARD = np.array([5, 5, 5, 7, 6])


def _orthogonal(params: np.ndarray) -> tuple[np.ndarray, _Checks]:
    x = np.asarray(params, dtype=float)
    names = _ORTHOGONAL_NAMES
    checks = _Checks()
    _check_rows(checks, x, names, 5)
    sq = _squares(x[:, :5])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # The SNR of each gain's link, gain^2 P / N: the main link, the
        # listening bands (s1, s2) and the cross bands (c1, c2).
        snr = sq * x.take(_ORTHOGONAL_HEARD, axis=1) / x[:, 8:]
        s, c = snr[:, 1:3], snr[:, 3:]
        # theta's arguments in RateBreakdown field order.  The joint leakage
        # is the sum of the per-eavesdropper listening SNRs: same floats as
        # the single-eavesdropper terms, so the P_1e = P_2e = 0 reduction to
        # rate_noncolluding is exact.
        args = np.empty((len(x), 4))
        args[:, 0] = snr[:, 0]
        args[:, 1] = s[:, 0] + s[:, 1]
        args[:, 2:] = s + c + s * c
    # In the scalar route's order: the listening gains, the joint leakage,
    # the cross gains, the single leakages, then the main term.
    over, faults = np.isinf(sq), _theta_faults(args)
    for col in (1, 2):
        _check_square(checks, names, x, col, over[:, col])
    _check_theta(checks, args, faults, 1)
    for col in (3, 4):
        _check_square(checks, names, x, col, over[:, col])
    _check_theta(checks, args, faults, 2)
    _check_theta(checks, args, faults, 3)
    _check_square(checks, names, x, 0, over[:, 0])
    _check_theta(checks, args, faults, 0)
    return _thetas(args, checks), checks


def rate_orthogonal_rows(params: np.ndarray) -> np.ndarray:
    """:func:`rate_orthogonal` of K rows of :class:`OrthogonalGaussianParams`
    fields in field order: a (K, 4) array in :class:`RateBreakdown` field
    order, nan on each row where the scalar call raises."""
    return _orthogonal(params)[0]


def rate_orthogonal(p: OrthogonalGaussianParams) -> RateBreakdown:
    """Achievable secrecy rate of the orthogonal model, independent codebooks.

    main term      theta(h_l^2 P_l / N_l)
    joint leakage  theta(P_l (h_1m^2/N_1e_m + h_2m^2/N_2e_m))
    single leakage theta(s_j + c_j + s_j c_j) per eavesdropper j, where s_j
                   is the listening-band SNR and c_j the cross-band SNR; the
                   product term appears because eavesdropper j combines two
                   independent looks.

    A batch of one of :func:`rate_orthogonal_rows`.  A gain whose square
    leaves the float range, or a term whose argument is not finite, raises
    DomainError.
    """
    return _breakdown(*_orthogonal(_param_rows(p)))


def rate_noncolluding(p: OrthogonalGaussianParams) -> float:
    """Secrecy rate against two silent, non-cooperating eavesdroppers.

    Equals the orthogonal-model rate with both eavesdropper powers forced to
    zero: the binding leakage is the strongest single listening band.
    """
    silent = _param_rows(p)
    silent[:, 6:8] = 0.0  # P_1e and P_2e
    return _breakdown(*_orthogonal(silent)).secure_rate


def rate_perfectcolluding(p: OrthogonalGaussianParams) -> float:
    """Secrecy rate when the eavesdroppers pool their observations freely.

    Limit of the orthogonal model as both eavesdropper powers grow without
    bound: the single leakages grow with them, so the binding leakage is the
    joint one, that of a single receiver holding both listening bands.
    """
    return _pooled(rate_orthogonal(p))


def _pooled(b: RateBreakdown) -> float:
    """The secure rate of ``b`` with both single leakages set to the joint one."""
    return RateBreakdown(b.main_rate, b.leak_joint, b.leak_joint, b.leak_joint).secure_rate


def orthogonal_rates(p: OrthogonalGaussianParams) -> tuple[RateBreakdown, float, float]:
    """:func:`rate_orthogonal`, :func:`rate_noncolluding` and
    :func:`rate_perfectcolluding` of ``p``, from one two-row batch: ``p``,
    and ``p`` with both eavesdroppers silent.

    Raises the DomainError of the first of the three calls that raises.
    """
    rows = np.repeat(_param_rows(p), 2, axis=0)
    rows[1, 6:8] = 0.0  # P_1e and P_2e
    values, checks = _orthogonal(rows)
    checks.raise_first(0)
    checks.raise_first(1)
    b = RateBreakdown(*values[0].tolist())
    return b, RateBreakdown(*values[1].tolist()).secure_rate, _pooled(b)


# ---------------------------------------------------------------------------
# General (shared-band) model


# Field columns of eavesdropper j's single leakage: the legitimate-to-j gain
# h_lj, the cross gain g from the other eavesdropper k, P_k and N_j.
_SINGLE_COLUMNS = {1: (3, 5, 9, 11), 2: (4, 6, 8, 12)}


def _single_args(j: int, x: np.ndarray, rhos: np.ndarray, sq_h: np.ndarray,
                 sq_g: np.ndarray, rho2_both: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eavesdropper j's single-leakage numerator of each row, and theta's
    argument, the numerator over N_j; ``sq_h`` and ``sq_g`` hold the
    squares of h_lj and g."""
    h_lj, g, p_k, n_j = _SINGLE_COLUMNS[j]
    r = rhos[:, 1] if j == 1 or rho2_both else rhos[:, 0]
    P_l, P_k = x[:, 7], x[:, p_k]
    num = sq_h * P_l + sq_g * P_k + 2.0 * x[:, h_lj] * x[:, g] * r * np.sqrt(P_l * P_k)
    return num, num / x[:, n_j]


def _check_single(checks: _Checks, j: int, x: np.ndarray, over_h: np.ndarray,
                  over_g: np.ndarray, num: np.ndarray, args: np.ndarray,
                  faults: np.ndarray, col: int) -> None:
    """The checks of eavesdropper j's single leakage, in the scalar route's
    order: ``over_h`` and ``over_g`` mark the squares of h_lj and g past
    the float range, and its theta argument is column ``col`` of ``args``,
    whose :func:`_theta_faults` are ``faults``."""
    h_lj, g, _, _ = _SINGLE_COLUMNS[j]
    _check_square(checks, _GENERAL_NAMES, x, h_lj, over_h)
    _check_square(checks, _GENERAL_NAMES, x, g, over_g)
    # |r| <= 1 makes the quadratic form non-negative; a negative value
    # indicates an internal inconsistency, not a caller error.
    checks.add(num < 0.0, lambda i: _raise(
        f"single-eavesdropper leakage argument turned negative ({float(num[i])!r})"))
    _check_theta(checks, args, faults, col)


def _single_rows(j: int, params: np.ndarray, rhos: np.ndarray,
                 rho2_both: bool) -> tuple[np.ndarray, _Checks]:
    if j not in (1, 2):
        raise DomainError(f"eavesdropper index must be 1 or 2, got {j!r}")
    x, rhos = np.asarray(params, dtype=float), np.asarray(rhos, dtype=float)
    checks = _Checks()
    _check_rows(checks, x, _GENERAL_NAMES, 7, rhos)
    h_lj, g, _, _ = _SINGLE_COLUMNS[j]
    sq = _squares(x[:, [h_lj, g]])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num, arg = _single_args(j, x, rhos, sq[:, 0], sq[:, 1], rho2_both)
    args = arg[:, np.newaxis]
    over = np.isinf(sq)
    _check_single(checks, j, x, over[:, 0], over[:, 1], num, args, _theta_faults(args), 0)
    return _thetas(args, checks)[:, 0], checks


def single_eavesdropper_leakage_rows(j: int, params: np.ndarray, rhos: np.ndarray,
                                     rho2_both: bool = False) -> np.ndarray:
    """:func:`single_eavesdropper_leakage` of K rows of
    :class:`GeneralGaussianParams` fields in field order at K triples
    (rho_1, rho_2, rho_12): a (K,) array, nan on each row where the scalar
    call raises.  An index ``j`` other than 1 or 2 raises DomainError."""
    return _single_rows(j, params, rhos, rho2_both)[0]


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

    A batch of one of :func:`single_eavesdropper_leakage_rows`.
    """
    leak, checks = _single_rows(j, _param_rows(p), np.array([rho.as_tuple()]), rho2_both)
    checks.raise_first(0)
    return float(leak[0])


def _general(params: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, _Checks]:
    x, rhos = np.asarray(params, dtype=float), np.asarray(rhos, dtype=float)
    names = _GENERAL_NAMES
    checks = _Checks()
    _check_rows(checks, x, names, 7, rhos)
    h_l, g1, g2 = x[:, 0], x[:, 1], x[:, 2]
    P_l, P_1, P_2 = x[:, 7], x[:, 8], x[:, 9]
    r1, r2, r12 = rhos.T
    checks.add(P_1 <= 0.0, lambda i: _raise(
        "rate_general_closed requires P_1e > 0; use the covariance route for degenerate powers"))
    checks.add(P_2 <= 0.0, lambda i: _raise(
        "rate_general_closed requires P_2e > 0; use the covariance route for degenerate powers"))
    checks.add(np.abs(r12) >= 1.0, lambda i: _raise(
        "rate_general_closed requires |rho_12| < 1; use the covariance route for degenerate correlations"))
    # Squares of the seven gains (columns 0 to 6), the triple (7 to 9) and
    # P_1e, P_2e (10, 11).
    sq = _squares(np.concatenate([x[:, :7], rhos, x[:, 8:10]], axis=1))
    r1_2, r2_2, r12_2, P1_2, P2_2 = sq[:, 7:].T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = (
            sq[:, 0] * P_l
            + r1_2 * sq[:, 1] * P_1
            + r2_2 * sq[:, 2] * P_2
            + 2.0 * h_l * g1 * r1 * np.sqrt(P_l * P_1)
            + 2.0 * h_l * g2 * r2 * np.sqrt(P_l * P_2)
        )
        den = (
            sq[:, 1] * P_1 * (1.0 - r1_2)
            + sq[:, 2] * P_2 * (1.0 - r2_2)
            + 2.0 * g1 * g2 * r12 * np.sqrt(P_1 * P_2)
            + x[:, 10]
        )
        residual = 1.0 - (
            r1_2 * P1_2
            + r2_2 * P2_2
            + 2.0 * r1 * r2 * r12 * P_1 * P_2
        ) / (P_1 * P_2 * (1.0 - r12_2))
        # theta's arguments in RateBreakdown field order.
        args = np.empty((len(x), 4))
        args[:, 0] = num / den
        args[:, 1] = P_l * residual * (sq[:, 3] / x[:, 11] + sq[:, 4] / x[:, 12])
        num_1, args[:, 2] = _single_args(1, x, rhos, sq[:, 3], sq[:, 5], False)
        num_2, args[:, 3] = _single_args(2, x, rhos, sq[:, 4], sq[:, 6], False)
    # In the scalar route's order: the main term, the joint leakage, then
    # each single leakage.
    over, faults = np.isinf(sq), _theta_faults(args)
    for col in (0, 1, 2):
        _check_square(checks, names, x, col, over[:, col])
    checks.add(den <= 0.0, lambda i: _raise(
        f"main-term denominator is not positive ({float(den[i])!r}) at rho={_rho(rhos, i)}"))
    checks.add(num < 0.0, lambda i: _raise(
        f"main-term numerator is negative ({float(num[i])!r}) at rho={_rho(rhos, i)}"))
    _check_theta(checks, args, faults, 0)
    for col in (3, 4):
        _check_square(checks, names, x, col, over[:, col])
    joint_arg = args[:, 1]
    checks.add(joint_arg < 0.0, lambda i: _raise(
        f"joint-leakage argument is negative ({float(joint_arg[i])!r}) at rho={_rho(rhos, i)}"))
    _check_theta(checks, args, faults, 1)
    _check_single(checks, 1, x, over[:, 3], over[:, 5], num_1, args, faults, 2)
    _check_single(checks, 2, x, over[:, 4], over[:, 6], num_2, args, faults, 3)
    return _thetas(args, checks), checks


def rate_general_closed_rows(params: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """:func:`rate_general_closed` of K rows of :class:`GeneralGaussianParams`
    fields in field order at K triples (rho_1, rho_2, rho_12): a (K, 4)
    array in :class:`RateBreakdown` field order, nan on each row where the
    scalar call raises, which marks where the printed form is undefined."""
    return _general(params, rhos)[0]


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
    quantity is raised in that case, and so it is for a gain whose square
    leaves the float range.

    A batch of one of :func:`rate_general_closed_rows`.
    """
    return _breakdown(*_general(_param_rows(p), np.array([rho.as_tuple()])))


def strip_jamming(p: GeneralGaussianParams) -> GeneralGaussianParams:
    """Copy of ``p`` with both jamming gains into the legitimate receiver zeroed."""
    return replace(p, h_1e_l=0.0, h_2e_l=0.0)
