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
form is written as its printed formula over the columns of a :class:`_Batch`,
which records each domain check on the line that computes the checked
quantity, so the statement order is the check order.  A row outside the
form's domain evaluates to nan.  The scalar function of each form evaluates
a batch of one, and raises the DomainError of the first check its row fails.
Squares and logarithms are taken with the C library's ``pow`` and ``log2``,
one Python call per entry, as the scalar expressions always took them:
numpy's square and ``log2`` round differently on some arguments, so every
value is that of the plain float expression, bit for bit.
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


# Each parameter class's field names, and the least value each field may
# take, in field order: any finite gain, a power of 0 and the least positive
# noise variance.  Every field is at most the greatest finite float.
_FLOAT_MAX = sys.float_info.max
_FIELDS = {
    form: (tuple(f.name for f in fields(form)),
           np.array([-_FLOAT_MAX] * gains + [0.0] * 3 + [math.ulp(0.0)] * (10 - gains)))
    for form, gains in ((OrthogonalGaussianParams, 5), (GeneralGaussianParams, 7))
}


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


class _Batch:
    """K rows of one closed form, and the domain checks it makes on them in
    the order it makes them.

    ``x`` maps each field name, and given ``rhos`` each of rho_1, rho_2 and
    rho_12, to its (K,) column; ``rhos`` holds the (K, 3) triples and ``sq``
    the squares of each column named in ``squared``, taken in one pass.  The
    dataclass checks come first, in field order, then the triple's; the form
    records each later check where it computes the checked quantity.  A
    check is a (K,) mask of the rows that fail it, with a function that
    raises row i's DomainError.  Theta's mask is None: :meth:`thetas` takes
    one mask over all its arguments, and theta's function raises only where
    row i's argument fails.  With ``raises`` set, :meth:`thetas` raises the
    DomainError of the first row that fails a check, as the scalar call does.
    """

    def __init__(self, form: type, params: np.ndarray, squared: tuple[str, ...],
                 rhos: np.ndarray | None = None, raises: bool = False) -> None:
        x = np.asarray(params, dtype=float)
        names, floors = _FIELDS[form]
        ok = ((x >= floors) & (x <= _FLOAT_MAX)).all(axis=1)
        self._checks: list[tuple[np.ndarray | None, Callable[[int], object]]] = [
            (~ok, lambda i: form(*x[i].tolist()))]
        self.x = dict(zip(names, x.T))
        if rhos is not None:
            self.rhos = rhos = np.asarray(rhos, dtype=float)
            self.x.update(zip(("rho_1", "rho_2", "rho_12"), rhos.T))
            self._checks.append((~valid_correlation(*rhos.T),
                                 lambda i: CorrelationTriple(*rhos[i].tolist())))
        sq = _squares(np.array([self.x[name] for name in squared]))
        self.sq = dict(zip(squared, sq))
        self._over = dict(zip(squared, np.isinf(sq)))
        self._args: list[np.ndarray] = []
        self._raises = raises

    def gain(self, name: str) -> np.ndarray:
        """The square of gain ``name``, with the check of
        :func:`~wiretap_rates.core.gain_squared` on it."""
        gain = self.x[name]
        self._checks.append((self._over[name], lambda i: gain_squared(name, float(gain[i]))))
        return self.sq[name]

    def require(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """A check that fails on the rows of ``bad``, row i with
        ``message(i)``."""
        def fail(i: int) -> None:
            raise DomainError(message(i))
        self._checks.append((bad, fail))

    def theta(self, arg: np.ndarray) -> int:
        """Record ``arg`` as an argument of :func:`~wiretap_rates.core.theta`,
        with theta's check; its index among the recorded arguments."""
        self._args.append(arg)
        self._checks.append((None, lambda i: theta(float(arg[i]))))
        return len(self._args) - 1

    def thetas(self, *terms: int) -> np.ndarray:
        """theta of the recorded arguments ``terms`` as a (K, len(terms))
        array, with the C library's ``log2``; nan on every row that fails
        any check."""
        args = np.array(self._args)
        faults = ~(np.isfinite(args) & (args >= 0.0)).all(axis=0)
        failed = np.logical_or.reduce([bad for bad, _ in self._checks if bad is not None] + [faults])
        any_failed = failed.any()
        if any_failed:
            if self._raises:
                i = int(failed.argmax())
                for bad, fail in self._checks:
                    if bad is None or bad[i]:
                        fail(i)
            args = np.where(failed, 0.0, args)
        flat = (1.0 + args).ravel().tolist()
        out = 0.5 * np.fromiter(map(math.log2, flat), float, len(flat)).reshape(args.shape)
        if any_failed:
            out[:, failed] = np.nan
        return out[list(terms)].T


# ---------------------------------------------------------------------------
# Orthogonal model


_ORTHOGONAL_GAINS = ("h_l", "h_1m", "h_2m", "h_1c", "h_2c")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _orthogonal(params: np.ndarray, raises: bool = False) -> np.ndarray:
    b = _Batch(OrthogonalGaussianParams, params, _ORTHOGONAL_GAINS, raises=raises)
    x = b.x
    # The SNR of each listening band (s1, s2) and cross band (c1, c2).  The
    # joint leakage sums the listening SNRs: the same floats as the single
    # leakages, so the P_1e = P_2e = 0 reduction to rate_noncolluding is exact.
    s1 = b.gain("h_1m") * x["P_l"] / x["N_1e_m"]
    s2 = b.gain("h_2m") * x["P_l"] / x["N_2e_m"]
    joint = b.theta(s1 + s2)
    c1 = b.gain("h_1c") * x["P_2e"] / x["N_1e_c"]
    c2 = b.gain("h_2c") * x["P_1e"] / x["N_2e_c"]
    single_1 = b.theta(s1 + c1 + s1 * c1)
    single_2 = b.theta(s2 + c2 + s2 * c2)
    main = b.theta(b.gain("h_l") * x["P_l"] / x["N_l"])
    return b.thetas(main, joint, single_1, single_2)


def rate_orthogonal_rows(params: np.ndarray) -> np.ndarray:
    """:func:`rate_orthogonal` of K rows of :class:`OrthogonalGaussianParams`
    fields in field order: a (K, 4) array in :class:`RateBreakdown` field
    order, nan on each row where the scalar call raises."""
    return _orthogonal(params)


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
    return RateBreakdown(*_orthogonal(_param_rows(p), raises=True)[0].tolist())


def rate_noncolluding(p: OrthogonalGaussianParams) -> float:
    """Secrecy rate against two silent, non-cooperating eavesdroppers.

    Equals the orthogonal-model rate with both eavesdropper powers forced to
    zero: the binding leakage is the strongest single listening band.
    """
    silent = _param_rows(p)
    silent[:, 6:8] = 0.0  # P_1e and P_2e
    return RateBreakdown(*_orthogonal(silent, raises=True)[0].tolist()).secure_rate


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
    values = _orthogonal(rows, raises=True)
    b = RateBreakdown(*values[0].tolist())
    return b, RateBreakdown(*values[1].tolist()).secure_rate, _pooled(b)


# ---------------------------------------------------------------------------
# General (shared-band) model


def _single_gains(j: int) -> tuple[str, str]:
    """Eavesdropper j's legitimate-to-j gain h_lj, and the cross gain g from
    the other eavesdropper into j."""
    return f"h_l_{j}e", f"h_{3 - j}e_{j}e"


def _single(b: _Batch, j: int, rho2_both: bool = False) -> int:
    """Record eavesdropper j's single leakage on ``b``; its theta index."""
    x, k = b.x, 3 - j
    h, g = _single_gains(j)
    P_l, P_k = x["P_l"], x[f"P_{k}e"]
    r = x["rho_2" if rho2_both else f"rho_{k}"]
    num = b.gain(h) * P_l + b.gain(g) * P_k + 2.0 * x[h] * x[g] * r * np.sqrt(P_l * P_k)
    # |r| <= 1 makes the quadratic form non-negative; a negative value
    # indicates an internal inconsistency, not a caller error.
    b.require(num < 0.0, lambda i:
              f"single-eavesdropper leakage argument turned negative ({float(num[i])!r})")
    return b.theta(num / x[f"N_{j}e"])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _single_rows(j: int, params: np.ndarray, rhos: np.ndarray, rho2_both: bool,
                 raises: bool = False) -> np.ndarray:
    if j not in (1, 2):
        raise DomainError(f"eavesdropper index must be 1 or 2, got {j!r}")
    b = _Batch(GeneralGaussianParams, params, _single_gains(j), rhos, raises)
    return b.thetas(_single(b, j, rho2_both))[:, 0]


def single_eavesdropper_leakage_rows(j: int, params: np.ndarray, rhos: np.ndarray,
                                     rho2_both: bool = False) -> np.ndarray:
    """:func:`single_eavesdropper_leakage` of K rows of
    :class:`GeneralGaussianParams` fields in field order at K triples
    (rho_1, rho_2, rho_12): a (K,) array, nan on each row where the scalar
    call raises.  An index ``j`` other than 1 or 2 raises DomainError."""
    return _single_rows(j, params, rhos, rho2_both)


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
    return float(_single_rows(j, _param_rows(p), np.array([rho.as_tuple()]), rho2_both, raises=True)[0])


# The squares the shared-band form takes: the seven gains, the triple, and
# P_1e and P_2e.
_GENERAL_SQUARED = _FIELDS[GeneralGaussianParams][0][:7] + (
    "rho_1", "rho_2", "rho_12", "P_1e", "P_2e")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _general(params: np.ndarray, rhos: np.ndarray, raises: bool = False) -> np.ndarray:
    b = _Batch(GeneralGaussianParams, params, _GENERAL_SQUARED, rhos, raises)
    x, sq, rhos = b.x, b.sq, b.rhos
    h_l, g1, g2 = x["h_l"], x["h_1e_l"], x["h_2e_l"]
    P_l, P_1, P_2 = x["P_l"], x["P_1e"], x["P_2e"]
    r1, r2, r12 = x["rho_1"], x["rho_2"], x["rho_12"]
    r1_2, r2_2 = sq["rho_1"], sq["rho_2"]

    def at(i: int) -> tuple[float, ...]:
        return tuple(rhos[i].tolist())

    b.require(P_1 <= 0.0, lambda i:
              "rate_general_closed requires P_1e > 0; use the covariance route for degenerate powers")
    b.require(P_2 <= 0.0, lambda i:
              "rate_general_closed requires P_2e > 0; use the covariance route for degenerate powers")
    b.require(np.abs(r12) >= 1.0, lambda i:
              "rate_general_closed requires |rho_12| < 1; use the covariance route for degenerate correlations")
    h_l_2, g1_2, g2_2 = b.gain("h_l"), b.gain("h_1e_l"), b.gain("h_2e_l")
    num = (
        h_l_2 * P_l
        + r1_2 * g1_2 * P_1
        + r2_2 * g2_2 * P_2
        + 2.0 * h_l * g1 * r1 * np.sqrt(P_l * P_1)
        + 2.0 * h_l * g2 * r2 * np.sqrt(P_l * P_2)
    )
    den = (
        g1_2 * P_1 * (1.0 - r1_2)
        + g2_2 * P_2 * (1.0 - r2_2)
        + 2.0 * g1 * g2 * r12 * np.sqrt(P_1 * P_2)
        + x["N_l"]
    )
    b.require(den <= 0.0, lambda i:
              f"main-term denominator is not positive ({float(den[i])!r}) at rho={at(i)}")
    b.require(num < 0.0, lambda i:
              f"main-term numerator is negative ({float(num[i])!r}) at rho={at(i)}")
    main = b.theta(num / den)
    residual = 1.0 - (
        r1_2 * sq["P_1e"]
        + r2_2 * sq["P_2e"]
        + 2.0 * r1 * r2 * r12 * P_1 * P_2
    ) / (P_1 * P_2 * (1.0 - sq["rho_12"]))
    joint_arg = P_l * residual * (b.gain("h_l_1e") / x["N_1e"] + b.gain("h_l_2e") / x["N_2e"])
    b.require(joint_arg < 0.0, lambda i:
              f"joint-leakage argument is negative ({float(joint_arg[i])!r}) at rho={at(i)}")
    joint = b.theta(joint_arg)
    return b.thetas(main, joint, _single(b, 1), _single(b, 2))


def rate_general_closed_rows(params: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """:func:`rate_general_closed` of K rows of :class:`GeneralGaussianParams`
    fields in field order at K triples (rho_1, rho_2, rho_12): a (K, 4)
    array in :class:`RateBreakdown` field order, nan on each row where the
    scalar call raises, which marks where the printed form is undefined."""
    return _general(params, rhos)


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
    return RateBreakdown(*_general(_param_rows(p), np.array([rho.as_tuple()]), raises=True)[0].tolist())


def strip_jamming(p: GeneralGaussianParams) -> GeneralGaussianParams:
    """Copy of ``p`` with both jamming gains into the legitimate receiver zeroed."""
    return replace(p, h_1e_l=0.0, h_2e_l=0.0)
