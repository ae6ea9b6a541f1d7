"""Covariance-based evaluation of the Gaussian secrecy-rate terms.

This module never touches the printed closed forms.  Each rate term is a
Gaussian I(X_A; Y_B | X_C) of the linear channel Y = H X + Z, where the
inputs X have powers P and correlation matrix R and the noise Z is
independent with variances N.  The term is evaluated with generic linear
algebra from H, P, N and R alone:

    I(X_A; Y_B | X_C) = L(B, C) - L(B, A + C),
    L(B, S) = 1/2 * log2 det(I + M M^T),  M = N_B^(-1/2) H_B D F_S,

where D = diag(sqrt(P)), G G^T = R, and F_S is G with the row space of
G_S projected out and its rows S set to 0: the part of the inputs that
X_S leaves unknown, in whitened coordinates.  L(B, S) is the information
the outputs B still carry about the inputs once X_S is known.  Every
eigenvalue of I + M M^T is at least 1, so no log-determinant needs a
clamp, at any signal-to-noise ratio short of float overflow.  A silent
input (power 0, X_l included) is the constant 0 and tells nothing, so each
of its correlations is set to 0 in R; with that, zero powers and |rho| = 1
evaluate to their limits on the same path as every other row.  Agreement
with the closed forms is checked term by term in the tests and by the
audit tooling, which is the point: the two routes share no algebra.

Every route evaluates stacks; a single parameter set is a stack of one, so
the audit's blocks and the scalar calls share each definition.

:func:`mi_gaussian` is the generic reference over any assembled
:class:`JointCovariance`:

    I(A; B | C) = 1/2 * log2( det S_AC * det S_BC / (det S_C * det S_ABC) )

with det of the empty set equal to 1.

:func:`general_rate_terms_grid` evaluates the same four shared-band terms
over arrays of correlation triples from output variances, without assembling
a covariance or masking invalid triples; tests compare it with the oracle.
:func:`general_line_bound` bounds its secure rate below over each line of
valid rho_12, so a search can skip lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CorrelationTriple,
    DomainError,
    PSD_SLACK,
    RateBreakdown,
    correlation_determinant,
    effective_leakages,
    gain_squared,
    rate_terms,
    secure_rates,
)
from .gaussian import GeneralGaussianParams, OrthogonalGaussianParams, _param_rows

__all__ = [
    "JointCovariance",
    "build_joint_covariance_general",
    "build_joint_covariance_orthogonal",
    "mi_gaussian",
    "rate_general_oracle",
    "rate_orthogonal_oracle",
    "general_rate_terms_grid",
    "general_line_bound",
    "GENERAL_LABELS",
    "ORTHOGONAL_LABELS",
]

#: Negative mutual-information round-off below this magnitude is truncated to 0.
NEG_TOL = 1e-9

GENERAL_LABELS = ("X_l", "X_1e", "X_2e", "Y_l", "Y_1e", "Y_2e")
ORTHOGONAL_LABELS = (
    "X_l",
    "X_1e",
    "X_2e",
    "Y_l",
    "Y_1e_m",
    "Y_1e_c",
    "Y_2e_m",
    "Y_2e_c",
)


# Index sets of the four rate terms in each model's variable order.
_GENERAL_TERMS = rate_terms((4,), (5,))
_ORTHOGONAL_TERMS = rate_terms((4, 5), (6, 7))


@dataclass(frozen=True)
class JointCovariance:
    """A labelled joint covariance matrix of transmit signals and outputs.

    The matrix must pass :func:`_check_covariances`.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        n = len(self.labels)
        if m.shape != (n, n):
            raise DomainError(f"covariance shape {m.shape} does not match {n} labels")
        _check_covariances(m)
        object.__setattr__(self, "matrix", m)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown variable label {label!r}") from None


def _check_covariances(m: np.ndarray) -> None:
    """Raise unless the (n, n) matrix ``m`` is a covariance.

    It must have finite entries, be symmetric to 1e-12 and have no
    eigenvalue below -1e-10, both relative to its largest diagonal magnitude
    (at least 1).  Non-finite entries are refused before any LAPACK call.
    """
    if not np.isfinite(m).all():
        raise DomainError("covariance matrix has non-finite entries")
    scale = max(np.abs(m.diagonal()).max(), 1.0)
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise DomainError("covariance matrix is not symmetric")
    if np.linalg.eigvalsh(m)[0] < -1e-10 * scale:
        raise DomainError("covariance matrix is not positive semidefinite")


def _correlations(
    powers: np.ndarray,
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> np.ndarray:
    """(K, 3, 3) correlation matrices R of (X_l, X_1e, X_2e) at K triples.

    ``powers`` holds (P_l, P_1e, P_2e) per row: K rows, or one row shared by
    all K triples.  The correlations are arrays of K values, or floats.  A
    silent input (power 0) is the constant 0 and tells nothing about the
    others, so each of its correlations is set to 0.
    """
    live = powers > 0.0
    a1, a2, a12 = np.broadcast_arrays(
        np.where(live[:, 0] & live[:, 1], rho_1, 0.0),
        np.where(live[:, 0] & live[:, 2], rho_2, 0.0),
        np.where(live[:, 1] & live[:, 2], rho_12, 0.0),
    )
    r = np.empty((a1.size, 3, 3))
    r[:, [0, 1, 2], [0, 1, 2]] = 1.0
    r[:, 0, 1] = r[:, 1, 0] = a1
    r[:, 0, 2] = r[:, 2, 0] = a2
    r[:, 1, 2] = r[:, 2, 1] = a12
    return r


def _gains(params: np.ndarray, rows: int, at: tuple[tuple[int, int], ...]) -> np.ndarray:
    """(K, rows, 3) gain matrices with the first ``len(at)`` fields of each
    parameter row placed at ``at`` (output, input), zeros elsewhere."""
    gains = np.zeros((len(params), rows, 3))
    out, inp = zip(*at)
    gains[:, out, inp] = params[:, :len(at)]
    return gains


# Where each gain field enters the output equations, in field order.
# Shared band: the legitimate receiver hears everything, each eavesdropper
# hears the legitimate signal and the other eavesdropper.
_GENERAL_GAINS = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (2, 1))
# Orthogonal: outputs Y_l, Y_1e_m, Y_1e_c, Y_2e_m, Y_2e_c; each listening band
# hears X_l, each cross band the other eavesdropper.
_ORTHOGONAL_GAINS = ((0, 0), (1, 0), (3, 0), (2, 2), (4, 1))
# Noise fields (N_l, N_1e_m, N_1e_c, N_2e_m, N_2e_c) in output order.
_ORTHOGONAL_NOISES = [8, 9, 11, 10, 12]


def _general_channel(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gains, powers, noises) of K rows of :class:`GeneralGaussianParams`
    fields in field order: (K, 3, 3), (K, 3) and (K, 3) arrays."""
    return _gains(params, 3, _GENERAL_GAINS), params[:, 7:10], params[:, 10:13]


def _orthogonal_channel(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gains, powers, noises) of K rows of :class:`OrthogonalGaussianParams`
    fields in field order: (K, 5, 3), (K, 3) and (K, 5) arrays."""
    return _gains(params, 5, _ORTHOGONAL_GAINS), params[:, 5:8], params[:, _ORTHOGONAL_NOISES]


def _assemble(
    gains: np.ndarray, powers: np.ndarray, noises: np.ndarray, correlations: np.ndarray
) -> np.ndarray:
    """(3 + m, 3 + m) joint covariance of the inputs and the m outputs.

    The inputs have covariance D R D with D = diag(sqrt(P)), and the outputs
    are gains @ inputs + independent noise.  Gains too large for a float
    product give non-finite entries, which :func:`_check_covariances` refuses.
    """
    sd = np.sqrt(powers)
    inputs_cov = sd[:, np.newaxis] * correlations * sd
    np.fill_diagonal(inputs_cov, powers)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = inputs_cov @ gains.T
        out = gains @ cross + np.diag(noises)
    return np.block([[inputs_cov, cross], [cross.T, out]])


def build_joint_covariance_general(
    p: GeneralGaussianParams, rho: CorrelationTriple
) -> JointCovariance:
    """Joint covariance of (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e), shared band.

    Output equations: the legitimate receiver hears everything, each
    eavesdropper hears the legitimate signal and the other eavesdropper.
    """
    gains, powers, noises = _general_channel(_param_rows(p))
    cov = _assemble(gains[0], powers[0], noises[0], _correlations(powers, *rho.as_tuple())[0])
    return JointCovariance(GENERAL_LABELS, cov)


def build_joint_covariance_orthogonal(p: OrthogonalGaussianParams) -> JointCovariance:
    """Joint covariance of the orthogonal model's eight variables.

    Variable order: X_l, X_1e, X_2e, Y_l, Y_1e_m, Y_1e_c, Y_2e_m, Y_2e_c.
    The transmit signals are independent codebooks, which is the input law
    the orthogonal closed form assumes.
    """
    gains, powers, noises = _orthogonal_channel(_param_rows(p))
    cov = _assemble(gains[0], powers[0], noises[0], _correlations(powers, 0.0, 0.0, 0.0)[0])
    return JointCovariance(ORTHOGONAL_LABELS, cov)


def _resolve(cov: JointCovariance, sel: Iterable[str | int]) -> tuple[int, ...]:
    out: list[int] = []
    for s in sel:
        i = cov.index(s) if isinstance(s, str) else int(s)
        if not 0 <= i < len(cov.labels):
            raise DomainError(f"variable index {i} out of range")
        if i in out:
            raise DomainError(f"variable {cov.labels[i]!r} listed twice")
        out.append(i)
    return tuple(out)


def _log2_dets(stack: np.ndarray) -> np.ndarray:
    """log2 det of each matrix of a (..., n, n) stack; DomainError where one
    is singular or not positive definite to working precision."""
    sign, logdet = np.linalg.slogdet(stack)
    if (sign <= 0.0).any():
        raise DomainError("a log-determinant block is singular: its information "
                          "is not finite")
    return logdet / math.log(2.0)


def _unknown_part(factor: np.ndarray, given: tuple[int, ...]) -> np.ndarray:
    """F_S of a (K, 3, 3) stack of factors G: G with the row space of its
    rows S = ``given`` projected out, and those rows set to exactly 0.

    The row space is spanned by the right singular vectors of G_S whose
    singular values exceed 3 eps times the largest, numpy's matrix_rank rule
    for a block of at most three columns: at |rho_12| = 1 two rows of G are
    parallel, and the second singular value is round-off.
    """
    if not given:
        return factor
    _, s, basis = np.linalg.svd(factor[:, given, :], full_matrices=False)
    basis = basis * (s > 3.0 * np.finfo(float).eps * s[:, :1])[:, :, np.newaxis]
    out = factor - factor @ basis.transpose(0, 2, 1) @ basis
    out[:, given, :] = 0.0
    return out


def _whitened_terms(
    gains: np.ndarray,
    powers: np.ndarray,
    noises: np.ndarray,
    correlations: np.ndarray,
    terms: Iterable[tuple[tuple[int, ...], ...]],
) -> np.ndarray:
    """Raw I(X_A; Y_B | X_C) in bits of K channels as a (K, len(terms))
    array, before any sign policy: the module docstring's L(B, C) - L(B, A + C).

    ``gains`` (K or 1, m, 3), ``powers`` (K or 1, 3) and ``noises`` (K or 1,
    m) give each channel; ``correlations`` is its (K, 3, 3) R.  Each term's
    index sets number the inputs 0 to 2 and output j as 3 + j, as
    :func:`~wiretap_rates.core.rate_terms` does.  Entries past the float
    range raise DomainError before any log-determinant.
    """
    w, v = np.linalg.eigh(correlations)
    # G = V sqrt(W); a valid R can have eigenvalues a round-off below 0.
    factor = v * np.sqrt(np.maximum(w, 0.0))[:, np.newaxis, :]
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = gains * np.sqrt(powers)[:, np.newaxis, :] / np.sqrt(noises)[:, :, np.newaxis]
    unknown: dict[tuple[int, ...], np.ndarray] = {}

    def heard(outputs: tuple[int, ...], given: tuple[int, ...]) -> np.ndarray | float:
        """L(outputs, given); knowing every input leaves nothing to hear."""
        if len(given) == 3:
            return 0.0
        if given not in unknown:
            unknown[given] = _unknown_part(factor, given)
        with np.errstate(over="ignore", invalid="ignore"):
            m = scaled[:, [j - 3 for j in outputs], :] @ unknown[given]
            gram = m @ m.transpose(0, 2, 1) + np.eye(len(outputs))
        if not np.isfinite(gram).all():
            raise DomainError("a whitened output covariance has non-finite entries: "
                              "the channel is past the float range")
        return 0.5 * _log2_dets(gram)

    # No term conditions on every input, so each heard(b, c) is an array.
    return np.stack([heard(b, tuple(sorted(c))) - heard(b, tuple(sorted(a + c)))
                     for a, b, c in terms], axis=1)


def _nonnegative(values: float | np.ndarray) -> np.ndarray:
    """Truncate round-off below 0 to 0, elementwise, NaN and -0.0 to 0.0;
    raise below -NEG_TOL."""
    values = np.asarray(values, dtype=float)
    bad = values < -NEG_TOL
    if bad.any():
        raise DomainError(f"mutual information evaluated to {float(values[bad][0])!r}; "
                          "covariance is inconsistent")
    return np.where(values > 0.0, values, 0.0)


def mi_gaussian(
    cov: JointCovariance,
    A: Sequence[str | int],
    B: Sequence[str | int],
    C: Sequence[str | int] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    Parameters
    ----------
    cov : JointCovariance
        Joint covariance of all variables in play.
    A, B, C : sequences of labels or indices
        Pairwise disjoint variable sets; C may be empty.

    Returns
    -------
    float
        1/2 * log2( det S_AC * det S_BC / (det S_C * det S_ABC) ), truncated
        to 0 when round-off drives it slightly negative.  A value below
        -NEG_TOL raises, since the identity cannot produce it.
    """
    ia, ib, ic = _resolve(cov, A), _resolve(cov, B), _resolve(cov, C)
    if set(ia) & set(ib) or set(ia) & set(ic) or set(ib) & set(ic):
        raise DomainError("mutual-information variable sets must be disjoint")

    def log2_det(idx: tuple[int, ...]) -> float:
        return float(_log2_dets(cov.matrix[np.ix_(idx, idx)])) if idx else 0.0

    value = 0.5 * (log2_det(ia + ic) + log2_det(ib + ic) - log2_det(ic) - log2_det(ia + ib + ic))
    return float(_nonnegative(value))


def _rate_general_oracles(
    params: np.ndarray,
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> np.ndarray:
    """:func:`rate_general_oracle` at K triples, as one stack: a (K, 4)
    array of the four terms.

    ``params`` holds one row of :class:`GeneralGaussianParams` fields, in
    field order, per triple, or one row for all of them.
    """
    gains, powers, noises = _general_channel(params)
    return _nonnegative(_whitened_terms(
        gains, powers, noises, _correlations(powers, rho_1, rho_2, rho_12), _GENERAL_TERMS))


def _rate_orthogonal_oracles(params: np.ndarray) -> np.ndarray:
    """:func:`rate_orthogonal_oracle` of K rows of
    :class:`OrthogonalGaussianParams` fields, as one stack: a (K, 4) array.

    The transmit signals are independent, the input law the orthogonal
    closed form assumes.
    """
    gains, powers, noises = _orthogonal_channel(params)
    return _nonnegative(_whitened_terms(
        gains, powers, noises, _correlations(powers, 0.0, 0.0, 0.0), _ORTHOGONAL_TERMS))


def rate_general_oracle(
    p: GeneralGaussianParams, rho: CorrelationTriple
) -> RateBreakdown:
    """Shared-band secrecy rate evaluated purely from the channel's linear
    algebra, term by term as :class:`~wiretap_rates.core.RateBreakdown`
    defines them, through the whitened log-determinants of the module
    docstring.

    Total on degenerate parameters (zero powers, |rho| = 1), close to the
    edge of the valid correlation set and at any signal-to-noise ratio up to
    the float range.  Past it (h_l from about 1e155 with the other fields
    O(1)) it raises DomainError.
    """
    return RateBreakdown(*_rate_general_oracles(_param_rows(p), *rho.as_tuple())[0].tolist())


def rate_orthogonal_oracle(p: OrthogonalGaussianParams) -> RateBreakdown:
    """Orthogonal-model secrecy rate on the oracle's whitened route, with
    independent transmit signals.

    Single-eavesdropper leakage pairs each eavesdropper's listening output
    with its cross-band output.  Raises DomainError where
    :func:`rate_general_oracle` does, past the float range.
    """
    return RateBreakdown(*_rate_orthogonal_oracles(_param_rows(p))[0].tolist())


def _general_main_term(p: GeneralGaussianParams, r1, r2, r12) -> np.ndarray:
    """The main term of :func:`general_rate_terms_grid`; without jamming it
    does not depend on the correlations and is one value, of shape ()."""
    sd_l, sd_1, sd_2 = math.sqrt(p.P_l), math.sqrt(p.P_1e), math.sqrt(p.P_2e)
    j1, j2 = p.h_1e_l * sd_1, p.h_2e_l * sd_2
    if j1 == 0.0 and j2 == 0.0:
        r1 = r2 = r12 = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # cov(Y_l, X_l) / sd_l and var(Y_l | X_l).
        explained = p.h_l * sd_l + j1 * r1 + j2 * r2 if p.P_l > 0.0 else 0.0
        main = np.asarray(r12 - r1 * r2)
        main *= 2.0 * j1 * j2
        main += j1 * j1 * (1.0 - r1 * r1) + j2 * j2 * (1.0 - r2 * r2)
        np.maximum(main, 0.0, out=main)
        main += p.N_l
        np.divide(explained * explained, main, out=main)
        main += 1.0
        np.log2(main, out=main)
        main *= 0.5
    return main


def general_rate_terms_grid(
    p: GeneralGaussianParams,
    rho_1: np.ndarray,
    rho_2: np.ndarray,
    rho_12: np.ndarray,
    det: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized shared-band rate terms over arrays of correlation triples.

    Takes broadcastable arrays of correlation values and returns arrays
    (main, leak_joint, leak_single_1, leak_single_2) of their broadcast
    shape, the terms of :func:`rate_general_oracle`.  Each term observes
    channel outputs, each output carries independent noise, and so each term
    is half the log2 of an output variance over its variance given the
    conditioned inputs:

    main      var(Y_l | X_l) is N_l plus the jamming X_l does not explain,
              g^T S_{E|X_l} g with g = (h_1e_l, h_2e_l) and S_{E|X_l} the
              covariance of (X_1e, X_2e) given X_l; 0 when P_l = 0.  With
              no jamming, h_1e_l^2 P_1e = h_2e_l^2 P_2e = 0, it is N_l and
              the term reads no correlation.
    single_j  given all three inputs only the noise N_je is left.
    joint     given (X_1e, X_2e), both eavesdropper outputs see X_l through
              v = var(X_l | X_1e, X_2e) in independent noises:
              1/2 * log2(1 + v * (h_l_1e^2 / N_1e + h_l_2e^2 / N_2e)).

    Each term has the shape its own correlations broadcast to, so on the
    search's views (L,1), (L,1), (1,n) of L lines of rho_12 only the main and
    joint terms, built in place, cost L*n, and without jamming the main term
    costs one value.  No determinant of an assembled covariance is taken, so
    the terms keep full precision up to the edge of the valid set.
    Values at triples outside it are unspecified; the search masks them.

    ``det``, when given, is ``correlation_determinant(rho_1, rho_2, rho_12)``
    as an array of the triples' broadcast shape, which the search has
    already computed for its valid set.  When both eavesdropper powers are
    positive the joint term is built in it, so it is overwritten; otherwise
    it is not read.
    """
    r1, r2, r12 = (np.asarray(r, dtype=float) for r in (rho_1, rho_2, rho_12))
    main = _general_main_term(p, r1, r2, r12)
    single_1, single_2 = _general_single_terms(p, r1, r2)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # joint: var(X_l | X_1e, X_2e) / P_l.  A zero-power input carries no
        # information, so its correlations are zeroed, and with |rho_12| = 1
        # X_2e is a function of X_1e.  Conditioning on both inputs leaves at
        # most what either one leaves, 1 - max(rho_1^2, rho_2^2); near
        # |rho_12| = 1 the determinant ratio is a cancelled difference over a
        # tiny divisor, so it is held to that bound.
        both = p.P_1e > 0.0 and p.P_2e > 0.0
        q1, q2 = _heard_correlations(p, r1, r2)
        q12 = r12 if both else 0.0
        if det is None or not both:
            det = correlation_determinant(q1, q2, q12)
        joint = np.asarray(det)
        joint /= (1.0 - q12) * (1.0 + q12)
        np.copyto(joint, 1.0 - q1 * q1, where=np.abs(q12) >= 1.0)
        np.minimum(joint, 1.0 - np.maximum(q1 * q1, q2 * q2), out=joint)
    return main, _joint_bits(p, joint), single_1, single_2


def _heard_correlations(p: GeneralGaussianParams, r1, r2):
    """rho_1 and rho_2 as the joint term reads them: a zero-power input
    carries no information, so its correlation with X_l is 0."""
    return (r1 if p.P_1e > 0.0 else 0.0), (r2 if p.P_2e > 0.0 else 0.0)


def _general_single_terms(p: GeneralGaussianParams, r1, r2):
    """The single leakages of :func:`general_rate_terms_grid`."""
    # Standard deviations of the inputs, folded into the gains below.
    sd_l, sd_1, sd_2 = math.sqrt(p.P_l), math.sqrt(p.P_1e), math.sqrt(p.P_2e)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # single_j: signal power at Y_je, split into the part along X_l and
        # the rest of the other eavesdropper's input.
        b1, c1 = p.h_l_1e * sd_l, p.h_2e_1e * sd_2  # Y_1e = h_l_1e X_l + h_2e_1e X_2e
        b2, c2 = p.h_l_2e * sd_l, p.h_1e_2e * sd_1  # Y_2e = h_l_2e X_l + h_1e_2e X_1e
        signal_1 = (b1 + c1 * r2) ** 2 + c1 * c1 * (1.0 - r2 * r2)
        signal_2 = (b2 + c2 * r1) ** 2 + c2 * c2 * (1.0 - r1 * r1)
        single_1 = 0.5 * np.log2(1.0 + signal_1 / p.N_1e)
        single_2 = 0.5 * np.log2(1.0 + signal_2 / p.N_2e)
    return single_1, single_2


def _joint_bits(p: GeneralGaussianParams, residual: np.ndarray) -> np.ndarray:
    """The joint term from var(X_l | X_1e, X_2e) / P_l, in place; every step is
    monotone, so a larger residual never gives a smaller term."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.maximum(residual, 0.0, out=residual)
        residual *= p.P_l
        residual *= (gain_squared("h_l_1e", p.h_l_1e) / p.N_1e
                     + gain_squared("h_l_2e", p.h_l_2e) / p.N_2e)
        residual += 1.0
        np.log2(residual, out=residual)
        residual *= 0.5
    return residual


def general_line_bound(
    p: GeneralGaussianParams, rho_1: np.ndarray, rho_2: np.ndarray
) -> np.ndarray:
    """A lower bound on the secure rate of :func:`general_rate_terms_grid`
    over each line of valid rho_12 at broadcastable (rho_1, rho_2), in O(1)
    per line: its main term bounded below, less its effective leakage
    bounded above.

    Valid rho_12 lie within rho_1 rho_2 +- sqrt((1 - rho_1^2)(1 - rho_2^2) +
    PSD_SLACK), the triples whose determinant is at least -PSD_SLACK.  The
    single leakages do not depend on rho_12.  The joint term is at most its
    own clamp, 1/2 log2(1 + P_l (h_l_1e^2/N_1e + h_l_2e^2/N_2e)(1 -
    max(rho_1^2, rho_2^2))), a zero-power input's rho taken as 0.  The main
    term's conditional variance is linear in rho_12 with slope
    2 h_1e_l h_2e_l sqrt(P_1e P_2e), so the main term is least at the end
    of that interval, clipped to [-1, 1], on the side of the slope's sign.
    Each bound is computed with the grid's own steps, which are monotone in
    the value they bound.
    """
    r1, r2 = (np.asarray(r, dtype=float) for r in (rho_1, rho_2))
    # The slope's sign, from the factor the main term scales rho_12 by.
    j1, j2 = p.h_1e_l * math.sqrt(p.P_1e), p.h_2e_l * math.sqrt(p.P_2e)
    # With a slope of 0 the main term does not depend on rho_12.
    end = 0.0
    if j1 != 0.0 and j2 != 0.0:
        # In place: the bounds cover every line of the grid at once.
        end = (1.0 - r1 * r1) * (1.0 - r2 * r2)
        end += PSD_SLACK
        np.sqrt(end, out=end)
        end *= np.sign(2.0 * j1 * j2)
        end += r1 * r2
        np.clip(end, -1.0, 1.0, out=end)
    main = _general_main_term(p, r1, r2, end)
    del end
    q1, q2 = _heard_correlations(p, r1, r2)
    cap = np.array(np.maximum(q1 * q1, q2 * q2), dtype=float)
    np.subtract(1.0, cap, out=cap)
    return secure_rates(
        main, effective_leakages(_joint_bits(p, cap), *_general_single_terms(p, r1, r2)))
