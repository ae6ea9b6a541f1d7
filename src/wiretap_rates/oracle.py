"""Covariance-based evaluation of the Gaussian secrecy-rate terms.

This module never touches the printed closed forms.  It assembles the exact
joint covariance of the transmit signals and channel outputs implied by the
linear channel equations, then evaluates every information term through
log-determinants of principal submatrices:

    I(A; B | C) = 1/2 * log2( det S_AC * det S_BC / (det S_C * det S_ABC) )

with det of the empty set equal to 1.  Agreement with the closed forms is
checked term by term in the tests and by the audit tooling, which is the
point: the two routes share no algebra.

Each log-determinant is the sum of the logs of the submatrix eigenvalues,
clamped below at ``EIG_FLOOR`` times the largest diagonal entry of the full
covariance.  Degenerate inputs (zero powers, fully correlated inputs) leave
zero eigenvalues in several submatrices; whenever the information is finite
the clamped ones cancel across the four log-determinants, so those inputs
evaluate to their natural limits instead of failing.

Every route evaluates stacks of covariances; a single covariance is a stack
of one, so the audit's blocks and the scalar calls share each definition.

:func:`general_rate_terms_grid` evaluates the same four shared-band terms
over arrays of correlation triples from output variances, without assembling
a covariance or masking invalid triples; tests compare it with the log-det route.
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
from .gaussian import GeneralGaussianParams, OrthogonalGaussianParams

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

#: Eigenvalue clamp of the log-determinants, relative to the largest variance.
EIG_FLOOR = 1e-12

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
        _check_covariances(m[np.newaxis])
        object.__setattr__(self, "matrix", m)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown variable label {label!r}") from None


def _check_covariances(stack: np.ndarray) -> None:
    """Raise unless every matrix of a (K, n, n) stack is a covariance.

    Each matrix must be symmetric to 1e-12 and have no eigenvalue below
    -1e-10, both relative to its largest diagonal magnitude (at least 1).
    """
    scale = np.maximum(np.abs(stack.diagonal(0, 1, 2)).max(axis=1), 1.0)
    if (np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12 * scale).any():
        raise DomainError("covariance matrix is not symmetric")
    if (np.linalg.eigvalsh(stack)[:, 0] < -1e-10 * scale).any():
        raise DomainError("covariance matrix is not positive semidefinite")


def _input_covariance(
    powers: np.ndarray,
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> np.ndarray:
    """(K, 3, 3) covariances of (X_l, X_1e, X_2e) at K correlation triples.

    ``powers`` holds (P_l, P_1e, P_2e) per row: K rows, or one row shared by
    all K triples.  The correlations are arrays of K values, or floats.
    """
    P_l, P_1e, P_2e = powers.T
    a1, a2, a12 = np.broadcast_arrays(
        rho_1 * np.sqrt(P_l * P_1e),
        rho_2 * np.sqrt(P_l * P_2e),
        rho_12 * np.sqrt(P_1e * P_2e),
    )
    s = np.empty((a1.size, 3, 3))
    s[:, 0, 0] = P_l
    s[:, 1, 1] = P_1e
    s[:, 2, 2] = P_2e
    s[:, 0, 1] = s[:, 1, 0] = a1
    s[:, 0, 2] = s[:, 2, 0] = a2
    s[:, 1, 2] = s[:, 2, 1] = a12
    return s


def _assemble(
    inputs_cov: np.ndarray, gain_rows: np.ndarray, noise_diag: np.ndarray
) -> np.ndarray:
    # Outputs are gain_rows @ inputs + independent noise, so each joint
    # covariance of the stack is the usual linear-map block matrix.  Gains
    # (K or 1, m, 3) and noise variances (K or 1, m) are per matrix.
    cross = inputs_cov @ gain_rows.transpose(0, 2, 1)
    noise = noise_diag[:, :, np.newaxis] * np.eye(noise_diag.shape[1])
    out = gain_rows @ cross + noise
    top = np.concatenate([inputs_cov, cross], axis=2)
    bottom = np.concatenate([cross.transpose(0, 2, 1), out], axis=2)
    return np.concatenate([top, bottom], axis=1)


def _general_covariances(
    ps: Sequence[GeneralGaussianParams],
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> np.ndarray:
    """(K, 6, 6) joint covariances of GENERAL_LABELS at K correlation triples.

    ``ps`` holds one parameter set per triple, or one set for all of them.
    Output equations: the legitimate receiver hears everything, each
    eavesdropper hears the legitimate signal and the other eavesdropper.
    """
    gains = np.array([
        [
            [p.h_l, p.h_1e_l, p.h_2e_l],
            [p.h_l_1e, 0.0, p.h_2e_1e],
            [p.h_l_2e, p.h_1e_2e, 0.0],
        ]
        for p in ps
    ])
    powers = np.array([(p.P_l, p.P_1e, p.P_2e) for p in ps])
    noise = np.array([(p.N_l, p.N_1e, p.N_2e) for p in ps])
    return _assemble(_input_covariance(powers, rho_1, rho_2, rho_12), gains, noise)


def _orthogonal_covariances(ps: Sequence[OrthogonalGaussianParams]) -> np.ndarray:
    """(K, 8, 8) joint covariances of ORTHOGONAL_LABELS, one per parameter set.

    The transmit signals are independent, the input law the orthogonal
    closed form assumes.
    """
    gains = np.array([
        [
            [p.h_l, 0.0, 0.0],
            [p.h_1m, 0.0, 0.0],
            [0.0, 0.0, p.h_1c],
            [p.h_2m, 0.0, 0.0],
            [0.0, p.h_2c, 0.0],
        ]
        for p in ps
    ])
    powers = np.array([(p.P_l, p.P_1e, p.P_2e) for p in ps])
    noise = np.array([(p.N_l, p.N_1e_m, p.N_1e_c, p.N_2e_m, p.N_2e_c) for p in ps])
    return _assemble(_input_covariance(powers, 0.0, 0.0, 0.0), gains, noise)


def build_joint_covariance_general(
    p: GeneralGaussianParams, rho: CorrelationTriple
) -> JointCovariance:
    """Joint covariance of (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e), shared band.

    Output equations: the legitimate receiver hears everything, each
    eavesdropper hears the legitimate signal and the other eavesdropper.
    """
    return JointCovariance(
        GENERAL_LABELS, _general_covariances([p], *rho.as_tuple())[0]
    )


def build_joint_covariance_orthogonal(p: OrthogonalGaussianParams) -> JointCovariance:
    """Joint covariance of the orthogonal model's eight variables.

    Variable order: X_l, X_1e, X_2e, Y_l, Y_1e_m, Y_1e_c, Y_2e_m, Y_2e_c.
    The transmit signals are independent codebooks, which is the input law
    the orthogonal closed form assumes.
    """
    return JointCovariance(ORTHOGONAL_LABELS, _orthogonal_covariances([p])[0])


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


def _cmi_terms(
    stack: np.ndarray, terms: Iterable[tuple[tuple[int, ...], ...]]
) -> list[np.ndarray]:
    """Raw I(A; B | C) in bits for each (A, B, C) on a (K, n, n) stack.

    Returns one length-K array per term, before any sign policy.  Each
    matrix's eigenvalues are clamped below at ``EIG_FLOOR`` times its
    largest diagonal entry (times 1 when that is not positive).  Where none
    is clamped the log-determinant comes from an LU factorization instead:
    ``eigvalsh`` is accurate only to round-off times the matrix norm, which
    costs small eigenvalues their relative precision.  Each distinct ordered
    index tuple is factored once, and tuples of one size in one batch.
    """
    scale = stack.diagonal(0, 1, 2).max(axis=1)
    floor = EIG_FLOOR * np.where(scale > 0.0, scale, 1.0)[:, np.newaxis]
    sets = [(a + c, b + c, c, a + b + c) for a, b, c in terms]
    logdets: dict[tuple[int, ...], np.ndarray | float] = {(): 0.0}
    for size in {len(idx) for s in sets for idx in s} - {0}:
        idxs = sorted({idx for s in sets for idx in s if len(idx) == size})
        sel = np.array(idxs)
        # (K, len(idxs), size, size): every submatrix of this size.
        sub = stack[:, sel[:, :, np.newaxis], sel[:, np.newaxis, :]]
        eig = np.linalg.eigvalsh(sub)
        ld = np.linalg.slogdet(sub)[1]
        low = eig[..., 0] <= floor
        if low.any():
            clamped = np.log(np.maximum(eig, floor[..., np.newaxis])).sum(axis=-1)
            ld = np.where(low, clamped, ld)
        logdets.update(zip(idxs, ld.T))
    return [
        0.5 * (logdets[ac] + logdets[bc] - logdets[c] - logdets[abc]) / math.log(2.0)
        for ac, bc, c, abc in sets
    ]


def _nonnegative(value: float) -> float:
    """Truncate round-off below 0 to 0; raise below -NEG_TOL."""
    if value < -NEG_TOL:
        raise DomainError(f"mutual information evaluated to {value!r}; "
                          "covariance is inconsistent")
    return value if value > 0.0 else 0.0


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
    (value,) = _cmi_terms(cov.matrix[np.newaxis], [(ia, ib, ic)])
    return _nonnegative(float(value[0]))


def _breakdowns(
    stack: np.ndarray, terms: Iterable[tuple[tuple[int, ...], ...]]
) -> list[RateBreakdown]:
    """One rate breakdown per checked covariance of a (K, n, n) stack."""
    _check_covariances(stack)
    values = np.array(_cmi_terms(stack, terms)).T.tolist()
    return [RateBreakdown(*map(_nonnegative, row)) for row in values]


def _rate_general_oracles(
    ps: Sequence[GeneralGaussianParams],
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> list[RateBreakdown]:
    """:func:`rate_general_oracle` at K triples, as one covariance stack.

    ``ps`` holds one parameter set per triple, or one set for all of them.
    """
    return _breakdowns(_general_covariances(ps, rho_1, rho_2, rho_12), _GENERAL_TERMS)


def _rate_orthogonal_oracles(
    ps: Sequence[OrthogonalGaussianParams],
) -> list[RateBreakdown]:
    """:func:`rate_orthogonal_oracle` of K parameter sets, as one stack."""
    return _breakdowns(_orthogonal_covariances(ps), _ORTHOGONAL_TERMS)


def rate_general_oracle(
    p: GeneralGaussianParams, rho: CorrelationTriple
) -> RateBreakdown:
    """Shared-band secrecy rate evaluated purely from the joint covariance,
    term by term as :class:`~wiretap_rates.core.RateBreakdown` defines them.

    Total on degenerate parameters (zero powers, |rho_12| = 1): the
    eigenvalue clamp turns them into the correct limits.  Not total within
    about 1e-9 of |rho| = 1 off those points: the assembled covariance is
    so ill-conditioned there that a term can be off by about 1e-7 bits, and
    one whose round-off falls below -NEG_TOL raises DomainError, as at
    rho = (0.95, 1 - 1e-9, 0.95) for some parameters.
    :func:`general_rate_terms_grid` keeps full precision there.
    """
    return _rate_general_oracles([p], *rho.as_tuple())[0]


def rate_orthogonal_oracle(p: OrthogonalGaussianParams) -> RateBreakdown:
    """Orthogonal-model secrecy rate from the eight-variable covariance.

    Single-eavesdropper leakage pairs each eavesdropper's listening output
    with its cross-band output.
    """
    return _rate_orthogonal_oracles([p])[0]


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
