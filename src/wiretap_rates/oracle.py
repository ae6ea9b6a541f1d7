"""Covariance-based evaluation of the Gaussian secrecy-rate terms.

This module never touches the printed closed forms.  It assembles the exact
joint covariance of the transmit signals and channel outputs implied by the
linear channel equations, then evaluates every information term through
log-determinants of principal submatrices:

    I(A; B | C) = 1/2 * log2( det S_AC * det S_BC / (det S_C * det S_ABC) )

with det of the empty set equal to 1.  Agreement with the closed forms is
checked term by term in the tests and by the audit tooling, which is the
point: the two routes share no algebra.

Every determinant is taken by one batched helper on a stack of covariance
matrices: a scalar evaluation is a stack of one, and the near-boundary points
of the vectorized grid route go through it as one stack.  It adds a relative
regularization floor ``REG_FLOOR`` times the largest diagonal entry of each
full covariance to the diagonal, which makes degenerate inputs (zero powers,
fully correlated inputs) evaluate to their natural limits instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    PSD_SLACK,
    CorrelationTriple,
    DomainError,
    RateBreakdown,
    combine_breakdown,
    correlation_determinant,
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
    "GENERAL_LABELS",
    "ORTHOGONAL_LABELS",
]

#: Relative diagonal regularization applied before determinants.
REG_FLOOR = 1e-12

# Correlation-matrix determinant below which the vectorized factored route
# hands a point over to the slogdet fallback; see general_rate_terms_grid.
_FACTORED_MIN_RHO_DET = 1e-6

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


# Index sets (A, B, C) of one conditional mutual information I(A; B | C).
_Term = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _term_indices(
    labels: tuple[str, ...], terms: Iterable[tuple[list[str], list[str], list[str]]]
) -> tuple[_Term, ...]:
    return tuple(
        tuple(tuple(labels.index(v) for v in group) for group in term)
        for term in terms
    )


# (A, B, C) of I(A; B | C) for the main rate, the joint leakage and the two
# single-eavesdropper leakages, in RateBreakdown order.
_GENERAL_TERMS = _term_indices(
    GENERAL_LABELS,
    (
        (["X_l"], ["Y_l"], []),
        (["X_l"], ["Y_1e", "Y_2e"], ["X_1e", "X_2e"]),
        (["X_l", "X_1e", "X_2e"], ["Y_1e"], []),
        (["X_l", "X_1e", "X_2e"], ["Y_2e"], []),
    ),
)
_ORTHOGONAL_TERMS = _term_indices(
    ORTHOGONAL_LABELS,
    (
        (["X_l"], ["Y_l"], []),
        (["X_l"], ["Y_1e_m", "Y_1e_c", "Y_2e_m", "Y_2e_c"], ["X_1e", "X_2e"]),
        (["X_l", "X_1e", "X_2e"], ["Y_1e_m", "Y_1e_c"], []),
        (["X_l", "X_1e", "X_2e"], ["Y_2e_m", "Y_2e_c"], []),
    ),
)


def _check_covariances(stack: np.ndarray) -> None:
    """Raise unless every matrix of a (K, n, n) stack is a covariance.

    Each must be symmetric to 1e-12 and have no eigenvalue below -1e-10,
    both relative to its largest diagonal magnitude (at least 1).
    """
    scale = np.maximum(np.abs(stack.diagonal(0, 1, 2)).max(axis=1), 1.0)
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    if (asym > 1e-12 * scale).any():
        raise DomainError("covariance matrix is not symmetric")
    if (np.linalg.eigvalsh(stack).min(axis=1) < -1e-10 * scale).any():
        raise DomainError("covariance matrix is not positive semidefinite")


@dataclass(frozen=True)
class JointCovariance:
    """A labelled joint covariance matrix of transmit signals and outputs.

    The matrix must be symmetric and positive semidefinite up to an
    eigenvalue floor of 1e-10 relative to its largest diagonal entry.
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


def _input_covariance(
    P_l: float,
    P_1e: float,
    P_2e: float,
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> np.ndarray:
    """(K, 3, 3) covariances of (X_l, X_1e, X_2e) at K correlation triples.

    The correlations are equally shaped arrays of K values, or floats for K=1.
    """
    a1 = rho_1 * math.sqrt(P_l * P_1e)
    a2 = rho_2 * math.sqrt(P_l * P_2e)
    a12 = rho_12 * math.sqrt(P_1e * P_2e)
    s = np.empty((np.size(a1), 3, 3))
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
    # covariance of the stack is the usual linear-map block matrix.
    cross = inputs_cov @ gain_rows.T
    out = gain_rows @ cross + np.diag(noise_diag)
    top = np.concatenate([inputs_cov, cross], axis=2)
    bottom = np.concatenate([cross.transpose(0, 2, 1), out], axis=2)
    return np.concatenate([top, bottom], axis=1)


def _general_covariances(
    p: GeneralGaussianParams,
    rho_1: float | np.ndarray,
    rho_2: float | np.ndarray,
    rho_12: float | np.ndarray,
) -> np.ndarray:
    """(K, 6, 6) joint covariances of GENERAL_LABELS at K correlation triples.

    Output equations: the legitimate receiver hears everything, each
    eavesdropper hears the legitimate signal and the other eavesdropper.
    """
    gains = np.array(
        [
            [p.h_l, p.h_1e_l, p.h_2e_l],
            [p.h_l_1e, 0.0, p.h_2e_1e],
            [p.h_l_2e, p.h_1e_2e, 0.0],
        ]
    )
    noise = np.array([p.N_l, p.N_1e, p.N_2e])
    return _assemble(
        _input_covariance(p.P_l, p.P_1e, p.P_2e, rho_1, rho_2, rho_12), gains, noise
    )


def build_joint_covariance_general(
    p: GeneralGaussianParams, rho: CorrelationTriple
) -> JointCovariance:
    """Joint covariance of (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e), shared band.

    Output equations: the legitimate receiver hears everything, each
    eavesdropper hears the legitimate signal and the other eavesdropper.
    """
    return JointCovariance(
        GENERAL_LABELS, _general_covariances(p, *rho.as_tuple())[0]
    )


def build_joint_covariance_orthogonal(
    p: OrthogonalGaussianParams, rho: CorrelationTriple | None = None
) -> JointCovariance:
    """Joint covariance of the orthogonal model's eight variables.

    Variable order: X_l, X_1e, X_2e, Y_l, Y_1e_m, Y_1e_c, Y_2e_m, Y_2e_c.
    ``rho`` correlates the transmit signals; the default is independent
    codebooks, which is the input law the orthogonal closed form assumes.
    """
    if rho is None:
        rho = CorrelationTriple(0.0, 0.0, 0.0)
    gains = np.array(
        [
            [p.h_l, 0.0, 0.0],
            [p.h_1m, 0.0, 0.0],
            [0.0, 0.0, p.h_1c],
            [p.h_2m, 0.0, 0.0],
            [0.0, p.h_2c, 0.0],
        ]
    )
    noise = np.array([p.N_l, p.N_1e_m, p.N_1e_c, p.N_2e_m, p.N_2e_c])
    inputs = _input_covariance(p.P_l, p.P_1e, p.P_2e, *rho.as_tuple())
    return JointCovariance(ORTHOGONAL_LABELS, _assemble(inputs, gains, noise)[0])


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
    stack: np.ndarray, terms: Iterable[_Term], labels: tuple[str, ...]
) -> list[np.ndarray]:
    """Raw I(A; B | C) in bits for each (A, B, C) on a (K, n, n) stack.

    Returns one length-K array per term, before any sign policy.  Each
    matrix gets its own floor, ``REG_FLOOR`` times its largest diagonal
    entry (times 1 when that is not positive), on the diagonal of every
    submatrix; each distinct ordered index tuple is factored once for all
    terms.
    """
    scale = stack.diagonal(0, 1, 2).max(axis=1)
    eps = REG_FLOOR * np.where(scale > 0.0, scale, 1.0)[:, np.newaxis]
    logdets: dict[tuple[int, ...], np.ndarray | float] = {(): 0.0}

    def logdet(idx: tuple[int, ...]) -> np.ndarray | float:
        if idx not in logdets:
            sub = stack.take(idx, axis=1).take(idx, axis=2)
            # Every (len(idx) + 1)-th entry of a flattened submatrix is on
            # its diagonal.
            sub.reshape(-1, len(idx) ** 2)[:, :: len(idx) + 1] += eps
            sign, ld = np.linalg.slogdet(sub)
            if sign.min() <= 0.0:
                raise DomainError(
                    "singular covariance beyond the regularization floor for "
                    f"variables {[labels[i] for i in idx]}"
                )
            logdets[idx] = ld
        return logdets[idx]

    return [
        0.5 * (logdet(a + c) + logdet(b + c) - logdet(c) - logdet(a + b + c))
        / math.log(2.0)
        for a, b, c in terms
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
    (value,) = _cmi_terms(cov.matrix[np.newaxis], [(ia, ib, ic)], cov.labels)
    return _nonnegative(float(value[0]))


def _breakdown(cov: JointCovariance, terms: Iterable[_Term]) -> RateBreakdown:
    values = _cmi_terms(cov.matrix[np.newaxis], terms, cov.labels)
    return combine_breakdown(*(_nonnegative(float(v[0])) for v in values))


def rate_general_oracle(
    p: GeneralGaussianParams, rho: CorrelationTriple
) -> RateBreakdown:
    """Shared-band secrecy rate evaluated purely from the joint covariance.

    main          I(X_l; Y_l)
    joint leak    I(X_l; Y_1e, Y_2e | X_1e, X_2e)
    single leak   I(X_l, X_1e, X_2e; Y_je) for each j

    Total on degenerate parameters (zero powers, |rho_12| = 1): the
    regularization floor turns them into the correct limits.
    """
    return _breakdown(build_joint_covariance_general(p, rho), _GENERAL_TERMS)


def rate_orthogonal_oracle(p: OrthogonalGaussianParams) -> RateBreakdown:
    """Orthogonal-model secrecy rate from the eight-variable covariance.

    Single-eavesdropper leakage pairs each eavesdropper's listening output
    with its cross-band output.
    """
    return _breakdown(build_joint_covariance_orthogonal(p), _ORTHOGONAL_TERMS)


# ---------------------------------------------------------------------------
# Vectorized evaluation over correlation grids


def general_rate_terms_grid(
    p: GeneralGaussianParams,
    rho_1: np.ndarray,
    rho_2: np.ndarray,
    rho_12: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized covariance evaluation of the four shared-band rate terms.

    Takes equally shaped arrays of correlation values and returns arrays
    (main, leak_joint, leak_single_1, leak_single_2).  The arithmetic mirrors
    :func:`mi_gaussian` on :func:`build_joint_covariance_general` exactly,
    including the placement of the regularization floor; the determinants of
    the regularized submatrices are just expanded through exact Schur
    factorizations instead of LU decompositions.  The tests pin this
    equivalence pointwise.

    Points near the boundary of the valid set go through the same batched
    log-det route as :func:`rate_general_oracle`, so there the two agree
    exactly.  Entries whose correlation triple is not finite or lies outside
    the valid set do not describe a covariance; those come back as NaN.
    """
    r1 = np.asarray(rho_1, dtype=float)
    r2 = np.asarray(rho_2, dtype=float)
    r12 = np.asarray(rho_12, dtype=float)

    sp_l1 = math.sqrt(p.P_l * p.P_1e)
    sp_l2 = math.sqrt(p.P_l * p.P_2e)
    sp_12 = math.sqrt(p.P_1e * p.P_2e)
    a1 = r1 * sp_l1
    a2 = r2 * sp_l2
    a12 = r12 * sp_12

    g1, g2 = p.h_1e_l, p.h_2e_l
    var_yl = (
        p.h_l ** 2 * p.P_l
        + g1 ** 2 * p.P_1e
        + g2 ** 2 * p.P_2e
        + 2.0 * p.h_l * g1 * a1
        + 2.0 * p.h_l * g2 * a2
        + 2.0 * g1 * g2 * a12
        + p.N_l
    )
    cov_yl_xl = p.h_l * p.P_l + g1 * a1 + g2 * a2

    b1, c1 = p.h_l_1e, p.h_2e_1e  # Y_1e = b1 X_l + c1 X_2e + Z_1e
    b2, c2 = p.h_l_2e, p.h_1e_2e  # Y_2e = b2 X_l + c2 X_1e + Z_2e
    var_y1 = b1 ** 2 * p.P_l + c1 ** 2 * p.P_2e + 2.0 * b1 * c1 * a2 + p.N_1e
    var_y2 = b2 ** 2 * p.P_l + c2 ** 2 * p.P_1e + 2.0 * b2 * c2 * a1 + p.N_2e
    cov_y1_y2 = b1 * b2 * p.P_l + b1 * c2 * a1 + c1 * b2 * a2 + c1 * c2 * a12

    # Cross-covariances of each eavesdropper output with the three inputs.
    u1_xl = b1 * p.P_l + c1 * a2
    u1_x1 = b1 * a1 + c1 * a12
    u1_x2 = b1 * a2 + c1 * p.P_2e
    u2_xl = b2 * p.P_l + c2 * a1
    u2_x1 = b2 * a1 + c2 * p.P_1e
    u2_x2 = b2 * a2 + c2 * a12

    scale = np.maximum.reduce(
        [
            np.broadcast_to(np.float64(max(p.P_l, p.P_1e, p.P_2e)), var_yl.shape).copy(),
            var_yl,
            var_y1,
            var_y2,
        ]
    )
    eps = REG_FLOOR * np.where(scale > 0.0, scale, 1.0)

    d_xl = p.P_l + eps
    d_x1 = p.P_1e + eps
    d_x2 = p.P_2e + eps
    d_yl = var_yl + eps
    d_y1 = var_y1 + eps
    d_y2 = var_y2 + eps

    tiny = 1e-300

    # main = I(X_l; Y_l): dets of sizes 1, 1 and 2.
    det2 = d_xl * d_yl - cov_yl_xl ** 2
    main = 0.5 * np.log2(np.maximum(d_xl * d_yl, tiny) / np.maximum(det2, tiny))

    # Regularized input-block determinant and adjugate (symmetric 3x3).
    adj_11 = d_x1 * d_x2 - a12 ** 2
    adj_12 = a2 * a12 - a1 * d_x2
    adj_13 = a1 * a12 - a2 * d_x1
    adj_22 = d_xl * d_x2 - a2 ** 2
    adj_23 = a1 * a2 - d_xl * a12
    adj_33 = d_xl * d_x1 - a1 ** 2
    det_s3 = d_xl * adj_11 + a1 * adj_12 + a2 * adj_13

    def quad(uxl, ux1, ux2, vxl, vx1, vx2):
        # u^T adj(S) v for the symmetric regularized input block.
        return (
            adj_11 * uxl * vxl
            + adj_22 * ux1 * vx1
            + adj_33 * ux2 * vx2
            + adj_12 * (uxl * vx1 + ux1 * vxl)
            + adj_13 * (uxl * vx2 + ux2 * vxl)
            + adj_23 * (ux1 * vx2 + ux2 * vx1)
        )

    # Single-eavesdropper leakage: I(X_all; Y_je) with det S_ABC factored as
    # det S3 * (d_yj - u^T S3^-1 u).
    q11 = quad(u1_xl, u1_x1, u1_x2, u1_xl, u1_x1, u1_x2)
    resid_1 = d_y1 - q11 / np.maximum(det_s3, tiny)
    leak_s1 = 0.5 * np.log2(np.maximum(d_y1, tiny) / np.maximum(resid_1, tiny))
    q22 = quad(u2_xl, u2_x1, u2_x2, u2_xl, u2_x1, u2_x2)
    resid_2 = d_y2 - q22 / np.maximum(det_s3, tiny)
    leak_s2 = 0.5 * np.log2(np.maximum(d_y2, tiny) / np.maximum(resid_2, tiny))

    # Joint leakage I(X_l; Y_1e, Y_2e | X_1e, X_2e):
    #   det S_AC = det_s3, det S_C = dc, and the 4x4 / 5x5 determinants are
    #   factored through the 2x2 conditional blocks of (Y_1e, Y_2e).
    dc = d_x1 * d_x2 - a12 ** 2
    dc_safe = np.maximum(dc, tiny)
    # Conditional on (X_1e, X_2e): K1 = S_B - G C^-1 G^T.
    inv_c_11 = d_x2 / dc_safe
    inv_c_22 = d_x1 / dc_safe
    inv_c_12 = -a12 / dc_safe
    k1_11 = d_y1 - (
        u1_x1 * (inv_c_11 * u1_x1 + inv_c_12 * u1_x2)
        + u1_x2 * (inv_c_12 * u1_x1 + inv_c_22 * u1_x2)
    )
    k1_22 = d_y2 - (
        u2_x1 * (inv_c_11 * u2_x1 + inv_c_12 * u2_x2)
        + u2_x2 * (inv_c_12 * u2_x1 + inv_c_22 * u2_x2)
    )
    k1_12 = cov_y1_y2 - (
        u1_x1 * (inv_c_11 * u2_x1 + inv_c_12 * u2_x2)
        + u1_x2 * (inv_c_12 * u2_x1 + inv_c_22 * u2_x2)
    )
    det_k1 = k1_11 * k1_22 - k1_12 ** 2
    # Conditional on all three inputs: K2 = S_B - U S3^-1 U^T.
    q12 = quad(u1_xl, u1_x1, u1_x2, u2_xl, u2_x1, u2_x2)
    det_s3_safe = np.maximum(det_s3, tiny)
    k2_11 = d_y1 - q11 / det_s3_safe
    k2_22 = d_y2 - q22 / det_s3_safe
    k2_12 = cov_y1_y2 - q12 / det_s3_safe
    with np.errstate(over="ignore", invalid="ignore"):
        det_k2 = k2_11 * k2_22 - k2_12 ** 2
        leak_joint = 0.5 * np.log2(
            np.maximum(det_k1, tiny) / np.maximum(det_k2, tiny)
        )

    zero = np.float64(0.0)
    main = np.maximum(main, zero)
    leak_joint = np.maximum(leak_joint, zero)
    leak_s1 = np.maximum(leak_s1, zero)
    leak_s2 = np.maximum(leak_s2, zero)

    # Near the boundary of the valid correlation set the cofactor expansions
    # above lose all significance (true determinants shrink to the
    # regularization floor while the summands stay order one), and the
    # garbage can come out finite.  Those points, plus anything non-finite,
    # go through the scalar oracle's log-det route as one stack instead.
    # With condition numbers near 1/REG_FLOOR the identity cannot be
    # certified to NEG_TOL there, so small negative values are clamped
    # rather than raised.
    bad = (correlation_determinant(r1, r2, r12) < _FACTORED_MIN_RHO_DET) | ~(
        np.isfinite(main)
        & np.isfinite(leak_joint)
        & np.isfinite(leak_s1)
        & np.isfinite(leak_s2)
    )
    idx = np.flatnonzero(bad)
    if idx.size:
        t1, t2, t12 = r1.flat[idx], r2.flat[idx], r12.flat[idx]
        valid = (
            np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t12)) <= 1.0
        ) & (correlation_determinant(t1, t2, t12) >= -PSD_SLACK)
        outputs = (main, leak_joint, leak_s1, leak_s2)
        # Not a covariance at all; the caller is expected to mask such
        # points out, so flag them instead of guessing.
        for arr in outputs:
            arr.flat[idx[~valid]] = math.nan
        if valid.any():
            stack = _general_covariances(p, t1[valid], t2[valid], t12[valid])
            _check_covariances(stack)
            values = _cmi_terms(stack, _GENERAL_TERMS, GENERAL_LABELS)
            for arr, value in zip(outputs, values):
                arr.flat[idx[valid]] = np.where(value > 0.0, value, 0.0)
    return main, leak_joint, leak_s1, leak_s2
