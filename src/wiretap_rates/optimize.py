"""Derivative-free minimization of secrecy rates over correlation triples.

The adversarial coordination of the two eavesdropper transmissions is a
choice of (rho_1, rho_2, rho_12) inside the elliptope (the set of valid 3x3
correlation matrices).  The searcher is deliberately simple and fully
deterministic: an exhaustive coarse grid over the valid set followed by
coordinate descent with shrinking steps around the incumbent.  Ties are
broken toward the lexicographically smallest triple in grid order, and
repeated runs produce identical results regardless of BLAS threading since
all reductions are order-fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    CorrelationTriple,
    DomainError,
    PSD_SLACK,
    RateBreakdown,
    combine_breakdown,
    correlation_determinant,
)
from .gaussian import (
    GeneralGaussianParams,
    rate_general_closed,
    single_eavesdropper_leakage,
)
from .oracle import general_rate_terms_grid, rate_general_oracle

__all__ = [
    "SearchConfig",
    "OptimizationResult",
    "is_valid_correlation",
    "correlation_grid_axis",
    "minimize_rate",
    "optimize_general",
]

_MAX_SWEEPS_PER_PASS = 25
_CHUNK_TARGET = 250_000


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the grid-plus-descent search.

    coarse_resolution   spacing of the full grid over [-1, 1]^3 (snapped to
                        an even subdivision so the origin is always a grid
                        point); must lie in (0, 0.5].
    refine_iterations   number of coordinate-descent passes after the grid.
    refine_shrink       per-pass step shrink factor, in (0, 1).
    tolerance           a descent pass that improves the rate by less than
                        this stops the refinement early.
    """

    coarse_resolution: float = 0.05
    refine_iterations: int = 3
    refine_shrink: float = 0.2
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.coarse_resolution <= 0.5):
            raise DomainError(
                f"coarse_resolution must lie in (0, 0.5], got {self.coarse_resolution!r}"
            )
        if self.refine_iterations < 0:
            raise DomainError("refine_iterations must be >= 0")
        if not (0.0 < self.refine_shrink < 1.0):
            raise DomainError("refine_shrink must lie in (0, 1)")
        if self.tolerance < 0.0:
            raise DomainError("tolerance must be >= 0")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a correlation search.

    rho_star      minimizing triple.
    rate          full breakdown of the objective at rho_star.
    evaluations   number of objective evaluations performed.
    on_boundary   True when the correlation-matrix determinant at rho_star
                  is at most coarse_resolution^2, i.e. the optimum sits on
                  (or numerically at) the edge of the valid set.
    """

    rho_star: CorrelationTriple
    rate: RateBreakdown
    evaluations: int
    on_boundary: bool


def is_valid_correlation(rho_1: float, rho_2: float, rho_12: float) -> bool:
    """Whether the triple forms a positive-semidefinite correlation matrix.

    Entries must lie in [-1, 1] and the determinant must be >= -PSD_SLACK.
    """
    for v in (rho_1, rho_2, rho_12):
        if not math.isfinite(v) or abs(v) > 1.0:
            return False
    return correlation_determinant(rho_1, rho_2, rho_12) >= -PSD_SLACK


def correlation_grid_axis(resolution: float) -> np.ndarray:
    """Grid values covering [-1, 1] at the snapped resolution.

    The requested resolution is snapped to 2/m with m = 2*round(1/resolution)
    so that -1, 0 and 1 are always exact grid points.
    """
    if not (0.0 < resolution <= 1.0):
        raise DomainError(f"grid resolution must lie in (0, 1], got {resolution!r}")
    m = max(2, 2 * round(1.0 / resolution))
    i = np.arange(m + 1, dtype=float)
    return (2.0 * i - m) / m


GridObjective = Callable[
    [np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


def _terms_from_scalar(
    objective: Callable[[CorrelationTriple], RateBreakdown],
) -> GridObjective:
    def run(r1: np.ndarray, r2: np.ndarray, r12: np.ndarray):
        main = np.empty(r1.shape)
        joint = np.empty(r1.shape)
        s1 = np.empty(r1.shape)
        s2 = np.empty(r1.shape)
        for k in range(r1.size):
            b = objective(CorrelationTriple(float(r1[k]), float(r2[k]), float(r12[k])))
            main[k] = b.main_rate
            joint[k] = b.leak_joint
            s1[k] = b.leak_single_1
            s2[k] = b.leak_single_2
        return main, joint, s1, s2

    return run


def _secure(main, joint, s1, s2):
    return np.maximum(main - np.minimum(joint, np.maximum(s1, s2)), 0.0)


def minimize_rate(
    objective: Callable[[CorrelationTriple], RateBreakdown],
    cfg: SearchConfig,
    grid_objective: GridObjective | None = None,
) -> OptimizationResult:
    """Minimize a secrecy-rate objective over valid correlation triples.

    The coarse stage walks the full grid at ``cfg.coarse_resolution`` in
    lexicographic (rho_1, rho_2, rho_12) order, skipping triples outside the
    valid set; the first strictly smallest rate wins, so ties resolve to the
    lexicographically smallest triple.  Coordinate descent then shrinks the
    step by ``cfg.refine_shrink`` each pass and sweeps the three coordinates,
    accepting only strictly improving, valid moves.  The reported rate can
    therefore never exceed any coarse grid point's rate.

    ``grid_objective``, when given, must evaluate the same objective over
    equally shaped coordinate arrays and return the four term arrays
    (main, leak_joint, leak_single_1, leak_single_2); it is used for every
    evaluation instead of the scalar callable.  Objective errors propagate.
    """
    axis = correlation_grid_axis(cfg.coarse_resolution)
    n = axis.size
    terms = grid_objective if grid_objective is not None else _terms_from_scalar(objective)

    best_val = math.inf
    best_triple: tuple[float, float, float] | None = None
    best_terms: tuple[float, float, float, float] | None = None
    evaluations = 0

    # Chunk over leading rho_1 values to bound memory at fine resolutions.
    rows_per_chunk = max(1, _CHUNK_TARGET // (n * n))
    g2, g12 = np.meshgrid(axis, axis, indexing="ij")
    g2 = g2.ravel()
    g12 = g12.ravel()
    for start in range(0, n, rows_per_chunk):
        r1_vals = axis[start : start + rows_per_chunk]
        r1 = np.repeat(r1_vals, n * n)
        r2 = np.tile(g2, r1_vals.size)
        r12 = np.tile(g12, r1_vals.size)
        mask = correlation_determinant(r1, r2, r12) >= -PSD_SLACK
        if not mask.any():
            continue
        vr1, vr2, vr12 = r1[mask], r2[mask], r12[mask]
        main, joint, s1, s2 = terms(vr1, vr2, vr12)
        sec = _secure(main, joint, s1, s2)
        evaluations += int(vr1.size)
        # A nan would win argmin and then lose every comparison; exclude it.
        sec = np.where(np.isfinite(sec), sec, np.inf)
        k = int(np.argmin(sec))
        if sec[k] < best_val:
            best_val = float(sec[k])
            best_triple = (float(vr1[k]), float(vr2[k]), float(vr12[k]))
            best_terms = (float(main[k]), float(joint[k]), float(s1[k]), float(s2[k]))

    assert best_triple is not None  # origin is always valid, grid is never empty

    step = cfg.coarse_resolution
    for _ in range(cfg.refine_iterations):
        step *= cfg.refine_shrink
        for _sweep in range(_MAX_SWEEPS_PER_PASS):
            sweep_start = best_val
            for ax in range(3):
                cands: list[tuple[float, float, float]] = []
                for delta in (-step, step):
                    c = list(best_triple)
                    c[ax] = min(1.0, max(-1.0, c[ax] + delta))
                    if is_valid_correlation(*c):
                        cands.append(tuple(c))
                if not cands:
                    continue
                cr1 = np.array([c[0] for c in cands])
                cr2 = np.array([c[1] for c in cands])
                cr12 = np.array([c[2] for c in cands])
                main, joint, s1, s2 = terms(cr1, cr2, cr12)
                sec = _secure(main, joint, s1, s2)
                evaluations += len(cands)
                sec = np.where(np.isfinite(sec), sec, np.inf)
                k = int(np.argmin(sec))
                if sec[k] < best_val:
                    best_val = float(sec[k])
                    best_triple = cands[k]
                    best_terms = (float(main[k]), float(joint[k]), float(s1[k]), float(s2[k]))
            if sweep_start - best_val < cfg.tolerance:
                break

    assert best_terms is not None
    rho_star = CorrelationTriple(*best_triple)
    rate = combine_breakdown(*best_terms)
    boundary = rho_star.determinant <= cfg.coarse_resolution ** 2
    return OptimizationResult(
        rho_star=rho_star,
        rate=rate,
        evaluations=evaluations,
        on_boundary=boundary,
    )


def _closed_terms_grid(p: GeneralGaussianParams, rho2_both: bool) -> GridObjective:
    """Vectorized verbatim closed form; raises where the expression is undefined."""
    if p.P_1e <= 0.0 or p.P_2e <= 0.0:
        raise DomainError(
            "closed-form objective requires strictly positive eavesdropper powers"
        )

    def run(r1: np.ndarray, r2: np.ndarray, r12: np.ndarray):
        g1, g2 = p.h_1e_l, p.h_2e_l
        sp_l1 = math.sqrt(p.P_l * p.P_1e)
        sp_l2 = math.sqrt(p.P_l * p.P_2e)
        sp_12 = math.sqrt(p.P_1e * p.P_2e)

        edge = np.abs(r12) >= 1.0
        num = (
            p.h_l ** 2 * p.P_l
            + r1 ** 2 * g1 ** 2 * p.P_1e
            + r2 ** 2 * g2 ** 2 * p.P_2e
            + 2.0 * p.h_l * g1 * r1 * sp_l1
            + 2.0 * p.h_l * g2 * r2 * sp_l2
        )
        den = (
            g1 ** 2 * p.P_1e * (1.0 - r1 ** 2)
            + g2 ** 2 * p.P_2e * (1.0 - r2 ** 2)
            + 2.0 * g1 * g2 * r12 * sp_12
            + p.N_l
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = 1.0 - (
                r1 ** 2 * p.P_1e ** 2
                + r2 ** 2 * p.P_2e ** 2
                + 2.0 * r1 * r2 * r12 * p.P_1e * p.P_2e
            ) / (p.P_1e * p.P_2e * (1.0 - r12 ** 2))
        joint_arg = p.P_l * residual * (p.h_l_1e ** 2 / p.N_1e + p.h_l_2e ** 2 / p.N_2e)
        bad = edge | (den <= 0.0) | (num < 0.0) | (joint_arg < 0.0) | ~np.isfinite(joint_arg)
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(
                "closed-form rate is undefined at rho="
                f"({float(r1[k])}, {float(r2[k])}, {float(r12[k])}); "
                "use the covariance objective for searches over this set"
            )
        main = 0.5 * np.log2(1.0 + num / den)
        joint = 0.5 * np.log2(1.0 + joint_arg)

        cross1 = r2
        cross2 = r2 if rho2_both else r1
        n1 = (
            p.h_l_1e ** 2 * p.P_l
            + p.h_2e_1e ** 2 * p.P_2e
            + 2.0 * p.h_l_1e * p.h_2e_1e * cross1 * sp_l2
        )
        n2 = (
            p.h_l_2e ** 2 * p.P_l
            + p.h_1e_2e ** 2 * p.P_1e
            + 2.0 * p.h_l_2e * p.h_1e_2e * cross2 * sp_l1
        )
        s1 = 0.5 * np.log2(1.0 + np.maximum(n1, 0.0) / p.N_1e)
        s2 = 0.5 * np.log2(1.0 + np.maximum(n2, 0.0) / p.N_2e)
        return main, joint, s1, s2

    return run


def optimize_general(
    p: GeneralGaussianParams,
    cfg: SearchConfig,
    use_oracle: bool = True,
) -> OptimizationResult:
    """Worst-case coordination of the eavesdroppers in the shared-band model.

    Runs :func:`minimize_rate` on the covariance-based objective by default.
    ``use_oracle=False`` switches to the verbatim closed form, which is not
    defined on all of the valid set for most parameters; searches over it
    raise a DomainError at the first undefined grid point.
    """
    if use_oracle:
        return minimize_rate(
            lambda rho: rate_general_oracle(p, rho),
            cfg,
            grid_objective=lambda r1, r2, r12: general_rate_terms_grid(p, r1, r2, r12),
        )
    return minimize_rate(
        lambda rho: rate_general_closed(p, rho),
        cfg,
        grid_objective=_closed_terms_grid(p, rho2_both=False),
    )
