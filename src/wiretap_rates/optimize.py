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
from typing import Callable

import numpy as np

from .core import (
    CorrelationTriple,
    DomainError,
    GridBudgetError,
    RateBreakdown,
    combine_breakdown,
    valid_correlation,
)
from .gaussian import GeneralGaussianParams
from .oracle import general_rate_terms_grid

__all__ = [
    "MAX_GRID_POINTS",
    "SearchConfig",
    "OptimizationResult",
    "is_valid_correlation",
    "correlation_grid_axis",
    "minimize_rate",
    "optimize_general",
]

_MAX_SWEEPS_PER_PASS = 25
# Most cells per coarse chunk: one row of the 0.01 grid.  A 0.01 search took
# 0.43 s in 1-row chunks, 0.48-0.55 s in 2-6 (2-vCPU Xeon, 2 MB L2 per core).
_CHUNK_TARGET = 50_000

#: Most points the coarse grid may have (the 0.01 grid has 201^3 = 8.1M),
#: and most evaluations the descents may take (3 passes take at most 900).
MAX_GRID_POINTS = 10_000_000


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
        if not (0.0 <= self.tolerance < math.inf):
            raise DomainError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")


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
    """Whether the triple is valid; see :func:`wiretap_rates.core.valid_correlation`."""
    return bool(valid_correlation(rho_1, rho_2, rho_12))


def correlation_grid_axis(resolution: float) -> np.ndarray:
    """Grid values covering [-1, 1] at the snapped resolution.

    The requested resolution is snapped to 2/m with m = 2*round(1/resolution)
    so that -1, 0 and 1 are always exact grid points.  The search grid is
    the axis cubed, so an axis whose cube has more than MAX_GRID_POINTS
    points raises GridBudgetError before any array is built.
    """
    if not (0.0 < resolution <= 1.0):
        raise DomainError(f"grid resolution must lie in (0, 1], got {resolution!r}")
    # Capped before rounding: 1/resolution can overflow to inf.
    m = max(2, 2 * round(min(1.0 / resolution, MAX_GRID_POINTS)))
    if (m + 1) ** 3 > MAX_GRID_POINTS:
        raise GridBudgetError(
            f"correlation grid at resolution {resolution!r} has more than "
            f"{MAX_GRID_POINTS} points"
        )
    i = np.arange(m + 1, dtype=float)
    return (2.0 * i - m) / m


# (main, leak_joint, leak_single_1, leak_single_2), each broadcastable to the
# triples (rho_1, rho_2, rho_12); values at invalid triples are ignored.
GridObjective = Callable[
    [np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


# A search point: (secure rate, (rho_1, rho_2, rho_12), the four terms).
_Point = tuple[float, tuple[float, float, float], tuple[float, float, float, float]]


def _evaluate(terms: GridObjective, r1: np.ndarray, r2: np.ndarray, r12: np.ndarray):
    """Secure rates over the broadcast triples, their validity, and ``point``.

    The one place the valid set is applied: rates are +inf at invalid triples
    and where not finite (a nan would win argmin and then lose every
    comparison).  ``point(k)`` is the search point at flat index k.
    """
    valid = valid_correlation(r1, r2, r12)
    main, joint, s1, s2 = terms(r1, r2, r12)
    sec = np.minimum(joint, np.maximum(s1, s2), out=np.empty(valid.shape))
    np.subtract(main, sec, out=sec)
    np.maximum(sec, 0.0, out=sec)
    np.copyto(sec, np.inf, where=~(valid & np.isfinite(sec)))
    arrays = [np.asarray(a) for a in (sec, r1, r2, r12, main, joint, s1, s2)]

    def point(k: int) -> _Point:
        at = np.unravel_index(k, sec.shape)
        # Each array at cell k: its trailing axes, 0 along an axis of length 1.
        v = [float(a[tuple(i % n for i, n in zip(at[sec.ndim - a.ndim :], a.shape))])
             for a in arrays]
        return v[0], tuple(v[1:4]), tuple(v[4:])

    return sec, valid, point


def _first_min(sec: np.ndarray, valid: np.ndarray) -> int:
    """Flat index of the first smallest rate; the first valid one if none is finite."""
    k = int(np.argmin(sec))
    return k if sec.flat[k] < np.inf else int(np.argmax(valid))


def _descend(terms: GridObjective, cfg: SearchConfig, best: _Point) -> tuple[_Point, int]:
    """Coordinate descent from ``best``; the final point and the evaluations."""
    evaluations = 0
    step = cfg.coarse_resolution
    for _ in range(cfg.refine_iterations):
        step *= cfg.refine_shrink
        for _sweep in range(_MAX_SWEEPS_PER_PASS):
            sweep_start = best[0]
            for ax in range(3):
                cands = np.array([best[1], best[1]])
                cands[:, ax] = np.clip(cands[:, ax] + (-step, step), -1.0, 1.0)
                sec, valid, point = _evaluate(terms, *cands.T)
                evaluations += int(np.count_nonzero(valid))
                k = int(np.argmin(sec))
                if sec[k] < best[0]:
                    best = point(k)
            if sweep_start - best[0] < cfg.tolerance:
                break
    return best, evaluations


def minimize_rate(terms: GridObjective, cfg: SearchConfig) -> OptimizationResult:
    """Minimize a secrecy-rate objective over valid correlation triples.

    The coarse stage calls ``terms`` once per chunk of leading rho_1 rows
    of the grid at ``cfg.coarse_resolution``, on the broadcast views
    (rows, 1, 1), (1, n, 1), (1, 1, n) of its axis.  Invalid triples are
    masked off and not counted as evaluations; the first strictly smallest
    rate in C order, which is lexicographic order, wins.  Coordinate descent
    then shrinks the step by ``cfg.refine_shrink`` each pass and sweeps the
    three coordinates, accepting only strictly improving, valid moves.  When
    the coarse minimum lies on an edge of the valid set (some |rho| = 1), a
    second descent starts from the best grid point off the edges, and the
    lower result wins, so the rate never exceeds any coarse grid point's.

    ``terms`` evaluates the four terms over broadcastable arrays (see
    ``GridObjective``); the secure rate combines them as in
    :func:`wiretap_rates.core.combine_breakdown`.  Objective errors propagate.

    Raises GridBudgetError, before the grid is built, when the descents
    could take more than MAX_GRID_POINTS evaluations.
    """
    # Two starts, each pass up to _MAX_SWEEPS_PER_PASS sweeps of three
    # coordinates with two candidates each.
    descent_budget = 2 * cfg.refine_iterations * _MAX_SWEEPS_PER_PASS * 6
    if descent_budget > MAX_GRID_POINTS:
        raise GridBudgetError(
            f"{cfg.refine_iterations} refine iterations may take {descent_budget} "
            f"descent evaluations, more than {MAX_GRID_POINTS}"
        )
    axis = correlation_grid_axis(cfg.coarse_resolution)
    n = axis.size

    # The first strictly smallest grid point overall, and off the edges of
    # the valid set (every |rho| < 1).  Every chunk holds a valid triple.
    best: _Point | None = None
    best_off_edge: _Point | None = None
    evaluations = 0

    rows_per_chunk = max(1, _CHUNK_TARGET // (n * n))
    r2, r12 = axis[None, :, None], axis[None, None, :]
    for start in range(0, n, rows_per_chunk):
        r1 = axis[start : start + rows_per_chunk, None, None]
        sec, valid, point = _evaluate(terms, r1, r2, r12)
        evaluations += int(np.count_nonzero(valid))
        found = point(_first_min(sec, valid))
        if best is None or found[0] < best[0]:
            best = found
        # The chunk's first minimum is also its first minimum off the edges
        # unless it lies on one.
        if max(map(abs, found[1])) == 1.0:
            on_edge = (np.abs(r1) == 1.0) | (np.abs(r2) == 1.0) | (np.abs(r12) == 1.0)
            k = _first_min(np.where(on_edge, np.inf, sec), valid)
            if on_edge.flat[k]:
                continue
            found = point(k)
        if best_off_edge is None or found[0] < best_off_edge[0]:
            best_off_edge = found

    # On an edge of the valid set (some |rho| = 1) the rate can tie exactly
    # with points off it, and coordinate descent cannot follow the edge:
    # staying on it takes two coordinates moving together.  So when the grid
    # minimum sits on an edge, the best point off the edges is refined too,
    # and the lower result wins (the edge start on a tie).
    starts = [best]
    if best_off_edge is not None and max(map(abs, best[1])) == 1.0:
        starts.append(best_off_edge)
    descents = [_descend(terms, cfg, start) for start in starts]
    evaluations += sum(used for _, used in descents)
    _, rho, rate_terms = min((end for end, _ in descents), key=lambda end: end[0])

    rho_star = CorrelationTriple(*rho)
    return OptimizationResult(
        rho_star=rho_star,
        rate=combine_breakdown(*rate_terms),
        evaluations=evaluations,
        on_boundary=rho_star.determinant <= cfg.coarse_resolution ** 2,
    )


def optimize_general(p: GeneralGaussianParams, cfg: SearchConfig) -> OptimizationResult:
    """Worst-case coordination of the eavesdroppers in the shared-band model.

    Runs :func:`minimize_rate` on :func:`general_rate_terms_grid`.
    """
    return minimize_rate(lambda r1, r2, r12: general_rate_terms_grid(p, r1, r2, r12), cfg)
