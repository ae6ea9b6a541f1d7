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
    MAX_GRID_POINTS,
    RateBreakdown,
    correlation_determinant,
    effective_leakages,
    secure_rates,
    valid_correlation,
)
from .gaussian import GeneralGaussianParams, strip_jamming
from .oracle import _general_main_term, general_rate_terms_grid

__all__ = [
    "SearchConfig",
    "OptimizationResult",
    "correlation_grid_axis",
    "minimize_rate",
    "optimize_general",
]

_MAX_SWEEPS_PER_PASS = 25
# Most cells per coarse chunk: one row of the 0.01 grid.  A 0.01 search took
# 0.43 s in 1-row chunks, 0.48-0.55 s in 2-6 (2-vCPU Xeon, 2 MB L2 per core).
_CHUNK_TARGET = 50_000


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the grid-plus-descent search.

    coarse_resolution   spacing of the full grid over [-1, 1]^3 (snapped to
                        an even subdivision so the origin is always a grid
                        point); must lie in (0, 0.5].
    refine_iterations   number of coordinate-descent passes after the grid.
    refine_shrink       per-pass step shrink factor, in (0, 1).
    tolerance           each descent pass repeats sweeps over the three
                        coordinates until a sweep improves the rate by less
                        than this; that ends the pass, not the refinement:
                        the next pass still runs at the smaller step.
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
    evaluations   number of valid triples evaluated by the coarse grid and
                  the descents; the final read of the terms at rho_star is
                  not counted.
    on_boundary   True when the correlation-matrix determinant at rho_star
                  is at most coarse_resolution^2, i.e. the optimum sits on
                  (or numerically at) the edge of the valid set.
    """

    rho_star: CorrelationTriple
    rate: RateBreakdown
    evaluations: int
    on_boundary: bool


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


# terms(rho_1, rho_2, rho_12, det): (mains, leak_joint, leak_single_1,
# leak_single_2), mains a tuple of one main term per objective, all sharing
# the leakages; each broadcastable to the triples.  det, their determinant as
# an array of their shape, may be overwritten.  Invalid triples are ignored.
GridObjective = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray],
]


# A search point: (secure rate, (rho_1, rho_2, rho_12)).
_Point = tuple[float, tuple[float, float, float]]


def _evaluate(terms: GridObjective, r1: np.ndarray, r2: np.ndarray, r12: np.ndarray,
              out: list[np.ndarray] | None = None):
    """The secure rates of each objective over the broadcast triples, their
    validity, and the valid count.

    The one place the valid set is applied: rates are +inf at invalid triples
    and where not finite (a nan would win argmin and then lose every
    comparison).  The determinant, which the objective may overwrite, the
    valid set and the effective leakage are computed once for all objectives.
    The rates go into the arrays ``out``, one per objective, if of this shape.
    """
    det = correlation_determinant(r1, r2, r12)
    valid = valid_correlation(r1, r2, r12, det)
    mains, *leakages = terms(r1, r2, r12, det)
    leakage = effective_leakages(*leakages)
    if out is None or out[0].shape != valid.shape:
        out = [np.empty(valid.shape) for _ in mains]
    for main, sec in zip(mains, out):
        secure_rates(main, leakage, out=sec)
        np.copyto(sec, np.inf, where=~(valid & np.isfinite(sec)))
    return out, valid, int(np.count_nonzero(valid))


def _grid_point(axis: np.ndarray, view: np.ndarray, k: int, first: tuple) -> _Point:
    """The rate at flat index k of a view of the grid's rates, and its triple;
    the view's cell [0, 0, 0] is the triple at axis indices ``first``."""
    at = np.unravel_index(k, view.shape)
    return float(view[at]), tuple(float(axis[f + i]) for f, i in zip(first, at))


def _descend(terms: GridObjective, i: int, cfg: SearchConfig, best: _Point):
    """Coordinate descent of objective i from ``best``; its end point and evaluations."""
    evaluations = 0
    step = cfg.coarse_resolution
    for _ in range(cfg.refine_iterations):
        step *= cfg.refine_shrink
        for _sweep in range(_MAX_SWEEPS_PER_PASS):
            sweep_start = best[0]
            for ax in range(3):
                cands = np.array([best[1], best[1]])
                cands[:, ax] = np.clip(cands[:, ax] + (-step, step), -1.0, 1.0)
                rates, _, used = _evaluate(terms, *cands.T)
                evaluations += used
                k = int(np.argmin(rates[i]))
                if rates[i][k] < best[0]:
                    best = float(rates[i][k]), tuple(cands[k].tolist())
            if sweep_start - best[0] < cfg.tolerance:
                break
    return best, evaluations


def minimize_rate(terms: GridObjective, cfg: SearchConfig) -> list[OptimizationResult]:
    """Minimize secrecy-rate objectives over valid correlation triples.

    Returns one result per main term of ``terms`` (see ``GridObjective``), in
    order, each what a search of that objective alone gives; the secure rate
    combines the terms as :func:`wiretap_rates.core.secure_rates` does.  The
    coarse stage calls ``terms`` once per chunk of leading rho_1 rows of the
    grid at ``cfg.coarse_resolution``, on the broadcast views (rows, 1, 1),
    (1, n, 1), (1, 1, n) of its axis.  Invalid triples are masked off and not
    counted as evaluations; the first strictly smallest rate in C order, which
    is lexicographic order, wins.  Coordinate descent then shrinks the step by
    ``cfg.refine_shrink`` each pass and sweeps the three coordinates,
    accepting only strictly improving, valid moves.  When the coarse minimum
    lies on an edge of the valid set (some |rho| = 1), a second descent starts
    from the best grid point off the edges, and the lower result wins, so the
    rate never exceeds any coarse grid point's.  One more call reads the four
    terms at the winning triple.  Errors of ``terms`` propagate.

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

    # By objective, the first strictly smallest grid point, and off the edges
    # of the valid set (every |rho| < 1).  Every chunk holds a valid triple.
    best: dict[int, _Point] = {}
    best_off_edge: dict[int, _Point] = {}
    evaluations = 0

    # Each chunk's rates reuse the previous chunk's arrays: new ones per chunk
    # made the heap shrink and regrow, 20,000 page faults per 0.01 point.
    rows_per_chunk = max(1, _CHUNK_TARGET // (n * n))
    r2, r12 = axis[None, :, None], axis[None, None, :]
    rates = None
    for start in range(0, n, rows_per_chunk):
        r1 = axis[start : start + rows_per_chunk, None, None]
        rates, valid, used = _evaluate(terms, r1, r2, r12, out=rates)
        evaluations += used
        # The axis holds +-1 only at its ends, so the cells off the edges are
        # the chunk's view of the axis rows 1 to n - 2 and the inner columns
        # of both other correlations.
        lo = max(start, 1)
        for i, sec in enumerate(rates):
            k = int(np.argmin(sec))
            if sec.flat[k] == np.inf:  # no finite rate: the first valid cell
                k = int(np.argmax(valid))
            found = _grid_point(axis, sec, k, (start, 0, 0))
            if i not in best or found[0] < best[i][0]:
                best[i] = found
            inner = sec[lo - start : n - 1 - start, 1:-1, 1:-1]
            if inner.size:
                found = _grid_point(axis, inner, int(np.argmin(inner)), (lo, 1, 1))
                if found[0] < best_off_edge.get(i, (np.inf,))[0]:
                    best_off_edge[i] = found

    # On an edge of the valid set (some |rho| = 1) the rate can tie exactly
    # with points off it, and coordinate descent cannot follow the edge:
    # staying on it takes two coordinates moving together.  So when the grid
    # minimum sits on an edge, the best point off the edges is refined too,
    # and the lower result wins (the edge start on a tie).
    results = []
    for i, grid_min in best.items():
        starts = [grid_min]
        if i in best_off_edge and max(map(abs, grid_min[1])) == 1.0:
            starts.append(best_off_edge[i])
        descents = [_descend(terms, i, cfg, start) for start in starts]
        _, rho = min((end for end, _ in descents), key=lambda end: end[0])
        rho_star = CorrelationTriple(*rho)
        mains, *leakages = terms(*(np.array([r]) for r in (*rho, rho_star.determinant)))
        results.append(OptimizationResult(
            rho_star=rho_star,
            rate=RateBreakdown(*(float(np.ravel(t)[0]) for t in (mains[i], *leakages))),
            evaluations=evaluations + sum(used for _, used in descents),
            on_boundary=rho_star.determinant <= cfg.coarse_resolution ** 2,
        ))
    return results


def optimize_general(p: GeneralGaussianParams,
                     cfg: SearchConfig) -> tuple[OptimizationResult, OptimizationResult]:
    """Worst-case coordination of the eavesdroppers in the shared-band model:
    the searches without jamming (R_njg) and with it (R_g), from one walk.

    Jamming enters only the main term of :func:`general_rate_terms_grid`, so
    both share its leakages; the main term of ``strip_jamming(p)`` does not
    depend on the correlations and is computed once.
    """
    main_njg = _general_main_term(strip_jamming(p), 0.0, 0.0, 0.0)

    def terms(r1, r2, r12, det):
        main, *leakages = general_rate_terms_grid(p, r1, r2, r12, det)
        return (main_njg, main), *leakages

    return tuple(minimize_rate(terms, cfg))
