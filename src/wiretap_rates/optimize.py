"""Derivative-free minimization of secrecy rates over correlation triples.

The adversarial coordination of the two eavesdropper transmissions is a
choice of (rho_1, rho_2, rho_12) inside the elliptope (the set of valid 3x3
correlation matrices).  The searcher is deliberately simple and fully
deterministic: a coarse grid over the valid set followed by coordinate
descent with shrinking steps around the incumbent.  Each search minimizes
one objective.  The grid is walked as lines of rho_12, those with the least
lower bounds on the rate first, and the walk stops once no line left can
hold a grid minimum; the result is the exhaustive grid's.  Ties are broken
toward the lexicographically smallest triple in grid order, and repeated
runs produce identical results regardless of BLAS threading since all
reductions are order-fixed.
"""

from __future__ import annotations

import functools
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
from .oracle import general_line_bound, general_rate_terms_grid

__all__ = [
    "SearchConfig",
    "OptimizationResult",
    "correlation_grid_axis",
    "minimize_rate",
    "optimize_general",
]

_MAX_SWEEPS_PER_PASS = 25
# Most cells per coarse chunk of lines: 99 lines of the 0.01 grid, 487 of the
# 0.05 grid's 1,681.  Where the rate is 0 everywhere, as on fig3a, each search
# stops after its first chunk, so the chunk is all it walks: at 40,000 cells
# (975 lines at 0.05) a fig3a sweep point took 10.2-10.6 ms against 8.4-8.9
# ms (perfbench sweep-fig3a op_p50_ms, 2 vCPUs), and a 0.01 search ran at
# the same speed from 20,000 to 50,000 cells.
_CHUNK_TARGET = 20_000
# Bits by which a line's bound must exceed an incumbent to rule the line out;
# far above the round-off of the bound and the rates.
_BOUND_MARGIN = 1e-9


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
    evaluations   number of valid triples the search evaluated: those of
                  the coarse chunks it walked, whole chunks of lines at a
                  time, and the descents' candidates.  The final read of the
                  terms at rho_star is not counted.
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


# terms(rho_1, rho_2, rho_12, det): (main, leak_joint, leak_single_1,
# leak_single_2), each broadcastable to the triples, as
# general_rate_terms_grid returns them.  det, their determinant as an array
# of their shape, may be overwritten.  Invalid triples are ignored.
GridObjective = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


# bound(rho_1, rho_2): for each line of rho_12 at the broadcast (rho_1, rho_2),
# a lower bound on the objective's secure rate at every valid rho_12 of the
# line, broadcastable to the lines.  NaN bounds no line.  Every objective
# meets the zero bound, since secure rates are >= 0.
LineBound = Callable[[np.ndarray, np.ndarray], np.ndarray | float]

# A search point: (secure rate, (rho_1, rho_2, rho_12)).
_Point = tuple[float, tuple[float, float, float]]

# A grid cell as the walk compares them: (secure rate, flat index in C order),
# so the least pair is the first strictly smallest cell.  _NO_CELL is none.
_Cell = tuple[float, int]
_NO_CELL = (math.inf, math.inf)


def _evaluate(terms: GridObjective, r1: np.ndarray, r2: np.ndarray, r12: np.ndarray,
              out: np.ndarray | None = None):
    """The objective's secure rates over the broadcast triples, their
    validity, and the valid count.

    The one place the valid set is applied: rates are +inf at invalid triples
    and where not finite (a nan would win argmin and then lose every
    comparison).  The determinant, which the objective may overwrite, is
    computed once for the valid set and the objective.  The rates go into the
    array ``out`` if it has their shape.
    """
    det = correlation_determinant(r1, r2, r12)
    valid = valid_correlation(r1, r2, r12, det)
    main, *leakages = terms(r1, r2, r12, det)
    if out is None or out.shape != valid.shape:
        out = np.empty(valid.shape)
    sec = secure_rates(main, effective_leakages(*leakages), out=out)
    np.copyto(sec, np.inf, where=~(valid & np.isfinite(sec)))
    return sec, valid, int(np.count_nonzero(valid))


def _grid_point(axis: np.ndarray, cell: _Cell) -> _Point:
    """A grid cell's rate and triple."""
    n = axis.size
    return cell[0], tuple(float(axis[i]) for i in np.unravel_index(cell[1], (n, n, n)))


def _chunk_winners(sec: np.ndarray, valid: np.ndarray, lines: np.ndarray,
                   inner: np.ndarray) -> tuple[_Cell, _Cell]:
    """The least cell of a chunk of lines (rows of ``sec``, numbered
    ``lines``), and the least off the edges; ``inner`` marks the lines off
    the edges.  With no finite rate the first valid cell is the least, and
    no cell off the edges is."""
    n = sec.shape[1]
    rows = np.arange(lines.size)
    # The first least interior cell of each line, then its two ends.
    k_in = np.argmin(sec[:, 1:-1], axis=1) + 1
    least_in = sec[rows, k_in]
    first, last = sec[:, 0], sec[:, -1]
    k = np.where(first <= np.minimum(least_in, last), 0,
                 np.where(least_in <= last, k_in, n - 1))
    whole = _least_cell(sec[rows, k], lines * n + k)
    if whole[0] == math.inf:
        k = np.argmax(valid, axis=1)
        has = valid[rows, k]
        whole = (math.inf, int((lines * n + k)[has].min())) if has.any() else _NO_CELL
    off_edge = _least_cell(np.where(inner, least_in, math.inf), lines * n + k_in)
    return whole, (off_edge if off_edge[0] < math.inf else _NO_CELL)


def _least_cell(rates: np.ndarray, flat: np.ndarray) -> _Cell:
    """The least (rate, flat index) pair of NaN-free rates."""
    least = rates.min()
    return float(least), int(flat[rates == least].min())


def _descend(terms: GridObjective, cfg: SearchConfig, best: _Point):
    """Coordinate descent from ``best``; its end point and evaluations."""
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
                k = int(np.argmin(rates))
                if rates[k] < best[0]:
                    best = float(rates[k]), tuple(cands[k].tolist())
            if sweep_start - best[0] < cfg.tolerance:
                break
    return best, evaluations


def minimize_rate(terms: GridObjective, bound: LineBound,
                  cfg: SearchConfig) -> OptimizationResult:
    """Minimize a secrecy-rate objective over valid correlation triples.

    ``terms`` gives the four rate terms (see ``GridObjective``), which the
    secure rate combines as :func:`wiretap_rates.core.secure_rates` does;
    ``bound`` gives a lower bound on the secure rate of each line of rho_12
    (see ``LineBound``).  The coarse stage walks the grid at
    ``cfg.coarse_resolution`` as its lines of rho_12, in chunks of whole
    lines, calling ``terms`` once per chunk on the broadcast views (lines,
    1), (lines, 1), (1, n) of its axis.  The lines are visited by their
    bound, ties in C order.  The least cell of the whole grid and the least
    off its edges are kept as (rate, flat index); the walk stops once every
    line left is ruled out for both: its bound exceeds the rate by more than
    _BOUND_MARGIN, or the rate is 0 and its cell comes first in C order.  A
    NaN bound rules no line out.  So the result is that of the exhaustive
    grid: invalid triples are masked off, and the first strictly smallest
    rate in C order, which is lexicographic order, wins.
    Coordinate descent then shrinks the step by ``cfg.refine_shrink`` each
    pass and sweeps the three coordinates, accepting only strictly
    improving, valid moves.  When the coarse minimum lies on an edge of the
    valid set (some |rho| = 1), a second descent starts from the best grid
    point off the edges, and the lower result wins, so the rate never
    exceeds any coarse grid point's.  One more call reads the four terms at
    the winning triple.  Errors of ``terms`` and ``bound`` propagate.

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
    chunk_lines = max(1, _CHUNK_TARGET // n)
    # Line l is (axis[l // n], axis[l % n]); its cells have flat indices l * n
    # to l * n + n - 1.  The lines are visited by their bound, ties in C
    # order.  NaN bounds sort last, so while any line is left, the last line
    # left has a NaN bound if any line does; a NaN bound rules no line out.
    lower = np.broadcast_to(np.asarray(bound(axis[:, None], axis[None, :]), dtype=float),
                            (n, n)).ravel()
    order = np.argsort(lower, kind="stable")
    lower = lower[order]
    bounded = not np.isnan(lower[-1])

    def ruled_out(cell: _Cell, start: int) -> bool:
        """Whether no line from visit position ``start`` on can beat ``cell``."""
        rate, flat = cell
        if rate == 0.0:
            open_lines = order[start:][~(lower[start:] > _BOUND_MARGIN)]
            return open_lines.min(initial=n * n) > flat // n
        return bounded and lower[start] > rate + _BOUND_MARGIN

    # The least cell of the grid, and off the edges of the valid set (every
    # |rho| < 1).
    best = best_off_edge = _NO_CELL

    # Each chunk's rates reuse the previous chunk's array: a new one per chunk
    # made the heap shrink and regrow, 20,000 page faults per 0.01 point.
    r12 = axis[None, :]
    rates = None
    evaluations = 0
    for start in range(0, n * n, chunk_lines):
        lines = order[start:start + chunk_lines]
        i1, i2 = lines // n, lines % n
        rates, valid, used = _evaluate(terms, axis[i1, None], axis[i2, None], r12, out=rates)
        evaluations += used
        # The axis holds +-1 only at its ends.
        inner = (0 < i1) & (i1 < n - 1) & (0 < i2) & (i2 < n - 1)
        whole, off_edge = _chunk_winners(rates, valid, lines, inner)
        best = min(best, whole)
        best_off_edge = min(best_off_edge, off_edge)
        rest = start + chunk_lines
        if rest < n * n and ruled_out(best, rest) and ruled_out(best_off_edge, rest):
            break

    # On an edge of the valid set (some |rho| = 1) the rate can tie exactly
    # with points off it, and coordinate descent cannot follow the edge:
    # staying on it takes two coordinates moving together.  So when the grid
    # minimum sits on an edge, the best point off the edges is refined too,
    # and the lower result wins (the edge start on a tie).
    grid_min = _grid_point(axis, best)
    starts = [grid_min]
    if best_off_edge != _NO_CELL and max(map(abs, grid_min[1])) == 1.0:
        starts.append(_grid_point(axis, best_off_edge))
    descents = [_descend(terms, cfg, start) for start in starts]
    _, rho = min((end for end, _ in descents), key=lambda end: end[0])
    rho_star = CorrelationTriple(*rho)
    at_star = terms(*(np.array([r]) for r in (*rho, rho_star.determinant)))
    return OptimizationResult(
        rho_star=rho_star,
        rate=RateBreakdown(*(float(np.ravel(t)[0]) for t in at_star)),
        evaluations=evaluations + sum(used for _, used in descents),
        on_boundary=rho_star.determinant <= cfg.coarse_resolution ** 2,
    )


def optimize_general(p: GeneralGaussianParams,
                     cfg: SearchConfig) -> tuple[OptimizationResult, OptimizationResult]:
    """Worst-case coordination of the eavesdroppers in the shared-band model:
    the search without jamming (R_njg, on ``strip_jamming(p)``), then the
    search with it (R_g), each of :func:`general_rate_terms_grid` bounded by
    :func:`general_line_bound`."""
    return tuple(
        minimize_rate(functools.partial(general_rate_terms_grid, q),
                      functools.partial(general_line_bound, q), cfg)
        for q in (strip_jamming(p), p)
    )
