"""Randomized cross-checks of the closed forms against the covariance route.

The generator is a plain 64-bit linear congruential generator so that audit
runs are reproducible from the seed alone, independent of numpy or Python
versions:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

and each uniform deviate is the high 53 bits of the new state divided by
2^53.  Parameters are drawn in dataclass field order (gains, then powers,
then noises); correlation triples are drawn by rejection until the
correlation matrix is positive semidefinite.

Draws are taken in blocks, in the same generator order as one draw at a
time, and each block's covariances are evaluated as one stack per family;
the values equal those of one oracle call per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO, TypeVar

import numpy as np

from .core import CorrelationTriple, ZERO_RHO, DomainError, RateBreakdown, valid_correlation
from .gaussian import (
    GeneralGaussianParams,
    OrthogonalGaussianParams,
    rate_general_closed,
    rate_orthogonal,
    single_eavesdropper_leakage,
)
from .oracle import _rate_general_oracles, _rate_orthogonal_oracles

__all__ = [
    "AUDIT_TOL",
    "DEFAULT_SEED",
    "DEFAULT_DRAWS",
    "AuditRng",
    "AuditTable",
    "AuditReport",
    "audit_orthogonal",
    "audit_general",
    "run_audit",
    "rows_to_csv",
    "format_report",
]

AUDIT_TOL = 1e-9
DEFAULT_SEED = 12345
DEFAULT_DRAWS = 25

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 64) - 1

_GAIN_RANGE = (0.2, 2.0)
_SIGNED_GAIN_RANGE = (-2.0, 2.0)
_POWER_RANGE = (0.1, 10.0)
_NOISE_RANGE = (0.5, 2.0)

# Draws whose covariances are evaluated as one stack.  Blocks keep the
# stacks small: at this size the audit's peak memory stays within 1% of one
# draw at a time, and larger blocks run no faster.
_BLOCK_DRAWS = 128

_T = TypeVar("_T")


class AuditRng:
    """Reproducible uniform generator; see the module docstring for the map."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_LCG_A * self.state + _LCG_C) & _MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()


def draw_orthogonal_params(rng: AuditRng) -> OrthogonalGaussianParams:
    """Field-order draw: five gains, three powers, five noises."""
    g = [rng.uniform_in(*_GAIN_RANGE) for _ in range(5)]
    p = [rng.uniform_in(*_POWER_RANGE) for _ in range(3)]
    n = [rng.uniform_in(*_NOISE_RANGE) for _ in range(5)]
    return OrthogonalGaussianParams(*g, *p, *n)


def draw_general_params(rng: AuditRng) -> GeneralGaussianParams:
    """Field-order draw: seven signed gains, three powers, three noises."""
    g = [rng.uniform_in(*_SIGNED_GAIN_RANGE) for _ in range(7)]
    p = [rng.uniform_in(*_POWER_RANGE) for _ in range(3)]
    n = [rng.uniform_in(*_NOISE_RANGE) for _ in range(3)]
    return GeneralGaussianParams(*g, *p, *n)


def draw_correlation(rng: AuditRng) -> CorrelationTriple:
    """Rejection-sample a positive-semidefinite correlation triple."""
    while True:
        r1 = rng.uniform_in(-1.0, 1.0)
        r2 = rng.uniform_in(-1.0, 1.0)
        r12 = rng.uniform_in(-1.0, 1.0)
        if valid_correlation(r1, r2, r12):
            return CorrelationTriple(r1, r2, r12)


@dataclass(frozen=True)
class AuditTable:
    """One model family's comparisons as ``(draws, terms)`` arrays.

    ``closed`` is nan where the printed expression is undefined at the drawn
    point, which only informational terms can be by construction.
    """

    names: tuple[str, ...]
    required: tuple[bool, ...]
    closed: np.ndarray
    oracle: np.ndarray

    @property
    def error(self) -> np.ndarray:
        """|closed - oracle| per cell; nan where ``closed`` is."""
        return np.abs(self.closed - self.oracle)


def _passes(error: float) -> bool:
    """The audit's pass rule; a nan error fails it."""
    return error <= AUDIT_TOL


@dataclass(frozen=True)
class AuditReport:
    seed: int
    draws: int
    tables: tuple[AuditTable, ...]

    @property
    def row_count(self) -> int:
        """Comparisons in the report: one per draw and term."""
        return sum(t.closed.size for t in self.tables)

    @property
    def worst_required_error(self) -> float:
        """Largest error over every required cell (nan if any is undefined)."""
        errs = np.concatenate([t.error[:, list(t.required)].ravel() for t in self.tables])
        return float(errs.max()) if errs.size else 0.0

    @property
    def passed(self) -> bool:
        return _passes(self.worst_required_error)


def _terms(b: RateBreakdown) -> tuple[float, float, float, float]:
    return b.main_rate, b.leak_joint, b.leak_single_1, b.leak_single_2


def _blocks(draws: int, draw: Callable[[], _T]) -> Iterator[tuple[int, list[_T]]]:
    """Consecutive blocks of at most ``_BLOCK_DRAWS`` draws, with the index
    of each block's first draw; the draws are made in order, block by block."""
    for start in range(0, draws, _BLOCK_DRAWS):
        yield start, [draw() for _ in range(min(_BLOCK_DRAWS, draws - start))]


# (name, required) per column, in the order the audit fills a row.
_ORTHOGONAL_TERMS = tuple(
    (f"orthogonal/{t}", True) for t in ("main", "joint", "single_1", "single_2", "secure")
)
_GENERAL_TERMS = (
    *((f"general/zero/{t}", True) for t in ("main", "joint", "single_1", "single_2")),
    ("general/rho/single_1", True), ("general/rho/single_2", True),
    ("general/rho/single_2_alt", False), ("general/rho/main", False),
    ("general/rho/joint", False),
)


def audit_orthogonal(seed: int = DEFAULT_SEED,
                     draws: int = DEFAULT_DRAWS) -> AuditTable:
    """Closed orthogonal-model terms against the covariance route.

    Every term must agree within AUDIT_TOL at every draw.
    """
    rng = AuditRng(seed)
    closed, oracle = np.empty((2, draws, len(_ORTHOGONAL_TERMS)))
    for start, block in _blocks(draws, lambda: draw_orthogonal_params(rng)):
        for i, (p, o) in enumerate(zip(block, _rate_orthogonal_oracles(block)), start):
            c = rate_orthogonal(p)
            closed[i] = *_terms(c), c.secure_rate
            oracle[i] = *_terms(o), o.secure_rate
    return AuditTable(*zip(*_ORTHOGONAL_TERMS), closed, oracle)


def audit_general(seed: int = DEFAULT_SEED,
                  draws: int = DEFAULT_DRAWS) -> AuditTable:
    """Closed shared-band terms against the covariance route.

    Per draw: all four terms at the uncorrelated point (required), then the
    single-eavesdropper leakages at a random valid correlation triple
    (required), the reading of eavesdropper 2's leakage that reuses rho_2
    (informational: the two readings agree only while rho_1 = rho_2), and
    the main and joint terms at the same triple (informational: the printed
    forms deviate from the covariance route whenever both correlations are
    active, and can be undefined there).
    """
    rng = AuditRng(seed)
    closed, oracle = np.empty((2, draws, len(_GENERAL_TERMS)))
    # Each draw is its parameters, then its triple (tuples build left to right).
    for start, block in _blocks(
        draws, lambda: (draw_general_params(rng), draw_correlation(rng))
    ):
        ps = [p for p, _ in block]
        oracles0 = _rate_general_oracles(ps, 0.0, 0.0, 0.0)
        oracles_rho = _rate_general_oracles(
            ps, *np.array([rho.as_tuple() for _, rho in block]).T
        )
        for i, ((p, rho), o0, o) in enumerate(zip(block, oracles0, oracles_rho), start):
            try:
                c = rate_general_closed(p, rho)
                main_c, joint_c = c.main_rate, c.leak_joint
            except DomainError:
                main_c = joint_c = math.nan
            closed[i] = (*_terms(rate_general_closed(p, ZERO_RHO)),
                         single_eavesdropper_leakage(1, p, rho),
                         single_eavesdropper_leakage(2, p, rho),
                         single_eavesdropper_leakage(2, p, rho, rho2_both=True),
                         main_c, joint_c)
            oracle[i] = (*_terms(o0), o.leak_single_1, o.leak_single_2,
                         o.leak_single_2, o.main_rate, o.leak_joint)
    return AuditTable(*zip(*_GENERAL_TERMS), closed, oracle)


def run_audit(seed: int = DEFAULT_SEED, draws: int = DEFAULT_DRAWS) -> AuditReport:
    """Both model audits under one seed, one table per family."""
    return AuditReport(seed, draws,
                       (audit_orthogonal(seed, draws), audit_general(seed, draws)))


def _cells(report: AuditReport) -> Iterator[tuple[int, str, float, float, float, bool]]:
    """Every comparison as ``(draw, name, closed, oracle, error, required)``,
    family by family, then draw by draw, then term by term."""
    for t in report.tables:
        for i, values in enumerate(zip(t.closed, t.oracle, t.error)):
            for cell in zip(t.names, *(v.tolist() for v in values), t.required):
                yield (i, *cell)


def rows_to_csv(report: AuditReport, out: TextIO) -> None:
    """Writes the per-draw rows to the text stream ``out`` as CSV, line by
    line as they are made, floats at full precision."""
    out.write("draw,term,closed,oracle,abs_error\n")
    for d, n, c, o, e, _ in _cells(report):
        out.write(f"{d},{n},{c!r},{o!r},{e!r}\n")


def format_report(report: AuditReport, out: TextIO, verbose: bool = False) -> None:
    """Writes the human-readable summary to the text stream ``out``, with
    per-row lines only when verbose, line by line as they are made."""
    out.write(f"audit seed={report.seed} draws={report.draws} rows={report.row_count}\n")
    if verbose:
        for draw, name, closed, oracle, error, required in _cells(report):
            tag = "required" if required else "info"
            state = "ok" if not required or _passes(error) else "FAIL"
            out.write(
                f"  draw {draw:3d}  {name:24s} closed={closed: .12e} "
                f"oracle={oracle: .12e} err={error: .3e} [{tag}] {state}\n"
            )
    columns = [c for t in report.tables for c in zip(t.names, t.required, t.error.T)]
    for name, required, column in sorted(columns, key=lambda c: c[0]):
        undefined = int(np.isnan(column).sum())
        worst = float(np.fmax.reduce(column, initial=math.nan))  # nan-ignoring
        tag = "required" if required else "info"
        extra = f", undefined at {undefined}/{column.size} draws" if undefined else ""
        out.write(f"  {name:24s} worst |closed-oracle| = {worst:.3e} "
                  f"[{tag}]{extra}\n")
    out.write(
        f"required terms: worst error {report.worst_required_error:.3e} "
        f"(tolerance {AUDIT_TOL:.0e}) -> "
        + ("PASS" if report.passed else "FAIL") + "\n"
    )
