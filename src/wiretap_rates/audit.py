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
the rows equal those of one oracle call per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .core import CorrelationTriple, ZERO_RHO, DomainError, valid_correlation
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
    "AuditRow",
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
class AuditRow:
    """One closed-form-versus-covariance comparison.

    ``closed`` is nan when the printed expression is undefined at the drawn
    point; such rows are informational by construction.
    """

    draw: int
    name: str
    closed: float
    oracle: float
    error: float
    required: bool

    @property
    def ok(self) -> bool:
        if not self.required:
            return True
        return math.isfinite(self.error) and self.error <= AUDIT_TOL


@dataclass(frozen=True)
class AuditReport:
    seed: int
    draws: int
    rows: tuple[AuditRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def worst_required_error(self) -> float:
        errs = [r.error for r in self.rows if r.required]
        return max(errs) if errs else 0.0


def _row(draw: int, name: str, closed: float, oracle: float,
         required: bool) -> AuditRow:
    err = abs(closed - oracle) if math.isfinite(closed) else math.nan
    return AuditRow(draw, name, closed, oracle, err, required)


def _blocks(draws: int, draw: Callable[[], _T]) -> Iterator[tuple[int, list[_T]]]:
    """Consecutive blocks of at most ``_BLOCK_DRAWS`` draws, with the index
    of each block's first draw; the draws are made in order, block by block."""
    for start in range(0, draws, _BLOCK_DRAWS):
        yield start, [draw() for _ in range(min(_BLOCK_DRAWS, draws - start))]


def audit_orthogonal(seed: int = DEFAULT_SEED,
                     draws: int = DEFAULT_DRAWS) -> AuditReport:
    """Closed orthogonal-model terms against the covariance route.

    Every term must agree within AUDIT_TOL at every draw.
    """
    rng = AuditRng(seed)
    rows: list[AuditRow] = []
    for start, block in _blocks(draws, lambda: draw_orthogonal_params(rng)):
        oracles = _rate_orthogonal_oracles(block)
        for i, (p, oracle) in enumerate(zip(block, oracles), start):
            closed = rate_orthogonal(p)
            for name, c, o in (
                ("orthogonal/main", closed.main_rate, oracle.main_rate),
                ("orthogonal/joint", closed.leak_joint, oracle.leak_joint),
                ("orthogonal/single_1", closed.leak_single_1, oracle.leak_single_1),
                ("orthogonal/single_2", closed.leak_single_2, oracle.leak_single_2),
                ("orthogonal/secure", closed.secure_rate, oracle.secure_rate),
            ):
                rows.append(_row(i, name, c, o, required=True))
    return AuditReport(seed, draws, tuple(rows))


def audit_general(seed: int = DEFAULT_SEED,
                  draws: int = DEFAULT_DRAWS) -> AuditReport:
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
    rows: list[AuditRow] = []
    # Each draw is its parameters, then its triple (tuples build left to right).
    for start, block in _blocks(
        draws, lambda: (draw_general_params(rng), draw_correlation(rng))
    ):
        ps = [p for p, _ in block]
        oracles0 = _rate_general_oracles(ps, 0.0, 0.0, 0.0)
        oracles_rho = _rate_general_oracles(
            ps, *np.array([rho.as_tuple() for _, rho in block]).T
        )
        for i, ((p, rho), oracle0, oracle_rho) in enumerate(
            zip(block, oracles0, oracles_rho), start
        ):
            closed0 = rate_general_closed(p, ZERO_RHO)
            for name, c, o in (
                ("general/zero/main", closed0.main_rate, oracle0.main_rate),
                ("general/zero/joint", closed0.leak_joint, oracle0.leak_joint),
                ("general/zero/single_1", closed0.leak_single_1, oracle0.leak_single_1),
                ("general/zero/single_2", closed0.leak_single_2, oracle0.leak_single_2),
            ):
                rows.append(_row(i, name, c, o, required=True))

            s1 = single_eavesdropper_leakage(1, p, rho)
            s2 = single_eavesdropper_leakage(2, p, rho)
            s2_alt = single_eavesdropper_leakage(2, p, rho, rho2_both=True)
            o2 = oracle_rho.leak_single_2
            for name, c, o, required in (
                ("general/rho/single_1", s1, oracle_rho.leak_single_1, True),
                ("general/rho/single_2", s2, o2, True),
                ("general/rho/single_2_alt", s2_alt, o2, False),
            ):
                rows.append(_row(i, name, c, o, required))

            try:
                closed_rho = rate_general_closed(p, rho)
                main_c, joint_c = closed_rho.main_rate, closed_rho.leak_joint
            except DomainError:
                main_c = joint_c = math.nan
            rows.append(_row(i, "general/rho/main", main_c, oracle_rho.main_rate,
                             required=False))
            rows.append(_row(i, "general/rho/joint", joint_c, oracle_rho.leak_joint,
                             required=False))
    return AuditReport(seed, draws, tuple(rows))


def run_audit(seed: int = DEFAULT_SEED, draws: int = DEFAULT_DRAWS) -> AuditReport:
    """Both model audits under one seed, concatenated into one report."""
    rows = audit_orthogonal(seed, draws).rows + audit_general(seed, draws).rows
    return AuditReport(seed, draws, rows)


def rows_to_csv(report: AuditReport) -> str:
    """Per-draw rows as CSV text, floats at full precision."""
    lines = ["draw,term,closed,oracle,abs_error"]
    for r in report.rows:
        lines.append(f"{r.draw},{r.name},{r.closed!r},{r.oracle!r},{r.error!r}")
    return "\n".join(lines) + "\n"


def format_report(report: AuditReport, verbose: bool = False) -> str:
    """Human-readable summary; per-row lines only when verbose."""
    lines: list[str] = []
    lines.append(f"audit seed={report.seed} draws={report.draws} "
                 f"rows={len(report.rows)}")
    if verbose:
        for r in report.rows:
            tag = "required" if r.required else "info"
            state = "ok" if r.ok else "FAIL"
            lines.append(
                f"  draw {r.draw:3d}  {r.name:24s} closed={r.closed: .12e} "
                f"oracle={r.oracle: .12e} err={r.error: .3e} [{tag}] {state}"
            )
    by_name: dict[str, list[AuditRow]] = {}
    for r in report.rows:
        by_name.setdefault(r.name, []).append(r)
    for name in sorted(by_name):
        grp = by_name[name]
        finite = [g.error for g in grp if math.isfinite(g.error)]
        undefined = sum(1 for g in grp if not math.isfinite(g.error))
        worst = max(finite) if finite else math.nan
        tag = "required" if all(g.required for g in grp) else "info"
        extra = f", undefined at {undefined}/{len(grp)} draws" if undefined else ""
        lines.append(f"  {name:24s} worst |closed-oracle| = {worst:.3e} "
                     f"[{tag}]{extra}")
    lines.append(
        f"required terms: worst error {report.worst_required_error:.3e} "
        f"(tolerance {AUDIT_TOL:.0e}) -> "
        + ("PASS" if report.passed else "FAIL")
    )
    return "\n".join(lines)
