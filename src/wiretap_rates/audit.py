"""Randomized cross-checks of the closed forms against the covariance route.

The generator is a plain 64-bit linear congruential generator so that audit
runs are reproducible from the seed alone, independent of numpy or Python
versions:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

and each uniform deviate is the high 53 bits of the new state divided by
2^53.  Parameters are drawn in dataclass field order (gains, then powers,
then noises); correlation triples are drawn by rejection until the
correlation matrix is positive semidefinite.

Draws are taken in blocks.  A block takes its uniforms as one array, each
state k steps ahead as A^k state + C (A^k - 1)/(A - 1) mod 2^64, in the same
generator order as one draw at a time.  Each block's oracle terms are
evaluated as one stack per family, and each closed form as one batch of the
block's parameter rows (see :mod:`wiretap_rates.gaussian`); the values equal
those of one oracle call and one closed-form call per draw, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .core import (
    CorrelationTriple,
    effective_leakages,
    secure_rates,
    valid_correlation,
)
from .gaussian import (
    GeneralGaussianParams,
    OrthogonalGaussianParams,
    rate_general_closed_rows,
    rate_orthogonal_rows,
    single_eavesdropper_leakage_rows,
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
_RHO_RANGE = (-1.0, 1.0)

# The range of each drawn parameter, in dataclass field order.
_ORTHOGONAL_RANGES = (_GAIN_RANGE,) * 5 + (_POWER_RANGE,) * 3 + (_NOISE_RANGE,) * 5
_GENERAL_RANGES = (_SIGNED_GAIN_RANGE,) * 7 + (_POWER_RANGE,) * 3 + (_NOISE_RANGE,) * 3

# Draws taken and evaluated as one block.  Blocks keep the arrays small: at
# this size run_audit(draws=100_000) peaks at 52.4 MB RSS against 52.2 MB one
# draw per block, and 1,000 draws run about 20 times faster than with one
# draw per block.  Blocks of 256 to 1,000 ran up to 10% faster, and 1,024
# raised the peak by 3% (Python 3.11, numpy 2.4, one BLAS thread).
_BLOCK_DRAWS = 128


class AuditRng:
    """Reproducible uniform generator; see the module docstring for the map.

    :meth:`uniform` is the reference a block's uniforms follow."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_LCG_A * self.state + _LCG_C) & _MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()


def _states(state: int, n: int) -> np.ndarray:
    """The ``n`` generator states after ``state``, as a uint64 array.

    State k is M_k state + C_k with M_k = A^k and C_k = C (A^k - 1)/(A - 1),
    mod 2^64.  The (M_k, C_k) of k = 1..n come from k = 1 by doubling:
    state k + j is M_j (M_k state + C_k) + C_j.  Every operand is a uint64
    array, whose products wrap mod 2^64 under any numpy promotion rules.
    """
    mul = np.array([_LCG_A], dtype=np.uint64)
    add = np.array([_LCG_C], dtype=np.uint64)
    while mul.size < n:
        mul, add = (np.concatenate([mul, mul * mul[-1:]]),
                    np.concatenate([add, mul * add[-1:] + add]))
    return mul[:n] * np.array([state], dtype=np.uint64) + add[:n]


def _uniforms(states: np.ndarray) -> np.ndarray:
    """:meth:`AuditRng.uniform` of each state, with the same float operations."""
    return (states >> np.uint64(11)).astype(float) / float(1 << 53)


def _uniform_in(u: np.ndarray, ranges) -> np.ndarray:
    """:meth:`AuditRng.uniform_in` elementwise, one (lo, hi) per last axis entry."""
    lo, hi = np.array(ranges, dtype=float).reshape(-1, 2).T
    return lo + (hi - lo) * u


def _draw(
    rng: AuditRng, k: int, ranges: tuple[tuple[float, float], ...], triple: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` draws as one block, in the order one draw at a time takes them:
    per draw one uniform in each of ``ranges``, then, when ``triple``, a
    correlation triple by rejection.  Returns the (k, len(ranges)) parameter
    values and the (k, 3) triples ((0, 3) without), and leaves ``rng`` just
    after the last uniform used.

    Every stream offset's candidate triple is tested at once; a short walk
    then finds each draw's start, extending the buffer when rejections run
    past it.
    """
    n = len(ranges)
    # Room for two triple candidates per draw; about 62% are accepted.
    states = _states(rng.state, k * (n + 6 * triple))
    starts, picks = np.empty(k, dtype=np.intp), np.empty(k if triple else 0, dtype=np.intp)
    pos, valid = 0, []
    for i in range(k):
        starts[i] = pos
        pos += n
        while triple:
            if pos >= len(valid):
                if pos + 3 > states.size:
                    states = np.concatenate([states, _states(int(states[-1]), states.size)])
                r = _uniform_in(_uniforms(states), _RHO_RANGE)
                valid = valid_correlation(r[:-2], r[1:-1], r[2:]).tolist()
            elif valid[pos]:
                picks[i] = pos
                pos += 3
                break
            else:
                pos += 3
    if pos:
        rng.state = int(states[pos - 1])
    u = _uniforms(states[:pos])
    return (_uniform_in(u[starts[:, np.newaxis] + np.arange(n)], ranges),
            _uniform_in(u[picks[:, np.newaxis] + np.arange(3)], _RHO_RANGE))


def draw_orthogonal_params(rng: AuditRng) -> OrthogonalGaussianParams:
    """Field-order draw: five gains, three powers, five noises."""
    return OrthogonalGaussianParams(*_draw(rng, 1, _ORTHOGONAL_RANGES, False)[0][0].tolist())


def draw_general_params(rng: AuditRng) -> GeneralGaussianParams:
    """Field-order draw: seven signed gains, three powers, three noises."""
    return GeneralGaussianParams(*_draw(rng, 1, _GENERAL_RANGES, False)[0][0].tolist())


def draw_correlation(rng: AuditRng) -> CorrelationTriple:
    """Rejection-sample a positive-semidefinite correlation triple."""
    return CorrelationTriple(*_draw(rng, 1, (), True)[1][0].tolist())


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


def _blocks(draws: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of consecutive blocks of at most ``_BLOCK_DRAWS`` draws."""
    for start in range(0, draws, _BLOCK_DRAWS):
        yield start, min(start + _BLOCK_DRAWS, draws)


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
    for start, stop in _blocks(draws):
        params, _ = _draw(rng, stop - start, _ORTHOGONAL_RANGES, False)
        for table, terms in ((oracle, _rate_orthogonal_oracles(params)),
                             (closed, rate_orthogonal_rows(params))):
            table[start:stop, :4] = terms
            table[start:stop, 4] = secure_rates(terms[:, 0], effective_leakages(*terms[:, 1:].T))
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
    for start, stop in _blocks(draws):
        # Each draw is its parameters, then its triple.
        params, rhos = _draw(rng, stop - start, _GENERAL_RANGES, True)
        # Every draw at the uncorrelated point, then every draw at its
        # triple, as one batch of each form.
        k = stop - start
        both = np.concatenate([params, params])
        at = np.concatenate([np.zeros_like(rhos), rhos])
        terms = _rate_general_oracles(both, *at.T)
        oracle[start:stop, :4] = terms[:k]
        # single_1, single_2, single_2 again for its alternative reading, main, joint.
        oracle[start:stop, 4:] = terms[k:, [2, 3, 3, 0, 1]]
        terms = rate_general_closed_rows(both, at)
        closed[start:stop, :4] = terms[:k]
        closed[start:stop, 4] = single_eavesdropper_leakage_rows(1, params, rhos)
        closed[start:stop, 5] = single_eavesdropper_leakage_rows(2, params, rhos)
        closed[start:stop, 6] = single_eavesdropper_leakage_rows(2, params, rhos, rho2_both=True)
        # nan where the printed form is undefined at the triple.
        closed[start:stop, 7:] = terms[k:, :2]
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
