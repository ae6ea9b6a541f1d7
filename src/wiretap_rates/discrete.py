"""Discrete memoryless counterpart: channels, input laws, and the sup-inf rate.

Variables are ordered (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e) and joint pmf arrays
use exactly that axis order.  Channel transition tensors are stored with the
output axes first, (y_l, y_1e, y_2e, x_l, x_1e, x_2e), which is also the
row-major order of the text serialization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, RateBreakdown, combine_breakdown

__all__ = [
    "GridBudgetError",
    "DMChannel",
    "EavesdropperInputDist",
    "LegitimateInputDist",
    "joint_distribution",
    "mutual_info_discrete",
    "rate_dm_fixed",
    "simplex_grid",
    "legitimate_input_grid",
    "eavesdropper_input_grid",
    "SupInfResult",
    "sup_inf_rate",
    "build_orthogonal_dm",
    "reduce_noncolluding",
    "reduce_perfectcolluding",
    "X_L",
    "X_1E",
    "X_2E",
    "Y_L",
    "Y_1E",
    "Y_2E",
]

# Axis numbers of the six variables inside a joint pmf array.
X_L, X_1E, X_2E, Y_L, Y_1E, Y_2E = range(6)

_SUM_TOL = 1e-12


class GridBudgetError(RuntimeError):
    """The requested exhaustive search exceeds the evaluation budget."""


def _check_pmf_axis(arr: np.ndarray, axes: tuple[int, ...], what: str) -> None:
    if np.min(arr) < -_SUM_TOL:
        raise DomainError(f"{what} has a negative entry ({float(np.min(arr))!r})")
    sums = arr.sum(axis=axes)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise DomainError(f"{what} does not normalize to 1 (max error "
                          f"{float(np.max(np.abs(sums - 1.0)))!r})")


@dataclass(frozen=True)
class DMChannel:
    """Transition tensor p(y_l, y_1e, y_2e | x_l, x_1e, x_2e).

    Shape (n_yl, n_y1e, n_y2e, n_xl, n_x1e, n_x2e); every conditional slice
    must be a probability distribution.
    """

    transition: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 6:
            raise DomainError(f"transition tensor must have 6 axes, got {t.ndim}")
        if min(t.shape) < 1:
            raise DomainError("alphabet sizes must be at least 1")
        _check_pmf_axis(t, (0, 1, 2), "channel transition")
        object.__setattr__(self, "transition", t)

    @property
    def output_sizes(self) -> tuple[int, int, int]:
        return self.transition.shape[:3]

    @property
    def input_sizes(self) -> tuple[int, int, int]:
        return self.transition.shape[3:]

    def to_text(self) -> str:
        """Serialize: sizes line, then the tensor row-major, one value per line.

        Index order is (y_l, y_1e, y_2e, x_l, x_1e, x_2e), slowest to fastest.
        Lines starting with '#' are comments.
        """
        buf = io.StringIO()
        buf.write("# discrete memoryless channel p(y_l y_1e y_2e | x_l x_1e x_2e)\n")
        buf.write("# sizes: y_l y_1e y_2e x_l x_1e x_2e\n")
        buf.write(" ".join(str(s) for s in self.transition.shape) + "\n")
        for v in self.transition.ravel(order="C"):
            buf.write(repr(float(v)) + "\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "DMChannel":
        tokens: list[str] = []
        for line in text.splitlines():
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                tokens.extend(stripped.split())
        if len(tokens) < 6:
            raise DomainError("channel text is missing the six alphabet sizes")
        try:
            shape = tuple(int(t) for t in tokens[:6])
        except ValueError as exc:
            raise DomainError(f"bad alphabet size in channel text: {exc}") from None
        count = math.prod(shape)
        values = tokens[6:]
        if len(values) != count:
            raise DomainError(
                f"channel text has {len(values)} values, expected {count}"
            )
        try:
            flat = np.array([float(v) for v in values])
        except ValueError as exc:
            raise DomainError(f"bad probability in channel text: {exc}") from None
        return cls(flat.reshape(shape))


@dataclass(frozen=True)
class EavesdropperInputDist:
    """Joint law q(x_1e, x_2e) of the eavesdropper transmissions."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2:
            raise DomainError("eavesdropper input law must be a 2-d array")
        _check_pmf_axis(q, (0, 1), "eavesdropper input law")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class LegitimateInputDist:
    """Conditional law r(x_l | x_1e, x_2e), axis 0 indexed by x_l."""

    r: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 3:
            raise DomainError("legitimate input law must be a 3-d array")
        _check_pmf_axis(r, (0,), "legitimate input law")
        object.__setattr__(self, "r", r)


def joint_distribution(
    ch: DMChannel, r: LegitimateInputDist, q: EavesdropperInputDist
) -> np.ndarray:
    """Joint pmf over (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e)."""
    if r.r.shape != (ch.input_sizes[0], ch.input_sizes[1], ch.input_sizes[2]):
        raise DomainError(
            f"legitimate input law shape {r.r.shape} does not match channel inputs"
        )
    if q.q.shape != ch.input_sizes[1:]:
        raise DomainError(
            f"eavesdropper input law shape {q.q.shape} does not match channel inputs"
        )
    return np.einsum("abc,bc,defabc->abcdef", r.r, q.q, ch.transition)


def _entropy(pmf: np.ndarray) -> float:
    p = pmf.ravel()
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def mutual_info_discrete(
    joint: np.ndarray,
    A: Sequence[int],
    B: Sequence[int],
    C: Sequence[int] = (),
) -> float:
    """I(A; B | C) in bits from a joint pmf array, 0 log 0 read as 0.

    A, B, C are disjoint tuples of axis numbers.  Small negative round-off
    is truncated to 0.
    """
    a, b, c = tuple(A), tuple(B), tuple(C)
    allv = a + b + c
    if len(set(allv)) != len(allv):
        raise DomainError("variable sets must be disjoint")
    if any(not 0 <= v < joint.ndim for v in allv):
        raise DomainError("variable index out of range for the joint pmf")
    jm = np.clip(np.asarray(joint, dtype=float), 0.0, None)

    def h(subset: tuple[int, ...]) -> float:
        drop = tuple(i for i in range(jm.ndim) if i not in subset)
        return _entropy(jm.sum(axis=drop) if drop else jm)

    value = h(a + c) + h(b + c) - h(c) - h(a + b + c)
    if value < -1e-10:
        raise DomainError(f"conditional mutual information evaluated to {value!r}; "
                          "joint pmf is inconsistent")
    return value if value > 0.0 else 0.0


def rate_dm_fixed(
    ch: DMChannel, r: LegitimateInputDist, q: EavesdropperInputDist
) -> RateBreakdown:
    """Secrecy-rate breakdown at fixed input laws.

    main          I(X_l; Y_l)
    joint leak    I(X_l; Y_1e, Y_2e | X_1e, X_2e)
    single leak   I(X_l, X_1e, X_2e; Y_je)
    """
    joint = joint_distribution(ch, r, q)
    main = mutual_info_discrete(joint, (X_L,), (Y_L,))
    leak_joint = mutual_info_discrete(joint, (X_L,), (Y_1E, Y_2E), (X_1E, X_2E))
    leak_1 = mutual_info_discrete(joint, (X_L, X_1E, X_2E), (Y_1E,))
    leak_2 = mutual_info_discrete(joint, (X_L, X_1E, X_2E), (Y_2E,))
    return combine_breakdown(main, leak_joint, leak_1, leak_2)


# ---------------------------------------------------------------------------
# Exhaustive grids over input laws


def simplex_grid(k: int, m: int) -> np.ndarray:
    """All probability vectors over k outcomes with entries that are
    multiples of 1/m, in ascending lexicographic order of the underlying
    integer compositions."""
    if k < 1 or m < 1:
        raise DomainError("simplex grid needs k >= 1 and m >= 1")
    combos: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            combos.append(prefix + [remaining])
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], m, k)
    return np.array(combos, dtype=float) / m


def eavesdropper_input_grid(
    n_x1e: int, n_x2e: int, m: int
) -> list[EavesdropperInputDist]:
    """Gridded joint laws over the two eavesdropper alphabets."""
    flat = simplex_grid(n_x1e * n_x2e, m)
    return [EavesdropperInputDist(row.reshape(n_x1e, n_x2e)) for row in flat]


def legitimate_input_grid(
    n_xl: int, n_x1e: int, n_x2e: int, m: int
) -> list[LegitimateInputDist]:
    """Gridded conditional laws r(x_l | x_1e, x_2e).

    The per-context simplices are combined in row-major context order, the
    whole list again lexicographic.
    """
    base = simplex_grid(n_xl, m)
    contexts = n_x1e * n_x2e
    out: list[LegitimateInputDist] = []
    idx = [0] * contexts

    while True:
        r = np.empty((n_xl, n_x1e, n_x2e))
        for c in range(contexts):
            r[:, c // n_x2e, c % n_x2e] = base[idx[c]]
        out.append(LegitimateInputDist(r))
        pos = contexts - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < len(base):
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return out


@dataclass(frozen=True)
class SupInfResult:
    """Outcome of the exhaustive sup-inf search.

    rate           best worst-case secure rate on the grid.
    r_star         maximizing legitimate input law.
    q_star         minimizing eavesdropper law at r_star.
    refined_rate   inner minimum at r_star re-run at half the resolution.
    evaluations    number of rate evaluations performed.
    """

    rate: float
    r_star: LegitimateInputDist
    q_star: EavesdropperInputDist
    refined_rate: float
    evaluations: int


def sup_inf_rate(
    ch: DMChannel,
    grid_resolution: float,
    max_evaluations: int = 2_000_000,
) -> SupInfResult:
    """Grid sup over legitimate laws of the inf over eavesdropper laws.

    Both laws run over exhaustive simplex grids with step 1/m,
    m = round(1/grid_resolution).  Ties break toward the earliest grid
    point in enumeration order on both sides.  The outer grid at step 1/m
    is contained in the one at step 1/(2m), so along such nested grids
    (m -> 2m) the result can only grow whenever the inner minimization is
    trivial.  It is not monotone in ``grid_resolution`` otherwise: on a
    channel with 2x2x2 inputs and BSC(0.2) collusion taps, m = 2 gives
    0.3121 and m = 3 gives 0.2825.  The finer-grid inner recheck at r_star
    is reported as ``refined_rate`` to expose any inner coarseness.
    """
    if not (0.0 < grid_resolution <= 1.0):
        raise DomainError(f"grid resolution must lie in (0, 1], got {grid_resolution!r}")
    m = max(1, round(1.0 / grid_resolution))
    n_xl, n_x1e, n_x2e = ch.input_sizes
    r_grid = legitimate_input_grid(n_xl, n_x1e, n_x2e, m)
    q_grid = eavesdropper_input_grid(n_x1e, n_x2e, m)
    q_fine = eavesdropper_input_grid(n_x1e, n_x2e, 2 * m)
    total = len(r_grid) * len(q_grid) + len(q_fine)
    if total > max_evaluations:
        raise GridBudgetError(
            f"sup-inf grid needs {total} evaluations "
            f"({len(r_grid)} outer x {len(q_grid)} inner + {len(q_fine)} recheck), "
            f"budget is {max_evaluations}"
        )

    best_rate = -math.inf
    best_r = None
    best_q = None
    evaluations = 0
    for r in r_grid:
        inner = math.inf
        inner_q = None
        for q in q_grid:
            v = rate_dm_fixed(ch, r, q).secure_rate
            evaluations += 1
            if v < inner:
                inner = v
                inner_q = q
        if inner > best_rate:
            best_rate = inner
            best_r = r
            best_q = inner_q

    assert best_r is not None and best_q is not None
    refined = math.inf
    for q in q_fine:
        v = rate_dm_fixed(ch, best_r, q).secure_rate
        evaluations += 1
        if v < refined:
            refined = v
    return SupInfResult(
        rate=best_rate,
        r_star=best_r,
        q_star=best_q,
        refined_rate=refined,
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Channel constructions


def build_orthogonal_dm(main: np.ndarray, collusion: np.ndarray) -> DMChannel:
    """Combine a listening component and a collusion component.

    main       p(y_l, y_1e_m, y_2e_m | x_l), shape (n_yl, n_y1m, n_y2m, n_xl).
    collusion  p(y_1e_c, y_2e_c | x_1e, x_2e), shape (n_y1c, n_y2c, n_x1e, n_x2e).

    Eavesdropper j's output alphabet is the pair (y_jm, y_jc) flattened
    row-major: index y_jm * n_jc + y_jc.
    """
    main = np.asarray(main, dtype=float)
    collusion = np.asarray(collusion, dtype=float)
    if main.ndim != 4:
        raise DomainError("main component must have axes (y_l, y_1e_m, y_2e_m, x_l)")
    if collusion.ndim != 4:
        raise DomainError(
            "collusion component must have axes (y_1e_c, y_2e_c, x_1e, x_2e)"
        )
    _check_pmf_axis(main, (0, 1, 2), "main component")
    _check_pmf_axis(collusion, (0, 1), "collusion component")
    n_yl, n_y1m, n_y2m, n_xl = main.shape
    n_y1c, n_y2c, n_x1e, n_x2e = collusion.shape
    big = (
        main[:, :, None, :, None, :, None, None]
        * collusion[None, None, :, None, :, None, :, :]
    )
    # axes now (y_l, y_1m, y_1c, y_2m, y_2c, x_l, x_1e, x_2e)
    t = big.reshape(n_yl, n_y1m * n_y1c, n_y2m * n_y2c, n_xl, n_x1e, n_x2e)
    return DMChannel(t)


def reduce_noncolluding(ch: DMChannel) -> DMChannel:
    """Pin both eavesdropper transmissions to symbol 0."""
    return DMChannel(ch.transition[:, :, :, :, :1, :1])


def reduce_perfectcolluding(main: np.ndarray) -> DMChannel:
    """Give each eavesdropper a noiseless copy of the other's listening output.

    Takes a main component p(y_l, y_1e_m, y_2e_m | x_l) and produces the
    channel where eavesdropper j observes the pair (y_jm, y_km) of both
    listening outputs; eavesdropper inputs are singletons.
    """
    main = np.asarray(main, dtype=float)
    if main.ndim != 4:
        raise DomainError("main component must have axes (y_l, y_1e_m, y_2e_m, x_l)")
    _check_pmf_axis(main, (0, 1, 2), "main component")
    n_yl, n1, n2, n_xl = main.shape
    t = np.zeros((n_yl, n1 * n2, n2 * n1, n_xl, 1, 1))
    for a in range(n1):
        for c in range(n2):
            t[:, a * n2 + c, c * n1 + a, :, 0, 0] = main[:, a, c, :]
    return DMChannel(t)
