"""Discrete memoryless counterpart: channels, input laws, and the sup-inf rate.

Variables are ordered (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e) and joint pmf arrays
use exactly that axis order.  Channel transition tensors are stored with the
output axes first, (y_l, y_1e, y_2e, x_l, x_1e, x_2e), which is also the
row-major order of the text serialization.  Information values come from
one evaluator over stacks of joint pmfs, of which the one-shot functions
are batches of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (MAX_GRID_POINTS, DomainError, GridBudgetError, RateBreakdown,
                   effective_leakages, rate_terms, secure_rates)

__all__ = [
    "DMChannel",
    "EavesdropperInputDist",
    "LegitimateInputDist",
    "joint_distribution",
    "mutual_info_discrete",
    "rate_dm_fixed",
    "simplex_grid",
    "legitimate_input_grid",
    "eavesdropper_input_grid",
    "DEFAULT_MAX_EVALUATIONS",
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


def _check_pmf_axis(arr: np.ndarray, axes: tuple[int, ...], what: str) -> None:
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} has a non-finite entry")
    if np.min(arr) < -_SUM_TOL:
        raise DomainError(f"{what} has a negative entry ({float(np.min(arr))!r})")
    error = float(np.max(np.abs(arr.sum(axis=axes) - 1.0)))
    if error > 1e-9:
        raise DomainError(f"{what} does not normalize to 1 (max error {error!r})")


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
        sizes = " ".join(str(s) for s in self.transition.shape)
        return (
            "# discrete memoryless channel p(y_l y_1e y_2e | x_l x_1e x_2e)\n"
            "# sizes: y_l y_1e y_2e x_l x_1e x_2e\n"
            f"{sizes}\n" + "".join(f"{float(v)!r}\n" for v in self.transition.ravel())
        )

    @classmethod
    def from_text(cls, text: str) -> "DMChannel":
        tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
        if len(tokens) < 6:
            raise DomainError("channel text is missing the six alphabet sizes")
        try:
            shape = tuple(int(t) for t in tokens[:6])
        except ValueError as exc:
            raise DomainError(f"bad alphabet size in channel text: {exc}") from None
        if min(shape) < 1:  # two negative sizes would multiply to a count
            raise DomainError("alphabet sizes must be at least 1")
        count = math.prod(shape)
        values = tokens[6:]
        if len(values) != count:
            # The product of huge sizes is too long to print.
            expected = count if count <= 2 ** 63 else "more than 2**63"
            raise DomainError(
                f"channel text has {len(values)} values, expected {expected}"
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


def _joints(ch: DMChannel, rs: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(K, x_l, x_1e, x_2e, y_l, y_1e, y_2e) joint pmfs of the K pairs (rs[k], qs[k])."""
    return np.einsum("kabc,kbc,defabc->kabcdef", rs, qs, ch.transition)


def joint_distribution(
    ch: DMChannel, r: LegitimateInputDist, q: EavesdropperInputDist
) -> np.ndarray:
    """Joint pmf over (X_l, X_1e, X_2e, Y_l, Y_1e, Y_2e)."""
    if r.r.shape != ch.input_sizes or q.q.shape != ch.input_sizes[1:]:
        raise DomainError(f"input law shapes {r.r.shape} and {q.q.shape} do not "
                          f"match channel inputs {ch.input_sizes}")
    return _joints(ch, r.r[np.newaxis], q.q[np.newaxis])[0]


# Axis tuples (A, B, C) of the four rate terms in a joint pmf.
_RATE_TERMS = rate_terms((Y_1E,), (Y_2E,))


def _entropies(pmfs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a (K, n) stack of pmfs, 0 log 0 read as 0.

    The positive cells are taken row by row in their original order, and the
    rows with L positive cells are gathered into one C-contiguous (k, L)
    block, summed along its rows.  numpy sums each row of such a block
    exactly as it sums a 1-D array of the row's positive cells, so every
    value is the one its pmf gives alone, whatever else is in the stack.
    Sums with the zeros left in place would round differently and move exact
    ties between rates.
    """
    positive = pmfs > 0.0
    counts = positive.sum(axis=1)
    terms = pmfs[positive]
    terms *= np.log2(terms)
    starts = np.cumsum(counts) - counts
    out = np.zeros(len(pmfs))
    for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        rows = np.flatnonzero(counts == n)
        out[rows] = -terms[starts[rows, None] + np.arange(n)].sum(axis=1)
    return out


def _cmi_bits(
    joints: np.ndarray, terms: Iterable[tuple[tuple[int, ...], ...]]
) -> list[np.ndarray]:
    """I(A; B | C) in bits for each (A, B, C) on a (K, ...) stack of joint pmfs.

    Returns one length-K array per term.  The stack is clipped at 0 in
    place.  Each distinct marginal is summed once for the whole stack, and
    its entropies come from one reduction per positive-cell count
    (``_entropies``), so every value is the one its joint pmf gives alone,
    in a stack of any size.  Round-off below 0 is truncated to 0; a value
    below -1e-10 raises.
    """
    np.clip(joints, 0.0, None, out=joints)
    entropies: dict[frozenset[int], np.ndarray] = {}

    def h(subset: tuple[int, ...]) -> np.ndarray:
        key = frozenset(subset)
        if key not in entropies:
            drop = tuple(i + 1 for i in range(joints.ndim - 1) if i not in key)
            entropies[key] = _entropies(joints.sum(axis=drop).reshape(len(joints), -1))
        return entropies[key]

    values = []
    for a, b, c in terms:
        value = h(a + c) + h(b + c) - h(c) - h(a + b + c)
        if (value < -1e-10).any():
            raise DomainError(f"conditional mutual information evaluated to "
                              f"{float(value.min())!r}; joint pmf is inconsistent")
        values.append(np.where(value > 0.0, value, 0.0))
    return values


def mutual_info_discrete(
    joint: np.ndarray,
    A: Sequence[int],
    B: Sequence[int],
    C: Sequence[int] = (),
) -> float:
    """I(A; B | C) in bits from a joint pmf array, 0 log 0 read as 0.

    A, B, C are disjoint tuples of axis numbers.  The joint must be a pmf:
    finite, nonnegative and summing to 1, else ``DomainError``.  Small
    negative round-off is truncated to 0.
    """
    a, b, c = tuple(A), tuple(B), tuple(C)
    allv = a + b + c
    if len(set(allv)) != len(allv):
        raise DomainError("variable sets must be disjoint")
    joint = np.asarray(joint, dtype=float)
    if any(not 0 <= v < joint.ndim for v in allv):
        raise DomainError("variable index out of range for the joint pmf")
    _check_pmf_axis(joint, tuple(range(joint.ndim)), "joint pmf")
    return float(_cmi_bits(joint[np.newaxis].copy(), [(a, b, c)])[0][0])


def rate_dm_fixed(
    ch: DMChannel, r: LegitimateInputDist, q: EavesdropperInputDist
) -> RateBreakdown:
    """Secrecy-rate breakdown at fixed input laws, term by term as
    :class:`~wiretap_rates.core.RateBreakdown` defines them."""
    values = _cmi_bits(joint_distribution(ch, r, q)[np.newaxis], _RATE_TERMS)
    return RateBreakdown(*(float(v[0]) for v in values))


#: Joint-pmf cells per evaluator stack; bounds the memory of a search call.
#: Chosen by timing dm-noisy: 25,000 was about 20% slower, and
#: 250,000 raised its peak RSS by 20%.
_STACK_CELLS = 50_000

#: Grid evaluations a sup-inf search may make unless told otherwise.
DEFAULT_MAX_EVALUATIONS = 2_000_000


def _product_rates(ch: DMChannel, rs: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(len(rs), len(qs)) array of ``rate_dm_fixed(ch, r, q).secure_rate`` for
    every pair of a legitimate law in rs and an eavesdropper law in qs.

    The pairs are taken in row-major order, in stacks of at most
    ``_STACK_CELLS`` joint-pmf cells, so one stack can span several rows and
    end inside one.
    """
    step = max(1, _STACK_CELLS // ch.transition.size)
    rates = np.empty(len(rs) * len(qs))
    for start in range(0, len(rates), step):
        pairs = np.arange(start, min(start + step, len(rates)))
        joints = _joints(ch, rs[pairs // len(qs)], qs[pairs % len(qs)])
        main, *leakages = _cmi_bits(joints, _RATE_TERMS)
        rates[pairs] = secure_rates(main, effective_leakages(*leakages))
    return rates.reshape(len(rs), len(qs))


# ---------------------------------------------------------------------------
# Exhaustive grids over input laws


def _compositions(k: int, m: int) -> np.ndarray:
    """All compositions of m into k nonnegative parts as a (count, k) integer
    array, in ascending lexicographic order, read off the k - 1 bar
    positions among m + k - 1 slots (stars and bars)."""
    slots = m + k - 1
    bars = np.array(list(itertools.combinations(range(slots), k - 1)), dtype=int)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
    return np.diff(edges, axis=1) - 1


def simplex_grid(k: int, m: int) -> np.ndarray:
    """All probability vectors over k outcomes with entries that are
    multiples of 1/m, in ascending lexicographic order of the underlying
    integer compositions."""
    if k < 1 or m < 1:
        raise DomainError("simplex grid needs k >= 1 and m >= 1")
    return _compositions(k, m) / m


def eavesdropper_input_grid(n_x1e: int, n_x2e: int, m: int) -> np.ndarray:
    """Gridded joint laws q(x_1e, x_2e) as a (count, n_x1e, n_x2e) array."""
    return simplex_grid(n_x1e * n_x2e, m).reshape(-1, n_x1e, n_x2e)


def _law_batches(
    columns: np.ndarray, shape: tuple[int, int, int], size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The outer grid of the laws of ``shape`` (n_xl, n_x1e, n_x2e) whose
    columns r[:, x_1e, x_2e] are rows of ``columns``, in enumeration order
    and in batches of at most ``size`` laws.

    Each batch is its (K, n_x1e * n_x2e) codes, the index in ``columns`` of
    each context's column, row-major in the contexts, and its laws.
    """
    codes = itertools.product(range(len(columns)), repeat=shape[1] * shape[2])
    while chunk := list(itertools.islice(codes, size)):
        idx = np.array(chunk)
        yield idx, columns[idx].transpose(0, 2, 1).reshape(len(idx), *shape)


def legitimate_input_grid(
    n_xl: int, n_x1e: int, n_x2e: int, m: int
) -> Iterator[np.ndarray]:
    """Gridded conditional laws r(x_l | x_1e, x_2e), yielded one at a time;
    per-context simplices in row-major context order, again lexicographic."""
    for _, laws in _law_batches(simplex_grid(n_xl, m), (n_xl, n_x1e, n_x2e), 1):
        yield laws[0]


@dataclass(frozen=True)
class SupInfResult:
    """Outcome of the grid sup-inf search.

    rate           best worst-case secure rate on the grid.
    r_star         maximizing legitimate input law.
    q_star         minimizing eavesdropper law at r_star.
    refined_rate   inner minimum at r_star re-run at half the resolution.
    evaluations    (legitimate, eavesdropper) pairs scored: the probe pairs,
                   once per (column, context), the other pairs of each law
                   visited, and the recheck pairs off the coarse grid.  The
                   probe bound of ``sup_inf_rate`` rules most of the grid's
                   pairs out unscored, so the count is below the budget's,
                   which counts every pair.
    """

    rate: float
    r_star: LegitimateInputDist
    q_star: EavesdropperInputDist
    refined_rate: float
    evaluations: int


def _comb_up_to(n: int, k: int, cap: float) -> int:
    """C(n, k) if it is at most ``cap``, else some count above ``cap``.

    C(n, k) is built as C(n - k + i, i) for i = 1 to min(k, n - k), which
    never falls, so it stops at the first past the cap: a few dozen steps.
    """
    k = min(k, n - k)
    count = 1
    for i in range(1, k + 1):
        if count > cap:
            break
        count = count * (n - k + i) // i
    return count


def sup_inf_rate(
    ch: DMChannel,
    grid_resolution: float,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> SupInfResult:
    """Grid sup over legitimate laws of the inf over eavesdropper laws.

    Both laws run over exhaustive simplex grids with step 1/m,
    m = round(1/grid_resolution), counted against ``max_evaluations`` before
    any is built (a resolution below 1/max_evaluations is refused before
    counting).  A budget above MAX_GRID_POINTS is refused before anything is
    counted.

    The search is exact but scores few pairs.  Legitimate laws are taken
    from the lazy outer grid in batches.  Each law of a batch is first
    rated on the probe laws, the point masses q = delta(x_1e, x_2e), which
    lie on the inner grid at every m.  On delta(c) a law's rate depends on
    its column r[:, c] alone, so each probe pair is scored once per
    (column, context) and read from that table.  The least probe rate
    ub(r) is at least the law's worst case over the whole inner grid.  The
    laws are then visited by descending ub, ties in enumeration order, and
    the rest of each visited law's row is scored, several laws per stack.
    The visit stops at the first law that cannot win: its ub is below the
    incumbent's worst case, or equal to it with the law after the incumbent
    in enumeration order.  Every law after it in the visit is ruled out in
    the same way.  Ties break toward the earliest grid point in enumeration
    order on both sides: r_star is the earliest law of the largest worst
    case, and q_star the first minimum of its row.  The recheck at step
    1/(2m) scores only the laws off the grid at step 1/m (``_refined_row``).

    Pairs are evaluated in stacks of at most ``_STACK_CELLS`` joint-pmf
    cells, and each pair gets the rate it gets alone (see ``_entropies``),
    so neither the stack size nor the pruning moves any rate or law: they
    are those of scoring every pair.  Only ``evaluations``, the pairs
    scored, depends on both.  The outer grid at step 1/m is
    contained in the one at step 1/(2m), so along such nested grids
    (m -> 2m) the result can only grow whenever the inner minimization is
    trivial.  It is not monotone in ``grid_resolution`` otherwise: on a
    channel with 2x2x2 inputs and BSC(0.2) collusion taps, m = 2 gives
    0.3121 and m = 3 gives 0.2825.  The finer-grid inner recheck at r_star
    is reported as ``refined_rate`` to expose any inner coarseness.
    """
    if not (0.0 < grid_resolution <= 1.0):
        raise DomainError(f"grid resolution must lie in (0, 1], got {grid_resolution!r}")
    if max_evaluations > MAX_GRID_POINTS:
        raise GridBudgetError(f"max_evaluations may be at most {MAX_GRID_POINTS}")
    # The grids have more points in all than m unless every alphabet has one
    # letter.  Checked before rounding: 1/resolution can overflow to inf.
    if 1.0 / grid_resolution > max_evaluations:
        raise GridBudgetError(
            f"sup-inf grid at resolution {grid_resolution!r} needs more than "
            f"{max_evaluations} evaluations, the budget"
        )
    m = max(1, round(1.0 / grid_resolution))
    n_xl, n_x1e, n_x2e = ch.input_sizes
    n_q = n_x1e * n_x2e  # simplex grids over k outcomes have C(m + k - 1, m) points
    # Each count is exact up to the budget and only known to pass it beyond:
    # the exact count can have more digits than Python will print.
    n_outer = _comb_up_to(m + n_xl - 1, m, max_evaluations)
    # With 2 or more laws per eavesdropper input pair, 2^24 > MAX_GRID_POINTS.
    n_outer **= min(n_q, MAX_GRID_POINTS.bit_length())
    n_inner = _comb_up_to(m + n_q - 1, m, max_evaluations)
    n_recheck = _comb_up_to(2 * m + n_q - 1, 2 * m, max_evaluations)
    total = n_outer * n_inner + n_recheck
    if total > max_evaluations:
        over = f"over {max_evaluations}"
        parts = [n if n <= max_evaluations else over for n in (n_outer, n_inner, n_recheck)]
        raise GridBudgetError(
            f"sup-inf grid needs {over if over in parts else total} evaluations "
            "({} outer x {} inner + {} recheck), ".format(*parts)
            + f"budget is {max_evaluations}"
        )

    q_grid = eavesdropper_input_grid(n_x1e, n_x2e, m)
    # A point mass is the composition with all m units on one letter: 1.0 exactly.
    is_probe = q_grid.reshape(n_inner, n_q).max(axis=1) == 1.0
    probes, others = q_grid[is_probe], q_grid[~is_probe]
    columns = simplex_grid(n_xl, m)
    table, probe_ctx = _probe_table(ch, columns, probes)
    evaluations = table.size
    # Legitimate laws per batch: the batch and its rates hold about
    # _STACK_CELLS numbers.  Laws per visit: one stack of their other pairs.
    batch = max(1, _STACK_CELLS // (n_xl * n_q + n_inner))
    per_visit = max(1, _STACK_CELLS // (ch.transition.size * max(1, len(others))))
    best_rate, best_law = -math.inf, -1  # the incumbent, by enumeration index
    best_r = best_row = None
    first = 0  # enumeration index of the batch's first law
    for idx, rs in _law_batches(columns, ch.input_sizes, batch):
        probe_rates = table[idx[:, probe_ctx], np.arange(len(probes))]
        bound = probe_rates.min(axis=1)
        order = np.argsort(-bound, kind="stable")
        while len(order):
            ahead = order[:per_visit]
            can_win = (bound[ahead] > best_rate) | (
                (bound[ahead] == best_rate) & (first + ahead < best_law))
            visit = ahead[:int(np.logical_and.accumulate(can_win).sum())]
            if not len(visit):
                break
            rows = np.empty((len(visit), n_inner))
            rows[:, is_probe] = probe_rates[visit]
            rows[:, ~is_probe] = _product_rates(ch, rs[visit], others)
            evaluations += len(visit) * len(others)
            for i, row in zip(visit, rows):
                worst = row.min()
                if worst > best_rate or (worst == best_rate and first + i < best_law):
                    best_rate, best_law, best_r, best_row = worst, first + i, rs[i], row
            order = order[len(visit):]
        first += len(rs)

    refined = _refined_row(ch, best_r, best_row, m)
    return SupInfResult(
        rate=float(best_rate),
        r_star=LegitimateInputDist(best_r),
        q_star=EavesdropperInputDist(q_grid[np.argmin(best_row)]),
        refined_rate=float(refined.min()),
        evaluations=evaluations + len(refined) - len(best_row),
    )


def _probe_table(
    ch: DMChannel, columns: np.ndarray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The probe rates of every column, and the flat context of each probe.

    On a probe delta(c) the joint pmf is r[:, c] T in context c and the same
    zeros for every law elsewhere, so a law's rate there is set by its
    column r[:, c] alone, bit for bit.  Entry (s, p) of the (n_columns,
    n_probes) table is the rate on probe p of every law whose column in
    probe p's context is ``columns[s]``, scored once as the law with that
    column in every context.
    """
    n_q = probes[0].size
    uniform = np.repeat(columns[:, :, np.newaxis], n_q, axis=2)
    table = _product_rates(ch, uniform.reshape(len(columns), *ch.input_sizes), probes)
    return table, probes.reshape(len(probes), n_q).argmax(axis=1)


def _refined_row(ch: DMChannel, r: np.ndarray, row: np.ndarray, m: int) -> np.ndarray:
    """The rates of law r on the eavesdropper grid at step 1/(2m), given
    ``row``, its rates on the grid at step 1/m.

    The coarse grid's laws recur in the fine one bit for bit and in the same
    order, as its laws of even compositions: k/m and 2k/(2m) round to the
    same double.  Their rates are read from ``row``, and only the other laws
    are scored, so the row equals ``_product_rates`` on the whole fine grid.
    """
    n_x1e, n_x2e = ch.input_sizes[1:]
    fine = eavesdropper_input_grid(n_x1e, n_x2e, 2 * m)
    on_coarse = (_compositions(n_x1e * n_x2e, 2 * m) % 2 == 0).all(axis=1)
    out = np.empty(len(fine))
    out[on_coarse] = row
    out[~on_coarse] = _product_rates(ch, r[np.newaxis], fine[~on_coarse])[0]
    return out


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
    t = np.zeros((n_yl, n1 * n2, n2 * n1, n_xl))
    a, c = np.ogrid[:n1, :n2]
    t[:, a * n2 + c, c * n1 + a] = main
    return DMChannel(t[..., np.newaxis, np.newaxis])
