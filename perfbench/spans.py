"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces a module's public function at every namespace of the
package that binds it (``optimize.general_rate_terms_grid`` and
``oracle.general_rate_terms_grid`` are one function reached two ways), so a
call is traced whichever name it goes through.  Each call records a span:
name, start, end, parent span and op id.  Spans stay in memory until the run
ends.  Nothing under ``src/`` is changed.

``core`` is not wrapped: its functions are per-scalar primitives called
hundreds of thousands of times per op, and their cost lands in their
callers' self time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable

import numpy as np

LAYERS = ("cli", "optimize", "oracle", "gaussian", "discrete", "audit")


def _evaluations(args, kwargs, result) -> int:
    return int(getattr(result, "evaluations", 0))


def _axis_size(args, kwargs, result) -> int:
    return int(np.size(result))


def _grid_points(args, kwargs, result) -> int:
    return int(np.size(result[0]))


# (layer, function, value recorded from the call); the value is summed or
# compared by layer_metrics below.
SPECS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "load_config", None),
    ("cli", "write_csv", None),
    ("cli", "render_svg", None),
    ("optimize", "optimize_general", _evaluations),
    ("optimize", "minimize_rate", _evaluations),
    ("optimize", "correlation_grid_axis", _axis_size),
    ("optimize", "is_valid_correlation", None),
    ("oracle", "general_rate_terms_grid", _grid_points),
    ("oracle", "build_joint_covariance_general", None),
    ("oracle", "build_joint_covariance_orthogonal", None),
    ("oracle", "rate_general_oracle", None),
    ("oracle", "rate_orthogonal_oracle", None),
    ("oracle", "mi_gaussian", None),
    ("oracle", "schur_conditional_variance", None),
    ("gaussian", "rate_orthogonal", None),
    ("gaussian", "rate_noncolluding", None),
    ("gaussian", "rate_perfectcolluding", None),
    ("gaussian", "single_eavesdropper_leakage", None),
    ("gaussian", "rate_general_closed", None),
    ("gaussian", "rate_nonjamming", None),
    ("gaussian", "strip_jamming", None),
    ("audit", "run_audit", None),
    ("audit", "audit_orthogonal", None),
    ("audit", "audit_general", None),
    ("audit", "draw_orthogonal_params", None),
    ("audit", "draw_general_params", None),
    ("audit", "draw_correlation", None),
    ("audit", "format_report", None),
    ("audit", "rows_to_csv", None),
    ("discrete", "sup_inf_rate", _evaluations),
    ("discrete", "rate_dm_fixed", None),
    ("discrete", "joint_distribution", None),
    ("discrete", "mutual_info_discrete", None),
    ("discrete", "simplex_grid", None),
    ("discrete", "legitimate_input_grid", None),
    ("discrete", "eavesdropper_input_grid", None),
)

# A descent step evaluates at most two candidates; every coarse chunk
# evaluates more.  This splits a search's grid calls into its two stages.
_DESCENT_MAX_POINTS = 2

# name -> (unit, better) of every per-layer metric, in report order.
METRICS: dict[str, tuple[str, str]] = {
    "cli.load_config_s": ("s/setup", "lower"),
    "cli.write_s": ("s/op", "lower"),
    "optimize.searches": ("count/op", "lower"),
    "optimize.evaluations": ("count/op", "lower"),
    "optimize.busy_s": ("s/op", "lower"),
    "optimize.coarse_s": ("s/op", "lower"),
    "optimize.descent_s": ("s/op", "lower"),
    "optimize.descent_calls": ("count/op", "lower"),
    "optimize.self_s": ("s/op", "lower"),
    "optimize.valid_ratio": ("ratio", "higher"),
    "oracle.grid_calls": ("count/op", "lower"),
    "oracle.grid_points": ("count/op", "lower"),
    "oracle.grid_s": ("s/op", "lower"),
    "oracle.grid_ns_per_point": ("ns/point", "lower"),
    "oracle.interior_s": ("s/op", "lower"),
    "oracle.fallback_s": ("s/op", "lower"),
    "oracle.fallback_points": ("count/op", "lower"),
    "oracle.fallback_share": ("ratio", "lower"),
    "oracle.fallback_time_share": ("ratio", "lower"),
    "oracle.scalar_calls": ("count/op", "lower"),
    "oracle.scalar_s": ("s/op", "lower"),
    "oracle.cov_builds": ("count/op", "lower"),
    "oracle.cov_build_s": ("s/op", "lower"),
    "gaussian.calls": ("count/op", "lower"),
    "gaussian.busy_s": ("s/op", "lower"),
    "audit.draws": ("count/op", "lower"),
    "audit.busy_s": ("s/op", "lower"),
    "audit.self_s": ("s/op", "lower"),
    "audit.tol_used": ("ratio", "lower"),
    "discrete.supinf_calls": ("count/op", "lower"),
    "discrete.supinf_s": ("s/op", "lower"),
    "discrete.evaluations": ("count/op", "lower"),
    "discrete.rate_evals": ("count/op", "lower"),
    "discrete.rate_eval_us": ("us/call", "lower"),
    "discrete.joint_s": ("s/op", "lower"),
    "discrete.mi_s": ("s/op", "lower"),
    "discrete.grid_build_s": ("s/op", "lower"),
    "discrete.self_s": ("s/op", "lower"),
    "trace.ops_per_s": ("op/s", "higher"),
    "trace.spans_per_op": ("count/op", "lower"),
}


class Tracer:
    """Wraps package functions and records one span per call."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = [("bench", "op")]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.current_op = -1
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def install(self, specs=SPECS) -> None:
        """Wrap every spec'd function the imported package still has.

        A name missing from its module is listed in ``absent`` and skipped.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wiretap_rates"
                                         or n.startswith("wiretap_rates."))]
        for layer, func, measure in specs:
            module = sys.modules.get(f"wiretap_rates.{layer}")
            original = getattr(module, func, None)
            if not callable(original):
                self.absent.append(f"{layer}.{func}")
                continue
            self.names.append((layer, func))
            wrapper = self._wrap(original, len(self.names) - 1, measure)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, fn, nid: int, measure):
        clock = time.perf_counter
        end, value, stack = self.end, self.value, self._stack
        add_name, add_parent, add_op = (self.name_id.append, self.parent.append,
                                        self.op.append)
        add_start, add_end, add_value = (self.start.append, self.end.append,
                                         self.value.append)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer.current_op)
            add_end(0.0)
            add_value(0)
            stack.append(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                value[i] = measure(args, kwargs, result)
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        """Open the root span of op ``op_id``; the calls it makes nest under it."""
        self.current_op = op_id
        self._stack.append(len(self.end))
        for column, v in ((self.name_id, 0), (self.parent, -1), (self.op, op_id),
                          (self.end, 0.0), (self.value, 0)):
            column.append(v)
        self.start.append(time.perf_counter())

    def end_op(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter()
        self.current_op = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, with the name table, as an uncompressed .npz."""
        np.savez(path, names=np.array([f"{l}.{f}" for l, f in self.names]),
                 **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, per op where the unit says so.

    Spans with op id -1 belong to set-up; only ``cli.load_config_s`` reads
    them.  A function absent from the package contributes nothing.
    """
    a = tracer.arrays()
    nid, parent, op = a["name_id"], a["parent"], a["op"]
    start, end, value = a["start"], a["end"], a["value"]
    dur = end - start
    ids = {f"{l}.{f}": i for i, (l, f) in enumerate(tracer.names)}
    layer_index = {name: i for i, name in enumerate(("bench",) + LAYERS)}
    layer_of_name = np.array([layer_index[l] for l, _ in tracer.names])
    layer = layer_of_name[nid]
    has_parent = parent >= 0
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    timed = op >= 0
    per_op = 1.0 / max(n_ops, 1)

    def named(*names: str) -> np.ndarray:
        want = [ids[n] for n in names if n in ids]
        return np.isin(nid, want) & timed

    def child_of(mask: np.ndarray) -> np.ndarray:
        return has_parent & mask[np.maximum(parent, 0)]

    def layer_busy(name: str) -> np.ndarray:
        """Entry spans of a layer: those whose parent is in another layer."""
        i = layer_index[name]
        return (layer == i) & (parent_layer != i) & timed

    def foreign_children(name: str) -> np.ndarray:
        i = layer_index[name]
        return child_of(layer == i) & (layer != i) & timed

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    load = np.isin(nid, [ids.get("cli.load_config", -1)]) & ~timed
    m["cli.load_config_s"] = float(dur[load].sum())
    m["cli.write_s"] = float(dur[named("cli.write_csv", "cli.render_svg")].sum()) * per_op

    # optimize: every search is one optimize_general call.
    search = named("optimize.optimize_general")
    grid = named("oracle.general_rate_terms_grid")
    axis = named("optimize.correlation_grid_axis")
    owner = _nearest_ancestor(parent, search)
    in_search_grid = grid & (owner >= 0)
    descent = in_search_grid & (value <= _DESCENT_MAX_POINTS)
    coarse = in_search_grid & ~descent
    first_descent = end.copy()
    np.minimum.at(first_descent, owner[descent], start[descent])
    split = np.minimum(first_descent, end)
    m["optimize.searches"] = float(search.sum()) * per_op
    m["optimize.evaluations"] = float(value[search].sum()) * per_op
    m["optimize.busy_s"] = float(dur[layer_busy("optimize")].sum()) * per_op
    m["optimize.coarse_s"] = float((split - start)[search].sum()) * per_op
    m["optimize.descent_s"] = float((end - split)[search].sum()) * per_op
    m["optimize.descent_calls"] = float(descent.sum()) * per_op
    m["optimize.self_s"] = (float(dur[layer_busy("optimize")].sum())
                            - float(dur[foreign_children("optimize")].sum())) * per_op
    axis_in_search = axis & (owner >= 0)
    m["optimize.valid_ratio"] = ratio(
        float(value[coarse].sum()),
        float((value[axis_in_search].astype(np.float64) ** 3).sum()),
    )

    # oracle: the grid route, its per-point fallback, and the scalar route.
    build_general = named("oracle.build_joint_covariance_general")
    fallback = build_general & child_of(grid)
    first_fallback = end.copy()
    np.minimum.at(first_fallback, parent[fallback], start[fallback])
    interior_end = np.minimum(first_fallback, end)
    grid_s = float(dur[grid].sum())
    grid_points = float(value[grid].sum())
    interior_s = float((interior_end - start)[grid].sum())
    m["oracle.grid_calls"] = float(grid.sum()) * per_op
    m["oracle.grid_points"] = grid_points * per_op
    m["oracle.grid_s"] = grid_s * per_op
    m["oracle.grid_ns_per_point"] = ratio(grid_s * 1e9, grid_points)
    m["oracle.interior_s"] = interior_s * per_op
    m["oracle.fallback_s"] = (grid_s - interior_s) * per_op
    m["oracle.fallback_points"] = float(fallback.sum()) * per_op
    m["oracle.fallback_share"] = ratio(float(fallback.sum()), grid_points)
    m["oracle.fallback_time_share"] = ratio(grid_s - interior_s, grid_s)
    scalar = named("oracle.rate_general_oracle", "oracle.rate_orthogonal_oracle",
                   "oracle.mi_gaussian") & (parent_layer != layer_index["oracle"])
    builds = named("oracle.build_joint_covariance_general",
                   "oracle.build_joint_covariance_orthogonal")
    m["oracle.scalar_calls"] = float(scalar.sum()) * per_op
    m["oracle.scalar_s"] = float(dur[scalar].sum()) * per_op
    m["oracle.cov_builds"] = float(builds.sum()) * per_op
    m["oracle.cov_build_s"] = float(dur[builds].sum()) * per_op

    gauss = layer_busy("gaussian")
    m["gaussian.calls"] = float(gauss.sum()) * per_op
    m["gaussian.busy_s"] = float(dur[gauss].sum()) * per_op

    audit_busy = float(dur[layer_busy("audit")].sum())
    m["audit.draws"] = float(named("audit.draw_orthogonal_params",
                                   "audit.draw_general_params").sum()) * per_op
    m["audit.busy_s"] = audit_busy * per_op
    m["audit.self_s"] = (audit_busy - float(dur[foreign_children("audit")].sum())) * per_op

    supinf = named("discrete.sup_inf_rate")
    rate = named("discrete.rate_dm_fixed")
    builders = ("discrete.simplex_grid", "discrete.legitimate_input_grid",
                "discrete.eavesdropper_input_grid")
    grid_build = named(*builders) & ~child_of(named(*builders))
    m["discrete.supinf_calls"] = float(supinf.sum()) * per_op
    m["discrete.supinf_s"] = float(dur[supinf].sum()) * per_op
    m["discrete.evaluations"] = float(value[supinf].sum()) * per_op
    m["discrete.rate_evals"] = float(rate.sum()) * per_op
    m["discrete.rate_eval_us"] = ratio(float(dur[rate].sum()) * 1e6, float(rate.sum()))
    m["discrete.joint_s"] = float(dur[named("discrete.joint_distribution")].sum()) * per_op
    m["discrete.mi_s"] = float(dur[named("discrete.mutual_info_discrete")].sum()) * per_op
    m["discrete.grid_build_s"] = float(dur[grid_build].sum()) * per_op
    # The search loop itself: sup_inf_rate minus the calls it makes.
    m["discrete.self_s"] = (float(dur[supinf].sum())
                            - float(dur[child_of(supinf)].sum())) * per_op

    m["trace.spans_per_op"] = float(timed.sum()) * per_op
    return m


def _nearest_ancestor(parent: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index of each span's nearest proper ancestor in ``target``, else -1."""
    anc = parent.copy()
    while True:
        climb = (anc >= 0) & ~target[np.maximum(anc, 0)]
        if not climb.any():
            return anc
        anc[climb] = parent[anc[climb]]
