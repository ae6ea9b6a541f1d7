"""Command-line interface: point evaluations, sweeps, audits, DM search.

Scenario configs are JSON with a ``kind`` selecting the model and blocks of
dataclass fields; unknown keys anywhere are rejected.  Exit codes: 0 on
success, 1 on usage errors and configuration problems (including parameters
a sweep takes out of their domain and searches over their evaluation
budget), 2 when a numerical audit fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import reprlib
import sys
from dataclasses import dataclass, fields, replace
from importlib.resources import files
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

from .audit import (
    DEFAULT_DRAWS,
    DEFAULT_SEED,
    format_report,
    rows_to_csv,
    run_audit,
)
from .core import DomainError, GridBudgetError, RateBreakdown
from .discrete import DEFAULT_MAX_EVALUATIONS, DMChannel, sup_inf_rate
from .gaussian import (
    GeneralGaussianParams,
    OrthogonalGaussianParams,
    rate_noncolluding,
    rate_orthogonal,
    rate_perfectcolluding,
)
from .optimize import OptimizationResult, SearchConfig, optimize_general

__all__ = [
    "ConfigError",
    "MAX_AUDIT_DRAWS",
    "MAX_SWEEP_ROWS",
    "ScenarioConfig",
    "load_config",
    "sweep_values",
    "sweep_table",
    "write_csv",
    "render_svg",
    "main",
]

#: Largest number of rows a sweep may ask for.
MAX_SWEEP_ROWS = 100_000

#: Most draws an audit may ask for, at about 0.6 KB each: peak RSS is 37 MB at
#: one draw and 99 MB at 100,000 (102-103 MB with --out or --verbose, which
#: stream their lines).
MAX_AUDIT_DRAWS = 100_000


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


_SHOWN_CHARS = 80
_SHORT_REPR = reprlib.Repr()
_SHORT_REPR.maxstring = _SHORT_REPR.maxother = _SHORT_REPR.maxlong = _SHOWN_CHARS


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, cut to at most 80 characters;
    a huge or deeply nested value is never expanded whole."""
    text = _SHORT_REPR.repr(value)
    if len(text) > _SHOWN_CHARS:
        text = text[:_SHOWN_CHARS - 3] + "..."
    return text


@dataclass(frozen=True)
class SweepSettings:
    parameter: str = "P_l"
    start: float = 0.0
    stop: float = 20.0
    step: float = 0.2

    def __post_init__(self) -> None:
        for name in ("start", "stop", "step"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"sweep {name} must be finite, got {v!r}")
        if self.step <= 0.0:
            raise ConfigError(f"sweep step must be positive, got {self.step!r}")
        if self.stop < self.start:
            raise ConfigError("sweep stop must be >= start")
        # Compared before rounding down: the quotient can overflow to inf.
        if _row_span(self) >= MAX_SWEEP_ROWS:
            raise ConfigError(
                f"sweep asks for more than {MAX_SWEEP_ROWS} rows "
                f"({self.start!r} to {self.stop!r} in steps of {self.step!r})"
            )


def _row_span(sweep: SweepSettings) -> float:
    # Rows after the first, before rounding down; the slack tolerates float
    # drift.
    return (sweep.stop - sweep.start) / sweep.step + 1e-6


@dataclass(frozen=True)
class DMSettings:
    channel_file: str
    grid_resolution: float
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS

    def __post_init__(self) -> None:
        if self.max_evaluations < 1:
            raise ConfigError(f"dm.max_evaluations must be at least 1, "
                              f"got {_shown(self.max_evaluations)}")


@dataclass(frozen=True)
class OutputSettings:
    csv: str | None = None
    svg: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    orthogonal: OrthogonalGaussianParams | None = None
    general: GeneralGaussianParams | None = None
    dm: DMSettings | None = None
    dm_channel: DMChannel | None = None
    sweep: SweepSettings | None = None
    optimizer: SearchConfig = SearchConfig()
    output: OutputSettings = OutputSettings()


#: Each kind's required blocks, which hold its model and the fields a sweep
#: may set, and its optional blocks.
_KINDS = {
    "orthogonal-gaussian": (("orthogonal",), ("sweep", "output")),
    "general-gaussian": (("orthogonal", "general"), ("sweep", "optimizer", "output")),
    "dm": (("dm",), ("sweep", "output")),
}

#: The dataclass of each block, in the order load_config builds them.
_BLOCK_TYPES = {
    "orthogonal": OrthogonalGaussianParams,
    "general": GeneralGaussianParams,
    "dm": DMSettings,
    "sweep": SweepSettings,
    "optimizer": SearchConfig,
    "output": OutputSettings,
}


def _check_value(block: str, key: str, annotation: str, value: object):
    """``value`` as its field's annotation asks: a finite number, an
    integer, a string, or an optional string."""
    where = f"{block}.{key}"
    if annotation in ("float", "int"):
        # Also false for nan, and compares an int of any size exactly.
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be a finite number, got {_shown(value)}")
        if annotation == "float":
            return float(value)
        # A JSON integer is kept exact: through a float, 2**53 + 1 reads as 2**53.
        if isinstance(value, float) and value != int(value):
            raise ConfigError(f"{where} must be an integer, got {_shown(value)}")
        return int(value)
    if isinstance(value, str) or (value is None and annotation == "str | None"):
        return value
    raise ConfigError(f"{where} must be a string, got {_shown(value)}")


def _build_dataclass(cls, raw: object, block: str):
    """Instantiate a config dataclass from a JSON object, strictly.

    Every key must name a field, every value must fit its field's
    annotation, and fields without defaults must be present.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"block '{block}' must be an object")
    spec_fields = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(spec_fields)
    if unknown:
        raise ConfigError(
            f"unknown key {_shown(sorted(unknown)[0])} in block '{block}'"
        )
    kwargs = {}
    for name, f in spec_fields.items():
        if name in raw:
            kwargs[name] = _check_value(block, name, f.type, raw[name])
        elif f.default is dataclasses.MISSING and \
                f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"block '{block}' is missing required key '{name}'")
    try:
        return cls(**kwargs)
    except (DomainError, TypeError) as exc:
        raise ConfigError(f"block '{block}': {exc}") from None


def _read_text(path, what: str) -> str:
    """The UTF-8 text of ``path``, a Path or a bundled resource."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not UTF-8 text: {exc}") from None


def _resolve_config_text(spec: str) -> tuple[str, object]:
    """Return the config text and the directory to resolve files against.

    ``spec`` is tried as a filesystem path first, then as the name of a
    bundled config (with or without the .json suffix).
    """
    p = Path(spec)
    if p.is_file():
        return _read_text(p, f"config '{spec}'"), p.parent
    root = files("wiretap_rates") / "configs"
    for name in (spec, spec + ".json"):
        cand = root / name
        if cand.is_file():
            return _read_text(cand, f"config '{spec}'"), root
    raise ConfigError(
        f"config '{spec}' is neither a file nor a bundled config name"
    )


def _load_channel(dm: DMSettings, base: object) -> DMChannel:
    what = f"channel file {_shown(dm.channel_file)}"
    try:
        p = Path(dm.channel_file)
        if not p.is_file():
            p = base / dm.channel_file  # type: ignore[operator]
            if not p.is_file():
                raise ConfigError(f"{what} not found")
    except OSError as exc:  # a name the file system refuses, e.g. too long
        raise ConfigError(f"{what}: {exc.strerror}") from None
    text = _read_text(p, what)
    try:
        return DMChannel.from_text(text)
    except DomainError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _swept_blocks(kind: str, name: str) -> list[str]:
    """The model blocks of ``kind`` with a float field ``name``: the blocks
    a sweep of ``name`` sets."""
    return [b for b in _KINDS[kind][0]
            if any(f.name == name and f.type == "float"
                   for f in fields(_BLOCK_TYPES[b]))]


def load_config(spec: str) -> ScenarioConfig:
    """Load and validate a scenario, from a path or a bundled name."""
    text, base = _resolve_config_text(spec)
    try:
        raw = json.loads(text)
    # ValueError also covers integers of more than 4300 digits.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config '{spec}' is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"kind must be one of {tuple(_KINDS)}, got {_shown(kind)}")
    required, optional = _KINDS[kind]
    unknown = set(raw) - {"kind", *required, *optional}
    if unknown:
        raise ConfigError(
            f"key {_shown(sorted(unknown)[0])} is not allowed for kind '{kind}'"
        )

    blocks = {}
    for name, cls in _BLOCK_TYPES.items():
        if name in raw:
            blocks[name] = _build_dataclass(cls, raw[name], name)
        elif name in required:
            raise ConfigError(f"kind '{kind}' requires the '{name}' block")
    channel = _load_channel(blocks["dm"], base) if "dm" in blocks else None
    sweep = blocks.get("sweep")
    if sweep is not None and not _swept_blocks(kind, sweep.parameter):
        raise ConfigError(
            f"sweep.parameter {_shown(sweep.parameter)} is not a float model field"
        )
    return ScenarioConfig(kind=kind, dm_channel=channel, **blocks)


# ---------------------------------------------------------------------------
# Evaluation helpers


def sweep_values(sweep: SweepSettings) -> list[float]:
    """start, start+step, ... through stop; the count tolerates float drift."""
    n = math.floor(_row_span(sweep)) + 1
    return [sweep.start + i * sweep.step for i in range(n)]


def _orthogonal_row(og: OrthogonalGaussianParams,
                    b: RateBreakdown) -> dict[str, float]:
    """The orthogonal-model rates, R_og read from its breakdown ``b``."""
    return {
        "R_nc": rate_noncolluding(og),
        "R_pc": rate_perfectcolluding(og),
        "R_og": b.secure_rate,
    }


def general_point(
    og: OrthogonalGaussianParams,
    gen: GeneralGaussianParams,
    cfg: SearchConfig,
) -> tuple[dict[str, float], OptimizationResult, OptimizationResult]:
    """All five rates at one point (worst-case correlations), and the two searches."""
    res_njg, res_g = optimize_general(gen, cfg)
    row = {
        **_orthogonal_row(og, rate_orthogonal(og)),
        "R_njg": res_njg.rate.secure_rate,
        "R_g": res_g.rate.secure_rate,
    }
    return row, res_njg, res_g


def _evaluate(cfg: ScenarioConfig) -> tuple[dict[str, float], object]:
    """The rates of the config's kind at its parameter point, by column, and
    what produced them: the SupInfResult, the R_njg and R_g searches, or the
    orthogonal breakdown."""
    if cfg.kind == "dm":
        dm = cfg.dm
        res = sup_inf_rate(cfg.dm_channel, dm.grid_resolution, dm.max_evaluations)
        return {"R_dm": res.rate}, res
    if cfg.kind == "general-gaussian":
        row, *searches = general_point(cfg.orthogonal, cfg.general, cfg.optimizer)
        return row, searches
    b = rate_orthogonal(cfg.orthogonal)
    return _orthogonal_row(cfg.orthogonal, b), b


def _at(cfg: ScenarioConfig, x: float) -> ScenarioConfig:
    """The scenario with the swept parameter set to ``x`` in every model
    block that has it."""
    name = cfg.sweep.parameter
    return replace(cfg, **{b: replace(getattr(cfg, b), **{name: x})
                           for b in _swept_blocks(cfg.kind, name)})


def sweep_table(
    cfg: ScenarioConfig,
) -> tuple[list[float], dict[str, list[float]]]:
    """The swept values, and each rate of the config's kind at every one."""
    xs = sweep_values(cfg.sweep)
    rows = [_evaluate(_at(cfg, x))[0] for x in xs]
    return xs, {c: [row[c] for row in rows] for c in rows[0]}


def _csv_text(param: str, xs: Sequence[float],
              table: dict[str, list[float]]) -> str:
    cols = list(table)
    lines = [",".join([param] + cols)]
    for i, x in enumerate(xs):
        lines.append(",".join(
            ["%.6f" % x] + ["%.6f" % table[c][i] for c in cols]
        ))
    return "\n".join(lines) + "\n"


def write_csv(path: str, param: str, xs: Sequence[float],
              table: dict[str, list[float]]) -> None:
    """Six-decimal CSV; first column named after the swept parameter."""
    Path(path).write_text(_csv_text(param, xs, table))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def render_svg(param: str, xs: Sequence[float],
               table: dict[str, list[float]], title: str) -> str:
    """Minimal self-contained line chart, one polyline per column."""
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 62.0, 20.0, 34.0, 48.0
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    y_hi = max((max(v) for v in table.values() if v), default=1.0)
    y_hi = y_hi * 1.05 if y_hi > 0.0 else 1.0

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + (1.0 - y / y_hi) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{ml}" y1="{mt + ph:.1f}" x2="{ml + pw:.1f}" '
                 f'y2="{mt + ph:.1f}" {axis}/>')
    parts.append(f'<line x1="{ml}" y1="{mt:.1f}" x2="{ml}" '
                 f'y2="{mt + ph:.1f}" {axis}/>')
    for i in range(6):
        xv = x_lo + (x_hi - x_lo) * i / 5.0
        yv = y_hi * i / 5.0
        parts.append(
            f'<line x1="{px(xv):.1f}" y1="{mt + ph:.1f}" x2="{px(xv):.1f}" '
            f'y2="{mt + ph + 4:.1f}" {axis}/>'
            f'<text x="{px(xv):.1f}" y="{mt + ph + 18:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 4:.1f}" y1="{py(yv):.1f}" x2="{ml:.1f}" '
            f'y2="{py(yv):.1f}" {axis}/>'
            f'<text x="{ml - 8:.1f}" y="{py(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{escape(param)}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">rate (bits/use)</text>'
    )
    for k, (name, ys) in enumerate(table.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * k
        parts.append(
            f'<rect x="{ml + pw - 86:.1f}" y="{ly - 9:.1f}" width="10" '
            f'height="10" fill="{color}"/>'
            f'<text x="{ml + pw - 72:.1f}" y="{ly:.1f}" '
            f'font-family="sans-serif" font-size="12">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _report(cfg: ScenarioConfig) -> int:
    """Print the rates at the config's parameter point and what each search
    found.  Prints nothing when the evaluation fails."""
    row, res = _evaluate(cfg)
    print(f"kind: {cfg.kind}")
    if cfg.kind == "dm":
        print(f"sup-inf rate        = {res.rate:.6f}")
        print(f"refined inner check = {res.refined_rate:.6f}")
        print(f"evaluations         = {res.evaluations}")
        print("r_star (x_l | x_1e, x_2e):")
        for i1 in range(res.r_star.r.shape[1]):
            for i2 in range(res.r_star.r.shape[2]):
                col = ", ".join(f"{v:.4f}" for v in res.r_star.r[:, i1, i2])
                print(f"  context ({i1},{i2}): [{col}]")
        q = ", ".join(f"{v:.4f}" for v in res.q_star.q.ravel())
        print(f"q_star (x_1e, x_2e): [{q}]")
        return 0
    notes = {}
    if cfg.kind == "orthogonal-gaussian":
        notes["R_og"] = (f"  (main {res.main_rate:.6f}, joint leak "
                         f"{res.leak_joint:.6f}, single leaks "
                         f"{res.leak_single_1:.6f} / {res.leak_single_2:.6f})")
    for c, v in row.items():
        print(f"{c:5s} = {v:.6f}{notes.get(c, '')}")
    if cfg.kind == "general-gaussian":
        for label, search in zip(("R_njg", "R_g"), res):
            r = search.rho_star
            print(f"{label} worst-case rho = ({r.rho_1:+.4f}, {r.rho_2:+.4f}, "
                  f"{r.rho_12:+.4f})  evaluations={search.evaluations}"
                  + ("  [boundary]" if search.on_boundary else ""))
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    return _report(load_config(args.config))


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        if cfg.kind == "dm":
            raise ConfigError("kind 'dm' needs an explicit 'sweep' block")
        cfg = replace(cfg, sweep=SweepSettings())
    xs, table = sweep_table(cfg)
    param = cfg.sweep.parameter
    csv_path = args.out or cfg.output.csv
    svg_path = args.svg or cfg.output.svg
    if csv_path:
        write_csv(csv_path, param, xs, table)
        print(f"wrote {csv_path} ({len(xs)} rows)")
    if svg_path:
        Path(svg_path).write_text(
            render_svg(param, xs, table, f"secrecy rates vs {param}")
        )
        print(f"wrote {svg_path}")
    if not csv_path and not svg_path:
        print(_csv_text(param, xs, table), end="")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if not 1 <= args.draws <= MAX_AUDIT_DRAWS:
        raise ConfigError(
            f"audit --draws must lie in [1, {MAX_AUDIT_DRAWS}], got {_shown(args.draws)}"
        )
    report = run_audit(args.seed, args.draws)
    if args.out:
        with open(args.out, "w") as out:
            rows_to_csv(report, out)
        print(f"wrote {args.out} ({report.row_count} rows)")
    format_report(report, sys.stdout, verbose=args.verbose)
    return 0 if report.passed else 2


def _cmd_dm(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.kind != "dm":
        raise ConfigError(f"the dm subcommand needs kind 'dm', got '{cfg.kind}'")
    return _report(cfg)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's 2 is a failed audit here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="wiretap-rates",
        description="Secrecy rates for wiretap channels with constrained "
                    "colluding eavesdroppers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="evaluate one parameter point")
    p.add_argument("--config", required=True,
                   help="path to a scenario JSON, or a bundled config name")
    p.set_defaults(fn=_cmd_point)

    s = sub.add_parser("sweep", help="sweep a parameter, write CSV/SVG")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="override the output.csv path")
    s.add_argument("--svg", help="override the output.svg path")
    s.set_defaults(fn=_cmd_sweep)

    a = sub.add_parser("audit", help="closed forms vs covariance cross-check")
    a.add_argument("--seed", type=int, default=DEFAULT_SEED)
    a.add_argument("--draws", type=int, default=DEFAULT_DRAWS)
    a.add_argument("--out", help="write the per-draw rows as CSV")
    a.add_argument("--verbose", action="store_true")
    a.set_defaults(fn=_cmd_audit)

    d = sub.add_parser("dm", help="discrete sup-inf rate from a channel file")
    d.add_argument("--config", required=True)
    d.set_defaults(fn=_cmd_dm)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except GridBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
