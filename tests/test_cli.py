import ast
import functools
import importlib
import json
import re
import threading
import xml.etree.ElementTree as ET
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from refpoints import GEN_POINT, POOL_POINTS
from wiretap_rates import cli, optimize
from wiretap_rates.audit import AuditReport, AuditRng, AuditTable, draw_general_params
from wiretap_rates.cli import (
    ConfigError,
    SweepSettings,
    load_config,
    main,
    render_svg,
    sweep_values,
    write_csv,
)
from wiretap_rates.core import MAX_GRID_POINTS, DomainError, GridBudgetError
from wiretap_rates.gaussian import orthogonal_rates, strip_jamming
from wiretap_rates.optimize import optimize_general
from wiretap_rates.oracle import general_rate_terms_grid

ORTHO_BLOCK = {
    "h_l": 1.0, "h_1m": 0.8, "h_2m": 0.6, "h_1c": 0.5, "h_2c": 0.7,
    "P_l": 4.0, "P_1e": 2.0, "P_2e": 3.0,
    "N_l": 1.0, "N_1e_m": 1.0, "N_2e_m": 1.5, "N_1e_c": 0.8, "N_2e_c": 1.2,
}

GENERAL_BLOCK = {
    "h_l": 1.0, "h_1e_l": 0.5, "h_2e_l": -0.4, "h_l_1e": 0.9, "h_l_2e": 0.7,
    "h_2e_1e": 0.3, "h_1e_2e": 0.6,
    "P_l": 4.0, "P_1e": 2.0, "P_2e": 3.0,
    "N_l": 1.0, "N_1e": 0.8, "N_2e": 1.2,
}


def write_config(tmp_path: Path, payload: dict, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def ortho_config(tmp_path: Path, **extra) -> str:
    payload = {"kind": "orthogonal-gaussian", "orthogonal": ORTHO_BLOCK}
    payload.update(extra)
    return write_config(tmp_path, payload)


def test_load_bundled_configs_by_name():
    for name in ("fig3a", "fig3b.json", "dm_bsc"):
        cfg = load_config(name)
        assert cfg.kind in ("general-gaussian", "dm")
    assert load_config("fig3a").general is not None
    assert load_config("dm_bsc").dm_channel is not None


def test_load_config_rejects_unknown_kind(tmp_path):
    path = write_config(tmp_path, {"kind": "quantum"})
    with pytest.raises(ConfigError, match="kind"):
        load_config(path)


def test_load_config_rejects_unknown_block(tmp_path):
    path = write_config(
        tmp_path,
        {"kind": "orthogonal-gaussian", "orthogonal": ORTHO_BLOCK, "general": GENERAL_BLOCK},
    )
    with pytest.raises(ConfigError, match="not allowed"):
        load_config(path)


def test_load_config_rejects_unknown_key_in_block(tmp_path):
    block = dict(ORTHO_BLOCK, h_3m=1.0)
    path = write_config(tmp_path, {"kind": "orthogonal-gaussian", "orthogonal": block})
    with pytest.raises(ConfigError, match="h_3m"):
        load_config(path)


def test_load_config_requires_model_block(tmp_path):
    path = write_config(tmp_path, {"kind": "general-gaussian", "general": GENERAL_BLOCK})
    with pytest.raises(ConfigError, match="orthogonal"):
        load_config(path)


def test_load_config_rejects_missing_key(tmp_path):
    block = dict(ORTHO_BLOCK)
    del block["N_l"]
    path = write_config(tmp_path, {"kind": "orthogonal-gaussian", "orthogonal": block})
    with pytest.raises(ConfigError, match="N_l"):
        load_config(path)


def dm_config(tmp_path: Path, **dm) -> str:
    (tmp_path / "ch.dmc").write_text(
        (files("wiretap_rates") / "configs" / "bsc_degraded.dmc").read_text()
    )
    return write_config(tmp_path, {
        "kind": "dm",
        "dm": {"channel_file": "ch.dmc", "grid_resolution": 0.1, **dm},
    })


def assert_one_line_error(capsys, prefix: str) -> None:
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(prefix), err


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("orthogonal", "P_l", "four"),
        ("orthogonal", "P_l", True),
        ("dm", "max_evaluations", float("nan")),
        ("dm", "max_evaluations", float("inf")),
        ("dm", "max_evaluations", 10 ** 400),
        ("optimizer", "refine_iterations", float("inf")),
        ("optimizer", "tolerance", float("nan")),
    ],
    ids=["string", "bool", "nan-integer", "infinite-integer", "huge-integer",
         "infinite-iterations", "nan-tolerance"],
)
def test_load_config_rejects_non_numeric_field(tmp_path, capsys, block, key, value):
    if block == "dm":
        path = dm_config(tmp_path, **{key: value})
    else:
        payload = {
            "kind": "general-gaussian",
            "orthogonal": ORTHO_BLOCK,
            "general": GENERAL_BLOCK,
            "optimizer": {"coarse_resolution": 0.5},
        }
        payload[block] = {**payload[block], key: value}
        path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["point", "--config", path]) == 1
    assert_one_line_error(capsys, "config error")


def test_load_config_rejects_invalid_sweep(tmp_path):
    path = ortho_config(
        tmp_path,
        sweep={"parameter": "bogus", "start": 0.0, "stop": 1.0, "step": 0.5},
    )
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)
    path = ortho_config(
        tmp_path,
        sweep={"parameter": "P_l", "start": 1.0, "stop": 0.0, "step": 0.5},
    )
    with pytest.raises(ConfigError, match="stop"):
        load_config(path)


@pytest.mark.parametrize("kind, parameter", [
    ("orthogonal-gaussian", "__doc__"),
    ("orthogonal-gaussian", "__post_init__"),
    ("dm", "channel_file"),
    ("dm", "max_evaluations"),
])
def test_sweep_of_a_non_numeric_field_is_config_error(tmp_path, capsys, kind, parameter):
    sweep = {"parameter": parameter, "start": 0.1, "stop": 0.2, "step": 0.1}
    if kind == "dm":
        path = dm_config(tmp_path)
        payload = json.loads(Path(path).read_text())
        path = write_config(tmp_path, {**payload, "sweep": sweep})
    else:
        path = ortho_config(tmp_path, sweep=sweep)
    with pytest.raises(ConfigError, match=parameter):
        load_config(path)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    assert_one_line_error(capsys, "config error")
    assert not (tmp_path / "x.csv").exists()


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(p))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("no_such_config_anywhere")


def test_sweep_values_counts():
    assert len(sweep_values(SweepSettings("P_l", 0.0, 20.0, 0.2))) == 101
    assert sweep_values(SweepSettings("P_l", 3.0, 3.0, 1.0)) == [3.0]
    vals = sweep_values(SweepSettings("P_l", 0.0, 1.0, 0.3))
    assert vals == pytest.approx([0.0, 0.3, 0.6, 0.9])


def test_write_csv_format(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(str(out), "P_l", [0.0, 1.0], {"R_nc": [0.5, 0.25], "R_og": [0.125, 0.0]})
    lines = out.read_text().splitlines()
    assert lines[0] == "P_l,R_nc,R_og"
    assert lines[1] == "0.000000,0.500000,0.125000"
    assert len(lines) == 3


def test_render_svg_structure():
    xs = [0.0, 1.0, 2.0]
    table = {"R_nc": [0.1, 0.2, 0.3], "R_og": [0.0, 0.1, 0.2]}
    svg = render_svg("P_l", xs, table, "title")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == len(table)


def test_render_svg_escapes_markup_in_title_and_names():
    # &, < and > are escaped; quotes are plain text inside an element.
    marks = "&<>\"'"
    svg = render_svg("P" + marks, [0.0, 1.0], {"R" + marks: [0.1, 0.2]}, "t" + marks)
    texts = re.findall(r">([^<>]*)</text>", svg)
    escaped = "&amp;&lt;&gt;\"'"
    assert [texts[0], *texts[-3:]] == \
        ["t" + escaped, "P" + escaped, "rate (bits/use)", "R" + escaped]


def test_point_command_orthogonal(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "orthogonal_rates",
                        lambda og: calls.append(og) or orthogonal_rates(og))
    rc = main(["point", "--config", ortho_config(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "R_og" in out and "R_nc" in out
    assert len(calls) == 1  # the printed breakdown is the one R_og comes from


def test_point_command_general(tmp_path, capsys):
    path = write_config(tmp_path, {
        "kind": "general-gaussian",
        "orthogonal": ORTHO_BLOCK,
        "general": GENERAL_BLOCK,
        "optimizer": {"coarse_resolution": 0.5, "refine_iterations": 1},
    })
    rc = main(["point", "--config", path])
    assert rc == 0
    out = capsys.readouterr().out
    for col in ("R_nc", "R_pc", "R_og", "R_njg", "R_g"):
        assert col in out
    assert "worst-case rho" in out


def test_sweep_command_writes_deterministic_csv_and_svg(tmp_path, capsys):
    path = ortho_config(
        tmp_path,
        sweep={"parameter": "P_l", "start": 0.5, "stop": 2.5, "step": 1.0},
    )
    csv1 = tmp_path / "a.csv"
    svg1 = tmp_path / "a.svg"
    rc = main(["sweep", "--config", path, "--out", str(csv1), "--svg", str(svg1)])
    assert rc == 0
    lines = csv1.read_text().splitlines()
    assert lines[0] == "P_l,R_nc,R_pc,R_og"
    assert len(lines) == 4
    ET.parse(svg1)  # well-formed XML
    csv2 = tmp_path / "b.csv"
    main(["sweep", "--config", path, "--out", str(csv2)])
    assert csv1.read_bytes() == csv2.read_bytes()
    capsys.readouterr()


def test_fig3a_hl2_sweep_equals_its_committed_csv(tmp_path, capsys):
    # With h_l = 2 every column is positive on 99 of 101 rows, so a weaker
    # search (no descent, or a coarser grid) moves 100 of them; fig3a and
    # fig3b are 0 everywhere and cannot show it.
    csv, svg = tmp_path / "fig3a_hl2.csv", tmp_path / "fig3a_hl2.svg"
    assert main(["sweep", "--config", "fig3a_hl2",
                 "--out", str(csv), "--svg", str(svg)]) == 0
    assert csv.read_bytes() == Path(__file__).with_name("fig3a_hl2.csv").read_bytes()
    capsys.readouterr()


def test_fig3a_hl2_point_at_0_01_equals_its_committed_stdout(capsys, evaluation_counts):
    # The committed config is the bundled fig3a_hl2 at coarse_resolution
    # 0.01, where each walk stops after a few of its chunks of lines.  Each
    # search's evaluations= is the count of valid triples it evaluated,
    # counted here apart from the search.
    here = Path(__file__).parent
    config = here / "fig3a_hl2_fine.json"
    fine, bundled = load_config(str(config)), load_config("fig3a_hl2")
    assert (fine.general, fine.orthogonal) == (bundled.general, bundled.orthogonal)
    assert fine.optimizer == replace(bundled.optimizer, coarse_resolution=0.01)
    assert main(["point", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (here / "fig3a_hl2_fine_point.txt").read_bytes()
    assert [int(n) for n in re.findall(r"evaluations=(\d+)", out)] == evaluation_counts


def test_fig3a_point_equals_its_committed_stdout(capsys, evaluation_counts):
    # Every fig3a rate is 0, so neither search runs a descent: each
    # evaluations= counts the coarse chunks its walk evaluated.
    assert main(["point", "--config", "fig3a"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == Path(__file__).with_name("fig3a_point.txt").read_bytes()
    assert [int(n) for n in re.findall(r"evaluations=(\d+)", out)] == evaluation_counts


def test_sweep_command_defaults_to_config_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = ortho_config(
        tmp_path,
        sweep={"parameter": "P_l", "start": 0.0, "stop": 1.0, "step": 0.5},
        output={"csv": "from_config.csv"},
    )
    assert main(["sweep", "--config", path]) == 0
    assert (tmp_path / "from_config.csv").exists()
    capsys.readouterr()


def test_sweep_command_without_sweep_block_uses_default_grid(tmp_path, capsys):
    # default sweep is P_l over [0, 20] in steps of 0.2
    out = tmp_path / "d.csv"
    rc = main(["sweep", "--config", ortho_config(tmp_path), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 102
    capsys.readouterr()


def test_dm_sweep_emits_single_rate_column(tmp_path, capsys):
    from wiretap_rates.discrete import DMChannel
    from importlib.resources import files
    (tmp_path / "ch.dmc").write_text(
        (files("wiretap_rates") / "configs" / "bsc_degraded.dmc").read_text()
    )
    path = write_config(tmp_path, {
        "kind": "dm",
        "dm": {"channel_file": "ch.dmc", "grid_resolution": 0.1},
        "sweep": {"parameter": "grid_resolution", "start": 0.2,
                  "stop": 0.5, "step": 0.1},
    })
    out = tmp_path / "dm.csv"
    rc = main(["sweep", "--config", path, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "grid_resolution,R_dm"
    assert len(lines) == 5
    capsys.readouterr()


def point_rates(out: str) -> dict[str, str]:
    """The six-decimal rates a ``point`` report prints, by CSV column; the
    dm kind's one rate is its sup-inf rate."""
    out = out.replace("sup-inf rate", "R_dm")
    return dict(re.findall(r"^(R_\w+) += (\S+)", out, flags=re.MULTILINE))


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "dm_bsc", "orthogonal"])
def test_point_equals_one_row_sweep_at_its_own_value(tmp_path, capsys, name):
    configs = files("wiretap_rates") / "configs"
    if name == "orthogonal":
        payload = {"kind": "orthogonal-gaussian", "orthogonal": ORTHO_BLOCK}
        block, parameter = "orthogonal", "P_l"
    elif name == "dm_bsc":
        payload = json.loads((configs / "dm_bsc.json").read_text())
        payload["dm"]["channel_file"] = str(configs / payload["dm"]["channel_file"])
        block, parameter = "dm", "grid_resolution"
    else:
        payload = json.loads((configs / f"{name}.json").read_text())
        del payload["output"]  # the sweep would write its SVG there
        block, parameter = "general", payload["sweep"]["parameter"]
    value = payload[block][parameter]
    payload["sweep"] = {"parameter": parameter, "start": value, "stop": value,
                        "step": 1.0}
    path = write_config(tmp_path, payload)
    assert main(["point", "--config", path]) == 0
    want = point_rates(capsys.readouterr().out)
    out = tmp_path / "row.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = out.read_text().splitlines()
    columns = header.split(",")[1:]
    assert columns == list(want)
    assert dict(zip(columns, row.split(",")[1:])) == want


def committed_dm_stdout(config: str) -> bytes:
    # Printed by the search that scored every pair of both grids.
    return Path(__file__).with_name(f"{config}_dm.txt").read_bytes()


def test_dm_command_on_bundled_config(capsys):
    rc = main(["dm", "--config", "dm_bsc"])
    assert rc == 0
    assert capsys.readouterr().out.encode() == committed_dm_stdout("dm_bsc")


def test_dm_command_on_bundled_tap_config(capsys):
    rc = main(["dm", "--config", "dm_bsc_taps"])
    assert rc == 0
    assert capsys.readouterr().out.encode() == committed_dm_stdout("dm_bsc_taps")


def test_dm_command_rejects_gaussian_config(tmp_path, capsys):
    rc = main(["dm", "--config", ortho_config(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_audit_command_writes_rows(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["audit", "--draws", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "draw,term,closed,oracle,abs_error"
    # 5 orthogonal + 9 general rows per draw
    assert len(lines) == 1 + 2 * 14
    assert "PASS" in capsys.readouterr().out


def test_audit_verbose_stdout_is_the_report_with_one_line_per_cell(tmp_path, capsys):
    assert main(["audit", "--draws", "3"]) == 0
    plain = capsys.readouterr().out.splitlines()
    rows = tmp_path / "rows.csv"
    assert main(["audit", "--draws", "3", "--verbose", "--out", str(rows)]) == 0
    wrote, *verbose = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote {rows} (42 rows)"
    cells = verbose[1:len(verbose) - len(plain) + 1]
    assert [verbose[0], *verbose[len(cells) + 1:]] == plain
    # One line per CSV row, in the CSV's order.
    assert [ln.split()[1:3] for ln in cells] == \
        [row.split(",")[:2] for row in rows.read_text().splitlines()[1:]]
    assert len(cells) == 42 and all(ln.endswith(" ok") for ln in cells)


def test_audit_command_failure_exit_code(monkeypatch, capsys):
    import wiretap_rates.cli as cli

    def fake(seed, draws):
        table = AuditTable(("orthogonal/main",), (True,),
                           np.array([[1.0]]), np.array([[2.0]]))
        return AuditReport(seed, draws, (table,))

    monkeypatch.setattr(cli, "run_audit", fake)
    rc = main(["audit", "--draws", "1"])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["point"],
    ["audit", "--draws", "x"],
    ["audit", "--rho2-both"],
    ["audit", "--config", "fig3a"],
    ["bogus"],
], ids=["point-without-config", "draws-not-an-integer", "rho2-both",
        "audit-config", "unknown-command"])
def test_usage_error_exits_one(capsys, argv):
    # 2 is the exit code of a failed audit.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--help"])
    assert exc.value.code == 0
    assert "--draws" in capsys.readouterr().out


def test_unreadable_output_path_is_io_error(tmp_path, capsys):
    path = ortho_config(
        tmp_path,
        sweep={"parameter": "P_l", "start": 0.0, "stop": 1.0, "step": 0.5},
    )
    rc = main(["sweep", "--config", path, "--out",
               str(tmp_path / "missing_dir" / "x.csv")])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep",
    [
        {"start": 0.0, "stop": 1.0, "step": float("nan")},
        {"start": 0.0, "stop": float("inf"), "step": 0.5},
        {"start": 0.0, "stop": 1e6, "step": 1e-3},
        {"start": -1.0, "stop": 1.0, "step": 0.5},
    ],
    ids=["nan-step", "infinite-stop", "too-many-rows", "P_l-out-of-domain"],
)
def test_sweep_bad_range_exits_with_one_line(tmp_path, capsys, sweep):
    path = write_config(tmp_path, {
        "kind": "general-gaussian",
        "orthogonal": ORTHO_BLOCK,
        "general": GENERAL_BLOCK,
        "sweep": dict(sweep, parameter="P_l"),
    })
    rc = main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(("config error", "domain error"))
    assert not (tmp_path / "x.csv").exists()


def test_dm_over_budget_exits_with_one_line(tmp_path, capsys):
    path = dm_config(tmp_path, grid_resolution=0.05, max_evaluations=3)
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(capsys, "budget error")


def test_dm_grid_count_too_long_to_print_exits_with_one_line(tmp_path, capsys):
    # A valid channel with 2x47x47 inputs: at step 0.01 its outer grid counts
    # 101^2209 laws, 4,428 digits, more than Python prints.
    (tmp_path / "ch.dmc").write_text("1 1 1 2 47 47\n" + "1.0\n" * 4418)
    path = write_config(tmp_path, {
        "kind": "dm",
        "dm": {"channel_file": "ch.dmc", "grid_resolution": 0.01},
    })
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(capsys, "budget error: sup-inf grid needs over 2000000 evaluations")


def test_dm_alphabet_sizes_too_long_to_multiply_out_are_config_error(tmp_path, capsys):
    # Six 800-digit sizes multiply to 4,800 digits, more than Python prints.
    (tmp_path / "ch.dmc").write_text(" ".join(["9" * 800] * 6) + "\n1.0\n")
    path = write_config(tmp_path, {
        "kind": "dm",
        "dm": {"channel_file": "ch.dmc", "grid_resolution": 0.1},
    })
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(capsys, "config error: channel file 'ch.dmc': channel text "
                                  "has 1 values, expected more than 2**63")


@pytest.mark.parametrize("budget", [MAX_GRID_POINTS + 1, 1e300], ids=["cap+1", "1e300"])
def test_dm_budget_above_the_cap_exits_with_one_line(tmp_path, capsys, budget):
    # Within the cap, this degraded channel at step 0.001 takes 1,002 evaluations.
    path = dm_config(tmp_path, grid_resolution=0.001, max_evaluations=budget)
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(
        capsys, f"budget error: max_evaluations may be at most {MAX_GRID_POINTS}")


@pytest.mark.parametrize("budget", [0, -3])
def test_dm_budget_below_one_is_config_error(tmp_path, capsys, budget):
    path = dm_config(tmp_path, max_evaluations=budget)
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(capsys, "config error: dm.max_evaluations must be at least 1")


@pytest.mark.parametrize(
    "command, resolution",
    [("point", 1e-4), ("point", 1e-320), ("dm", 1e-320)],
    ids=["point-1e-4", "point-1e-320", "dm-1e-320"],
)
def test_grid_over_budget_exits_with_one_line(tmp_path, capsys, command, resolution):
    if command == "dm":
        path = dm_config(tmp_path, grid_resolution=resolution)
    else:
        path = write_config(tmp_path, {
            "kind": "general-gaussian",
            "orthogonal": ORTHO_BLOCK,
            "general": GENERAL_BLOCK,
            "optimizer": {"coarse_resolution": resolution},
        })
    assert main([command, "--config", path]) == 1
    assert_one_line_error(capsys, "budget error")


@pytest.mark.parametrize(
    "kind, block, gain",
    [("orthogonal-gaussian", "orthogonal", g) for g in ("h_l", "h_1m", "h_2m", "h_1c", "h_2c")]
    + [("general-gaussian", "orthogonal", "h_1c"),
       ("general-gaussian", "general", "h_l_1e"), ("general-gaussian", "general", "h_l_2e")],
)
def test_gain_whose_square_overflows_exits_with_one_line(tmp_path, capsys, kind, block, gain):
    # The gain is finite, but Python raises OverflowError on its square.
    blocks = {"orthogonal": dict(ORTHO_BLOCK)}
    if kind == "general-gaussian":
        blocks.update(general=dict(GENERAL_BLOCK), optimizer={"coarse_resolution": 0.25})
    blocks[block][gain] = 1e200
    path = write_config(tmp_path, {"kind": kind, **blocks})
    assert main(["point", "--config", path]) == 1
    assert_one_line_error(
        capsys, f"domain error: gain {gain} = 1e+200 is too large: its square overflows")


@pytest.mark.parametrize("draws", ["0", "-3", "100001", "1000000000000"])
def test_audit_draws_out_of_range_exits_with_one_line(tmp_path, capsys, draws):
    out = tmp_path / "rows.csv"
    assert main(["audit", "--draws", draws, "--out", str(out)]) == 1
    assert_one_line_error(capsys, "config error")
    assert not out.exists()


def test_descent_over_budget_exits_before_the_grid(tmp_path, capsys, monkeypatch):
    from wiretap_rates import optimize

    def no_grid(resolution):
        raise AssertionError("coarse grid built before the descent budget check")

    monkeypatch.setattr(optimize, "correlation_grid_axis", no_grid)
    path = write_config(tmp_path, {
        "kind": "general-gaussian",
        "orthogonal": ORTHO_BLOCK,
        "general": GENERAL_BLOCK,
        "optimizer": {"refine_iterations": 1_000_000_000},
    })
    assert main(["point", "--config", path]) == 1
    assert_one_line_error(capsys, "budget error")


@pytest.mark.parametrize("iterations", [2 ** 53 + 1, 10 ** 30])
def test_integer_fields_keep_every_digit(tmp_path, capsys, iterations):
    # Read through a float, 2**53 + 1 became 2**53 and 10**30 was echoed as
    # 1000000000000000019884624838656.
    path = write_config(tmp_path, {
        "kind": "general-gaussian",
        "orthogonal": ORTHO_BLOCK,
        "general": GENERAL_BLOCK,
        "optimizer": {"refine_iterations": iterations},
    })
    assert load_config(path).optimizer.refine_iterations == iterations
    assert main(["point", "--config", path]) == 1
    assert_one_line_error(
        capsys, f"budget error: {iterations} refine iterations may take "
                f"{300 * iterations} descent evaluations, more than {MAX_GRID_POINTS}")


def test_nan_in_channel_file_is_config_error(tmp_path, capsys):
    path = dm_config(tmp_path)
    channel = tmp_path / "ch.dmc"
    channel.write_text(channel.read_text().replace("0.009", "nan", 1))
    with pytest.raises(ConfigError, match="ch.dmc"):
        load_config(path)
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(capsys, "config error")


@pytest.mark.parametrize("case", ["config-not-utf8", "channel-not-utf8",
                                  "config-too-deep", "kind-not-a-string",
                                  "integer-of-5001-digits"])
def test_malformed_config_file_exits_with_one_line(tmp_path, capsys, case):
    path = dm_config(tmp_path)
    if case == "config-not-utf8":
        Path(path).write_bytes(b"\xff" + Path(path).read_bytes())
    elif case == "channel-not-utf8":
        channel = tmp_path / "ch.dmc"
        channel.write_bytes(b"\xff" + channel.read_bytes())
    elif case == "config-too-deep":
        Path(path).write_text("[" * 100_000 + "]" * 100_000)
    elif case == "integer-of-5001-digits":
        # Past Python's limit on integer string conversion, so json.loads
        # raises a plain ValueError.
        text = Path(path).read_text()
        Path(path).write_text(text.replace('"grid_resolution"',
                                           '"max_evaluations": 1' + "0" * 5000
                                           + ', "grid_resolution"'))
    else:
        write_config(tmp_path, {"kind": []})
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["dm", "--config", path]) == 1
    assert_one_line_error(capsys, "config error")


# Config values an error message would echo: one huge and one deeply nested
# value, each in every place a config error quotes from the file.
_HUGE = "x" * 2_000_000
_DEEP = "[" * 950 + "1.0" + "]" * 950


@pytest.mark.parametrize("case", ["string-value", "nested-value", "block-key",
                                  "top-level-key", "kind", "sweep-parameter",
                                  "channel-file"])
def test_config_errors_echo_values_cut_short(tmp_path, capsys, case):
    payload = {
        "kind": "general-gaussian",
        "orthogonal": ORTHO_BLOCK,
        "general": GENERAL_BLOCK,
        "optimizer": {"coarse_resolution": 0.5},
    }
    if case == "string-value":
        payload["orthogonal"] = {**ORTHO_BLOCK, "P_l": _HUGE}
    elif case == "block-key":
        payload["orthogonal"] = {**ORTHO_BLOCK, _HUGE: 1.0}
    elif case == "top-level-key":
        payload[_HUGE] = 1.0
    elif case == "kind":
        payload["kind"] = _HUGE
    elif case == "sweep-parameter":
        payload["sweep"] = {"parameter": _HUGE}
    elif case == "channel-file":
        payload = json.loads(Path(dm_config(tmp_path)).read_text())
        payload["dm"]["channel_file"] = _HUGE
    path = write_config(tmp_path, payload)
    if case == "nested-value":
        text = Path(path).read_text()
        Path(path).write_text(text.replace('"P_l": 4.0', '"P_l": ' + _DEEP, 1))
    assert main(["point", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error"), err[:300]
    assert len(err) < 200, err
    if case in ("string-value", "nested-value"):
        assert "must be a finite number" in err


@pytest.mark.parametrize("error, prefix", [(GridBudgetError, "budget error"),
                                           (DomainError, "domain error")],
                         ids=["budget", "domain"])
@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_search_error_on_either_thread_propagates(tmp_path, capsys, monkeypatch,
                                                  failing, error, prefix):
    # Both searches of a point run one after the other on the calling
    # thread. The "worker" case fails the grid terms of the R_njg search,
    # whose parameters have jamming stripped; the "caller" case fails those
    # of the R_g search, after R_njg is done. Either error must reach the
    # caller unchanged, raised on the calling thread, with no thread started.
    message = f"the {failing} search failed"
    raised_on = []

    def fail(p, *args):
        if (p == strip_jamming(p)) == (failing == "worker"):
            raised_on.append(threading.current_thread())
            raise error(message)
        return general_rate_terms_grid(p, *args)

    monkeypatch.setattr(optimize, "general_rate_terms_grid", fail)
    path = write_config(tmp_path, {
        "kind": "general-gaussian",
        "orthogonal": ORTHO_BLOCK,
        "general": GENERAL_BLOCK,
        "optimizer": {"coarse_resolution": 0.25},
    })
    cfg = load_config(path)
    before = threading.active_count()
    with pytest.raises(error) as info:
        cli.general_point(cfg.orthogonal, cfg.general, cfg.optimizer)
    assert type(info.value) is error and str(info.value) == message
    assert threading.active_count() == before
    assert raised_on == [threading.main_thread()]

    assert main(["point", "--config", path]) == 1
    assert capsys.readouterr().err == f"{prefix}: {message}\n"
    assert threading.active_count() == before


def search_outcome(res):
    b = res.rate
    return (
        tuple(x.hex() for x in (b.main_rate, b.leak_joint, b.leak_single_1, b.leak_single_2)),
        tuple(x.hex() for x in res.rho_star.as_tuple()),
        res.on_boundary,
    )


def grid_search_alone(p, cfg):
    """minimize_rate on p's grid terms with the zero line bound, so every
    line of the grid is walked unless a rate is 0."""
    return optimize.minimize_rate(functools.partial(general_rate_terms_grid, p),
                                  lambda r1, r2: 0.0, cfg)


def test_point_searches_at_once_equal_searches_in_order(evaluation_counts):
    # general_point's R_njg and R_g searches skip the lines their bounds rule
    # out; each result must be, bit for bit, what the search of its grid
    # terms gives walking every line: R_njg on the grid of the parameters
    # with jamming stripped.  Each counts the triples it evaluated.  Where
    # the rate is positive the zero-bound walk evaluates every line, so the
    # walk by bound takes no more; where it is 0 both stop early, after
    # chunks of different lines.
    fig3a, fig3b = load_config("fig3a"), load_config("fig3b")
    rng = AuditRng(20241018)
    cases = [(fig3a.general, fig3a.optimizer), (fig3b.general, fig3b.optimizer),
             (GEN_POINT, fig3a.optimizer)]
    cases += [(draw_general_params(rng), fig3a.optimizer) for _ in range(3)]
    cases += [(gen, fig3a.optimizer) for gen in POOL_POINTS.values()]
    for gen, cfg in cases:
        row, res_njg, res_g = cli.general_point(fig3a.orthogonal, gen, cfg)
        assert (res_njg, res_g) == optimize_general(gen, cfg)
        alone_njg = grid_search_alone(strip_jamming(gen), cfg)
        alone_g = grid_search_alone(gen, cfg)
        assert search_outcome(res_njg) == search_outcome(alone_njg), gen
        assert search_outcome(res_g) == search_outcome(alone_g), gen
        searches = (res_njg, res_g, res_njg, res_g, alone_njg, alone_g)
        assert evaluation_counts[-6:] == [res.evaluations for res in searches], gen
        for res, alone in ((res_njg, alone_njg), (res_g, alone_g)):
            if res.rate.secure_rate > 0.0:
                assert res.evaluations <= alone.evaluations, gen
        assert (row["R_njg"], row["R_g"]) == (alone_njg.rate.secure_rate,
                                              alone_g.rate.secure_rate)


# Traced names the package no longer has, each missed by a refactor that
# deleted or renamed it.  The benchmark skips them and reports no value.
STALE_TRACED_NAMES = {
    "optimize.is_valid_correlation",
    "oracle.schur_conditional_variance",
    "gaussian.rate_nonjamming",
}


def test_every_name_the_benchmark_traces_exists_or_is_known_stale():
    # perfbench/spans.py is read as text, not imported: its SPECS name the
    # (layer, function) pairs whose calls the per-layer metrics time.
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "spans.py").read_text())
    (specs,) = [node.value for node in tree.body
                if isinstance(node, ast.AnnAssign) and node.target.id == "SPECS"]
    names = [(spec.elts[0].value, spec.elts[1].value) for spec in specs.elts]
    assert len(names) > 30
    absent = {f"{layer}.{func}" for layer, func in names
              if not callable(getattr(importlib.import_module(f"wiretap_rates.{layer}"), func, None))}
    assert absent <= STALE_TRACED_NAMES
