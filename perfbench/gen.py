#!/usr/bin/env python3
"""Seeded inputs for the benchmark workloads.

The program only ever sees the files written here: scenario configs and
``.dmc`` channel files.  Each file-based workload draws from a fixed pool of
inputs, and the seed picks which pool entries run and in what order.  A pool
entry depends on its index alone, so the reference outputs stored in
``refs/`` cover every seed.

``write_inputs(workload, seed, out)`` writes the inputs and a
``manifest.json`` listing the ops, each with the command-line arguments it
passes to ``wiretap_rates.cli.main``, in run order.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIG3A = SRC / "wiretap_rates" / "configs" / "fig3a.json"

WORKLOADS = ("sweep-fig3a", "point-fine", "audit", "dm-noisy")

POINT_POOL = 24
DM_POOL = 32
# Sup-inf grid step 1/3: 256 outer x 20 inner laws plus an 84-law recheck.
DM_GRID_RESOLUTION = 1.0 / 3.0
POINT_RESOLUTION = 0.01
AUDIT_DRAWS = 1000


def _order(seed: int, n: int) -> list[int]:
    return random.Random(f"order:{seed}").sample(range(n), n)


def point_params(k: int) -> dict[str, float]:
    """Shared-band parameters of pool scenario k.

    Weak jamming gains and a legitimate link stronger than either listening
    link keep every worst-case rate above zero, so descent accepts moves.
    """
    u = random.Random(f"point-fine:{k}").uniform
    return {
        "h_l": u(1.2, 2.0),
        "h_1e_l": u(0.05, 0.25),
        "h_2e_l": u(0.05, 0.25),
        "h_l_1e": u(0.3, 0.7),
        "h_l_2e": u(0.3, 0.7),
        "h_2e_1e": u(0.2, 0.6),
        "h_1e_2e": u(0.2, 0.6),
        "P_l": u(1.0, 4.0),
        "P_1e": u(0.5, 2.0),
        "P_2e": u(0.5, 2.0),
        "N_l": u(0.8, 1.2),
        "N_1e": u(0.8, 1.2),
        "N_2e": u(0.8, 1.2),
    }


def point_config(k: int) -> dict:
    g = point_params(k)
    # The orthogonal block is required by the config schema and feeds the
    # R_nc / R_pc / R_og columns; it mirrors the shared-band links.
    orthogonal = {
        "h_l": g["h_l"], "h_1m": g["h_l_1e"], "h_2m": g["h_l_2e"],
        "h_1c": g["h_2e_1e"], "h_2c": g["h_1e_2e"],
        "P_l": g["P_l"], "P_1e": g["P_1e"], "P_2e": g["P_2e"],
        "N_l": g["N_l"], "N_1e_m": g["N_1e"], "N_2e_m": g["N_2e"],
        "N_1e_c": g["N_1e"], "N_2e_c": g["N_2e"],
    }
    return {
        "kind": "general-gaussian",
        "general": g,
        "orthogonal": orthogonal,
        "optimizer": {
            "coarse_resolution": POINT_RESOLUTION,
            "refine_iterations": 3,
            "refine_shrink": 0.2,
            "tolerance": 1e-6,
        },
    }


def dm_channel_text(k: int) -> str:
    """Pool channel k: BSC listening links and BSC collusion taps, 2x2x2 inputs.

    The main link is much cleaner than either listening link, so the sup-inf
    rate stays above zero; the taps let each eavesdropper hear the other.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    from wiretap_rates.discrete import build_orthogonal_dm

    u = random.Random(f"dm-noisy:{k}").uniform
    p_main, p_1, p_2 = u(0.01, 0.1), u(0.2, 0.4), u(0.2, 0.4)
    t_1, t_2 = u(0.05, 0.45), u(0.05, 0.45)

    def bsc(p: float):
        return np.array([[1.0 - p, p], [p, 1.0 - p]])

    main = np.einsum("al,bl,cl->abcl", bsc(p_main), bsc(p_1), bsc(p_2))
    # collusion[y_1c, y_2c, x_1e, x_2e]: eavesdropper 1 hears x_2e, 2 hears x_1e.
    collusion = np.einsum("ab,cd->acdb", bsc(t_1), bsc(t_2))
    return build_orthogonal_dm(main, collusion).to_text()


def dm_config(channel_file: str) -> dict:
    return {
        "kind": "dm",
        "dm": {
            "channel_file": channel_file,
            "grid_resolution": DM_GRID_RESOLUTION,
            "max_evaluations": 2_000_000,
        },
    }


def fig3a_rows() -> int:
    """Rows of the full fig3a sweep, counted as the program counts them."""
    sweep = json.loads(FIG3A.read_text())["sweep"]
    return int(math.floor((sweep["stop"] - sweep["start"]) / sweep["step"] + 1e-6)) + 1


def fig3a_point_config(row: int, out_dir: Path) -> dict:
    """The bundled fig3a config narrowed to the single P_l value of one row."""
    cfg = json.loads(FIG3A.read_text())
    sweep = cfg["sweep"]
    x = sweep["start"] + row * sweep["step"]  # the value the full sweep computes
    cfg["sweep"] = {**sweep, "start": x, "stop": x}
    cfg["output"] = {"csv": str(out_dir / "sweep.csv"), "svg": str(out_dir / "sweep.svg")}
    return cfg


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one run into ``out`` and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    if workload == "sweep-fig3a":
        for row in _order(seed, fig3a_rows()):
            path = out / f"fig3a-{row:03d}.json"
            path.write_text(json.dumps(fig3a_point_config(row, out), indent=1))
            ops.append({"argv": ["sweep", "--config", str(path)], "config": str(path),
                        "row": row, "csv": str(out / "sweep.csv")})
    elif workload == "point-fine":
        for k in _order(seed, POINT_POOL):
            path = out / f"point-{k:02d}.json"
            path.write_text(json.dumps(point_config(k), indent=1))
            ops.append({"argv": ["point", "--config", str(path)], "config": str(path),
                        "scenario": k})
    elif workload == "dm-noisy":
        for k in _order(seed, DM_POOL):
            name = f"channel-{k:02d}.dmc"
            (out / name).write_text(dm_channel_text(k))
            path = out / f"dm-{k:02d}.json"
            path.write_text(json.dumps(dm_config(name), indent=1))
            ops.append({"argv": ["dm", "--config", str(path)], "config": str(path),
                        "channel": k})
    elif workload == "audit":
        # The audit takes no input file: every op is the same command, the
        # default seed's first AUDIT_DRAWS draws (see README.md).
        ops = [{"argv": ["audit", "--draws", str(AUDIT_DRAWS)]}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest

