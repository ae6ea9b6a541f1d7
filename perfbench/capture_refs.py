#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/capture_refs.py

Runs every pool entry of gen.py through ``wiretap_rates.cli.main`` and
rewrites ``perfbench/refs/``.  The references pin today's outputs, so run
this only at a commit whose outputs are trusted, never to make a failing
benchmark pass.  Takes about three minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import gen
from workload import Tap, import_cli

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
WORK = gen.ROOT / ".perfbench_work" / "capture"


def quiet(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with code {code}")


def main() -> int:
    cli = import_cli()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    REFS.mkdir(exist_ok=True)
    try:
        # The full bundled sweep; each op of the workload must reproduce one row.
        quiet(cli, ["sweep", "--config", "fig3a", "--out", str(REFS / "fig3a.csv"),
                    "--svg", str(WORK / "fig3a.svg")])

        # Any seed's manifest lists the whole pool.
        tap = Tap(cli, "general_point")
        scenarios = {}
        pool = gen.write_inputs("point-fine", 0, WORK)["ops"]
        for op in sorted(pool, key=lambda op: op["scenario"]):
            k = op["scenario"]
            quiet(cli, op["argv"])
            row = tap.value[0]
            if min(row["R_njg"], row["R_g"]) <= 0.0:
                raise SystemExit(f"point-fine scenario {k} has a zero worst-case rate")
            scenarios[str(k)] = {"R_njg": row["R_njg"], "R_g": row["R_g"]}
            print(f"point-fine {k}: R_njg={row['R_njg']:.6f} R_g={row['R_g']:.6f}")
        # Criterion 9 of the acceptance suite: searches agree within 1e-3.
        (REFS / "point-fine.json").write_text(json.dumps(
            {"tolerance": 1e-3, "scenarios": scenarios}, indent=1) + "\n")

        tap = Tap(cli, "sup_inf_rate")
        channels = {}
        pool = gen.write_inputs("dm-noisy", 0, WORK)["ops"]
        for op in sorted(pool, key=lambda op: op["channel"]):
            k = op["channel"]
            quiet(cli, op["argv"])
            r = tap.value
            if r.rate <= 0.0:
                raise SystemExit(f"dm-noisy channel {k} has a zero sup-inf rate")
            channels[str(k)] = {"rate": r.rate, "refined_rate": r.refined_rate,
                                "r_star": r.r_star.r.tolist(),
                                "q_star": r.q_star.q.tolist()}
            print(f"dm-noisy {k}: rate={r.rate:.6f} refined={r.refined_rate:.6f}")
        (REFS / "dm-noisy.json").write_text(json.dumps(
            {"tolerance": 1e-12, "channels": channels}, indent=1) + "\n")

        # The audit passes when every required term is within AUDIT_TOL.
        (REFS / "audit.json").write_text(json.dumps({"tolerance": 1e-9}) + "\n")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
