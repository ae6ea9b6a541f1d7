#!/usr/bin/env python3
"""Benchmark of the wiretap-rates command line, end to end and per layer.

    python3 perfbench/run.py --workload sweep-fig3a --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

For one workload it writes that seed's inputs, times the package's set-up in
several fresh processes, then runs the workload in one more process of its
own for ``--seconds`` and checks every op's output against ``refs/``.  Op
timings are scaled to a reference machine's speed (see speed.py).  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead.  ``--workload all`` runs every workload both ways and
prints one table.  See README.md in this directory for what each metric
and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from gen import ROOT, SRC, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# name -> (unit, better) of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# A 90th percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
# Fresh processes that time set-up alone; the workload process gives one more.
SETUP_SAMPLES = 9
# A child gets this long on top of --seconds: set-up plus the last op.
CHILD_SLACK_S = 150


def blas_env() -> tuple[dict[str, str], dict[str, str]]:
    """The environment for workload processes: one BLAS thread.

    The program is single-threaded apart from BLAS, and on a machine of a
    few shared cores a second BLAS thread measures the scheduler.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    return env, {var: env[var] for var in BLAS_VARS}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run a perfbench script and return the JSON object on its last line."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    env, blas = blas_env()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    refs = Path(args.refs) if args.refs else HERE / "refs"
    timeout = args.seconds + CHILD_SLACK_S
    try:
        write_inputs(args.workload, args.seed, work)
        manifest = str(work / "manifest.json")
        script = str(HERE / "workload.py")
        setups = [child([script, "--manifest", manifest, "--setup-only"], env,
                        timeout)["setup_s"] for _ in range(SETUP_SAMPLES)]
        cmd = [script, "--manifest", manifest, "--refs", str(refs),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", str(OUT / f"trace-{args.workload}.npz")]
        if args.keep_outputs:
            cmd.append("--keep-outputs")
        res = child(cmd, env, timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(res["setup_s"])
    lat = res["scaled_ms"]
    calibration_ms = statistics.median(res["calibration_ms"])
    n = res["ops"]
    correct = res["failed"] == 0
    environment = {
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": blas,
        "git_commit": git_commit(),
        "processes": "each workload ran in its own process, which also gave "
                     f"the last of {len(setups)} set-up samples, each taken in a "
                     "fresh process; peak_rss_mb is that workload process's own",
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": n,
        "failed": res["failed"],
        "error_rate": {"value": res["failed"] / n, "unit": "ratio"},
        "setup_samples": len(setups),
        "latency_samples": n,
        "elapsed_s": res["elapsed_s"],
        "wall_op_p50_ms": statistics.median(res["latencies_ms"]),
        "wall_ops_per_s": n / res["elapsed_s"],
        "calibration_p50_ms": calibration_ms,
    }
    if n >= P90_MIN_OPS:
        detail["op_p90_ms"] = {"value": statistics.quantiles(lat, n=10)[8], "unit": "ms"}
    if "tol_used" in res:
        detail["tol_used"] = {"value": res["tol_used"], "unit": "ratio"}
    if res.get("first_failure"):
        detail["first_failure"] = res["first_failure"]
    if args.trace:
        detail["absent"] = res["absent"]
        detail["trace_file"] = str((OUT / f"trace-{args.workload}.npz").relative_to(ROOT))
        sys.path.insert(0, str(HERE))
        from spans import METRICS
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, (u, _) in METRICS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n / (sum(lat) / 1e3),
            "op_p50_ms": statistics.median(lat),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    if args.keep_outputs:
        detail["outputs"] = res["outputs"]
    print(json.dumps({"environment": environment}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": n, "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own processes."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        per_mode = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=(SETUP_SAMPLES + 2) * (args.seconds + CHILD_SLACK_S))
            lines = proc.stdout.strip().splitlines()
            if not lines:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{workload} printed no result")
            per_mode[trace] = [json.loads(line) for line in lines[-3:]]
            ok = ok and proc.returncode == 0
        (env0, detail0, res0), (_, detail1, res1) = per_mode[0], per_mode[1]
        rows.append((workload, detail0, res0, detail1, res1))
    print(json.dumps(env0))
    for workload, detail0, res0, detail1, res1 in rows:
        print(f"\n== {workload}: {res0['attempted']} ops untraced, "
              f"{res1['attempted']} traced, correct={res0['correct'] and res1['correct']}")
        for name, m in res0["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
        for name in ("op_p90_ms", "error_rate", "tol_used"):
            if name in detail0:
                m = detail0[name]
                print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
        overhead = (res1["metrics"]["trace.ops_per_s"]["value"]
                    - res0["metrics"]["ops_per_s"]["value"])
        print(f"  {'trace overhead (ops_per_s)':28s} {overhead:14.6g} op/s")
        zero = [name for name, m in res1["metrics"].items() if not m["value"]]
        for name, m in res1["metrics"].items():
            if m["value"]:
                print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
        print(f"  {len(zero)} per-layer metrics read 0 (layers this workload never calls)")
        if detail1.get("absent"):
            print(f"  absent from the package: {', '.join(detail1['absent'])}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", help="reference directory (default: perfbench/refs)")
    ap.add_argument("--keep-outputs", action="store_true",
                    help="print every op's checked output in the detail line")
    args = ap.parse_args()
    if not (SRC / "wiretap_rates" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC.relative_to(ROOT)}/wiretap_rates; "
              "run from the root of a wiretap-rates checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
