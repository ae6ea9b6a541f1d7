#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about a minute:
  * a tiny run of each workload emits every metric BENCHMARK.json names,
    with its unit, untraced and traced;
  * traced and untraced runs return identical outputs op by op;
  * every count metric repeats exactly across two traced runs;
  * a corrupted reference makes error_rate > 0 on every workload;
  * a wrapped name missing from the package is reported as absent and the
    run goes on;
  * without the package sources the benchmark exits non-zero and prints no
    result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
from gen import ROOT, SRC

HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"

COUNT_UNITS = ("count/op",)
COUNT_RATIOS = ("optimize.valid_ratio", "oracle.fallback_share")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[dict], str]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, lines, proc.stderr


def tiny(workload: str, trace: int, *extra: str) -> tuple[int, dict, dict]:
    # --seconds 0 runs exactly one op, whatever the machine's speed.
    code, lines, err = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                             "--trace", str(trace), *extra)
    if len(lines) < 3:
        raise AssertionError(f"{workload} trace={trace} printed no result:\n{err}")
    return code, lines[-2]["detail"], lines[-1]


def check_declared_metrics() -> tuple[dict, dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == {k: u for k, (u, _) in run.END_TO_END.items()}, "end_to_end differs"
    assert layer == {k: u for k, (u, _) in spans.METRICS.items()}, "per_layer differs"
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    return e2e, layer


def check_runs(e2e: dict, layer: dict) -> None:
    for workload in run.WORKLOADS:
        code, detail0, res0 = tiny(workload, 0, "--keep-outputs")
        assert code == 0 and res0["correct"], f"{workload}: untraced run failed"
        assert {k: m["unit"] for k, m in res0["metrics"].items()} == e2e, workload
        assert "error_rate" in detail0
        runs = [tiny(workload, 1, "--keep-outputs") for _ in range(2)]
        for code, detail, res in runs:
            assert code == 0 and res["correct"], f"{workload}: traced run failed"
            assert {k: m["unit"] for k, m in res["metrics"].items()} == layer, workload
            assert detail["outputs"] == detail0["outputs"], \
                f"{workload}: traced outputs differ from untraced ones"
        (_, _, a), (_, _, b) = runs
        for name, unit in layer.items():
            if unit in COUNT_UNITS or name in COUNT_RATIOS:
                assert a["metrics"][name] == b["metrics"][name], \
                    f"{workload}: count {name} differs between traced runs"
        print(f"ok   {workload}: metrics, traced == untraced outputs, counts repeat")


def corrupt_refs(dest: Path) -> None:
    shutil.copytree(HERE / "refs", dest)
    csv = dest / "fig3a.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join([lines[0]] + [line[:-1] + "9" for line in lines[1:]]) + "\n")
    point = json.loads((dest / "point-fine.json").read_text())
    for ref in point["scenarios"].values():
        ref["R_g"] += 0.01
    (dest / "point-fine.json").write_text(json.dumps(point))
    dm = json.loads((dest / "dm-noisy.json").read_text())
    for ref in dm["channels"].values():
        ref["rate"] += 1e-9
    (dest / "dm-noisy.json").write_text(json.dumps(dm))
    (dest / "audit.json").write_text(json.dumps({"tolerance": 1e-15}))


def check_corrupted_refs() -> None:
    refs = SCRATCH / "refs"
    corrupt_refs(refs)
    for workload in run.WORKLOADS:
        code, detail, res = tiny(workload, 0, "--refs", str(refs))
        assert code != 0 and not res["correct"], f"{workload}: corruption not caught"
        assert detail["error_rate"]["value"] > 0.0
        print(f"ok   {workload}: corrupted reference gives error_rate "
              f"{detail['error_rate']['value']:g}")


def check_absent_name() -> None:
    sys.path.insert(0, str(SRC))
    import wiretap_rates.cli as cli

    tracer = spans.Tracer()
    tracer.install(spans.SPECS + (("oracle", "no_such_function", None),))
    try:
        tracer.begin_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["audit", "--draws", "2"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == ["oracle.no_such_function"], tracer.absent
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["audit.draws"] == 4.0, metrics["audit.draws"]
    print("ok   a missing wrapped name is reported as absent")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, _ = bench("--workload", "sweep-fig3a", "--seed", "1",
                           "--seconds", "0", "--trace", "0", cwd=bare)
    assert code != 0 and not lines, "ran without the package sources"
    print(f"ok   without package sources: exit code {code}, no result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        e2e, layer = check_declared_metrics()
        print("ok   BENCHMARK.json matches the metrics the code reports")
        check_absent_name()
        check_bare_directory()
        check_corrupted_refs()
        check_runs(e2e, layer)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
