#!/usr/bin/env python3
"""One workload process: set up, run ops for a fixed time, check each output.

Started by run.py, one process per workload, so the peak resident memory it
reports belongs to that workload alone.  Every op goes through
``wiretap_rates.cli.main`` exactly as a user's command line would.  Prints
one JSON object with the raw measurements on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from gen import SRC
from speed import REF_CALIBRATION_S, Calibrator

HERE = Path(__file__).resolve().parent


def import_cli():
    """Import the package from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import wiretap_rates.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"wiretap_rates came from {cli.__file__}, not {SRC}")
    return cli


class Tap:
    """Keeps the last value a function bound in the cli module returned.

    The CLI prints rates to six decimals; the reference checks need them at
    full precision.
    """

    def __init__(self, module, name: str) -> None:
        self.value = None
        inner = getattr(module, name)

        def tapped(*args, **kwargs):
            self.value = inner(*args, **kwargs)
            return self.value

        setattr(module, name, tapped)


class Checker:
    """Checks each op's output against refs/."""

    def __init__(self, workload: str, refs: Path, cli) -> None:
        self.workload = workload
        self.worst_audit_error = 0.0
        if workload == "sweep-fig3a":
            lines = (refs / "fig3a.csv").read_text().splitlines()
            self.header, self.rows = lines[0], lines[1:]
        elif workload == "point-fine":
            self.ref = json.loads((refs / "point-fine.json").read_text())
            self.tap = Tap(cli, "general_point")
        elif workload == "dm-noisy":
            self.ref = json.loads((refs / "dm-noisy.json").read_text())
            self.tap = Tap(cli, "sup_inf_rate")
        elif workload == "audit":
            self.ref = json.loads((refs / "audit.json").read_text())
            self.tap = Tap(cli, "run_audit")
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def output(self, op: dict, stdout: str):
        """What the reference check compares; equal in traced and untraced runs."""
        if self.workload == "sweep-fig3a":
            csv = Path(op["csv"])
            text = csv.read_text()
            csv.unlink()
            return text
        value, self.tap.value = self.tap.value, None
        if self.workload == "point-fine":
            row = value[0]
            return stdout, row["R_njg"], row["R_g"]
        if self.workload == "dm-noisy":
            return (stdout, value.rate, value.refined_rate, value.r_star.r.tolist(),
                    value.q_star.q.tolist())
        return stdout, value.passed, value.worst_required_error

    def check(self, op: dict, out) -> bool:
        if self.workload == "sweep-fig3a":
            return out == f"{self.header}\n{self.rows[op['row']]}\n"
        if self.workload == "point-fine":
            ref = self.ref["scenarios"][str(op["scenario"])]
            tol = self.ref["tolerance"]
            return abs(out[1] - ref["R_njg"]) <= tol and abs(out[2] - ref["R_g"]) <= tol
        if self.workload == "dm-noisy":
            ref = self.ref["channels"][str(op["channel"])]
            tol = self.ref["tolerance"]
            return (abs(out[1] - ref["rate"]) <= tol
                    and abs(out[2] - ref["refined_rate"]) <= tol
                    and out[3] == ref["r_star"] and out[4] == ref["q_star"])
        self.worst_audit_error = max(self.worst_audit_error, out[2])
        return out[1] and out[2] <= self.ref["tolerance"]


def run(args) -> dict:
    t0 = time.perf_counter()
    cli = import_cli()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    manifest = json.loads(Path(args.manifest).read_text())
    for op in manifest["ops"]:
        if "config" in op:
            cli.load_config(op["config"])
    result = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        return result

    checker = Checker(manifest["workload"], Path(args.refs), cli)
    ops = manifest["ops"]
    latencies: list[float] = []
    scaled: list[float] = []
    calibrations: list[float] = []
    failed = 0
    first_failure = None
    outputs = []
    with Calibrator() as speed:
        cal_before = statistics.median(speed.measure(3))
        begin = time.perf_counter()
        while not latencies or time.perf_counter() - begin < args.seconds:
            i = len(latencies)
            op = ops[i % len(ops)]
            buf = io.StringIO()
            if tracer:
                tracer.begin_op(i)
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(op["argv"])
                error = None if code == 0 else f"exit code {code}"
            except Exception:
                error = traceback.format_exc()
            except SystemExit as exc:  # argparse rejects an argv by exiting
                error = f"exit code {exc.code}"
            latencies.append(time.perf_counter() - t)
            if tracer:
                tracer.end_op()
            # One more timing per half second of op, to match long ops.
            samples = speed.measure(1 + int(latencies[-1] / 0.5))
            calibrations.extend(samples)
            cal_after = statistics.median(samples)
            scaled.append(latencies[-1] * 2.0 * REF_CALIBRATION_S / (cal_before + cal_after))
            cal_before = cal_after
            if error is None:
                try:
                    out = checker.output(op, buf.getvalue())
                    if args.keep_outputs:
                        outputs.append(repr(out))
                    if not checker.check(op, out):
                        error = f"output differs from the reference for op {op}"
                except Exception:  # a missing or malformed output fails the op
                    error = traceback.format_exc()
            if error is not None:
                failed += 1
                first_failure = first_failure or error
        elapsed = time.perf_counter() - begin

    import numpy
    result.update(
        ops=len(latencies),
        failed=failed,
        first_failure=first_failure,
        elapsed_s=elapsed,
        latencies_ms=[x * 1e3 for x in latencies],
        scaled_ms=[x * 1e3 for x in scaled],
        calibration_ms=[x * 1e3 for x in calibrations],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if manifest["workload"] == "audit":
        tol = getattr(sys.modules["wiretap_rates.audit"], "AUDIT_TOL",
                      checker.ref["tolerance"])
        result["tol_used"] = checker.worst_audit_error / tol
    if args.keep_outputs:
        result["outputs"] = outputs
    if tracer:
        from spans import layer_metrics
        tracer.uninstall()
        layers = layer_metrics(tracer, len(latencies))
        layers["trace.ops_per_s"] = len(scaled) / sum(scaled)
        layers["audit.tol_used"] = result.get("tol_used", 0.0)
        result["layers"] = layers
        result["absent"] = tracer.absent
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.trace_out)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--refs", default=str(HERE / "refs"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="write the spans here (.npz)")
    ap.add_argument("--keep-outputs", action="store_true",
                    help="include every op's checked output in the result")
    args = ap.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
