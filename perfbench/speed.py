#!/usr/bin/env python3
"""Machine speed, measured by a fixed task timed in a helper process.

The host's other tenants change how fast this machine runs, by up to half
over seconds to minutes, and CPU time moves with wall time, so neither
shows the program's own cost.  The workload process times the task below
between ops; an op's latency multiplied by ``REF_CALIBRATION_S`` over the
task's time beside it is what the op would take on the reference machine.
The task uses no wiretap_rates code, so no change to the program moves
it.  It runs in a process of its own so that its arrays stay out of the
workload's peak memory.  Started as a script, this file serves requests
on stdin: a line holding a count n gets back a JSON list of n timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

# The task's time on the reference machine: a 2-vCPU 2.1 GHz x86-64 VM
# shared with other tenants, Python 3.11, numpy 2.4, one BLAS thread, at
# the median of about 1,000 timings.
REF_CALIBRATION_S = 13.0e-3

_DATA: dict = {}


def task_s() -> float:
    """Wall time of one calibration task.

    The task mixes the kinds of work the program does: an interpreted
    float loop, numpy calls on 3x3 matrices one at a time, and
    elementwise passes over arrays of 145,000 points, the size of one
    grid chunk.
    """
    import numpy as np

    if not _DATA:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((150, 3, 3))
        _DATA["spd"] = a @ a.transpose(0, 2, 1) + 3.0 * np.eye(3)
        _DATA["x"] = [rng.random(145_000) + 0.5 for _ in range(6)]
    spd, x = _DATA["spd"], _DATA["x"]
    t = time.perf_counter()
    s, d = 0.0, {}
    for i in range(12_000):
        s += (i % 7) * 0.5 - s * 1e-3
        d[i & 255] = s
    for m in spd:
        np.linalg.slogdet(m)
        np.linalg.eigvalsh(m)
    for _ in range(3):
        w = np.log(x[0] * x[1] + x[2]) - np.sqrt(x[3] * x[4])
        np.where((w > 0.1) & (x[5] < 1.2), w, 0.0).sum()
    return time.perf_counter() - t


class Calibrator:
    """A helper process that times the calibration task on request."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def measure(self, n: int) -> list[float]:
        """Time the task n times, back to back, while this process waits."""
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve() -> None:
    task_s()  # builds the arrays
    for line in sys.stdin:
        print(json.dumps([task_s() for _ in range(int(line))]), flush=True)


if __name__ == "__main__":
    serve()
