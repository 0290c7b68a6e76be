"""Statistics over repeated measurements, and the machine and code record."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))

# Times are reported at this reference speed: the calibration loop's time
# on a 2-core 2.1 GHz Xeon virtual machine in an unloaded phase.
REFERENCE_CALIB_S = 0.025

# Sample count beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """The value at the highest percentile with ``TAIL_BEYOND`` samples
    beyond it, that percentile, and the sample count.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def per_op_medians(rounds) -> list[float]:
    """Each operation's median over rounds that ran the same operations."""
    return [statistics.median(samples) for samples in zip(*rounds)]


def failed_ratio(results) -> float:
    """Failed operations over attempted ones."""
    return sum(1 for r in results if not r.ok) / len(results)


def calibrate(repeats: int = 3, n: int = 400_000) -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed.

    It runs no cflab code, so a change to cflab cannot move it.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(n):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_factors(readings) -> list[float]:
    """Factor converting the times measured between two consecutive
    calibration readings to reference seconds."""
    return [2 * REFERENCE_CALIB_S / (a + b) for a, b in zip(readings,
                                                          readings[1:])]


def src_lines(src: Path) -> int:
    """Line count of ``src/cflab/*.py``, as ``wc -l`` counts it."""
    return sum(p.read_bytes().count(b"\n")
               for p in sorted((src / "cflab").glob("*.py")))


def setup_times(src: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import cflab and exit, and
    calibration readings before the first and after each of them."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cflab"
    times, readings = [], [calibrate()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                       cwd=src.parent)
        times.append(time.perf_counter() - t0)
        readings.append(calibrate())
    return times, readings


def machine() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}
