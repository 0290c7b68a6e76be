"""Run one cflab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from anywhere; cflab is imported from ``src/`` next to this directory.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
rounds alternate and the metrics are the per-layer ones.  The exit code is 0
only when every correctness gate holds.  See README.md beside this file.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
import measure
from workloads import WORKLOADS, run_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
SETUP_REPEATS = 7


def import_cflab():
    """Import cflab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "cflab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cflab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cflab
    import cflab.cli  # noqa: F401  (the package does not import it)

    if Path(cflab.__file__).resolve().parent != SRC / "cflab":
        raise SystemExit(f"perfbench: imported cflab from {cflab.__file__}")
    return cflab


def another_fits(t0, done, seconds) -> bool:
    """Whether one more step, as long as the average of the ``done`` so
    far, would end within ``seconds`` of ``t0``."""
    return (time.perf_counter() - t0) * (done + 1) / done <= seconds


def plain_rounds(cflab, workload, seconds):
    """Untraced rounds while another fits in ``seconds``, at least
    ``MIN_ROUNDS``, with speed readings before each round and after the
    last."""
    rounds, speed = [], [measure.calibrate()]
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or another_fits(t0, len(rounds), seconds):
        rounds.append(run_round(cflab, workload, time.perf_counter))
        speed.append(measure.calibrate())
    return rounds, speed


def traced_rounds(cflab, workload, seconds):
    """Alternate untraced and traced rounds while another pair fits in
    ``seconds``, at least one pair.

    Returns (untraced rounds, traced rounds, tracers, leftover wrappers).
    """
    plain, traced, tracers = [], [], []
    leftovers = []
    t0 = time.perf_counter()
    while not traced or another_fits(t0, len(traced), seconds):
        plain.append(run_round(cflab, workload, time.perf_counter))
        tracer = layers.Tracer()
        with tracer.installed(cflab):
            traced.append(run_round(cflab, workload, tracer.clock, tracer))
        leftovers += layers.patched_attributes(cflab)
        tracers.append(tracer)
    return plain, traced, tracers, leftovers


def summarize(rounds):
    results = [r for rnd in rounds for r in rnd.results]
    digests = {rnd.digest for rnd in rounds}
    return results, digests


def print_failures(results):
    shown = 0
    for index, r in enumerate(results):
        if not r.ok and shown < 5:
            print(f"FAILED op {index}: {r.error}")
            shown += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()[0]
    cflab = import_cflab()
    setup = None if args.trace else measure.setup_times(SRC, SETUP_REPEATS)
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        plain, traced, tracers, leftovers = traced_rounds(
            cflab, workload, args.seconds)
        speed = [measure.calibrate()]
    else:
        plain, speed = plain_rounds(cflab, workload, args.seconds)
        traced, tracers, leftovers = [], [], []
    results, digests = summarize(plain + traced)
    load_end = os.getloadavg()[0]

    failed = sum(1 for r in results if not r.ok)
    correct = failed == 0 and len(digests) == 1 and not leftovers
    info = measure.machine()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(workload.ops)} ops per round, {len(plain)} untraced and "
          f"{len(traced)} traced rounds")
    print(f"machine nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']} load1_start={load_start:.2f} "
          f"load1_end={load_end:.2f} calib_s={statistics.median(speed):.6f} "
          f"src_lines={measure.src_lines(SRC)}")
    print("report_sha256 " + " ".join(sorted(digests))
          + ("" if len(digests) == 1 else "  (MISMATCH across rounds)"))
    print(f"failed_ratio {measure.failed_ratio(results):.6f} "
          f"({failed}/{len(results)} operations)")
    print_failures(results)
    if leftovers:
        print("wrappers left installed: " + ", ".join(leftovers))

    if args.trace:
        metrics = layer_metrics(workload, plain, traced, tracers)
        write_trace(args, workload, tracers[-1], metrics)
        print("waits: none recorded; cflab is single-threaded, so no layer "
              "waits on another")
    else:
        metrics = end_to_end_metrics(plain, speed, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def end_to_end_metrics(rounds, speed, setup):
    """The gated metrics, in reference seconds; raw times printed beside.

    A time measured between two calibration readings is scaled by the
    reference calibration time over the mean of those readings, which
    cancels the machine's drifting speed (see README.md).
    """
    factors = measure.speed_factors(speed)
    raw = [[r.latency_s for r in rnd.results] for rnd in rounds]
    latencies = measure.per_op_medians(
        [t * f for t in lat] for lat, f in zip(raw, factors))
    tail, tail_pct, n = measure.tail(latencies)
    setup_times, setup_speed = setup
    raw_tail = measure.tail(measure.per_op_medians(raw))[0]
    print(f"rounds {len(rounds)}; op latencies: n={n} operations, each the "
          f"median over rounds; op tail at p{tail_pct:.2f} "
          f"({min(n - 1, measure.TAIL_BEYOND)} beyond); setup_s median of "
          f"{len(setup_times)}; reference calib_s "
          f"{measure.REFERENCE_CALIB_S}")
    print(f"raw: setup_s = {statistics.median(setup_times)!r} s, "
          f"wall_s = {statistics.median(r.wall_s for r in rounds)!r} s, "
          f"cpu_s = {statistics.median(r.cpu_s for r in rounds)!r} s, "
          f"op_p50_ms = "
          f"{statistics.median(measure.per_op_medians(raw)) * 1e3!r} ms, "
          f"op_tail_ms = {raw_tail * 1e3!r} ms")
    values = {
        "setup_s": statistics.median(
            t * f for t, f in zip(setup_times,
                                  measure.speed_factors(setup_speed))),
        "wall_s": statistics.median(
            r.wall_s * f for r, f in zip(rounds, factors)),
        "cpu_s": statistics.median(
            r.cpu_s * f for r, f in zip(rounds, factors)),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in measure.END_TO_END}


def layer_metrics(workload, plain, traced, tracers):
    """Lower median over traced rounds of each layer metric (a measured
    round, so counts stay whole), plus the overhead."""
    per_round = [t.layer_metrics(workload.check_prefix) for t in tracers]
    overhead = (statistics.median(rnd.wall_s for rnd in traced)
                / statistics.median(rnd.wall_s for rnd in plain))
    out = {}
    for name, unit, _ in layers.LAYER_METRICS:
        if name == "trace.overhead_ratio":
            out[name] = (overhead, unit)
        else:
            out[name] = (statistics.median_low(m[name] for m in per_round),
                         unit)
    return out


def write_trace(args, workload, tracer, metrics):
    """Write the last traced round's spans and counters under OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}_seed{args.seed}.json"
    payload = {"workload": workload.name, "seed": args.seed,
               "metrics": {k: v for k, (v, _) in metrics.items()},
               **tracer.dump()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
