"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import cflab  # noqa: E402
import cflab.cli  # noqa: E402,F401
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


# ------------------------------------------------------------- generators

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_deterministic_in_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(11).ops == make(11).ops
    assert make(11).ops != make(12).ops


def test_verify_mix_covers_every_cell_equally():
    ops = workloads.verify_mix_commands(3)
    cells = len(workloads.VERIFY_KINDS) * len(workloads.VERIFY_NODES) \
        * len(workloads.VERIFY_FAMILIES)
    assert len(ops) == cells * workloads.VERIFY_REPEATS
    for nodes in workloads.VERIFY_NODES:
        with_nodes = [a for a in ops if f"--nodes={nodes}" in a]
        assert len(with_nodes) == len(ops) // len(workloads.VERIFY_NODES)


def test_generated_verify_commands_pass():
    ops = workloads.verify_mix_commands(5)[:40]
    for argv in ops:
        output = workloads.run_cli_op(cflab, argv)
        ok, text = workloads.check_cli_output(argv, output)
        assert ok, (argv, text)


# -------------------------------------------------------------- self time

def test_self_time_is_parent_minus_children():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():
        clock.tick(0.5)

    def inner():
        clock.tick(1.0)
        leaf_t()
        clock.tick(0.25)

    def outer():
        clock.tick(2.0)
        inner_t()
        inner_t()
        clock.tick(3.0)

    leaf_t = tracer.timed("leaf", leaf)
    inner_t = tracer.timed("inner", inner)
    tracer.timed("outer", outer)()

    calls, total, self_s, depth = tracer.stats["outer"]
    assert (calls, depth) == (1, 0)
    assert total == pytest.approx(2.0 + 2 * 1.75 + 3.0)
    assert self_s == pytest.approx(5.0)
    assert tracer.stats["inner"][:3] == [2, pytest.approx(3.5),
                                         pytest.approx(2.5)]
    assert tracer.stats["leaf"][:3] == [2, pytest.approx(1.0),
                                        pytest.approx(1.0)]


def test_recursive_calls_count_inclusive_time_once():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def rec(k):
        clock.tick(1.0)
        if k:
            rec_t(k - 1)

    rec_t = tracer.timed("rec", rec)
    rec_t(2)
    assert tracer.stats["rec"][:3] == [3, pytest.approx(3.0),
                                       pytest.approx(3.0)]


def test_spans_record_their_parent():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    child = tracer.spanned("child", lambda: clock.tick(1.0))

    def parent():
        child()
        child()

    tracer.spanned("parent", parent)()
    parent_span, first, second = tracer.spans
    assert parent_span["parent"] is None
    assert first["parent"] == second["parent"] == parent_span["id"]
    assert parent_span["end_s"] - parent_span["start_s"] == pytest.approx(2.0)


# --------------------------------------------------------------- failures

def test_failing_operations_are_counted_not_dropped():
    def run(_cflab, op):
        if op == "raise":
            raise RuntimeError("boom")
        return op

    def check(_op, output):
        return output == "ok", output

    wl = workloads.Workload("fake", ("ok", "raise", "bad", "ok"), run, check,
                            check_prefix="")
    results = workloads.run_round(None, wl, FakeClock()).results
    assert [r.ok for r in results] == [True, False, False, True]
    assert "RuntimeError" in results[1].error
    assert measure.failed_ratio(results) == 0.5


def test_failing_cli_command_is_a_failed_operation():
    argv = ("verify", "first", "--n=1", "--f=x1+", "--format=json")
    ok, reason = workloads.check_cli_output(
        argv, workloads.run_cli_op(cflab, argv))
    assert not ok and reason.startswith("exit 2")


def test_report_normalization_zeroes_only_runtime():
    text = json.dumps({"checks": [{"runtime_ms": 12.5, "tol": 1e-10}]},
                      indent=2)
    normalized = json.loads(workloads.normalize_report(text))
    assert normalized == {"checks": [{"runtime_ms": 0, "tol": 1e-10}]}


# ---------------------------------------------------------------- tracing

def _verify_first_n2():
    return cflab.casebook.first_formula(
        2, cflab.parse_expr("x1^2*x2+3", 2), (0.2, -0.1), 0.5,
        quad=(4, 8, 8), tol=1.0, check_id="first_n2_small")


def test_traced_run_changes_no_result_and_counts_evals_per_point():
    plain = _verify_first_n2()
    tracer = layers.Tracer()
    with tracer.installed(cflab):
        traced = _verify_first_n2()
    assert (traced.computed, traced.expected) == (plain.computed,
                                                  plain.expected)
    assert tracer.counters["cycles.grid_points"] == 4 * 8 * 8
    assert tracer.evals_per_point("first_n2_") == 2.0
    assert tracer.evals_per_point("other") == 0.0
    assert tracer.check_s("first_n2_small") > 0


def test_wrappers_are_removed_after_a_traced_run():
    originals = (cflab.cycles.integrate, cflab.casebook.eval_expr,
                 cflab.forms.KForm.evaluate, cflab.cli.run_cli)
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(cflab):
            assert layers.patched_attributes(cflab)
            assert cflab.cycles.integrate is not originals[0]
            raise RuntimeError("a workload crashed")
    assert layers.patched_attributes(cflab) == []
    assert (cflab.cycles.integrate, cflab.casebook.eval_expr,
            cflab.forms.KForm.evaluate, cflab.cli.run_cli) == originals


# ------------------------------------------------------------------ stats

def test_latencies_are_medians_per_operation_over_rounds():
    rounds = [[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]
    assert measure.per_op_medians(rounds) == [2.0, 5.0]


def test_times_scale_by_the_readings_around_them():
    ref = measure.REFERENCE_CALIB_S
    factors = measure.speed_factors([ref, 2 * ref, 2 * ref])
    assert factors == [pytest.approx(2 / 3), pytest.approx(0.5)]


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = measure.tail(range(100))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.LAYER_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
