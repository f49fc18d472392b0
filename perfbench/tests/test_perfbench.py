"""Tests of the benchmark itself: inputs, names, tracing and output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import framescale as fs
import run
import tracing
from framescale.experiments import SweepOutput
from workloads import WORKLOADS, Balance, CertifyExact, Estimate, unit_seed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _same_inputs(a, b):
    if isinstance(a, tuple):
        return (a[1] == b[1]
                and np.array_equal(a[0].entries, b[0].entries))
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unit_inputs_depend_only_on_seed_and_index(name):
    cls = WORKLOADS[name]
    first, second, other = cls(7), cls(7), cls(8)
    for w in (first, second, other):
        w.prepare()
    indices = [0, 1, 2, 5, 64]
    # draw in another order: no input may depend on what was drawn before
    later = {i: second.inputs(i) for i in reversed(indices)}
    for i in indices:
        assert _same_inputs(first.inputs(i), later[i])
        assert not _same_inputs(first.inputs(i), other.inputs(i))


def test_unit_seed_is_a_pure_function():
    assert unit_seed(3, 4) == unit_seed(3, 4)
    assert len({unit_seed(s, i) for s in range(4) for i in range(4)}) == 16


def test_declared_names_equal_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace, spec_key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, spec_key):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-sampled",
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    detail, result = map(json.loads, out.stdout.strip().splitlines()[-2:])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    if trace == 0:
        # setup_s is the median of SETUPS cold set-ups, one of them its own
        assert len(detail["setups_s"]) == run.SETUPS
        assert result["metrics"]["setup_s"]["value"] == statistics.median(
            detail["setups_s"])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[spec_key]]
    for m in SPEC[spec_key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_tracer_restores_every_original():
    before = (fs.tyler_iterate, fs.experiments.tyler_iterate, fs.Frame.__init__,
              np.linalg.eigh)
    assert not tracing.installed()
    with tracing.Tracer():
        assert tracing.installed()
        # experiments looks tyler_iterate up in its own namespace
        assert fs.experiments.tyler_iterate is not before[1]
        assert fs.Frame.__init__ is not before[2]
    assert not tracing.installed()
    assert (fs.tyler_iterate, fs.experiments.tyler_iterate, fs.Frame.__init__,
            np.linalg.eigh) == before


def test_timed_run_refuses_installed_wrappers():
    with tracing.Tracer():
        with pytest.raises(RuntimeError, match="wrappers"):
            run.timed_run(WORKLOADS["certify-sampled"], 0, 0.01)


def test_traced_call_counts_and_leaves_numbers_unchanged():
    frame = fs.sample_sphere_frame(4, 16, fs.SeedSpec(0, 1))
    plain = fs.solve_scaling(frame, method="flipflop")
    with tracing.Tracer() as tracer:
        tracer.unit = 0
        traced = fs.solve_scaling(frame, method="flipflop")
        tracer.unit = None
        fs.error_report(traced.frame)  # paused: leaves no span
    assert np.array_equal(plain.frame.entries, traced.frame.entries)
    metrics = tracing.layer_metrics(tracer.spans, 1, 0.0)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["scaling.solve_scaling.iterations"] == plain.iterations
    assert value["scaling.flip_flop_step.calls"] == plain.iterations
    # error_report once on the input, once per round
    assert value["frame.error_report.calls"] == plain.iterations + 1
    assert value["scaling.converged_ratio"] == 1.0
    assert value["scaling.decomps_per_iteration"] > 1.0


def test_self_time_subtracts_child_spans():
    spans = [
        ["a", 0, -1, 0, 100, [1, 0, 0, 0, 0], None],
        ["b", 0, 0, 10, 40, [0, 2, 0, 0, 6], None],
        ["b", 0, 0, 50, 60, None, None],
        ["c", -1, -1, 200, 300, None, None],  # set-up span: not counted
    ]
    t = tracing.totals(spans)
    assert t["a"]["self_ns"] == 60 and t["a"]["subtree_decomps"] == 3
    assert t["b"]["calls"] == 2 and t["b"]["self_ns"] == 40
    assert t["b"]["eig_matrices"] == 6
    assert "c" not in t


class _Raises:
    cycle = 1

    def inputs(self, i):
        return i

    def call(self, i):
        raise fs.FrameError("boom")


def test_a_raising_unit_is_a_failed_unit():
    done = run.Pass()
    for i in range(3):
        run.run_unit(_Raises(), i, done)
    assert [i for i, _ in done.failures] == [0, 1, 2]
    assert "boom" in done.failures[0][1][0]


def test_balance_check_rejects_wrong_results():
    w = Balance(0)
    w.prepare()
    for i in range(w.cycle):
        inputs = w.inputs(i)
        good = w.call(inputs)
        assert w.check(inputs, good) == []
        frame = inputs[0]
        unbalanced = replace(good, frame=frame,
                             scaling=fs.ScalingPair.identity(frame.d, frame.n))
        assert any("op_error" in p for p in w.check(inputs, unbalanced))
        wrong_scaling = replace(good, scaling=fs.ScalingPair(
            2.0 * good.scaling.left, good.scaling.right))
        assert any("scaling.apply" in p for p in w.check(inputs, wrong_scaling))
        assert w.check(inputs, replace(good, converged=False))


def test_estimate_check_rejects_wrong_results():
    w = Estimate(0)
    cfg = w.inputs(0)
    good = w.call(cfg)
    assert w.check(cfg, good) == []
    rows = list(good.rows)
    rows[2] = rows[2][:4] + (math.nan, 0, False)
    bad = SweepOutput(good.csv_text, good.summary, rows)
    problems = w.check(cfg, bad)
    assert any("rel_op_error" in p for p in problems)
    assert any("converged=0" in p for p in problems)
    assert w.check(cfg, SweepOutput(good.csv_text, good.summary, rows[:4]))


@pytest.mark.parametrize("name", ["certify-exact", "certify-sampled"])
def test_certify_check_rejects_wrong_results(name):
    w = WORKLOADS[name](0)
    cfg = w.inputs(0)
    good = w.call(cfg)
    assert w.check(cfg, good) == []
    last = good.rows[-1]
    swapped = last[:8] + (last[9], last[8]) + last[10:]
    bad = SweepOutput(good.csv_text, good.summary, good.rows[:-1] + [swapped])
    assert any("alpha_min above alpha_max" in p for p in w.check(cfg, bad))


def test_exact_check_rejects_nonzero_control_row():
    w = CertifyExact(0)
    cfg = w.inputs(0)
    good = w.call(cfg)
    control = good.rows[0]
    assert control[2] == -1
    moved = control[:7] + (1e-3,) + control[8:]
    bad = SweepOutput(good.csv_text, good.summary, [moved] + good.rows[1:])
    assert any("control row" in p for p in w.check(cfg, bad))
