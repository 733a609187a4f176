"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection:
they time things and start subprocesses.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import refkernel  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class VirtualClock:
    """A perf_counter stand-in: work advances it by units times a slowdown."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slowdown = 1.0

    def __call__(self) -> float:
        return self.now

    def work(self, units: float) -> None:
        self.now += units * 1e-3 * self.slowdown


class FakeWorkload:
    items_per_batch = 4
    check_items = 8
    ref_piece = 10
    ref_draws = False

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.items = 0

    def batch_inputs(self, b):
        return [b] * self.items_per_batch

    def run_item(self, item):
        # the host slows down steadily, and by a step partway through
        self.items += 1
        self.clock.slowdown = 1.0 + self.items / 200 + (0.5 if self.items > 100 else 0.0)
        self.clock.work(7.0)
        return item

    def check(self, inputs, outputs):
        return [workloads.Outcome(valid=True) for _ in outputs]


def _spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def test_ratio_steady_while_raw_time_drifts(monkeypatch):
    clock = VirtualClock()
    monkeypatch.setattr(run.time, "perf_counter", clock)
    monkeypatch.setattr(refkernel, "run", lambda iterations, draws: clock.work(
        iterations / refkernel.ITERATIONS * 2.5))
    harness = run.Harness(argparse.Namespace(workload="design_scan", seed=0, seconds=3.0,
                                             trace=0), env={})
    result = harness.loop(FakeWorkload(clock), seconds=3.0)
    assert result["batches"] > 20
    assert max(result["raw_item_s"]) / min(result["raw_item_s"]) > 2.0
    assert _spread(result["raw_item_s"]) > 0.3
    assert max(result["costs"]) - min(result["costs"]) < 0.01 * statistics.median(result["costs"])
    assert statistics.median(result["costs"]) == pytest.approx(7.0 / 2.5, rel=0.01)


def _burn(stop: threading.Event) -> None:
    x = 0
    while not stop.is_set():
        x += 1


def test_ratio_steady_under_real_contention():
    """A thread competing for the interpreter lock slows the work down; the
    interleaved reference kernel slows down with it."""
    harness = run.Harness(argparse.Namespace(workload="design_scan", seed=3, seconds=2.0,
                                             trace=0), env={})
    workload = workloads.make("design_scan", 3, HERE, {})
    workload.setup()
    quiet = harness.loop(workload, seconds=2.0)
    stop = threading.Event()
    burner = threading.Thread(target=_burn, args=(stop,))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    burner.start()
    try:
        busy = harness.loop(workload, seconds=2.0)
    finally:
        stop.set()
        burner.join(timeout=10)
        sys.setswitchinterval(old_interval)
    assert not burner.is_alive()
    raw_growth = statistics.median(busy["raw_item_s"]) / statistics.median(quiet["raw_item_s"])
    cost_change = statistics.median(busy["costs"]) / statistics.median(quiet["costs"])
    assert raw_growth > 1.3
    assert abs(cost_change - 1.0) < 0.25 * (raw_growth - 1.0)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(range(1, 201)) == (0.9, 180)
    q, value = run.tail(range(1, 21))
    assert q == 0.5 and value == 10
    assert sum(v > value for v in range(1, 21)) == 10


def _traced_items(name: str, seed: int, batches: int):
    workload = workloads.make(name, seed, HERE, {})
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        item = 0
        for b in range(batches):
            for inputs in workload.batch_inputs(b):
                tracer.item = item
                workload.run_item(inputs)
                item += 1
    finally:
        tracer.uninstall()
    return tracer.spans, item


@pytest.mark.parametrize("name", ["design_scan", "estimate_interior", "estimate_boundary"])
def test_call_counts_and_bootstrap_share_repeat_exactly(name):
    first, items = _traced_items(name, 5, 3)
    second, _ = _traced_items(name, 5, 3)
    counts = {layer: calls for layer, (calls, _) in tracing.self_times(first).items()}
    assert counts == {layer: calls for layer, (calls, _) in tracing.self_times(second).items()}
    assert [s[6] for s in first if s[1] == tracing.INVERT] == \
        [s[6] for s in second if s[1] == tracing.INVERT]
    per_item = [sum(1 for s in first if s[1] == "probe.probability_rate" and s[5] == i)
                for i in range(items)]
    assert len(set(per_item)) == 1, "every item of a workload makes the same rate calls"


def test_tracer_patches_every_alias_and_restores_them():
    import kossprobe
    import kossprobe.experiment as experiment
    import kossprobe.probe as probe

    original = probe.forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiment.forward is probe.forward is kossprobe.forward
        assert probe.forward is not original
    finally:
        tracer.uninstall()
    assert probe.forward is original and experiment.forward is original


def test_refusal_at_theta_zero_is_the_expected_output():
    workload = workloads.make("design_scan", 0, HERE, {})
    inputs = workload.batch_inputs(0)
    outputs = [workload.run_item(item) for item in inputs]
    outcomes = workload.check(inputs, outputs)
    assert inputs[0][1] == 0.0 and outputs[0][2] is None and outcomes[0].valid
    assert all(o.valid and out[2] is not None for o, out in zip(outcomes[1:], outputs[1:]))
    outputs[1] = outputs[1][:2] + (None, None)
    assert not workload.check(inputs, outputs)[1].valid


def test_not_cp_on_a_psd_truth_is_never_ok():
    outcome = workloads.Outcome(valid=True, verdict=workloads.NOT_CP)
    assert not outcome.ok


def test_cli_checks_reject_bad_exit_codes_and_schemas():
    cli = workloads.make("cli", 0, HERE / "unused", {})
    cli.g, cli.truth = 2.0, workloads.random_truth(np.random.default_rng(0), [1.0, 1.0, 1.0])
    good = json.dumps({"schema_version": 1, "g": 2.0, "k": None, "T0": 0.5, "R0": 0.5,
                       "T1": 0.25, "R1": 0.75})
    outputs = [("coeffs", 0, good, ""), ("coeffs", 2, good, ""),
               ("coeffs", 0, good.replace('"schema_version": 1', '"schema_version": 2'), ""),
               ("coeffs", 0, "not json", ""), ("coeffs", 0, good.replace('"T0"', '"t0x"'), "")]
    assert [o.valid for o in cli.check([], outputs)] == [True, False, False, False, False]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "design_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
