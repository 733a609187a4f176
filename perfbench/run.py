"""Benchmark for kossprobe: one client, closed loop, BLAS pinned to one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Each timed batch is followed by
one pass of the reference kernel (``refkernel.py``) in the same process, and
costs are reported in units of that pass ("ref"), which cancels most of the
host's speed drift.  The last line of stdout is the result object; the line
before it holds the run's metadata.  With ``--trace 1`` the run measures the
workload untraced for half the time and traced for the other half, and
reports per-layer metrics; spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy is first imported

import argparse
import hashlib
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Costs are per-batch wall time per item over the paired reference.  setup_s
# is scaled to a host where a kernel pass takes REF_NOMINAL_S and a bare
# interpreter start takes START_NOMINAL_S.
REF_NOMINAL_S = 2.5e-3
START_NOMINAL_S = 0.075
SETUP_REPEATS = 5
SETUP_REF_PASSES = 10
CLI_IMPORT_REPEATS = 5
TAIL_QUANTILE = 0.9
TAIL_BEYOND = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tail(values) -> tuple[float, float]:
    """(quantile, value): TAIL_QUANTILE, or lower when that would leave fewer
    than TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    q = max(0.0, min(TAIL_QUANTILE, (n - TAIL_BEYOND) / n))
    return q, ordered[max(0, math.ceil(q * n) - 1)]


def _subprocess_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _run_checked(argv, env) -> subprocess.CompletedProcess:
    from workloads import run_child

    proc = run_child(argv, env)
    proc.check_returncode()
    return proc


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kossprobe").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in PINNED_THREADS},
        "clients": 1,
        "loop": "closed",
        "ref_nominal_s": REF_NOMINAL_S,
        "start_nominal_s": START_NOMINAL_S,
    }


class Harness:
    """Set-up, the timed closed loop and the metrics for one workload."""

    def __init__(self, args, env) -> None:
        import refkernel
        import workloads

        self.args = args
        self.env = env
        self.refkernel = refkernel
        self.workloads = workloads
        self.in_process = args.workload != "cli"

    def make(self):
        return self.workloads.make(self.args.workload, self.args.seed, WORK / "inputs", self.env)

    def _child_seconds(self, argv) -> tuple[float, float]:
        """(wall seconds of a child process, wall seconds of a bare
        interpreter start taken straight after it)."""
        t0 = time.perf_counter()
        _run_checked(argv, self.env)
        wall_s = time.perf_counter() - t0
        return wall_s, self.refkernel.interpreter_start(self.env)

    def setup(self):
        """Set up SETUP_REPEATS times; returns the last workload, the reps and
        the scaled set-up time.

        A rep is a fresh interpreter importing kossprobe (in-process
        workloads only: a CLI call imports on its own) plus the workload's
        own set-up, which ends with an untimed warm-up (for cli, one cold
        call).  Child-process time is scaled by an interpreter start and
        in-process time by kernel passes, each taken straight after it;
        setup_s is the median scaled rep.
        """
        reps = []
        module = "kossprobe" if self.in_process else "kossprobe.cli"
        for _ in range(SETUP_REPEATS):
            import_s, start_s = self._child_seconds([sys.executable, "-c", f"import {module}"])
            workload = self.make()
            phases = workload.setup()
            ref_s = self.refkernel.timed_median(SETUP_REF_PASSES)
            if self.in_process:
                scaled = (import_s / start_s * START_NOMINAL_S
                          + (phases["inputs_s"] + phases["matrix_s"]) / ref_s * REF_NOMINAL_S)
            else:
                cold_start_s = self.refkernel.interpreter_start(self.env)
                scaled = (phases["inputs_s"] / ref_s * REF_NOMINAL_S
                          + phases["matrix_s"] / cold_start_s * START_NOMINAL_S)
            reps.append({"import_s": import_s, **phases, "scaled_s": scaled})
        return workload, reps, statistics.median(r["scaled_s"] for r in reps)

    def loop(self, workload, seconds: float, tracer=None) -> dict:
        """Closed loop for ``seconds`` and at least ``check_items`` items.

        In-process, every item is followed by a piece of the reference kernel
        (``workload.ref_piece`` iterations, with ``workload.ref_draws``), so
        the kernel samples the host's speed while the batch runs; a batch's
        cost is its item time over the kernel time scaled to one full pass.
        A CLI call is followed by one bare interpreter start, and its cost is
        in units of the mean of the starts just before and just after it.
        """
        costs, raw_item_s, refs, outcomes = [], [], [], []
        start_before = None if self.in_process else self.refkernel.interpreter_start(self.env)
        deadline = time.perf_counter() + seconds
        b = 0
        while time.perf_counter() < deadline or len(outcomes) < workload.check_items:
            inputs = workload.batch_inputs(b)
            outputs, item_s, ref_s = [], 0.0, 0.0
            for item in inputs:
                if tracer is not None:
                    tracer.item = len(outcomes) + len(outputs)
                t0 = time.perf_counter()
                outputs.append(workload.run_item(item))
                t1 = time.perf_counter()
                if self.in_process:
                    self.refkernel.run(workload.ref_piece, workload.ref_draws)
                    ref_s += ((time.perf_counter() - t1)
                              * self.refkernel.ITERATIONS / workload.ref_piece)
                else:
                    start_after = self.refkernel.interpreter_start(self.env)
                    ref_s += 0.5 * (start_before + start_after)
                    start_before = start_after
                item_s += t1 - t0
            costs.append(item_s / ref_s)
            raw_item_s.append(item_s / len(inputs))
            refs.append(ref_s / len(inputs))
            outcomes.extend(workload.check(inputs, outputs))
            b += 1
        return {"costs": costs, "raw_item_s": raw_item_s, "refs": refs,
                "outcomes": outcomes, "batches": b}

    def end_to_end(self, setup_scaled_s, run) -> tuple[dict, dict]:
        costs = run["costs"]
        q, tail_value = tail(costs)
        if self.in_process:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        outcomes = run["outcomes"]
        metrics = {
            "setup_s": _metric(setup_scaled_s, "s"),
            "cost_p50_ref": _metric(statistics.median(costs), "ref"),
            "cost_tail_ref": _metric(tail_value, "ref"),
            "ok_rate": _metric(sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        info = {"batches": run["batches"], "items": len(outcomes), "tail_quantile": q,
                "wall_item_p50_ms": statistics.median(run["raw_item_s"]) * 1e3,
                "ref_p50_ms": statistics.median(run["refs"]) * 1e3}
        return metrics, info


def _layer_metrics(workload, untraced, traced, spans, setup_reps, census) -> dict:
    import tracer as tracing
    from workloads import NOT_CP

    n_items = len(traced["outcomes"])
    metrics = {}
    for layer, (calls, self_s) in tracing.self_times(spans).items():
        metrics[f"{layer}.calls"] = _metric(calls / n_items, "1/item")
        metrics[f"{layer}.self_ms"] = _metric(self_s * 1e3 / n_items, "ms")
    paths = tracing.invert_paths(spans)
    for tag in ("cp", "bootstrap"):
        durations = paths.get(tag, [])
        value = statistics.median(durations) * 1e3 if durations else 0.0
        metrics[f"{tracing.INVERT}.{tag}_path_ms"] = _metric(value, "ms")

    # Deterministic for a seed: counted over the first check_items items only.
    check_set = traced["outcomes"][: workload.check_items]
    inverts = [s for s in spans if s[1] == tracing.INVERT and s[5] < workload.check_items]
    verdict_paths = [s[6] for s in inverts if s[6] in ("cp", "bootstrap")]
    metrics[f"{tracing.INVERT}.bootstrap_share"] = _metric(
        verdict_paths.count("bootstrap") / len(verdict_paths) if verdict_paths else 0.0, "ratio")
    metrics[f"{tracing.INVERT}.bootstrap_draws"] = _metric(
        sum(s[7] for s in inverts) / len(check_set), "1/item")
    metrics["inversion.refusals"] = _metric(sum(s[6] == "refused" for s in inverts), "count")
    errors = [o.err2 for o in check_set if o.err2 is not None]
    if not errors:  # design_scan inverts noise-free rates: report the predicted error
        errors = [o.pred2 for o in check_set if o.pred2 is not None]
    metrics["c_rmse"] = _metric(math.sqrt(statistics.fmean(errors)), "1")
    verdicts = [o.verdict for o in check_set if o.verdict is not None]
    metrics["false_not_cp"] = _metric(verdicts.count(NOT_CP) / len(verdicts), "ratio")

    metrics["cli.import_ms"] = _metric(census["import_ms"], "ms")
    for command, wall_ms in census["wall_ms"].items():
        metrics[f"cli.{command}.wall_ms"] = _metric(wall_ms, "ms")
    for phase in ("import_s", "inputs_s", "matrix_s"):
        metrics[f"setup.{phase}"] = _metric(statistics.median(r[phase] for r in setup_reps), "s")
    metrics["wall.item_p50_ms"] = _metric(statistics.median(untraced["raw_item_s"]) * 1e3, "ms")
    metrics["ref.p50_ms"] = _metric(statistics.median(untraced["refs"]) * 1e3, "ms")
    metrics["trace.overhead_ref"] = _metric(
        statistics.median(traced["costs"]) - statistics.median(untraced["costs"]), "ref")
    return metrics


def _cli_import_ms(env) -> float:
    """Fresh-interpreter import of kossprobe.cli minus that of numpy, in ms."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import kossprobe.cli; print(time.perf_counter() - t1)")
    samples = [float(_run_checked([sys.executable, "-c", code], env).stdout)
               for _ in range(CLI_IMPORT_REPEATS)]
    return statistics.median(samples) * 1e3


def _cli_census(harness, run=None) -> dict:
    """Untraced wall time per CLI subcommand: from ``run`` when it is the cli
    workload's own loop, else from one cycle run here; CLI_EXTRA always."""
    import workloads

    cli = workloads.Cli(harness.args.seed, WORK / "census", harness.env)
    cli.setup()
    walls: dict[str, list[float]] = {}
    if run is None:
        commands = list(workloads.CLI_CYCLE) + list(workloads.CLI_EXTRA)
    else:
        for i, item_s in enumerate(run["raw_item_s"]):
            walls.setdefault(workloads.CLI_CYCLE[i % len(workloads.CLI_CYCLE)], []).append(item_s)
        commands = list(workloads.CLI_EXTRA)
    for command in commands:
        t0 = time.perf_counter()
        output = cli.run_item(command)
        walls.setdefault(command, []).append(time.perf_counter() - t0)
        if not cli.check([command], [output])[0].valid:
            raise RuntimeError(f"cli {command} failed: {output[3]}")
    return {"import_ms": _cli_import_ms(harness.env),
            "wall_ms": {c: statistics.median(w) * 1e3 for c, w in walls.items()}}


def _traced(harness, workload, setup_reps) -> tuple[dict, dict]:
    """Half the time untraced, half traced, same inputs; per-layer metrics."""
    import tracer as tracing

    half = harness.args.seconds / 2.0
    untraced = harness.loop(workload, half)
    spans_path = WORK / f"spans-{harness.args.workload}-seed{harness.args.seed}.jsonl"
    if harness.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = harness.loop(workload, half, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        census = _cli_census(harness)
    else:
        spans_dir = WORK / "cli-spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        workload.spans_dir = spans_dir
        workload.calls = 0
        traced = harness.loop(workload, half)
        extra = list(harness.workloads.CLI_EXTRA)
        traced["outcomes"].extend(workload.check(extra, [workload.run_item(c) for c in extra]))
        spans = []
        for call, path in enumerate(sorted(spans_dir.glob("call-*.jsonl"))):
            offset = len(spans)
            for line in path.read_text().splitlines():
                span_id, layer, start, end, parent, _, tag, draws = json.loads(line)
                spans.append((span_id + offset, layer, start, end,
                              parent + offset if parent >= 0 else -1, call, tag, draws))
        shutil.rmtree(spans_dir)
        census = _cli_census(harness, untraced)
    tracing.write_spans(spans, spans_path)
    metrics = _layer_metrics(workload, untraced, traced, spans, setup_reps, census)
    outcomes = untraced["outcomes"] + traced["outcomes"]
    return metrics, {"outcomes": outcomes, "spans": len(spans), "spans_file": spans_path.name}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "kossprobe" / "__init__.py").is_file():
        print(f"perfbench: no kossprobe sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    harness = Harness(args, _subprocess_env())
    meta = _metadata(args)
    workload, setup_reps, setup_scaled_s = harness.setup()
    meta["setup_reps"] = setup_reps
    if args.trace:
        metrics, info = _traced(harness, workload, setup_reps)
        outcomes = info.pop("outcomes")
        meta.update(info)
    else:
        run = harness.loop(workload, args.seconds)
        metrics, info = harness.end_to_end(setup_scaled_s, run)
        outcomes = run["outcomes"]
        meta.update(info)
    failed = sum(not o.valid for o in outcomes)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
