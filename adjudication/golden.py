"""The golden corpus: outputs that a change must reproduce, or move on purpose.

    PYTHONPATH=src python -m adjudication.golden [DIRECTORY]

writes the corpus into DIRECTORY (default ``adjudication/golden``):

- ``runs/``: two seeded ``simulate`` run files, a rank-1 truth at 10^9 shots
  (g = 2, seed 1) and the non-PSD diag(1, 1, -1) at g = 0.7, calibration 0.5
  and a 144-bit seed;
- ``cli/``: the JSON of ``invert`` on each run, with and without
  ``--project-psd``; of ``build-matrix``, ``forward`` and ``demo-negative`` on
  a small grid of g and theta; of ``cp-check`` on four C; and of the two
  reproducers of the CP answer at the rounding edge, an ``invert`` whose
  estimate has its smallest eigenvalue just beyond the tolerance and a
  ``cp-check`` of such a C;
- ``estimate_boundary-seed-<s>.jsonl``: for each of the first 600 items of the
  benchmark's ``estimate_boundary`` workload at seeds 3 and 11, the run's
  counts, the verdict, its path, C-hat, the margin and the p-value;
- ``design_scan-seed-<s>.jsonl``: for each of the first 32 items of the
  benchmark's ``design_scan`` workload at seeds 3 and 11, two lines: g, theta
  and M, then M's condition number, C-hat, the margin, the verdict and the
  A-criterion (the trace of C-hat's covariance), or, at theta = 0, the
  refusal.  M has a line of its own, so that its entries are held at their
  own scale and not at the condition number's; a refused M's condition
  number and determinant are rounding noise, so its line names only the
  refusal.

``tests/test_golden.py`` writes the corpus again into a temporary directory
and compares it with the committed one.  A change that means to move an
output runs this script and commits the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from kossprobe import KossakowskiMatrix, cli, estimate, run
from perfbench.workloads import DesignScan, Estimate

DIRECTORY = Path(__file__).resolve().parent / "golden"

RANK1 = {"c11": 1.0, "c12": -0.5, "c13": 0.25, "c22": 0.25, "c23": -0.125, "c33": 0.0625}
NEGATIVE = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0).to_dict()
IDENTITY = KossakowskiMatrix.identity().to_dict()
# a C whose smallest eigenvalue lies within a few ulps of -rounding_tolerance
EDGE = KossakowskiMatrix(3.4395040780903914, -0.3427482147956835, -1.4827317532351783,
                         3.4047401241309254, 0.059593123845791296, 0.6414950616870653).to_dict()
# noise-free rates at g = 2 whose estimate has its smallest eigenvalue at that edge
EDGE_RATES = {"rates": [4.220598435133103, 4.941141116183993, 3.307178618159048,
                        2.591998314799737, 8.663870824108967, 15.488486683019108]}

# the simulate runs, by the name of their C: (g, the other options)
RUNS = {
    "rank1": ("2", ["--shots", "1000000000", "--exposure", "0.01", "--calibration", "1",
                    "--seed", "1"]),
    "negative": ("0.7", ["--shots", "1000000", "--exposure", "0.01", "--calibration", "0.5",
                         "--seed", str(0x9E3779B97F4A7C15F39CC0605CEDC834_1082)]),
}
COUPLINGS = ("0.7", "2", "3.5")
PHASES = ("1.5707963267948966", "0.9")  # the canonical pi/2, and one other
BOUNDARY_SEEDS = (3, 11)
BOUNDARY_BATCHES = 150  # four items each
DESIGN_SEEDS = (3, 11)
DESIGN_BATCHES = 4  # eight items each, one per phase k pi/4


def _cli(argv: list[str]) -> str:
    """stdout of one in-process CLI call, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"kossprobe {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def _calls(inputs: Path, runs: Path) -> dict[str, list[str]]:
    """The corpus's CLI calls, by the name of the file that holds each one's output."""
    calls = {}
    for name in RUNS:
        rates = ["--rates", str(runs / name / "run.json"), "--g", RUNS[name][0]]
        calls[f"invert-{name}"] = ["invert", *rates]
        calls[f"invert-{name}-project-psd"] = ["invert", *rates, "--project-psd"]
    calls["invert-edge"] = ["invert", "--rates", str(inputs / "edge-rates.json"), "--g", "2"]
    for g in COUPLINGS:
        for theta in PHASES:
            at = ["--g", g, "--phase", theta]
            calls[f"build-matrix-g{g}-theta{theta}"] = ["build-matrix", *at]
            for c in ("rank1", "negative"):
                c_file = str(inputs / c)
                calls[f"forward-{c}-g{g}-theta{theta}"] = ["forward", "--c-file", c_file, *at]
        calls[f"build-matrix-g{g}-both"] = ["build-matrix", "--g", g, "--source", "both"]
        calls[f"demo-negative-g{g}"] = ["demo-negative", "--g", g]
    for c in ("rank1", "negative", "identity", "edge"):
        calls[f"cp-check-{c}"] = ["cp-check", "--c-file", str(inputs / c)]
    return {name: [*argv, "--output", "json"] for name, argv in calls.items()}


def _boundary_items(seed: int) -> list[str]:
    workload = Estimate(seed, boundary=True)
    workload.setup()
    lines = []
    for b in range(BOUNDARY_BATCHES):
        for config, item_seed in workload.batch_inputs(b):
            experiment_run = run(config)
            result = estimate(experiment_run, workload.matrices[config.g], seed=item_seed)
            lines.append(json.dumps({
                "g": config.g,
                "k": list(experiment_run.detections),
                "verdict": result.cp_verdict,
                "path": result.verdict_path,
                "c_hat": result.c_hat.vector.tolist(),
                "margin": result.margin,
                "p_value": result.p_value,
            }, allow_nan=False) + "\n")
    return lines


def _design_items(seed: int) -> list[str]:
    workload = DesignScan(seed)
    lines = []
    for b in range(DESIGN_BATCHES):
        for g, theta, prior in workload.batch_inputs(b):
            m, _, result, a_criterion = workload.run_item((g, theta, prior))
            probe_line = {"g": g, "theta": theta, "matrix": m.matrix.tolist()}
            if result is None:
                design_line = {"refused": "SingularProbeMatrixError"}
            else:
                design_line = {
                    "condition_number": m.condition_number,
                    "c_hat": result.c_hat.vector.tolist(),
                    "margin": result.margin,
                    "verdict": result.cp_verdict,
                    "a_criterion": a_criterion,
                }
            lines += [json.dumps(line, allow_nan=False) + "\n" for line in (probe_line, design_line)]
    return lines


def write(directory: Path) -> None:
    """Write the whole corpus into ``directory``."""
    runs, out = directory / "runs", directory / "cli"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        inputs = Path(scratch)
        for name, c in [("rank1", RANK1), ("negative", NEGATIVE), ("identity", IDENTITY),
                        ("edge", EDGE)]:
            (inputs / name).write_text(json.dumps(c))
        (inputs / "edge-rates.json").write_text(json.dumps(EDGE_RATES))
        for name, (g, options) in RUNS.items():
            _cli(["simulate", "--c-file", str(inputs / name), "--g", g, *options,
                  "--out", str(runs / name), "--output", "json"])
        for name, argv in _calls(inputs, runs).items():
            (out / f"{name}.json").write_text(_cli(argv))
    for seed in BOUNDARY_SEEDS:
        (directory / f"estimate_boundary-seed-{seed}.jsonl").write_text(
            "".join(_boundary_items(seed)))
    for seed in DESIGN_SEEDS:
        (directory / f"design_scan-seed-{seed}.jsonl").write_text("".join(_design_items(seed)))


if __name__ == "__main__":
    write(Path(sys.argv[1]) if len(sys.argv) > 1 else DIRECTORY)
