"""The benchmark's four workloads: seeded inputs, the timed work, output checks.

Each workload hands out batches of a fixed composition, so every batch costs
about the same and the per-item cost is not bimodal.  ``batch_inputs(b)`` is
a pure function of (seed, b); it is called outside the timed region, and so
is ``check``, which turns each item's output into an ``Outcome``.  The timed
work is ``run_item``, once per item.

The library workloads call kossprobe through module attributes
(``kp.forward``), never through names bound here, so that the tracer's
runtime wrappers see every call.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kossprobe as kp
from kossprobe.inversion import CP, INDETERMINATE, NOT_CP

EXPOSURE = 0.01
SHOTS = 10**9
COUPLINGS = (0.7, 1.0, 2.0, 3.5)
EIGENVALUE_RANGE = (0.5, 1.5)
# Largest accepted |c_hat - c| in units of the propagated standard error.
Z_LIMIT = 7.0
# ||A||_F^2 of a symmetric 3x3 matrix from its six free entries squared.
FROBENIUS_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
WARMUP_BATCH_BASE = 10**6


@dataclass(frozen=True)
class Outcome:
    """The check's verdict on one item, plus what the accuracy metrics need."""

    valid: bool  # the output keeps the program's own contract
    err2: float | None = None  # realized squared Frobenius error of C-hat
    pred2: float | None = None  # squared Frobenius error predicted by the covariance
    verdict: str | None = None

    @property
    def ok(self) -> bool:
        """Valid, and not a not-CP verdict: every truth the workloads draw is PSD.

        A not-CP verdict on a PSD truth follows the documented z-test, which
        may raise Phi(-z) false alarms, so it is not a contract violation;
        it is still a wrong answer, counted in ok_rate and false_not_cp.
        """
        return self.valid and self.verdict != NOT_CP


def random_truth(rng: np.random.Generator, eigenvalues) -> kp.KossakowskiMatrix:
    """A PSD Kossakowski matrix with the given spectrum in a random frame."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return kp.KossakowskiMatrix.from_matrix(q @ np.diag(eigenvalues) @ q.T)


def binomial_sigmas(rates: np.ndarray) -> np.ndarray:
    """Per-channel rate uncertainty for SHOTS detections at EXPOSURE."""
    p = np.clip(EXPOSURE * rates, 0.0, 1.0)
    return np.sqrt(p * (1.0 - p) / SHOTS) / EXPOSURE


def _finite(a, shape) -> bool:
    a = np.asarray(a, dtype=float)
    return a.shape == shape and bool(np.all(np.isfinite(a)))


def check_inversion(result, truth: kp.KossakowskiMatrix) -> tuple[bool, float, float]:
    """Shape, finiteness and self-consistency of an InversionResult.

    Returns (valid, realized squared Frobenius error, predicted squared
    error).  The verdict must follow from the margin as ``invert_noisy``
    documents it, the margin must be the smallest eigenvalue of C-hat, and
    C-hat must lie within Z_LIMIT propagated standard errors of the truth.
    """
    c_hat = result.c_hat.vector
    cov = np.asarray(result.covariance)
    if not (_finite(c_hat, (6,)) and _finite(cov, (6, 6))):
        return False, math.inf, math.inf
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    diff = c_hat - truth.vector
    err2 = float(FROBENIUS_WEIGHTS @ diff**2)
    pred2 = float(FROBENIUS_WEIGHTS @ np.diag(cov))
    ok = (
        np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * float(np.max(np.abs(cov))))
        and math.isclose(result.margin, float(np.linalg.eigvalsh(result.c_hat.matrix)[0]),
                         rel_tol=1e-9, abs_tol=1e-12)
        and bool(np.all(np.abs(diff) <= Z_LIMIT * se + 1e-12 * (1.0 + np.abs(truth.vector))))
    )
    if result.margin >= 0.0:
        ok = ok and result.cp_verdict == CP and result.margin_sigma is None
    else:
        sigma = result.margin_sigma
        ok = ok and sigma is not None and sigma >= 0.0 and result.cp_verdict in (INDETERMINATE, NOT_CP)
        ok = ok and (result.cp_verdict == NOT_CP) == (result.margin <= -3.0 * sigma)
    return bool(ok), err2, pred2


def run_child(argv, env: dict, timeout_s: float = 120.0) -> subprocess.CompletedProcess:
    """Run a child process to the end, capturing its output.

    A watchdog kills it after ``timeout_s``.  ``subprocess.run(timeout=...)``
    is not used because its wait polls in growing sleeps, which rounds every
    measured wall time up to the next poll.
    """
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


class DesignScan:
    """Probe-matrix construction over couplings g in [0.3, 6] and phases k*pi/4.

    A batch is the eight phases, each at its own seeded coupling and with its
    own seeded interior prior.  Each item builds M, pushes the prior through
    ``forward`` and inverts those noise-free rates with binomial sigmas, whose
    covariance trace is the design's A-criterion.  At theta = 0 the matrix is
    singular and the expected output is ``SingularProbeMatrixError``.
    """

    items_per_batch = 8
    check_items = 64
    ref_piece = 10  # reference iterations after each item, about 5% of its time
    ref_draws = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        inputs = self.batch_inputs(WARMUP_BATCH_BASE)
        t1 = time.perf_counter()
        for item in inputs:
            self.run_item(item)
        return {"inputs_s": t1 - t0, "matrix_s": time.perf_counter() - t1}

    def batch_inputs(self, b: int):
        rng = np.random.default_rng([self.seed, b])
        return [
            (float(rng.uniform(0.3, 6.0)), k * np.pi / 4.0,
             random_truth(rng, rng.uniform(*EIGENVALUE_RANGE, 3)))
            for k in range(self.items_per_batch)
        ]

    @staticmethod
    def run_item(item):
        g, theta, prior = item
        coeffs = kp.coefficients(g)
        m = kp.build_matrix_programmatic(coeffs, theta)
        rates = kp.forward(prior, coeffs, theta).rates
        try:
            result = kp.invert_noisy(rates, binomial_sigmas(rates), m)
        except kp.SingularProbeMatrixError:
            return m, rates, None, None
        return m, rates, result, float(np.trace(result.covariance))

    def check(self, inputs, outputs) -> list[Outcome]:
        outcomes = []
        for (g, theta, prior), (m, rates, result, a_criterion) in zip(inputs, outputs):
            if theta == 0.0 or result is None:
                outcomes.append(Outcome(valid=theta == 0.0 and result is None))
                continue
            ok, _, pred2 = check_inversion(result, prior)
            scale = 1.0 + float(np.max(np.abs(rates)))
            ok = (ok and _finite(m.matrix, (6, 6)) and _finite(rates, (6,))
                  and np.allclose(m.matrix @ prior.vector, rates, rtol=0.0, atol=1e-12 * scale)
                  and np.allclose(result.c_hat.vector, prior.vector, rtol=0.0,
                                  atol=1e-12 * m.condition_number * scale)
                  and result.cp_verdict == CP
                  and math.isfinite(a_criterion) and a_criterion > 0.0)
            outcomes.append(Outcome(valid=bool(ok), pred2=pred2, verdict=result.cp_verdict))
        return outcomes


class Estimate:
    """Simulate a run and estimate C from it, with M built once per coupling.

    A batch holds the same number of items at each coupling in COUPLINGS, at
    the canonical phase.
    Interior truths have every eigenvalue in EIGENVALUE_RANGE; at SHOTS
    detections per channel the propagated error of C-hat is far below 0.5,
    so every verdict takes the closed CP path (the check requires it).
    Boundary truths are rank 1 or rank 2, two of each per batch, so their
    smallest eigenvalue is exactly 0 and most estimates need the bootstrap.
    """

    check_items = 200

    def __init__(self, seed: int, boundary: bool) -> None:
        self.seed = seed
        self.boundary = boundary
        # An interior item costs about a seventh of a boundary item.
        self.items_per_batch = len(COUPLINGS) * (1 if boundary else 2)
        self.ref_piece = 40 if boundary else 10
        # Seeding and binomial draws are a tenth of an interior item; a
        # reference that draws too tracks the host's speed better there
        # (window spread 5% against 9% in a 60 s run on 2 cores).
        self.ref_draws = not boundary

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        warmup = self.batch_inputs(WARMUP_BATCH_BASE)
        t1 = time.perf_counter()
        self.matrices = {g: kp.build_matrix_programmatic(kp.coefficients(g)) for g in COUPLINGS}
        for item in warmup:
            self.run_item(item)
        return {"inputs_s": t1 - t0, "matrix_s": time.perf_counter() - t1}

    def batch_inputs(self, b: int):
        rng = np.random.default_rng([self.seed, b])
        items = []
        for j in range(self.items_per_batch):
            g = COUPLINGS[j % len(COUPLINGS)]
            eigenvalues = rng.uniform(*EIGENVALUE_RANGE, 3)
            if self.boundary:
                rank = 1 if (j + b) % 2 == 0 else 2
                eigenvalues[: 3 - rank] = 0.0
            config = kp.ExperimentConfig(
                true_c=random_truth(rng, eigenvalues),
                g=g,
                phase=kp.CANONICAL_PHASE,
                exposure=EXPOSURE,
                calibration=1.0,
                shots_per_channel=SHOTS,
                seed=int(rng.integers(2**62)),
            )
            items.append((config, int(rng.integers(2**31))))
        return items

    def run_item(self, item):
        config, seed = item
        return kp.estimate(kp.run(config), self.matrices[config.g], seed=seed)

    def check(self, inputs, outputs) -> list[Outcome]:
        outcomes = []
        for (config, _), result in zip(inputs, outputs):
            ok, err2, pred2 = check_inversion(result, config.true_c)
            if not self.boundary:
                ok = ok and result.cp_verdict == CP
            outcomes.append(Outcome(valid=ok, err2=err2, pred2=pred2, verdict=result.cp_verdict))
        return outcomes


CLI_CYCLE = ("simulate", "invert", "cp-check", "build-matrix", "forward", "coeffs")
CLI_EXTRA = ("oracle", "demo-negative")


class Cli:
    """One client running ``python -m kossprobe.cli`` once per call.

    A batch is one call; the calls follow the analyst cycle CLI_CYCLE on
    input files written in setup.  ``traced_cli.py`` stands in for
    ``-m kossprobe.cli`` when spans are wanted from inside the calls.
    """

    items_per_batch = 1
    check_items = len(CLI_CYCLE)

    def __init__(self, seed: int, workdir: Path, env: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.spans_dir: Path | None = None
        self.calls = 0
        self._matrix = None

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        rng = np.random.default_rng([self.seed, 0])
        self.g = float(rng.choice(COUPLINGS))
        self.truth = random_truth(rng, rng.uniform(*EIGENVALUE_RANGE, 3))
        self.sim_seed = int(rng.integers(2**31))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.c_file = self.workdir / "c.json"
        self.c_file.write_text(json.dumps(self.truth.to_dict()))
        self.run_dir = self.workdir / "run"
        t1 = time.perf_counter()
        out = self.run_item("build-matrix")
        if not self.check([], [out])[0].valid:
            raise RuntimeError(f"cold build-matrix call failed: {out[3]}")
        return {"inputs_s": t1 - t0, "matrix_s": time.perf_counter() - t1}

    def argv(self, command: str) -> list[str]:
        g = repr(self.g)
        args = {
            "simulate": ["--c-file", str(self.c_file), "--g", g, "--shots", str(SHOTS),
                         "--exposure", repr(EXPOSURE), "--calibration", "1.0",
                         "--seed", str(self.sim_seed), "--out", str(self.run_dir)],
            "invert": ["--rates", str(self.run_dir / "run.json"), "--g", g],
            "cp-check": ["--c-file", str(self.c_file)],
            "build-matrix": ["--g", g, "--source", "both"],
            "forward": ["--c-file", str(self.c_file), "--g", g],
            "coeffs": ["--g", g],
            "oracle": ["--trials", "10"],
            "demo-negative": ["--g", g],
        }[command]
        return [command, *args, "--output", "json"]

    def batch_inputs(self, b: int):
        return [CLI_CYCLE[b % len(CLI_CYCLE)]]

    def run_item(self, command: str):
        if self.spans_dir is None:
            launcher = [sys.executable, "-m", "kossprobe.cli"]
        else:
            spans = self.spans_dir / f"call-{self.calls:05d}.jsonl"
            launcher = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans)]
        self.calls += 1
        proc = run_child([*launcher, *self.argv(command)], self.env)
        return command, proc.returncode, proc.stdout, proc.stderr

    def check(self, inputs, outputs) -> list[Outcome]:
        outcomes = []
        for command, code, stdout, _ in outputs:
            try:
                payload = json.loads(stdout) if code == 0 else None
            except json.JSONDecodeError:
                payload = None
            if payload is None or payload.get("schema_version") != 1:
                outcomes.append(Outcome(valid=False))
                continue
            outcomes.append(self._check_payload(command, payload))
        return outcomes

    def _check_payload(self, command: str, p: dict) -> Outcome:
        try:
            if command == "simulate":
                counts = [p["detections"][label] for label in kp.CHANNELS]
                ok = (all(isinstance(k, int) and 0 < k < SHOTS for k in counts)
                      and p["flagged_channels"] == [] and len(p["config_hash"]) == 64
                      and (self.run_dir / "run.json").is_file())
            elif command == "invert":
                result = kp.InversionResult(
                    c_hat=kp.KossakowskiMatrix.from_dict(p["c_hat"]),
                    covariance=np.asarray(p["covariance"], dtype=float),
                    residual_norm=float(p["residual_norm"]),
                    cp_verdict=p["cp_verdict"],
                    margin=float(p["margin"]),
                    margin_sigma=p["margin_sigma"],
                    condition_number=float(p["condition_number"]),
                )
                ok, err2, pred2 = check_inversion(result, self.truth)
                ok = ok and result.cp_verdict == CP and p["cp_report"]["psd"] is True
                return Outcome(valid=ok, err2=err2, pred2=pred2, verdict=result.cp_verdict)
            elif command == "cp-check":
                ok = (p["psd"] is True and p["min_eigenvalue"] >= 0.0
                      and np.allclose(p["eigenvalues"], self.truth.eigenvalues(), atol=1e-9))
            elif command == "build-matrix":
                m = np.asarray(p["programmatic"]["matrix"], dtype=float)
                ok = (_finite(m, (6, 6)) and _finite(p["appendix"]["matrix"], (6, 6))
                      and isinstance(p["comparison"]["agrees"], bool))
                if ok:
                    self._matrix = m
            elif command == "forward":
                rates = np.array([p["rates"][label] for label in kp.CHANNELS], dtype=float)
                ok = _finite(rates, (6,)) and (
                    self._matrix is None
                    or np.allclose(self._matrix @ self.truth.vector, rates, rtol=1e-12, atol=1e-12))
            elif command == "coeffs":
                ok = (math.isclose(p["T0"] + p["R0"], 1.0, abs_tol=1e-12)
                      and math.isclose(p["T1"] + p["R1"], 1.0, abs_tol=1e-12)
                      and p["g"] == self.g)
            elif command == "oracle":
                ok = p["ok"] is True
            else:  # demo-negative
                ok = p["negative_transmitted_rate"] < 0.0 and p["positive_semidefinite"] is False
        except (KeyError, TypeError, ValueError):
            ok = False
        return Outcome(valid=bool(ok))


def make(name: str, seed: int, workdir: Path, env: dict):
    """The workload ``name``; ``workdir`` and ``env`` serve the CLI calls."""
    if name == "design_scan":
        return DesignScan(seed)
    if name in ("estimate_interior", "estimate_boundary"):
        return Estimate(seed, boundary=name == "estimate_boundary")
    if name == "cli":
        return Cli(seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("design_scan", "estimate_interior", "estimate_boundary", "cli")
