"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from kossprobe import experiment, inversion, oracle, probe
from kossprobe.kossakowski import KossakowskiMatrix, d_tilde, kraus_noise
from kossprobe.scattering import coefficients
from kossprobe.spin import basis, pauli, unvec, vec

ARTIFACT = Path(__file__).resolve().parent.parent / "adjudication" / "appendix_matrix.json"

COUNTEREXAMPLE = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
SIGMA = [pauli(i) for i in (1, 2, 3)]


def announce(number, description, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number:02d} PASS - {description}{suffix}")


def random_symmetric(rng, scale=2.0):
    a = rng.uniform(-scale, scale, (3, 3))
    return 0.5 * (a + a.T)


def test_criterion_01_unitarity_and_coefficient_identities():
    start = time.perf_counter()
    for g in np.linspace(0.0, 10.0, 1000):
        co = coefficients(g)
        for t, r in ((co.t0, co.r0), (co.t1, co.r1)):
            assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-12
            assert abs(t.real - abs(t) ** 2) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, "unitarity and Re(t) = |t|^2 over 1000 couplings in [0, 10]", elapsed)


def test_criterion_02_d_tilde_closed_form_vs_bruteforce():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        c = random_symmetric(rng)
        worst = max(worst, float(np.max(np.abs(d_tilde(c) - oracle.d_tilde_bruteforce(c)))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    announce(2, f"compressed form closed vs brute force, max dev {worst:.2e}", elapsed)


def test_criterion_03_forward_model_adjudication():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for g in (0.5, 2.0, 5.0):
        co = coefficients(g)
        for _ in range(100):
            c = random_symmetric(rng)
            got = probe.forward(c, co).rates
            want = oracle.forward_bruteforce(c, co)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12

    # the tabulated closed-form matrix is compared against the programmatic
    # ground truth, with deviations recorded in a committed artifact
    committed = json.loads(ARTIFACT.read_text())
    assert committed["ok"] is True
    fresh = oracle.adjudicate(trials=100)
    assert fresh["ok"] is True
    for key, comparison in fresh["tabulated_matrix"].items():
        recorded = committed["tabulated_matrix"][key]
        got_cells = {(e["row"], e["col"]): e for e in comparison["deviating_entries"]}
        rec_cells = {(e["row"], e["col"]): e for e in recorded["deviating_entries"]}
        assert got_cells.keys() == rec_cells.keys()
        # the values too, not only which cells deviate (measured apart by <= 8.9e-16)
        for cell, entry in got_cells.items():
            for field in ("reference", "other", "abs_deviation"):
                assert abs(entry[field] - rec_cells[cell][field]) <= 1e-12
        assert abs(comparison["max_abs_deviation"] - recorded["max_abs_deviation"]) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(
        3,
        f"forward vs brute force max dev {worst:.2e}; tabulated-matrix deviations "
        "match the committed adjudication artifact",
        elapsed,
    )


def test_criterion_04_invertibility_over_coupling_grid():
    for g in np.linspace(0.2, 10.0, 50):
        m = probe.build_matrix_programmatic(coefficients(g))
        assert abs(m.det) > 0.0
        assert m.condition_number < 1e6
    m0 = probe.build_matrix_programmatic(coefficients(0.0))
    assert abs(m0.det) <= 1e-12
    try:
        inversion.invert_noisy(np.ones(6), np.zeros(6), m0)
    except inversion.SingularProbeMatrixError:
        pass
    else:
        raise AssertionError("singular matrix at g = 0 was not refused")
    announce(4, "M invertible with cond < 1e6 on g in [0.2, 10]; refused at g = 0")


def test_criterion_05_round_trip_recovery():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(0.5, 5.0)
        co = coefficients(g)
        m = probe.build_matrix_programmatic(co)
        truth = KossakowskiMatrix.from_matrix(random_symmetric(rng))
        recovered = inversion.invert_noisy(probe.forward(truth, co), np.zeros(6), m).c_hat
        err = np.linalg.norm(recovered.vector - truth.vector)
        worst = max(worst, err / max(np.linalg.norm(truth.vector), 1e-30))
    assert worst <= 1e-9
    announce(5, f"1000 round trips, worst relative error {worst:.2e}")


def test_criterion_06_counterexample_exact_numbers():
    co = coefficients(2.0)

    rate = probe.probability_rate(COUNTEREXAMPLE, co, "canonical", "transmitted")
    assert abs(rate - (abs(co.t0) ** 2 - abs(co.t1) ** 2)) <= 1e-12
    assert abs(rate - (-0.4)) <= 1e-12

    report = COUNTEREXAMPLE.cp_check()
    assert np.allclose(report.eigenvalues, (-1.0, 1.0, 1.0), atol=1e-14)
    assert not report.psd

    # the single-qubit map is positive: Bloch norms never grow and density
    # eigenvalues stay inside [0, 1] on a state x time grid
    rng = np.random.default_rng(104)
    times = np.linspace(0.0, 5.0, 11)
    for _ in range(40):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) ** (1.0 / 3.0) / np.linalg.norm(v)
        rho0 = 0.5 * (np.eye(2) + sum(v[i] * SIGMA[i] for i in range(3)))
        norms = []
        for t in times:
            rho_t = oracle.exact_evolution(COUNTEREXAMPLE, rho0, float(t))
            eigs = np.linalg.eigvalsh(rho_t)
            assert eigs[0] >= -1e-10 and eigs[-1] <= 1.0 + 1e-10
            bloch = np.array([np.real(np.trace(rho_t @ s)) for s in SIGMA])
            norms.append(np.linalg.norm(bloch))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    # but the lifted map pushes the entangled probe state out of the state space
    v3 = basis("canonical").probe_state
    rho = np.outer(v3, v3.conj())
    min_eig = np.linalg.eigvalsh(oracle.exact_evolution(COUNTEREXAMPLE, rho, 0.01))[0]
    assert min_eig < -1e-6

    announce(
        6,
        "counterexample: rate -0.4, eigenvalues (-1, 1, 1), positive qubit "
        f"evolution, lifted min eigenvalue {min_eig:.4f} at t = 0.01",
    )


def test_criterion_07_psd_coupling_guarantees():
    rng = np.random.default_rng(105)
    min_rate = np.inf
    for trial in range(500):
        if trial % 3 == 0:
            v = rng.normal(size=3)  # rank one, sits on the PSD boundary
            c = np.outer(v, v)
        else:
            a = rng.normal(size=(3, 3))
            c = a.T @ a
        g = rng.uniform(0.2, 8.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rates = probe.forward(c, coefficients(g), theta).rates
        min_rate = min(min_rate, float(rates.min()))
        assert rates.min() >= -1e-12

        ops = kraus_noise(c)
        want = sum(
            c[i, j] * np.kron(SIGMA[i].T, SIGMA[j]) for i in range(3) for j in range(3)
        )
        got = sum(np.kron(w.conj(), w) for w in ops)
        assert np.max(np.abs(got - want)) <= 1e-12
    announce(
        7,
        f"500 PSD couplings at random phases: min rate {min_rate:.2e} >= -1e-12, "
        "Kraus reconstruction exact",
    )


def test_criterion_08_first_order_validity():
    rng = np.random.default_rng(106)
    c = random_symmetric(rng)
    l = oracle.build_superop(c, lifted=True)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    ts = np.array([1e-3, 1e-4, 1e-5])
    errs = []
    for t in ts:
        full = oracle.exact_evolution(c, rho, float(t))
        linear = rho + t * unvec(l @ vec(rho))
        errs.append(float(np.linalg.norm(full - linear)))
    slope = np.polyfit(np.log10(ts), np.log10(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1
    announce(8, f"truncation error scales as t^{slope:.3f}")


def test_criterion_09_end_to_end_estimation():
    start = time.perf_counter()
    truth = KossakowskiMatrix.identity()
    m = probe.build_matrix_programmatic(coefficients(2.0))

    base = experiment.ExperimentConfig(
        true_c=truth, g=2.0, phase=probe.CANONICAL_PHASE, exposure=0.01,
        calibration=1.0, shots_per_channel=1_000_000, seed=0,
    )
    covered = 0
    repetitions = 200
    for rep in range(repetitions):
        result = experiment.estimate(
            experiment.run(replace(base, seed=10_000 + rep)), m
        )
        err = np.abs(result.c_hat.vector - truth.vector)
        covered += bool(np.all(err <= 3.0 * result.standard_errors()))
    coverage = covered / repetitions
    assert coverage >= 0.95

    ns = [1_000, 10_000, 100_000, 1_000_000]
    mean_errors = []
    for n in ns:
        errs = []
        for s in range(16):
            config = experiment.ExperimentConfig(
                true_c=truth, g=2.0, phase=probe.CANONICAL_PHASE, exposure=0.01,
                calibration=1.0, shots_per_channel=n, seed=20_000 + s,
            )
            result = experiment.estimate(experiment.run(config), m)
            errs.append(np.linalg.norm(result.c_hat.matrix - truth.matrix))
        mean_errors.append(np.mean(errs))
    slope = np.polyfit(np.log10(ns), np.log10(mean_errors), 1)[0]
    assert abs(slope - (-0.5)) <= 0.15

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(
        9,
        f"3-sigma coverage {coverage:.1%} over 200 runs; error-vs-N slope {slope:.3f}",
        elapsed,
    )


def test_criterion_10_deterministic_artifacts(tmp_path):
    config = experiment.ExperimentConfig(
        true_c=KossakowskiMatrix.identity(), g=2.0, phase=probe.CANONICAL_PHASE,
        exposure=0.01, calibration=0.8, shots_per_channel=50_000, seed=7,
    )
    experiment.save_run(experiment.run(config), tmp_path / "first")
    experiment.save_run(experiment.run(config), tmp_path / "second")
    for name in ("run.json", "run.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second
    announce(10, "identical seeds produce byte-identical run artifacts")
