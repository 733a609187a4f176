import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from adjudication import bootstrap_referee as referee
from adjudication import calibrate_cp_test as calibration
from kossprobe import experiment, inversion, probe
from kossprobe.experiment import ExperimentConfig, estimate, run
from kossprobe.kossakowski import InputOverflowError, KossakowskiMatrix, symmetric_from_vector
from kossprobe.scattering import coefficients

G2 = coefficients(2.0)
M2 = probe.build_matrix_programmatic(G2)
COUPLINGS = (0.7, 1.0, 2.0, 3.5)
BOUNDARY_TRUTHS = [
    (1.0, -0.5, 0.25, 0.25, -0.125, 0.0625),  # rank 1: u u^T, u = (1, -1/2, 1/4)
    (1.0, 0.0, 0.0, 0.5, 0.5, 0.5),  # rank 2: null vector (0, 1, -1)
]


def estimates_with_spread(g, truth, noise, rng_seed, **settings):
    """(index, result) for those of six noisy estimates of a truth that need a spread.

    ``noise`` is (relative, absolute): each rate's sigma is relative * |rate| + absolute;
    ``settings`` go to ``invert_noisy``.
    """
    co = coefficients(g)
    m = probe.build_matrix_programmatic(co)
    rates = probe.forward(KossakowskiMatrix(*truth), co).rates
    sigmas = noise[0] * np.abs(rates) + noise[1]
    rng = np.random.default_rng(rng_seed)
    for index in range(6):
        noisy = rates + rng.normal(0.0, sigmas)
        result = inversion.invert_noisy(noisy, sigmas, m, **settings)
        if result.margin_sigma is not None:
            yield index, result


def bootstrap_sigma(center, covariance, seed):
    """The spread of lambda_min over 10k seeded draws from N(center, covariance): the
    parametric bootstrap, the referee of the delta spread."""
    return referee.bootstrap_min_eigenvalue_sigma(center, covariance, 10_000, seed)


def delta_sigma(center, covariance):
    """The delta spread of lambda_min of the estimate, or None where it is not resolved."""
    eigenvalues, frame = np.linalg.eigh(symmetric_from_vector(center))
    path, _, sigma, _ = inversion._evidence(eigenvalues[0], eigenvalues, frame, covariance, 3.0)
    return sigma if path == inversion.DELTA else None


def random_symmetric(rng, scale=2.0):
    a = rng.uniform(-scale, scale, (3, 3))
    return KossakowskiMatrix.from_matrix(0.5 * (a + a.T))


def solve(rates, m):
    """The plain solve of M c = rates: ``invert_noisy`` with zero sigmas."""
    return inversion.invert_noisy(rates, np.zeros(6), m).c_hat


class TestInvertExact:
    """Exact inversion: ``invert_noisy`` with zero sigmas."""

    def test_zero_rates(self):
        c = solve(np.zeros(6), M2)
        assert np.allclose(c.vector, 0.0)

    def test_counterexample_round_trip(self):
        truth = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        recovered = solve(probe.forward(truth, G2), M2)
        assert np.max(np.abs(recovered.vector - truth.vector)) <= 1e-10

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(200):
            g = rng.uniform(0.5, 5.0)
            co = coefficients(g)
            m = probe.build_matrix_programmatic(co)
            truth = random_symmetric(rng)
            recovered = solve(probe.forward(truth, co), m)
            err = np.linalg.norm(recovered.vector - truth.vector)
            worst = max(worst, err / max(np.linalg.norm(truth.vector), 1e-30))
        assert worst <= 1e-9

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(41)
        rates = probe.forward(random_symmetric(rng), G2).rates
        a = 3.7
        scaled = solve(a * rates, M2)
        base = solve(rates, M2)
        assert np.allclose(scaled.vector, a * base.vector, atol=1e-12)

    def test_refuses_singular_matrix(self):
        m0 = probe.build_matrix_programmatic(coefficients(0.0))
        with pytest.raises(inversion.SingularProbeMatrixError) as excinfo:
            solve(np.ones(6), m0)
        assert excinfo.value.condition_number > inversion.CONDITION_LIMIT
        assert abs(excinfo.value.det) <= 1e-12

    @pytest.mark.parametrize("side, refused",
                             [(1.0 - 1e-9, False), (1.0, False), (1.0 + 1e-9, True)],
                             ids=["below", "at", "above"])
    def test_condition_limit_at_its_edge(self, side, refused):
        # a condition number just below, exactly at and just above 1e10
        matrix = np.diag([1.0] * 5 + [1.0 / (1e10 * side)])
        m = probe.ProbeMatrix(matrix, 2.0, probe.CANONICAL_PHASE, "hand-built")
        assert (m.condition_number > 1e10) is refused
        assert (m.inverse is None) is refused
        if side == 1.0:
            assert m.condition_number == 1e10
        if refused:
            with pytest.raises(inversion.SingularProbeMatrixError, match="exceeds 1e\\+10"):
                solve(np.ones(6), m)
        else:
            assert solve(np.ones(6), m).c33 == pytest.approx(1e10 * side, rel=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            solve(np.zeros(5), M2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        rates = np.zeros(6)
        rates[3] = bad
        with pytest.raises(ValueError, match="rates must be finite"):
            solve(rates, M2)


class TestInvertNoisy:
    def test_zero_sigma_reproduces_exact(self):
        rng = np.random.default_rng(42)
        truth = random_symmetric(rng)
        rates = probe.forward(truth, G2).rates
        result = inversion.invert_noisy(rates, np.zeros(6), M2)
        exact = np.linalg.solve(M2.matrix, rates)
        assert np.allclose(result.c_hat.vector, exact, atol=1e-12)
        assert np.allclose(result.covariance, 0.0)
        assert result.residual_norm <= 1e-12

    def test_covariance_propagation_formula(self):
        rng = np.random.default_rng(43)
        sigmas = rng.uniform(0.01, 0.2, 6)
        rates = probe.forward(KossakowskiMatrix.identity(), G2).rates
        result = inversion.invert_noisy(rates, sigmas, M2)
        m_inv = np.linalg.inv(M2.matrix)
        expected = m_inv @ np.diag(sigmas**2) @ m_inv.T
        assert np.allclose(result.covariance, expected, atol=1e-12)
        assert np.allclose(
            result.standard_errors(), np.sqrt(np.diag(expected)), atol=1e-12
        )

    def test_cp_verdict_for_identity(self):
        rates = probe.forward(KossakowskiMatrix.identity(), G2).rates
        result = inversion.invert_noisy(rates, 0.01 * np.ones(6), M2)
        assert result.cp_verdict == inversion.CP
        assert result.margin > 0.9
        assert result.margin_sigma is None

    def test_counterexample_is_significantly_not_cp(self):
        truth = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        rng = np.random.default_rng(44)
        rates = probe.forward(truth, G2).rates + rng.normal(0.0, 1e-3, 6)
        result = inversion.invert_noisy(rates, 1e-3 * np.ones(6), M2)
        assert result.cp_verdict == inversion.NOT_CP
        assert abs(result.margin - (-1.0)) < 0.05
        assert result.margin_sigma is not None and result.margin_sigma < 0.01

    def test_near_boundary_is_indeterminate(self):
        # true minimum eigenvalue slightly negative but within the noise band
        truth = KossakowskiMatrix.diagonal(1.0, 1.0, -0.004)
        rates = probe.forward(truth, G2).rates
        result = inversion.invert_noisy(rates, 0.05 * np.ones(6), M2)
        assert result.cp_verdict == inversion.INDETERMINATE

    def test_psd_truth_rarely_flagged(self):
        # with a 3 sigma rule, Gaussian noise on a CP truth must essentially
        # never produce a not-CP verdict
        rng = np.random.default_rng(45)
        truth_rates = probe.forward(KossakowskiMatrix.identity(), G2).rates
        sigmas = 0.02 * np.abs(truth_rates)
        flagged = 0
        for trial in range(300):
            noisy = truth_rates + rng.normal(0.0, sigmas)
            result = inversion.invert_noisy(noisy, sigmas, M2)
            flagged += result.cp_verdict == inversion.NOT_CP
        assert flagged <= 3

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            inversion.invert_noisy(np.zeros(6), -np.ones(6), M2)

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "rates must be finite"), (np.inf, "rates must be finite"),
         # a complex array was cast to floats with only a ComplexWarning, and a
         # string or a bool in a list was read as a number
         (1e-3j, "rates must be real, got imaginary parts {'P0T': 0.001}"),
         ("1", "rates must be finite, got {'P0T': '1'}"),
         (True, "rates must be finite, got {'P0T': True}")],
        ids=["nan", "inf", "complex", "string", "bool"],
    )
    def test_rejects_non_finite_rates(self, bad, message):
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -1.0), G2).rates.tolist()
        rates[0] = bad
        if isinstance(bad, (float, complex)):  # an array of the entry's dtype
            rates = np.array(rates)
        with pytest.raises(ValueError, match=re.escape(message)):
            inversion.invert_noisy(rates, 0.01 * np.ones(6), M2)

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "sigmas must be finite"), (np.inf, "sigmas must be finite"),
         (1e-3j, "sigmas must be real, got imaginary parts {'P2T': 0.001}"),
         (True, "sigmas must be finite, got {'P2T': True}")],
        ids=["nan", "inf", "complex", "bool"],
    )
    def test_rejects_non_finite_sigma(self, bad, message):
        # a non-PSD estimate, so an unchecked sigma would reach the verdict
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -1.0), G2).rates
        sigmas = [0.01] * 6
        sigmas[2] = bad
        if isinstance(bad, (float, complex)):  # an array of the entry's dtype
            sigmas = np.array(sigmas)
        with pytest.raises(ValueError, match=re.escape(message)):
            inversion.invert_noisy(rates, sigmas, M2)

    @pytest.mark.parametrize(
        "settings", [{"z": -1.0}, {"z": 0.0}, {"z": np.nan}, {"z": np.inf}, {"z": True}]
    )
    def test_rejects_bad_verdict_settings(self, settings):
        # indeterminate by default; a degenerate z must not turn it into
        # not-CP, and it is refused even where the verdict is closed
        near = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.01), G2).rates
        sigmas = 0.05 * np.ones(6)
        assert inversion.invert_noisy(near, sigmas, M2).cp_verdict == inversion.INDETERMINATE
        inside = probe.forward(KossakowskiMatrix.identity(), G2).rates
        for rates in (near, inside):
            with pytest.raises(ValueError, match=next(iter(settings))):
                inversion.invert_noisy(rates, sigmas, M2, **settings)

    @pytest.mark.parametrize(
        "truth, path", [((1.0, 1.0, -1.0), "delta"), ((1.0, 0.0, -0.01), "cone")]
    )
    def test_bootstrap_and_seed_are_inert(self, truth, path):
        # invert_noisy's bootstrap and estimate's seed are kept for the benchmark,
        # but no path draws and neither is checked: any value, those refused
        # when they still drew included, gives the default call's result
        rates = probe.forward(KossakowskiMatrix.diagonal(*truth), G2).rates
        sigmas = 0.05 * np.ones(6)
        want = inversion.invert_noisy(rates, sigmas, M2).to_dict()
        assert want["verdict_path"] == path and want["draws"] == 0
        experiment_run = run(ExperimentConfig(
            true_c=KossakowskiMatrix.diagonal(*truth), g=2.0, phase=probe.CANONICAL_PHASE,
            exposure=0.01, calibration=1.0, shots_per_channel=10**6, seed=7,
        ))
        want_estimate = estimate(experiment_run, M2).to_dict()
        for value in (0, 1, 2, True, False, 2.5, -1, 1_000_001, 2**70):
            assert inversion.invert_noisy(rates, sigmas, M2, bootstrap=value).to_dict() == want
            assert estimate(experiment_run, M2, seed=value).to_dict() == want_estimate

    @pytest.mark.parametrize("call", ["invert_noisy", "estimate"])
    def test_a_plain_array_for_m_is_refused(self, call):
        # M's array in place of its ProbeMatrix failed with an AttributeError on
        # condition_number or g
        config = ExperimentConfig(
            true_c=KossakowskiMatrix.identity(), g=2.0, phase=probe.CANONICAL_PHASE,
            exposure=0.01, calibration=1.0, shots_per_channel=10**6, seed=7,
        )
        rates = probe.forward(config.true_c, G2).rates
        refused = {"invert_noisy": lambda m: inversion.invert_noisy(rates, np.zeros(6), m),
                   "estimate": lambda m: estimate(run(config), m)}[call]
        with pytest.raises(TypeError, match=re.escape(
                "m must be a ProbeMatrix, as build_matrix_programmatic returns, got ndarray")):
            refused(M2.matrix)
        assert refused(M2).cp_verdict == inversion.CP

    def test_benchmark_tracer_binds_the_kept_keywords(self):
        # perfbench's tracer binds invert_noisy's bootstrap by name on every
        # non-closed verdict, estimate's call included, which passes none; its
        # estimate workloads pass estimate a seed
        from perfbench.tracer import INVERT, Tracer

        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 0.0, -0.01), G2).rates
        experiment_run = run(ExperimentConfig(
            true_c=KossakowskiMatrix.diagonal(1.0, 1.0, -0.5), g=2.0, phase=probe.CANONICAL_PHASE,
            exposure=0.01, calibration=1.0, shots_per_channel=10**6, seed=7,
        ))
        tracer = Tracer()
        tracer.install()
        try:
            cone = inversion.invert_noisy(rates, 0.05 * np.ones(6), M2)
            # through the module, whose name the tracer rebinds
            delta = experiment.estimate(experiment_run, M2, seed=7)
        finally:
            tracer.uninstall()
        assert (cone.verdict_path, delta.verdict_path) == (inversion.CONE, inversion.DELTA)
        spans = [(layer, tag, draws) for _, layer, _, _, _, _, tag, draws in tracer.spans]
        assert [span for span in spans if span[0] == INVERT] == [
            (INVERT, "bootstrap", 10_000), (INVERT, "bootstrap", 10_000),
        ]
        assert ("experiment.estimate", None, 0) in spans

    @pytest.mark.parametrize("truth", [(1.0, 1.0, -1.0), (0.3, 0.7, -0.1), (1e-3, 2.0, -7.3)])
    def test_zero_sigmas_give_zero_margin_sigma(self, truth):
        rates = probe.forward(KossakowskiMatrix.diagonal(*truth), G2).rates
        result = inversion.invert_noisy(rates, np.zeros(6), M2)
        assert result.margin < 0.0
        assert result.margin_sigma == 0.0
        assert result.cp_verdict == inversion.NOT_CP
        assert result.verdict_path == inversion.DELTA and result.draws == 0
        assert result.p_value == 0.0 and result.cone_statistic is None

    def test_noise_free_boundary_reads_cp(self):
        # exact rates of a PSD boundary truth: the estimate's smallest
        # eigenvalue is zero up to the inversion's rounding, which is not
        # evidence against CP
        for truth in BOUNDARY_TRUTHS:
            for g in COUPLINGS:
                co = coefficients(g)
                rates = probe.forward(KossakowskiMatrix(*truth), co).rates
                m = probe.build_matrix_programmatic(co)
                result = inversion.invert_noisy(rates, np.zeros(6), m)
                assert result.cp_verdict == inversion.CP, (truth, g, result.margin)
                assert 0.0 <= result.margin <= 1e-14
                assert result.margin_sigma is None
        # a negative eigenvalue beyond rounding still reads not-CP
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -1e-9), G2).rates
        result = inversion.invert_noisy(rates, np.zeros(6), M2)
        assert result.cp_verdict == inversion.NOT_CP
        assert result.margin == pytest.approx(-1e-9, rel=1e-4)

    def test_result_serializes(self):
        rates = probe.forward(KossakowskiMatrix.identity(), G2).rates
        d = inversion.invert_noisy(rates, 0.01 * np.ones(6), M2).to_dict()
        assert d["cp_verdict"] == "CP"
        assert len(d["covariance"]) == 6
        assert d["verdict_path"] == "closed" and d["draws"] == 0
        assert d["p_value"] is None and d["cone_statistic"] is None


class TestOneInversionPerProbeMatrix:
    """M is inverted once per ProbeMatrix, and C-hat decomposed once per inversion."""

    def test_inverse_is_numpys_and_read_only(self):
        m = probe.build_matrix_programmatic(coefficients(1.3), 0.8)
        inverse = m.inverse
        assert inverse.tobytes() == np.linalg.inv(m.matrix).tobytes()
        assert not inverse.flags.writeable
        assert m.inverse is inverse

    def test_det_is_computed_only_where_it_is_read(self, monkeypatch):
        def no_det(a):
            raise AssertionError("det called")

        monkeypatch.setattr(probe, "_det", no_det)
        coeffs, truth = coefficients(1.7), KossakowskiMatrix(*BOUNDARY_TRUTHS[0])
        m = probe.build_matrix_programmatic(coeffs, 0.9)
        rates = probe.forward(truth, coeffs, 0.9).rates
        inversion.invert_noisy(rates, np.full(6, 1e-3), m)
        config = ExperimentConfig(truth, 1.7, 0.9, 0.01, 1.0, 10**9, 3)
        estimate(run(config), m)
        monkeypatch.undo()
        assert m.to_dict()["det"] == float(np.linalg.det(m.matrix))
        singular = probe.build_matrix_programmatic(G2, 0.0)
        det = float(np.linalg.det(singular.matrix))
        with pytest.raises(inversion.SingularProbeMatrixError, match=f"det = {det:.6g},"):
            inversion.invert_noisy(rates, np.zeros(6), singular)

    def test_singular_matrix_is_refused_uninverted(self, monkeypatch):
        def no_inv(a):
            raise AssertionError("inv called")

        monkeypatch.setattr(probe, "_inv", no_inv)
        # a fresh M, past the memo, which may already hold this pair
        m = probe._probe_matrix.__wrapped__(G2, 0.0)
        assert m.inverse is None
        with pytest.raises(inversion.SingularProbeMatrixError):
            inversion.invert_noisy(np.ones(6), np.zeros(6), m)

    @pytest.mark.parametrize("truth, path", [
        ((0.8, 0.1, -0.2, 0.5, 0.05, 0.3), inversion.CLOSED),
        (BOUNDARY_TRUTHS[1], inversion.DELTA),
        (BOUNDARY_TRUTHS[0], inversion.CONE),
    ], ids=["closed", "delta", "cone"])
    def test_margin_is_the_lambda_min_the_evidence_reads(self, monkeypatch, truth, path):
        spectra = []
        evidence = inversion._evidence

        def spy(margin, eigenvalues, *rest):
            spectra.append((margin, eigenvalues))
            return evidence(margin, eigenvalues, *rest)

        monkeypatch.setattr(inversion, "_evidence", spy)
        rates = probe.forward(KossakowskiMatrix(*truth), G2).rates
        sigmas = SMALL_NOISE[0] * np.abs(rates) + SMALL_NOISE[1]
        rng = np.random.default_rng(61)
        paths = set()
        for _ in range(6):
            spectra.clear()
            result = inversion.invert_noisy(rates + rng.normal(0.0, sigmas), sigmas, M2)
            paths.add(result.verdict_path)
            if result.verdict_path == inversion.CLOSED:
                assert not spectra
                eigenvalues = np.linalg.eigh(symmetric_from_vector(result.c_hat.vector))[0]
                assert result.margin == max(eigenvalues[0], 0.0)
            else:
                ((margin, eigenvalues),) = spectra
                assert result.margin == margin == eigenvalues[0]
        assert path in paths

    @pytest.mark.parametrize("seed", range(6))
    def test_covariance_is_the_dense_product(self, seed):
        # bitwise M^-1 diag(sigma^2) M^-T, zero sigmas included, with no -0.0
        rng = np.random.default_rng(seed)
        m = probe.build_matrix_programmatic(coefficients(rng.uniform(0.3, 6.0)),
                                            rng.uniform(0.1, 3.0))
        sigmas = rng.uniform(0.0, 0.1, 6) * (rng.uniform(size=6) < 0.6) if seed else np.zeros(6)
        result = inversion.invert_noisy(rng.normal(size=6), sigmas, m)
        m_inv = np.linalg.inv(m.matrix)
        want = m_inv @ np.diag(sigmas**2) @ m_inv.T
        assert result.covariance.tobytes() == want.tobytes()
        assert not np.signbit(result.covariance[result.covariance == 0.0]).any()

    @pytest.mark.parametrize("rates, sigmas, message", [
        ([math.nan] + [0.1] * 5, [0.01] * 6, "rates must be finite, got {'P0T': nan}"),
        ([0.1] * 5 + [-math.inf], [0.01] * 6, "rates must be finite, got {'P2R': -inf}"),
        ([True] + [0.1] * 5, [0.01] * 6, "rates must be finite, got {'P0T': True}"),
        ([0.1 + 1j] + [0.1] * 5, [0.01] * 6, "rates must be real, got imaginary parts {'P0T': 1.0}"),
        ([0.1] * 6, [0.01] * 2 + [math.nan] + [0.01] * 3, "sigmas must be finite, got {'P2T': nan}"),
        ([0.1] * 6, [math.inf] + [0.01] * 5, "sigmas must be finite, got {'P0T': inf}"),
        ([0.1] * 6, [0.01] * 5 + [False], "sigmas must be finite, got {'P2R': False}"),
        ([0.1] * 6, [0.01 + 0.5j] + [0.01] * 5,
         "sigmas must be real, got imaginary parts {'P0T': 0.5}"),
        (np.full(6, 0.1), np.array([np.nan] + [0.01] * 5), "sigmas must be finite, got {'P0T': nan}"),
        ([0.1] * 6, [-1e-300] + [0.01] * 5, "sigmas must be nonnegative, got {'P0T': -1e-300}"),
        (np.full(6, 0.1), np.array([0.01] * 5 + [-0.01]),
         "sigmas must be nonnegative, got {'P2R': -0.01}"),
    ])
    def test_refusals_and_their_messages(self, rates, sigmas, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            inversion.invert_noisy(rates, sigmas, M2)

    def test_negative_zero_sigma_is_accepted(self):
        rates = probe.forward(KossakowskiMatrix.identity(), G2).rates
        result = inversion.invert_noisy(rates, [-0.0] + [0.01] * 5, M2)
        want = inversion.invert_noisy(rates, [0.0] + [0.01] * 5, M2)
        assert result.covariance.tobytes() == want.covariance.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rates, sigmas", [
        ([1.0] * 6, [1e308] + [1.0] * 5), ([1e308] + [1.0] * 5, [0.0] * 6),
        ([1.7e308] * 6, [0.0] * 6),
    ], ids=["huge sigma", "huge rate", "overflowing estimate"])
    def test_refuses_an_overflowing_estimate(self, rates, sigmas):
        with pytest.raises(InputOverflowError, match="rates or sigmas too large"):
            inversion.invert_noisy(rates, sigmas, M2)


def random_truth(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return KossakowskiMatrix.from_matrix(q @ np.diag(eigenvalues) @ q.T)


SMALL_NOISE = (0.005, 1e-4)


class TestVerdictPath:
    @pytest.mark.parametrize("g", COUPLINGS)
    @pytest.mark.parametrize(
        "truth", [BOUNDARY_TRUTHS[1], (1.0, 0.0, 0.0, 1.0, 0.0, -1.0)], ids=["rank2", "counterexample"]
    )
    def test_delta_path_for_gapped_spectra(self, g, truth):
        # lambda_min is far from the other eigenvalues: the delta spread, which
        # agrees with a 10k-draw bootstrap within its Monte-Carlo error
        delta = 0
        for seed, result in estimates_with_spread(g, truth, SMALL_NOISE, 49):
            assert result.verdict_path == inversion.DELTA and result.draws == 0
            boot = bootstrap_sigma(result.c_hat.vector, result.covariance, seed)
            assert abs(result.margin_sigma / boot - 1.0) <= 0.04
            delta += 1
        assert delta >= 4

    @pytest.mark.parametrize("g", COUPLINGS)
    @pytest.mark.parametrize(
        "truth", [BOUNDARY_TRUTHS[0], (0.0,) * 6], ids=["rank1", "zero"]
    )
    def test_cone_for_degenerate_spectra(self, g, truth):
        # the two smallest eigenvalues are equal in truth, so the estimate's gap
        # is of the order of the noise; at a rank-1 truth the block of the two
        # is resolved from the top eigenvalue, at the zero truth it is not
        estimates = list(estimates_with_spread(g, truth, SMALL_NOISE, 49))
        assert estimates
        for _, result in estimates:
            assert result.verdict_path == inversion.CONE and result.draws == 0
            assert 0.0 < result.p_value <= 1.0 and result.cone_statistic > 0.0
            assert_normal_equivalent(result)
            # the half-space statistic is a lower bound on the block's, and is
            # the statistic when the block is unresolved
            t = (result.margin / delta_spread(result)) ** 2
            assert result.cone_statistic >= t * (1.0 - 1e-9)
            if result.cone_statistic <= t * (1.0 + 1e-9):
                perlman = 0.5 * (stats.chi2.sf(t, 5) + stats.chi2.sf(t, 6))
                half_space = 0.5 * stats.chi2.sf(t, 1)
                errors = [abs(result.p_value / want - 1.0) for want in (perlman, half_space)]
                assert min(errors) <= 1e-9

    @pytest.mark.parametrize("g", COUPLINGS)
    @pytest.mark.parametrize(
        "truth", [BOUNDARY_TRUTHS[0], (0.0,) * 6], ids=["rank1", "zero"]
    )
    def test_bootstrap_for_degenerate_spectra(self, g, truth):
        # where the bootstrap ran, a call that still asks for 2000 draws takes
        # the cone path with none, and gets the default call's result
        asked = list(estimates_with_spread(g, truth, SMALL_NOISE, 49, bootstrap=2000))
        default = list(estimates_with_spread(g, truth, SMALL_NOISE, 49))
        assert asked and len(asked) == len(default)
        for (_, result), (_, want) in zip(asked, default):
            assert result.verdict_path == inversion.CONE and result.draws == 0
            assert result.to_dict() == want.to_dict()

    def test_coupling_spread_refuses_anisotropic_case(self):
        # a nearly rank-1 estimate, diag(-0.01, 0.01, 1): lambda_min's own
        # spread (c11's, 1e-4) is far below the gap of 0.02, but that of its
        # coupling to the next eigenvector (c12's, 1e-2) is not
        center = np.array([-0.01, 0.0, 0.0, 0.01, 0.0, 1.0])
        covariance = np.diag([1e-8, 1e-4, 0.0, 0.0, 0.0, 0.0])
        assert delta_sigma(center, covariance) is None
        # the coupling mixes the two small eigenvalues, so the first-order
        # spread of 1e-4 would be far too small
        boot = bootstrap_sigma(center, covariance, 0)
        assert boot > 10 * 1e-4
        # with that coupling quiet, the same spectrum is resolved
        isotropic = 1e-8 * np.eye(6)
        sigma = delta_sigma(center, isotropic)
        assert sigma == pytest.approx(1e-4, rel=1e-12)

    def test_verdicts_match_forced_bootstrap(self):
        # 240 simulated rank-1 and rank-2 truths, 10^9 shots per channel at
        # exposure 0.01.  Rank 2 takes the delta path, and each verdict is the
        # one a 10k-draw bootstrap gives, except where the margin lies within
        # the two spreads' 4% agreement of the threshold, where the bootstrap's
        # own verdict depends on its seed.  Rank 1 takes the cone path, whose
        # verdict follows its p-value.
        matrices = {g: probe.build_matrix_programmatic(coefficients(g)) for g in COUPLINGS}
        rng = np.random.default_rng(12)
        paths, at_threshold = [], 0
        for j in range(240):
            g, rank = COUPLINGS[j % 4], 1 + (j // 4) % 2
            eigenvalues = rng.uniform(0.5, 1.5, 3)
            eigenvalues[: 3 - rank] = 0.0
            config = ExperimentConfig(
                true_c=random_truth(rng, eigenvalues), g=g, phase=probe.CANONICAL_PHASE,
                exposure=0.01, calibration=1.0, shots_per_channel=10**9,
                seed=int(rng.integers(2**31)),
            )
            result = estimate(run(config), matrices[g])
            paths.append((rank, result.verdict_path))
            if result.verdict_path == inversion.CONE:
                assert_normal_equivalent(result)
                not_cp = result.p_value <= stats.norm.sf(3.0) * (1.0 + 1e-9)
                assert (result.cp_verdict == inversion.NOT_CP) == not_cp
            if result.verdict_path != inversion.DELTA:
                continue
            boot = bootstrap_sigma(result.c_hat.vector, result.covariance, j)
            if abs(result.margin / (3.0 * boot) + 1.0) <= 0.04:
                at_threshold += 1
                continue
            forced = inversion.NOT_CP if result.margin <= -3.0 * boot else inversion.INDETERMINATE
            assert result.cp_verdict == forced, (j, result.margin, result.margin_sigma, boot)
        assert paths.count((2, inversion.DELTA)) >= 40
        assert paths.count((1, inversion.CONE)) >= 80
        assert {path for _, path in paths} == {inversion.CLOSED, inversion.DELTA, inversion.CONE}
        assert (2, inversion.CONE) not in paths and (1, inversion.DELTA) not in paths
        assert at_threshold <= 2


def assert_normal_equivalent(result):
    """margin_sigma is the spread whose normal tail at the margin is the p-value, or
    -2 margin / z (z = 3) where no spread gives it."""
    if result.p_value < stats.norm.sf(1.5):
        assert stats.norm.cdf(result.margin / result.margin_sigma) == pytest.approx(
            result.p_value, rel=1e-9
        )
    else:
        assert result.margin_sigma == pytest.approx(-result.margin / 1.5, rel=1e-12)


def coupling_gradient(v, w):
    """The gradient of v^T E w over the six parameters (c11, c12, c13, c22, c23, c33) of E."""
    return (np.outer(v, w) + np.outer(w, v) - np.diag(v * w))[np.triu_indices(3)]


def delta_spread(result):
    """sqrt(g^T Sigma g) for lambda_min of the estimate, g its gradient over the parameters."""
    _, frame = np.linalg.eigh(result.c_hat.matrix)
    gradient = coupling_gradient(frame[:, 0], frame[:, 0])
    return math.sqrt(gradient @ result.covariance @ gradient)


def random_block_covariance(rng):
    a = rng.normal(size=(3, 3))
    return a @ a.T + 0.1 * np.eye(3)


def in_psd_cone(y):
    """y = (Y11, Y12, Y22), (..., 3): whether Y is PSD."""
    y11, y12, y22 = np.moveaxis(y, -1, 0)
    return (y11 + y22 >= 0.0) & (y11 * y22 >= y12 * y12)


def elliptic_ratios(covariance):
    """(r0, r1): in whitened coordinates of N(0, covariance), the 2x2 PSD cone is the
    elliptic cone x2 >= sqrt(r0 x0^2 + r1 x1^2) in the eigenframe of
    B = root^T _DETERMINANT root, and its polar that of 1 / r0, 1 / r1."""
    d, q = np.linalg.eigh(covariance)
    root = q * np.sqrt(d)
    mu = np.linalg.eigvalsh(root.T @ inversion._DETERMINANT @ root)
    return -mu[0] / mu[2], -mu[1] / mu[2]


def cone_weights(covariance):
    """(w3, w0) as the cone test takes them: the N(0, covariance) measures of the 2x2 PSD
    cone and of its polar."""
    r0, r1 = elliptic_ratios(covariance)
    return inversion._cone_fraction(r0, r1), inversion._cone_fraction(1.0 / r0, 1.0 / r1)


def chi_bar_tail(t, w3, w0):
    tails = [stats.chi2.sf(t, k) for k in (1, 2, 3)]
    return w0 * tails[2] + (0.5 - w3) * tails[1] + (0.5 - w0) * tails[0]


def in_polar(y, covariance):
    """Whether y is in the polar of the 2x2 PSD cone in the covariance^-1 metric: exactly
    when u = -covariance^-1 y, read as [[u11, u12 / 2], [u12 / 2, u22]], is PSD."""
    return in_psd_cone(-np.linalg.solve(covariance, y) * np.array([1.0, 0.5, 1.0]))


def cone_fraction_by_quadrature(r0, r1):
    """P(x2 >= sqrt(r0 x0^2 + r1 x1^2)), x standard normal: the mean over the azimuth psi
    of (1 - cos theta) / 2, with tan^2 theta = 1 / (r0 cos^2 psi + r1 sin^2 psi)."""

    def one_minus_cos(psi):
        tan2 = 1.0 / (r0 * math.cos(psi) ** 2 + r1 * math.sin(psi) ** 2)
        r = math.sqrt(1.0 + tan2)
        return tan2 / (r * (1.0 + r))

    total, _ = integrate.quad(one_minus_cos, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-13,
                              limit=200)
    return total / math.pi


def referee_distance(y, covariance, rays=2**20, zoom_rays=2**12, zooms=3):
    """The covariance^-1 distance squared from y to the 2x2 PSD cone, by brute force over
    its boundary rays u u^T, u = (cos a, sin a): ``rays`` angles a over [0, pi), then
    ``zooms`` times ``zoom_rays`` angles across the best angle's neighbours.  The
    distance is that of the residual from the best ray, free of the cancellation in
    |x|^2 - fit."""
    d, q = np.linalg.eigh(covariance)
    whiten = q.T / np.sqrt(d)[:, None]
    x = whiten @ y
    if in_psd_cone(y):
        return 0.0
    lo, hi, n = 0.0, np.pi, rays
    for _ in range(zooms + 1):
        a = np.linspace(lo, hi, n)
        u = whiten @ np.stack([np.cos(a) ** 2, np.cos(a) * np.sin(a), np.sin(a) ** 2])
        u /= np.linalg.norm(u, axis=0)
        reach = x @ u
        k = int(np.argmax(reach))
        step = (hi - lo) / (n - 1)
        lo, hi, n = a[k] - 2.0 * step, a[k] + 2.0 * step, zoom_rays
    residual = x - max(reach[k], 0.0) * u[:, k]
    return float(residual @ residual)


def brute_distances(y, covariance, rays=2048):
    """The covariance^-1 distance squared from each row of y to the 2x2 PSD cone, over a
    grid of its boundary rays u u^T: an upper bound, since the grid can miss the
    closest ray (``referee_distance`` zooms in on it)."""
    d, q = np.linalg.eigh(covariance)
    whiten = q.T / np.sqrt(d)[:, None]
    a = np.linspace(0.0, np.pi, rays, endpoint=False)
    u = np.stack([np.cos(a) ** 2, np.cos(a) * np.sin(a), np.sin(a) ** 2], axis=1) @ whiten.T
    u /= np.linalg.norm(u, axis=1)[:, None]
    x = y @ whiten.T
    fit = np.concatenate(
        [(np.maximum(chunk @ u.T, 0.0) ** 2).max(axis=1) for chunk in np.array_split(x, 20)]
    )
    return np.where(in_psd_cone(y), 0.0, (x * x).sum(axis=1) - fit)


class TestConeTest:
    """The cone path's law against a seeded Monte Carlo referee, and its size."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chi2_tails(self, k):
        for t in (0.0, 1e-3, 1.0, 4.0, 9.0, 30.0, 200.0):
            assert inversion._chi2_tail(k, t) == pytest.approx(stats.chi2.sf(t, k), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_match_sampled(self, seed):
        # w3 = P(Z in K) and w0 = P(Z in the polar), Z ~ N(0, S); Z is in the
        # polar exactly when u = -S^-1 Z, read as [[u11, u12 / 2], [u12 / 2, u22]], is PSD
        rng = np.random.default_rng(seed)
        covariance = random_block_covariance(rng)
        w3, w0 = cone_weights(covariance)
        n = 400_000
        z = rng.multivariate_normal(np.zeros(3), covariance, size=n)
        u = -np.linalg.solve(covariance, z.T).T * np.array([1.0, 0.5, 1.0])
        for w, sampled in ((w3, in_psd_cone(z).mean()), (w0, in_psd_cone(u).mean())):
            assert abs(sampled - w) <= 4.5 * math.sqrt(w * (1.0 - w) / n)

    @pytest.mark.parametrize("r", [1e-6, 0.01, 1.0, 7.0, 1e6])
    def test_circular_cone_fraction(self, r):
        # r0 = r1 = r: a circular cone of half-angle theta, tan theta = 1 / sqrt(r)
        theta = math.atan(1.0 / math.sqrt(r))
        want = (1.0 - math.cos(theta)) / 2.0
        assert inversion._cone_fraction(r, r) == pytest.approx(want, rel=1e-12, abs=1e-16)

    def test_cone_fraction_matches_quadrature(self):
        rng = np.random.default_rng(12)
        for r0, r1 in np.exp(rng.uniform(-9.0, 9.0, size=(40, 2))):
            assert inversion._cone_fraction(r0, r1) == pytest.approx(
                cone_fraction_by_quadrature(r0, r1), rel=1e-10, abs=1e-15
            )

    @pytest.mark.parametrize("log_cond, seed", [(4, 440), (6, 640), (8, 844)])
    def test_distance_at_ill_conditioned_blocks(self, log_cond, seed):
        # block covariances of condition number 10^4 to 10^8 in random frames
        # and points outside the cone and outside its polar, whose projection
        # is on a boundary ray: the fit over the rays can have a narrow peak
        # (seeds 640 and 844 draw peaks narrower than a 256-ray grid's step),
        # and T is the distance that the zooming ray referee finds
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 4:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            scales = np.logspace(0.0, -0.5 * log_cond, 3)
            covariance = (q * scales**2) @ q.T
            y = q @ (scales * rng.normal(size=3))
            if in_psd_cone(y) or in_polar(y, covariance):
                continue
            t, _ = inversion._block_cone_test(y, covariance)
            assert t == pytest.approx(referee_distance(y, covariance), rel=1e-8)
            checked += 1

    def test_rank_deficient_block_covariance(self):
        # seeded block covariances of rank 1 and 2, as zero rate sigmas give:
        # the eigenvalues of B that rounding leaves near zero keep their
        # bound, so T is finite and p a probability
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for rank in (1, 2):
                a = rng.normal(size=(3, rank))
                for y in rng.normal(size=(4, 3)):
                    t, p = inversion._block_cone_test(y, a @ a.T)
                    assert math.isfinite(t) and t >= 0.0 and 0.0 <= p <= 1.0

    @pytest.mark.parametrize("scale", [2.0**-530, 2.0**-600])
    def test_distance_of_tiny_points(self, scale):
        # T is of degree 2 in x, also where the squares of x underflow: no
        # division by zero, and T rounds to the scaled distance
        for x in ((1.0, 0.0, 0.1), (-0.3, 0.8, 0.2), (0.5, -0.4, -0.05)):
            want = inversion._cone_distance(*x, 2.0, 0.3) * scale**2
            got = inversion._cone_distance(*(scale * v for v in x), 2.0, 0.3)
            assert got == pytest.approx(want, rel=1e-12)

    def test_ill_conditioned_inversion_matches_referee(self):
        # a seeded rank-1 truth at g = 0.5 and phase 7 pi / 4, rate sigmas
        # spread over a factor of about 4e3: the block of the two lowest
        # eigenvectors has a covariance of condition number about 1.6e7, and
        # T and p are those of the referee's distance and weights
        rng = np.random.default_rng(25475)
        co = coefficients(0.5)
        m = probe.build_matrix_programmatic(co, 7.0 * math.pi / 4.0)
        u = rng.normal(size=3)
        rates = probe.forward(KossakowskiMatrix.from_matrix(np.outer(u, u)), co,
                              7.0 * math.pi / 4.0).rates
        sigmas = 10.0 ** rng.uniform(-3.0, 0.0) * np.exp(rng.uniform(math.log(1.0 / 8e3), 0.0, 6))
        result = inversion.invert_noisy(rates + rng.normal(0.0, sigmas), sigmas, m)
        assert result.verdict_path == inversion.CONE
        eigenvalues, frame = np.linalg.eigh(result.c_hat.matrix)
        gradients = np.array(
            [coupling_gradient(frame[:, j], frame[:, k]) for j, k in ((0, 0), (0, 1), (1, 1))]
        )
        covariance = gradients @ result.covariance @ gradients.T
        assert np.linalg.cond(covariance) > 1e7
        t = referee_distance(np.array([eigenvalues[0], 0.0, eigenvalues[1]]), covariance)
        r0, r1 = elliptic_ratios(covariance)
        w3, w0 = cone_fraction_by_quadrature(r0, r1), cone_fraction_by_quadrature(1 / r0, 1 / r1)
        assert result.cone_statistic == pytest.approx(t, rel=1e-8)
        assert result.p_value == pytest.approx(chi_bar_tail(t, w3, w0), rel=1e-9)
        assert t == pytest.approx(0.0264049815248, rel=1e-6)

    def test_tail_matches_empirical(self):
        # at the cone's vertex, P(T >= t) is the chi-bar-squared mixture
        rng = np.random.default_rng(7)
        covariance = random_block_covariance(rng)
        n = 40_000
        y = rng.multivariate_normal(np.zeros(3), covariance, size=n)
        brute = brute_distances(y, covariance)
        for row, t_brute in zip(y[:100], brute):
            t, p = inversion._block_cone_test(row, covariance)
            # the grid's rays miss the closest one by up to half a grid step
            assert -1e-9 <= t_brute - t <= 1e-4 * (1.0 + t)
        w3, w0 = cone_weights(covariance)
        assert np.mean(brute == 0.0) == pytest.approx(w3, abs=4.5 * math.sqrt(w3 / n))
        for t in (1.0, 4.0, 9.0):
            want = chi_bar_tail(t, w3, w0)
            assert abs(np.mean(brute >= t) - want) <= 4.5 * math.sqrt(want * (1.0 - want) / n)

    def test_p_value_is_the_mixture(self):
        rng = np.random.default_rng(8)
        covariance = random_block_covariance(rng)
        w3, w0 = cone_weights(covariance)
        for y in ([-1.0, 0.0, 2.0], [-0.1, 0.3, 0.2], [-3.0, 0.5, -1.0]):
            t, p = inversion._block_cone_test(np.array(y), covariance)
            assert t > 0.0 and p == pytest.approx(chi_bar_tail(t, w3, w0), rel=1e-12)
        t, p = inversion._block_cone_test(np.array([1.0, 0.2, 2.0]), covariance)
        assert t == 0.0 and p == pytest.approx(1.0 - w3, rel=1e-12)

    @pytest.mark.parametrize("truth", [BOUNDARY_TRUTHS[0], (0.0,) * 6], ids=["rank1", "zero"])
    def test_size(self, truth):
        # z = 2 (nominal size Phi(-2) = 2.28%) at a PSD truth on the boundary,
        # Gaussian noise of 0.05 on every rate: not-CP at most at the nominal
        # rate, within a binomial bound 3 standard deviations above it
        z, n = 2.0, 3000
        rates = probe.forward(KossakowskiMatrix(*truth), G2).rates
        sigmas = 0.05 * np.ones(6)
        rng = np.random.default_rng(2024)
        flagged, cone = 0, 0
        for _ in range(n):
            result = inversion.invert_noisy(rates + rng.normal(0.0, sigmas), sigmas, M2, z=z)
            flagged += result.cp_verdict == inversion.NOT_CP
            cone += result.verdict_path == inversion.CONE
        nominal = stats.norm.sf(z)
        assert cone >= n // 3
        assert flagged <= n * nominal + 3.0 * math.sqrt(n * nominal * (1.0 - nominal))

    def test_perlman_bound_at_zero_truth(self):
        # noise on the rates of C = 0: no eigenvalue is resolved, so the
        # p-value is Perlman's bound at the half-space statistic
        rng = np.random.default_rng(10)
        sigmas = 0.05 * np.ones(6)
        bounded = 0
        for _ in range(20):
            result = inversion.invert_noisy(rng.normal(0.0, sigmas), sigmas, M2)
            if result.verdict_path != inversion.CONE:
                continue
            t = (result.margin / delta_spread(result)) ** 2
            if result.cone_statistic == pytest.approx(t, rel=1e-9):
                want = 0.5 * (stats.chi2.sf(t, 5) + stats.chi2.sf(t, 6))
                assert result.p_value == pytest.approx(want, rel=1e-9)
                bounded += 1
        assert bounded >= 5

    def test_block_needs_top_eigenvalue_resolved_from_zero(self):
        # diag(-0.01, 0, 0.02) with quiet couplings to the top eigenvector: the
        # block is resolved from the top eigenvalue, but that eigenvalue is
        # within the noise of zero, as at a zero truth, where the block's
        # cone is too small a null; the p-value is Perlman's bound
        eigenvalues = np.array([-0.01, 0.0, 0.02])
        covariance = np.diag([1e-4, 1e-12, 1e-12, 1e-4, 1e-12, 1e-4])
        path, p, _, t = inversion._evidence(-0.01, eigenvalues, np.eye(3), covariance, 3.0)
        assert path == inversion.CONE and t == pytest.approx(1.0, rel=1e-12)
        assert p == pytest.approx(0.5 * (stats.chi2.sf(1.0, 5) + stats.chi2.sf(1.0, 6)), rel=1e-12)
        # with the top eigenvalue clear of zero, the block's cone is the null
        eigenvalues = np.array([-0.01, 0.0, 1.0])
        path, p, _, t = inversion._evidence(-0.01, eigenvalues, np.eye(3), covariance, 3.0)
        assert path == inversion.CONE
        assert p == pytest.approx(inversion._block_cone_test(np.array([-0.01, 0.0, 0.0]),
                                                             np.diag([1e-4, 1e-12, 1e-4]))[1])

    @pytest.mark.parametrize("spreads", [(2.0, 4.0), (4.0, 2.0)], ids=["c13-smaller", "c23-smaller"])
    def test_block_needs_both_couplings_to_the_top_resolved(self, spreads):
        # frame I: the couplings of the two lowest eigenvectors to the top one are
        # c13 and c23, of spreads 2 and 4.  lambda_3 - lambda_2 = 30 is 10 spreads of
        # the quieter one but not of the noisier, so the block is not resolved from
        # the top eigenvalue: T is the half-space statistic under Perlman's bound
        eigenvalues = np.array([-1.0, 0.0, 30.0])
        covariance = np.diag([1.0, 1.0, spreads[0] ** 2, 1.0, spreads[1] ** 2, 1.0])
        path, p, _, t = inversion._evidence(-1.0, eigenvalues, np.eye(3), covariance, 3.0)
        assert path == inversion.CONE and t == 1.0
        assert p == pytest.approx(0.5 * (stats.chi2.sf(1.0, 5) + stats.chi2.sf(1.0, 6)), rel=1e-12)
        # at 50, 10 spreads of both, it is: the block test
        eigenvalues[2] = 50.0
        path, p, _, _ = inversion._evidence(-1.0, eigenvalues, np.eye(3), covariance, 3.0)
        assert path == inversion.CONE
        assert p == inversion._block_cone_test(np.array([-1.0, 0.0, 0.0]), np.eye(3))[1]

    @pytest.mark.parametrize(
        "gap, path", [(9.0, inversion.CONE), (10.0, inversion.DELTA), (11.0, inversion.DELTA)]
    )
    def test_lambda_min_is_resolved_at_ten_spreads(self, gap, path):
        # unit spreads, frame I: lambda_min is resolved from lambda_2 at a gap of
        # 10 spreads (RESOLVED_GAP), exactly 10 included, so 11 takes the delta path and 9
        # does not
        eigenvalues = np.array([-1.0, gap - 1.0, 100.0])
        result = inversion._evidence(-1.0, eigenvalues, np.eye(3), np.eye(6), 3.0)
        assert result[0] == path

    @settings(max_examples=200, deadline=None)
    @given(
        frame=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        factor=st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36),
        scale=st.integers(-12, 4),
        ratio=st.floats(0.25, 4.0),
        depth=st.floats(0.01, 20.0),
        top=st.floats(0.0, 100.0),
    )
    def test_delta_exactly_where_lambda_min_is_resolved(
        self, frame, factor, scale, ratio, depth, top
    ):
        # any eigenframe and covariance: the delta path runs exactly where the
        # gap lambda_2 - lambda_1 is at least RESOLVED_GAP times the largest
        # spread of v1^T E vk, by the gradient formula of delta_spread, and
        # reports the spread of v1^T E v1 as margin_sigma
        q, r = np.linalg.qr(np.reshape(frame, (3, 3)))
        assume(np.abs(np.diag(r)).min() > 1e-3)
        a = np.reshape(factor, (6, 6))
        covariance = (a @ a.T + 0.1 * np.eye(6)) * 10.0**scale
        spreads = [math.sqrt(g @ covariance @ g) for g in
                   (coupling_gradient(q[:, 0], q[:, k]) for k in range(3))]
        threshold = inversion.RESOLVED_GAP * max(spreads)
        margin = -depth * spreads[0]
        eigenvalues = np.array([margin, margin + ratio * threshold, 0.0])
        eigenvalues[2] = eigenvalues[1] + top * threshold
        gap = eigenvalues[1] - eigenvalues[0]
        assume(abs(gap - threshold) > 1e-9 * threshold)
        path, p, sigma, statistic = inversion._evidence(margin, eigenvalues, q, covariance, 3.0)
        assert (path == inversion.DELTA) == (gap >= threshold)
        if path == inversion.DELTA:
            assert sigma == pytest.approx(spreads[0], rel=1e-12)
            assert statistic is None and p == pytest.approx(stats.norm.sf(depth), rel=1e-9)
        else:
            assert path == inversion.CONE and 0.0 <= p <= 1.0 and statistic > 0.0

    def test_half_space_at_evident_rank_2(self):
        # diag(1, 1, -0.3) under rate noise of 0.05: lambda_min is not resolved
        # from the degenerate pair above it, but that pair is far from zero, so
        # the truth's tangent cone is a half-space and p = P(chi2_1 >= T) / 2
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.3), G2).rates
        sigmas = 0.05 * np.ones(6)
        rng = np.random.default_rng(11)
        half_space = 0
        for _ in range(20):
            result = inversion.invert_noisy(rates + rng.normal(0.0, sigmas), sigmas, M2)
            if result.verdict_path == inversion.CONE:
                t = (result.margin / delta_spread(result)) ** 2
                assert result.cone_statistic == pytest.approx(t, rel=1e-9)
                assert result.p_value == pytest.approx(0.5 * stats.chi2.sf(t, 1), rel=1e-9)
                half_space += 1
        assert half_space >= 5

    @pytest.mark.parametrize(
        "sigmas",
        [[0.05, 0.05, 0.0, 0.05, 0.05, 0.05], [0.0, 0.05, 0.0, 0.0, 0.05, 0.0]],
        ids=["one-zero", "four-zero"],
    )
    def test_singular_covariance(self, sigmas):
        # zero sigmas make the block's covariance singular: a defined verdict,
        # not a LinAlgError
        sigmas = np.array(sigmas)
        rates = probe.forward(KossakowskiMatrix(*BOUNDARY_TRUTHS[0]), G2).rates
        rng = np.random.default_rng(9)
        paths = set()
        for _ in range(40):
            result = inversion.invert_noisy(rates + rng.normal(0.0, sigmas), sigmas, M2)
            paths.add(result.verdict_path)
            assert result.cp_verdict in (inversion.CP, inversion.NOT_CP, inversion.INDETERMINATE)
            if result.verdict_path == inversion.CONE:
                assert 0.0 <= result.p_value <= 1.0 and math.isfinite(result.margin_sigma)
                assert result.margin_sigma >= 0.0
        assert inversion.CONE in paths
        # no spread at all along the block: any violation is certain
        t, p = inversion._block_cone_test(np.array([-1e-3, 0.0, 1e-3]), np.zeros((3, 3)))
        assert t > 1e12 and p == 0.0


class TestPsdProject:
    def test_psd_unchanged(self):
        c = KossakowskiMatrix.identity()
        assert np.allclose(inversion.psd_project(c).matrix, c.matrix, atol=1e-14)

    def test_counterexample_clips_to_zero(self):
        projected = inversion.psd_project(KossakowskiMatrix.diagonal(1.0, 1.0, -1.0))
        assert np.allclose(projected.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_idempotent_and_psd(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            c = random_symmetric(rng)
            once = inversion.psd_project(c)
            twice = inversion.psd_project(once)
            assert np.allclose(once.matrix, twice.matrix, atol=1e-12)
            assert once.eigenvalues()[0] >= -1e-12

    def test_frobenius_optimality_spot_check(self):
        rng = np.random.default_rng(47)
        c = random_symmetric(rng)
        projected = inversion.psd_project(c)
        base = np.linalg.norm(projected.matrix - c.matrix)
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            q = a.T @ a
            assert base <= np.linalg.norm(q - c.matrix) + 1e-12


class TestCalibrationGate:
    """The calibration script fails when a PSD truth's not-CP rate is above Phi(-3)."""

    PSD_ROW = ("diag(1, 0, 0)", (1.0, 0.0, 0.0), True, 200)

    def test_the_librarys_verdicts_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(calibration, "TRUTHS", (self.PSD_ROW,))
        assert calibration.main() == 0
        out, err = capsys.readouterr()
        assert "| `diag(1, 0, 0)` | yes | 200 |" in out and err == ""

    def test_an_oversized_verdict_fails_naming_its_row(self, monkeypatch, capsys):
        # every trial reads not-CP: only the PSD row is over its size
        non_psd_row = ("diag(1, 0, -0.3)", (1.0, 0.0, -0.3), False, 200)
        monkeypatch.setattr(calibration, "TRUTHS", (self.PSD_ROW, non_psd_row))
        monkeypatch.setattr(
            calibration, "invert_noisy",
            lambda *args, **kwargs: SimpleNamespace(cp_verdict=inversion.NOT_CP,
                                                    verdict_path=inversion.CONE),
        )
        assert calibration.main() == 1
        err = capsys.readouterr().err
        assert "diag(1, 0, 0)" in err and "diag(1, 0, -0.3)" not in err
