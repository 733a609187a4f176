import numpy as np
import pytest

from kossprobe import inversion, probe
from kossprobe.kossakowski import KossakowskiMatrix, symmetric_from_vector
from kossprobe.scattering import coefficients

G2 = coefficients(2.0)
M2 = probe.build_matrix_programmatic(G2)
COUPLINGS = (0.7, 1.0, 2.0, 3.5)
BOUNDARY_TRUTHS = [
    (1.0, -0.5, 0.25, 0.25, -0.125, 0.0625),  # rank 1: u u^T, u = (1, -1/2, 1/4)
    (1.0, 0.0, 0.0, 0.5, 0.5, 0.5),  # rank 2: null vector (0, 1, -1)
]


def random_symmetric(rng, scale=2.0):
    a = rng.uniform(-scale, scale, (3, 3))
    return KossakowskiMatrix.from_matrix(0.5 * (a + a.T))


class TestInvertExact:
    def test_zero_rates(self):
        c = inversion.invert_exact(np.zeros(6), M2)
        assert np.allclose(c.vector, 0.0)

    def test_counterexample_round_trip(self):
        truth = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        recovered = inversion.invert_exact(probe.forward(truth, G2), M2)
        assert np.max(np.abs(recovered.vector - truth.vector)) <= 1e-10

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(200):
            g = rng.uniform(0.5, 5.0)
            co = coefficients(g)
            m = probe.build_matrix_programmatic(co)
            truth = random_symmetric(rng)
            recovered = inversion.invert_exact(probe.forward(truth, co), m)
            err = np.linalg.norm(recovered.vector - truth.vector)
            worst = max(worst, err / max(np.linalg.norm(truth.vector), 1e-30))
        assert worst <= 1e-9

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(41)
        rates = probe.forward(random_symmetric(rng), G2).rates
        a = 3.7
        scaled = inversion.invert_exact(a * rates, M2)
        base = inversion.invert_exact(rates, M2)
        assert np.allclose(scaled.vector, a * base.vector, atol=1e-12)

    def test_refuses_singular_matrix(self):
        m0 = probe.build_matrix_programmatic(coefficients(0.0))
        with pytest.raises(inversion.SingularProbeMatrixError) as excinfo:
            inversion.invert_exact(np.ones(6), m0)
        assert excinfo.value.condition_number > inversion.CONDITION_LIMIT
        assert abs(excinfo.value.det) <= 1e-12

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            inversion.invert_exact(np.zeros(5), M2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        rates = np.zeros(6)
        rates[3] = bad
        with pytest.raises(ValueError, match="rates must be finite"):
            inversion.invert_exact(rates, M2)


class TestInvertNoisy:
    def test_zero_sigma_reproduces_exact(self):
        rng = np.random.default_rng(42)
        truth = random_symmetric(rng)
        rates = probe.forward(truth, G2).rates
        result = inversion.invert_noisy(rates, np.zeros(6), M2)
        exact = inversion.invert_exact(rates, M2)
        assert np.allclose(result.c_hat.vector, exact.vector, atol=1e-12)
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
        result = inversion.invert_noisy(rates, 1e-3 * np.ones(6), M2, seed=1)
        assert result.cp_verdict == inversion.NOT_CP
        assert abs(result.margin - (-1.0)) < 0.05
        assert result.margin_sigma is not None and result.margin_sigma < 0.01

    def test_near_boundary_is_indeterminate(self):
        # true minimum eigenvalue slightly negative but within the noise band
        truth = KossakowskiMatrix.diagonal(1.0, 1.0, -0.004)
        rates = probe.forward(truth, G2).rates
        result = inversion.invert_noisy(rates, 0.05 * np.ones(6), M2, seed=2)
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
            result = inversion.invert_noisy(
                noisy, sigmas, M2, bootstrap=2000, seed=trial
            )
            flagged += result.cp_verdict == inversion.NOT_CP
        assert flagged <= 3

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            inversion.invert_noisy(np.zeros(6), -np.ones(6), M2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rates(self, bad):
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -1.0), G2).rates.copy()
        rates[0] = bad
        with pytest.raises(ValueError, match="rates must be finite"):
            inversion.invert_noisy(rates, 0.01 * np.ones(6), M2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sigma(self, bad):
        # a non-PSD estimate, so an unchecked sigma would reach the bootstrap
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -1.0), G2).rates
        sigmas = 0.01 * np.ones(6)
        sigmas[2] = bad
        with pytest.raises(ValueError, match="sigmas must be finite"):
            inversion.invert_noisy(rates, sigmas, M2)

    @pytest.mark.parametrize(
        "settings",
        [
            {"bootstrap": 0}, {"bootstrap": 1}, {"z": -1.0}, {"z": 0.0}, {"z": np.nan}, {"z": np.inf},
            {"seed": -1}, {"seed": 1.5}, {"bootstrap": 2.5}, {"bootstrap": 1_000_001},
        ],
    )
    def test_rejects_bad_verdict_settings(self, settings):
        # indeterminate by default; a degenerate bootstrap or z must not
        # turn it into not-CP, and is refused even where no bootstrap runs
        near = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.01), G2).rates
        sigmas = 0.05 * np.ones(6)
        assert inversion.invert_noisy(near, sigmas, M2).cp_verdict == inversion.INDETERMINATE
        inside = probe.forward(KossakowskiMatrix.identity(), G2).rates
        for rates in (near, inside):
            with pytest.raises(ValueError, match=next(iter(settings))):
                inversion.invert_noisy(rates, sigmas, M2, **settings)

    @pytest.mark.parametrize("g", COUPLINGS)
    @pytest.mark.parametrize("truth", BOUNDARY_TRUTHS)
    def test_margin_sigma_matches_eigvalsh_bootstrap(self, g, truth):
        co = coefficients(g)
        m = probe.build_matrix_programmatic(co)
        truth = KossakowskiMatrix(*truth)
        assert abs(truth.eigenvalues()[0]) <= 1e-15
        rates = probe.forward(truth, co).rates
        sigmas = 0.02 * np.abs(rates) + 1e-3
        rng = np.random.default_rng(48)
        bootstrapped = 0
        for seed in range(6):
            noisy = rates + rng.normal(0.0, sigmas)
            result = inversion.invert_noisy(noisy, sigmas, m, seed=seed)
            if result.margin_sigma is None:
                continue
            bootstrapped += 1
            draws = np.random.default_rng(seed).multivariate_normal(
                result.c_hat.vector, result.covariance, size=10_000, method="svd"
            )
            want = np.linalg.eigvalsh(symmetric_from_vector(draws))[:, 0].std(ddof=1)
            c_max = np.max(np.abs(result.c_hat.vector))
            tol = 1e-12 * want + 64 * np.finfo(float).eps * c_max
            assert abs(result.margin_sigma - want) <= tol
        assert bootstrapped >= 1

    @pytest.mark.parametrize("truth", [(1.0, 1.0, -1.0), (0.3, 0.7, -0.1), (1e-3, 2.0, -7.3)])
    def test_zero_sigmas_give_zero_margin_sigma(self, truth):
        rates = probe.forward(KossakowskiMatrix.diagonal(*truth), G2).rates
        result = inversion.invert_noisy(rates, np.zeros(6), M2)
        assert result.margin < 0.0
        assert result.margin_sigma == 0.0
        assert result.cp_verdict == inversion.NOT_CP

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
