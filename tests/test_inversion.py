import tracemalloc
import warnings

import numpy as np
import pytest

from kossprobe import inversion, probe
from kossprobe.experiment import ExperimentConfig, estimate, run
from kossprobe.kossakowski import KossakowskiMatrix, symmetric_from_vector
from kossprobe.scattering import coefficients

G2 = coefficients(2.0)
M2 = probe.build_matrix_programmatic(G2)
COUPLINGS = (0.7, 1.0, 2.0, 3.5)
BOUNDARY_TRUTHS = [
    (1.0, -0.5, 0.25, 0.25, -0.125, 0.0625),  # rank 1: u u^T, u = (1, -1/2, 1/4)
    (1.0, 0.0, 0.0, 0.5, 0.5, 0.5),  # rank 2: null vector (0, 1, -1)
]


def estimates_with_spread(g, truth, noise, rng_seed, bootstrap=10_000):
    """(seed, result) for those of six noisy estimates of a truth that need a spread.

    ``noise`` is (relative, absolute): each rate's sigma is relative * |rate| + absolute.
    """
    co = coefficients(g)
    m = probe.build_matrix_programmatic(co)
    rates = probe.forward(KossakowskiMatrix(*truth), co).rates
    sigmas = noise[0] * np.abs(rates) + noise[1]
    rng = np.random.default_rng(rng_seed)
    for seed in range(6):
        noisy = rates + rng.normal(0.0, sigmas)
        result = inversion.invert_noisy(noisy, sigmas, m, bootstrap=bootstrap, seed=seed)
        if result.margin_sigma is not None:
            yield seed, result


def assert_matches_eigvalsh_bootstrap(sigma, center, covariance, seed, n=10_000):
    draws = np.random.default_rng(seed).multivariate_normal(
        center, covariance, size=n, method="svd"
    )
    want = np.linalg.eigvalsh(symmetric_from_vector(draws))[:, 0].std(ddof=1)
    tol = 1e-12 * want + 64 * np.finfo(float).eps * np.max(np.abs(center))
    assert abs(sigma - want) <= tol


def bootstrap_sigma(center, covariance, seed, n=10_000):
    """The bootstrap spread with the draws in the estimate's eigenframe, as invert_noisy takes it."""
    _, frame = np.linalg.eigh(symmetric_from_vector(center))
    return inversion._bootstrap_min_eigenvalue_sigma(center, covariance, n, seed, frame)


def delta_sigma(center, covariance):
    eigenvalues, frame = np.linalg.eigh(symmetric_from_vector(center))
    return inversion._delta_min_eigenvalue_sigma(eigenvalues, frame, covariance)


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
            {"seed": True}, {"seed": False}, {"bootstrap": True},
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
        # a bootstrap-path spread is the eigvalsh spread of the same seeded draws
        assert abs(KossakowskiMatrix(*truth).eigenvalues()[0]) <= 1e-15
        bootstrapped = 0
        for seed, result in estimates_with_spread(g, truth, (0.02, 1e-3), 48):
            if result.verdict_path == inversion.DELTA:
                assert result.draws == 0
                continue
            assert result.verdict_path == inversion.BOOTSTRAP and result.draws == 10_000
            bootstrapped += 1
            assert_matches_eigvalsh_bootstrap(
                result.margin_sigma, result.c_hat.vector, result.covariance, seed
            )
        if truth == BOUNDARY_TRUTHS[0]:  # rank 1: lambda_min is never resolved
            assert bootstrapped >= 1

    @pytest.mark.parametrize("g", COUPLINGS)
    @pytest.mark.parametrize("truth", BOUNDARY_TRUTHS)
    def test_bootstrap_sigma_matches_eigvalsh(self, g, truth):
        # the Jacobi spread of every estimate that needs one, whichever path
        # invert_noisy takes for it
        estimates = list(estimates_with_spread(g, truth, (0.02, 1e-3), 48))
        assert estimates
        for seed, result in estimates:
            center, covariance = result.c_hat.vector, result.covariance
            got = bootstrap_sigma(center, covariance, seed)
            assert_matches_eigvalsh_bootstrap(got, center, covariance, seed)

    @pytest.mark.parametrize("truth", [(1.0, 1.0, -1.0), (0.3, 0.7, -0.1), (1e-3, 2.0, -7.3)])
    def test_zero_sigmas_give_zero_margin_sigma(self, truth):
        rates = probe.forward(KossakowskiMatrix.diagonal(*truth), G2).rates
        result = inversion.invert_noisy(rates, np.zeros(6), M2)
        assert result.margin < 0.0
        assert result.margin_sigma == 0.0
        assert result.cp_verdict == inversion.NOT_CP
        assert result.verdict_path == inversion.DELTA and result.draws == 0

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


def rate_covariance(sigmas, m=M2):
    m_inv = np.linalg.inv(m.matrix)
    return m_inv @ np.diag(np.square(sigmas)) @ m_inv.T


RANK1 = np.array(BOUNDARY_TRUTHS[0])
COVARIANCE = rate_covariance(0.05 * np.ones(6))


class TestBootstrapDraws:
    """The bootstrap's draws, taken in the estimate's eigenframe, against eigvalsh of
    multivariate_normal's draws, on spectra and inputs the boundary truths miss."""

    @pytest.mark.parametrize(
        "center, covariance",
        [
            # the zero matrix: its eigenframe does not diagonalise the draws
            (np.zeros(6), COVARIANCE),
            ((1.0, 0.0, 0.0, 1.0, 0.0, -1.0), COVARIANCE),  # not PSD
            (RANK1, rate_covariance([0.05, 0.05, 0.0, 0.05, 0.05, 0.05])),  # singular
            (np.zeros(6), rate_covariance([0.05, 0.0, 0.05, 0.05, 0.05, 0.05])),
        ],
        ids=["zero", "counterexample", "rank1-singular", "zero-singular"],
    )
    def test_spectra(self, center, covariance):
        center = np.asarray(center, dtype=float)
        for seed in range(3):
            got = bootstrap_sigma(center, covariance, seed)
            assert_matches_eigvalsh_bootstrap(got, center, covariance, seed)

    @pytest.mark.parametrize("n", [2, 3, 10_001])
    def test_draw_counts(self, n):
        for center in (RANK1, np.zeros(6)):
            got = bootstrap_sigma(center, COVARIANCE, 5, n)
            assert_matches_eigvalsh_bootstrap(got, center, COVARIANCE, 5, n)

    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**40, 4.0**-40, 4.0**40])
    def test_scaled(self, scale):
        for center in (RANK1, np.zeros(6), np.array([1.0, 0.0, 0.0, 1.0, 0.0, -1.0])):
            center, covariance = scale * center, scale**2 * COVARIANCE
            got = bootstrap_sigma(center, covariance, 6)
            assert_matches_eigvalsh_bootstrap(got, center, covariance, 6)

    def test_any_frame(self):
        # congruence keeps the eigenvalues, so any orthogonal frame gives the spread
        rng = np.random.default_rng(50)
        for _ in range(3):
            frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            got = inversion._bootstrap_min_eigenvalue_sigma(RANK1, COVARIANCE, 10_000, 7, frame)
            assert_matches_eigvalsh_bootstrap(got, RANK1, COVARIANCE, 7)

    @pytest.mark.parametrize("covariance_scale", [1.0, 1e-4], ids=["wide", "narrow"])
    @pytest.mark.parametrize(
        "center, covariance",
        [
            (np.zeros(6), COVARIANCE),
            ((1.0, 0.0, 0.0, 1.0, 0.0, -1.0), COVARIANCE),
            (RANK1, COVARIANCE),
            (RANK1, rate_covariance([0.05, 0.05, 0.0, 0.05, 0.05, 0.05])),
        ],
        ids=["zero", "counterexample", "rank1", "rank1-singular"],
    )
    def test_no_floating_point_warning(self, center, covariance, covariance_scale):
        # the wide draws fall back to the Jacobi sweeps before the secular
        # exit divides by anything; the narrow ones, zero aside, take the exit
        center = np.asarray(center, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bootstrap_sigma(center, covariance_scale * covariance, 9)
        assert_matches_eigvalsh_bootstrap(got, center, covariance_scale * covariance, 9)

    def test_non_psd_covariance_warns(self):
        # as multivariate_normal does, and the draws are still its draws
        covariance = np.diag([1e-4, -1e-4, 1e-4, 1e-4, 1e-4, 1e-4])
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            got = bootstrap_sigma(RANK1, covariance, 8)
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            assert_matches_eigvalsh_bootstrap(got, RANK1, covariance, 8)

    def test_allocation_peak(self):
        # one work block of 13 x 10k doubles (1.04 MB); a second 10k x 6 array
        # of draws would add 0.48 MB
        _, frame = np.linalg.eigh(symmetric_from_vector(RANK1))
        args = (RANK1, COVARIANCE, 10_000, 0, frame)
        inversion._bootstrap_min_eigenvalue_sigma(*args)
        tracemalloc.start()
        try:
            inversion._bootstrap_min_eigenvalue_sigma(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4e6


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
    def test_bootstrap_for_degenerate_spectra(self, g, truth):
        # the two smallest eigenvalues are equal in truth, so the estimate's gap
        # is of the order of the noise
        estimates = list(estimates_with_spread(g, truth, SMALL_NOISE, 49, bootstrap=2000))
        assert estimates
        for _, result in estimates:
            assert result.verdict_path == inversion.BOOTSTRAP and result.draws == 2000

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
        # exposure 0.01: each verdict is the one a 10k-draw bootstrap gives,
        # except where the margin lies within the two spreads' 4% agreement of
        # the threshold, where the bootstrap's own verdict depends on its seed
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
            result = estimate(run(config), matrices[g], seed=j)
            paths.append((rank, result.verdict_path))
            if result.margin_sigma is None:
                continue
            boot = bootstrap_sigma(result.c_hat.vector, result.covariance, j)
            if abs(result.margin / (3.0 * boot) + 1.0) <= 0.04:
                at_threshold += 1
                continue
            forced = inversion.NOT_CP if result.margin <= -3.0 * boot else inversion.INDETERMINATE
            assert result.cp_verdict == forced, (j, result.margin, result.margin_sigma, boot)
        assert paths.count((2, inversion.DELTA)) >= 40
        assert paths.count((1, inversion.BOOTSTRAP)) >= 80
        assert {path for _, path in paths} == {inversion.CLOSED, inversion.DELTA, inversion.BOOTSTRAP}
        assert (2, inversion.BOOTSTRAP) not in paths and (1, inversion.DELTA) not in paths
        assert at_threshold <= 2


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
