import re

import numpy as np
import pytest

from adjudication.bootstrap_referee import bootstrap_min_eigenvalue_sigma
from kossprobe import inversion, kossakowski, oracle, probe
from kossprobe.kossakowski import KossakowskiMatrix, d_tilde
from kossprobe.scattering import coefficients
from kossprobe.spin import basis, pauli, unvec, vec

COUNTEREXAMPLE = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)


def random_symmetric(rng, scale=2.0):
    a = rng.uniform(-scale, scale, (3, 3))
    return 0.5 * (a + a.T)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBuildSuperop:
    def test_zero(self):
        assert np.allclose(oracle.build_superop(KossakowskiMatrix.zero(), True), 0.0)
        assert np.allclose(oracle.build_superop(KossakowskiMatrix.zero(), False), 0.0)

    def test_trace_annihilation(self):
        rng = np.random.default_rng(21)
        for lifted, dim in ((False, 2), (True, 4)):
            l = oracle.build_superop(random_symmetric(rng), lifted)
            assert np.max(np.abs(vec(np.eye(dim)).conj() @ l)) <= 1e-13

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(22)
        l = oracle.build_superop(random_symmetric(rng), True)
        for _ in range(10):
            out = unvec(l @ vec(random_hermitian(rng, 4)))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-13

    def test_counterexample_action(self):
        # diag(1, 1, -1) takes (I + sigma3)/2 to -2 sigma3, on the impurity
        # alone and on the impurity factor of I/2 x (I + sigma3)/2
        rho = 0.5 * (np.eye(2) + pauli(3))
        got = oracle.apply_superop(oracle.build_superop(COUNTEREXAMPLE, False), rho)
        assert np.allclose(got, -2.0 * pauli(3), atol=1e-14)
        got = oracle.apply_superop(
            oracle.build_superop(COUNTEREXAMPLE, True), np.kron(np.eye(2) / 2, rho)
        )
        assert np.allclose(got, -np.kron(np.eye(2), pauli(3)), atol=1e-14)

    def test_lifted_factorization(self):
        rng = np.random.default_rng(24)
        c = random_symmetric(rng)
        l16 = oracle.build_superop(c, lifted=True)
        l4 = oracle.build_superop(c, lifted=False)
        rho_e = random_hermitian(rng, 2)
        rho_s = random_hermitian(rng, 2)
        got = unvec(l16 @ vec(np.kron(rho_e, rho_s)))
        want = np.kron(rho_e, unvec(l4 @ vec(rho_s)))
        assert np.allclose(got, want, atol=1e-13)


class TestDTildeBruteforce:
    def test_zero(self):
        assert np.allclose(oracle.d_tilde_bruteforce(KossakowskiMatrix.zero()), 0.0)

    def test_counterexample(self):
        d = oracle.d_tilde_bruteforce(COUNTEREXAMPLE)
        assert np.allclose(d, np.diag([1.0, -1.0 / 3.0]), atol=1e-13)
        assert np.max(np.abs(d - d_tilde(COUNTEREXAMPLE))) <= 1e-13

    def test_random_symmetric_against_closed_form(self):
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(100):
            c = random_symmetric(rng)
            worst = max(
                worst, float(np.max(np.abs(oracle.d_tilde_bruteforce(c) - d_tilde(c))))
            )
        assert worst <= 1e-12

    def test_complex_hermitian_coupling(self):
        # C is real symmetric: a complex Hermitian coupling is refused by the
        # closed form and by the brute-force path alike, never cast to its real part
        rng = np.random.default_rng(26)
        for _ in range(20):
            c = random_hermitian(rng, 3)
            for entry_point in (d_tilde, oracle.d_tilde_bruteforce):
                with pytest.raises(ValueError, match="must be real"):
                    entry_point(c)


class TestRatesBruteforce:
    def test_zero(self):
        co = coefficients(2.0)
        assert oracle.rates_bruteforce(KossakowskiMatrix.zero(), co) == (0.0, 0.0)

    def test_counterexample_transmitted(self):
        co = coefficients(2.0)
        transmitted, _ = oracle.rates_bruteforce(COUNTEREXAMPLE, co, "canonical")
        assert abs(transmitted - (-0.4)) <= 1e-12
        assert abs(
            transmitted
            - probe.probability_rate(COUNTEREXAMPLE, co, "canonical", "transmitted")
        ) <= 1e-13

    def test_all_channels_against_forward(self):
        rng = np.random.default_rng(27)
        worst = 0.0
        for g in (0.5, 2.0, 5.0):
            co = coefficients(g)
            for _ in range(30):
                c = random_symmetric(rng)
                got = probe.forward(c, co).rates
                want = oracle.forward_bruteforce(c, co)
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-12

    def test_off_canonical_phase(self):
        rng = np.random.default_rng(28)
        co = coefficients(1.3)
        for _ in range(10):
            c = random_symmetric(rng)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            got = probe.forward(c, co, theta).rates
            want = oracle.forward_bruteforce(c, co, theta)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestExactEvolution:
    def test_time_zero(self):
        rng = np.random.default_rng(29)
        rho = random_state(rng, 2)
        assert np.allclose(oracle.exact_evolution(COUNTEREXAMPLE, rho, 0.0), rho)

    def test_counterexample_closed_form(self):
        rho0 = 0.5 * (np.eye(2) + pauli(3))
        rho_t = oracle.exact_evolution(COUNTEREXAMPLE, rho0, 0.5)
        expected = 0.5 * (np.eye(2) + np.exp(-2.0) * pauli(3))
        assert np.allclose(rho_t, expected, atol=1e-12)

    def test_counterexample_stays_positive_on_qubit(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            rho = random_state(rng, 2)
            for t in np.linspace(0.0, 5.0, 11):
                eigs = np.linalg.eigvalsh(
                    oracle.exact_evolution(COUNTEREXAMPLE, rho, float(t))
                )
                assert eigs[0] >= -1e-10 and eigs[-1] <= 1.0 + 1e-10

    def test_lifted_negative_eigenvalue_on_entangled_probe(self):
        # positivity but not complete positivity: the same map, lifted, pushes
        # the maximally entangled probe state out of the state space
        v3 = basis("canonical").probe_state
        rho = np.outer(v3, v3.conj())
        for t in (0.005, 0.01, 0.05):
            evolved = oracle.exact_evolution(COUNTEREXAMPLE, rho, t)
            assert np.linalg.eigvalsh(evolved)[0] < -t / 2.0

    def test_psd_coupling_preserves_lifted_positivity(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 3))
        c = a.T @ a
        for _ in range(5):
            rho = random_state(rng, 4)
            for t in (0.1, 0.5, 2.0):
                eigs = np.linalg.eigvalsh(oracle.exact_evolution(c, rho, t))
                assert eigs[0] >= -1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            oracle.exact_evolution(COUNTEREXAMPLE, np.eye(2) / 2, -1.0)

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (4, 2)])
    def test_a_state_of_another_shape_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a 2x2 or 4x4 state, got shape {shape}")):
            oracle.exact_evolution(COUNTEREXAMPLE, np.zeros(shape), 0.5)

    def test_a_failed_step_doubling_check_is_refused(self, monkeypatch):
        # a first-order "exponential", 1 + A, is not the square of its own half step
        monkeypatch.setattr(oracle, "expm", lambda a: np.eye(len(a)) + a)
        with pytest.raises(ArithmeticError,
                           match="^matrix exponential failed the step-doubling check$"):
            oracle.exact_evolution(COUNTEREXAMPLE, np.eye(2) / 2, 0.5)

    def test_first_order_consistency(self):
        rng = np.random.default_rng(32)
        c = random_symmetric(rng)
        l = oracle.build_superop(c, lifted=True)
        rho = random_state(rng, 4)
        ts = np.array([1e-3, 1e-4, 1e-5])
        errs = []
        for t in ts:
            full = oracle.exact_evolution(c, rho, float(t))
            linear = rho + t * unvec(l @ vec(rho))
            errs.append(np.linalg.norm(full - linear))
        ks = np.array(errs) / ts**2
        assert np.max(ks) / np.min(ks) < 1.05  # K stable, residual is O(t^2)


class TestAdjudication:
    def test_report(self):
        report = oracle.adjudicate(trials=20)
        assert report["ok"]
        assert report["d_tilde_max_deviation"] <= 1e-12
        assert report["forward_max_deviation"] <= 1e-12
        comparison = report["tabulated_matrix"]["g=2"]
        assert not comparison["agrees"]
        assert len(comparison["deviating_entries"]) == 10

    @pytest.mark.parametrize("trials", [0, -3])
    def test_refuses_trials_below_one(self, trials):
        # a report over no trials would read ok having compared nothing
        with pytest.raises(ValueError, match="trials must be at least 1"):
            oracle.adjudicate(trials=trials)


# The closed forms under judgment, and the inversion's tangent-cone test.
CLOSED_FORMS = (
    (kossakowski, "d_tilde"), (kossakowski, "evolve"), (probe, "_probe_matrix"),
    (inversion, "_evidence"),
)


def referee_calls():
    """Each referee, on fixed inputs prepared with the closed forms still in place."""
    rng = np.random.default_rng(33)
    c, rho = random_symmetric(rng), random_state(rng, 4)
    rank1 = np.array([1.0, -0.5, 0.25, 0.25, -0.125, 0.0625])
    return {
        "d_tilde_bruteforce": lambda: oracle.d_tilde_bruteforce(c),
        "forward_bruteforce": lambda: oracle.forward_bruteforce(c, coefficients(2.0), 0.7),
        "exact_evolution": lambda: oracle.exact_evolution(c, rho, 0.3),
        "bootstrap_min_eigenvalue_sigma": lambda: bootstrap_min_eigenvalue_sigma(
            rank1, 1e-3 * np.eye(6), 10_000, 3
        ),
    }


@pytest.mark.parametrize("referee", list(referee_calls()))
def test_referee_stands_without_the_closed_forms(monkeypatch, referee):
    # the independent side of an adjudication calls none of what it judges:
    # with each closed form replaced by a function that fails the test, every
    # referee returns the value it returns unpatched
    call = referee_calls()[referee]
    want = call()

    def closed_form(*args, **kwargs):
        pytest.fail("a referee called a closed form it judges")

    for module, name in CLOSED_FORMS:
        monkeypatch.setattr(module, name, closed_form)
    # the patch reaches the closed forms' callers
    with pytest.raises(pytest.fail.Exception):
        probe.forward(COUNTEREXAMPLE, coefficients(2.0))
    np.testing.assert_array_equal(call(), want)
