import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kossprobe import kossakowski as km
from kossprobe import oracle, probe
from kossprobe.scattering import coefficients
from kossprobe.spin import pauli

SIGMA = [pauli(i) for i in (1, 2, 3)]
G2 = coefficients(2.0)


def random_symmetric(rng, scale=2.0):
    a = rng.uniform(-scale, scale, (3, 3))
    return 0.5 * (a + a.T)


def random_psd(rng, scale=1.0):
    a = rng.normal(size=(3, 3)) * scale
    return a.T @ a


def random_truth(rng, eigenvalues):
    """A symmetric matrix with the given spectrum in a random frame."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q @ np.diag(eigenvalues) @ q.T


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def identity_with_c32(x):
    a = np.eye(3)
    a[2, 1] = x
    return a


def as_rows(entries):
    """C as a nested list, from its six parameters (c11, c12, c13, c22, c23, c33)."""
    c11, c12, c13, c22, c23, c33 = entries
    return [[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]]


# Every entry point that takes C as a 3x3 array: the closed forms and the
# oracle's superoperator take it through the one real-symmetric coercion.
COUPLING_ENTRY_POINTS = {
    "forward": lambda c: probe.forward(c, G2),
    "probability_rate": lambda c: probe.probability_rate(c, G2, "rot1", "reflected"),
    "d_tilde": km.d_tilde,
    "build_superop": lambda c: oracle.build_superop(c, lifted=True),
    "from_matrix": km.KossakowskiMatrix.from_matrix,
    "evolve": lambda c: km.evolve(c, np.eye(2) / 2, 0.1),
    "kraus_noise": km.kraus_noise,
}
# I + 0.5i (E12 - E21): Hermitian, but not real
COMPLEX_HERMITIAN = np.eye(3) + 0.5j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


class TestKossakowskiMatrix:
    def test_matrix_vector_round_trip(self):
        c = km.KossakowskiMatrix(1.0, 0.2, -0.3, 0.8, 0.1, 1.5)
        assert np.allclose(km.KossakowskiMatrix.from_matrix(c.matrix).vector, c.vector)
        assert km.KossakowskiMatrix.from_vector(c.vector) == c

    def test_from_matrix_rejects_asymmetric(self):
        # refused at any scale: asymmetry is judged relative to max|C|
        for scale in (1.0, 2.0**-50, 2.0**50):
            with pytest.raises(ValueError, match="not symmetric"):
                km.KossakowskiMatrix.from_matrix(scale * np.arange(9.0).reshape(3, 3))

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e5, 2.0**40])
    def test_from_matrix_accepts_rounding_at_any_scale(self, scale):
        # s (Q D Q^T) is symmetric up to the rounding of the products
        rng = np.random.default_rng(12)
        for _ in range(1000):
            km.KossakowskiMatrix.from_matrix(scale * random_truth(rng, rng.uniform(-1, 1, 3)))

    def test_dict_round_trip(self):
        c = km.KossakowskiMatrix(1.0, 0.2, -0.3, 0.8, 0.1, 1.5)
        assert km.KossakowskiMatrix.from_dict(c.to_dict()) == c
        with pytest.raises(ValueError):
            km.KossakowskiMatrix.from_dict({"c11": 1.0})

    @pytest.mark.parametrize(
        "bad",
        [None, "1", True, [1.0], np.nan, np.inf, -np.inf, 10**400],
        ids=["null", "string", "bool", "list", "nan", "inf", "-inf", "huge-int"],
    )
    def test_from_dict_rejects_non_numbers(self, bad):
        entries = {**km.KossakowskiMatrix.identity().to_dict(), "c23": bad}
        with pytest.raises(ValueError, match="c23"):
            km.KossakowskiMatrix.from_dict(entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "entry_point, named",
        [(lambda x: km.KossakowskiMatrix.from_vector([1.0, 0.0, 0.0, 1.0, x, 1.0]), "c23"),
         (lambda x: km.KossakowskiMatrix(1.0, 0.0, 0.0, 1.0, x, 1.0), "c23")]
        + [(lambda x, f=f: f(identity_with_c32(x)), "c32") for f in COUPLING_ENTRY_POINTS.values()],
        ids=["from_vector", "constructor", *COUPLING_ENTRY_POINTS],
    )
    def test_rejects_non_finite_entries(self, entry_point, named, bad):
        # unchecked, nan passes the symmetry test (inf - inf is nan too) and
        # eigvalsh does not converge on it; forward returned six nan rates
        with pytest.raises(ValueError, match=re.escape(f"finite, got {{'{named}': {bad}}}")):
            entry_point(bad)

    @pytest.mark.parametrize(
        "entry_point, bad, message",
        [(lambda entries: km.KossakowskiMatrix(*entries), bad, f"finite, got {{'c23': {bad!r}}}")
         for bad in (1j, "1", True, None)]
        # from_vector cast the imaginary part away with only a ComplexWarning
        + [(km.KossakowskiMatrix.from_vector, 1 + 1j, "imaginary parts {'c23': 1.0}")]
        # np.asarray read a string or a bool as the number 1
        + [(km.KossakowskiMatrix.from_vector, bad, f"finite, got {{'c23': {bad!r}}}")
           for bad in ("1", True)]
        + [(lambda entries, f=f: f(as_rows(entries)), bad,
            f"finite, got {{'c23': {bad!r}, 'c32': {bad!r}}}")
           for f in (km.KossakowskiMatrix.from_matrix, lambda c: probe.forward(c, G2))
           for bad in ("1", True)],
        ids=["complex", "string", "bool", "null", "from_vector-complex", "from_vector-string",
             "from_vector-bool", "from_matrix-string", "from_matrix-bool", "forward-string",
             "forward-bool"],
    )
    def test_constructor_rejects_non_real_entries(self, entry_point, bad, message):
        # a complex entry gave complex rates from forward
        with pytest.raises(ValueError, match=re.escape(message)):
            entry_point([1.0, 0.0, 0.0, 1.0, bad, 1.0])

    def test_constructor_stores_python_floats(self):
        c = km.KossakowskiMatrix(np.float64(1.0), 0, np.int64(0), 1, 0.0, np.float32(1.0))
        assert c == km.KossakowskiMatrix.identity()
        assert all(type(getattr(c, name)) is float for name in km.PARAM_ORDER)

    @pytest.mark.parametrize(
        "bad, message",
        [(np.arange(9.0).reshape(3, 3), "not symmetric"), (COMPLEX_HERMITIAN, "must be real")],
        ids=["asymmetric", "complex"],
    )
    @pytest.mark.parametrize("entry_point", COUPLING_ENTRY_POINTS.values(), ids=COUPLING_ENTRY_POINTS)
    def test_rejects_asymmetric_and_complex_couplings(self, entry_point, bad, message):
        # from_matrix used to cast the imaginary part away, and forward to
        # give the rates of the non-symmetric or complex quadratic form
        with pytest.raises(ValueError, match=message):
            entry_point(bad)

    def test_complex_refusal_names_the_entries(self):
        with pytest.raises(ValueError, match=re.escape("{'c12': 0.5, 'c21': -0.5}")):
            km.KossakowskiMatrix.from_matrix(COMPLEX_HERMITIAN)

    def test_complex_dtype_with_zero_imaginary_part_accepted(self):
        a = random_symmetric(np.random.default_rng(3))
        assert km.KossakowskiMatrix.from_matrix(a.astype(complex)) == km.KossakowskiMatrix.from_matrix(a)
        v = km.KossakowskiMatrix.from_matrix(a).vector
        assert km.KossakowskiMatrix.from_vector(v.astype(complex)) == km.KossakowskiMatrix.from_vector(v)

    def test_from_dict_rejects_non_object(self):
        for bad in (5, [1.0] * 6, None):
            with pytest.raises(ValueError, match="object"):
                km.KossakowskiMatrix.from_dict(bad)


class TestCPCheck:
    def test_identity_is_cp(self):
        report = km.KossakowskiMatrix.identity().cp_check()
        assert report.psd
        assert all(report.conditions_ok.values())
        assert report.eigenvalues == (1.0, 1.0, 1.0)

    def test_counterexample_matrix(self):
        report = km.KossakowskiMatrix.diagonal(1.0, 1.0, -1.0).cp_check()
        assert not report.psd
        assert np.allclose(report.eigenvalues, (-1.0, 1.0, 1.0))
        assert report.min_eigenvalue == -1.0
        assert not report.conditions_ok["c33"]
        assert not report.conditions_ok["minor_13"]
        assert not report.conditions_ok["minor_23"]
        assert not report.conditions_ok["det"]
        assert report.conditions_ok["c11"]
        assert report.conditions_ok["minor_12"]

    def test_eigenvalue_verdict_agrees_with_minors(self):
        # both directions, skipping the indeterminate band around zero
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            c = km.KossakowskiMatrix.from_matrix(random_symmetric(rng))
            report = c.cp_check()
            if abs(report.min_eigenvalue) <= 1e-10:
                continue
            checked += 1
            assert report.psd == all(report.conditions_ok.values())
        assert checked > 900

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        spectrum=st.sampled_from(
            [(1.0, 0.5, 0.2), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0),
             (1.0, 1.0, -1.0), (1.0, 0.3, -1e-3), (1.0, 1.0, -1e-14)]
        ),
        k=st.integers(-60, 60),
        condition_number=st.sampled_from([1.0, 16.9]),
    )
    def test_verdicts_invariant_under_power_of_two_scaling(
        self, seed, spectrum, k, condition_number
    ):
        # PSD, boundary and non-PSD C: a sign test has no units, and scaling by
        # 2^k is exact, so every verdict is the same and the tolerance follows
        c = km.KossakowskiMatrix.from_matrix(random_truth(np.random.default_rng(seed), spectrum))
        scaled = km.KossakowskiMatrix.from_vector(np.ldexp(c.vector, k))
        a, b = c.cp_check(condition_number), scaled.cp_check(condition_number)
        assert b.psd == a.psd
        assert b.conditions_ok == a.conditions_ok
        assert b.tol == np.ldexp(a.tol, k)

    def test_boundary_truths_psd_at_any_scale(self):
        # rank-1 and rank-2 truths read PSD with every minor ok, and have a
        # Kraus form, from 2^-40 to 2^40; the counterexample reads not PSD
        # and has none from 2^-60 to 2^60
        rng = np.random.default_rng(13)
        for i in range(2000):
            eigenvalues = rng.uniform(0.5, 1.5, 3)
            eigenvalues[: 2 - i % 2] = 0.0
            truth = random_truth(rng, np.ldexp(eigenvalues, int(rng.integers(-40, 41))))
            c = km.KossakowskiMatrix.from_matrix(truth)
            report = c.cp_check()
            assert report.psd and all(report.conditions_ok.values())
            km.kraus_noise(c)
        for k in range(-60, 61):
            c = km.KossakowskiMatrix.diagonal(*np.ldexp([1.0, 1.0, -1.0], k))
            assert not c.cp_check().psd
            with pytest.raises(km.NotCompletelyPositiveError):
                km.kraus_noise(c)

    @pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
    def test_refuses_overflowing_conditions(self):
        with pytest.raises(km.InputOverflowError,
                           match=r"^C is too large: its CP conditions minor_12, det overflow$"):
            km.KossakowskiMatrix(1.0, 1e308, 0.25, 0.25, -0.125, 0.0625).cp_check()
        with pytest.raises(km.InputOverflowError, match=r"conditions minor_23, det overflow$"):
            km.KossakowskiMatrix.diagonal(1.0, 1e200, 1e200).cp_check()
        # a large C whose conditions stay finite is still reported
        assert km.KossakowskiMatrix.diagonal(1e100, 1e100, 1e100).cp_check().psd

    def test_report_serializes(self):
        d = km.KossakowskiMatrix.identity().cp_check().to_dict()
        assert d["psd"] is True
        assert set(d["conditions"]) == {
            "c11", "c22", "c33", "minor_12", "minor_13", "minor_23", "det",
        }


class TestDTilde:
    def test_counterexample_closed_form(self):
        d = km.d_tilde(km.KossakowskiMatrix.diagonal(1.0, 1.0, -1.0))
        assert np.allclose(d, np.diag([1.0, -1.0 / 3.0]), atol=1e-15)

    def test_identity_coupling(self):
        assert np.allclose(km.d_tilde(km.KossakowskiMatrix.identity()), np.eye(2))

    def test_hermitian_for_symmetric_c(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            d = km.d_tilde(random_symmetric(rng))
            assert np.max(np.abs(d - d.conj().T)) <= 1e-14

    def test_psd_for_psd_c(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = km.d_tilde(random_psd(rng))
            assert np.linalg.eigvalsh(d)[0] >= -1e-12

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = random_symmetric(rng)
            dev = np.max(np.abs(km.d_tilde(c) - oracle.d_tilde_bruteforce(c)))
            assert dev <= 1e-12


class TestKraus:
    def test_identity_coupling_gives_paulis(self):
        ops = km.kraus_noise(km.KossakowskiMatrix.identity())
        for w, s in zip(ops, SIGMA):
            assert np.allclose(w, s, atol=1e-12)

    def test_not_psd_raises_with_eigenvalue(self):
        with pytest.raises(km.NotCompletelyPositiveError) as excinfo:
            km.kraus_noise(km.KossakowskiMatrix.diagonal(1.0, 1.0, -1.0))
        assert np.isclose(excinfo.value.eigenvalue, -1.0)

    def test_reconstruction_on_random_states(self):
        rng = np.random.default_rng(7)
        c = random_psd(rng)
        ops = km.kraus_noise(c)
        for _ in range(20):
            rho = random_hermitian(rng, 2)
            noise = sum(
                c[i, j] * SIGMA[j] @ rho @ SIGMA[i] for i in range(3) for j in range(3)
            )
            rebuilt = sum(w @ rho @ w.conj().T for w in ops)
            assert np.max(np.abs(rebuilt - noise)) <= 1e-12

    def test_reconstruction_as_superoperator(self):
        # compare the full vectorized forms, not just a few states
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = random_psd(rng)
            ops = km.kraus_noise(c)
            want = sum(
                c[i, j] * np.kron(SIGMA[i].T, SIGMA[j])
                for i in range(3)
                for j in range(3)
            )
            got = sum(np.kron(w.conj(), w) for w in ops)
            assert np.max(np.abs(got - want)) <= 1e-12


def bloch_state(r):
    return 0.5 * (np.eye(2) + sum(x * sig for x, sig in zip(r, SIGMA)))


def bloch_vector(rho):
    return np.array([np.real(np.trace(rho @ sig)) for sig in SIGMA])


class TestBloch:
    """The closed-form semigroup ``evolve`` on qubit states, read as Bloch vectors."""

    def test_time_zero_identity(self):
        c = km.KossakowskiMatrix.diagonal(0.3, 0.7, 1.1)
        state = bloch_state((0.2, -0.4, 0.5))
        assert np.array_equal(km.evolve(c, state, 0.0), state)
        # also for a non-diagonal, non-PSD C and the lifted state
        c = km.KossakowskiMatrix(1.0, 0.4, -0.3, 0.2, 0.5, -1.0)
        rho = random_hermitian(np.random.default_rng(10), 4)
        assert np.array_equal(km.evolve(c, rho, 0.0), rho)

    def test_counterexample_decay(self):
        c = km.KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        out = km.evolve(c, bloch_state((0.0, 0.0, 1.0)), 0.5)
        assert np.allclose(bloch_vector(out), (0.0, 0.0, np.exp(-2.0)))

    def test_norm_never_grows(self):
        c = km.KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= max(np.linalg.norm(v), 1.0)
            state = bloch_state(v)
            for t in rng.uniform(0.0, 5.0, 5):
                out = km.evolve(c, state, float(t))
                assert np.linalg.norm(bloch_vector(out)) <= np.linalg.norm(v) + 1e-12

    def test_rejects_negative_time_and_bad_state(self):
        state = bloch_state((0.0, 0.0, 1.0))
        for t in (-0.1, np.nan, np.inf, "0.1", True):
            with pytest.raises(ValueError, match="t must be"):
                km.evolve(km.KossakowskiMatrix.identity(), state, t)
        for bad in (np.eye(3), np.eye(8), np.zeros(4), np.eye(4)[:, :2]):
            with pytest.raises(ValueError, match="2x2 or 4x4"):
                km.evolve(km.KossakowskiMatrix.identity(), bad, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            km.evolve(np.arange(9.0).reshape(3, 3), state, 1.0)

    def test_agrees_with_matrix_exponential(self):
        c = km.KossakowskiMatrix.diagonal(0.4, 0.9, 0.2)
        state = bloch_state((0.3, -0.2, 0.6))
        t = 0.8
        out = bloch_vector(km.evolve(c, state, t))
        want = bloch_vector(oracle.exact_evolution(c, state, t))
        assert np.all(np.abs(out - want) <= 1e-12)


class TestEvolve:
    def test_agrees_with_oracle_on_random_couplings(self):
        # entries in [-2, 2], so most draws are not PSD and some weights are
        # negative; the states are arbitrary complex matrices, the map being linear
        rng = np.random.default_rng(11)
        not_psd = 0
        for _ in range(200):
            c = random_symmetric(rng)
            not_psd += np.linalg.eigvalsh(c)[0] < 0
            t = rng.uniform(0.0, 1.0)
            for dim in (2, 4):
                rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                want = oracle.exact_evolution(c, rho, t)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(km.evolve(c, rho, t) - want)) <= 1e-12 * scale
        assert not_psd >= 100
