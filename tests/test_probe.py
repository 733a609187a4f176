import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kossprobe import oracle, probe
from kossprobe.kossakowski import KossakowskiMatrix, symmetric_from_vector
from kossprobe.scattering import coefficients

G2 = coefficients(2.0)

# |det M| at g = 2, frozen from the implementation's own adjudicated run as a
# regression guard
DET_M_G2 = 15.356492462019856


def random_symmetric(rng, scale=2.0):
    a = rng.uniform(-scale, scale, (3, 3))
    return 0.5 * (a + a.T)


def random_psd(rng):
    a = rng.normal(size=(3, 3))
    return a.T @ a


class TestProbabilityRate:
    def test_zero_coupling_matrix(self):
        for label in ("canonical", "rot1", "rot2"):
            for side in probe.SIDES:
                rate = probe.probability_rate(
                    KossakowskiMatrix.zero(), G2, label, side
                )
                assert rate == 0.0

    def test_counterexample_canonical_transmitted(self):
        c = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        rate = probe.probability_rate(c, G2, "canonical", "transmitted")
        # |t0|^2 - |t1|^2 at g = 2
        assert abs(rate - (-0.4)) <= 1e-12

    def test_identity_canonical_transmitted(self):
        rate = probe.probability_rate(
            KossakowskiMatrix.identity(), G2, "canonical", "transmitted"
        )
        assert abs(rate - 1.6) <= 1e-12

    def test_negative_rate_for_all_couplings(self):
        c = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        for g in np.linspace(0.1, 10.0, 34):
            rate = probe.probability_rate(
                c, coefficients(g), "canonical", "transmitted"
            )
            assert rate < 0.0

    def test_bad_side(self):
        with pytest.raises(ValueError):
            probe.probability_rate(KossakowskiMatrix.zero(), G2, "canonical", "up")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown basis label 'rot3'") as excinfo:
            probe.probability_rate(KossakowskiMatrix.zero(), G2, "rot3", "transmitted")
        assert str(probe.BASIS_LABELS) in str(excinfo.value)


class TestForward:
    def test_zero(self):
        assert np.allclose(probe.forward(KossakowskiMatrix.zero(), G2).rates, 0.0)

    def test_unit_c11_column(self):
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        got = probe.forward(e11, G2).rates
        assert np.allclose(got, [0.1, 0.1, 1.0, 2.5, 2.5, 1.0], atol=1e-12)

    def test_counterexample_vector(self):
        c = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
        got = probe.forward(c, G2).rates
        assert np.allclose(got, [-0.4, 0.6, 1.4, 2.0, 3.0, -1.0], atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c1, c2 = random_symmetric(rng), random_symmetric(rng)
            a, b = rng.uniform(-2, 2, 2)
            combined = probe.forward(a * c1 + b * c2, G2).rates
            split = a * probe.forward(c1, G2).rates + b * probe.forward(c2, G2).rates
            assert np.max(np.abs(combined - split)) <= 1e-12

    def test_transmitted_rates_phase_independent(self):
        rng = np.random.default_rng(13)
        c = random_symmetric(rng)
        r1 = probe.forward(c, G2, phase=0.4).rates
        r2 = probe.forward(c, G2, phase=2.2).rates
        assert np.max(np.abs(r1[:3] - r2[:3])) <= 1e-14
        assert np.max(np.abs(r1[3:] - r2[3:])) > 1e-3  # reflected ones do move

    def test_psd_rates_nonnegative(self):
        rng = np.random.default_rng(14)
        for g in np.linspace(0.3, 8.0, 10):
            co = coefficients(g)
            for _ in range(50):
                rates = probe.forward(random_psd(rng), co).rates
                assert rates.min() >= -1e-12

    def test_phase_flag(self):
        c = KossakowskiMatrix.identity()
        assert probe.forward(c, G2).is_canonical_phase
        assert probe.forward(c, G2, phase=np.pi / 2 + 2 * np.pi).is_canonical_phase
        assert not probe.forward(c, G2, phase=1.0).is_canonical_phase

    def test_by_channel_order(self):
        out = probe.forward(KossakowskiMatrix.identity(), G2).by_channel()
        assert list(out) == list(probe.CHANNELS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_rejected(self, bad):
        c = KossakowskiMatrix.identity()
        with pytest.raises(ValueError, match="phase must be finite"):
            probe.forward(c, G2, bad)
        with pytest.raises(ValueError, match="phase must be finite"):
            probe.probability_rate(c, G2, "rot1", "reflected", bad)
        with pytest.raises(ValueError, match="phase must be finite"):
            probe.build_matrix_programmatic(G2, bad)

    # a string raised a TypeError, and a bool was read as theta = 0 or 1 rad
    @pytest.mark.parametrize("bad", ["0.9", b"0.9", np.str_("0.9"), True, np.False_],
                             ids=["str", "bytes", "np.str_", "bool", "np.bool_"])
    def test_a_string_or_a_bool_is_not_a_phase(self, bad):
        c = KossakowskiMatrix.identity()
        refused = re.escape(f"probe phase must be a real number, got {bad!r}")
        with pytest.raises(ValueError, match=refused):
            probe.forward(c, G2, bad)
        with pytest.raises(ValueError, match=refused):
            probe.probability_rate(c, G2, "rot1", "reflected", bad)
        with pytest.raises(ValueError, match=refused):
            probe.build_matrix_programmatic(G2, bad)

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4), (6,)])
    def test_coupling_not_3x3_rejected(self, shape):
        bad = np.ones(shape)
        with pytest.raises(ValueError, match="3x3"):
            probe.forward(bad, G2)
        with pytest.raises(ValueError, match="3x3"):
            probe.probability_rate(bad, G2, "canonical", "transmitted")


class TestRateTensor:
    """The one rate matrix M behind forward, probability_rate and build_matrix_programmatic."""

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.floats(0.1, 6.0),
        phase=st.floats(-2 * np.pi, 2 * np.pi),
        entries=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )
    def test_three_entry_points_agree(self, g, phase, entries):
        co = coefficients(g)
        c = symmetric_from_vector(entries)
        got = probe.forward(c, co, phase).rates
        want = oracle.forward_bruteforce(c, co, phase)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

        channels = [(side, label) for side in probe.SIDES for label in probe.BASIS_LABELS]
        for row, (side, label) in enumerate(channels):
            rate = probe.probability_rate(c, co, label, side, phase)
            assert abs(rate - got[row]) <= 1e-13 * scale

        m = probe.build_matrix_programmatic(co, phase).matrix
        scale = max(1.0, float(np.max(np.abs(got))))
        assert np.max(np.abs(m @ np.asarray(entries) - got)) <= 1e-13 * scale


class TestRateMatrixMemo:
    """One ProbeMatrix is built per (coefficients, phase) and shared, read-only."""

    @pytest.mark.parametrize("g", [0.0, -0.0, 2.0])
    @pytest.mark.parametrize(
        "phase", [0.0, -0.0, 3, np.float64(0.7), np.array(0.7), probe.CANONICAL_PHASE],
        ids=["+0", "-0", "int", "float64", "0-d array", "canonical"],
    )
    def test_bit_identical_to_unmemoized(self, g, phase):
        co = coefficients(g)
        c = KossakowskiMatrix(0.8, 0.1, -0.2, 0.5, 0.05, 0.3)
        want = probe._probe_matrix.__wrapped__(co, phase).matrix
        # the memo keys +0.0 and -0.0 alike: it is filled at the other signs first
        flipped = (coefficients(-g) if g == 0.0 else co), (-phase if phase == 0.0 else phase)
        probe.build_matrix_programmatic(*flipped)
        for _ in range(2):
            m = probe.build_matrix_programmatic(co, phase).matrix
            assert m.tobytes() == want.tobytes()
            got = probe.forward(c, co, phase)
            assert got.rates.tobytes() == (want @ c.vector).tobytes()
            assert got.phase is phase

    def test_returns_read_only_matrix(self):
        m = probe._probe_matrix(G2, probe.CANONICAL_PHASE).matrix
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    def test_forward_reuses_the_matrix_just_built(self):
        m = probe.build_matrix_programmatic(G2, 0.9)
        hits = probe._probe_matrix.cache_info().hits
        probe.forward(KossakowskiMatrix.identity(), G2, 0.9)
        assert probe._probe_matrix.cache_info().hits == hits + 1
        assert probe._probe_matrix(G2, 0.9) is m

    def test_one_probe_matrix_and_one_inverse_per_pair(self):
        co = coefficients(1.7)
        m = probe.build_matrix_programmatic(co, 0.6)
        assert probe.build_matrix_programmatic(coefficients(1.7), np.float64(0.6)) is m
        assert m.inverse is probe.build_matrix_programmatic(co, 0.6).inverse
        # the phase is the memo's float key, whatever type the first caller gave
        m = probe.build_matrix_programmatic(co, np.array(0.65))
        assert type(m.phase) is float and m.phase == 0.65
        assert m.to_dict()["phase"] == 0.65

    @pytest.mark.parametrize("phase", [0.0, 0.9, probe.CANONICAL_PHASE])
    def test_forward_and_rate_read_the_memos_matrix(self, phase):
        c = KossakowskiMatrix(0.8, 0.1, -0.2, 0.5, 0.05, 0.3)
        m = probe._probe_matrix(G2, phase).matrix
        assert probe.forward(c, G2, phase).rates.tobytes() == (m @ c.vector).tobytes()
        channels = [(side, label) for side in probe.SIDES for label in probe.BASIS_LABELS]
        for row, (side, label) in enumerate(channels):
            rate = probe.probability_rate(c, G2, label, side, phase)
            assert rate.hex() == float((m @ c.vector)[row]).hex()

    def test_bounded_over_a_long_scan(self):
        for g in np.linspace(0.3, 6.0, probe._MEMO_SIZE + 20):
            probe.build_matrix_programmatic(coefficients(g), 0.4)
        info = probe._probe_matrix.cache_info()
        assert info.maxsize == probe._MEMO_SIZE and info.currsize <= probe._MEMO_SIZE

    @pytest.mark.parametrize("phase", [np.nan, np.inf, np.array(np.nan)])
    def test_non_finite_phase_refused_before_the_memo(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            probe.build_matrix_programmatic(G2, phase)


class TestProgrammaticMatrix:
    def test_matrix_times_vector_is_forward(self):
        m = probe.build_matrix_programmatic(G2)
        rng = np.random.default_rng(15)
        for _ in range(20):
            c = KossakowskiMatrix.from_matrix(random_symmetric(rng))
            assert np.max(
                np.abs(m.matrix @ c.vector - probe.forward(c, G2).rates)
            ) <= 1e-12

    def test_determinant_regression(self):
        m = probe.build_matrix_programmatic(G2)
        assert abs(abs(m.det) - DET_M_G2) <= 1e-9 * DET_M_G2

    def test_singular_at_zero_coupling(self):
        m = probe.build_matrix_programmatic(coefficients(0.0))
        assert abs(m.det) <= 1e-12
        assert m.condition_number > 1e12

    def test_det_and_condition_number_derived_from_matrix(self):
        m = probe.build_matrix_programmatic(G2, 1e-12)
        assert m.det == float(np.linalg.det(m.matrix))
        assert m.condition_number == float(np.linalg.cond(m.matrix)) > 1e12
        # passed-in figures would let a near-singular M past the inversion's guard
        with pytest.raises(TypeError):
            probe.ProbeMatrix(m.matrix, m.g, m.phase, "programmatic", det=1.0, condition_number=1.0)

    @pytest.mark.parametrize("g", [0.0, -0.0, 0.3, 1.0, 2.0, 6.0])
    def test_condition_number_and_det_are_numpys_bit_for_bit(self, g):
        # the singular theta = 0 included
        for k in range(8):
            m = probe.build_matrix_programmatic(coefficients(g), k * np.pi / 4)
            assert m.condition_number.hex() == float(np.linalg.cond(m.matrix)).hex()
            assert m.det.hex() == float(np.linalg.det(m.matrix)).hex()

    @pytest.mark.parametrize("matrix, cond, det", [
        (np.zeros((6, 6)), np.inf, 0.0), (1e-200 * np.eye(6), 1.0, 0.0),
        (np.diag([3.0, 1.0, 1.0, 1.0, 1.0, 0.0]), np.inf, 0.0),
    ], ids=["zeros", "tiny identity", "rank 5"])
    def test_hand_built_condition_number_and_det(self, matrix, cond, det):
        m = probe.ProbeMatrix(matrix, 1.0, 0.0, "hand-built")
        assert m.condition_number == cond == np.linalg.cond(matrix)
        assert m.det.hex() == det.hex() == float(np.linalg.det(matrix)).hex()

    def test_nan_matrix_is_refused_by_the_svd(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                probe.ProbeMatrix(np.full((6, 6), np.nan), 1.0, 0.0, "hand-built")

    def test_well_conditioned_on_grid(self):
        for g in np.linspace(0.2, 10.0, 25):
            m = probe.build_matrix_programmatic(coefficients(g))
            assert abs(m.det) > 0.0
            assert m.condition_number < 1e6

    def test_to_dict(self):
        d = probe.build_matrix_programmatic(G2).to_dict()
        assert d["source"] == "programmatic"
        assert len(d["matrix"]) == 6
        assert d["columns"][1] == "c12"


class TestAppendixMatrix:
    def test_coefficients_at_g2(self):
        k = probe.appendix_coefficients(G2)
        assert np.allclose(
            [k["a0"], k["a1"], k["b"], k["c"]], [0.1, 0.5, -0.4, -0.2], atol=1e-12
        )
        assert np.allclose(
            [k["d0"], k["d1"], k["e"], k["f"]], [2.5, 0.5, 1.0, 2.2], atol=1e-12
        )

    def test_first_row_structure(self):
        m = probe.build_matrix_appendix(G2).matrix
        k = probe.appendix_coefficients(G2)
        expected = [k["a0"], k["b"], k["c"], k["a1"], 0.0, 2.0 * k["a1"]]
        assert np.allclose(m[0], expected, atol=1e-15)

    def test_known_deviations_from_programmatic(self):
        # the tabulated closed form differs from the programmatic ground truth
        # in exactly ten entries at the quarter-wave phase: a sqrt(2) factor on
        # the c12/c13 interference columns, a sign on the c23 coefficient of
        # the second rotated frame, and both effects at once in entry (5, 4)
        prog = probe.build_matrix_programmatic(G2)
        app = probe.build_matrix_appendix(G2)
        report = probe.compare_matrices(prog, app)
        assert not report["agrees"]
        cells = {(e["row"], e["col"]) for e in report["deviating_entries"]}
        assert cells == {
            (0, 2), (1, 1), (2, 2), (2, 4), (3, 1),
            (3, 2), (4, 1), (4, 2), (5, 2), (5, 4),
        }
        # agreement everywhere else
        mask = np.ones((6, 6), dtype=bool)
        for cell in cells:
            mask[cell] = False
        assert np.max(np.abs((prog.matrix - app.matrix)[mask])) <= 1e-12

    def test_sqrt2_structure_of_deviation(self):
        prog = probe.build_matrix_programmatic(G2).matrix
        app = probe.build_matrix_appendix(G2).matrix
        assert abs(prog[0, 2] - np.sqrt(2.0) * app[0, 2]) <= 1e-12
        assert abs(prog[3, 2] - np.sqrt(2.0) * app[3, 2]) <= 1e-12
        assert abs(prog[2, 4] + app[2, 4]) <= 1e-12  # opposite sign

    def test_compare_agrees_with_itself(self):
        m = probe.build_matrix_programmatic(G2)
        assert probe.compare_matrices(m, m)["agrees"]
