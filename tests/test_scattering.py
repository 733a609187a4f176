import re
import warnings

import numpy as np
import pytest

from kossprobe import experiment, inversion, kossakowski, oracle, probe, scattering
from kossprobe.kossakowski import KossakowskiMatrix


class TestCoefficients:
    def test_no_coupling(self):
        co = scattering.coefficients(0.0)
        assert co.t0 == 1.0 and co.t1 == 1.0
        assert co.r0 == 0.0 and co.r1 == 0.0

    def test_g2_values(self):
        co = scattering.coefficients(2.0)
        assert np.isclose(co.t0, 0.1 + 0.3j, atol=1e-15)
        assert np.isclose(co.t1, 0.5 - 0.5j, atol=1e-15)
        assert np.isclose(co.r0, -0.9 + 0.3j, atol=1e-15)
        # cross-check against the channel probabilities 16/(16 + 9u^2) and
        # 16/(16 + u^2) with u = 2g
        u = 4.0
        assert np.isclose(abs(co.t0) ** 2, 16.0 / (16.0 + 9.0 * u**2))
        assert np.isclose(abs(co.t1) ** 2, 16.0 / (16.0 + u**2))

    def test_unitarity_and_re_t_sweep(self):
        for g in np.linspace(0.0, 10.0, 1000):
            co = scattering.coefficients(g)
            for t, r in ((co.t0, co.r0), (co.t1, co.r1)):
                assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-12
                assert abs(t.real - abs(t) ** 2) <= 1e-12

    def test_reflection_is_t_minus_one(self):
        co = scattering.coefficients(3.7)
        assert co.r0 == co.t0 - 1.0
        assert co.r1 == co.t1 - 1.0
        assert abs(abs(co.t0) ** 2 + abs(co.r0) ** 2 - 1.0) <= 1e-12

    def test_channels_split_iff_coupled(self):
        assert scattering.coefficients(0.0).t0 == scattering.coefficients(0.0).t1
        for g in (0.1, 1.0, 5.0):
            co = scattering.coefficients(g)
            assert co.t0 != co.t1
            # the singlet channel always transmits less; this asymmetry is what
            # makes the counterexample's canonical rate negative
            assert abs(co.t0) ** 2 < abs(co.t1) ** 2


class TestParams:
    """The physical inputs (J, E, m, hbar) give (g, k); ``coefficients`` alone checks g."""

    def test_from_physical_recovers_g_and_k(self):
        j, e, m, hbar = 0.8, 2.5, 1.3, 1.0
        g, k = scattering.physical_coupling(j, e, m, hbar)
        dos = np.sqrt(2.0 * m / e) / (np.pi * hbar)
        assert abs(g - np.pi * j * dos / 4.0) <= 1e-12
        assert abs(k - np.sqrt(2.0 * m * e) / hbar) <= 1e-12
        assert type(g) is float and type(k) is float

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError, match="positive-energy"):
            scattering.physical_coupling(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive-energy"):
            scattering.physical_coupling(1.0, -2.0, 1.0)

    @pytest.mark.parametrize("mass, hbar", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_nonpositive_mass_or_hbar_rejected(self, mass, hbar):
        with pytest.raises(ValueError, match="mass and hbar must be positive"):
            scattering.physical_coupling(1.0, 2.0, mass, hbar)

    def test_negative_g_flagged(self):
        # physical_coupling passes a negative g on; coefficients flags it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, _ = scattering.physical_coupling(-1.0, 2.0, 1.0)
        assert g < 0
        with pytest.warns(UserWarning, match="attractive"):
            scattering.coefficients(g)

    def test_negative_g_warning_names_the_callers_line(self):
        with pytest.warns(UserWarning, match="attractive") as record:
            scattering.coefficients(-1.0)
        assert [w.filename for w in record] == [__file__]

    def test_coefficients_take_a_float(self):
        # the (g, k) pair is not a real number
        with pytest.raises(ValueError, match=re.escape("coupling g must be a real number, got (")):
            scattering.coefficients(scattering.physical_coupling(1.0, 2.0, 1.0))

    # float() read each of these, as g = 2.0 or 1.0
    @pytest.mark.parametrize("bad", ["2", b"2", bytearray(b"2"), np.str_("2"), True, np.True_],
                             ids=["str", "bytes", "bytearray", "np.str_", "bool", "np.bool_"])
    def test_a_string_or_a_bool_is_not_a_coupling(self, bad):
        with pytest.raises(ValueError,
                           match=re.escape(f"coupling g must be a real number, got {bad!r}")):
            scattering.coefficients(bad)

    @pytest.mark.parametrize("g", [2, np.int64(2), np.float64(2.0), np.array(2.0)],
                             ids=["int", "np.int64", "np.float64", "0-d array"])
    def test_a_number_is_a_coupling(self, g):
        co = scattering.coefficients(g)
        assert co == scattering.coefficients(2.0)
        assert type(co.g) is float

    def test_bad_k_rejected(self):
        # an infinite hbar gives k = 0 (and g = 0)
        with pytest.raises(ValueError, match="wavenumber k must be positive and finite, got 0.0"):
            scattering.physical_coupling(1.0, 2.0, 1.0, hbar=np.inf)

    # at 1.7e308, alpha_0 = -1.5 g overflowed to -inf, and t0 = r0 = nan
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1.7e308, -1.7e308])
    def test_non_finite_g_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"alpha_0 = -1.5 g, got {bad}")):
            scattering.coefficients(bad)

    def test_largest_couplings_accepted(self):
        co = scattering.coefficients(1.19e308)
        assert all(np.isfinite([co.t0, co.t1, co.r0, co.r1]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_k_rejected(self, bad):
        with pytest.raises(ValueError, match="wavenumber k must be positive and finite"):
            scattering.physical_coupling(1.0, bad, 1.0)


class TestWavefunctions:
    """The spatial amplitudes (phi0, phi1) at probe phase theta = 2k|x|, one row per side."""

    def test_free_propagation(self):
        co = scattering.coefficients(0.0)
        theta = 1.4
        for phi0, phi1 in scattering.probe_amplitudes(co, theta):
            assert np.isclose(phi0, np.exp(0.5j * theta), atol=1e-15)
            assert np.isclose(phi1, np.sqrt(3) * np.exp(0.5j * theta), atol=1e-15)

    def test_transmitted_moduli(self):
        co = scattering.coefficients(2.0)
        phi0, phi1 = scattering.probe_amplitudes(co, 2.6)[0]
        assert abs(abs(phi0) ** 2 - 0.1) <= 1e-12
        assert abs(abs(phi1) ** 2 - 1.5) <= 1e-12

    def test_reflected_quarter_wave_moduli(self):
        # at 2k|x| = pi/2 the squared moduli reproduce the quarter-wave
        # constants 2 - |t|^2 + 2 Im(t) of the reflected-side rates
        co = scattering.coefficients(2.0)
        phi0, phi1 = scattering.probe_amplitudes(co, np.pi / 2.0)[1]
        assert abs(abs(phi0) ** 2 - 2.5) <= 1e-12
        assert abs(abs(phi1) ** 2 / 3.0 - 0.5) <= 1e-12

    def test_x_zero_is_right_limit(self):
        # at the impurity (theta = 0) both sides give (t0, sqrt(3) t1): 1 + r = t
        co = scattering.coefficients(2.0)
        for phi0, phi1 in scattering.probe_amplitudes(co, 0.0):
            assert np.isclose(phi0, co.t0)
            assert np.isclose(phi1, np.sqrt(3) * co.t1)


class TestProbeAmplitudes:
    def test_transmitted_modulus_phase_independent(self):
        co = scattering.coefficients(1.7)
        a = scattering.probe_amplitudes(co, 0.3)[0]
        b = scattering.probe_amplitudes(co, 2.9)[0]
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-15)

    def test_each_side_is_its_wave(self):
        # transmitted t e^{i theta/2}, reflected e^{i theta/2} + r e^{-i theta/2}, per
        # channel, at a coupling where the channels differ and a phase off every axis
        co = scattering.coefficients(1.3)
        theta = 0.7
        half = complex(np.exp(0.5j * theta))
        want = [[co.t0 * half, np.sqrt(3) * co.t1 * half],
                [half + co.r0 * half.conjugate(), np.sqrt(3) * (half + co.r1 * half.conjugate())]]
        got = scattering.probe_amplitudes(co, theta)
        assert got.shape == (2, 2) and got.dtype == complex
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_rejected(self, bad):
        co = scattering.coefficients(1.0)
        with pytest.raises(ValueError, match="phase must be finite"):
            scattering.probe_amplitudes(co, bad)


# Each scalar site of the library passes x to one argument, the others fixed in range, and
# returns what it read in a form that compares with ==.
_CO = scattering.coefficients(2.0)
_C = KossakowskiMatrix.identity()
_RHO = np.diag([0.75, 0.25])
_M = probe.build_matrix_programmatic(_CO)
# rates of a C that is not PSD, whose verdict reads z (not-CP at 3, indeterminate at 10)
_NOT_CP_RATES = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.3), _CO).rates


def _config(**field):
    fields = dict(true_c=_C, g=2.0, phase=1.0, exposure=0.01, calibration=1.0,
                  shots_per_channel=100, seed=7)
    return experiment.ExperimentConfig(**{**fields, **field})


def _verdict(z):
    result = inversion.invert_noisy(_NOT_CP_RATES, np.full(6, 0.05), _M, z=z)
    return result.cp_verdict, result.margin_sigma


REAL_SITES = {
    "coefficients g": scattering.coefficients,
    "probe_amplitudes phase": lambda x: scattering.probe_amplitudes(_CO, x).tolist(),
    "build_matrix phase": lambda x: probe.build_matrix_programmatic(_CO, x).matrix.tolist(),
    "forward phase": lambda x: probe.forward(_C, _CO, x).rates.tolist(),
    "probability_rate phase": lambda x: probe.probability_rate(_C, _CO, "rot1", "reflected", x),
    "physical_coupling J": lambda x: scattering.physical_coupling(x, 2.0, 1.0, 1.0),
    "physical_coupling E": lambda x: scattering.physical_coupling(1.0, x, 1.0, 1.0),
    "physical_coupling m": lambda x: scattering.physical_coupling(1.0, 2.0, x, 1.0),
    "physical_coupling hbar": lambda x: scattering.physical_coupling(1.0, 2.0, 1.0, x),
    "KossakowskiMatrix entry": lambda x: KossakowskiMatrix(x, 0, 0, 1, 0, 1),
    "from_vector entry": lambda x: KossakowskiMatrix.from_vector([x, 0, 0, 1, 0, 1]),
    "evolve t": lambda x: kossakowski.evolve(_C, _RHO, x).tolist(),
    "config g": lambda x: _config(g=x),
    "config phase": lambda x: _config(phase=x),
    "config exposure": lambda x: _config(exposure=x),
    "invert_noisy z": _verdict,
    "exact_evolution t": lambda x: oracle.exact_evolution(_C, _RHO, x).tolist(),
    "rates_bruteforce phase": lambda x: oracle.rates_bruteforce(_C, _CO, "canonical", x),
    "forward_bruteforce phase": lambda x: oracle.forward_bruteforce(_C, _CO, x).tolist(),
    "cp_check condition_number": lambda x: _C.cp_check(x).to_dict(),
}
INTEGER_SITES = {
    "config shots_per_channel": lambda x: _config(shots_per_channel=x),
    "config seed": lambda x: _config(seed=x),
    "adjudicate trials": lambda x: oracle.adjudicate(trials=x)["trials"],
}
# 2 is out of the calibration's range (0, 1], so it is refused whatever its type
SCALAR_SITES = {**REAL_SITES, **INTEGER_SITES,
                "config calibration": lambda x: _config(calibration=x)}


def _refusal(site: str) -> type:
    return experiment.ConfigError if site.startswith("config") else ValueError


class TestOneRuleForEveryScalar:
    """Every outside scalar is read by one rule, ``scattering._real``, or its integer twin:
    a bool, a string, bytes, complex and a non-finite value are refused at every site, and
    a Python or numpy number, or a 0-d array of one, is read as the Python float (or int)
    of its value."""

    @pytest.mark.parametrize("bad", [True, np.True_, np.array(True), "1", b"1", 1j,
                                     float("nan"), float("inf"), -float("inf")],
                             ids=["True", "np.True_", "0-d bool", "str", "bytes", "complex",
                                  "nan", "inf", "-inf"])
    @pytest.mark.parametrize("site", SCALAR_SITES)
    def test_a_value_that_is_not_a_finite_number_is_refused(self, site, bad):
        with pytest.raises(_refusal(site)):
            SCALAR_SITES[site](bad)

    @pytest.mark.parametrize("number", [2, np.int64(2), np.float64(2.0), np.array(2.0)],
                             ids=["int", "np.int64", "np.float64", "0-d array"])
    @pytest.mark.parametrize("site", REAL_SITES)
    def test_a_number_is_read_as_its_float(self, site, number):
        assert REAL_SITES[site](number) == REAL_SITES[site](2.0)

    @pytest.mark.parametrize("number", [2, np.int64(2), np.array(2)],
                             ids=["int", "np.int64", "0-d array"])
    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_an_integer_is_read_as_its_int(self, site, number):
        assert INTEGER_SITES[site](number) == INTEGER_SITES[site](2)
        # a float, even a whole one, is not a count, a seed or a number of trials
        with pytest.raises(_refusal(site)):
            INTEGER_SITES[site](np.float64(2.0))
