import abc
import builtins
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kossprobe import experiment, inversion, probe
from kossprobe.kossakowski import KossakowskiMatrix
from kossprobe.scattering import coefficients


def bits(xs) -> list[str]:
    """Each number as ``float.hex``, so that equal lists agree bit for bit."""
    return [float(x).hex() for x in xs]


def make_config(**overrides):
    defaults = dict(
        true_c=KossakowskiMatrix.identity(),
        g=2.0,
        phase=probe.CANONICAL_PHASE,
        exposure=0.01,
        calibration=1.0,
        shots_per_channel=100_000,
        seed=7,
    )
    defaults.update(overrides)
    return experiment.ExperimentConfig(**defaults)


class TestConfig:
    def test_guards(self):
        with pytest.raises(experiment.ConfigError, match="calibration"):
            make_config(calibration=0.0).per_shot_probabilities()
        with pytest.raises(experiment.ConfigError, match="exposure"):
            make_config(exposure=-1.0).per_shot_probabilities()
        with pytest.raises(experiment.ConfigError, match="shots"):
            make_config(shots_per_channel=0).per_shot_probabilities()

    @pytest.mark.parametrize(
        "field, bad",
        [("g", None), ("g", float("nan")), ("phase", True), ("exposure", 0.0),
         ("exposure", -0.01), ("calibration", 2.0), ("shots_per_channel", 2**70), ("seed", -1)],
    )
    def test_fields_checked_at_construction(self, field, bad):
        # a config is refused when it is built, not when it first runs
        with pytest.raises(experiment.ConfigError, match=f"{field} must be"):
            make_config(**{field: bad})

    def test_every_offending_field_is_named(self):
        with pytest.raises(experiment.ConfigError, match="exposure .*; calibration .*; seed "):
            make_config(exposure=0.0, calibration=0.0, seed=-1)

    @pytest.mark.parametrize("exposure, calibration", [(1e-200, 1e-200), (5e-324, 0.5)])
    def test_an_underflowing_eta_t_is_refused(self, exposure, calibration):
        # each is in range, but their product is 0.0, by which estimate divided
        message = (f"calibration * exposure must be positive, got {calibration!r} * "
                   f"{exposure!r}, which underflows to 0.0")
        with pytest.raises(experiment.ConfigError, match=f"^{re.escape(message)}$"):
            make_config(exposure=exposure, calibration=calibration)
        assert make_config(exposure=1e-200, calibration=1e-110).exposure == 1e-200  # subnormal

    def test_fields_stored_as_python_numbers(self):
        config = make_config(true_c=np.eye(3), g=2, shots_per_channel=np.int64(1000))
        assert config.true_c == KossakowskiMatrix.identity()
        assert type(config.g) is float and type(config.shots_per_channel) is int
        assert config == make_config(shots_per_channel=1000)

    def test_first_order_validity_guard(self):
        # identity C at g=2 has a largest rate of 4.0, so exposure 0.1 pushes
        # the reflected channels past the 0.2 per-shot cap
        with pytest.raises(experiment.ConfigError, match="P0R"):
            make_config(exposure=0.1).per_shot_probabilities()

    @pytest.mark.parametrize("side, refused", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)],
                             ids=["below", "above"])
    def test_first_order_guard_at_its_edge(self, side, refused):
        # the largest per-shot probability just below and just above the 0.2 cap
        base = make_config()
        rates = probe.forward(base.true_c, coefficients(base.g), base.phase).rates
        exposure = 0.2 / float(rates.max()) * side
        config = make_config(exposure=exposure)
        if refused:
            with pytest.raises(experiment.ConfigError, match="validity guard 0.2: P0R"):
                config.per_shot_probabilities()
        else:
            assert config.per_shot_probabilities()[1].max() <= 0.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_probability_is_refused_by_name(self):
        # inf - inf gives P1R = NaN at g = 2, which a "p > 0.2" guard let through
        c = KossakowskiMatrix(1.7e308, 1.7e308, 0.0, 1.7e308, 0.0, 0.0)
        with pytest.raises(experiment.ConfigError, match=r"P1R \(p = nan\)"):
            make_config(true_c=c).per_shot_probabilities()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_phase_rejected(self, bad):
        with pytest.raises(ValueError, match="phase must be finite"):
            experiment.run(make_config(phase=bad))

    @pytest.mark.parametrize(
        "field, bad",
        [("shots_per_channel", 2.5), ("shots_per_channel", True), ("shots_per_channel", -3),
         ("shots_per_channel", 2**63), ("shots_per_channel", "1000"),
         ("seed", 2.5), ("seed", True), ("seed", -1), ("seed", None)],
    )
    def test_count_and_seed_guards_name_the_field(self, field, bad):
        with pytest.raises(experiment.ConfigError, match=field):
            experiment.run(make_config(**{field: bad}))

    def test_largest_shot_count_and_numpy_integers_accepted(self):
        out = experiment.run(make_config(shots_per_channel=2**63 - 1))
        assert all(0 < k < 2**63 for k in out.detections)
        as_numpy = make_config(shots_per_channel=np.int64(1000), seed=np.uint64(7))
        assert experiment.run(as_numpy).detections == experiment.run(
            make_config(shots_per_channel=1000, seed=7)
        ).detections

    @pytest.mark.parametrize(
        "shots, seed", [(np.int64(1000), 7), (1000, np.uint64(7)), (np.int32(1000), np.int64(7))]
    )
    def test_numpy_integers_save_as_python_ints(self, shots, seed):
        # a config of numpy integers hashes, and saves, as the same config of ints
        as_numpy = make_config(shots_per_channel=shots, seed=seed)
        plain = make_config(shots_per_channel=1000, seed=7)
        assert as_numpy.hash() == plain.hash()
        out = experiment.run(as_numpy)
        assert out.to_json() == experiment.run(plain).to_json()
        assert out.to_csv() == experiment.run(plain).to_csv()

    def test_round_trip_and_hash(self):
        config = make_config()
        assert experiment.ExperimentConfig.from_dict(config.to_dict()) == config
        assert config.hash() != replace(config, seed=8).hash()

    def test_per_shot_values(self):
        p, unclamped = make_config().per_shot_probabilities()
        assert np.allclose(unclamped[:3], 0.016, atol=1e-12)
        assert np.allclose(unclamped[3:], 0.040, atol=1e-12)
        assert np.array_equal(p, unclamped)

    @pytest.mark.parametrize(
        "truth, g, phase",
        [((1.0, 0.8, 0.6), g, phase) for g in (0.3, 2.0, 6.0)
         for phase in (np.pi / 2, 0.9, 7 * np.pi / 4)]
        + [((1.0, 1.0, -1.0), 2.0, probe.CANONICAL_PHASE), ((1.0, 1.0, -1.0), 6.0, 0.9),
           ((0.0, 0.0, 0.0), 2.0, probe.CANONICAL_PHASE)],
    )
    def test_per_shot_values_are_forwards_rates_bit_for_bit(self, truth, g, phase):
        # the per-shot model reads the memoised M, not forward: the same product, so the
        # same bits, and run draws numpy's own spawned streams at the clamped values
        config = make_config(true_c=KossakowskiMatrix.diagonal(*truth), g=g, phase=phase,
                             calibration=0.8, shots_per_channel=10**9, seed=11)
        want = 0.8 * 0.01 * probe.forward(config.true_c, coefficients(g), phase).rates
        p, unclamped = config.per_shot_probabilities()
        assert bits(unclamped) == bits(want)
        assert bits(p) == bits(want.clip(0.0, 1.0))
        out = experiment.run(config)
        clamped = tuple(label for label, q in zip(probe.CHANNELS, want) if q < 0.0)
        assert out.flagged_channels == clamped and bool(clamped) == (truth[2] < 0.0)
        assert out.detections == tuple(
            int(rng.binomial(10**9, q)) for rng, q in zip(referee_generators(11), p)
        )


class TestRun:
    def test_zero_noise_matrix_detects_nothing(self):
        config = make_config(true_c=KossakowskiMatrix.zero())
        out = experiment.run(config)
        assert out.detections == (0, 0, 0, 0, 0, 0)

    def test_a_second_run_imports_and_registers_nothing(self, monkeypatch):
        # numpy.random's types are resolved once per process, at the first run
        experiment.run(make_config())
        calls, real_import = [], builtins.__import__
        monkeypatch.setattr(abc.ABCMeta, "register", lambda cls, subclass: calls.append(subclass))
        monkeypatch.setattr(builtins, "__import__",
                            lambda name, *args, **kwargs: calls.append(name)
                            or real_import(name, *args, **kwargs))
        out = experiment.run(make_config(seed=8))
        monkeypatch.undo()
        assert calls == []
        assert out == experiment.run(make_config(seed=8))

    def test_counts_track_probabilities(self):
        config = make_config(shots_per_channel=1_000_000)
        out = experiment.run(config)
        p, _ = config.per_shot_probabilities()
        for k, prob, n in zip(out.detections, p, [config.shots_per_channel] * 6):
            sigma = np.sqrt(prob * (1 - prob) * n)
            assert abs(k - n * prob) <= 5.0 * sigma

    def test_negative_rate_channel_flagged_and_silent(self):
        config = make_config(true_c=KossakowskiMatrix.diagonal(1.0, 1.0, -1.0))
        out = experiment.run(config)
        # canonical transmitted (rate -0.4) and the last reflected channel
        # (rate -1.0) are unphysical for this non-PSD truth
        assert set(out.flagged_channels) == {"P0T", "P2R"}
        assert out.detections[0] == 0
        assert out.detections[5] == 0

    @pytest.mark.parametrize(
        "detections, named",
        [((2000,) * 6, "P0T k = 2000"), ((1, 2, -3, 4, 5, 6), "P2T k = -3"),
         ((1, 1.5, 1, 1, 1, 1), "P1T k = 1.5"), ((1, 1, 1, True, 1, 1), "P0R k = True"),
         ((1,) * 5, "got 5 counts")],
        ids=["above-shots", "negative", "fraction", "bool", "five-counts"],
    )
    def test_counts_checked_at_construction(self, detections, named):
        # each was accepted: 2000 of 1000 shots gave p_hat 2.0 and nan sigmas
        with pytest.raises(ValueError, match=re.escape(named)):
            experiment.ExperimentRun(make_config(shots_per_channel=1000), detections)

    def test_flags_are_derived_not_passed(self):
        config = make_config(shots_per_channel=1000)
        with pytest.raises(TypeError, match="flagged_channels"):
            experiment.ExperimentRun(config, (0,) * 6, flagged_channels=("bogus",))
        out = experiment.ExperimentRun(config, (np.int64(3),) * 6)
        assert out.flagged_channels == () and type(out.detections[0]) is int

    def test_bit_exact_reproducibility(self):
        config = make_config()
        a = experiment.run(config)
        b = experiment.run(config)
        assert a == b
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()
        assert experiment.run(replace(config, seed=8)) != a

    def test_channel_independence_of_substreams(self):
        # changing the true matrix must not perturb the draws of channels
        # whose probability is unchanged: substreams are per channel.  The
        # c23 entry only enters the two rot2 channels, so varying it leaves
        # the other four probabilities (and hence their counts) untouched.
        base = make_config(true_c=KossakowskiMatrix.identity())
        other = make_config(true_c=KossakowskiMatrix(1.0, 0.0, 0.0, 1.0, 0.1, 1.0))
        run_a = experiment.run(base)
        run_b = experiment.run(other)
        rates_a, rates_b = (probe.forward(c.true_c, coefficients(c.g), c.phase).rates
                            for c in (base, other))
        same = [i for i in range(6) if abs(rates_a[i] - rates_b[i]) <= 1e-15]
        assert same == [0, 1, 3, 4]
        for i in same:
            assert run_a.detections[i] == run_b.detections[i]
        assert run_a.detections[2] != run_b.detections[2]


def referee_generators(seed):
    """numpy's own channel streams: child i of SeedSequence(seed).spawn(6), PCG64."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(6)]


class TestChannelStreams:
    """Channel i draws from child i of numpy's SeedSequence(seed).spawn(6)."""

    # the seed's word count sets where its spawn word is hashed: one word up
    # to 2**32, the four-word pool up to 2**128, and more words beyond it
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**200),
        shots=st.sampled_from([1, 1000, 100_000, 10**9, 2**40]),
    )
    @example(seed=0, shots=1000)
    @example(seed=2**32, shots=1000)
    @example(seed=2**128 - 1, shots=1000)
    @example(seed=2**128, shots=1000)
    @example(seed=2**200, shots=10**9)
    def test_detections_match_numpys_spawned_streams(self, seed, shots):
        config = make_config(seed=seed, shots_per_channel=shots)
        p, _ = config.per_shot_probabilities()
        expected = tuple(
            int(rng.binomial(shots, q)) for rng, q in zip(referee_generators(seed), p)
        )
        assert experiment.run(config).detections == expected


    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**200))
    @example(seed=2**32 - 1)
    @example(seed=2**96)
    @example(seed=2**128 - 1)
    @example(seed=2**128)
    @example(seed=2**160)
    def test_generators_are_numpys_spawned_pcg64_streams(self, seed):
        states = [rng.bit_generator.state for rng in experiment._channel_generators(seed)]
        assert states == [rng.bit_generator.state for rng in referee_generators(seed)]
        assert {state["bit_generator"] for state in states} == {"PCG64"}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        # read back as invert reads a run file
        out = experiment.run(make_config())
        json_path, csv_path = experiment.save_run(out, tmp_path)
        with open(json_path) as f:
            assert experiment.ExperimentRun.from_dict(json.load(f)) == out
        text = (tmp_path / "run.csv").read_text()
        assert text.startswith(experiment.CSV_HEADER)
        assert len(text.strip().splitlines()) == 7

    @pytest.mark.parametrize("data", [[], "run", None, 3])
    @pytest.mark.parametrize("read, what", [
        (experiment.ExperimentConfig.from_dict, "run config"),
        (experiment.ExperimentRun.from_dict, "run"),
    ], ids=["config", "run"])
    def test_a_non_object_is_refused(self, read, what, data):
        with pytest.raises(ValueError,
                           match=f"^{what} must be an object, got {type(data).__name__}$"):
            read(data)

    def test_identical_seeds_identical_bytes(self, tmp_path):
        config = make_config()
        experiment.save_run(experiment.run(config), tmp_path / "a")
        experiment.save_run(experiment.run(config), tmp_path / "b")
        assert (tmp_path / "a/run.json").read_bytes() == (tmp_path / "b/run.json").read_bytes()
        assert (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()


HUGE = 10**400  # a 401-digit integer: its full repr made each message 450 characters and more


@pytest.mark.parametrize(
    "refused, named",
    [
        (lambda: KossakowskiMatrix.from_vector([HUGE, 0, 0, 1, 0, 1]), "'c11': 1000"),
        (lambda: KossakowskiMatrix(1, 0, 0, 1, 0, HUGE), "'c33': 1000"),
        (lambda: inversion.invert_noisy(
            [HUGE, 0, 0, 0, 0, 0], [0.0] * 6, probe.build_matrix_programmatic(coefficients(2.0))),
         "'P0T': 1000"),
        (lambda: make_config(shots_per_channel=HUGE), "shots_per_channel must be"),
        (lambda: experiment.ExperimentRun(make_config(), (1, HUGE, 1, 1, 1, 1)), "P1T k = 1000"),
        (lambda: experiment.ExperimentRun.from_dict(
            {**experiment.run(make_config()).to_dict(), "schema_version": HUGE}),
         "run schema_version 1000"),
        (lambda: experiment.ExperimentRun.from_dict(
            {**experiment.run(make_config()).to_dict(), "config_hash": "0" * 1000}),
         "run config_hash '0000"),
    ],
    ids=["from_vector", "constructor", "rates", "config-field", "run-counts", "run-field",
         "run-hash"],
)
def test_refusals_show_a_bounded_value(refused, named):
    with pytest.raises(ValueError, match=re.escape(named)) as excinfo:
        refused()
    assert len(str(excinfo.value)) < 200, str(excinfo.value)


class TestEstimate:
    def test_recovers_truth_within_errors(self):
        config = make_config(shots_per_channel=1_000_000)
        m = probe.build_matrix_programmatic(coefficients(config.g))
        result = experiment.estimate(experiment.run(config), m)
        err = np.abs(result.c_hat.vector - config.true_c.vector)
        assert np.all(err <= 4.0 * result.standard_errors())
        assert result.cp_verdict in (inversion.CP, inversion.INDETERMINATE)

    def test_covariance_is_the_binomial_variance_through_m(self):
        # M^-1 diag(p (1 - p) / N) M^-T / (eta t)^2, at per-shot p of 0.11 to 0.2, where
        # the (1 - p) factor moves each variance by 11% or more
        config = make_config(shots_per_channel=1000, exposure=0.04)
        out = experiment.ExperimentRun(config, (150, 120, 180, 110, 200, 160))
        m = probe.build_matrix_programmatic(coefficients(config.g))
        p = np.array(out.detections) / 1000
        eta_t = config.calibration * config.exposure
        want = m.inverse @ np.diag(p * (1.0 - p) / 1000) @ m.inverse.T / eta_t**2
        got = experiment.estimate(out, m).covariance
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_pooling_beats_single_run(self):
        config = make_config(shots_per_channel=200_000)
        m = probe.build_matrix_programmatic(coefficients(config.g))
        runs = [experiment.run(replace(config, seed=s)) for s in range(8)]
        pooled = experiment.estimate(runs, m)
        single = experiment.estimate(runs[0], m)
        assert np.all(pooled.standard_errors() < single.standard_errors())

    def test_mixed_configs_rejected(self):
        m = probe.build_matrix_programmatic(coefficients(2.0))
        run_a = experiment.run(make_config())
        run_b = experiment.run(make_config(exposure=0.005))
        with pytest.raises(ValueError, match="mixed"):
            experiment.estimate([run_a, run_b], m)
        # different seeds pool fine
        run_c = experiment.run(make_config(seed=9))
        experiment.estimate([run_a, run_c], m)

    @pytest.mark.parametrize("g, phase", [(1.0, probe.CANONICAL_PHASE), (2.0, 0.3)])
    def test_foreign_probe_matrix_rejected(self, g, phase):
        # an identity truth at 10^9 shots read not-CP (c11 = 1.62) through M at g = 1
        out = experiment.run(make_config(shots_per_channel=10**9))
        m = probe.build_matrix_programmatic(coefficients(g), phase)
        with pytest.raises(ValueError, match="not the runs'"):
            experiment.estimate(out, m)

    def test_pooled_counts_beyond_int64(self):
        # six runs of 2^63 - 1 shots at per-shot p = 0.19 on the reflected
        # channels: their pooled counts pass 2^63 - 1, where int64 wraps
        config = make_config(shots_per_channel=2**63 - 1, exposure=0.0475)
        runs = [experiment.run(replace(config, seed=s)) for s in range(6)]
        assert sum(r.detections[3] for r in runs) > 2**63
        result = experiment.estimate(runs, probe.build_matrix_programmatic(coefficients(2.0)))
        err = np.abs(result.c_hat.vector - config.true_c.vector)
        assert np.all(err <= 6.0 * result.standard_errors())
        assert result.cp_verdict in (inversion.CP, inversion.INDETERMINATE)

    def test_empty_rejected(self):
        m = probe.build_matrix_programmatic(coefficients(2.0))
        with pytest.raises(ValueError):
            experiment.estimate([], m)

    def test_near_boundary_truth_often_reads_indeterminate(self):
        # PSD truths sitting on or just inside the boundary: shot noise pushes
        # the estimated smallest eigenvalue negative in a sizable fraction of
        # runs, and the guarded verdict must then say indeterminate, not
        # not-CP.  At 20k shots per channel no eigenvalue is resolved from
        # the next, so those verdicts take the cone path.
        m = probe.build_matrix_programmatic(coefficients(2.0))
        for truth in ((1.0, 1.0, 0.05), (1.0, 0.0, 0.0)):
            counts = {"CP": 0, "indeterminate": 0, "not-CP": 0}
            paths = set()
            for s in range(40):
                config = make_config(
                    true_c=KossakowskiMatrix.diagonal(*truth), shots_per_channel=20_000,
                    seed=500 + s,
                )
                result = experiment.estimate(experiment.run(config), m)
                counts[result.cp_verdict] += 1
                paths.add(result.verdict_path)
            assert counts["indeterminate"] >= 10
            assert counts["not-CP"] == 0
            assert "cone" in paths and "delta" not in paths

    def test_estimator_unbiased_at_leading_order(self):
        # the estimate is a linear map of binomial frequencies, so its mean
        # over seeds must sit on the truth to within the error of the mean
        truth = KossakowskiMatrix.identity()
        m = probe.build_matrix_programmatic(coefficients(2.0))
        estimates = []
        for s in range(500):
            config = make_config(shots_per_channel=50_000, seed=3_000 + s)
            result = experiment.estimate(experiment.run(config), m)
            estimates.append(result.c_hat.vector)
        estimates = np.array(estimates)
        mean_err = estimates.mean(axis=0) - truth.vector
        se_of_mean = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean_err) <= 3.0 * se_of_mean)

    def test_estimator_consistency_in_n(self):
        # Frobenius error should shrink roughly like 1/sqrt(N)
        m = probe.build_matrix_programmatic(coefficients(2.0))
        errors = []
        ns = [10_000, 100_000, 1_000_000]
        for n in ns:
            errs = []
            for s in range(10):
                config = make_config(shots_per_channel=n, seed=1000 + s)
                result = experiment.estimate(experiment.run(config), m)
                errs.append(
                    np.linalg.norm(result.c_hat.matrix - config.true_c.matrix)
                )
            errors.append(np.mean(errs))
        slope = np.polyfit(np.log10(ns), np.log10(errors), 1)[0]
        assert -0.7 <= slope <= -0.3
