import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kossprobe
from kossprobe import cli, experiment, probe
from kossprobe.cli import main
from kossprobe.kossakowski import KossakowskiMatrix
from kossprobe.scattering import coefficients


def _not_json(token: str):
    raise ValueError(f"{token} is not JSON")


def strict_json(text: str):
    """The value of ``text``, which must be strict JSON: NaN and ±Infinity are refused."""
    return json.loads(text, parse_constant=_not_json)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_or_parser_exit(capsys, *argv):
    """run_cli, with the parser's refusal (SystemExit) read as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_c_file(tmp_path, entries, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


IDENTITY_C = {"c11": 1, "c12": 0, "c13": 0, "c22": 1, "c23": 0, "c33": 1}
COUNTER_C = {"c11": 1, "c12": 0, "c13": 0, "c22": 1, "c23": 0, "c33": -1}
RANK1_C = {"c11": 1, "c12": -0.5, "c13": 0.25, "c22": 0.25, "c23": -0.125, "c33": 0.0625}


# the refusal of a coupling g = 1.7e308, whose alpha_0 = -1.5 g overflows
ALPHA0_OVERFLOWS = "error: coupling g must be finite, and so must alpha_0 = -1.5 g, got 1.7e+308\n"

SIMULATE_ARGS = ("--g", "2", "--shots", "1000", "--exposure", "0.01", "--calibration", "1.0",
                 "--seed", "3", "--out", "r")


def simulate(capsys, tmp_path, *options, c=IDENTITY_C, out="r"):
    """simulate on ``c`` at SIMULATE_ARGS into tmp_path / out: (exit code, stdout, stderr).
    ``options`` follow SIMULATE_ARGS, so each one given replaces its default."""
    c_file = write_c_file(tmp_path, c, name=f"{out}.c.json")
    return run_cli(capsys, "simulate", "--c-file", c_file, *SIMULATE_ARGS, *options,
                   "--out", str(tmp_path / out))


def simulated_run(c) -> dict:
    """The run file that simulate writes for ``c`` at SIMULATE_ARGS."""
    config = experiment.ExperimentConfig(
        KossakowskiMatrix.from_dict(c), 2.0, probe.CANONICAL_PHASE, 0.01, 1.0, 1000, 3
    )
    return experiment.run(config).to_dict()


class RepeatedKey(dict):
    """An object that json.dumps writes with its first key twice."""

    def items(self):
        first, *rest = super().items()
        return [first, first, *rest]


class TestCoeffs:
    def test_zero_coupling_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--g", "0", "--output", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["schema_version"] == 1
        assert payload["t0"] == [1.0, 0.0] and payload["t1"] == [1.0, 0.0]
        assert payload["r0"] == [0.0, 0.0] and payload["r1"] == [0.0, 0.0]

    def test_physical_inputs_match_g(self, capsys):
        _, out_g, _ = run_cli(capsys, "coeffs", "--g", "1.0", "--output", "json")
        j, e, m = 1.0, 2.0, 2.0  # pi*J*rho/4 = 1 at these values, hbar = 1
        dos = np.sqrt(2.0 * m / e) / np.pi
        g = np.pi * j * dos / 4.0
        code, out_p, _ = run_cli(
            capsys, "coeffs", "--J", str(j / g), "--E", str(e), "--mass", str(m),
            "--output", "json",
        )
        assert code == 0
        a, b = strict_json(out_g), strict_json(out_p)
        assert np.allclose(a["t0"], b["t0"], atol=1e-12)
        assert strict_json(out_p)["k"] == pytest.approx(np.sqrt(2.0 * m * e))

    @pytest.mark.parametrize(
        "coupling", [["--g", "-1"], ["--J", "-1", "--E", "1", "--mass", "1"]], ids=["g", "physical"]
    )
    def test_attractive_coupling_warns_once(self, capsys, coupling):
        with pytest.warns(UserWarning, match="attractive") as record:
            code, _, _ = run_cli(capsys, "coeffs", *coupling)
        assert code == 0
        assert [Path(w.filename).name for w in record] == ["cli.py"]

    def test_missing_coupling_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "coeffs")
        assert code == 2
        assert "coupling" in err

    def test_conflicting_inputs(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--g", "1", "--J", "1", "--E", "1", "--mass", "1")
        assert code == 2

    @pytest.mark.parametrize("g", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_is_input_error(self, capsys, g):
        code, out, err = run_cli(capsys, "coeffs", f"--g={g}", "--output", "json")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("output", ["text", "csv", "json"])
    def test_coupling_whose_alpha0_overflows(self, capsys, output):
        # alpha_0 = -1.5 g overflowed: text and csv printed t0 = nan with exit 0, and json
        # exited 2 naming only the nan
        code, out, err = run_cli(capsys, "coeffs", "--g", "1.7e308", "--output", output)
        assert (code, out, err) == (2, "", ALPHA0_OVERFLOWS)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--g", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,re,im,prob"
        assert len(lines) == 5


# forward and cp-check of COUNTER_C at g = 2 and the canonical phase, in the text and CSV
# layouts, byte for byte
COUNTER_RATES = {
    "csv": "channel,rate\nP0T,-0.3999999999999999\nP1T,0.5999999999999996\n"
           "P2T,1.3999999999999992\nP0R,2.0\nP1R,2.999999999999999\nP2R,-1.0\n",
    "text": "P0T  -0.400000000000\nP1T  +0.600000000000\nP2T  +1.400000000000\n"
            "P0R  +2.000000000000\nP1R  +3.000000000000\nP2R  -1.000000000000\n",
}
COUNTER_CP_TEXT = (
    "eigenvalues: (-1.0, 1.0, 1.0)\n"
    "positive semidefinite: False\n"
    "  c11        margin +1  ok \n"
    "  c22        margin +1  ok \n"
    "  c33        margin -1  VIOLATED\n"
    "  minor_12   margin +1  ok \n"
    "  minor_13   margin -1  VIOLATED\n"
    "  minor_23   margin -1  VIOLATED\n"
    "  det        margin -1  VIOLATED\n"
)


class TestForward:
    def test_counterexample_rates(self, capsys, tmp_path):
        c_file = write_c_file(tmp_path, COUNTER_C)
        code, out, _ = run_cli(
            capsys, "forward", "--c-file", c_file, "--g", "2", "--output", "json"
        )
        assert code == 0
        rates = strict_json(out)["rates"]
        assert rates["P0T"] == pytest.approx(-0.4, abs=1e-12)
        assert rates["P2R"] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("output", ["csv", "text"])
    def test_csv_and_text_output(self, capsys, tmp_path, output):
        c_file = write_c_file(tmp_path, COUNTER_C)
        got = run_cli(capsys, "forward", "--c-file", c_file, "--g", "2", "--output", output)
        assert got == (0, COUNTER_RATES[output], "")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "forward", "--c-file", "/nope.json", "--g", "2")
        assert code == 2

    def test_bad_c_file(self, capsys, tmp_path):
        c_file = write_c_file(tmp_path, {"c11": 1.0})
        code, _, err = run_cli(capsys, "forward", "--c-file", c_file, "--g", "2")
        assert code == 2
        assert "missing" in err

    def test_coupling_whose_alpha0_overflows(self, capsys, tmp_path):
        # exited 2 with "SVD did not converge", which names nothing given
        c_file = write_c_file(tmp_path, IDENTITY_C)
        code, out, err = run_cli(capsys, "forward", "--c-file", c_file, "--g", "1.7e308")
        assert (code, out, err) == (2, "", ALPHA0_OVERFLOWS)

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_non_finite_phase(self, capsys, tmp_path, phase):
        c_file = write_c_file(tmp_path, IDENTITY_C)
        code, out, err = run_cli(
            capsys, "forward", "--c-file", c_file, "--g", "2", "--phase", phase,
            "--output", "json",
        )
        assert code == 2
        assert out == ""
        assert "phase must be finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    @pytest.mark.parametrize("c, overflowed", [
        ({**IDENTITY_C, "c11": 1.7e308, "c22": 0, "c33": 0}, "P0R, P1R"),
        ({**IDENTITY_C, "c11": 1.7e308, "c22": 1.7e308, "c33": 1.7e308},
         "P0T, P1T, P2T, P0R, P1R, P2R"),
    ], ids=["c11", "diagonal"])
    def test_refuses_overflowing_rates(self, capsys, tmp_path, output, c, overflowed):
        # json exited 2 with "Out of range float values are not JSON compliant: inf",
        # naming neither file nor channel, and text and csv printed inf with exit 0
        c_file = write_c_file(tmp_path, c)
        code, out, err = run_cli(
            capsys, "forward", "--c-file", c_file, "--g", "2", "--output", output
        )
        assert (code, out) == (2, "")
        assert err == f"error: {c_file}: C is too large: its rates {overflowed} overflow\n"


class TestBuildMatrix:
    def test_both_sources_with_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys, "build-matrix", "--g", "2", "--source", "both", "--output", "json"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["programmatic"]["det"] != 0.0
        assert len(payload["comparison"]["deviating_entries"]) == 10

    def test_csv_single_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "build-matrix", "--g", "2", "--output", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 6 and len(rows[0]) == 6
        assert float(rows[0][0]) == pytest.approx(0.1)

    def test_csv_rejects_both(self, capsys):
        code, _, _ = run_cli(
            capsys, "build-matrix", "--g", "2", "--source", "both", "--output", "csv"
        )
        assert code == 2

    def test_coupling_whose_alpha0_overflows(self, capsys):
        # exited 2 with "SVD did not converge", which names nothing given
        code, out, err = run_cli(capsys, "build-matrix", "--g", "1.7e308")
        assert (code, out, err) == (2, "", ALPHA0_OVERFLOWS)

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_non_finite_phase(self, capsys, phase):
        code, out, err = run_cli(capsys, "build-matrix", "--g", "2", "--phase", phase)
        assert code == 2
        assert out == ""
        assert "phase must be finite" in err

    @pytest.mark.parametrize("source", ["appendix", "both"])
    @pytest.mark.parametrize("phase", ["0.3", "nan"])
    def test_appendix_needs_canonical_phase(self, capsys, source, phase):
        code, out, err = run_cli(
            capsys, "build-matrix", "--g", "2", "--source", source, "--phase", phase
        )
        assert code == 2
        assert out == ""
        assert "appendix table exists only at theta = pi/2" in err

    def test_singular_matrix_has_a_null_condition_number(self, capsys):
        # M has a zero singular value at g = 0, theta = 0: its infinite condition number
        # made json exit 2 with "Out of range float values are not JSON compliant: inf"
        code, out, _ = run_cli(
            capsys, "build-matrix", "--g", "0", "--phase", "0", "--output", "json"
        )
        assert code == 0
        assert strict_json(out)["programmatic"]["condition_number"] is None
        code, out, _ = run_cli(capsys, "build-matrix", "--g", "0", "--phase", "0")
        assert code == 0 and "cond = inf" in out

    @pytest.mark.parametrize("source", ["appendix", "both"])
    def test_appendix_default_phase(self, capsys, source):
        code, out, _ = run_cli(
            capsys, "build-matrix", "--g", "2", "--source", source, "--output", "json"
        )
        assert code == 0
        assert strict_json(out)["appendix"]["phase"] == probe.CANONICAL_PHASE


class TestCpCheck:
    def test_counterexample(self, capsys, tmp_path):
        c_file = write_c_file(tmp_path, COUNTER_C)
        code, out, _ = run_cli(
            capsys, "cp-check", "--c-file", c_file, "--output", "json"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["psd"] is False
        assert payload["eigenvalues"] == [-1.0, 1.0, 1.0]
        assert payload["conditions"]["c33"]["ok"] is False

    def test_text_output(self, capsys, tmp_path):
        c_file = write_c_file(tmp_path, COUNTER_C)
        got = run_cli(capsys, "cp-check", "--c-file", c_file, "--output", "text")
        assert got == (0, COUNTER_CP_TEXT, "")

    def test_refuses_overflowing_minors(self, capsys, tmp_path):
        # c12 * c12 overflows the 2x2 minor and the determinant to -inf: refused,
        # naming the file and the conditions
        c_file = write_c_file(tmp_path, {**RANK1_C, "c12": 1e308})
        code, out, err = run_cli(capsys, "cp-check", "--c-file", c_file, "--output", "json")
        assert (code, out) == (2, "")
        assert err == f"error: {c_file}: C is too large: its CP conditions minor_12, det overflow\n"

    def test_tolerance_flag(self, capsys, tmp_path):
        # a tiny negative eigenvalue is not rounding at the scale of C, and
        # there is no tolerance to set
        c_file = write_c_file(
            tmp_path, {**IDENTITY_C, "c33": -1e-8}, name="c2.json"
        )
        code, out, _ = run_cli(capsys, "cp-check", "--c-file", c_file, "--output", "json")
        assert code == 0
        assert strict_json(out)["psd"] is False
        assert strict_json(out)["tolerance"] == 8 * np.finfo(float).eps
        with pytest.raises(SystemExit) as excinfo:
            main(["cp-check", "--c-file", c_file, "--tolerance", "1e-4"])
        assert excinfo.value.code == 2


class TestSimulateAndInvert:
    def test_pipeline(self, capsys, tmp_path):
        code, out, _ = simulate(capsys, tmp_path, "--shots", "1000000", "--seed", "7", out="run")
        assert code == 0
        written = strict_json(out)["written"]
        assert (tmp_path / "run" / "run.json").exists()

        code, out, _ = run_cli(
            capsys, "invert", "--rates", written[0], "--g", "2", "--output", "json"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["cp_verdict"] in ("CP", "indeterminate")
        assert payload["cp_report"]["psd"] is (payload["cp_verdict"] == "CP")
        for key, value in payload["c_hat"].items():
            target = IDENTITY_C[key]
            assert abs(value - target) < 0.1

        # close the loop: cp-check the estimate itself
        estimate_file = write_c_file(tmp_path, payload["c_hat"], name="c_hat.json")
        code, out, _ = run_cli(
            capsys, "cp-check", "--c-file", estimate_file, "--output", "json"
        )
        assert code == 0
        assert strict_json(out)["psd"] is True

    def test_cp_report_agrees_with_the_verdict_at_the_rounding_edge(self, capsys, tmp_path):
        # the estimate's smallest eigenvalue lies within an ulp of C's entries of
        # -rounding_tolerance at cond(M): the verdict and cp_report read one eigh of one
        # matrix against one tolerance, so they agree however the last bits fall
        rates = [4.220598435133103, 4.941141116183993, 3.307178618159048,
                 2.591998314799737, 8.663870824108967, 15.488486683019108]
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": rates}))
        code, out, _ = run_cli(
            capsys, "invert", "--rates", str(rates_file), "--g", "2", "--output", "json"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["cp_report"]["psd"] is (payload["cp_verdict"] == "CP")

    def test_simulate_deterministic(self, capsys, tmp_path):
        for sub in ("a", "b"):
            simulate(capsys, tmp_path, out=sub)
        assert (tmp_path / "a/run.json").read_bytes() == (tmp_path / "b/run.json").read_bytes()
        assert (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()

    def test_simulate_guard_violation(self, capsys, tmp_path):
        code, _, err = simulate(capsys, tmp_path, "--exposure", "0.2", out="x")
        assert code == 2
        assert "first-order" in err

    def test_simulate_refuses_a_nan_probability_by_name(self, capsys, tmp_path):
        huge = {**IDENTITY_C, "c11": 1.7e308, "c12": 1.7e308, "c22": 1.7e308, "c33": 0}
        code, out, err = simulate(capsys, tmp_path, c=huge, out="x")
        assert (code, out) == (2, "")
        assert "first-order" in err and "P1R (p = nan)" in err

    def test_invert_plain_rates_file(self, capsys, tmp_path):
        rates = probe.forward(
            KossakowskiMatrix.diagonal(1.0, 1.0, -1.0), coefficients(2.0)
        ).rates
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": list(rates)}))
        code, out, _ = run_cli(
            capsys, "invert", "--rates", str(rates_file), "--g", "2",
            "--project-psd", "--output", "json",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["cp_verdict"] == "not-CP"
        assert payload["c_hat"]["c33"] == pytest.approx(-1.0, abs=1e-9)
        assert payload["c_hat_projected"]["c33"] == pytest.approx(0.0, abs=1e-9)

    def test_invert_csv_rates_file(self, capsys, tmp_path):
        rates_file = tmp_path / "rates.csv"
        lines = ["label,rate"] + [
            f"{label},0.0" for label in ("P0T", "P1T", "P2T", "P0R", "P1R", "P2R")
        ]
        rates_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "invert", "--rates", str(rates_file), "--g", "2", "--output", "json"
        )
        assert code == 0
        assert all(v == 0.0 for v in strict_json(out)["c_hat"].values())

    def test_invert_refuses_singular(self, capsys, tmp_path):
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps([0.0] * 6))
        code, _, err = run_cli(
            capsys, "invert", "--rates", str(rates_file), "--g", "0"
        )
        assert code == 3
        assert "condition" in err

    def test_other_arithmetic_errors_propagate(self, monkeypatch):
        def overflow(args):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(cli, "_cmd_coeffs", overflow)
        with pytest.raises(FloatingPointError, match="overflow"):
            main(["coeffs", "--g", "1"])

    def test_invert_g_mismatch_with_run(self, capsys, tmp_path):
        # M is built at --g, and estimate refuses it as not the run's
        simulate(capsys, tmp_path)
        code, out, err = run_cli(
            capsys, "invert", "--rates", str(tmp_path / "r/run.json"), "--g", "3"
        )
        assert (code, out) == (2, "")
        assert err == ("error: probe matrix at (g, phase) = (3.0, 1.5707963267948966) is not "
                       "the runs' (2.0, 1.5707963267948966)\n")

    def test_invert_phase_mismatch_with_run(self, capsys, tmp_path):
        # M is built at --phase: estimate refuses another phase than the run's, and
        # the probe matrix a phase that is not finite, as for a rates file
        simulate(capsys, tmp_path)
        run_file = str(tmp_path / "r/run.json")
        for phase, refusal in [
            ("0.3", "probe matrix at (g, phase) = (2.0, 0.3) is not the runs' (2.0, "),
            ("nan", "probe phase must be finite, got nan"),
        ]:
            code, out, err = run_cli(
                capsys, "invert", "--rates", run_file, "--g", "2", "--phase", phase
            )
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {refusal}")
        # the run's own phase, given, left out or within estimate's 1e-12 of it, is accepted
        near = repr(probe.CANONICAL_PHASE + 1e-13)
        for flag in ([], ["--phase", repr(probe.CANONICAL_PHASE)], ["--phase", near]):
            code, _, _ = run_cli(capsys, "invert", "--rates", run_file, "--g", "2", *flag)
            assert code == 0

    @pytest.mark.parametrize(
        "text, line",
        [
            ("label,rate\nP0T\n", "line 2"), ("", "empty"), ("\n\n", "empty"),
            # a sigma under a 'label,rate' header is refused, not dropped
            pytest.param("label,rate\n" + "".join(f"{label},0.0,0.05\n" for label in probe.CHANNELS),
                         "line 2: expected 2 fields", id="extra-field"),
            # a third column read as the sigmas whatever its name, a fourth dropped
            pytest.param("label,rate,weight\n" + "".join(f"{label},0.0,0.05\n" for label in probe.CHANNELS),
                         "header 'label,rate,weight'", id="weight-header"),
            pytest.param("label,rate,sigma,note\n"
                         + "".join(f"{label},0.0,0.05,x\n" for label in probe.CHANNELS),
                         "header 'label,rate,sigma,note'", id="note-header"),
        ],
    )
    def test_invert_malformed_csv(self, capsys, tmp_path, text, line):
        rates_file = tmp_path / "rates.csv"
        rates_file.write_text(text)
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert line in err

    @pytest.mark.parametrize(
        "rows, named",
        [(["P0T,0.0"], "line 8: P0T repeats"), (["bogus,1"], "line 8: unknown channel 'bogus'")],
        ids=["repeated", "unknown"],
    )
    def test_invert_csv_refuses_extra_rows(self, capsys, tmp_path, rows, named):
        # each channel once: a repeated row is not read as overriding the
        # first, nor an unknown label dropped
        lines = ["label,rate"] + [f"{label},0.0" for label in probe.CHANNELS] + rows
        rates_file = tmp_path / "rates.csv"
        rates_file.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert named in err

    def test_invert_csv_names_missing_sigma(self, capsys, tmp_path):
        lines = ["label,rate,sigma"] + [f"{label},0.0,0.01" for label in probe.CHANNELS]
        lines[2] = "P1T,0.0"
        rates_file = tmp_path / "rates.csv"
        rates_file.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert "line 3: P1T has no sigma" in err
        # with every sigma given, the same file inverts
        lines[2] = "P1T,0.0,0.01"
        rates_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 0
        assert strict_json(out)["covariance"][0][0] > 0.0

    def test_invert_refuses_repeated_run_channel(self, capsys, tmp_path):
        # a seventh P0T entry with three times the count is refused: read as
        # the channel's count, it would put c11 far from the truth's 1
        simulate(capsys, tmp_path)
        run_file = tmp_path / "r" / "run.json"
        run = strict_json(run_file.read_text())
        extra = dict(run["channels"][0], k=3 * run["channels"][0]["k"])
        run["channels"].append(extra)
        run_file.write_text(json.dumps(run))
        code, out, err = run_cli(capsys, "invert", "--rates", str(run_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {run_file}: run channels length 7 differs from 6")

    def test_invert_refuses_reversed_run_channels(self, capsys, tmp_path):
        # channels come in simulate's order only: reversed, each count is read by
        # position, and the first entry's label is not the first channel's
        simulate(capsys, tmp_path)
        run_file = tmp_path / "r" / "run.json"
        run = strict_json(run_file.read_text())
        run["channels"].reverse()
        run_file.write_text(json.dumps(run))
        code, out, err = run_cli(capsys, "invert", "--rates", str(run_file), "--g", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {run_file}: run channels entry 1 label 'P2R' differs "
                              f'from "P0T"')

    @pytest.mark.parametrize(
        "flag",
        [
            ["--bootstrap", "0"], ["--bootstrap", "1"], ["--z", "-1"], ["--z", "nan"],
            ["--bootstrap", "1000001"],
        ],
    )
    def test_invert_bad_verdict_settings(self, capsys, tmp_path, flag):
        # a near-boundary estimate (indeterminate by default): a bad --z is
        # refused, and so is --bootstrap, which invert no longer takes
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.01), coefficients(2.0))
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": list(rates.rates), "sigmas": [0.05] * 6}))
        code, out, _ = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 0
        assert strict_json(out)["cp_verdict"] == "indeterminate"
        code, out, err = run_cli_or_parser_exit(
            capsys, "invert", "--rates", str(rates_file), "--g", "2", *flag
        )
        assert code == 2
        assert out == ""
        # a refused option is not the rates file's: its refusal names no file
        assert flag[0].lstrip("-") in err and str(rates_file) not in err

    def test_invert_refuses_unknown_json_key(self, capsys, tmp_path):
        # "sigma" for "sigmas": read as no sigmas, diag(1, 1, -0.01) would read
        # not-CP on the rates alone, where its sigmas make it indeterminate
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.01), coefficients(2.0))
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": list(rates.rates), "sigma": [0.05] * 6}))
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert "unknown key 'sigma'" in err and str(rates_file) in err

    @pytest.mark.parametrize("kind", ["json", "csv"])
    def test_invert_refuses_sigmas_twice(self, capsys, tmp_path, kind):
        # sigmas come from the rates file alone: a second source, the retired
        # --sigmas, once replaced the file's 0.05 with zeros, and diag(1, 1, -0.01)
        # read not-CP where its sigmas make it indeterminate
        rates = probe.forward(KossakowskiMatrix.diagonal(1.0, 1.0, -0.01), coefficients(2.0))
        rates_file = tmp_path / f"rates.{kind}"
        if kind == "json":
            rates_file.write_text(json.dumps({"rates": list(rates.rates), "sigmas": [0.05] * 6}))
        else:
            rows = [f"{label},{rate!r},0.05" for label, rate in rates.by_channel().items()]
            rates_file.write_text("\n".join(["label,rate,sigma", *rows]) + "\n")
        code, out, _ = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 0
        assert strict_json(out)["cp_verdict"] == "indeterminate"
        sigmas_file = tmp_path / "zeros.json"
        sigmas_file.write_text(json.dumps([0.0] * 6))
        code, out, err = run_cli_or_parser_exit(
            capsys, "invert", "--rates", str(rates_file), "--g", "2", "--sigmas", str(sigmas_file)
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --sigmas" in err

    @pytest.mark.parametrize("kind", ["json", "csv"])
    def test_invert_negative_sigma_names_the_file_and_channel(self, capsys, tmp_path, kind):
        rates_file = tmp_path / f"rates.{kind}"
        sigmas = [0.01, -0.01, 0.01, 0.01, -1e-300, 0.01]
        if kind == "json":
            rates_file.write_text(json.dumps({"rates": [0.1] * 6, "sigmas": sigmas}))
        else:
            rows = [f"{label},0.1,{s!r}" for label, s in zip(probe.CHANNELS, sigmas)]
            rates_file.write_text("\n".join(["label,rate,sigma", *rows]) + "\n")
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert (code, out) == (2, "")
        assert err == (f"error: {rates_file}: sigmas must be nonnegative, "
                       "got {'P1T': -0.01, 'P1R': -1e-300}\n")

    def test_forward_then_invert_boundary_truth_is_cp(self, capsys, tmp_path):
        # rank 1, so the exact estimate's smallest eigenvalue is zero up to
        # rounding; without --sigmas that must not read not-CP
        c_file = write_c_file(tmp_path, {"c11": 1.0, "c12": -0.5, "c13": 0.25,
                                         "c22": 0.25, "c23": -0.125, "c33": 0.0625})
        code, out, _ = run_cli(capsys, "forward", "--c-file", c_file, "--g", "2", "--output", "json")
        assert code == 0
        rates = strict_json(out)["rates"]
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps([rates[label] for label in probe.CHANNELS]))
        code, out, _ = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 0
        payload = strict_json(out)
        assert payload["cp_verdict"] == "CP"
        assert payload["margin"] >= 0.0
        assert payload["margin_sigma"] is None
        assert payload["cp_report"]["psd"] is True

    def test_invert_tiny_counterexample_report_agrees(self, capsys, tmp_path):
        # the counterexample at 1e-11 is not rounding: the report, at the
        # verdict's rule, reads not PSD next to not-CP
        rates = probe.forward(KossakowskiMatrix.diagonal(1e-11, 1e-11, -1e-11), coefficients(2.0))
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps(list(rates.rates)))
        code, out, _ = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 0
        payload = strict_json(out)
        assert payload["cp_verdict"] == "not-CP"
        assert payload["cp_report"]["psd"] is False

    @pytest.mark.parametrize(
        "truth, path, draws",
        [
            ((1.0, 1.0, 1.0), "closed", 0),
            ((1.0, 1.0, -1.0), "delta", 0),
            ((1.0, 0.0, -0.01), "cone", 0),
        ],
    )
    def test_invert_reports_verdict_path(self, capsys, tmp_path, truth, path, draws):
        # the verdict's path, its draws (none on any path), its p-value and the
        # cone's statistic are the only keys beyond the estimate's
        rates = probe.forward(KossakowskiMatrix.diagonal(*truth), coefficients(2.0))
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": list(rates.rates), "sigmas": [0.05] * 6}))
        code, out, _ = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 0
        payload = strict_json(out)
        assert set(payload) == {
            "schema_version", "c_hat", "covariance", "residual_norm", "cp_verdict", "margin",
            "margin_sigma", "condition_number", "cp_report", "verdict_path", "draws",
            "p_value", "cone_statistic",
        }
        assert payload["verdict_path"] == path and payload["draws"] == draws
        assert (payload["margin_sigma"] is None) == (path == "closed")
        assert (payload["p_value"] is None) == (path == "closed")
        assert (payload["cone_statistic"] is None) == (path != "cone")

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda run: run["config"].update(g=None), "g"),
            (lambda run: run.update(channels=5), "channels"),
            (lambda run: run.update(flagged_channels=7), "flagged_channels"),
            (lambda run: run["config"].update(shots_per_channel=1.5), "shots_per_channel"),
            (lambda run: run["channels"][0].update(k="3"), "k"),
            # in range as well as of the right type: each was misread or misreported
            (lambda run: run["config"].update(calibration=2.0), "calibration"),
            (lambda run: run["config"].update(exposure=-0.01), "exposure"),
            (lambda run: run["config"].update(exposure=0), "exposure"),
            (lambda run: run["config"].update(shots_per_channel=2**70), "shots_per_channel"),
            (lambda run: [ch.update(N=10) for ch in run["channels"]], "N"),
            # a label the identity's config does not drive negative
            (lambda run: run.update(flagged_channels=["P1T"]), "flagged_channels"),
            # each field is checked against the run's own serialisation: an edited
            # exposure was inverted, to a C scaled by half, with exit 0
            (lambda run: run["config"].update(exposure=0.02), "config_hash"),
            (lambda run: run.update(schema_version=2), "schema_version"),
            (lambda run: run.update(schema_version=True), "schema_version"),
            (lambda run: run.update(config_hash="0" * 64), "config_hash"),
            (lambda run: run["channels"][2].update(p_hat=0.5), "p_hat"),
            (lambda run: run.update(comment="edited"), "comment"),
            (lambda run: run["config"].update(note="edited"), "note"),
            # the run of the counterexample diag(1, 1, -1), which flags P0T and P2R, with its
            # flags emptied
            (lambda run: run.update(simulated_run(COUNTER_C), flagged_channels=[]),
             "flagged_channels"),
            # five channels: five counts for six channels
            (lambda run: run["channels"].pop(), "detections"),
        ],
        ids=["g-null", "channels-number", "flagged-number", "shots-fraction", "k-string",
             "calibration-2", "exposure-negative", "exposure-0", "shots-2**70", "N-mismatch",
             "flagged-not-derived", "exposure-edited", "schema-2", "schema-bool", "hash-edited",
             "p_hat-edited", "unknown-key", "unknown-config-key", "counterexample-flags-emptied",
             "channel-dropped"],
    )
    def test_invert_wrong_typed_run_file(self, capsys, tmp_path, edit, named):
        simulate(capsys, tmp_path)
        run_file = tmp_path / "r" / "run.json"
        run = strict_json(run_file.read_text())
        edit(run)
        run_file.write_text(json.dumps(run))
        code, out, err = run_cli(capsys, "invert", "--rates", str(run_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(run_file) in err and f" {named} " in err

    def test_simulate_and_invert_refuse_an_underflowing_eta_t(self, capsys, tmp_path):
        # calibration and exposure 1e-200 are each in range, but their product is 0.0:
        # simulate wrote six zero counts, and invert raised ZeroDivisionError (exit 1)
        message = ("calibration * exposure must be positive, got 1e-200 * 1e-200, "
                   "which underflows to 0.0\n")
        code, out, err = simulate(capsys, tmp_path, "--exposure", "1e-200",
                                  "--calibration", "1e-200")
        assert (code, out, err) == (2, "", f"error: {message}")
        assert not (tmp_path / "r").exists()
        simulate(capsys, tmp_path)
        run_file = tmp_path / "r" / "run.json"
        run = strict_json(run_file.read_text())
        run["config"].update(exposure=1e-200, calibration=1e-200)
        run_file.write_text(json.dumps(run))
        code, out, err = run_cli(capsys, "invert", "--rates", str(run_file), "--g", "2")
        assert (code, out, err) == (2, "", f"error: {run_file}: {message}")

    @pytest.mark.parametrize("truth", [(1.0, 1.0, -0.01), (1.0, 1.0, 1.0)])
    def test_invert_negative_seed(self, capsys, tmp_path, truth):
        # invert takes no --seed (no verdict draws), near the boundary or not
        rates = probe.forward(KossakowskiMatrix.diagonal(*truth), coefficients(2.0))
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": list(rates.rates), "sigmas": [0.05] * 6}))
        code, out, err = run_cli_or_parser_exit(
            capsys, "invert", "--rates", str(rates_file), "--g", "2", "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_invert_nan_coupling_with_run(self, capsys, tmp_path):
        simulate(capsys, tmp_path)
        code, out, err = run_cli(
            capsys, "invert", "--rates", str(tmp_path / "r/run.json"), "--g", "nan"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_invert_non_finite_rates_json(self, capsys, tmp_path, bad):
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps([0.1, bad, 0.0, 0.0, 0.0, 0.0]))
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 2
        assert out == ""
        assert "rates must be finite" in err

    def test_invert_nan_sigma(self, capsys, tmp_path):
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps({"rates": [0.0] * 6, "sigmas": [0.01] * 5 + [float("nan")]}))
        code, _, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert code == 2
        assert "sigmas must be finite" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("payload, refusal", [
        ({"rates": [1, 1, 1, 1, 1, 1], "sigmas": [1e308, 1, 1, 1, 1, 1]}, "rates or sigmas too large"),
        ({"rates": [1e308, 1, 1, 1, 1, 1], "sigmas": [0, 0, 0, 0, 0, 0]}, "rates or sigmas too large"),
        ({"rates": [1e120, 1, 1, 1, 1, 1]}, "C is too large: its CP conditions det overflow"),
        ({"rates": [1.7e308] * 6}, "rates or sigmas too large"),
    ], ids=["huge sigma", "huge rate", "huge estimate", "overflowing estimate"])
    def test_invert_refuses_an_overflowing_estimate(self, capsys, tmp_path, payload, refusal):
        # the first two exited 0 with Infinity and NaN tokens in the covariance, p_value and
        # residual; the third has a finite estimate whose CP determinant overflows; the
        # fourth's estimate overflows, and was refused as "Kossakowski entries", with no path
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "invert", "--rates", str(rates_file), "--g", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {rates_file}: {refusal}")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, name, payload", [
        ("invert", "rates.json", {"rates": [1, 1, 1, 1, 1, 1], "sigmas": [1e308, 1, 1, 1, 1, 1]}),
        ("invert", "rates.json", {"rates": [1e308, 1, 1, 1, 1, 1], "sigmas": [0, 0, 0, 0, 0, 0]}),
        ("invert", "rates.json", {"rates": [1e120, 1, 1, 1, 1, 1]}),
        ("invert", "rates.json", {"rates": [1.7e308] * 6}),
        ("cp-check", "c.json", {**RANK1_C, "c12": 1e308}),
    ], ids=["huge sigma", "huge rate", "huge estimate", "overflowing estimate", "huge c12"])
    def test_an_overflow_prints_one_error_line(self, capsys, tmp_path, command, name, payload):
        # under "error", a numpy RuntimeWarning raises through main
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        flag = "--rates" if command == "invert" else "--c-file"
        argv = [command, flag, str(path)] + (["--g", "2"] if command == "invert" else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_invert_non_finite_phase(self, capsys, tmp_path, phase):
        rates_file = tmp_path / "rates.json"
        rates_file.write_text(json.dumps([1.0] * 6))
        code, out, err = run_cli(
            capsys, "invert", "--rates", str(rates_file), "--g", "2", "--phase", phase
        )
        assert code == 2
        assert out == ""
        assert "phase must be finite" in err

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_simulate_non_finite_phase(self, capsys, tmp_path, phase):
        code, out, err = simulate(capsys, tmp_path, "--phase", phase)
        assert code == 2
        assert out == ""
        assert "phase must be finite" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("exposure", ["nan", "inf"])
    def test_simulate_non_finite_exposure(self, capsys, tmp_path, exposure):
        code, out, err = simulate(capsys, tmp_path, "--exposure", exposure)
        assert code == 2
        assert out == ""
        assert "exposure must be positive and finite" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--shots", str(10**30), "shots_per_channel"), ("--shots", str(2**63), "shots_per_channel"),
         ("--seed", "-1", "seed")],
    )
    def test_simulate_out_of_range_count_or_seed(self, capsys, tmp_path, flag, value, field):
        # Generator.binomial takes a C long: a larger shot count is refused
        # with the field's name, not an OverflowError traceback
        code, out, err = simulate(capsys, tmp_path, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "r").exists()


C_FILE_WITH_C11 = '{{"c11": {}, "c12": 0, "c13": 0, "c22": 1, "c23": 0, "c33": 1}}'
C_COMMANDS = (("cp-check", ()), ("forward", ("--g", "2")), ("simulate", SIMULATE_ARGS))
IDENTITY_TEXT = C_FILE_WITH_C11.format(1)
INVERT = ("invert", "--rates", "r.json", "--g", "2")
INVERT_CSV = ("invert", "--rates", "r.csv", "--g", "2")
ZEROS_CSV = "label,rate\n" + "".join(f"{label},0\n" for label in probe.CHANNELS)
NOT_UTF_8 = b"\xb5"  # a micro sign in Latin-1
NOT_RATES = ("r.json: not a rates file: expected a JSON array, an object with 'rates', a rates "
             "CSV or a simulate run file")


def run_with_repeated_config_key() -> str:
    run = simulated_run(IDENTITY_C)
    return json.dumps({**run, "config": RepeatedKey(run["config"])})


@pytest.mark.parametrize(
    "files, argv, named",
    [
        pytest.param({}, ["invert", "--rates", "f.json", "--g", "2"], "f.json: rates",
                     id="forward-output-as-rates"),
        pytest.param({"r.json": '{"rates": [1, 1, 1, 1, 1, 1], "sigmas": {"P0T": 1}}'},
                     INVERT, "r.json: sigmas", id="sigmas-object-in-rates-file"),
        pytest.param({"r.json": '["1", "1", "1", "1", "1", "1"]'}, INVERT, "r.json",
                     id="rates-strings"),
        pytest.param({"r.json": "[1, 1, 1, 1, 1, null]"}, INVERT, "r.json", id="rates-null"),
        pytest.param({"r.json": f"[1, 1, 1, 1, 1, 1{'0' * 400}]"}, INVERT, "r.json",
                     id="rates-huge-int"),
        pytest.param({"r.json": '{"rates": [1, 1, 1, 1, 1, true]}'}, INVERT, "r.json: rates",
                     id="rates-bool"),
        *(
            pytest.param({"c.json": C_FILE_WITH_C11.format(value)},
                         [command, "--c-file", "c.json", *extra], "c11", id=f"{command}-c11-{value}")
            for value in ("null", "NaN", "Infinity")
            for command, extra in C_COMMANDS
        ),
        pytest.param({"c.json": "5"}, ["cp-check", "--c-file", "c.json"], "c.json",
                     id="c-file-number"),
        # each of these read the identity, with exit 0: the lower triangle next to the
        # upper one, an unknown key, and the first of a repeated key
        *(
            pytest.param({"c.json": IDENTITY_TEXT[:-1] + ', "c32": 5, "c21": 0.5}'},
                         [command, "--c-file", "c.json", *extra], "c.json: unknown key 'c32'",
                         id=f"{command}-lower-triangle")
            for command, extra in C_COMMANDS
        ),
        pytest.param({"c.json": IDENTITY_TEXT[:-1] + ', "schema_version": 1}'},
                     ["cp-check", "--c-file", "c.json"], "c.json: unknown key 'schema_version'",
                     id="c-file-unknown-key"),
        pytest.param({"c.json": '{"c33": -1, ' + IDENTITY_TEXT[1:]},
                     ["cp-check", "--c-file", "c.json"], "c.json: repeated key 'c33'",
                     id="c-file-repeated-key"),
        pytest.param({"r.json": '{"rates": [1, 1, 1, 1, 1, 1], "rates": [0, 0, 0, 0, 0, 0]}'},
                     INVERT, "r.json: repeated key 'rates'", id="rates-repeated-key"),
        pytest.param({"r.json": run_with_repeated_config_key()}, INVERT,
                     "r.json: repeated key 'true_c'", id="run-config-repeated-key"),
        # a truncated file and a Latin-1 file: each refusal named no file
        pytest.param({"c.json": IDENTITY_TEXT[:20]}, ["cp-check", "--c-file", "c.json"],
                     "c.json: Expecting", id="c-file-truncated"),
        pytest.param({"c.json": NOT_UTF_8 + IDENTITY_TEXT.encode()},
                     ["cp-check", "--c-file", "c.json"], "c.json: 'utf-8' codec",
                     id="c-file-not-utf-8"),
        pytest.param({"r.json": "[1, 1, 1"}, INVERT, "r.json: Expecting", id="rates-truncated"),
        pytest.param({"r.json": NOT_UTF_8 + b"[1, 1, 1, 1, 1, 1]"}, INVERT,
                     "r.json: 'utf-8' codec", id="rates-not-utf-8"),
        # float() read 1_0 as 10 and .5 as 0.5; neither is a JSON number
        *(
            pytest.param({"r.csv": ZEROS_CSV.replace("P1T,0", f"P1T,{token}")}, INVERT_CSV,
                         "r.csv: rates csv line 3", id=f"csv-rate-{token}")
            for token in ("1_0", ".5")
        ),
        pytest.param({"r.csv": "".join(ZEROS_CSV.splitlines(True)[i] for i in (0, 1, 2, 3, 5))},
                     INVERT_CSV, "r.csv: rates csv missing channels: ['P0R', 'P2R']",
                     id="csv-missing-channels"),
        *(
            pytest.param({"r.json": text}, INVERT, NOT_RATES, id=f"not-rates-{kind}")
            for kind, text in (("object", '{"counts": [1, 2]}'), ("number", "3"),
                               ("string", '"rates"'), ("null", "null"))
        ),
    ],
)
def test_malformed_json_input_exits_2(capsys, tmp_path, monkeypatch, files, argv, named):
    monkeypatch.chdir(tmp_path)
    if "f.json" in argv:  # the channel-keyed output of forward is not a rates file
        write_c_file(tmp_path, IDENTITY_C)
        _, out, _ = run_cli(capsys, "forward", "--c-file", "c.json", "--g", "2", "--output", "json")
        Path("f.json").write_text(out)
    for name, text in files.items():
        Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert not Path("r").exists()


# single-field mutations of an input file: a leaf of another type or value, a leaf
# deleted, an unknown key added to an object, or an object's first key repeated
OTHER_TYPES = ("x", True, None, [], {})
OTHER_VALUES = (1e308, -1, 0)


def json_paths(value, at=()):
    """The paths (key tuples) of a JSON value's leaves, and of its objects."""
    if not isinstance(value, (dict, list)):
        return [at], []
    leaves, objects = [], [at] if isinstance(value, dict) else []
    for key, child in value.items() if isinstance(value, dict) else enumerate(value):
        child_leaves, child_objects = json_paths(child, (*at, key))
        leaves += child_leaves
        objects += child_objects
    return leaves, objects


def mutations(tree):
    leaves, objects = json_paths(tree)
    leaf, an_object = st.sampled_from(leaves), st.sampled_from(objects)
    return st.one_of(
        st.tuples(st.just("type"), leaf, st.sampled_from(OTHER_TYPES)),
        st.tuples(st.just("value"), leaf, st.sampled_from(OTHER_VALUES)),
        st.tuples(st.just("delete"), leaf, st.none()),
        st.tuples(st.sampled_from(["unknown key", "repeated key"]), an_object, st.none()),
    )


def mutated(tree, kind, path, new):
    tree = copy.deepcopy(tree)
    if not path:  # the root object
        return RepeatedKey(tree) if kind == "repeated key" else {**tree, "extra": 0}
    *above, last = path
    parent = tree
    for key in above:
        parent = parent[key]
    if kind == "delete":
        del parent[last]
    elif kind == "unknown key":
        parent[last]["extra"] = 0
    elif kind == "repeated key":
        parent[last] = RepeatedKey(parent[last])
    else:
        parent[last] = new
    return tree


def rates_csv(rows: dict) -> str:
    """A rates CSV of {label: {"rate": ..., "sigma": ...}}: a row's fields in its order (items(),
    so a RepeatedKey row repeats one), and a row that is not an object as its one field."""
    lines = ["label,rate,sigma"]
    for label, row in rows.items():
        fields = [value for _, value in row.items()] if isinstance(row, dict) else [row]
        lines.append(",".join([label, *map(json.dumps, fields)]))
    return "\n".join(lines) + "\n"


def mutation_input(name: str):
    """(the file's content as a JSON tree, the CLI call that reads it, the file's writer)."""
    rates = probe.forward(KossakowskiMatrix.from_dict(RANK1_C), coefficients(2.0)).by_channel()
    invert = ["invert", "--g", "2", "--rates"]
    return {
        "c.json": (RANK1_C, ["cp-check", "--output", "json", "--c-file"], json.dumps),
        "rates.json": ({"rates": list(rates.values()), "sigmas": [0.05] * 6}, invert, json.dumps),
        "rates.csv": ({label: {"rate": r, "sigma": 0.05} for label, r in rates.items()},
                      invert, rates_csv),
        "run.json": (simulated_run(IDENTITY_C), invert, json.dumps),
    }[name]


# a rate, sigma or C entry of 1e308 can overflow the inversion's products or C's minors
# (exit 2, and never a NaN or Infinity token with exit 0), and a run's g of -1 warns
# of an attractive coupling before its stale hash is refused
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore:attractive coupling:UserWarning")
@pytest.mark.parametrize("name", ["c.json", "rates.json", "rates.csv", "run.json"])
def test_single_field_mutations_are_refused_by_file(tmp_path, name):
    # an unknown or repeated C entry and a repeated key in a rates or run file were
    # read with exit 0, and a rates CSV's refusals did not name the file
    tree, argv, write = mutation_input(name)
    path = tmp_path / name

    def call(content):
        path.write_text(write(content))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        return code, out.getvalue(), err.getvalue()

    code, unmutated_out, _ = call(tree)
    assert code == 0
    strict_json(unmutated_out)

    @settings(max_examples=60, deadline=None)
    @given(mutation=mutations(tree))
    def refused(mutation):
        code, out, err = call(mutated(tree, *mutation))
        if mutation[0] == "value" and name != "run.json":
            assert code in (0, 2)
            if code == 0:
                strict_json(out)
            else:
                assert out == "" and err.startswith("error: ")
        elif code != 2 or out or not err.startswith(f"error: {path}: "):
            # a run file is its own serialisation: only its own value reads as it
            assert mutation[0] == "value" and (code, out) == (0, unmutated_out), (code, err)

    refused()


class TestDemoNegative:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "demo-negative", "--g", "2", "--output", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["verdict"] == "not completely positive"
        assert payload["negative_transmitted_rate"] == pytest.approx(-0.4, abs=1e-12)
        assert payload["positive_semidefinite"] is False
        assert payload["single_qubit_evolution"]["positive"] is True
        assert payload["lifted_evolution"]["min_eigenvalue"] < -1e-6

    def test_text_mentions_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "demo-negative", "--output", "text")
        assert code == 0
        assert "not completely positive" in out
        assert "-0.4" in out


class TestOracle:
    def test_report_ok(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "oracle", "--trials", "5", "--out", str(out_path), "--output", "json"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["ok"] is True
        assert strict_json(out_path.read_text())["ok"] is True

    def test_a_deviating_report_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr("kossprobe.oracle.adjudicate",
                            lambda trials: {"ok": False, "trials": trials})
        code, out, err = run_cli(capsys, "oracle", "--trials", "2")
        assert (code, err) == (4, "closed forms deviate from the brute-force oracle\n")
        assert strict_json(out) == {"schema_version": cli.SCHEMA_VERSION, "ok": False, "trials": 2}

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_refuses_trials_below_one(self, capsys, trials):
        code, out, err = run_cli(capsys, "oracle", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "trials must be at least 1" in err


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's kossprobe."""
    src = str(Path(kossprobe.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(script: str):
    """Run ``script`` in a fresh interpreter on this checkout; its stdout, parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return strict_json(proc.stdout)


# Runs CLI calls in order, recording the exit code and the kossprobe
# submodules loaded so far after each; ``steps`` is a list of argv lists.
FOOTPRINT_SCRIPT = """\
import contextlib, io, json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("kossprobe."))
import kossprobe
record = {{"import": loaded(), "numpy": "numpy" in sys.modules, "calls": []}}
from kossprobe.cli import main
for argv in {steps!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    record["calls"].append((code, loaded()))
record["_hashlib"] = "_hashlib" in sys.modules
print(json.dumps(record))
"""


class TestImportFootprint:
    """Each subcommand imports only the kossprobe modules it runs."""

    def test_each_call_loads_only_its_modules(self, tmp_path):
        c_file = write_c_file(tmp_path, IDENTITY_C)
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        steps = [
            ["coeffs", "--g", "2", "--output", "json"],
            ["cp-check", "--c-file", c_file, "--output", "json"],
            ["build-matrix", "--g", "2", "--output", "json"],
            ["forward", "--c-file", c_file, "--g", "2", "--output", "json"],
            # M is singular at theta = 0: the refusal, with inversion first loaded here
            ["invert", "--rates", str(rates), "--g", "2", "--phase", "0"],
        ]
        record = run_fresh(FOOTPRINT_SCRIPT.format(steps=steps))
        assert record["import"] == [] and record["numpy"] is False
        coeffs, cp_check, build_matrix, forward, invert = record["calls"]
        assert coeffs == [0, ["cli", "scattering"]]
        assert cp_check[0] == 0 and not {"probe", "inversion", "experiment"} & set(cp_check[1])
        for code, modules in (build_matrix, forward):
            assert code == 0 and not {"inversion", "experiment"} & set(modules)
        assert invert[0] == 3 and "inversion" in invert[1]

    def test_invert_on_a_closed_form_run_loads_no_openssl(self, tmp_path, capsys):
        code, _, _ = simulate(capsys, tmp_path, "--shots", "100000")
        assert code == 0
        invert = ["invert", "--rates", str(tmp_path / "r" / "run.json"), "--g", "2"]
        code, out, _ = run_cli(capsys, *invert)
        assert code == 0 and strict_json(out)["verdict_path"] == "closed"
        record = run_fresh(FOOTPRINT_SCRIPT.format(steps=[invert]))
        assert record["calls"][0][0] == 0 and record["_hashlib"] is False


class TestWrittenFilesAreUtf8:
    def test_no_write_takes_the_locales_encoding(self, tmp_path):
        # every reader decodes UTF-8; -X warn_default_encoding warns at each text
        # open that names no encoding, and -W error makes that warning exit 1
        c_file = write_c_file(tmp_path, IDENTITY_C)
        run_dir, report = tmp_path / "r", tmp_path / "oracle.json"
        for argv in (["forward", "--c-file", c_file, "--g", "2"],
                     ["simulate", "--c-file", c_file, *SIMULATE_ARGS, "--out", str(run_dir)],
                     ["oracle", "--trials", "1", "--out", str(report)]):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "kossprobe.cli", *argv],
                env=fresh_env(), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
        assert strict_json((run_dir / "run.json").read_text(encoding="utf-8"))["config"]["seed"] == 3
        assert (run_dir / "run.csv").read_text(encoding="utf-8").startswith("label,N,k,")
        assert strict_json(report.read_text(encoding="utf-8"))["ok"] is True


class TestScipyOnlyWhereNeeded:
    def test_only_oracle_loads_scipy(self, tmp_path, capsys):
        c_file = write_c_file(tmp_path, IDENTITY_C)
        # a rank-1 truth at 10^9 shots: the verdict takes the cone path
        at_1e9 = ("--shots", "1000000000", "--seed", "1")
        code, _, _ = simulate(capsys, tmp_path, *at_1e9, c=RANK1_C, out="rank1")
        assert code == 0
        # the counterexample diag(1, 1, -1): two channels' true rates are negative and
        # clamped, and the resolved lambda_min reads not-CP on the delta path
        code, out, _ = simulate(capsys, tmp_path, *at_1e9, c=COUNTER_C, out="counter")
        assert code == 0 and strict_json(out)["flagged_channels"] == ["P0T", "P2R"]
        # none needs numpy.random: the cone and delta paths draw nothing, and
        # demo-negative's test states are a fixed set
        drawless = [
            ["invert", "--rates", str(tmp_path / "rank1" / "run.json"), "--g", "2",
             "--output", "json"],
            ["invert", "--rates", str(tmp_path / "counter" / "run.json"), "--g", "2",
             "--output", "json"],
            ["demo-negative", "--g", "2", "--output", "json"],
        ]
        light = [
            ["coeffs", "--g", "2", "--output", "json"],
            ["forward", "--c-file", c_file, "--g", "2", "--output", "json"],
            ["build-matrix", "--g", "2", "--output", "json"],
            ["cp-check", "--c-file", c_file, "--output", "json"],
            ["simulate", "--c-file", c_file, *SIMULATE_ARGS, "--out", str(tmp_path / "r")],
            ["invert", "--rates", str(tmp_path / "r" / "run.json"), "--g", "2",
             "--output", "json"],
        ]
        heavy = [["oracle", "--trials", "3", "--output", "json"]]
        script = (
            "import contextlib, io, json, sys\n"
            "from kossprobe.cli import main\n"
            "def loaded():\n"
            "    return {m: m in sys.modules for m in ('scipy', 'numpy.random')}\n"
            "def call(argv):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = main(argv)\n"
            "    return code, json.loads(buf.getvalue())\n"
            "after = {'import': loaded()}\n"
            f"drawless = [call(argv) for argv in {drawless!r}]\n"
            "after['drawless'] = loaded()\n"
            f"light = [call(argv) for argv in {light!r}]\n"
            "after['light'] = loaded()\n"
            f"heavy = [call(argv) for argv in {heavy!r}]\n"
            "after['heavy'] = loaded()\n"
            "print(json.dumps({'drawless': drawless, 'light': light, 'heavy': heavy,\n"
            "                  'loaded': after}))"
        )
        # a fresh interpreter: this one has loaded scipy through other tests
        result = run_fresh(script)
        assert [code for code, _ in result["drawless"] + result["light"]] == [0] * 9
        (_, invert), (_, counter), (_, demo) = result["drawless"]
        assert (invert["verdict_path"], invert["draws"]) == ("cone", 0)
        assert (counter["cp_verdict"], counter["verdict_path"]) == ("not-CP", "delta")
        assert demo["negative_transmitted_rate"] == pytest.approx(-0.4, abs=1e-12)
        assert demo["single_qubit_evolution"]["positive"] is True
        assert demo["lifted_evolution"]["positive"] is False
        ((oracle_code, oracle),) = result["heavy"]
        assert oracle_code == 0 and oracle["ok"] is True
        scipy = {phase: modules["scipy"] for phase, modules in result["loaded"].items()}
        assert scipy == {"import": False, "drawless": False, "light": False, "heavy": True}
        assert result["loaded"]["drawless"]["numpy.random"] is False


class TestParsing:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", "--g", "1", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command, output",
        [
            ("invert", "text"), ("invert", "csv"), ("simulate", "text"), ("simulate", "csv"),
            ("oracle", "text"), ("oracle", "csv"), ("cp-check", "csv"), ("demo-negative", "csv"),
        ],
    )
    def test_output_only_where_rendered(self, capsys, command, output):
        # otherwise complete arguments, so the format is the only thing refused
        args = {
            "invert": ["--rates", "rates.json", "--g", "2"],
            "simulate": ["--c-file", "c.json", "--g", "2", "--shots", "1000", "--exposure",
                         "0.01", "--calibration", "1", "--seed", "3", "--out", "r"],
            "cp-check": ["--c-file", "c.json"],
        }.get(command, [])
        with pytest.raises(SystemExit) as excinfo:
            main([command, *args, "--output", output])
        assert excinfo.value.code == 2
        assert "--output: invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["coeffs", "--g", "1"], ["build-matrix", "--g", "1"],
         ["cp-check", "--c-file", "c.json"], ["oracle"]],
    )
    def test_tolerance_only_where_read(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--tolerance", "1e-3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
