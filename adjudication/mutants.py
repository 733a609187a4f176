"""Single-line mutants of the library, each with what it breaks and whether the suite kills it.

    python adjudication/mutants.py

Each mutant replaces one text, which must occur exactly once in its file, in a
temporary copy of the checkout; the Tier-1 command then runs there with ``-x``.
A mutant is killed when a test fails.  Its expected outcome is "killed by" a
test that fails on it, "equivalent because" no input can tell it from the
library, or "open because" no test can pin it yet.  The test named in "killed
by" runs first, alone; the whole suite runs only when it passes (or is not
found), so a mutant that another test kills is still killed, and reported
with its killer's name.  The script prints each outcome, the survivors and
the mutants killed by another test than the named one, and exits 1 when a
mutant expected to be killed survives, or when an old text is not found
exactly once.  It is not part of Tier-1: a pass takes about two minutes on
two cores.  A change that adds a constant or a branch adds its mutant here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
         "-p", "no:cacheprovider"]
# what the copy leaves out: version control and what building and testing leave behind
LEFT_OUT = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                  "*.egg-info", ".perfbench", ".benchmarks", "build", "dist")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    breaks: str
    expected: str


INVERSION, KOSSAKOWSKI = "src/kossprobe/inversion.py", "src/kossprobe/kossakowski.py"
EXPERIMENT, PROBE = "src/kossprobe/experiment.py", "src/kossprobe/probe.py"
SCATTERING, SPIN = "src/kossprobe/scattering.py", "src/kossprobe/spin.py"

MUTANTS = (
    Mutant(INVERSION, "RESOLVED_GAP = 10.0", "RESOLVED_GAP = 6.0",
           "lambda_min counts as resolved at six spreads, so the delta path runs too early",
           "killed by test_near_boundary_truth_often_reads_indeterminate"),
    Mutant(INVERSION, "RESOLVED_GAP = 10.0", "RESOLVED_GAP = 12.0",
           "lambda_min counts as resolved only at twelve spreads",
           "killed by test_lambda_min_is_resolved_at_ten_spreads"),
    Mutant(INVERSION, "p = 0.5 * (_chi2_tail(5, statistic) + _chi2_tail(6, statistic))",
           "p = _chi2_tail(6, statistic)",
           "the zero-truth p-value drops Perlman's mixture for chi2_6 alone",
           "killed by test_cone_for_degenerate_spectra"),
    Mutant(INVERSION, "p = 0.5 * _chi2_tail(1, statistic)",
           "p = 0.5 * (_chi2_tail(1, statistic) + _chi2_tail(2, statistic))",
           "the rank-2 tail is chi-bar-squared with a spurious chi2_2 term",
           "killed by test_half_space_at_evident_rank_2"),
    Mutant(INVERSION, "_CEL_TOL = 2.0**-26", "_CEL_TOL = 2.0**-10",
           "the elliptic integral of the cone weights stops at 2^-10",
           "killed by test_the_corpus_is_reproduced"),
    Mutant(INVERSION, "max(quantile, 0.5 * z)", "max(quantile, 0.4 * z)",
           "the normal-equivalent floor of margin_sigma moves from z/2 to 0.4 z",
           "killed by test_the_corpus_is_reproduced"),
    Mutant(INVERSION, "if l2 >= r3:", "if l2 >= r1:",
           "lambda_2 is resolved from zero by the wrong spread",
           "killed by test_half_space_at_evident_rank_2"),
    Mutant(KOSSAKOWSKI, "ROUNDING = 8", "ROUNDING = 16",
           "every PSD and symmetry decision on C allows twice the rounding",
           "killed by test_tolerance_flag"),
    Mutant(EXPERIMENT, "sigmas.append(math.sqrt(p_hat * (1.0 - p_hat) / n) / scale)",
           "sigmas.append(math.sqrt(p_hat / n) / scale)",
           "estimate's covariance loses the binomial (1 - p) factor",
           "killed by test_covariance_is_the_binomial_variance_through_m"),
    Mutant(EXPERIMENT, "MAX_PER_SHOT_PROBABILITY = 0.2", "MAX_PER_SHOT_PROBABILITY = 0.3",
           "the first-order guard admits per-shot probabilities up to 0.3",
           "killed by test_first_order_guard_at_its_edge"),
    Mutant(PROBE, "CONDITION_LIMIT = 1e10", "CONDITION_LIMIT = 1e12",
           "an M of condition number up to 1e12 is inverted, not refused",
           "killed by test_condition_limit_at_its_edge"),
    Mutant(PROBE, "<= CONDITION_LIMIT:", "< CONDITION_LIMIT:",
           "an M of condition number exactly 1e10 is refused, not inverted",
           "killed by test_condition_limit_at_its_edge"),
    Mutant(PROBE, "if condition_number <= CONDITION_LIMIT:", "if True:",
           "every M is inverted, a singular one too, so building it can fail",
           "killed by test_singular_matrix_is_refused_uninverted"),
    Mutant(INVERSION, "if m_inv is None:", "if False:",
           "an uninverted M is not refused, and invert_noisy fails with a TypeError",
           "killed by test_singular_matrix_is_refused_uninverted"),
    Mutant(INVERSION, "top_gap >= r2 and top_gap >= r4", "(top_gap >= r2 or top_gap >= r4)",
           "the block test runs when only one coupling to the top is resolved",
           "killed by test_block_needs_both_couplings_to_the_top_resolved"),
    Mutant(INVERSION, "floor = 0.5 * float(d[0])", "floor = 0.25 * float(d[0])",
           "the Ostrowski floor on the block's |mu| halves",
           "open because it moves T materially only at a rank-1 block covariance, where "
           "_block_cone_test's T is not yet the Sigma-metric distance"),
    Mutant(INVERSION, "if (root[0] + root[2]) @ v[:, 2] < 0.0:",
           "if (root[0] + root[2]) @ v[:, 2] <= 0.0:",
           "the nappe's sign test flips at zero",
           "equivalent because the cone's axis lies inside the cone, where the trace is at "
           "least 2 sqrt(det) > 0, so the product is never zero"),
    Mutant(KOSSAKOWSKI, "low, mid, top = self.eigenvalues().tolist()",
           "low, mid, top = np.linalg.eigvalsh(c).tolist()",
           "cp_check reads C's spectrum by a second route, so it can refuse a C that "
           "invert_noisy reads as CP and kraus_noise decomposes",
           "killed by test_cp_report_agrees_with_the_verdict_at_the_rounding_edge"),
    Mutant(KOSSAKOWSKI, "return type(x) is int or", "return isinstance(x, int) or",
           "a bool passes the integer fast path, so True is a shot count or a seed",
           "killed by test_count_and_seed_guards_name_the_field"),
    Mutant(INVERSION, "if low_gap >= r0 and", "if low_gap > r0 and",
           "lambda_min is not resolved at exactly RESOLVED_GAP spreads",
           "killed by test_lambda_min_is_resolved_at_ten_spreads"),
    Mutant(INVERSION, "entries + covariance.ravel().tolist()", "entries",
           "an overflowing covariance is not refused",
           "killed by test_invert_refuses_an_overflowing_estimate"),
    Mutant(KOSSAKOWSKI, "== {float} and all(map(math.isfinite, values))):", "== {float}):",
           "six floats skip the finiteness test, so a nan or inf entry is stored",
           "killed by test_from_dict_rejects_non_numbers"),
    Mutant(EXPERIMENT, "state *= np.uint32(_MIX_L)", "state *= np.uint32(_MIX_R)",
           "the children's pools are mixed with the wrong constant",
           "killed by test_detections_match_numpys_spawned_streams"),
    Mutant(KOSSAKOWSKI, "tol * abs(rest)", "tol * rest",
           "the det tolerance takes the sign of lambda_2 lambda_3, so a PSD C with two "
           "eigenvalues just below zero reads det violated",
           "killed by test_the_corpus_is_reproduced"),
    Mutant(KOSSAKOWSKI, '"det": (low * rest,', '"det": (np.linalg.det(c),',
           "the det margin comes from a second route, whose rounding can exceed the "
           "tolerance at a PSD C",
           "killed by test_the_corpus_is_reproduced"),
    Mutant(PROBE, "return float(forward(c, coeffs, phase).rates[row])",
           "return float(_probe_matrix(coeffs, _finite_phase(phase)).matrix[row] "
           "@ as_kossakowski(c).vector)",
           "probability_rate takes a row dot product, which can differ from forward's M c "
           "in the last bit",
           "killed by test_one_spectrum_and_one_rate_route_at_the_rounding_edge"),
    Mutant(SCATTERING, "[half + coeffs.r0 * back, _SQRT3 * (half + coeffs.r1 * back)]",
           "[half + coeffs.r1 * back, _SQRT3 * (half + coeffs.r0 * back)]",
           "the reflected row swaps the singlet's and the triplet's reflection amplitudes",
           "killed by test_criterion_03_forward_model_adjudication"),
    Mutant(SCATTERING, "back = np.conj(half)", "back = half",
           "the reflected wave carries the incident wave's phase, not its conjugate",
           "killed by test_criterion_03_forward_model_adjudication"),
    Mutant(SCATTERING, '"r0": r0, "r1": r1', '"r0": r1, "r1": r0',
           "ScatteringCoefficients stores each channel's reflection amplitude under the other's name",
           "killed by test_criterion_01_unitarity_and_coefficient_identities"),
    Mutant(PROBE, "        matrix.setflags(write=False)\n", "",
           "a ProbeMatrix leaves M writeable, so a caller can change the memo's shared M",
           "killed by test_returns_read_only_matrix"),
    Mutant(KOSSAKOWSKI, "c11, c12, c13, c22, c23, c33 = map(float, values)",
           "values = tuple(map(float, values))",
           "an int or numpy entry is stored as given, not as a Python float",
           "killed by test_constructor_stores_python_floats"),
    Mutant(INVERSION, '"cone_statistic": cone_statistic,', '"cone_statistic": p_value,',
           "InversionResult stores the p-value as the cone statistic",
           "killed by test_invert_reports_verdict_path"),
    Mutant(KOSSAKOWSKI, "_gufuncs.eigh_lo", "_gufuncs.eigh_up",
           "eigh reads the upper triangle, not np.linalg's lower one, so its last bits differ",
           "killed by test_equal_to_numpy_bit_for_bit"),
    Mutant(KOSSAKOWSKI, "return gufunc(a, signature=signature)", "return gufunc(a)",
           "a decomposition takes its input's own loop, so float32 is decomposed in single "
           "precision",
           "killed by test_float32_and_integer_inputs_are_computed_in_float64"),
    Mutant(KOSSAKOWSKI, 'call=refusal, invalid="call"', 'invalid="warn"',
           "the refusal callback is dropped, so a failed decomposition warns and returns NaN "
           "in place of numpy's LinAlgError",
           "killed by test_refusals_are_numpys_linalg_error_without_a_warning"),
    Mutant(KOSSAKOWSKI, "_ERRSTATE.reset(token)", "None",
           "a decomposition leaves its error state set, so the caller's later invalid values "
           "raise LinAlgError",
           "killed by test_the_callers_error_state_is_kept"),
    Mutant(SCATTERING, "if not math.isfinite(1.5 * g):", "if not math.isfinite(g):",
           "a finite coupling whose alpha_0 = -1.5 g overflows is accepted, and t0 = r0 = nan",
           "killed by test_non_finite_g_rejected"),
    Mutant(EXPERIMENT, "if self.calibration * self.exposure == 0.0:",
           "if self.calibration * self.exposure < 0.0:",
           "a config whose calibration * exposure underflows to 0.0 is accepted, so estimate "
           "divides by zero",
           "killed by test_an_underflowing_eta_t_is_refused"),
    Mutant(KOSSAKOWSKI, "if all(map(math.isfinite, x.ravel().tolist())):", "if True:",
           "a float64 array skips the finiteness test, so a nan or inf rate is accepted",
           "killed by test_values_and_refusals_are_kept"),
    Mutant(KOSSAKOWSKI, "x.dtype is _FLOAT64 and x.shape == names.shape:\n        if all(",
           "x.shape == names.shape:\n        if all(",
           "any array of the right shape takes the float64 path, so a float32, int or bool "
           "array is returned unconverted",
           "killed by test_values_and_refusals_are_kept"),
    Mutant(KOSSAKOWSKI, "x.dtype is _FLOAT64 and x.shape == names.shape:\n        if all(",
           "x.dtype is _FLOAT64:\n        if all(",
           "a float64 array of any shape takes the fast path, so a (6, 1) rate array is "
           "accepted",
           "killed by test_values_and_refusals_are_kept"),
    Mutant(KOSSAKOWSKI, "if min(a.ravel().tolist()) < 0.0:", "if False:",
           "the sigma sign test is dropped, so a negative sigma is accepted",
           "killed by test_values_and_refusals_are_kept"),
    Mutant(EXPERIMENT, "p if p >= 0.0 else 0.0)", "p)",
           "run draws at the unclamped values, so a non-PSD truth's negative rate reaches "
           "the binomial draw",
           "killed by test_per_shot_values_are_forwards_rates_bit_for_bit"),
    Mutant(EXPERIMENT, "if not isinstance(m, ProbeMatrix):", "if False:",
           "estimate reads g from a plain array, and fails with an AttributeError",
           "killed by test_a_plain_array_for_m_is_refused"),
    Mutant(INVERSION, "if not isinstance(m, ProbeMatrix):", "if False:",
           "invert_noisy reads condition_number from a plain array, and fails with an "
           "AttributeError",
           "killed by test_a_plain_array_for_m_is_refused"),
    Mutant(SCATTERING, "if isinstance(g, _NOT_NUMBERS):", "if False:",
           "a string or a bool is read as a coupling: coefficients(True).g == 1.0",
           "killed by test_a_string_or_a_bool_is_not_a_coupling"),
    Mutant(PROBE, "if isinstance(phase, _NOT_NUMBERS):", "if False:",
           "a bool is read as a probe phase of 0 or 1 rad, and a string fails with a TypeError",
           "killed by test_a_string_or_a_bool_is_not_a_phase"),
    Mutant(SPIN, "if not deviation <= 1e-12:", "if False:",
           "pauli_frame reads a non-unitary u as a frame, so O is not orthogonal",
           "killed by test_pauli_frame_refuses_a_non_unitary_u"),
)


def misplaced(root: Path) -> list[str]:
    """The mutants whose old text is not found exactly once in ``root``'s copy of its file."""
    counts = [(m, (root / m.file).read_text().count(m.old)) for m in MUTANTS]
    return [f"{m.file}: {m.old!r} occurs {n} times" for m, n in counts if n != 1]


def run_suite(copy: Path, tests: list[str] | None = None) -> tuple[bool, str]:
    """(killed, the first failing test) of one Tier-1 run in ``copy``, of ``tests`` alone
    when they are given."""
    proc = subprocess.run(TIER1 + (tests or []), cwd=copy, env=suite_env(), capture_output=True,
                          text=True)
    # a parametrized id may hold spaces; pytest ends the id with " - " and the reason
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, failed.group(1) if failed else ""


def suite_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"src{os.pathsep}{path}" if path else "src"}


def test_name(node: str) -> str:
    """The function name of a pytest node id, without its parameters."""
    return node.partition("[")[0].rpartition("::")[2]


def node_ids(copy: Path) -> dict[str, list[str]]:
    """Each test function's name to its node ids (a parametrized test's, without the
    parameters), as the unmutated suite collects them in ``copy``."""
    proc = subprocess.run(TIER1 + ["--collect-only"], cwd=copy, env=suite_env(),
                          capture_output=True, text=True, check=True)
    ids: dict[str, dict[str, None]] = {}
    for line in proc.stdout.splitlines():
        if "::" in line:
            ids.setdefault(test_name(line), {})[line.partition("[")[0]] = None
    return {name: list(nodes) for name, nodes in ids.items()}


def killer(mutant: Mutant) -> str:
    """The test named in a "killed by" outcome, or ""."""
    named = mutant.expected.removeprefix("killed by ")
    return named if named != mutant.expected else ""


def main() -> int:
    if problems := misplaced(ROOT):
        print("\n".join(problems))
        return 1
    survivors, unexpected, misnamed = [], [], []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=LEFT_OUT)
        ids = node_ids(copy)
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            named = ids.get(killer(mutant))
            killed, by = run_suite(copy, named) if named else (False, "")
            if not killed:
                killed, by = run_suite(copy)
            path.write_text(original)
            expected_kill = mutant.expected.startswith("killed by")
            print(f"{'killed' if killed else 'SURVIVED':8s} {mutant.file}: {mutant.breaks}"
                  f"{f' ({by})' if killed else ''}; expected {mutant.expected}", flush=True)
            if not killed:
                survivors.append(mutant)
                if expected_kill:
                    unexpected.append(mutant)
            elif expected_kill and test_name(by) != killer(mutant):
                misnamed.append((mutant, by))
    print(f"\n{len(survivors)} of {len(MUTANTS)} mutants survived:")
    for mutant in survivors:
        print(f"  {mutant.file}: {mutant.old!r} -> {mutant.new!r}: {mutant.expected}")
    if misnamed:
        print(f"{len(misnamed)} killed by another test than the named one:")
        for mutant, by in misnamed:
            print(f"  {mutant.file}: {mutant.old!r}: {by}, not {killer(mutant)}")
    if unexpected:
        print(f"{len(unexpected)} survived that a test should kill")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
