"""Single-line mutants of the library, each with what it breaks and whether the suite kills it.

    python adjudication/mutants.py

Each mutant replaces one text, which must occur exactly once in its file, in a
temporary copy of the checkout; the Tier-1 command then runs there with ``-x``.
A mutant is killed when a test fails.  Its expected outcome is "killed by" the
first test that fails on it, "equivalent because" no input can tell it from
the library, or "open because" no test can pin it yet.  The script prints each
outcome and the survivors, and exits 1 when a mutant expected to be killed
survives, or when an old text is not found exactly once.  It is not part of
Tier-1: a pass runs the suite once per mutant, about four minutes on two
cores.  A change that adds a constant or a branch adds its mutant here.
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
    Mutant(INVERSION, "CONDITION_LIMIT = 1e10", "CONDITION_LIMIT = 1e12",
           "an M of condition number up to 1e12 is inverted, not refused",
           "killed by test_condition_limit_at_its_edge"),
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
    Mutant(KOSSAKOWSKI, "== {float} and all(map(math.isfinite, values)):", "== {float}:",
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
)


def misplaced(root: Path) -> list[str]:
    """The mutants whose old text is not found exactly once in ``root``'s copy of its file."""
    counts = [(m, (root / m.file).read_text().count(m.old)) for m in MUTANTS]
    return [f"{m.file}: {m.old!r} occurs {n} times" for m, n in counts if n != 1]


def run_suite(copy: Path) -> tuple[bool, str]:
    """(killed, the first failing test) of one Tier-1 run in ``copy``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"src{os.pathsep}{path}" if path else "src"}
    proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, failed.group(1) if failed else ""


def main() -> int:
    if problems := misplaced(ROOT):
        print("\n".join(problems))
        return 1
    survivors, unexpected = [], []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=LEFT_OUT)
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            killed, by = run_suite(copy)
            path.write_text(original)
            expected_kill = mutant.expected.startswith("killed by")
            print(f"{'killed' if killed else 'SURVIVED':8s} {mutant.file}: {mutant.breaks}"
                  f"{f' ({by})' if killed else ''}; expected {mutant.expected}", flush=True)
            if not killed:
                survivors.append(mutant)
                if expected_kill:
                    unexpected.append(mutant)
    print(f"\n{len(survivors)} of {len(MUTANTS)} mutants survived:")
    for mutant in survivors:
        print(f"  {mutant.file}: {mutant.old!r} -> {mutant.new!r}: {mutant.expected}")
    if unexpected:
        print(f"{len(unexpected)} survived that a test should kill")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
