"""Command-line interface.

Machine-readable payloads go to stdout, human-readable diagnostics to stderr.
Exit codes: 0 success, 2 input error, 3 numerical refusal (singular probe
matrix), 4 closed-form adjudication failure.  Every JSON payload carries a
``schema_version`` field.  Each subcommand takes --output with only the
formats it renders: ``coeffs``, ``forward`` and ``build-matrix`` text (the
default), json or csv; ``cp-check`` and ``demo-negative`` text (the default)
or json; ``invert``, ``simulate`` and ``oracle`` json only.  None takes a
tolerance: ``invert`` reports ``cp_check`` at cond(M), the verdict's rule.

Each handler imports the kossprobe modules it runs, so a call compiles and
loads only those: ``coeffs`` loads ``scattering`` alone, ``cp-check`` no
forward model, ``build-matrix`` and ``forward`` no inversion.  Only
``oracle`` needs scipy, for the matrix exponentials of its brute-force path.

One reader, ``_read``, takes every input file (``--c-file`` and ``--rates``)
to the value the library builds from it.  JSON refuses a repeated key, the
numbers of a rates CSV follow JSON's number grammar, and each refusal, a
decode error included, names the file.  Sigmas come only from the rates file:
its ``sigmas`` or its CSV ``sigma`` column, or a run file's binomial counts.  A
run file is read in ``simulate``'s one layout; ``invert`` builds M at ``--g`` and
``--phase`` (the run's phase by default), and ``estimate`` alone refuses an M
that is not the run's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_ADJUDICATION = 4


def _json(payload: dict) -> str:
    """Strict JSON: a NaN or an infinity is refused (a ValueError, exit 2), never
    written as a token that JSON readers refuse."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json({"schema_version": SCHEMA_VERSION, **payload}))


def _read(path: str, build, csv: bool = False):
    """``build`` of the value in the file at ``path``: its JSON, or with ``csv`` a rates
    CSV when the name ends in .csv.  Every refusal, a decode error included, names the
    file once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return build(_rates_csv(text) if csv and path.endswith(".csv")
                     else json.loads(text, object_pairs_hook=_unique_keys))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise ValueError(f"{path}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of a repeated key
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _coeffs_from_args(args) -> tuple[object, float | None]:
    from .scattering import coefficients, physical_coupling

    physical = [args.J, args.E, args.mass]
    if args.g is not None:
        if any(v is not None for v in physical):
            raise ValueError("give either --g or the physical set --J --E --mass")
        return coefficients(args.g), None
    if all(v is not None for v in physical):
        g, k = physical_coupling(args.J, args.E, args.mass, args.hbar)
        return coefficients(g), k
    raise ValueError("coupling required: --g, or all of --J --E --mass")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    co, k = _coeffs_from_args(args)
    rows = [
        ("t0", co.t0),
        ("t1", co.t1),
        ("r0", co.r0),
        ("r1", co.r1),
    ]
    if args.output == "json":
        payload = {
            "g": co.g,
            "k": k,
            **{name: [z.real, z.imag] for name, z in rows},
            "T0": abs(co.t0) ** 2,
            "T1": abs(co.t1) ** 2,
            "R0": abs(co.r0) ** 2,
            "R1": abs(co.r1) ** 2,
        }
        _emit_json(payload)
    elif args.output == "csv":
        sys.stdout.write("name,re,im,prob\n")
        for name, z in rows:
            sys.stdout.write(f"{name},{z.real!r},{z.imag!r},{abs(z) ** 2!r}\n")
    else:
        sys.stdout.write(f"g = {co.g:g}\n")
        for name, z in rows:
            sys.stdout.write(
                f"{name} = {z.real:+.12f} {z.imag:+.12f}i   |{name}|^2 = {abs(z) ** 2:.12f}\n"
            )
    return EXIT_OK


def _cmd_forward(args) -> int:
    from .kossakowski import KossakowskiMatrix
    from .probe import forward
    from .scattering import coefficients

    c = _read(args.c_file, KossakowskiMatrix.from_dict)
    result = forward(c, coefficients(args.g), args.phase)
    rates = result.by_channel()
    overflowed = [label for label, value in rates.items() if not math.isfinite(value)]
    if overflowed:  # refused here, in every format: forward itself is on the per-item path
        raise ValueError(f"{args.c_file}: C is too large: its rates {', '.join(overflowed)} "
                         "overflow")
    if args.output == "json":
        _emit_json({"g": result.g, "phase": result.phase,
                    "canonical_phase": result.is_canonical_phase, "rates": rates})
    elif args.output == "csv":
        sys.stdout.write("channel,rate\n")
        for label, value in rates.items():
            sys.stdout.write(f"{label},{value!r}\n")
    else:
        for label, value in rates.items():
            sys.stdout.write(f"{label}  {value:+.12f}\n")
    return EXIT_OK


def _build_matrices(args):
    from .probe import _is_canonical, build_matrix_appendix, build_matrix_programmatic
    from .scattering import coefficients

    co = coefficients(args.g)
    if args.source in ("appendix", "both") and not _is_canonical(args.phase):
        raise ValueError(
            f"--phase {args.phase}: the appendix table exists only at "
            f"theta = pi/2 (the canonical phase)"
        )
    out = {}
    if args.source in ("programmatic", "both"):
        out["programmatic"] = build_matrix_programmatic(co, args.phase)
    if args.source in ("appendix", "both"):
        out["appendix"] = build_matrix_appendix(co)
    return out


def _cmd_build_matrix(args) -> int:
    from .probe import compare_matrices

    matrices = _build_matrices(args)
    if args.output == "json":
        payload = {name: m.to_dict() for name, m in matrices.items()}
        if len(matrices) == 2:
            payload["comparison"] = compare_matrices(
                matrices["programmatic"], matrices["appendix"]
            )
        _emit_json(payload)
    elif args.output == "csv":
        if len(matrices) != 1:
            raise ValueError("csv output requires a single --source")
        (m,) = matrices.values()
        for row in m.matrix:
            sys.stdout.write(",".join(repr(float(x)) for x in row) + "\n")
    else:
        for name, m in matrices.items():
            sys.stdout.write(
                f"{name} matrix (g = {m.g:g}, det = {m.det:.6g}, "
                f"cond = {m.condition_number:.6g})\n"
            )
            for row in m.matrix:
                sys.stdout.write("  " + "  ".join(f"{x:+10.6f}" for x in row) + "\n")
    return EXIT_OK


def _rates_csv(text: str) -> dict:
    """A rates CSV as the rates object it stands for; each number is read as JSON reads one."""
    from .probe import CHANNELS

    rates: dict[str, object] = {}
    sigmas: dict[str, object] = {}
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("rates csv is empty; expected header 'label,rate[,sigma]'")
    header = [h.strip() for h in lines[0][1].split(",")]
    if header not in (["label", "rate"], ["label", "rate", "sigma"]):
        raise ValueError(f"rates csv header {lines[0][1]!r} is not 'label,rate[,sigma]'")
    for n, line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        label = parts[0]
        where = f"rates csv line {n}"
        if label not in CHANNELS:
            raise ValueError(f"{where}: unknown channel {label!r}, not in {list(CHANNELS)}")
        if label in rates:
            raise ValueError(f"{where}: {label} repeats an earlier row")
        if len(header) > 2 and len(parts) == 2:
            raise ValueError(f"{where}: {label} has no sigma, but the header names one")
        if len(parts) != len(header):
            raise ValueError(
                f"{where}: expected {len(header)} fields, as in the header "
                f"{','.join(header)!r}, got {len(parts)}"
            )
        try:
            rates[label] = json.loads(parts[1])
            if len(header) > 2:
                sigmas[label] = json.loads(parts[2])
        except ValueError:
            raise ValueError(f"{where}: expected 'label,rate[,sigma]' with JSON numbers, "
                             f"got {line!r}") from None
    missing = [label for label in CHANNELS if label not in rates]
    if missing:
        raise ValueError(f"rates csv missing channels: {missing}")
    data = {"rates": [rates[label] for label in CHANNELS]}
    if sigmas:
        data["sigmas"] = [sigmas[label] for label in CHANNELS]
    return data


def _rates_input(data):
    """(a run file's ExperimentRun, None), or (rates, sigmas) of a rates array or object,
    the sigmas zero where it gives none."""
    from .experiment import ExperimentRun
    from .inversion import _CHANNEL_NAMES
    from .kossakowski import _finite_reals, _nonnegative_reals

    if isinstance(data, dict) and "channels" in data:
        return ExperimentRun.from_dict(data), None
    if isinstance(data, list):
        data = {"rates": data}
    if not (isinstance(data, dict) and "rates" in data):
        raise ValueError("not a rates file: expected a JSON array, an object with 'rates', "
                         "a rates CSV or a simulate run file")
    rates = _finite_reals(data["rates"], _CHANNEL_NAMES, "rates")
    sigmas = _nonnegative_reals(data.get("sigmas", np.zeros(6)), _CHANNEL_NAMES, "sigmas")
    unknown = [key for key in data if key not in ("rates", "sigmas")]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; expected 'rates' and 'sigmas'")
    return rates, sigmas


def _cmd_invert(args) -> int:
    from .experiment import ExperimentRun, estimate
    from .inversion import invert_noisy, psd_project
    from .kossakowski import InputOverflowError
    from .probe import build_matrix_programmatic
    from .scattering import CANONICAL_PHASE, coefficients

    payload, sigmas = _read(args.rates, _rates_input, csv=True)
    is_run = isinstance(payload, ExperimentRun)
    phase = args.phase
    if phase is None:
        phase = payload.config.phase if is_run else CANONICAL_PHASE
    # estimate refuses an M whose (g, phase) is not the run's
    m = build_matrix_programmatic(coefficients(args.g), phase)
    try:
        if is_run:
            result = estimate(payload, m, z=args.z)
        else:
            result = invert_noisy(payload, sigmas, m, z=args.z)
        report = result.c_hat.cp_check(result.condition_number)
    except InputOverflowError as exc:  # an overflowing estimate or CP conditions
        raise ValueError(f"{args.rates}: {exc}") from None

    out = result.to_dict()
    out["cp_report"] = report.to_dict()
    if args.project_psd:
        out["c_hat_projected"] = psd_project(result.c_hat).to_dict()
    _emit_json(out)
    return EXIT_OK


def _cmd_cp_check(args) -> int:
    from .kossakowski import InputOverflowError, KossakowskiMatrix

    c = _read(args.c_file, KossakowskiMatrix.from_dict)
    try:
        report = c.cp_check()
    except InputOverflowError as exc:  # an overflowing minor or determinant
        raise ValueError(f"{args.c_file}: {exc}") from None
    if args.output == "text":
        sys.stdout.write(f"eigenvalues: {report.eigenvalues}\n")
        sys.stdout.write(f"positive semidefinite: {report.psd}\n")
        for name, margin in report.conditions.items():
            flag = "ok " if report.conditions_ok[name] else "VIOLATED"
            sys.stdout.write(f"  {name:10s} margin {margin:+.6g}  {flag}\n")
    else:
        _emit_json({"c": c.to_dict(), **report.to_dict()})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .experiment import ExperimentConfig, run, save_run
    from .kossakowski import KossakowskiMatrix
    from .probe import CHANNELS

    config = ExperimentConfig(
        true_c=_read(args.c_file, KossakowskiMatrix.from_dict),
        g=args.g,
        phase=args.phase,
        exposure=args.exposure,
        calibration=args.calibration,
        shots_per_channel=args.shots,
        seed=args.seed,
    )
    experiment_run = run(config)
    json_path, csv_path = save_run(experiment_run, args.out)
    _emit_json(
        {
            "written": [json_path, csv_path],
            "config_hash": config.hash(),
            "flagged_channels": list(experiment_run.flagged_channels),
            "detections": dict(zip(CHANNELS, experiment_run.detections)),
        }
    )
    return EXIT_OK


def _cmd_demo_negative(args) -> int:
    from .kossakowski import KossakowskiMatrix, evolve
    from .probe import forward
    from .scattering import coefficients
    from .spin import IDENTITY_2, basis, pauli

    g = args.g
    c = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
    co = coefficients(g)
    rates = forward(c, co)
    report = c.cp_check()

    # single-qubit evolution stays positive: Bloch norms never grow.  The test
    # states are a Fibonacci sphere of 32 directions, the k-th at radius
    # ((k + 1/2) / 32)^(1/3), so that they spread evenly through the Bloch ball.
    sigma = np.array([pauli(i) for i in (1, 2, 3)])
    times = np.linspace(0.0, 5.0, 11)
    k = np.arange(32) + 0.5
    height = 1.0 - 2.0 * k / 32
    azimuth = np.pi * (3.0 - np.sqrt(5.0)) * k
    ring = np.sqrt(1.0 - height**2)
    directions = np.stack([ring * np.cos(azimuth), ring * np.sin(azimuth), height], axis=1)
    worst_growth = 0.0
    min_state_eig = np.inf
    for v in directions * (k / 32)[:, None] ** (1 / 3):
        state = 0.5 * (IDENTITY_2 + np.tensordot(v, sigma, axes=1))
        previous = np.linalg.norm(v)
        for t in times[1:]:
            evolved = evolve(c, state, float(t))
            # the Bloch components Re tr(rho sigma_i)
            norm = np.linalg.norm(np.einsum("ij,kji->k", evolved, sigma).real)
            worst_growth = max(worst_growth, float(norm - previous))
            previous = norm
            min_state_eig = min(min_state_eig, float(np.linalg.eigvalsh(evolved)[0]))

    # the lifted map on the entangled probe state develops a negative eigenvalue
    probe_state = basis("canonical").probe_state
    rho = np.outer(probe_state, probe_state.conj())
    small_t = 0.01
    lifted_min_eig = float(np.linalg.eigvalsh(evolve(c, rho, small_t))[0])

    payload = {
        "g": g,
        "kossakowski": c.to_dict(),
        "eigenvalues": list(report.eigenvalues),
        "positive_semidefinite": report.psd,
        "verdict": "not completely positive",
        "rates": rates.by_channel(),
        "negative_transmitted_rate": float(rates.rates[0]),
        "single_qubit_evolution": {
            "bloch_norm_max_growth": worst_growth,
            "min_state_eigenvalue": min_state_eig,
            "positive": bool(worst_growth <= 1e-12 and min_state_eig >= -1e-12),
        },
        "lifted_evolution": {
            "t": small_t,
            "min_eigenvalue": lifted_min_eig,
            "positive": bool(lifted_min_eig >= -1e-12),
        },
    }
    if args.output == "text":
        sys.stdout.write(
            f"Kossakowski matrix diag(1, 1, -1): eigenvalues {report.eigenvalues}, "
            "not positive semidefinite, so the map is not completely positive.\n"
            f"Single-qubit evolution is positive (max Bloch-norm growth "
            f"{worst_growth:.2e}, min state eigenvalue {min_state_eig:.3g}).\n"
            f"Yet the canonical transmitted detection rate at g = {g:g} is "
            f"{rates.rates[0]:+.6f}, a negative probability, and the lifted map "
            f"on the entangled probe state has eigenvalue {lifted_min_eig:+.6f} "
            f"at t = {small_t}.\n"
        )
    else:
        _emit_json(payload)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import adjudicate  # deferred: loads scipy

    report = adjudicate(trials=args.trials)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(_json(report), encoding="utf-8")
    _emit_json(report)
    if not report["ok"]:
        sys.stderr.write("closed forms deviate from the brute-force oracle\n")
        return EXIT_ADJUDICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    from .scattering import CANONICAL_PHASE

    def output(*formats: str) -> argparse.ArgumentParser:
        # --output takes only the formats a subcommand renders; the first is the default
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--output", choices=formats, default=formats[0])
        return common

    tables, report, json_only = output("text", "json", "csv"), output("text", "json"), output("json")

    parser = argparse.ArgumentParser(
        prog="kossprobe",
        description="Noise-matrix estimation from impurity scattering probabilities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[tables], help="transmission/reflection table")
    p.add_argument("--g", type=float, default=None, help="dimensionless coupling")
    p.add_argument("--J", type=float, default=None, help="magnetic coupling")
    p.add_argument("--E", type=float, default=None, help="electron energy")
    p.add_argument("--mass", type=float, default=None, help="electron mass")
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("forward", parents=[tables], help="six detection rates for a given C")
    p.add_argument("--c-file", required=True, help="JSON file with keys c11..c33")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--phase", type=float, default=CANONICAL_PHASE)
    p.set_defaults(handler=_cmd_forward)

    p = sub.add_parser("build-matrix", parents=[tables], help="assemble the 6x6 rate matrix")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--phase", type=float, default=CANONICAL_PHASE)
    p.add_argument(
        "--source", choices=("programmatic", "appendix", "both"), default="programmatic"
    )
    p.set_defaults(handler=_cmd_build_matrix)

    p = sub.add_parser("invert", parents=[json_only], help="recover C from rates")
    p.add_argument("--rates", required=True, help="rates JSON/CSV or a simulate run file")
    p.add_argument("--g", type=float, required=True)
    p.add_argument(
        "--phase", type=float, default=None,
        help="probe phase (default pi/2, or the run's phase; must match a run file's)",
    )
    p.add_argument("--project-psd", action="store_true")
    p.add_argument("--z", type=float, default=3.0, help="significance for the not-CP verdict")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("cp-check", parents=[report], help="complete-positivity diagnostics")
    p.add_argument("--c-file", required=True)
    p.set_defaults(handler=_cmd_cp_check)

    p = sub.add_parser("simulate", parents=[json_only], help="run the virtual experiment")
    p.add_argument("--c-file", required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--exposure", type=float, required=True)
    p.add_argument("--calibration", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", type=float, default=CANONICAL_PHASE)
    p.add_argument("--out", required=True, help="output directory for run.json/run.csv")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "demo-negative",
        parents=[report],
        help="positive-but-not-completely-positive counterexample",
    )
    p.add_argument("--g", type=float, default=2.0)
    p.set_defaults(handler=_cmd_demo_negative)

    p = sub.add_parser("oracle", parents=[json_only], help="closed-form adjudication report")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", default=None, help="also write the report to this path")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the library refuses overflows
            return args.handler(args)
    except ArithmeticError as exc:
        # only inversion raises SingularProbeMatrixError, so it is loaded if one was raised
        inversion = sys.modules.get(f"{__package__}.inversion")
        if inversion is None or not isinstance(exc, inversion.SingularProbeMatrixError):
            raise
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
