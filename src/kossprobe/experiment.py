"""Virtual laboratory: shot-by-shot detection with a known noise matrix.

A run draws, for each of the six channels, N Bernoulli detections with
per-shot probability

    p = clip(eta * exposure * rate, 0, 1),

where the rate comes from the forward model, ``exposure`` is the short
evolution time per shot and ``eta`` a detection-efficiency calibration.  The
first-order forward model is only trusted for small per-shot probabilities,
so configurations with any unclamped p above 0.2 are rejected outright.
Channels whose true rate is negative (possible when the underlying matrix is
not PSD) are clamped to p = 0 and flagged rather than rejected, so the
non-complete-positivity inconsistency can be driven through the pipeline and
observed.

Reproducibility contract: channel i draws from child i of numpy's
``SeedSequence(seed).spawn(6)`` through a PCG64 generator, so identical
configurations produce bit-identical runs and channel draws are
order-insensitive.  The children's seed words are computed in one vectorised
pass rather than through six ``SeedSequence`` objects; a property test pins
the generators and the draws against numpy's own ``spawn``.  Persisted
artifacts contain no wall-clock data for the same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

try:  # CPython's built-in SHA-256: hashlib's digest, without loading OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    from _sha256 import sha256  # Python 3.10 and 3.11

from .inversion import InversionResult, invert_noisy
from .kossakowski import (KossakowskiMatrix, _is_finite_number, _is_integer, _shown,
                          as_kossakowski)
from .probe import CHANNELS, ProbeMatrix, forward
from .scattering import coefficients

MAX_PER_SHOT_PROBABILITY = 0.2
# Generator.binomial takes its trial count as a C long
MAX_SHOTS_PER_CHANNEL = 2**63 - 1


# the scalar fields of a config: name, the rule it must hold, the rule in
# words, and the type it is stored as
_FIELDS = (
    ("g", _is_finite_number, "finite and real", float),
    ("phase", _is_finite_number, "finite and real", float),
    ("exposure", lambda x: _is_finite_number(x) and x > 0.0, "positive and finite", float),
    ("calibration", lambda x: _is_finite_number(x) and 0.0 < x <= 1.0, "in (0, 1]", float),
    ("shots_per_channel", lambda x: _is_integer(x) and 0 < x <= MAX_SHOTS_PER_CHANNEL,
     "a positive integer of at most 2**63 - 1", int),
    ("seed", lambda x: _is_integer(x) and x >= 0, "a non-negative integer", int),
)

RUN_SCHEMA_VERSION = 1
CSV_HEADER = "label,N,k,p_hat,sigma"


class ConfigError(ValueError):
    """Invalid experiment configuration; the message lists the violated guards."""


@dataclass(frozen=True)
class ExperimentConfig:
    """The physics and the seed of one run.

    Invariant: ``true_c`` is a KossakowskiMatrix (an array goes through
    :func:`as_kossakowski`); ``g`` and ``phase`` are finite, ``exposure`` positive
    and finite and ``calibration`` in (0, 1], as Python floats, whose product
    ``calibration * exposure`` is positive too; ``shots_per_channel`` is in
    [1, 2**63 - 1] and ``seed`` at least 0, as Python ints (a bool is
    neither).  A violation is one :class:`ConfigError` naming every such field.
    """

    true_c: KossakowskiMatrix
    g: float
    phase: float
    exposure: float
    calibration: float
    shots_per_channel: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_c", as_kossakowski(self.true_c))
        problems = [
            f"{name} must be {rule}, got {_shown(getattr(self, name))}"
            for name, holds, rule, _ in _FIELDS
            if not holds(getattr(self, name))
        ]
        if problems:
            raise ConfigError("; ".join(problems))
        for name, _, _, stored_as in _FIELDS:
            object.__setattr__(self, name, stored_as(getattr(self, name)))
        # each in range, but a product that underflows scales every rate by 1/0
        if self.calibration * self.exposure == 0.0:
            raise ConfigError(f"calibration * exposure must be positive, got "
                              f"{self.calibration!r} * {self.exposure!r}, which underflows to 0.0")

    def physics_key(self) -> tuple:
        """The fields that must match for runs to be poolable."""
        return (self.g, self.phase, self.exposure, self.calibration, self.true_c)

    def per_shot_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(clamped probabilities, unclamped values); refuses, as a ConfigError, a
        config whose unclamped probability exceeds the first-order guard or is NaN."""
        rates = forward(self.true_c, coefficients(self.g), self.phase).rates
        unclamped = self.calibration * self.exposure * rates
        too_large = [
            f"{label} (p = {p:.4g})"
            for label, p in zip(CHANNELS, unclamped.tolist())
            if not p <= MAX_PER_SHOT_PROBABILITY
        ]
        if too_large:
            raise ConfigError(
                "per-shot probability exceeds the first-order validity guard "
                f"{MAX_PER_SHOT_PROBABILITY}: " + ", ".join(too_large)
            )
        return unclamped.clip(0.0, 1.0), unclamped

    def to_dict(self) -> dict:
        fields = {name: getattr(self, name) for name, *_ in _FIELDS}
        return {"true_c": self.true_c.to_dict(), **fields}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"run config must be an object, got {type(data).__name__}")
        return cls(
            true_c=KossakowskiMatrix.from_dict(_field(data, "true_c", "run config")),
            **{name: _field(data, name, "run config") for name, *_ in _FIELDS},
        )

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentRun:
    """Aggregated detection counts for one seeded run.

    Invariant: ``detections`` holds one count per channel, in ``CHANNELS``
    order, each an integer in [0, ``shots_per_channel``] (a bool is not one),
    stored as Python ints.  ``flagged_channels`` is derived, never passed in.
    """

    config: ExperimentConfig
    detections: tuple[int, ...]

    def __post_init__(self) -> None:
        counts, n = tuple(self.detections), self.config.shots_per_channel
        bad = [f"{label} k = {_shown(k)}" for label, k in zip(CHANNELS, counts)
               if not (_is_integer(k) and 0 <= k <= n)]
        if bad or len(counts) != len(CHANNELS):
            raise ValueError(
                f"run detections must be one integer in [0, {n}] per channel {list(CHANNELS)}, "
                f"got {', '.join(bad) or f'{len(counts)} counts'}"
            )
        object.__setattr__(self, "detections", tuple(map(int, counts)))

    @property
    def flagged_channels(self) -> tuple[str, ...]:
        """Channels whose true rate is negative, so their per-shot probability is
        clamped to zero: the signature of a non-PSD matrix reaching the detector."""
        _, unclamped = self.config.per_shot_probabilities()
        return tuple(label for label, p in zip(CHANNELS, unclamped) if p < 0.0)

    @property
    def trials(self) -> int:
        return self.config.shots_per_channel

    @property
    def p_hat(self) -> np.ndarray:
        return np.array(self.detections, dtype=float) / self.trials

    @property
    def sigma(self) -> np.ndarray:
        p = self.p_hat
        return np.sqrt(p * (1.0 - p) / self.trials)

    def to_dict(self) -> dict:
        return {
            "schema_version": RUN_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "config_hash": self.config.hash(),
            "channels": [
                {"label": label, "N": self.trials, "k": k, "p_hat": float(p), "sigma": float(s)}
                for label, k, p, s in zip(CHANNELS, self.detections, self.p_hat, self.sigma)
            ],
            "flagged_channels": list(self.flagged_channels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRun":
        """The run of a run file's JSON in the one layout :meth:`to_dict` writes, its channels
        in ``CHANNELS`` order and each ``k`` read by position; every field must then equal
        the run's own serialisation, so a channel out of place is refused as any edit is."""
        if not isinstance(data, dict):
            raise ValueError(f"run must be an object, got {type(data).__name__}")
        config = ExperimentConfig.from_dict(_field(data, "config", "run"))
        channels = _field(data, "channels", "run")
        if not (isinstance(channels, list) and all(isinstance(ch, dict) for ch in channels)):
            raise ValueError(f"run channels must be a list of objects, one per channel in "
                             f"the order {list(CHANNELS)}")
        detections = tuple(
            _field(ch, "k", f"run channel {label}") for label, ch in zip(CHANNELS, channels)
        )
        experiment_run = cls(config, detections)
        _require_equal("run", data, experiment_run.to_dict())
        return experiment_run

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for label, k, p, s in zip(CHANNELS, self.detections, self.p_hat, self.sigma):
            lines.append(f"{label},{self.trials},{k},{float(p)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"


def _field(data: dict, name: str, where: str):
    if name not in data:
        raise ValueError(f"{where} is missing {name!r}")
    return data[name]


def _require_equal(where: str, got, want) -> None:
    """Refuses ``got`` unless it is exactly ``want`` (as JSON, in which 1, 1.0 and true
    differ), naming the first field that differs: objects key by key, lists entry by entry."""
    if isinstance(got, dict) and isinstance(want, dict):
        for name in {**want, **got}:
            if name not in want:
                raise ValueError(f"{where} {name} is not a field of a run file")
            _require_equal(f"{where} {name}", _field(got, name, where), want[name])
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            raise ValueError(f"{where} length {len(got)} differs from {len(want)}, which the "
                             f"run's config and counts give")
        for entry, (got_entry, want_entry) in enumerate(zip(got, want), 1):
            _require_equal(f"{where} entry {entry}", got_entry, want_entry)
    elif json.dumps(got, default=repr) != json.dumps(want):
        raise ValueError(f"{where} {_shown(got)} differs from {json.dumps(want)}, which the "
                         f"run's config and counts give")


# numpy's SeedSequence constants (O'Neill's seed_seq_fe): hashmix XORs its
# input with a running constant, steps the constant by MULT and multiplies by
# it; mix(x, y) is MIX_L x - MIX_R y; both end in a 16-bit xorshift.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_SHIFT = np.uint32(16)


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> _SHIFT)


def _hash_constants(init: int, mult: int, first: int, count: int):
    """The XOR and multiply constants of the hash steps first .. first + count - 1."""
    running = [init * pow(mult, k, 2**32) % 2**32 for k in range(first, first + count + 1)]
    return np.array(running[:-1], np.uint32), np.array(running[1:], np.uint32)


def _spawn_table(position: int) -> np.ndarray:
    """MIX_R · hashmix(i) for spawn words i = 0..5, hashed at ``position`` on.

    Row i is what child i's spawn word subtracts from each pool word, with
    the four columns repeated to the eight that ``generate_state`` reads.
    """
    xor, mul = _hash_constants(_INIT_A, _MULT_A, position, _POOL_SIZE)
    word = np.arange(len(CHANNELS), dtype=np.uint32)[:, None]
    return np.tile(np.uint32(_MIX_R) * _xorshift((word ^ xor) * mul), 2)


# A seed of at most four 32-bit words (below 2**128) fills the pool in the
# first 16 hash steps, so its children's spawn words are hashed at steps
# 16..19; each further seed word takes four more steps.
_SPAWN_TABLE = _spawn_table(16)
# generate_state's constants, and the pool word that each of its eight steps
# reads, one row per child, so that the in-place hash broadcasts nothing
_STATE_XOR, _STATE_MUL = (np.tile(c, (len(CHANNELS), 1))
                          for c in _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE))
_POOL_CYCLE = np.tile(np.arange(2 * _POOL_SIZE) % _POOL_SIZE, (len(CHANNELS), 1))


@cache
def _numpy_random():
    """numpy.random's SeedSequence, Generator and PCG64, and ``_SeedWords``, resolved once,
    at the first run, so that importing this module loads no numpy.random."""
    from numpy.random import PCG64, Generator, SeedSequence, bit_generator

    class _SeedWords(bit_generator.ISeedSequence):
        """Four precomputed uint64 seed words, offered to PCG64 as a seed sequence: PCG64
        asks for ``generate_state(4, uint64)`` once, and seeds its 128-bit state and
        increment from the answer."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedSequence, Generator, PCG64, _SeedWords


def _channel_generators(seed: int) -> list:
    """The generators of child i of ``SeedSequence(seed).spawn(6)``, i = 0..5.

    A child's entropy is the seed's words, zero-padded to the pool size, then
    its spawn word i.  Up to the spawn word it mixes exactly as the parent
    did, so its pool is the parent's pool mixed with hashmix(i), and its seed
    words are ``generate_state``'s hash of that pool: one (6, 8) uint32 pass.
    """
    seed_sequence, generator, pcg64, seed_words = _numpy_random()
    seed = int(seed)
    words = max(1, -(-seed.bit_length() // 32))
    table = _SPAWN_TABLE if words <= _POOL_SIZE else _spawn_table(16 + 4 * (words - _POOL_SIZE))
    # in place on one (6, 8) array: each ufunc call costs more than its 48 words
    state = seed_sequence(seed).pool[_POOL_CYCLE]
    state *= np.uint32(_MIX_L)
    state -= table
    state ^= state >> _SHIFT
    state ^= _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> _SHIFT
    rows = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [generator(pcg64(seed_words(row))) for row in rows]


def run(config: ExperimentConfig) -> ExperimentRun:
    """Simulate one run: six independent binomial draws from split substreams."""
    probabilities, _ = config.per_shot_probabilities()
    detections = tuple(
        generator.binomial(config.shots_per_channel, p)
        for generator, p in zip(_channel_generators(config.seed), probabilities.tolist())
    )
    return ExperimentRun(config, detections)


def estimate(
    runs: ExperimentRun | list[ExperimentRun],
    m: ProbeMatrix,
    z: float = 3.0,
    seed: int = 0,
) -> InversionResult:
    """Pool one or more runs and push the empirical rates through the inversion.

    All runs must share the physics configuration (coupling, phase, exposure,
    calibration and true matrix); seeds and shot counts may differ.  ``m`` must
    be the runs' own probe matrix: its ``g`` and ``phase`` within 1e-12 of
    theirs.  Empirical per-shot probabilities are rescaled to rates by
    1/(eta * exposure).  ``seed`` is neither read nor checked (no verdict path
    draws); it stays because the benchmark's ``perfbench/workloads.py`` passes it.
    """
    if isinstance(runs, ExperimentRun):
        runs = [runs]
    if not runs:
        raise ValueError("estimate needs at least one run")
    config = runs[0].config
    key = config.physics_key()
    if any(r.config.physics_key() != key for r in runs[1:]):
        raise ValueError("runs have mixed configurations and cannot be pooled")
    # written as "not <=" so that a nan g or phase is a mismatch too
    if not (abs(m.g - config.g) <= 1e-12 and abs(m.phase - config.phase) <= 1e-12):
        raise ValueError(f"probe matrix at (g, phase) = ({m.g}, {m.phase}) is not the runs' "
                         f"({config.g}, {config.phase})")

    # counts pooled as Python ints, which do not wrap near 2^63 as int64 would, and each
    # rate and sigma in Python floats, rounded as numpy rounds them
    n = float(sum(r.trials for r in runs))
    scale = config.calibration * config.exposure
    rates, sigmas = [], []
    for k in map(sum, zip(*(r.detections for r in runs))):
        p_hat = float(k) / n
        rates.append(p_hat / scale)
        sigmas.append(math.sqrt(p_hat * (1.0 - p_hat) / n) / scale)
    return invert_noisy(np.array(rates), np.array(sigmas), m, z=z)


def save_run(experiment_run: ExperimentRun, directory) -> tuple[str, str]:
    """Write run.json and run.csv into ``directory``; returns both paths."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "run.json"
    csv_path = directory / "run.csv"
    json_path.write_text(experiment_run.to_json(), encoding="utf-8")
    csv_path.write_text(experiment_run.to_csv(), encoding="utf-8")
    return str(json_path), str(csv_path)
