"""The golden corpus of ``adjudication/golden.py`` is reproduced.

Run files are pinned byte for byte.  In the JSON outputs every string, integer,
boolean, null and key is pinned exactly, and so are counts, verdicts and paths;
a float, which may pass through BLAS or LAPACK, may move by at most ULPS units
of eps times its output's scale, the largest magnitude among the committed
floats of that output (one CLI call's JSON, one line of a ``.jsonl`` file).
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache

import numpy as np

from adjudication import golden
from kossprobe import probe

ULPS = 16
EPS = sys.float_info.epsilon


def _floats(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for item in x:
            yield from _floats(item)
    elif type(x) is float:
        yield x


def _differences(want, got, where: str, scale: float) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(want)} != {list(got)}"]
        pairs = [(f"{where}.{key}", want[key], got[key]) for key in want]
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        pairs = [(f"{where}[{i}]", w, g) for i, (w, g) in enumerate(zip(want, got))]
    elif type(want) is float and type(got) is float:
        bound = ULPS * EPS * scale
        if abs(want - got) <= bound:
            return []
        return [f"{where}: {want!r} != {got!r} (bound {bound:.3g})"]
    else:
        return [] if type(want) is type(got) and want == got else [f"{where}: {want!r} != {got!r}"]
    return [d for at, w, g in pairs for d in _differences(w, g, at, scale)]


def _output_differences(want, got, where: str) -> list[str]:
    """How one output departs from another, its floats at the scale of ``want``."""
    return _differences(want, got, where, max(map(abs, _floats(want)), default=0.0))


def corpus_differences(want_dir, got_dir) -> list[str]:
    """Every way in which the corpus in ``got_dir`` departs from the one in ``want_dir``."""
    want = sorted(p.relative_to(want_dir) for p in want_dir.rglob("*") if p.is_file())
    got = sorted(p.relative_to(got_dir) for p in got_dir.rglob("*") if p.is_file())
    if want != got:
        return [f"files {sorted(set(want) ^ set(got))} are in one corpus only"]
    found = []
    for name in want:
        w, g = (want_dir / name).read_text(), (got_dir / name).read_text()
        if name.parts[0] == "runs":
            found += [] if w == g else [f"{name}: bytes differ"]
        elif name.suffix == ".jsonl":
            w, g = w.splitlines(), g.splitlines()
            if len(w) != len(g):
                found.append(f"{name}: {len(w)} lines != {len(g)}")
            found += [d for i, (a, b) in enumerate(zip(w, g))
                      for d in _output_differences(json.loads(a), json.loads(b), f"{name}:{i + 1}")]
        else:
            found += _output_differences(json.loads(w), json.loads(g), str(name))
    return found


def test_the_corpus_is_reproduced(tmp_path):
    golden.write(tmp_path)
    found = corpus_differences(golden.DIRECTORY, tmp_path)
    assert not found, "\n".join(found[:20])


def test_a_one_ulp_change_to_m_moves_the_corpus(tmp_path, monkeypatch):
    build = probe._probe_matrix.__wrapped__

    @lru_cache(maxsize=None)
    def nudged(coeffs, phase):
        m = build(coeffs, phase)
        return probe.ProbeMatrix(np.nextafter(m.matrix, np.inf), m.g, m.phase, m.source)

    monkeypatch.setattr(probe, "_probe_matrix", nudged)
    golden.write(tmp_path)
    assert corpus_differences(golden.DIRECTORY, tmp_path)
