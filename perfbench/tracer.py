"""Span tracing of kossprobe's public functions, installed from outside.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
under every name that refers to the original in any loaded ``kossprobe``
module.  Rebinding every alias matters: modules bind names at import time
(``experiment`` holds its own reference to ``probe.forward``), so patching
only the defining module would miss most calls.  Nothing under ``src/``
changes.

Spans are kept in memory as tuples and written out when the run ends:

    (span id, layer, start s, end s, parent span id or -1, item id, tag, draws)

``tag`` and ``draws`` are set on ``inversion.invert_noisy`` only: the tag
is "cp" or "bootstrap" by the verdict path (``margin_sigma`` is None on the
closed CP path), or "refused" when the call raised
``SingularProbeMatrixError``; ``draws`` is the bootstrap size on the
bootstrap path and 0 otherwise.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    ("scattering", "coefficients"),
    ("spin", "basis"),
    ("spin", "pauli_frame"),
    ("kossakowski", "d_tilde"),
    ("probe", "probability_rate"),
    ("probe", "forward"),
    ("probe", "build_matrix_programmatic"),
    ("inversion", "invert_noisy"),
    ("experiment", "run"),
    ("experiment", "estimate"),
    ("oracle", "adjudicate"),
)
LAYER_NAMES = tuple(f"{module}.{name}" for module, name in LAYERS)
INVERT = "inversion.invert_noisy"


class Tracer:
    """Records one span per call of each wrapped layer."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every layer; imports the modules that define them first."""
        import importlib

        import kossprobe.inversion as inversion

        loaded = {m: importlib.import_module(f"kossprobe.{m}") for m, _ in LAYERS}
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "kossprobe" or key.startswith("kossprobe."))]
        for module_name, func_name in LAYERS:
            original = getattr(loaded[module_name], func_name)
            if module_name == "inversion" and func_name == "invert_noisy":
                wrapper = self._wrap_invert(original, inversion.SingularProbeMatrixError)
            else:
                wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _open(self) -> tuple[int, int, float]:
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id, parent, start, layer, tag=None, draws=0) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span_id] = (span_id, layer, start, end, parent, self.item, tag, draws)

    def _wrap(self, layer: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open()
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span_id, parent, start, layer)

        return wrapper

    def _wrap_invert(self, func, refusal):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open()
            tag, draws = "error", 0
            try:
                result = func(*args, **kwargs)
            except refusal:
                tag = "refused"
                raise
            else:
                if result.margin_sigma is None:
                    tag = "cp"
                else:
                    tag = "bootstrap"
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    draws = int(bound.arguments["bootstrap"])
                return result
            finally:
                self._close(span_id, parent, start, INVERT, tag, draws)

        return wrapper



def write_spans(spans, path) -> None:
    """Write spans as one JSON array per line."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds), self time excluding child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {name: [0, 0.0] for name in LAYER_NAMES}
    for span_id, layer, start, end, *_ in spans:
        entry = totals[layer]
        entry[0] += 1
        entry[1] += (end - start) - child_time[span_id]
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def invert_paths(spans) -> dict[str, list[float]]:
    """Durations in seconds of ``invert_noisy`` calls, keyed by path tag."""
    paths: dict[str, list[float]] = defaultdict(list)
    for _, layer, start, end, _, _, tag, _ in spans:
        if layer == INVERT:
            paths[tag].append(end - start)
    return paths
