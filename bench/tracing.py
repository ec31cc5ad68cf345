"""Spans around the calls into adle's layers, recorded from outside.

The tracer replaces module attributes with timing wrappers; the library
is not edited.  A function is wrapped wherever an adle module holds it,
so a name imported into several modules (``_gain_kernel`` is called from
``estimator._advance`` and from ``harness._bank_checkpoint``) is timed at
every call site.  Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

#: Wrapped functions as ``(module, attribute path)``.  Each is looked up
#: in the module that calls it: ``_advance`` and the draw functions in
#: ``adle.harness``, the kernels of one round in ``adle.estimator``.
TARGETS = (
    ("cli", "parse_config"),
    ("model", "validate_observation_model"),
    ("harness", "run_experiment"),
    ("harness", "_run_bank"),
    ("harness", "_draw_topology_block"),
    ("harness", "_unit_variance_draws"),
    ("harness", "_laplacian_at"),
    ("harness", "_advance"),
    ("estimator", "_sample_cov_from_moments"),
    ("estimator", "_regularized_inverse"),
    ("estimator", "_gain_kernel"),
    ("estimator", "_neighborhood_sums_vec"),
    ("estimator", "_neighborhood_sums_mat"),
    ("schedule", "WeightSchedule.alpha"),
    ("schedule", "WeightSchedule.beta"),
    ("schedule", "WeightSchedule.gamma"),
    ("harness", "_bank_checkpoint"),
    ("estimator", "_max_disagreement"),
    ("harness", "_aggregate"),
    ("harness", "write_report"),
)

#: Lazily computed model attributes, timed by the benchmark's own set-up
#: code as spans around their first access.
SETUP_SPANS = ("model._stacked", "model._optimal_gain_stack")

LAYERS = tuple(f"{module}.{path}" for module, path in TARGETS) + SETUP_SPANS


class Tracer:
    """Records ``(name, parent index, start, end)`` for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            spans[index][3] = time.perf_counter()

    def _wrap(self, name: str, fn):
        # The body of span(), inlined: a wrapper runs about ten times per
        # bank step, and a context manager would double its overhead.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is noted as missing."""
        modules = [mod for key, mod in sys.modules.items() if key.startswith("adle")]
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"adle.{module_name}")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] if outer else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self time in seconds and call count per span name.

        A span's self time is its duration minus the durations of the
        spans it directly encloses.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for (name, _, start, end), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - inner
            entry[1] += 1
        return {name: (s, c) for name, (s, c) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "parent", "start_s", "end_s"])
            for index, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([index, name, parent, f"{start:.9f}", f"{end:.9f}"])


def advance_alloc_bytes(harness_module, run) -> float | None:
    """Bytes allocated and live at the peak of one ``harness._advance`` call.

    ``run`` drives a short experiment; the first call is left out and the
    median of the rest returned, or None when ``_advance`` no longer exists.
    """
    original = getattr(harness_module, "_advance", None)
    if original is None:
        return None
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = original(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    harness_module._advance = measured
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        harness_module._advance = original
    return float(statistics.median(peaks[1:]))
