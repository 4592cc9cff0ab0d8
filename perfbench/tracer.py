"""Outside-in span tracer for the ``mpb_lab`` layers.

The tracer wraps the public functions of the traced modules from the
benchmark's side; the program itself is not edited. Because modules bind
each other's functions by name (``from .linalg import hermitian_gevd``),
every ``mpb_lab`` module namespace, and every dict in one, is scanned for
the original object and rebound to the wrapper.

Spans (name, start, end, parent, run id) are appended to flat arrays in
memory while the run executes and are summarized or written only after
it ends. A span's self time is its duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from typing import Callable

import numpy as np

LAYERS = ("scenario", "core", "harness", "linalg", "adaptive", "analysis")
# Public methods traced alongside the module-level functions.
METHODS = (("harness", "SchemeGrams", "covariance_pair"),)


def _nbytes(obj) -> int:
    """Bytes held by the arrays in a result (dataclass, tuple, list, dict)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            _nbytes(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name != "config"
        )
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(item) for item in obj.values())
    return 0


def _chip_elements(stream) -> int:
    return int(stream.samples.shape[0] * stream.samples.shape[1])


# Per-call quantities recorded from a function's result: stat -> f(result).
RESULT_STATS: dict[str, dict[str, Callable]] = {
    "scenario.synthesize": {"out_bytes": _nbytes, "chip_elements": _chip_elements},
    "core.project_stream": {"out_bytes": _nbytes},
}


class Tracer:
    """Span store for one run. Not thread-safe: the program is single-threaded."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # name -> stat -> per-call values
        self.stats: dict[str, dict[str, list[int]]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return fn recording one span per call under name."""
        nid = self._name_id(name)
        result_stats = RESULT_STATS.get(name, {})
        stats = self.stats.setdefault(name, {k: [] for k in result_stats})
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            for stat, measure in result_stats.items():
                stats[stat].append(measure(result))
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds, self seconds, stat totals/maxima."""
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        if len(self.start):
            names = np.frombuffer(self.name, dtype=np.int32)
            parents = np.frombuffer(self.parent, dtype=np.int32)
            duration = np.frombuffer(self.end) - np.frombuffer(self.start)
            nested = parents >= 0
            covered = np.bincount(
                parents[nested], weights=duration[nested], minlength=duration.size
            )
            own = duration - covered
            k = len(self.names)
            calls = np.bincount(names, minlength=k)
            total = np.bincount(names, weights=duration, minlength=k)
            self_s = np.bincount(names, weights=own, minlength=k)
            for i, name in enumerate(self.names):
                out[name].update(
                    calls=int(calls[i]), total_s=float(total[i]), self_s=float(self_s[i])
                )
        for name, stats in self.stats.items():
            for stat, values in stats.items():
                out[name][f"{stat}_sum"] = int(sum(values))
                out[name][f"{stat}_max"] = int(max(values, default=0))
        return out

    def save(self, path) -> None:
        """Write every span to an .npz file (names indexed by the name column)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of the traced layers everywhere they are bound.

    Returns the traced names. Only functions defined in a traced module
    are wrapped, so re-exported names are traced once, under their home.
    """
    wrapped: dict[int, tuple[Callable, Callable]] = {}
    for layer in LAYERS:
        module = sys.modules[f"mpb_lab.{layer}"]
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for layer, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"mpb_lab.{layer}"], cls_name)
        original = vars(cls)[method]
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", original))

    def swap(namespace: dict) -> None:
        for key, value in list(namespace.items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]

    # module globals, plus module-level tables of functions such as
    # harness.RUNNERS, which run_preset dispatches through
    for name, module in list(sys.modules.items()):
        if name == "mpb_lab" or name.startswith("mpb_lab."):
            namespace = vars(module)
            swap(namespace)
            for key, value in namespace.items():
                if isinstance(value, dict) and not key.startswith("__"):
                    swap(value)
    return sorted(tracer.names)
